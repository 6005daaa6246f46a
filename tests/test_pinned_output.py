"""CLI output pinned byte for byte.

The literals below are the exact stdout of three commands. Any change to
the sweep CSV or the analyze JSON, down to the last digit or space, fails
here; the other CLI tests only parse these outputs.
"""

import pytest

from steerkit import cli

WERNER_SWEEP_CSV = """\
family,alpha,v,T1,normSq,ent,steer,bell,chsh,steer_margin
werner,,0,0,0,0,0,0,0,0
werner,,0.1,0.1,0.03,0,0,0,0,-0.08
werner,,0.2,0.2,0.12,0,0,0,0,-0.12
werner,,0.3,0.3,0.27,0,0,0,0,-0.12
werner,,0.4,0.4,0.48,1,0,0,0,-0.08
werner,,0.5,0.5,0.75,1,0,0,0,-1.11022302463e-16
werner,,0.6,0.6,1.08,1,1,0,0,0.12
werner,,0.7,0.7,1.47,1,1,0,0,0.28
werner,,0.8,0.8,1.92,1,1,1,1,0.48
werner,,0.9,0.9,2.43,1,1,1,1,0.72
werner,,1,1,3,1,1,1,1,1
"""

NOISY_SCHMIDT_SWEEP_CSV = """\
family,alpha,v,T1,normSq,ent,steer,bell,chsh,steer_margin
noisy-schmidt,1.0472,0,0,0,0,0,0,0,0
noisy-schmidt,1.0472,0.1,0.1,0.0250000424145,0,0,0,0,-0.083333305057
noisy-schmidt,1.0472,0.2,0.2,0.100000169658,0,0,0,0,-0.133333220228
noisy-schmidt,1.0472,0.3,0.3,0.22500038173,0,0,0,0,-0.149999745513
noisy-schmidt,1.0472,0.4,0.4,0.400000678631,1,0,0,0,-0.133332880912
noisy-schmidt,1.0472,0.5,0.5,0.625001060361,1,0,0,0,-0.0833326264257
noisy-schmidt,1.0472,0.6,0.6,0.900001526921,1,1,0,0,1.01794701945e-06
noisy-schmidt,1.0472,0.7,0.7,1.22500207831,1,1,0,0,0.116668052206
noisy-schmidt,1.0472,0.8,0.8,1.60000271453,1,1,0,1,0.26666847635
noisy-schmidt,1.0472,0.9,0.9,2.02500343557,1,1,1,1,0.450002290381
noisy-schmidt,1.0472,1,1,2.50000424145,1,1,1,1,0.666669494297
"""

NOISY_SCHMIDT_ANALYZE_JSON = """\
{
  "label": "noisy-schmidt(alpha=1.2, v=0.9)",
  "tensor": [
    [
      1.0,
      0.0,
      0.0,
      0.3261219790290063
    ],
    [
      0.0,
      -0.8388351773705037,
      0.0,
      0.0
    ],
    [
      0.0,
      0.0,
      -0.8388351773705037,
      0.0
    ],
    [
      -0.3261219790290063,
      0.0,
      0.0,
      -0.9
    ]
  ],
  "schmidt": {
    "u": [
      [
        0.0,
        0.0,
        1.0
      ],
      [
        0.0,
        1.0,
        0.0
      ],
      [
        1.0,
        0.0,
        0.0
      ]
    ],
    "sigma": [
      0.9,
      0.8388351773705037,
      0.8388351773705037
    ],
    "v": [
      [
        -0.0,
        -0.0,
        -1.0
      ],
      [
        -0.0,
        -1.0,
        -0.0
      ],
      [
        -1.0,
        -0.0,
        -0.0
      ]
    ]
  },
  "norm_sq": 2.217288909588409,
  "verdicts": [
    {
      "criterion": "entanglement",
      "lhs": 0.9,
      "bound": 2.217288909588409,
      "margin": 1.317288909588409,
      "detected": true,
      "boundary": false
    },
    {
      "criterion": "steering",
      "lhs": 0.9,
      "bound": 1.4781926063922726,
      "margin": 0.5781926063922725,
      "detected": true,
      "boundary": false
    },
    {
      "criterion": "bell",
      "lhs": 0.9,
      "bound": 0.9854617375948483,
      "margin": 0.08546173759484832,
      "detected": true,
      "boundary": false
    },
    {
      "criterion": "chsh",
      "lhs": 1.5136444547942045,
      "bound": 1.0,
      "margin": 0.5136444547942045,
      "detected": true,
      "boundary": false
    }
  ],
  "summary": "entanglement detected; steering detected; bell detected; chsh detected"
}
"""


@pytest.mark.parametrize("argv,expected", [
    (["sweep", "--family", "werner", "--grid", "0:1:11"], WERNER_SWEEP_CSV),
    (["sweep", "--family", "noisy-schmidt", "--alpha", "1.0472", "--grid", "0:1:11"],
     NOISY_SCHMIDT_SWEEP_CSV),
    (["analyze", "--family", "noisy-schmidt", "--alpha", "1.2", "--v", "0.9"],
     NOISY_SCHMIDT_ANALYZE_JSON),
], ids=["sweep-werner", "sweep-noisy-schmidt", "analyze-noisy-schmidt"])
def test_output_bytes_pinned(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
