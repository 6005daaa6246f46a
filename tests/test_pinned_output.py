"""CLI output pinned byte for byte.

The literals below are the exact stdout of four commands. Any change to
the sweep CSV or the analyze JSON, down to the last digit or space, fails
here; the other CLI tests only parse these outputs. The dense document's
correlation block has no zero entry, so its report also pins the order of
the Pauli sums and the sign convention of the singular vectors.
"""

import json

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


# sk.random_density_matrix(np.random.default_rng(9)), as state_to_document writes it.
DENSE_MATRIX = [
    [[0.23707749654879448, 0.0], [0.08971099206553068, -0.14881721563004557],
     [0.0558955312726047, 0.11226903518893487], [-0.12121978267328745, 0.15991284228201813]],
    [[0.08971099206553068, 0.14881721563004557], [0.258048469573974, 0.0],
     [-0.10411514994350986, 0.16398767046699333], [-0.12081943011271187, -0.039638186659881225]],
    [[0.0558955312726047, -0.11226903518893487], [-0.10411514994350986, -0.16398767046699333],
     [0.22807141207807813, 0.0], [-0.04472966338612039, 0.03512510353650499]],
    [[-0.12121978267328745, -0.15991284228201813], [-0.12081943011271187, 0.039638186659881225],
     [-0.04472966338612039, -0.03512510353650499], [0.27680262179915355, 0.0]],
]

DENSE_ANALYZE_JSON = """\
{
  "label": "random_density_matrix(default_rng(9))",
  "tensor": [
    [
      1.0,
      0.08996265735882059,
      0.22738422418708115,
      -0.06970218274625484
    ],
    [
      -0.12984779768021434,
      -0.45066986523359465,
      0.008149656369950409,
      0.3534299227706331
    ],
    [
      -0.1452616970581073,
      -0.6478010254980229,
      0.03420926545955519,
      -0.3038144436976322
    ],
    [
      -0.009748067754463213,
      0.26888131090330214,
      0.36788463833310114,
      0.027760236695895918
    ]
  ],
  "schmidt": {
    "u": [
      [
        0.489265163753258,
        0.7879382891437579,
        -0.373862076224248
      ],
      [
        0.8433789410779516,
        -0.5366270772484766,
        -0.02726429368223048
      ],
      [
        0.22210709417695496,
        0.3019679328421573,
        0.9270834947572434
      ]
    ],
    "sigma": [
      0.8417689335246388,
      0.46257043517254887,
      0.35645850472415763
    ],
    "v": [
      [
        -0.9877399713712844,
        -0.12663330445617654,
        -0.09128940331694321
      ],
      [
        -0.08601665555251314,
        -0.04651072088429054,
        0.9952074596838512
      ],
      [
        -0.1302723451965709,
        0.9908585968973238,
        0.03504792478382355
      ]
    ]
  },
  "norm_sq": 1.0496090105331115,
  "verdicts": [
    {
      "criterion": "entanglement",
      "lhs": 0.8417689335246388,
      "bound": 1.0496090105331115,
      "margin": 0.20784007700847273,
      "detected": true,
      "boundary": false
    },
    {
      "criterion": "steering",
      "lhs": 0.8417689335246388,
      "bound": 0.6997393403554076,
      "margin": -0.14202959316923114,
      "detected": false,
      "boundary": false
    },
    {
      "criterion": "bell",
      "lhs": 0.8417689335246388,
      "bound": 0.46649289357027174,
      "margin": -0.37527603995436704,
      "detected": false,
      "boundary": false
    },
    {
      "criterion": "chsh",
      "lhs": 0.922546344942929,
      "bound": 1.0,
      "margin": -0.07745365505707102,
      "detected": false,
      "boundary": false
    }
  ],
  "summary": "entanglement detected; steering inconclusive; bell inconclusive; chsh inconclusive"
}
"""


def test_dense_document_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(
        {"label": "random_density_matrix(default_rng(9))", "matrix": DENSE_MATRIX}))
    assert cli.main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == DENSE_ANALYZE_JSON
