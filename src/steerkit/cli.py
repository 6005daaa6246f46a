"""Command-line front end: analyze | sweep | verify | threshold.

Exit codes: 0 success, 1 I/O or parse failure, 2 validation or parameter
range failure, 3 verification failure, 4 no detection on [0, 1].
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .criteria import (
    Criterion,
    NoDetection,
    boundary,
    critical_noise,
    detected,
    ladder,
    tensor_norm_sq,
)
from .families import FAMILY_NAMES, ParameterOutOfRange, family_from_name, sweep
from .states import DensityMatrix4, StateValidationError, pauli_expansion, validate_state
from .svd3 import svd3

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_VERIFY_FAILED = 3
EXIT_NO_DETECTION = 4
MAX_GRID_POINTS = 10**6  # a sweep holds about 480 B per point, so 0.5 GB here


class DocumentError(ValueError):
    """State document is structurally malformed."""


def parse_state_document(data: dict) -> tuple[DensityMatrix4, str]:
    if not isinstance(data, dict) or "matrix" not in data:
        raise DocumentError("document must be an object with a 'matrix' field")
    raw = data["matrix"]
    values = []
    try:
        for row in raw:
            for cell in row:
                real, imag = cell if isinstance(cell, list) and len(cell) == 2 else (None, None)
                # JSON true/false load as bool, a subclass of int, so reject them by type.
                if (not isinstance(real, (int, float)) or not isinstance(imag, (int, float))
                        or isinstance(real, bool) or isinstance(imag, bool)):
                    raise ValueError(f"cell {cell!r} is not two numbers")
                values += cell
        # Consecutive [re, im] floats are the layout of complex128.
        entries = np.array(values, dtype=float).view(complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"matrix must be 4x4 of [re, im] pairs: {exc}") from exc
    if len(raw) != 4 or any(len(row) != 4 for row in raw):
        raise DocumentError(
            f"matrix must be 4x4, got rows of lengths {[len(row) for row in raw]}")
    label = data.get("label", "state document")
    if not isinstance(label, str):
        raise DocumentError("label must be a string")
    return validate_state(entries.reshape(4, 4)), label


def _load_state(args) -> tuple[DensityMatrix4, str]:
    import json  # only analyze reads or writes JSON

    if args.state is not None:
        given = [f"--{k}" for k in ("family", "v", "alpha") if getattr(args, k) is not None]
        if given:
            raise DocumentError(f"a document path takes no {', '.join(given)}")
        with open(args.state, "r", encoding="utf-8") as fp:
            try:
                data = json.load(fp)
            except RecursionError:
                raise DocumentError("document nests too deeply") from None
            except ValueError as exc:  # bad UTF-8 or JSON, or an int past the digit limit
                raise DocumentError(str(exc)) from exc
        return parse_state_document(data)
    if args.family is None:
        raise DocumentError("give a document path or --family")
    if args.v is None:
        raise ParameterOutOfRange("--family needs --v")
    family = family_from_name(args.family, args.alpha)
    label = args.family + "(" + ", ".join(
        f"{k}={x:g}" for k, x in (*family.shape_parameters.items(), ("v", args.v))
    ) + ")"
    return family.state_at(args.v), label


def _status(verdict: dict) -> str:
    if verdict["detected"]:
        return "detected"
    if verdict["boundary"]:
        return "boundary"
    return "inconclusive"


def analysis_report(state: DensityMatrix4, label: str) -> dict:
    tensor = pauli_expansion(state)
    schmidt = svd3(tensor.block)
    sigma = schmidt.sigma.tolist()
    norm_sq = tensor_norm_sq(tensor)
    verdicts = [
        {
            "criterion": criterion.value,
            "lhs": lhs,
            "bound": bound,
            "margin": margin,
            "detected": detected(margin),
            "boundary": boundary(margin),
        }
        for criterion, (lhs, bound, margin) in ladder(
            sigma[0], sigma[1], norm_sq).items()
    ]
    return {
        "label": label,
        "tensor": tensor.full.tolist(),
        "schmidt": {"u": schmidt.u.tolist(), "sigma": sigma, "v": schmidt.v.tolist()},
        "norm_sq": norm_sq,
        "verdicts": verdicts,
        "summary": "; ".join(f"{v['criterion']} {_status(v)}" for v in verdicts),
    }


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)


def cmd_analyze(args) -> int:
    import json

    state, label = _load_state(args)
    report = analysis_report(state, label)
    _write(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise DocumentError(f"--grid must be START:STOP:COUNT, got {spec!r}") from exc
    if count < 0 or not 0.0 <= start <= stop <= 1.0:
        raise ParameterOutOfRange(f"grid {spec!r} outside [0, 1] or negative count")
    if count > MAX_GRID_POINTS:
        raise ParameterOutOfRange(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return np.linspace(start, stop, count)


def cmd_sweep(args) -> int:
    family = family_from_name(args.family, args.alpha)
    result = sweep(family, _parse_grid(args.grid))
    alpha = family.shape_parameters.get("alpha")
    # One template per row: no field holds a comma or a quote, so none needs
    # CSV quoting, and '%.12g' % x prints what format(x, ".12g") does.
    row = (f"{family.name},{'' if alpha is None else format(alpha, '.12g')},"
           "%.12g,%.12g,%.12g,%d,%d,%d,%d,%.12g\n")
    # One flag column per criterion in ladder order: ent, steer, bell, chsh.
    flags = [detected(margin).tolist() for _, _, margin in result.rows.values()]
    steer_margin = result.rows[Criterion.GEOMETRIC_STEERING][2]
    _write("".join([
        "family,alpha,v,T1,normSq,ent,steer,bell,chsh,steer_margin\n",
        *map(row.__mod__, zip(result.v.tolist(), result.sigma[:, 0].tolist(),
                              result.norm_sq.tolist(), *flags, steer_margin.tolist())),
    ]), args.out)
    return EXIT_OK


def cmd_threshold(args) -> int:
    family = family_from_name(args.family, args.alpha)
    criterion = Criterion(args.criterion)
    try:
        v = critical_noise(family, criterion)
    except NoDetection:
        print("none")
        return EXIT_NO_DETECTION
    print(f"{v:.10f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Print the records of ``verify.run_checks`` as a table; exit 3 if one failed."""
    from . import verify  # the only command that needs the oracle and the quadrature

    checks = verify.run_checks(args.level, args.seed)
    print(f"verification level={args.level} seed={args.seed}")
    header = f"{'check':<42} {'target':<28} {'computed':>14} {'defect':>12} {'tol':>9} status"
    print(header)
    for c in checks:
        print(
            f"{c.name:<42} {c.target:<28} {c.value:>14.6e} {c.defect:>12.3e} "
            f"{c.tol:>9.0e} {'pass' if c.passed else 'FAIL'}"
        )
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"{len(failed)} of {len(checks)} checks FAILED")
        return EXIT_VERIFY_FAILED
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Correlation-tensor criteria for two-qubit steering, "
                    "entanglement and Bell nonlocality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full criterion report for one state")
    p.add_argument("state", nargs="?", default=None,
                   help="path to a JSON state document")
    p.add_argument("--family", choices=FAMILY_NAMES)
    p.add_argument("--v", type=float, help="noise parameter in [0, 1]")
    p.add_argument("--alpha", type=float, help="shape angle for noisy-schmidt")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("sweep", help="criteria table over a parameter grid")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid", default="0:1:101", help="v grid as START:STOP:COUNT")
    p.add_argument("--out", help="write the CSV table here instead of stdout")

    p = sub.add_parser("verify", help="run the integral-identity test bench")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument("--seed", type=_seed, default=42)

    p = sub.add_parser("threshold", help="critical noise for one criterion")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--criterion", required=True, choices=[c.value for c in Criterion])
    p.add_argument("--alpha", type=float)
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "threshold": cmd_threshold,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (StateValidationError, ParameterOutOfRange) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
