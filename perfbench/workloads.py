"""The three workloads: seeded inputs, one round of operations, output checks.

Every round of a workload runs the same operations on the same inputs, so
the share of failed operations is the same in every run. Each round's
outputs are checked against ``reference``, which shares no code with
steerkit.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import reference as ref
import steerkit.cli
from steerkit import criteria, families, oracle, states


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Context:
    """How a round reaches the program: CLI runner and family wrapper."""

    cli: Callable[[list[str]], CliRun]
    family: Callable = lambda family: family


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _close(a, b, tol: float = 1e-11) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _ginibre(rng: np.random.Generator, rank: int) -> np.ndarray:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    h = g @ g.conj().T
    h = 0.5 * (h + h.conj().T)
    return h / np.trace(h).real


def _noisy_pure(psi: np.ndarray, v: float) -> np.ndarray:
    return v * np.outer(psi, psi.conj()) + (1.0 - v) * np.eye(4) / 4.0


def _noisy_schmidt(alpha: float, v: float) -> np.ndarray:
    psi = np.array([0.0, math.sin(alpha / 2.0), -math.cos(alpha / 2.0), 0.0])
    return _noisy_pure(psi, v)


class Failed(Exception):
    """Stands in for the output of an operation that raised."""


def p90(samples: list[float]) -> float:
    """90th percentile, nearest rank. The shared host runs code in phases
    up to 2x apart in speed, and their mix changes from run to run; the
    slow tail, the common contended state, moves least with it."""
    return sorted(samples)[max(0, math.ceil(0.9 * len(samples)) - 1)]


class Workload:
    """One round: the CLI operations in order, with the in-process
    operations cut into equal chunks and spread between them, so both kinds
    are sampled across the whole run."""

    chunk_size = 1

    def __init__(self):
        self.cli_seconds: list[float] = []
        self.chunk_seconds: list[float] = []

    def warm_up(self) -> None:
        self.call(self.lib_items(Context(cli=None))[0])

    def prepare(self) -> None:
        """Untimed work before the first round, such as reference values."""

    def round(self, ctx: Context, tally: Tally) -> float:
        items = self.lib_items(ctx)
        chunks = [items[i:i + self.chunk_size] for i in range(0, len(items), self.chunk_size)]
        ops = self.cli_ops()
        busy = 0.0
        for n, (argv, judge) in enumerate(ops):
            run = ctx.cli(argv)
            busy += run.seconds
            if judge(run, tally):
                self.cli_seconds.append(run.seconds)
            for chunk in chunks[n * len(chunks) // len(ops):(n + 1) * len(chunks) // len(ops)]:
                busy += self._run_chunk(chunk, tally)
        return busy

    def _run_chunk(self, chunk: list, tally: Tally) -> float:
        outputs = []
        start = perf_counter()
        for item in chunk:
            try:
                outputs.append(self.call(item))
            except Exception as exc:  # counted as a failed operation below
                outputs.append(Failed(exc))
        elapsed = perf_counter() - start
        self.chunk_seconds.append(elapsed)
        for item, out in zip(chunk, outputs):
            tally.op(not isinstance(out, Failed))
            if not isinstance(out, Failed):
                tally.problems += self.check(item, out)
        return elapsed

    def metrics(self) -> tuple[float, float]:
        """cli_s and lib_ops_per_s, from the 90th percentiles of CLI and chunk time."""
        return p90(self.cli_seconds), self.chunk_size / p90(self.chunk_seconds)

    def cli_ops(self) -> list[tuple[list[str], Callable[[CliRun, Tally], bool]]]:
        """(argv, judge) per CLI operation; judge counts the operation in the
        tally, checks its output and says whether its time is a sample."""
        raise NotImplementedError

    def lib_items(self, ctx: Context) -> list:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, item, output) -> list[str]:
        raise NotImplementedError


def _succeeds(check: Callable[[CliRun], list[str]]):
    """Judge for a CLI operation that must exit 0 and pass ``check``."""

    def judge(run: CliRun, tally: Tally) -> bool:
        tally.op(run.code == 0)
        if run.code == 0:
            tally.problems += check(run)
        return run.code == 0

    return judge


# --- analyze -----------------------------------------------------------------

POOL_SIZE = 1000
# Fixed proportions in every run: 30% full-rank, 20% pure, 20% rank 2 or 3,
# 10% mixed product, 20% Werner or noisy-Schmidt family states.
CATEGORIES = ("full-rank",) * 3 + ("pure",) * 2 + ("rank-deficient",) * 2 \
    + ("product",) + ("family",) * 2
TIE_GAP = 1e-6
_NAN_DOCUMENT = {
    "label": "NaN off-diagonal entry",
    "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
}
_NAN_DOCUMENT["matrix"][0][1] = [float("nan"), 0.0]


def _draw(rng: np.random.Generator, category: str) -> np.ndarray:
    if category == "full-rank":
        return _ginibre(rng, 4)
    if category == "pure":
        return _ginibre(rng, 1)
    if category == "rank-deficient":
        return _ginibre(rng, int(rng.integers(2, 4)))
    if category == "product":
        qubits = []
        for _ in range(2):
            n = rng.normal(size=3)
            r = rng.uniform(0.3, 0.95) * n / np.linalg.norm(n)
            qubits.append(0.5 * (ref.PAULIS[0] + sum(r[k] * ref.PAULIS[k + 1] for k in range(3))))
        return np.kron(*qubits)
    if rng.random() < 0.5:
        return _noisy_pure(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0), rng.uniform())
    return _noisy_schmidt(rng.uniform(0.1, math.pi - 0.1), rng.uniform())


@dataclass(frozen=True)
class StateReference:
    table: np.ndarray
    sigma: np.ndarray
    norm_sq: float
    margins: dict
    pt_min: float


def state_reference(rho) -> StateReference:
    table = ref.pauli_table(rho)
    block = table[1:, 1:]
    sigma = ref.singular_values(block)
    norm_sq = float(np.sum(block * block))
    return StateReference(table, sigma, norm_sq, ref.criterion_margins(sigma, norm_sq),
                          ref.partial_transpose_min_eig(rho))


def check_report(report: dict, expect: StateReference, label: str) -> list[str]:
    """Everything an analyze report claims, against the independent reference."""
    bad: list[str] = []

    def need(ok, what):
        if not ok:
            bad.append(f"{label}: {what}")

    schmidt = report["schmidt"]
    u, sigma, v = (np.array(schmidt[k], dtype=float) for k in ("u", "sigma", "v"))
    need(report["label"] == label, "label")
    need(_close(report["tensor"], expect.table), "Pauli table")
    need(_close(sigma, expect.sigma), "singular values")
    need(_close(report["norm_sq"], expect.norm_sq), "norm_sq")
    need(_close(u @ u.T, np.eye(3)) and _close(v @ v.T, np.eye(3)), "u, v orthonormal")
    need(_close(u.T @ np.diag(sigma) @ v, expect.table[1:, 1:]), "reconstruction of T")
    verdicts = report["verdicts"]
    need([x["criterion"] for x in verdicts] == list(ref.CRITERIA), "criteria")
    flags = {}
    for x in verdicts:
        margin = expect.margins.get(x["criterion"], math.nan)
        need(_close(x["margin"], margin) and x["detected"] == ref.detected(margin)
             and not x["boundary"], f"{x['criterion']} verdict")
        flags[x["criterion"]] = x["detected"]
    need(not flags.get("bell") or flags.get("steering"), "Bell without steering")
    need(not flags.get("steering") or flags.get("entanglement"), "steering without entanglement")
    need(not any(flags.values()) or expect.pt_min < 0.0,
         "detection with a positive partial transpose")
    return bad


class Analyze(Workload):
    """CLI analyze per document (start-up bound), and in-process reports."""

    chunk_size = len(CATEGORIES)

    def __init__(self, seed: int, work_dir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.pool = []
        for i in range(POOL_SIZE):
            category = CATEGORIES[i % len(CATEGORIES)]
            while True:
                rho = _draw(rng, category)
                expect = state_reference(rho)
                if min(abs(m) for m in expect.margins.values()) > TIE_GAP:
                    break
            doc = {"label": f"{category} {i}",
                   "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}
            self.pool.append((doc, expect))
        self.cli_docs = []
        for category in dict.fromkeys(CATEGORIES):
            i = CATEGORIES.index(category)
            doc, expect = self.pool[i]
            path = work_dir / f"analyze-{i}.json"
            path.write_text(json.dumps(doc))
            self.cli_docs.append((str(path), doc["label"], expect))
        self.nan_path = work_dir / "analyze-nan.json"
        self.nan_path.write_text(json.dumps(_NAN_DOCUMENT))

    def cli_ops(self):
        def report_check(label, expect):
            def check(run):
                try:
                    return check_report(json.loads(run.stdout), expect, label)
                except (ValueError, KeyError, TypeError) as exc:
                    return [f"{label}: unreadable report ({exc!r})"]
            return check

        def nan_judge(run: CliRun, tally: Tally) -> bool:
            # A known fault: NaN passes validation; should exit 2 with a diagnostic.
            tally.op(run.code == 2 and "invalid input:" in run.stderr)
            return False

        return [(["analyze", path], _succeeds(report_check(label, expect)))
                for path, label, expect in self.cli_docs] \
            + [(["analyze", str(self.nan_path)], nan_judge)]

    def lib_items(self, ctx):
        return self.pool

    def call(self, item):
        return steerkit.cli.analysis_report(*steerkit.cli.parse_state_document(item[0]))

    def check(self, item, output):
        doc, expect = item
        return check_report(output, expect, doc["label"])


# --- families ----------------------------------------------------------------

# 4001 intervals: no Werner threshold (1/3, 1/2, 3/4, 1/sqrt 2) is a grid point.
GRID_POINTS = 4002
CSV_HEADER = ["family", "alpha", "v", "T1", "normSq", "ent", "steer", "bell", "chsh",
              "steer_margin"]
SWEEP_STRATA = ((0.15, 0.45), (1.00, 1.30), (2.30, 2.55))
# Threshold alphas lie where Bell never detects (sin^2 < 5/8) but steering
# does (sin^2 > 1/4), so at every alpha three calls scan and bisect and one
# scan ends in NoDetection; the 90th percentile of call time then always
# falls among the bisecting calls.
THRESHOLD_STRATA = ((0.56, 0.64), (0.64, 0.72), (0.72, 0.80), (0.80, 0.87),
                    (2.28, 2.37), (2.37, 2.47), (2.47, 2.57))
ALPHAS_PER_STRATUM = 2


def _alpha_away_from_ties(rng: np.random.Generator, lo: float, hi: float) -> float:
    while True:
        alpha = float(rng.uniform(lo, hi))
        gaps = []
        for criterion in ref.CRITERIA:
            v = ref.noisy_schmidt_threshold(alpha, criterion)
            if v is not None:
                k = v * (GRID_POINTS - 1)
                gaps.append(abs(k - round(k)) / (GRID_POINTS - 1))
        if min(gaps) > 1e-7:
            return alpha


def check_sweep(text: str, family: str, alpha: float | None) -> list[str]:
    label = f"sweep {family} alpha={alpha}"
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER or len(rows) != GRID_POINTS + 1 \
            or any(len(r) != len(CSV_HEADER) for r in rows[1:]):
        return [f"{label}: CSV shape or header"]
    cols = list(zip(*rows[1:]))
    bad = []
    if set(cols[0]) != {family}:
        bad.append(f"{label}: family column")
    if alpha is None:
        a = math.pi / 2.0
        if set(cols[1]) != {""}:
            bad.append(f"{label}: alpha column")
    else:
        a = alpha
        if not _close(np.array(cols[1], dtype=float), np.full(GRID_POINTS, alpha)):
            bad.append(f"{label}: alpha column")
    v = np.array(cols[2], dtype=float)
    if not _close(v, np.arange(GRID_POINTS) / (GRID_POINTS - 1)):
        bad.append(f"{label}: v column")
    sigma = ref.noisy_schmidt_sigma(a, v)
    norm_sq = ref.noisy_schmidt_norm_sq(a, v)
    margins = ref.criterion_margins(sigma, norm_sq)
    if not _close(np.array(cols[3], dtype=float), sigma[0]):
        bad.append(f"{label}: T1 != v")
    if not _close(np.array(cols[4], dtype=float), norm_sq):
        bad.append(f"{label}: normSq != v^2 (1 + 2 sin^2 alpha)")
    for col, criterion in zip(cols[5:9], ref.CRITERIA):
        if not np.array_equal(np.array(col, dtype=int), ref.detected(margins[criterion])):
            bad.append(f"{label}: {criterion} flags")
    if not _close(np.array(cols[9], dtype=float), margins["steering"]):
        bad.append(f"{label}: steer_margin")
    return bad


class Families(Workload):
    """CLI sweeps over thousands of points, and in-process thresholds."""

    def __init__(self, seed: int, work_dir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.sweeps = [("werner", None)] + [
            ("noisy-schmidt", _alpha_away_from_ties(rng, *s)) for s in SWEEP_STRATA]
        self.alphas = [_alpha_away_from_ties(rng, *s)
                       for s in THRESHOLD_STRATA for _ in range(ALPHAS_PER_STRATUM)]
        self.families = [families.noisy_schmidt_family(a) for a in self.alphas]

    def cli_ops(self):
        ops = []
        for family, alpha in self.sweeps:
            argv = ["sweep", "--family", family, "--grid", f"0:1:{GRID_POINTS}"]
            if alpha is not None:
                argv += ["--alpha", repr(alpha)]
            ops.append((argv, _succeeds(
                lambda run, family=family, alpha=alpha: check_sweep(run.stdout, family, alpha))))
        return ops

    def lib_items(self, ctx):
        return [(alpha, ctx.family(family), criterion)
                for alpha, family in zip(self.alphas, self.families)
                for criterion in criteria.Criterion]

    def call(self, item):
        _, family, criterion = item
        try:
            return criteria.critical_noise(family, criterion)
        except criteria.NoDetection:
            return None

    def check(self, item, v):
        alpha, _, criterion = item
        want = ref.noisy_schmidt_threshold(alpha, criterion.value)
        if (v is None and want is None) or (
                v is not None and want is not None
                and abs(v - want) <= criteria.BISECTION_TOL + 1e-12):
            return []
        return [f"critical_noise alpha={alpha} {criterion.value}: {v} != {want}"]


# --- verify ------------------------------------------------------------------

POOL_PAIRS = 2000
# verify --level full runs 13 s, so a run would hold 2 of them and their
# times swung 25% between runs; --level fast runs the same checks on fewer
# draws in about 2 s, so a run holds a dozen.
VERIFY_SEEDS = 3


def model_components(model) -> list[tuple]:
    """A steerkit HiddenStateModel as (weight, hidden, kind, vector) tuples."""
    out = []
    for c in model.components:
        r = c.response
        if isinstance(r, oracle.SignResponse):
            out.append((c.weight, c.hidden_state, "sign", r.axis))
        elif isinstance(r, oracle.ClippedLinearResponse):
            out.append((c.weight, c.hidden_state, "clipped", r.vector))
        elif isinstance(r, oracle.ConstantResponse):
            out.append((c.weight, c.hidden_state, "constant", None))
        else:
            raise TypeError(f"no closed form for {type(r).__name__}")
    return out


class Verify(Workload):
    """CLI verify --level fast, and in-process model_state_overlap calls."""

    chunk_size = 20

    def __init__(self, seed: int, work_dir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.pairs = []
        for _ in range(POOL_PAIRS):
            table = ref.pauli_table(_ginibre(rng, 4))
            table[0, 0] = 1.0
            self.pairs.append((states.CorrelationTensor(table), oracle.random_model(rng)))
        self.expected: list[tuple[float, float]] = []

    def prepare(self):
        for tensor, model in self.pairs:
            block = np.array(tensor.full)[1:, 1:]
            self.expected.append((ref.model_overlap(block, model_components(model)),
                                  ref.ns_bound(ref.singular_values(block)[0])))

    def cli_ops(self):
        def checker(argv):
            def check(run):
                if run.stdout.rstrip().endswith("all 11 checks passed"):
                    return []
                return [f"{' '.join(argv)}: not all 11 checks passed"]
            return check

        argvs = [["verify", "--level", "fast", "--seed", str(self.seed + k)]
                 for k in range(VERIFY_SEEDS)]
        return [(argv, _succeeds(checker(argv))) for argv in argvs]

    def lib_items(self, ctx):
        return list(range(len(self.pairs)))

    def call(self, k):
        return oracle.model_state_overlap(*self.pairs[k])

    def check(self, k, value):
        want, bound = self.expected[k]
        if abs(value - want) <= 1e-9 * bound and value <= bound * (1.0 + 1e-6):
            return []
        return [f"overlap pair {k}: {value!r} vs closed form {want!r}"]


WORKLOADS = {"analyze": Analyze, "families": Families, "verify": Verify}
