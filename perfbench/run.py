"""steerkit benchmark: one workload per run, timed from outside the package.

    python3 perfbench/run.py --workload analyze|families|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing needs installing. The program is
imported from ``src/`` and its CLI runs as ``python -m steerkit.cli``.
Load comes from this one process as a closed loop with one client: each
CLI subprocess or library call starts after the previous one returns.
Rounds of identical operations repeat until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the CLI
in-process through ``steerkit.cli.main``, traces every public steerkit
function on alternate rounds and prints the per-layer metrics. The last
line of stdout is the result as one JSON object; result and trace files
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

WORKLOADS = ("analyze", "families", "verify")
SETUP_SAMPLES = 5
CLI_TIMEOUT_S = 60.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup(workload: str, seed: int):
    """Import the program, generate the inputs and warm up; return the time."""
    start = perf_counter()
    import workloads  # first import of numpy and steerkit happens here

    work_dir = OUT / f"{workload}-seed{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, work_dir)
    wl.warm_up()
    return wl, perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """Time the set-up once more, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for proc without polling; return its resource usage."""
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            raise TimeoutError(f"{proc.args} ran longer than {timeout} s")
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class SubprocessCli:
    """``python -m steerkit.cli ARGS`` as a child; wall time and peak RSS."""

    def __init__(self, work_dir: Path):
        self.env = _env()
        self.stdout = work_dir / "cli.stdout"
        self.stderr = work_dir / "cli.stderr"
        self.peak_rss_kb = 0

    def __call__(self, args):
        from workloads import CliRun

        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "steerkit.cli", *args],
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                usage = _reap(proc, CLI_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = perf_counter() - start
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return CliRun(proc.returncode, self.stdout.read_text(), self.stderr.read_text(),
                      seconds)


def in_process_cli(args):
    """``steerkit.cli.main(args)`` with stdout and stderr captured."""
    import steerkit.cli
    from workloads import CliRun

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = steerkit.cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error exits 1 with a traceback
            traceback.print_exc()
            code = 1
    return CliRun(code, out.getvalue(), err.getvalue(), perf_counter() - start)


def run_rounds(wl, seconds: float, cli, tracer=None):
    """Repeat whole rounds until ``seconds`` pass; with a tracer, trace every
    other round (at least one of each). Returns tally and busy seconds per
    round, split into traced and untraced."""
    from workloads import Context, Tally

    tally = Tally()
    busy = {True: [], False: []}
    start = perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            with tracer.installed():
                busy[True].append(wl.round(Context(cli, tracer.traced_family), tally))
        else:
            busy[False].append(wl.round(Context(cli), tally))
        rounds += 1
        if perf_counter() - start >= seconds and (tracer is None or rounds >= 2):
            return tally, busy


def per_layer_metrics(tracer, rounds: int, overhead: float, imports) -> dict:
    """Per-layer values per traced round (every round runs the same operations)."""
    from spans import NESTED

    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"cli.import_s": imports[0], "cli.import_scipy_s": imports[1],
         "cli.self_s": sum(v["self_s"] for k, v in summary.items()
                           if k.startswith("cli.")) / rounds}
    for fn in ("states.validate_state", "states.pauli_expansion", "svd3.svd3",
               "criteria.all_criteria", "criteria.critical_noise", "sphere.sphere_grid",
               "oracle.model_state_overlap"):
        m[fn + ".calls"] = get(fn, "calls") / rounds
        m[fn + ".s"] = get(fn, "s") / rounds
    for fn in ("families.sweep", "sphere.inner_product", "sphere.integrate",
               "oracle.random_model", "oracle.chsh_ns_max"):
        m[fn + ".s"] = get(fn, "s") / rounds
    m["svd3.svd3.us_per_call"] = 1e6 * ratio(get("svd3.svd3", "s"), get("svd3.svd3", "calls"))
    state_in_sweep, state_in_threshold, grid_in_overlap = (tracer.nested[p] for p in NESTED)
    m["criteria.states_per_threshold"] = ratio(
        state_in_threshold, get("criteria.critical_noise", "calls"))
    m["families.states_per_point"] = ratio(state_in_sweep, tracer.sweep_points)
    m["sphere.grid_points_built"] = tracer.grid_points / rounds
    m["oracle.grids_per_overlap"] = ratio(
        grid_in_overlap, get("oracle.model_state_overlap", "calls"))
    m["trace.overhead_pct"] = overhead
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    args = parser.parse_args(argv)

    if not (SRC / "steerkit" / "__init__.py").is_file():
        print(f"error: no steerkit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    work_dir = OUT / f"{args.workload}-seed{args.seed}"

    samples = {}
    if args.trace:
        import spans

        imports = spans.import_breakdown(sys.executable, _env(), ROOT)
        wl.prepare()
        tracer = spans.Tracer()
        tally, busy = run_rounds(wl, args.seconds, in_process_cli, tracer)
        traced = statistics.fmean(busy[True])
        plain = statistics.fmean(busy[False])
        values = per_layer_metrics(tracer, len(busy[True]),
                                   100.0 * (traced / plain - 1.0), imports)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        wl.prepare()
        cli = SubprocessCli(work_dir)
        tally, busy = run_rounds(wl, args.seconds, cli)
        cli_s, lib_rate = wl.metrics()
        values = {"setup_s": statistics.median(setups), "cli_s": cli_s,
                  "lib_ops_per_s": lib_rate, "cli_peak_rss_mb": cli.peak_rss_kb / 1024.0}
        samples = {"setup_s": setups, "cli_s": wl.cli_seconds, "chunk_s": wl.chunk_seconds}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = len(busy[True]) + len(busy[False])
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{tally.attempted} operations attempted, {tally.failed} failed, "
          f"{len(tally.problems)} output checks failed")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, samples=samples)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
