"""Benchmark of the diskchain CLI, one workload per process.

    python3 benchmarks/run.py --workload disk-table --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's CLI calls in process through
`diskchain.cli.main` (default `--threads 1`, single-threaded BLAS) until
`--seconds` have passed, checks every result against `oracle`, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with no
instrumentation: setup_s, command_p50_s, results_per_s, peak_rss_mib.
With `--trace 1` each round runs twice on the same inputs, once plain
and once traced (alternating which goes first), and the metrics are the
per-layer spans and counts per traced round, plus the tracing overhead.

Result and span files go to benchmarks/results/, scratch files to
.bench_work/; both are created under the checkout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
from pathlib import Path
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# import diskchain plus load the run's configuration, in a fresh interpreter
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import diskchain
from diskchain import config
config.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""
SETUP_REPEATS = 9
WORKLOADS = ("disk-table", "hopping-grid", "gate-sweep")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",),
                   help="'all' runs each workload in turn, each in its own "
                        "process, with the same options")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="passed to the CLI; only for the --threads "
                        "comparison in the README, untraced")
    args = p.parse_args(argv)
    if args.threads > 1 and args.trace:
        p.error("--trace 1 times spans on one thread; use --threads 1")
    return args


def measure_setup(ini: Path) -> float:
    """Median of SETUP_REPEATS fresh-interpreter timings, after one
    discarded run that compiles the package's bytecode."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(ini)],
            capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Writes each call's INI, times cli.main on it, collects outputs."""

    def __init__(self, cli, work: Path, threads: int):
        self.cli = cli
        self.work = work
        self.threads = threads

    def run(self, call, tag: str):
        from workloads import Output
        ini = self.work / f"{tag}.ini"
        ini.write_text(call.ini, encoding="utf-8")
        argv = [call.command, "--config", str(ini)]
        out_path = self.work / f"{tag}.csv"
        if call.out_file:
            argv += ["--out", str(out_path)]
        if self.threads > 1:
            argv += ["--threads", str(self.threads)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a traceback is a failed call, not a crash
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - t0
        return Output(code=code, stdout=stdout.getvalue(),
                      stderr=stderr.getvalue(),
                      out_path=out_path if call.out_file and code == 0 else None,
                      seconds=seconds)


def bytes_written(out) -> int:
    return len(out.stdout.encode()) + (out.out_path.stat().st_size
                                       if out.out_path else 0)


def check_all(check, pairs) -> tuple:
    """(attempted, failed, messages) over (call, output) pairs."""
    attempted = failed = 0
    messages = []
    for call, out in pairs:
        try:
            per_op = check(call, out)
        except Exception as exc:  # a result the check cannot read fails
            per_op = [[f"{call.command}: unreadable result: {exc!r}"]] * call.ops
        if len(per_op) != call.ops:
            per_op = [[f"{call.command}: {len(per_op)} results for "
                       f"{call.ops} operations"]] * call.ops
        attempted += len(per_op)
        for fails in per_op:
            failed += bool(fails)
            messages += fails
    return attempted, failed, messages


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(args, runner, make_round, rng) -> tuple:
    seconds, pairs = [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        for i, call in enumerate(make_round(rng)):
            out = runner.run(call, f"r{r}c{i}")
            seconds.append(out.seconds)
            pairs.append((call, out))
        r += 1
    return seconds, pairs, r


def run_traced(args, runner, make_round, rng, tracer, warmup) -> tuple:
    """Each round twice on the same inputs, plain and traced, alternating
    the order; returns the traced outputs, round count, both wall times
    and the bytes written by the traced calls.

    The untimed `warmup` calls go first: a process's first calls pay
    one-off costs (lazy imports, the heap's first growth) that would
    otherwise fall on whichever side runs first in round 0 and bias the
    overhead."""
    for i, call in enumerate(warmup):
        runner.run(call, f"w{i}")
    pairs = []
    plain_s = traced_s = 0.0
    written = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        calls = make_round(rng)
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            for i, call in enumerate(calls):
                if traced:
                    with tracer.installed():
                        out = runner.run(call, f"r{r}c{i}t")
                    traced_s += out.seconds
                    written += bytes_written(out)
                    pairs.append((call, out))
                else:
                    plain_s += runner.run(call, f"r{r}c{i}").seconds
        r += 1
    return pairs, r, plain_s, traced_s, written


def layer_metrics(tracer, rounds, plain_s, traced_s, written) -> dict:
    per = 1.0 / rounds
    out = {}
    for name, (calls, total, self_s) in tracer.stats.items():
        out[f"{name}.calls"] = metric(calls * per, "1/round")
        out[f"{name}.total_s"] = metric(total * per, "s/round")
        out[f"{name}.self_s"] = metric(self_s * per, "s/round")
    c = tracer.counts
    solves = tracer.stats["wgm.solve_disk"][0]
    out["specfun.points"] = metric(c["specfun.points"] * per, "1/round")
    out["specfun.scalar_calls"] = metric(c["specfun.scalar_calls"] * per,
                                         "1/round")
    out["wgm.specfun_calls_per_row"] = metric(
        c["wgm.solve_disk_specfun_calls"] / solves if solves else 0.0, "1/row")
    out["chain.quadrature_points"] = metric(
        c["chain.quadrature_points"] * per, "1/round")
    out["chain.quadrature_useful_ratio"] = metric(
        c["chain.quadrature_final_points"] / c["chain.quadrature_points"]
        if c["chain.quadrature_points"] else 0.0, "ratio")
    out["dynamics.records"] = metric(c["dynamics.records"] * per, "1/round")
    out["cli.bytes_written"] = metric(written * per, "B/round")
    out["trace.overhead_s"] = metric((traced_s - plain_s) * per, "s/round")
    out["trace.remainder_s"] = metric(
        (traced_s - tracer.self_seconds()) * per, "s/round")
    return out


def use_checkout_source() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not (SRC / "diskchain" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def run_all(args) -> int:
    """Every workload in its own process; the exit code is the worst."""
    return max(subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--threads", str(args.threads)]).returncode for name in WORKLOADS)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not use_checkout_source():
        return 2
    from diskchain import cli
    import workloads

    make_round, check = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results = HERE / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    runner = Runner(cli, work, args.threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # the run's first round again, from a fresh generator on the run's seed
    first_round = make_round(random.Random(f"{args.workload}:{args.seed}"))
    try:
        if args.trace:
            import spans
            tracer = spans.Tracer()
            pairs, rounds, plain_s, traced_s, written = run_traced(
                args, runner, make_round, rng, tracer, first_round)
            metrics = layer_metrics(tracer, rounds, plain_s, traced_s, written)
            (results / f"{tag}-spans.json").write_text(json.dumps(
                {"fields": ["id", "parent", "name", "start", "end"],
                 "spans": tracer.spans}))
        else:
            ini = work / "setup.ini"
            ini.write_text(first_round[0].ini, encoding="utf-8")
            setup_s = measure_setup(ini)
            seconds, pairs, rounds = run_plain(args, runner, make_round, rng)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ops = sum(call.ops for call, _ in pairs)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "command_p50_s": metric(statistics.median(seconds), "s"),
                "results_per_s": metric(ops / sum(seconds), "1/s"),
                "peak_rss_mib": metric(peak, "MiB"),
            }
        attempted, failed, messages = check_all(check, pairs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for msg in sorted(set(messages)):
        print(f"FAILED  {msg}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"operations attempted {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}"
              + ("  (computed from n_radial x n_azimuthal and the doubling rule)"
                 if name == "chain.quadrature_points" else ""))
    # the one kept fault fails on fixed inputs; anything else is wrong
    result = {"correct": all(msg.startswith(workloads.KEPT_FAULT)
                             for msg in messages),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
