"""opttree benchmark: one workload, one seed, one JSON result as the last line.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 55 --trace 0

Runs from the root of an opttree checkout and imports the library from its
``src/`` directory. The process is the workload's single caller, a closed
loop: it runs the workload's fixed instance list in order, one in-process
``opttree.cli.main`` call per instance with stdout captured, and checks every
output with the benchmark's own code. With ``--trace 0`` it repeats whole
passes until ``--seconds`` have elapsed and reports the end-to-end metrics.
With ``--trace 1`` it alternates an untraced and a traced pass for the same
time and reports the per-layer metrics. Metric names, units and directions
come from BENCHMARK.json; tracing.py computes the per-layer ones. See
README.md.
"""

from __future__ import annotations

import os

# Workload processes are single-threaded: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def metric_spec(kind: str) -> dict[str, dict]:
    """name -> entry of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def load_cli():
    """opttree.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "opttree" / "__init__.py").is_file():
        raise RuntimeError(f"no opttree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import opttree.cli

    if Path(opttree.cli.__file__).resolve().parent != (SRC / "opttree").resolve():
        raise RuntimeError(f"imported opttree from {opttree.cli.__file__}, not {SRC}")
    return opttree.cli


def call(cli, argv, tracer=None, index=-1):
    """One timed in-process CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        span = tracer.begin_instance(index) if tracer is not None else None
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an instance that crashes is counted as failed
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        if span is not None:
            tracer.end_instance(span)
        elapsed = perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


def measure_setup(warm) -> tuple[float, list[str]]:
    """Median wall time of fresh processes that import opttree and warm up,
    with a failure message for each probe that exited nonzero.

    The wait has no timeout on purpose: with one, subprocess polls in sleeps
    of up to 50 ms and the measured times snap to that grid.
    """
    times, failures = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        code = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(warm)],
            stdout=subprocess.DEVNULL,
        ).returncode
        times.append(perf_counter() - t0)
        if code != 0:
            failures.append(f"set-up probe exited {code}")
    return statistics.median(times), failures


def require_names(metrics: dict[str, float], spec: dict[str, dict]) -> None:
    """Fail loudly when the computed metrics and BENCHMARK.json disagree."""
    if set(metrics) != set(spec):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(spec))}")


class Runner:
    """Runs passes over the instance list, checking each distinct output once."""

    def __init__(self, cli, instances):
        self.cli = cli
        self.instances = instances
        self.verdicts: dict[tuple[int, int, str], str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None):
        """(per-instance seconds, per-instance stdout) for one pass in fixed order."""
        times, outputs = [], []
        for i, inst in enumerate(self.instances):
            elapsed, code, out, err = call(self.cli, inst.argv, tracer, i)
            self.attempted += 1
            key = (i, code, out)
            if key not in self.verdicts:
                problem = inst.check(code, out)
                self.verdicts[key] = problem if problem is None or not err else f"{problem}; {err.strip()}"
            if self.verdicts[key] is not None:
                self.failures.append(f"{inst.name}: {self.verdicts[key]}")
            times.append(elapsed)
            outputs.append(out)
        return times, outputs

    def fail(self, message: str) -> None:
        self.failures.append(message)


def run_untraced(runner: Runner, seconds: float, setup_s: float) -> dict[str, float]:
    """End-to-end metrics over whole passes that fit in the time budget.

    Each instance's time is its mean over the run's passes. This machine
    switches between two speed states about 1.8x apart that last seconds
    each; a mean weighs the time spent in each state, where a median jumps
    from one state to the other.
    """
    samples: list[list[float]] = [[] for _ in runner.instances]
    start = perf_counter()
    last = 0.0
    while not samples[0] or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        for i, t in enumerate(runner.run_pass()[0]):
            samples[i].append(t)
        last = perf_counter() - t0
    per_instance = [statistics.fmean(per) for per in samples]
    count = sum(len(per) for per in samples)
    print(f"passes: {len(samples[0])}  samples: {count}")
    for inst, per in zip(runner.instances, samples):
        print(f"  {inst.name:34s} mean {statistics.fmean(per):.4f} s  min {min(per):.4f} s")
    return {
        "setup_s": setup_s,
        "instances_per_s": count / sum(map(sum, samples)),
        "instance_s_p50": statistics.median(per_instance),
        "instance_s_max": max(per_instance),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(runner: Runner, seconds: float, trace_file: Path, spec: dict[str, dict]) -> dict[str, float]:
    passes: list[dict[str, float]] = []
    start = perf_counter()
    last = 0.0
    while not passes or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        plain_times, plain_out = runner.run_pass()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced_times, traced_out = runner.run_pass(tracer)
        for inst, a, b in zip(runner.instances, plain_out, traced_out):
            if a != b:
                runner.fail(f"{inst.name}: traced output differs from untraced output")
        passes.append(tracing.counts_and_times(tracer, sum(traced_times) - sum(plain_times)))
        if len(passes) == 1:
            tracer.save(trace_file)
            for name in tracer.absent:
                print(f"absent boundary: {name}")
        last = perf_counter() - t0
    first = passes[0]
    require_names(first, spec)
    metrics = {}
    for name in spec:
        values = [p[name] for p in passes]
        if spec[name]["unit"] == "s":
            metrics[name] = statistics.median(values)
        else:
            if any(v != first[name] for v in values):
                runner.fail(f"count {name} differs between traced passes: {values}")
            metrics[name] = first[name]
    print(f"traced passes: {len(passes)}  spans written to {trace_file.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        cli = load_cli()
        spec = metric_spec("per_layer" if args.trace else "end_to_end")
    except (ImportError, RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"cannot load opttree or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        warm = workloads.warmup_argvs(workdir)
        setup_s, setup_failures = (None, []) if args.trace else measure_setup(warm)
        instances = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(cli, instances)
        for message in setup_failures:
            runner.fail(message)
        for argv_ in warm:
            if call(cli, argv_)[1] != 0:
                runner.fail(f"warm-up call {' '.join(argv_)} failed")
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            metrics = run_traced(runner, args.seconds, trace_file, spec)
        else:
            metrics = run_untraced(runner, args.seconds, setup_s)
            require_names(metrics, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256()
    for key in sorted(runner.verdicts):
        digest.update(f"{key[0]}\0{key[1]}\0{key[2]}\0".encode())
    failed = min(len(runner.failures), runner.attempted)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  instances: {len(instances)}")
    print(f"outputs sha256: {digest.hexdigest()}")
    for message in runner.failures[:20]:
        print(f"FAILED {message}")
    for name, entry in spec.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {entry['unit']:6s} {entry['better']}")
    print(f"  {'failed_frac':34s} {failed / runner.attempted:14.6g} {'ratio':6s} lower")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": entry["unit"]} for name, entry in spec.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
