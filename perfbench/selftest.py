"""Self-test: the benchmark's exact counts and outputs repeat exactly.

    python3 perfbench/selftest.py

For every workload it runs one untraced and two traced benchmark processes
with seed 1, one pass each. It fails unless every run is correct, the two
traced runs report identical counts and ratios, and all three print the same
outputs digest, so traced and untraced outputs are byte-identical.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import metric_spec  # noqa: E402

SEED = 1


def bench(workload: str, trace: int) -> tuple[str, dict]:
    """(outputs digest, result) of one single-pass run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split(": ", 1)[1] for line in lines if line.startswith("outputs sha256: "))
    return digest, json.loads(lines[-1])


def main() -> int:
    exact = [name for name, entry in metric_spec("per_layer").items() if entry["unit"] != "s"]
    ok = True
    for workload in workloads.WORKLOADS:
        plain_digest, plain = bench(workload, 0)
        (d1, r1), (d2, r2) = bench(workload, 1), bench(workload, 1)
        problems = [f"run not correct ({r['failed']} failed)" for r in (plain, r1, r2) if not r["correct"]]
        if not plain_digest == d1 == d2:
            problems.append("outputs differ between runs")
        for name in exact:
            a, b = r1["metrics"][name]["value"], r2["metrics"][name]["value"]
            if a != b:
                problems.append(f"{name}: {a} vs {b}")
        ok = ok and not problems
        print(f"{workload}: {'PASS' if not problems else 'FAIL ' + '; '.join(problems)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
