"""Benchmark entry point for effectlogic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's inputs from the
seed, measures them in a separate process (one thread: the BLAS pools are
pinned to 1 before numpy loads), checks every output against the
references and prints the metrics, one per line with its unit, then one
JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Exits non-zero without a result when the
program under test cannot be found or a step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("quantum_small", "quantum_large", "finite")
DEADLINE_S = 170.0  # the whole run, set-up and checks included

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def step(script: str, args: list[str], env: dict, started: float) -> None:
    """Run one benchmark script to completion within the run's deadline."""
    budget = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.Popen([sys.executable, str(BENCH / script), *args], env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{script} did not finish within the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:  # timed out, or this process was told to stop
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"{script} failed with exit code {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description="effectlogic benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the smoke test")
    args = parser.parse_args()
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "effectlogic" / "__init__.py").is_file():
        raise SystemExit(f"no effectlogic sources under {ROOT / 'src'}")
    work = BENCH / ".work" / f"{args.workload}-{args.size}-{args.trace}"
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    # set-up imports effectlogic the way a user does, from cached bytecode
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    step("workloads.py", ["--workload", args.workload, "--seed", str(args.seed),
                          "--out", str(work), "--size", args.size], env, started)
    step("measure.py", ["--work", str(work), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], env, started)
    step("verify.py", ["--work", str(work)], env, started)

    measured = json.loads((work / "measure.json").read_text(encoding="utf-8"))
    bad = json.loads((work / "verdicts.json").read_text(encoding="utf-8"))["bad"]
    passes, per_pass = measured["passes"], measured["requests"]
    attempted = passes * per_pass
    failed = passes * len(bad)

    info = measured["env"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"# nproc={info['nproc']} threads={info['threads']} "
          f"python={info['python']} numpy={info['numpy']}")
    print(f"# requests={attempted} ({passes} passes of {per_pass})")
    if not args.trace:
        setup = sorted(measured["setup_samples"])
        print(f"# beyond_p90={measured['beyond_p90']} of {per_pass};"
              f" set-up samples {len(setup)}, {setup[0]:.4f} to {setup[-1]:.4f} s")
        every = measured["every_sample"]
        print("# over every sample, not the best of each request's passes: "
              + " ".join(f"{k}={v:.6g}" for k, v in every.items()))
    for index, reason in sorted(bad.items(), key=lambda item: int(item[0]))[:10]:
        print(f"# request {index} failed: {reason}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in measured["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_share':45s} {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
