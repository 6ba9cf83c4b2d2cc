"""kernelforge benchmark: four closed-loop workloads, end-to-end metrics from
untraced runs and per-layer metrics from a separate traced run.

    python3 bench/run.py --workload bidisk-batch --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20          # every workload

Run it from the root of a checkout; it builds nothing and imports the package
from ``src``.  Each workload runs in its own process with one client: the
next op starts only when the previous one returns.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``,
the ``per_layer`` ones with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Set-up runs in this many fresh processes (the measuring one included) and
# the median is reported.  Half of the set-up-only processes run before the
# measuring one and half after it, so that the samples span the whole run
# and not one spell of the host's speed.
SETUPS = 5
# A run of 20 s must end within 180 s in all: four set-ups of at most 15 s
# and a measuring process of at most --seconds + 70 s.
SETUP_TIMEOUT_S = 15
RUN_SLACK_S = 70


class BenchError(Exception):
    pass


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, workload: str, setup_only: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=SETUP_TIMEOUT_S if setup_only else args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out after {exc.timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed nothing")
    return json.loads(lines[-1])


def run_workload(args, workload: str, spec: dict) -> dict:
    # setup_s is an end-to-end metric, so the traced run skips the extra set-ups
    extra = 0 if args.trace else SETUPS - 1
    setups = [run_worker(args, workload, True) for _ in range(extra // 2)]
    report = run_worker(args, workload, False)
    setups.append(report)
    setups += [run_worker(args, workload, True) for _ in range(extra - extra // 2)]
    values = dict(report["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mb"] = report["peak_rss_mb"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    info = {k: report[k] for k in ("env", "inputs_sha256", "ops", "passes",
                                   "raw_ops_per_s", "reference_share",
                                   "error_rate_raw", "raised", "malformed",
                                   "unstable")}
    info["setup_s_samples"] = [s["setup_s"] for s in setups]
    info["setup_raw_s_samples"] = [s["setup_raw_s"] for s in setups]
    print(f"workload {workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("info " + json.dumps(info))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    return {
        # every result was produced, parsed and checked; wrong results are
        # counted in `failed` and error_rate
        "correct": report["malformed"] == 0 and report["unstable"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="pool size factor; below 1 only for smoke tests")
    args = parser.parse_args(argv)

    if "KERNELFORGE_MAX_TERMS" in os.environ:
        return fail("KERNELFORGE_MAX_TERMS is set; it changes the program "
                    "under test, unset it")
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        return fail("--seed must be >= 0, --seconds and --scale > 0")
    if not (ROOT / "src" / "kernelforge" / "__init__.py").is_file():
        return fail(f"no kernelforge package under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        return fail(f"unknown workload {args.workload!r}; choose from {names}")

    try:
        results = {w: run_workload(args, w, spec) for w in chosen}
    except BenchError as exc:
        return fail(str(exc))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
