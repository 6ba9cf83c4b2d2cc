"""Run one workload with several seeds and report, for each end-to-end
metric, its median and the distance between the first and third quartiles
as a share of the median (the steadiness test the bounds are set against).

    python3 bench/spread.py --workload bidisk-batch --seeds 1-10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()

    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in seed_list(args.seeds):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({perf_counter() - start:.1f} s): " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{metric['name']:<12} median {med:<12.6g} spread {share:.4f} "
              f"bound {metric['bound']} "
              f"{'ok' if share < metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
