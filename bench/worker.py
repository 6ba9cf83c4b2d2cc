"""One benchmark process: import kernelforge, build the seed's inputs, warm
up, then (unless ``--setup-only``) run the timed loop and print one JSON line.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread caps set; it is not meant to be run by hand.
"""

from time import perf_counter

import hostspeed

# Set-up is timed like an op: probed every 50 ms from here to the end of the
# warm-up, less the probes, and scaled to the reference speed.
_SETUP_SAMPLER = hostspeed.Sampler().__enter__()
_SETUP_PROBED = _SETUP_SAMPLER.spent
_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


class Loop:
    """Passes over the op pool, timed op by op from outside.

    A ``hostspeed.Sampler`` probes the host every 50 ms, also while an op
    runs; each op's latency, less the probes inside it, is scaled to the
    reference speed by the probes taken during and around it."""

    def __init__(self, runner):
        self.runner = runner
        self.sampler = hostspeed.Sampler()
        self.n = len(runner.ops)
        self.next_pass = 1          # pass 0 is never reused (fresh-params)
        self.first = None           # per-op outcomes of the first timed pass
        self.malformed = 0
        self.unstable = 0
        self.raw_s = 0.0            # unscaled op time of the last run

    def run(self, seconds: float, tracer=None) -> list:
        """Run the pool until `seconds` have elapsed and at least one pass
        is complete.  The last pass of an untraced run may stop part way;
        a traced run ends on a whole pass, so that its counts per op repeat
        exactly.  Returns the per-op latency lists (seconds at the reference
        speed)."""
        sampler = self.sampler
        timed = []                  # (op, start, end, seconds of op work)
        with sampler:
            start = perf_counter()
            done = False
            while not done:
                k = self.next_pass
                self.next_pass += 1
                outcomes = []
                for j in range(self.n):
                    if tracer is not None:
                        tracer.op = j
                    t = perf_counter()
                    probed = sampler.spent
                    raw = self.runner.execute(j, k)
                    probed = sampler.spent - probed
                    end = perf_counter()
                    timed.append((j, t, end, end - t - probed))
                    outcomes.append(self.runner.check(j, k, raw))
                    if (tracer is None and self.first is not None
                            and end - start >= seconds):
                        break
                self._account(outcomes)
                done = perf_counter() - start >= seconds
        lat = [[] for _ in range(self.n)]
        self.raw_s = 0.0
        for j, t, end, dt in timed:
            lat[j].append(dt * sampler.scale_between(t, end))
            self.raw_s += dt
        return lat

    def _account(self, outcomes) -> None:
        for o in outcomes:
            self.malformed += o.malformed
        if self.first is None:
            self.first = outcomes
        else:
            # the same inputs must give the same verdicts in every pass
            self.unstable += sum(a.failed != b.failed
                                 for a, b in zip(self.first, outcomes)
                                 if a.repeatable)

    @property
    def passes(self) -> int:
        return self.next_pass - 1

    @property
    def attempted(self) -> int:
        """Results of one pass; every later pass repeats the same inputs, so
        this and `failed` are the same for every run of a seed."""
        return sum(o.results for o in self.first)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.first)

    def error_rate(self) -> float:
        """Share of failed results in one pass, (failed + 1/2) / (results + 1):
        a pass without failures reads a small positive number, not 0."""
        return (self.failed + 0.5) / (self.attempted + 1)

    def reference_share(self) -> float:
        return sum(o.referenced for o in self.first) / self.attempted


def op_costs(lat) -> list:
    """Each op's latency as the mean of its passes.  The mean weighs fast
    and slow spells of the host by the time the run spent in each, so it
    spreads less from run to run than the median, which snaps to whichever
    spell held most passes."""
    return [statistics.fmean(x) for x in lat]


def ops_per_s(lat) -> float:
    """Ops per second of the loop, from each op's mean latency."""
    return len(lat) / sum(op_costs(lat))


def env_info() -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import kernelforge
    src = (ROOT / "src").resolve()
    if Path(kernelforge.__file__).resolve().parent.parent != src:
        print(f"kernelforge imported from {kernelforge.__file__}, not {src}",
              file=sys.stderr)
        return 2
    suites = list(kernelforge.verify.SUITES)
    ops = workloads.build_ops(args.workload, args.seed, args.scale, suites)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        runner = workloads.Runner(args.workload, ops, Path(work))
        runner.warm_up()
        probed = _SETUP_SAMPLER.spent - _SETUP_PROBED
        end = perf_counter()
        _SETUP_SAMPLER.__exit__()
        setup_raw_s = end - _T0 - probed
        setup_s = setup_raw_s * _SETUP_SAMPLER.scale_between(_T0, end)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        report = measure(args, runner)
    report.update(setup_s=setup_s, setup_raw_s=setup_raw_s,
                  inputs_sha256=workloads.digest(ops),
                  ops=len(ops), env=env_info(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(report))
    return 0


def measure(args, runner) -> dict:
    loop = Loop(runner)
    if not args.trace:
        lat = loop.run(args.seconds)
        costs = op_costs(lat)
        metrics = {
            "ops_per_s": ops_per_s(lat),
            "op_ms_p50": 1e3 * float(np.percentile(costs, 50)),
            "op_ms_p90": 1e3 * float(np.percentile(costs, 90)),
            "error_rate": loop.error_rate(),
        }
        raw_ops_per_s = sum(map(len, lat)) / loop.raw_s
    else:
        # untraced passes first: they also leave every cache as warm as in
        # the end-to-end run, so each traced pass repeats the same work
        base = ops_per_s(loop.run(args.seconds / 2))
        # spans are timed on a clock that leaves out the probes inside them
        tracer = Tracer(runner.kf, clock=loop.sampler.clock)
        tracer.install()
        try:
            passes_before = loop.passes
            traced = ops_per_s(loop.run(args.seconds / 2, tracer))
        finally:
            tracer.uninstall()
        n_traced = (loop.passes - passes_before) * len(runner.ops)
        raw_ops_per_s = n_traced / loop.raw_s
        checked = tracer.check_terms()
        metrics = tracer.per_layer(n_traced)
        metrics.update({
            "trace.overhead_ratio": traced / base,
            "trace.ops_per_s_traced": traced,
            "trace.ops_per_s_untraced": base,
            "check.reference_share": loop.reference_share(),
        })
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}; "
              f"full_kernel term sums checked: {checked}", file=sys.stderr)
    return {
        "metrics": metrics,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "malformed": loop.malformed,
        "unstable": loop.unstable,
        "passes": loop.passes,
        "raw_ops_per_s": raw_ops_per_s,
        "raised": runner.raised,
        "reference_share": loop.reference_share(),
        "error_rate_raw": [sum(o.failed for o in loop.first),
                           sum(o.results for o in loop.first)],
    }


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _SETUP_SAMPLER.__exit__()
    sys.exit(code)
