"""Smoke tests of the benchmark itself (not part of tier-1):

    python3 -m pytest -q bench

Each workload runs at a tiny pool size for half a second, so the whole file
takes well under a minute.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import kernelforge  # noqa: E402
import kernelforge.cli  # noqa: E402,F401
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def test_workload_names_match():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    printed = {tuple(line.split()[::2]) for line in lines[2:-1]}
    for m in wanted:
        assert (m["name"], m["unit"]) in printed
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", NAMES)
def test_inputs_follow_the_seed(workload):
    suites = list(kernelforge.verify.SUITES)
    first = workloads.digest(workloads.build_ops(workload, 11, 0.2, suites))
    again = workloads.digest(workloads.build_ops(workload, 11, 0.2, suites))
    other = workloads.digest(workloads.build_ops(workload, 12, 0.2, suites))
    assert first == again
    if workload == "verify-all":
        assert first == other    # the suites run at their own fixed seeds
    else:
        assert first != other


def test_counts_do_not_depend_on_run_length():
    # attempted and failed come from one pass, however many passes a run makes
    results = []
    for seconds in ("0.2", "1.5"):
        proc = run_bench("--workload", "fresh-params", "--seed", "5",
                         "--seconds", seconds, "--scale", "0.02")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert [(r["attempted"], r["failed"]) for r in results] == \
        [(results[0]["attempted"], results[0]["failed"])] * 2


def test_sampler_probes_during_a_call_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval=0.02) as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.2:
            sum(range(1000))
        end = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [t for t in sampler.times if start <= t <= end]
    assert len(inside) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.probes))
    assert sampler.scale_between(start, end) > 0


def test_refuses_max_terms_override():
    env = dict(os.environ, KERNELFORGE_MAX_TERMS="50")
    proc = run_bench("--workload", "fresh-params", "--seconds", "0.5", env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "norm-oracle", "--seconds", "0.5", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _patched_objects():
    out = [vars(getattr(kernelforge, m))[a] for m, a, _ in tracer.MODULE_TARGETS]
    out += [getattr(getattr(kernelforge, m), c).__dict__[a]
            for m, c, a, _ in tracer.CLASS_TARGETS]
    return out + list(kernelforge.verify.SUITES.values())


def test_tracer_restores_originals_and_checks_terms():
    before = _patched_objects()
    bidisk = kernelforge.bidisk
    params = bidisk.BidiskParams(1.0, 0.5, 0.0, 0.0)
    z = kernelforge.Point2(0.3 + 0.1j, -0.2j)
    w = kernelforge.Point2(0.1, 0.25 - 0.2j)
    t = tracer.Tracer(kernelforge)
    t.install()
    try:
        result = bidisk.full_kernel(params, z, w)
    finally:
        t.uninstall()
    assert all(a is b for a, b in zip(before, _patched_objects()))
    assert t.check_terms() == 1
    assert t.per_layer(1)["bidisk.full_kernel.terms"] == result.terms_used
    outer = next(s for s in t.spans if s[0] == "bidisk.full_kernel")
    outer[5] += 1
    with pytest.raises(tracer.TraceError):
        t.check_terms()


def test_references_match_the_library_where_it_is_accurate():
    # small radii, where the parent commit's kernels are right to 1e-12
    bidisk, ball, fock = kernelforge.bidisk, kernelforge.ball, kernelforge.fock
    P = kernelforge.Point2
    z1, z2, w1, w2 = 0.2 + 0.1j, -0.15j, 0.1 - 0.05j, 0.2 + 0.2j
    got = bidisk.full_kernel(bidisk.BidiskParams(1.0, 0.5, 0.0), P(z1, z2), P(w1, w2))
    assert workloads.result_ok(got.value, got.tail_bound,
                               workloads.ref_bidisk_product(1.0, 0.5, z1, z2, w1, w2))
    sig = bidisk.sigma(bidisk.BidiskParams(0.5, 1.5, 2.5))
    assert workloads.result_ok(sig, 0.0, workloads.ref_sigma(0.5, 1.5, 2.5))
    got = ball.ball_full_kernel(ball.BallParams(0.7, 0.0, 0.0), P(z1, z2), P(w1, w2))
    assert workloads.result_ok(got.value, got.tail_bound,
                               workloads.ref_ball_collapse(0.7, z1, z2, w1, w2))
    got = fock.fock_full_kernel(fock.FockParams(1.3, 0.7, 0.0), P(z1, z2), P(w1, w2))
    assert workloads.result_ok(got.value, got.tail_bound,
                               workloads.ref_fock_theta0(1.3, 0.7, z1, z2, w1, w2))
