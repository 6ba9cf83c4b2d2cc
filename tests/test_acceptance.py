"""Acceptance gate: one test per acceptance criterion.

Each test runs the matching verification suite, checks its pass flag and the
runtime budget, and prints a single PASS/FAIL line so the result is readable
straight from the pytest output.
"""

import time

import pytest

from kernelforge import bidisk, verify

CRITERIA = [
    (1, "sigma-consistency", 1.0,
     "closed Gamma form agrees with the series form of sigma"),
    (2, "sigma-integral", 10.0,
     "1/sigma agrees with exact and numeric weight integrals"),
    (3, "taylor-blocks", 30.0,
     "kernel Taylor blocks agree with inverted Gram blocks"),
    (4, "product-kernel", 1.0,
     "full kernel collapses to the product kernel at theta=vartheta=0"),
    (5, "bidisk-norm", 60.0,
     "bidisk norm expansion matches the Gram oracle term by term"),
    (6, "hardy", 1.0,
     "torus limit expansion matches Parseval on the distinguished boundary"),
    (7, "ball", 10.0,
     "ball expansion, kernel series and collapse checks"),
    (8, "fock", 10.0,
     "Gaussian-space kernel differential test and norm totals"),
    (9, "structural", 10.0,
     "kernel matrices are Hermitian and positive semidefinite"),
    (10, "delta-identities", 1.0,
     "coefficient inversion sums reduce to the Kronecker delta"),
]


@pytest.mark.parametrize("number,suite,budget,label", CRITERIA,
                         ids=[f"criterion-{c[0]}-{c[1]}" for c in CRITERIA])
def test_criterion(number, suite, budget, label):
    t0 = time.perf_counter()
    report = verify.run_suite(suite, seed=0)
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion-{number} [{suite}] {label} "
          f"({elapsed:.2f}s / {budget:.0f}s budget)")
    if not report["passed"]:
        bad = [it for it in report["items"] if not it["passed"]][:5]
        pytest.fail(f"suite {suite} failed items: {bad}")
    assert elapsed < budget, f"suite {suite} exceeded {budget}s ({elapsed:.2f}s)"


@pytest.mark.parametrize("suite", ["product-kernel", "structural"])
def test_bidisk_kernels_run_through_the_array_path(suite, monkeypatch):
    def no_q_kernel(*args):
        raise AssertionError("criteria 4 and 9 call no q_kernel")

    monkeypatch.setattr(bidisk, "q_kernel", no_q_kernel)
    assert verify.run_suite(suite, seed=0)["passed"]


@pytest.mark.parametrize("suite", ["product-kernel", "structural"])
def test_bidisk_kernels_agree_with_full_kernel(suite, monkeypatch):
    # full_kernel, the per-pair path, still meets criteria 4 and 9
    batch = verify.run_suite(suite, seed=0)
    monkeypatch.setattr(bidisk, "full_kernels", lambda p, pairs: [
        bidisk.full_kernel(p, z, w) for z, w in pairs])
    scalar = verify.run_suite(suite, seed=0)
    assert scalar["passed"] == batch["passed"]
    for b, s in zip(batch["items"], scalar["items"], strict=True):
        assert (s["item"], s["passed"]) == (b["item"], b["passed"])
        vb, vs = complex(*b["value"]), complex(*s["value"])
        assert abs(vs - vb) <= 1e-13 * max(1.0, abs(vb))
