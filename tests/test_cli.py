import argparse
import csv
import io
import json
import math

import mpmath
import numpy as np
import pytest

from kernelforge import bidisk, cli, verify


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sigma_json(capsys):
    code, out, _ = run(capsys, [
        "sigma", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--theta", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "sigma"
    assert report["passed"] is True
    sigma = {i["item"]: i["value"][0] for i in report["items"]}
    assert sigma["sigma"] == pytest.approx(1.0, rel=1e-10)
    assert sigma["sigma"] == pytest.approx(sigma["sigma_gamma_form"], rel=1e-10)
    assert "wall_time" in report


def test_kernel_with_oracle(capsys):
    code, out, _ = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--theta", "1", "--pair", "0.3,0.2,0.25,-0.1", "--oracle"])
    assert code == 0
    report = json.loads(out)
    item = report["items"][0]
    assert item["passed"] and item["rel_err"] < 1e-6


def test_kernel_pair_complex_form(capsys):
    # 8-value form with zero imaginary parts matches the 4-value form
    base = ["kernel", "--space", "fock", "--alpha", "1", "--beta", "1",
            "--theta", "1"]
    _, out4, _ = run(capsys, base + ["--pair", "0.5,-0.5,1.0,0.0"])
    _, out8, _ = run(capsys, base + ["--pair", "0.5,0,-0.5,0,1.0,0,0.0,0"])
    v4 = json.loads(out4)["items"][0]["value"]
    v8 = json.loads(out8)["items"][0]["value"]
    assert v4 == pytest.approx(v8)


# near-antipodal, diagonal, complex and cheap pairs: enough (pair, order)
# cells for the array path of bidisk.full_kernels
_POINTS = ["0.8,-0.8,-0.3,0.3", "0.2,0.1,0.4,-0.1", "0.1,0.1,0.1,0.1",
           "0.5,0.1,-0.6,0.2,0.3,-0.7,0.1,0.4", "-0.7,0.6,0.65,-0.7"]


def test_kernel_points_file(capsys, tmp_path):
    pts = tmp_path / "points.txt"
    # a comment line may be indented
    pts.write_text("# comment line\n  # note\n" + "\n".join(_POINTS) + "\n")
    code, out, _ = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "1", "--beta", "0.5",
        "--theta", "0.5", "--points-file", str(pts)])
    assert code == 0
    items = json.loads(out)["items"]
    assert len(items) == len(_POINTS)
    params = bidisk.BidiskParams(1.0, 0.5, 0.5)
    for item, text in zip(items, _POINTS):
        ref = bidisk.full_kernel(params, *cli._parse_pair(text))
        assert (item["terms_used"], item["tail_bound"]) == \
            (ref.terms_used, ref.tail_bound)
        assert abs(complex(*item["value"]) - ref.value) <= \
            1e-12 * max(1.0, abs(ref.value))


def test_kernel_points_file_term_cap_is_convergence_failure(
        capsys, tmp_path, monkeypatch):
    pts = tmp_path / "points.txt"
    pts.write_text("\n".join(_POINTS) + "\n")
    monkeypatch.setattr(bidisk, "MAX_TERMS", 3)
    code, out, err = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "1", "--beta", "0.5",
        "--points-file", str(pts)])
    assert code == cli.EXIT_CONVERGENCE
    assert out == "" and "did not converge in 3 terms" in err


def test_kernel_parser_reused_without_state(capsys):
    # one parser serves every call in a process; the --pair list of one call
    # must not reach the next
    base = ["kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0"]
    _, two, _ = run(capsys, base + ["--pair", "0.2,0.1,0.4,-0.1",
                                    "--pair", "0.1,0.1,0.1,0.1"])
    _, one, _ = run(capsys, base + ["--pair", "0.3,0.2,0.25,-0.1"])
    assert len(json.loads(two)["items"]) == 2
    assert len(json.loads(one)["items"]) == 1
    assert cli.build_parser() is cli.build_parser()


def test_kernel_bad_pair_is_domain_error(capsys):
    code, _, err = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--pair", "0.1,0.2,0.3"])
    assert code == cli.EXIT_DOMAIN
    assert "domain error" in err


def test_kernel_non_numeric_pair_is_domain_error(capsys):
    code, _, err = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--pair", "0.1,abc,0.2,0.3"])
    assert code == cli.EXIT_DOMAIN
    assert "--pair: field 2 ('abc')" in err


def test_kernel_non_numeric_points_file_line(capsys, tmp_path):
    pts = tmp_path / "points.txt"
    pts.write_text("# comment line\n0.2,0.1,0.4,-0.1\n\n0.1,0.1,x,0.1\n")
    code, _, err = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--points-file", str(pts)])
    assert code == cli.EXIT_DOMAIN
    assert f"{pts} line 4: field 3 ('x')" in err


def test_kernel_outside_domain(capsys):
    code, _, err = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--pair", "1.2,0.0,0.0,0.0"])
    assert code == cli.EXIT_DOMAIN


def test_kernel_no_points(capsys):
    code, _, _ = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0"])
    assert code == cli.EXIT_DOMAIN


def test_norm_expand_with_oracle(capsys):
    code, out, _ = run(capsys, [
        "norm-expand", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--theta", "1", "--poly", "z1^2*z2 - z1", "--oracle"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["items"][-1]["item"] == "total"
    assert all(i["passed"] for i in report["items"])


def test_norm_expand_oracle_unequal_gaussian_weights(capsys):
    # the per-order normal matrices of the projections exceeded the
    # condition limit here and the command exited 4; the Gaussian weight
    # factors in z1 - z2 and z1 + 10 z2, whose powers are orthogonal
    code, out, _ = run(capsys, [
        "norm-expand", "--space", "fock", "--alpha", "1", "--beta", "10",
        "--theta", "1", "--poly", "z1^12 - 3*z1^5*z2^6 + z2^11", "--oracle"])
    assert code == 0
    assert all(i["passed"] for i in json.loads(out)["items"])


def test_norm_expand_oracle_fractional_gaussian_theta(capsys):
    # the Gaussian Gram blocks are exact at every theta; this exited 2
    code, out, _ = run(capsys, [
        "norm-expand", "--space", "fock", "--alpha", "1.3", "--beta", "0.7",
        "--theta", "0.5", "--poly", "z1^3-2*z1*z2^2+(0,1)*z2^5", "--oracle"])
    assert code == 0
    assert all(i["passed"] for i in json.loads(out)["items"])


def test_kernel_oracle_fractional_gaussian_theta(capsys):
    # the Gaussian remainder sums the orthogonal (u, v) terms at every
    # theta; the Bernstein bound it used needed integer theta, and this
    # exited 2
    for th in ("-0.5", "0.5", "1.5", "2.5"):
        code, out, _ = run(capsys, [
            "kernel", "--space", "fock", "--alpha", "1.3", "--beta", "0.7",
            "--theta", th, "--pair", "0.3,0.2,0.1,-0.4",
            "--pair", "0.5,-0.6,-0.2,0.55", "--oracle"])
        assert code == 0
        items = json.loads(out)["items"]
        assert len(items) == 2 and all(i["passed"] for i in items)


def test_refused_kernel_oracle_runs_no_kernel(capsys, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a kernel ran before the oracle refused")

    monkeypatch.setattr(bidisk, "full_kernels", no_kernel)
    base = ["kernel", "--space", "bidisk", "--alpha", "1.3", "--beta", "0.7",
            "--pair", "0.3,0.2,0.1,-0.4", "--oracle"]
    for option, message in ((["--theta", "0.5"], "need integer theta"),
                            (["--vartheta", "0.3"], "vartheta = 0")):
        code, _, err = run(capsys, base + option)
        assert code == 2
        assert message in err


def test_norm_expand_poly_file(capsys, tmp_path):
    pf = tmp_path / "f.txt"
    pf.write_text("z1 - z2\n")
    code, out, _ = run(capsys, [
        "norm-expand", "--space", "fock", "--alpha", "1", "--beta", "1",
        "--poly-file", str(pf)])
    assert code == 0
    assert json.loads(out)["items"][-1]["value"][0] == pytest.approx(2.0)


def test_norm_expand_takes_poly_or_poly_file_not_both(capsys, tmp_path):
    # --poly was ignored when --poly-file was also given
    pf = tmp_path / "f.txt"
    pf.write_text("z1^2\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm-expand", "--space", "fock", "--alpha", "1",
                  "--beta", "1", "--poly", "z2", "--poly-file", str(pf)])
    assert exc.value.code == 2
    assert ("argument --poly-file: not allowed with argument --poly"
            in capsys.readouterr().err)


def test_verify_suite(capsys):
    code, out, _ = run(capsys, ["verify", "delta-identities"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["command"] == "verify"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, ["verify", "no-such-suite"])
    assert code == cli.EXIT_DOMAIN
    assert "unknown suite" in err


@pytest.mark.parametrize("suite", ["product-kernel", "sigma-consistency"])
def test_verify_negative_seed_is_domain_error(capsys, suite):
    # product-kernel ended in numpy's ValueError traceback with exit code 1,
    # the code of a failed verification; sigma-consistency passed
    code, _, err = run(capsys, ["verify", suite, "--seed", "-1"])
    assert code == cli.EXIT_DOMAIN
    assert "seed" in err and len(err.strip().splitlines()) == 1


def test_csv_format(capsys):
    code, out, _ = run(capsys, [
        "sigma", "--space", "fock", "--alpha", "1", "--beta", "1",
        "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("item,")
    assert len(lines) == 3


def test_verify_all_csv_has_one_row_per_item(capsys):
    # `verify all` nests one report per suite; the CSV has a header and one
    # row for each item of every suite
    code, out, _ = run(capsys, ["verify", "all", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    _, report, _ = run(capsys, ["verify", "all"])
    items = [it for r in json.loads(report)["reports"] for it in r["items"]]
    assert rows[0][0] == "item" and len(rows) == len(items) + 1
    assert [row[0] for row in rows[1:]] == [it["item"] for it in items]


def test_determinism_same_seed(capsys):
    argv = ["verify", "delta-identities", "--seed", "7"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time"), r2.pop("wall_time")
    assert r1 == r2


def test_max_terms_env_var(capsys, monkeypatch):
    # the variable once capped every inner series; no setting is read from
    # the environment any more, so the result is the same with it set
    argv = ["kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
            "--theta", "1", "--pair", "0.6,0.5,0.6,0.5"]
    code, plain, _ = run(capsys, argv)
    monkeypatch.setenv("KERNELFORGE_MAX_TERMS", "3")
    code_set, with_var, _ = run(capsys, argv)
    assert code == code_set == 0
    r1, r2 = json.loads(plain), json.loads(with_var)
    r1.pop("wall_time"), r2.pop("wall_time")
    assert r1 == r2


def test_kernel_oracle_degree_follows_pairs(capsys):
    # (1 - 0.49)^-5.5 = 40.58486 at this pair; a fixed degree-16 oracle gave
    # 40.41 and failed a library value that is within tolerance
    code, out, _ = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "1", "--beta", "0.5",
        "--pair", "0.7,0.7,0.7,0.7", "--oracle"])
    assert code == 0
    item = json.loads(out)["items"][0]
    assert item["passed"]
    assert item["oracle"][0] == pytest.approx((1 - 0.49) ** -5.5, rel=1e-9)
    assert item["oracle_degree"] > 16
    assert item["oracle_tail"] <= cli._ORACLE_TAIL * item["value"][0]
    # near the boundary no degree up to the cap bounds the oracle's remainder
    code, _, err = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--pair", "0.9,0.9,0.9,0.9", "--oracle"])
    assert code == cli.EXIT_CONVERGENCE
    assert "oracle" in err


def test_tolerance_option_is_refused(capsys):
    # the truncation tolerance is the constant config.TOLERANCE; an option
    # that once set it is an unknown argument
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
                  "--pair", "0.3,0.2,0.25,-0.1", "--tolerance", "1e-6"])
    assert exc.value.code == cli.EXIT_DOMAIN
    assert "--tolerance" in capsys.readouterr().err


_NORM = ["norm-expand", "--space", "fock", "--alpha", "1", "--beta", "1"]
# argv with {missing} for a path that does not exist, and the option the
# message must name; each ended in a traceback with exit code 1
_MISSING_INPUTS = {
    "points-file": (["kernel", "--space", "bidisk", "--alpha", "0", "--beta",
                     "0", "--points-file", "{missing}"], "--points-file"),
    "poly-file": (_NORM + ["--poly-file", "{missing}"], "--poly-file"),
    "no-poly": (_NORM, "--poly"),
}


@pytest.mark.parametrize("case", sorted(_MISSING_INPUTS))
def test_missing_input_is_domain_error(capsys, tmp_path, case):
    argv, option = _MISSING_INPUTS[case]
    missing = str(tmp_path / "missing.txt")
    code, _, err = run(capsys, [a.format(missing=missing) for a in argv])
    assert code == cli.EXIT_DOMAIN
    assert option in err and len(err.strip().splitlines()) == 1


# a NaN weight exponent passed the parameter checks, which were written as
# `x <= bound`: sigma on the bidisk ended in a ValueError traceback with exit
# code 1, and the Gaussian and ball kernels ran 100,000 terms and exited 3
_NAN_WEIGHTS = {
    "bidisk": ["sigma", "--space", "bidisk", "--alpha", "nan", "--beta", "0"],
    "ball": ["kernel", "--space", "ball", "--alpha", "nan", "--beta", "0",
             "--pair", "0.1,0.1,0.1,0.1"],
    "fock": ["kernel", "--space", "fock", "--alpha", "nan", "--beta", "1",
             "--pair", "0.1,0.1,0.1,0.1"],
}


@pytest.mark.parametrize("space", sorted(_NAN_WEIGHTS))
def test_nan_weight_is_domain_error(capsys, space):
    code, _, err = run(capsys, _NAN_WEIGHTS[space])
    assert code == cli.EXIT_DOMAIN
    assert "alpha" in err and len(err.strip().splitlines()) == 1


# an infinite weight exponent passed the one-sided checks: sigma on the bidisk
# ended in a ValueError traceback, and the Gaussian sigma and the ball norm
# expansion exited 0 with NaN
_INF_WEIGHTS = {
    "bidisk": ["sigma", "--space", "bidisk", "--alpha", "inf", "--beta", "0"],
    "fock": ["sigma", "--space", "fock", "--alpha", "inf", "--beta", "1"],
    "ball": ["norm-expand", "--space", "ball", "--alpha", "inf", "--beta",
             "0", "--poly", "z1"],
}


@pytest.mark.parametrize("space", sorted(_INF_WEIGHTS))
def test_infinite_weight_is_domain_error(capsys, space):
    code, _, err = run(capsys, _INF_WEIGHTS[space])
    assert code == cli.EXIT_DOMAIN
    assert "alpha" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", ["points-file", "poly-file"])
def test_undecodable_input_is_domain_error(capsys, tmp_path, case):
    # a file that is not UTF-8 text ended in a UnicodeDecodeError traceback
    # with exit code 1
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe0.1,0.1,0.1,0.1\n")
    argv, option = _MISSING_INPUTS[case]
    code, _, err = run(capsys, [a.format(missing=path) for a in argv])
    assert code == cli.EXIT_DOMAIN
    assert option in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("space", ["ball", "fock"])
@pytest.mark.parametrize("vartheta", ["0.7", "nan"])
def test_vartheta_off_the_bidisk_is_domain_error(capsys, space, vartheta):
    # only the bidisk weight has a vartheta; the ball and the Gaussian space
    # returned their vartheta = 0 value and echoed the ignored setting
    code, _, err = run(capsys, [
        "kernel", "--space", space, "--alpha", "0.5", "--beta", "0.5",
        "--vartheta", vartheta, "--pair", "0.1,0.2,0.3,0.1"])
    assert code == cli.EXIT_DOMAIN
    assert "--vartheta" in err and len(err.strip().splitlines()) == 1



@pytest.mark.parametrize("poly", ["1.2.3*z1", "(1,2,3)*z1", "(a,1)*z1",
                                  "(inf,0)*z1", "1e400*z1", "(nan,1)*z2"])
def test_malformed_coefficient_is_domain_error(capsys, poly):
    # the first three ended in a ValueError traceback with exit code 1; the
    # non-finite ones exited 0 with NaN terms and "passed": true
    code, _, err = run(capsys, ["norm-expand", "--space", "bidisk", "--alpha",
                                "0", "--beta", "0", "--poly", poly])
    assert code == cli.EXIT_DOMAIN
    assert poly in err and len(err.strip().splitlines()) == 1


# alpha beta underflowing or overflowing, and weights or kernels past the
# double range, ended in tracebacks or in a NaN sigma with exit code 0
_EXTREME_WEIGHTS = {
    "fock-kernel-tiny": ["kernel", "--space", "fock", "--alpha", "1e-300",
                         "--beta", "1e-300", "--pair", "0.1,0,0.1,0"],
    "fock-sigma-tiny": ["sigma", "--space", "fock", "--alpha", "1e-300",
                        "--beta", "1e-300", "--theta", "2"],
    "fock-sigma-huge": ["sigma", "--space", "fock", "--alpha", "1e308",
                        "--beta", "1e308"],
    "fock-sigma-overflow": ["sigma", "--space", "fock", "--alpha", "1e100",
                            "--beta", "1e100", "--theta", "10"],
    "fock-norm-weight": ["norm-expand", "--space", "fock", "--alpha", "1",
                         "--beta", "1", "--theta", "1e300", "--poly", "z1"],
    "ball-kernel": ["kernel", "--space", "ball", "--alpha", "0", "--beta",
                    "1e300", "--pair", "0.1,0.1,0.1,0.1"],
}


@pytest.mark.parametrize("case", sorted(_EXTREME_WEIGHTS))
def test_extreme_weights_are_domain_errors(capsys, case):
    code, _, err = run(capsys, _EXTREME_WEIGHTS[case])
    assert code == cli.EXIT_DOMAIN
    assert "double precision" in err and len(err.strip().splitlines()) == 1


# values past the double range whose Python exception left cli.main as a
# traceback with exit code 1
_PAST_DOUBLE_RANGE = {
    # C(1100, j) is past double range for the middle j
    "bidisk-norm-degree": ["norm-expand", "--space", "bidisk", "--alpha",
                           "0", "--beta", "0", "--poly", "z1^1100"],
    "bidisk-norm-coeff": ["norm-expand", "--space", "bidisk", "--alpha", "0",
                          "--beta", "0", "--poly", "(1e200,0)*z1^2"],
    "bidisk-sigma-theta": ["sigma", "--space", "bidisk", "--alpha", "0",
                           "--beta", "0", "--theta", "600"],
    "bidisk-kernel-theta": ["kernel", "--space", "bidisk", "--alpha", "0",
                            "--beta", "0", "--theta", "600", "--pair",
                            "0.1,0.2,0.1,0.1"],
    "bidisk-sigma-weights": ["sigma", "--space", "bidisk", "--alpha", "600",
                             "--beta", "600", "--theta", "600"],
    "fock-norm-coeff": ["norm-expand", "--space", "fock", "--alpha", "3",
                        "--beta", "3", "--poly", "(1e200,0)*z1^2"],
    "fock-sigma-theta": ["sigma", "--space", "fock", "--alpha", "3",
                         "--beta", "3", "--theta", "600"],
    "bidisk-oracle-remainder": ["kernel", "--space", "bidisk", "--alpha",
                                "-0.999999", "--beta", "1e5", "--pair",
                                "0.1,0.2,0.1,0.1", "--oracle"],
    # these two summed 100,000 terms past double range and exited 3
    "ball-kernel-hyp2f1": ["kernel", "--space", "ball", "--alpha", "100000",
                           "--beta", "0", "--pair", "0.1,0.1,0.1,0.1"],
    "fock-kernel-mittag": ["kernel", "--space", "fock", "--alpha", "1",
                           "--beta", "1", "--theta", "0.5", "--pair",
                           "30,-30,30,-30"],
}


@pytest.mark.parametrize("case", sorted(_PAST_DOUBLE_RANGE))
def test_past_double_range_is_domain_error(capsys, case):
    code, _, err = run(capsys, _PAST_DOUBLE_RANGE[case])
    assert code == cli.EXIT_DOMAIN
    assert "double precision" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["plain", "oracle"])
def test_ball_weights_without_a_ball_space_are_domain_errors(capsys, extra):
    # alpha + beta + theta + 2 <= 0: each weight exceeds -1, but the norm
    # diverges; the plain expansion exited 0 with a total of -28.16, and the
    # oracle exited 2 on a log_gamma of a negative argument
    code, _, err = run(capsys, [
        "norm-expand", "--space", "ball", "--alpha", "-0.9", "--beta", "-0.9",
        "--theta", "-0.9", "--poly", "1", *extra])
    assert code == cli.EXIT_DOMAIN
    assert "alpha + beta + theta + 2" in err


# norms whose factorials, Pochhammer symbols or per-order weights leave
# double range on their own, though the norm does not: ||z1^n||^2 is
# n!/(alpha+2)_n on the bidisk and n!/3^(n+2) on the Gaussian space at
# alpha = beta = 3, whose order weight Gamma(N+1)/1.5^(N+1) is past double
# range from order 186 (z1^200 exited 2)
_NORMS_NEAR_DOUBLE_RANGE = {
    "bidisk-norm-degree": ("bidisk", "0", "z1^200", 1e-12),
    "bidisk-norm-weights": ("bidisk", "1e5", "z1^60", 1e-9),
    "fock-norm-degree": ("fock", "3", "z1^200", 1e-12),
    "fock-norm-degree-185": ("fock", "3", "z1^185", 1e-12),
}


@pytest.mark.parametrize("case", sorted(_NORMS_NEAR_DOUBLE_RANGE))
def test_norms_near_double_range_match_closed_forms(capsys, case):
    space, weight, poly, rel = _NORMS_NEAR_DOUBLE_RANGE[case]
    code, out, _ = run(capsys, ["norm-expand", "--space", space, "--alpha",
                                weight, "--beta", weight, "--poly", poly])
    assert code == cli.EXIT_OK
    n = int(poly[3:])
    with mpmath.workdps(40):
        exact = float(mpmath.factorial(n) / (
            mpmath.rf(float(weight) + 2, n) if space == "bidisk"
            else mpmath.mpf(3) ** (n + 2)))
    total = json.loads(out)["items"][-1]["value"][0]
    assert total == pytest.approx(exact, rel=rel, abs=0)


def test_kernel_pair_negative_first_coordinate(capsys):
    # argparse read "-0.3,..." as an option and exited 2
    base = ["kernel", "--space", "bidisk", "--alpha", "1", "--beta", "0.5"]
    reports = []
    for pair in (["--pair", "-0.3,0.2,0.1,0.4"], ["--pair=-0.3,0.2,0.1,0.4"]):
        code, out, _ = run(capsys, base + pair)
        assert code == 0
        reports.append(json.loads(out))
        del reports[-1]["wall_time"]
    assert reports[0] == reports[1]


def test_verify_keyerror_inside_a_suite_propagates(capsys, monkeypatch):
    # it used to be reported as an unknown suite name, exit 2
    def broken(seed):
        raise KeyError("inside the suite")

    monkeypatch.setitem(verify.SUITES, "hardy", broken)
    with pytest.raises(KeyError, match="inside the suite"):
        cli.main(["verify", "hardy"])
    assert "unknown suite" not in capsys.readouterr().err


_SPACE_ARGS = ["--space", "bidisk", "--alpha", "1", "--beta", "0.5"]


@pytest.mark.parametrize("argv", [
    ["kernel", *_SPACE_ARGS, "--pair", "0.3,0.2,0.1,-0.4", "--oracle"],
    ["norm-expand", *_SPACE_ARGS, "--theta", "1", "--poly", "z1^3 - z2",
     "--oracle"],
    ["sigma", *_SPACE_ARGS],
    ["verify", "delta-identities"],
], ids=lambda argv: argv[0])
def test_json_report_is_one_line_of_its_report(capsys, monkeypatch, argv):
    emitted = []

    def spy(report, args):
        emitted.append(report)
        emit(report, args)

    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", spy)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out) == emitted[0]


def test_json_report_keeps_non_finite_spellings_and_numpy_floats(capsys):
    report = {"nan": float("nan"), "inf": [math.inf, -math.inf],
              "float64": np.float64(0.1), "float32": np.float32(0.5),
              "int64": np.int64(3)}
    cli._emit(report, argparse.Namespace(format="json"))
    out = capsys.readouterr().out
    assert out == ('{"nan": NaN, "inf": [Infinity, -Infinity], '
                   '"float64": 0.1, "float32": 0.5, "int64": 3.0}\n')
