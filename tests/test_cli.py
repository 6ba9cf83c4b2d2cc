import json

import pytest

from kernelforge import cli


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


def test_kernel_points_file(capsys, tmp_path):
    pts = tmp_path / "points.txt"
    pts.write_text("# comment line\n0.2,0.1,0.4,-0.1\n0.1,0.1,0.1,0.1\n")
    code, out, _ = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--points-file", str(pts)])
    assert code == 0
    assert len(json.loads(out)["items"]) == 2


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


def test_norm_expand_poly_file(capsys, tmp_path):
    pf = tmp_path / "f.txt"
    pf.write_text("z1 - z2\n")
    code, out, _ = run(capsys, [
        "norm-expand", "--space", "fock", "--alpha", "1", "--beta", "1",
        "--poly-file", str(pf)])
    assert code == 0
    assert json.loads(out)["items"][-1]["value"][0] == pytest.approx(2.0)


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


def test_determinism_same_seed(capsys):
    argv = ["verify", "delta-identities", "--seed", "7"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time"), r2.pop("wall_time")
    assert r1 == r2


def test_max_terms_env_var(capsys, monkeypatch):
    monkeypatch.setenv("KERNELFORGE_MAX_TERMS", "3")
    code, _, err = run(capsys, [
        "kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
        "--theta", "1", "--pair", "0.6,0.5,0.6,0.5"])
    assert code == cli.EXIT_CONVERGENCE
    assert "convergence" in err


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


_KERNEL = ["kernel", "--space", "bidisk", "--alpha", "0", "--beta", "0",
           "--pair", "0.3,0.2,0.25,-0.1"]
# argv, KERNELFORGE_MAX_TERMS, the setting the message must name; before
# they were checked, 0 was ignored, -1 and abc ended in a traceback with exit
# code 1 and nan ran 100,000 terms and exited 3
_BAD_SETTINGS = {
    "tolerance-zero": (_KERNEL + ["--tolerance", "0"], None, "--tolerance"),
    "tolerance-negative": (_KERNEL + ["--tolerance", "-1"], None,
                           "--tolerance"),
    "tolerance-nan": (_KERNEL + ["--tolerance", "nan"], None, "--tolerance"),
    "max-terms-not-integer": (_KERNEL, "abc", "KERNELFORGE_MAX_TERMS"),
    "max-terms-not-integer-verify": (["verify", "ball"], "abc",
                                     "KERNELFORGE_MAX_TERMS"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SETTINGS))
def test_bad_setting_is_domain_error(capsys, monkeypatch, case):
    argv, cap, name = _BAD_SETTINGS[case]
    if cap is not None:
        monkeypatch.setenv("KERNELFORGE_MAX_TERMS", cap)
    code, _, err = run(capsys, argv)
    assert code == cli.EXIT_DOMAIN
    assert name in err and len(err.strip().splitlines()) == 1


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



@pytest.mark.parametrize("poly", ["1.2.3*z1", "(1,2,3)*z1", "(a,1)*z1"])
def test_malformed_coefficient_is_domain_error(capsys, poly):
    # each ended in a ValueError traceback with exit code 1
    code, _, err = run(capsys, ["norm-expand", "--space", "bidisk", "--alpha",
                                "0", "--beta", "0", "--poly", poly])
    assert code == cli.EXIT_DOMAIN
    assert poly in err and len(err.strip().splitlines()) == 1
