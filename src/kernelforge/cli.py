"""Command-line interface: kernel evaluation, norm decomposition, sigma
constants and verification suites; reports are one JSON line (default) or CSV.

Exit codes: 0 success, 1 verification failure, 2 domain error,
3 series/quadrature non-convergence, 4 Gram conditioning failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
import time

from . import ball, bidisk, fock, oracle, verify
from .config import Point2
from .errors import ConditioningError, ConvergenceError, DomainError
from .poly2 import BiPoly

_ORACLE_TOL = 1e-6
# The oracle's Taylor remainder may take this share of _ORACLE_TOL, so that
# it cannot decide a comparison; degrees above the cap are not tried.
_ORACLE_TAIL = 1e-3 * _ORACLE_TOL
_ORACLE_MAX_DEGREE = 80

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_CONDITIONING = 4


def _parse_pair(text: str, source: str = "--pair"):
    parts = []
    for i, field in enumerate(text.split(","), 1):
        try:
            parts.append(float(field))
        except ValueError:
            raise DomainError(f"{source}: field {i} ({field.strip()!r}) is "
                              "not a real number") from None
    if len(parts) == 4:
        vals = [complex(p) for p in parts]
    elif len(parts) == 8:
        vals = [complex(parts[i], parts[i + 1]) for i in range(0, 8, 2)]
    else:
        raise DomainError(
            f"{source} needs 4 reals (z1,z2,w1,w2) or 8 (re,im interleaved)")
    return Point2(vals[0], vals[1]), Point2(vals[2], vals[3])


def _weights(args):
    """(alpha, beta, theta) of a space that has no vartheta weight."""
    if args.vartheta != 0.0:
        raise DomainError(f"--vartheta applies to the bidisk only, got "
                          f"{args.vartheta} on {args.space}")
    return args.alpha, args.beta, args.theta


def _bidisk_gram(args, max_degree):
    if args.vartheta != 0.0:
        raise DomainError("oracle comparison requires vartheta = 0")
    return oracle.gram_bidisk_exact(args.alpha, args.beta, args.theta,
                                    max_degree)


# What the commands use of each space: params(args), kernels(params, pairs)
# -> one SeriesResult per (z, w) pair, expand(params, f), the exact oracle
# gram(args, max_degree) and sigma(params) -> (sigma, closed form or None).
# Every entry looks its function up on the module when called, so that
# wrappers installed on module attributes see each call.
SPACES = {
    "bidisk": {
        "params": lambda a: bidisk.BidiskParams(a.alpha, a.beta, a.theta,
                                                a.vartheta),
        "kernels": lambda p, pairs: bidisk.full_kernels(p, pairs),
        "expand": lambda p, f: bidisk.norm_expansion(p, f),
        "gram": _bidisk_gram,
        "sigma": lambda p: (
            bidisk.sigma(p),
            bidisk.sigma_gamma_form(p) if p.vartheta == 0.0 else None),
    },
    "ball": {
        "params": lambda a: ball.BallParams(*_weights(a)),
        "kernels": lambda p, pairs: [ball.ball_full_kernel(p, z, w)
                                     for z, w in pairs],
        "expand": lambda p, f: ball.ball_norm_expansion(p, f),
        "gram": lambda a, d: oracle.ball_monomial_norms(a.alpha, a.beta,
                                                        a.theta, d),
    },
    "fock": {
        "params": lambda a: fock.FockParams(*_weights(a)),
        "kernels": lambda p, pairs: [fock.fock_full_kernel(p, z, w)
                                     for z, w in pairs],
        "expand": lambda p, f: fock.fock_norm_expansion(p, f),
        "gram": lambda a, d: oracle.gram_fock_exact(a.alpha, a.beta,
                                                    a.theta, d),
        "sigma": lambda p: (fock.fock_sigma(p), None),
    },
}


def _emit(report: dict, args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["item", "value_re", "value_im", "oracle_re",
                         "oracle_im", "abs_err", "rel_err"])
        for it in _flat_items(report):
            val = it.get("value") or [float("nan")] * 2
            ora = it.get("oracle") or [float("nan")] * 2
            writer.writerow([it["item"], val[0], val[1], ora[0], ora[1],
                             it.get("abs_err", ""), it.get("rel_err", "")])
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(json.dumps(report, default=float) + "\n")


def _flat_items(report: dict):
    if "reports" in report:
        for sub in report["reports"]:
            yield from _flat_items(sub)
    else:
        yield from report.get("items", [])


def _oracle_degree(gram, pairs, results):
    """The smallest oracle degree whose remainder is within _ORACLE_TAIL of
    the library value at every pair, and those remainders."""
    rems = [oracle.kernel_remainders(gram, z.z1, z.z2, w.z1, w.z2,
                                     _ORACLE_MAX_DEGREE) for z, w in pairs]
    for degree in range(_ORACLE_MAX_DEGREE + 1):
        tails = [r[degree] for r in rems]
        if all(t <= _ORACLE_TAIL * abs(res.value)
               for t, res in zip(tails, results)):
            return degree, tails
    raise ConvergenceError(
        f"the oracle Taylor sum needs degree above {_ORACLE_MAX_DEGREE} to "
        f"bound its truncation by {_ORACLE_TAIL:.0e} relative")


def _read_text(path, option) -> str:
    """The UTF-8 text of an input file; a file that cannot be read or
    decoded is a domain error naming its option."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(
            f"{option}: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{option}: {path} is not UTF-8 text ({exc.reason} "
                          f"at byte {exc.start})") from None


def cmd_kernel(args) -> int:
    space = SPACES[args.space]
    params = space["params"](args)
    pairs = [_parse_pair(t) for t in args.pair or []]
    if args.points_file:
        lines = _read_text(args.points_file, "--points-file").split("\n")
        pairs.extend(_parse_pair(line, f"{args.points_file} line {i}")
                     for i, line in enumerate(lines, 1)
                     if line.strip() and not line.lstrip().startswith("#"))
    if not pairs:
        raise DomainError("no point pairs given (use --pair or --points-file)")
    # a degree-0 table checks the oracle's domain before any kernel runs and
    # carries the parameters of the remainder bound
    gram = space["gram"](args, 0) if args.oracle else None
    results = space["kernels"](params, pairs)
    items = [{"item": f"pair {i}", "value": [res.value.real, res.value.imag],
              "terms_used": res.terms_used, "tail_bound": res.tail_bound}
             for i, res in enumerate(results)]
    passed = True
    if gram is not None:
        degree, tails = _oracle_degree(gram, pairs, results)
        kernel_blocks = oracle.gram_kernel_blocks(space["gram"](args, degree))
        for item, (z, w), res, tail in zip(items, pairs, results, tails):
            ref = oracle.kernel_from_blocks(kernel_blocks, z.z1, z.z2,
                                            w.z1, w.z2)
            abs_err = abs(res.value - ref)
            rel_err = abs_err / max(abs(ref), 1e-300)
            ok = rel_err <= _ORACLE_TOL
            passed = passed and ok
            item.update(oracle=[ref.real, ref.imag], abs_err=abs_err,
                        rel_err=rel_err, tol=_ORACLE_TOL, passed=bool(ok),
                        oracle_degree=degree, oracle_tail=tail)
    _emit(_wrap_report("kernel", args, items, passed), args)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_norm_expand(args) -> int:
    space = SPACES[args.space]
    params = space["params"](args)
    if args.poly_file:
        f = BiPoly.parse(_read_text(args.poly_file, "--poly-file"))
    elif args.poly is not None:
        f = BiPoly.parse(args.poly)
    else:
        raise DomainError("no polynomial given (use --poly or --poly-file)")
    exp = space["expand"](params, f)
    items = [{"item": f"term N={N}", "value": [term, 0.0]}
             for N, term in exp.terms]
    items.append({"item": "total", "value": [exp.total, 0.0]})
    passed = True
    if args.oracle:
        gram = space["gram"](args, max(f.total_degree, 0))
        norm, part_norms = oracle.order_norms(gram, f)
        refs = [part_norms[N] for N, _ in exp.terms]
        for item, ref in zip(items, refs + [norm]):
            abs_err = abs(item["value"][0] - ref)
            ok = abs_err <= 1e-9 * max(1.0, norm)
            passed = passed and ok
            item.update(oracle=[ref, 0.0], abs_err=abs_err,
                        rel_err=abs_err / max(ref, 1e-300), passed=bool(ok))
    _emit(_wrap_report("norm-expand", args, items, passed,
                       polynomial=f.format()), args)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_sigma(args) -> int:
    space = SPACES[args.space]
    val, ref = space["sigma"](space["params"](args))
    items = [{"item": "sigma", "value": [val, 0.0]},
             {"item": "inv_sigma", "value": [1.0 / val, 0.0]}]
    if ref is not None:
        items.append({
            "item": "sigma_gamma_form", "value": [ref, 0.0],
            "abs_err": abs(val - ref), "rel_err": abs(val - ref) / ref,
        })
    _emit(_wrap_report("sigma", args, items, True), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in verify.SUITES:
        names = ", ".join(sorted(verify.SUITES) + ["all"])
        print(f"unknown suite {args.suite!r}; choose from: {names}",
              file=sys.stderr)
        return EXIT_DOMAIN
    report = dict(verify.run_suite(args.suite, args.seed), command="verify",
                  wall_time=time.time() - args._t0)
    _emit(report, args)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _wrap_report(command, args, items, passed, **extra):
    return {
        "command": command,
        "space": getattr(args, "space", None),
        "params": {k: getattr(args, k) for k in
                   ("alpha", "beta", "theta", "vartheta")
                   if hasattr(args, k)},
        "passed": bool(passed),
        "items": items,
        "wall_time": time.time() - args._t0,
        **extra,
    }


def _add_format(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_space_args(sub, spaces=tuple(SPACES)):
    _add_format(sub)
    sub.add_argument("--space", required=True, choices=spaces)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--beta", type=float, required=True)
    sub.add_argument("--theta", type=float, default=0.0)
    sub.add_argument("--vartheta", type=float, default=0.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kernelforge",
        description="Reproducing kernels and orthogonal norm expansions for "
                    "weighted holomorphic function spaces in two variables.")
    subs = parser.add_subparsers(dest="cmd", required=True)

    k = subs.add_parser("kernel", help="evaluate the reproducing kernel")
    _add_space_args(k)
    k.add_argument("--pair", action="append",
                   help="z1,z2,w1,w2 (reals) or re,im x4 (complex); "
                        "negative numbers are fine; repeatable")
    k.add_argument("--points-file", help="file with one pair per line")
    k.add_argument("--oracle", action="store_true",
                   help="compare against the exact Gram-oracle kernel")
    k.set_defaults(func=cmd_kernel)

    n = subs.add_parser("norm-expand", help="orthogonal norm decomposition")
    _add_space_args(n)
    poly = n.add_mutually_exclusive_group()
    poly.add_argument("--poly",
                      help='polynomial, e.g. "z1 - z2" or "(1,2)*z1^2"')
    poly.add_argument("--poly-file")
    n.add_argument("--oracle", action="store_true")
    n.set_defaults(func=cmd_norm_expand)

    s = subs.add_parser("sigma", help="the kernel value at the origin")
    _add_space_args(s, spaces=tuple(k for k in SPACES if "sigma" in SPACES[k]))
    s.set_defaults(func=cmd_sigma)

    v = subs.add_parser("verify", help="run a verification suite")
    _add_format(v)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("suite")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate --pair value starting with "-" as an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--pair" and re.match(r"-[0-9.]", argv[i]):
            argv[i - 1:i + 1] = [f"--pair={argv[i]}"]
    args = parser.parse_args(argv)
    args._t0 = time.time()
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ConditioningError as exc:
        print(f"conditioning failure: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"domain error: a value is not finite in double precision "
              f"({exc})", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
