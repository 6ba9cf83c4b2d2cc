"""Spans around the public functions of each kernelforge layer.

The tracer replaces each function in the namespace where its caller looks it
up (``kernelforge.bidisk.q_kernel`` for the call inside ``full_kernel``,
``kernelforge.ball.hyp2f1`` for the call inside ``ball_full_kernel``, class
attributes for ``BiPoly`` and ``GramBlocks`` methods) and puts every original
object back afterwards.  Nothing inside the package is changed.

A span is ``[name, start, end, parent, op, terms, child_seconds]``: ``parent``
is the index of the enclosing span (-1 at the top), ``op`` the index of the
benchmark op that caused it and ``terms`` the ``terms_used`` of a returned
``SeriesResult``.  A layer's self time is its duration minus the time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from time import perf_counter

# (module attribute, span name); the module is the caller's namespace.
MODULE_TARGETS = (
    ("cli", "main", "cli.main"),
    ("verify", "run_suite", "verify.run_suite"),
    ("bidisk", "full_kernel", "bidisk.full_kernel"),
    ("bidisk", "q_kernel", "bidisk.q_kernel"),
    ("bidisk", "sigma", "bidisk.sigma"),
    ("bidisk", "taylor_blocks", "bidisk.taylor_blocks"),
    ("bidisk", "norm_expansion", "bidisk.norm_expansion"),
    ("bidisk", "restriction_transform", "bidisk.restriction_transform"),
    ("bidisk", "hyp3f2_unit", "specfun.hyp3f2_unit"),
    ("ball", "hyp2f1", "specfun.hyp2f1"),
    ("fock", "mittag_e", "specfun.mittag_e"),
    ("ball", "ball_full_kernel", "ball.ball_full_kernel"),
    ("ball", "ball_norm_expansion", "ball.ball_norm_expansion"),
    ("fock", "fock_full_kernel", "fock.fock_full_kernel"),
    ("fock", "fock_norm_expansion", "fock.fock_norm_expansion"),
    ("fock", "fock_restriction_transform", "fock.fock_restriction_transform"),
    ("oracle", "gram_bidisk_exact", "oracle.gram_build"),
    ("oracle", "gram_fock_exact", "oracle.gram_build"),
    ("oracle", "gram_hardy_torus_exact", "oracle.gram_build"),
    ("oracle", "ball_monomial_norms", "oracle.gram_build"),
    ("oracle", "gram_numeric", "oracle.gram_numeric"),
    ("oracle", "gram_kernel_blocks", "oracle.gram_kernel_blocks"),
    ("oracle", "project", "oracle.project"),
)
# (module, class, attribute, span name)
CLASS_TARGETS = (
    ("oracle", "GramBlocks", "norm_sq", "oracle.norm_sq"),
    ("poly2", "BiPoly", "differentiate", "poly2.BiPoly.differentiate"),
    ("poly2", "BiPoly", "restrict_diagonal", "poly2.BiPoly.restrict_diagonal"),
    ("poly2", "BiPoly", "__mul__", "poly2.BiPoly.__mul__"),
    ("poly2", "BiPoly", "parse", "poly2.BiPoly.parse"),
)

# Per-op metrics: span name -> which of calls / self_ms / terms to report.
LAYER_METRICS = {
    "bidisk.q_kernel": ("calls", "self_ms", "terms"),
    "bidisk.full_kernel": ("calls", "self_ms", "terms"),
    "bidisk.sigma": ("calls",),
    "specfun.hyp3f2_unit": ("calls", "self_ms", "terms"),
    "specfun.hyp2f1": ("calls", "self_ms", "terms"),
    "specfun.mittag_e": ("calls", "self_ms", "terms"),
    "ball.ball_full_kernel": ("calls", "self_ms"),
    "fock.fock_full_kernel": ("calls", "self_ms"),
    "oracle.gram_build": ("self_ms",),
    "oracle.project": ("calls", "self_ms"),
    "oracle.norm_sq": ("self_ms",),
    "bidisk.norm_expansion": ("self_ms",),
    "bidisk.restriction_transform": ("self_ms",),
    "ball.ball_norm_expansion": ("self_ms",),
    "fock.fock_norm_expansion": ("self_ms",),
    "fock.fock_restriction_transform": ("self_ms",),
    "poly2.BiPoly.differentiate": ("calls", "self_ms"),
    "poly2.BiPoly.restrict_diagonal": ("self_ms",),
    "poly2.BiPoly.__mul__": ("self_ms",),
    "poly2.BiPoly.parse": ("self_ms",),
    "cli.main": ("calls", "self_ms"),
    "oracle.gram_kernel_blocks": ("self_ms",),
    "oracle.gram_numeric": ("self_ms",),
    "bidisk.taylor_blocks": ("self_ms",),
    "verify.run_suite": ("self_ms",),
}


class TraceError(RuntimeError):
    """The tracer disagrees with the program or could not restore it."""


class Tracer:
    def __init__(self, kf, clock=perf_counter):
        """`clock` times the spans; the benchmark passes one that leaves out
        its host-speed probes (``hostspeed.Sampler.clock``)."""
        self.kf = kf
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self._patches: list = []   # (namespace dict, key, original, setter)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, self.clock
        series_result = self.kf.config.SeriesResult

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    spans[parent][6] += end - start
            if isinstance(out, series_result):
                rec[5] = out.terms_used
            return out
        return wrapper

    def _module(self, name: str):
        return importlib.import_module(f"{self.kf.__name__}.{name}")

    def install(self) -> None:
        for mod_name, attr, name in MODULE_TARGETS:
            mod = self._module(mod_name)
            self._patch(vars(mod), attr, name,
                        functools.partial(setattr, mod, attr))
        for mod_name, cls_name, attr, name in CLASS_TARGETS:
            cls = getattr(self._module(mod_name), cls_name)
            self._patch(cls.__dict__, attr, name,
                        functools.partial(setattr, cls, attr))
        suites = self._module("verify").SUITES
        for key in list(suites):
            self._patch(suites, key, f"verify.suite.{key}",
                        functools.partial(suites.__setitem__, key))

    def _patch(self, namespace, key, name, setter) -> None:
        original = namespace[key]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name))
        else:
            replacement = self._wrap(original, name)
        self._patches.append((namespace, key, original, setter))
        setter(replacement)

    def uninstall(self) -> None:
        """Put every original back and check that each one is in place."""
        for namespace, key, original, setter in reversed(self._patches):
            setter(original)
        stray = [key for namespace, key, original, _ in self._patches
                 if namespace[key] is not original]
        self._patches.clear()
        if stray:
            raise TraceError(f"wrappers left installed: {stray}")

    # -- checks and summaries ----------------------------------------------

    def check_terms(self) -> int:
        """Under every full_kernel span, the terms of its q_kernel children
        must sum to the terms_used that full_kernel returned.  Returns the
        number of full_kernel spans checked."""
        child_terms: dict = {}
        for name, _, _, parent, _, terms, _ in self.spans:
            if name == "bidisk.q_kernel" and parent >= 0 and terms is not None:
                child_terms[parent] = child_terms.get(parent, 0) + terms
        checked = 0
        for idx, (name, _, _, _, op, terms, _) in enumerate(self.spans):
            if name != "bidisk.full_kernel" or terms is None:
                continue
            checked += 1
            if child_terms.get(idx, 0) != terms:
                raise TraceError(
                    f"op {op}: full_kernel returned terms_used={terms} but "
                    f"its q_kernel spans sum to {child_terms.get(idx, 0)}")
        return checked

    def totals(self) -> dict:
        """name -> [calls, self seconds, terms, total seconds]."""
        out: dict = {}
        for name, start, end, _, _, terms, child in self.spans:
            row = out.setdefault(name, [0, 0.0, 0, 0.0])
            row[0] += 1
            row[1] += end - start - child
            row[2] += terms or 0
            row[3] += end - start
        return out

    def per_layer(self, n_ops: int) -> dict:
        """Per-op layer metrics over n_ops traced ops; 0 where a layer did
        not run."""
        tot = self.totals()
        out = {}
        for name, fields in LAYER_METRICS.items():
            calls, self_s, terms, _ = tot.get(name, (0, 0.0, 0, 0.0))
            values = {"calls": calls / n_ops, "self_ms": 1e3 * self_s / n_ops,
                      "terms": terms / n_ops}
            for field in fields:
                out[f"{name}.{field}"] = values[field]
        qk = tot.get("bidisk.q_kernel", (0, 0.0, 0, 0.0))
        out["bidisk.q_kernel.ns_per_term"] = 1e9 * qk[1] / qk[2] if qk[2] else 0.0
        # sigma lookups are sigma calls plus q_kernel calls (each reads the
        # cache once); misses are the 3F2 evaluations made by the bidisk module
        lookups = tot.get("bidisk.sigma", (0,))[0] + qk[0]
        misses = tot.get("specfun.hyp3f2_unit", (0,))[0]
        out["bidisk.sigma.cache_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
        for key in self.kf.verify.SUITES:
            calls, _, _, total_s = tot.get(f"verify.suite.{key}", (0, 0.0, 0, 0.0))
            out[f"verify.suite.{key}.ms"] = 1e3 * total_s / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line:
        ``[name, start, end, parent, op, terms, self_seconds]``."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op, terms, child in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, terms,
                                     end - start - child]) + "\n")
