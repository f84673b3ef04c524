"""Spans for the traced run, recorded from outside the program.

The tracer swaps the module-level bindings through which one metaperm
layer calls the next for wrappers that record a span per call (name,
parent, start, end, what it returned, what it raised) and puts the
originals back afterwards. Nothing in the package changes, so a traced
run computes exactly what an untraced one does; the spans only cost
time. Spans are kept column-wise, one list per field, so tens of
thousands of them add no work for the garbage collector.
"""

import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module, binding, span name); the caller's module is the one patched,
# so the span marks the step from that layer into the next
WRAPPED = (
    ("metaperm.permutation", "fit_eta_given_mu", "refit"),
    ("metaperm.permutation", "fit_marginal_null", "refit"),
    ("metaperm.permutation", "generate_signs", "signs"),
    ("metaperm.permutation", "moment_between_cov", "moment"),
    ("metaperm.estimators", "minimize", "minimize"),
    ("metaperm.inference", "marginal_permutation_test", "test"),
    ("metaperm.inference", "joint_permutation_test", "test"),
    # the median-unbiased estimate calls the L2 test through this binding
    ("metaperm.inference", "_marginal_signed_distribution", "test"),
    ("metaperm.inference", "fit_ml", "fit"),
    ("metaperm.simulate", "generate", "generate"),
    ("metaperm.simulate", "fit_ml", "fit"),
    ("metaperm.simulate", "fit_reml", "fit"),
    ("metaperm.simulate", "joint_permutation_test", "test"),
    ("metaperm.simulate", "marginal_permutation_test", "test"),
)
# likelihood passes; a call inside minimize is already one of its nfev
COUNTED = (
    ("metaperm.permutation", "model_terms"),
    ("metaperm.estimators", "model_terms"),
)


class Tracer:
    """In-memory span recorder; installed() patches and unpatches."""

    def __init__(self):
        self.name, self.parent, self.start, self.end = [], [], [], []
        self.info, self.error = [], []
        self.direct_passes = 0
        self._stack = []
        self._in_minimize = 0

    @contextmanager
    def span(self, name):
        """Record one span around the block; yields the span's index."""
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.info.append(None)
        self.error.append(None)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        except BaseException as exc:
            self.error[idx] = type(exc).__name__
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        minimize = name == "minimize"

        def traced(*args, **kwargs):
            self._in_minimize += minimize
            try:
                with self.span(name) as idx:
                    out = fn(*args, **kwargs)
            finally:
                self._in_minimize -= minimize
            if minimize:
                self.info[idx] = (int(out.nfev), int(out.nit))
            elif name == "signs":
                self.info[idx] = int(out.shape[0])
            return out

        return traced

    def _count(self, fn):
        def counted(*args, **kwargs):
            if not self._in_minimize:
                self.direct_passes += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        patches = [(m, a, lambda fn, n=n: self._wrap(fn, n)) for m, a, n in WRAPPED]
        patches += [(m, a, self._count) for m, a in COUNTED]
        saved = []
        try:
            for module, attr, make in patches:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, make(original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def spans(self):
        """Spans as rows (name, parent, start, end, info, error)."""
        columns = (self.name, self.parent, self.start, self.end, self.info, self.error)
        return [list(row) for row in zip(*columns)]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer figures that the spans alone determine.

    Self time is a span's duration minus the durations of its child
    spans; refit, signs and moment spans are the children of a test.
    """
    names, parent = tracer.name, tracer.parent
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * len(names)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]

    def of(name):
        return [i for i, n in enumerate(names) if n == name]

    refits, tests, fits, signs = of("refit"), of("test"), of("fit"), of("signs")
    minimize = of("minimize")
    in_refit = [i for i in minimize if parent[i] >= 0 and names[parent[i]] == "refit"]
    top = [i for i, n in enumerate(names) if parent[i] < 0 and n in ("mue", "ci", "region")]
    # draws of the tests that refit; the moment statistic refits nothing
    refitting = {parent[i] for i in refits}
    info = tracer.info
    refit_draws = sum(info[i] for i in signs if parent[i] in refitting)
    n_refits = len(refits)

    def total(ids):
        return float(sum(dur[i] for i in ids))

    return {
        "model.passes": sum(info[i][0] for i in minimize) + tracer.direct_passes,
        "estimators.refits": n_refits,
        "estimators.refit_ms.p50": _pct([dur[i] * 1e3 for i in refits], 50),
        "estimators.refit_ms.p90": _pct([dur[i] * 1e3 for i in refits], 90),
        "estimators.refit_s": total(refits),
        "estimators.minimize_per_refit": _ratio(len(in_refit), n_refits),
        "estimators.nfev_per_refit": _ratio(sum(info[i][0] for i in in_refit), n_refits),
        "estimators.nit_per_refit": _ratio(sum(info[i][1] for i in in_refit), n_refits),
        "estimators.refit_fail_ratio": _ratio(
            sum(tracer.error[i] is not None for i in refits), n_refits
        ),
        "estimators.fits": len(fits),
        "estimators.fit_ms.p50": _pct([dur[i] * 1e3 for i in fits], 50),
        "estimators.fit_s": total(fits),
        "permutation.tests": len(tests),
        "permutation.test_ms.p50": _pct([dur[i] * 1e3 for i in tests], 50),
        "permutation.test_ms.p90": _pct([dur[i] * 1e3 for i in tests], 90),
        "permutation.draws": sum(info[i] for i in signs),
        "permutation.refit_ratio": _ratio(n_refits, refit_draws),
        "permutation.signs_s": total(signs),
        "permutation.self_s": float(sum(dur[i] - child[i] for i in tests)),
        "inference.mue_s": total(of("mue")),
        "inference.ci_s": total(of("ci")),
        "inference.region_s": total(of("region")),
        "inference.self_s": float(sum(dur[i] - child[i] for i in top)),
        "simulate.generate_s": total(of("generate")),
    }


def row_seconds(tracer, prefix="row:"):
    """Duration of each benchmark-level span whose name starts with prefix."""
    return {
        n[len(prefix):]: e - s
        for n, s, e in zip(tracer.name, tracer.start, tracer.end)
        if n.startswith(prefix)
    }
