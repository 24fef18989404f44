"""Spans around the calls into each layer of ``conecond``, and the per-layer
metrics derived from them.

``instrument`` replaces, for the duration of a ``with`` block, each layer
function at the module attribute where its caller looks it up, by a wrapper
that records a span (name, start, end, parent, count, book): ``book`` is
the time the wrapper spent after ``end`` computing ``count``.  Nothing inside the
package changes.  ``eig`` is ``numpy.linalg.eigh``/``eigvalsh`` as called by
``conecond.bloch`` (``spectral_radius``), ``conecond.cones`` and
``conecond.kubo``: those modules see a copy of the numpy namespace whose
``linalg`` holds the wrapped pair.

Self time is a span's length minus the time its children cover, including
their bookkeeping; every ``_s`` metric below is a self time, so the layers'
``_s`` add up to at most the traced wall time and hold none of the tracer's
own work.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import types
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, COUNT, BOOK = range(6)

PAIR_SUM = ("kubo.fjl_eta", "kubo.ftilde_jj", "kubo.schwinger")
SING = ("kubo.fjj_sing", "kubo.zeta_jj")
BLOCH = ("bloch.h_batch", "bloch.dh_batch", "bloch.d2h_batch")

def _k_keys(ks) -> np.ndarray:
    """One int64 key per momentum, equal for momenta that agree to ~1e-12."""
    q = np.round(np.asarray(ks, dtype=float).reshape(-1, 2) * 2.0**40).astype(np.int64)
    return q[:, 0] * np.int64(1_000_003) + q[:, 1]   # wraps; collisions negligible


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_keys = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(args, result)`` gives
        the span's work count."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
                span[BOOK] = perf_counter() - span[END]
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, name):
        """Span of one benchmark operation; its count is the number of
        distinct momenta at which H(k) was assembled inside it."""
        span = [name, 0.0, 0.0, -1, 0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op_keys = []
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            keys = self._op_keys
            self._op_keys = []
            span[COUNT] = int(np.unique(np.concatenate(keys)).size) if keys else 0

    def _h_points(self, args, result):
        self._op_keys.append(_k_keys(args[1]))
        return _batch_size(args, result)


def _stack_size(args, result) -> int:
    """matrices in the stack passed to an eigensolver"""
    return int(np.prod(np.shape(args[0])[:-2]))


def _batch_size(args, result) -> int:
    """momenta in an assembled (M, N, N) stack"""
    return result.shape[0]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer function of ``conecond`` while the block runs."""
    import conecond.bloch as bloch
    import conecond.cli as cli
    import conecond.cones as cones
    import conecond.kubo as kubo

    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(np.linalg.__dict__)
    linalg.eigh = tracer.wrap("eig", np.linalg.eigh, _stack_size)
    linalg.eigvalsh = tracer.wrap("eig", np.linalg.eigvalsh, _stack_size)
    traced_np = types.ModuleType("numpy")
    traced_np.__dict__.update(np.__dict__)
    traced_np.linalg = linalg

    fjl = tracer.wrap("kubo.fjl_eta", kubo.fjl_eta)
    model = bloch.HoppingModel
    patches = [
        (model, "h_batch", tracer.wrap("bloch.h_batch", model.h_batch, tracer._h_points)),
        (model, "dh_batch", tracer.wrap("bloch.dh_batch", model.dh_batch, _batch_size)),
        (model, "d2h_batch", tracer.wrap("bloch.d2h_batch", model.d2h_batch, _batch_size)),
        (model, "spectral_radius", tracer.wrap("cones.spectral_radius", model.spectral_radius)),
        (bloch, "np", traced_np),
        (cones, "np", traced_np),
        (kubo, "np", traced_np),
        (kubo, "refined_grid", tracer.wrap("lattice.refine", kubo.refined_grid)),
        (kubo.GridPolicy, "grids_for",
         tracer.wrap("kubo.grids_for", kubo.GridPolicy.grids_for,
                     lambda a, r: len(r[0]) + len(r[1]))),
        (kubo, "fjl_eta", fjl),
        (cli, "fjl_eta", fjl),
        (cli, "ftilde_jj", tracer.wrap("kubo.ftilde_jj", cli.ftilde_jj)),
        (cli, "schwinger", tracer.wrap("kubo.schwinger", cli.schwinger)),
        (cli, "fjj_sing", tracer.wrap("kubo.fjj_sing", cli.fjj_sing)),
        (cli, "zeta_jj", tracer.wrap("kubo.zeta_jj", cli.zeta_jj)),
        (cli, "sigma_kubo", tracer.wrap("kubo.sigma_kubo", cli.sigma_kubo)),
        (cli, "closed_form_report", tracer.wrap("kubo.closed_form_report",
                                                cli.closed_form_report)),
        (cli, "characterize_cones", tracer.wrap("cones.characterize", cli.characterize_cones)),
        (cones, "find_fermi_points", tracer.wrap("cones.find_fermi_points",
                                                 cones.find_fermi_points)),
        (cones, "minimize", tracer.wrap("cones.minimize", cones.minimize,
                                        lambda a, r: int(r.nfev))),
        (cones, "fit_cone", tracer.wrap("cones.fit_cone", cones.fit_cone)),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def layer_metrics(spans: list, lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer metrics of the spans ``spans[lo:hi]``, which hold whole
    operations (a parent always precedes its children)."""
    hi = len(spans) if hi is None else hi
    child_time = [0.0] * (hi - lo)
    under_sing = [False] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i][PARENT]
        if p >= 0:
            child_time[p - lo] += spans[i][END] - spans[i][START] + spans[i][BOOK]
            under_sing[i - lo] = under_sing[p - lo] or spans[p][NAME] in SING
    calls, counts, self_s = {}, {}, {}
    distinct = sing_points = 0
    for i in range(lo, hi):
        name, start, end, _, count, _ = spans[i]
        if name.startswith("op:"):
            distinct += count
            continue
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i - lo]
        if name == "eig" and under_sing[i - lo]:
            sing_points += count

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    eig_points = counts.get("eig", 0)
    return {
        "bloch.calls": total(calls, BLOCH),
        "bloch.points": total(counts, BLOCH),
        "bloch.s": total(self_s, BLOCH),
        "eig.calls": calls.get("eig", 0),
        "eig.points": eig_points,
        "eig.s": self_s.get("eig", 0.0),
        "eig.distinct_share": distinct / eig_points if eig_points else 0.0,
        "lattice.refine_calls": calls.get("lattice.refine", 0),
        "lattice.refine_s": self_s.get("lattice.refine", 0.0),
        "kubo.grid_builds": calls.get("kubo.grids_for", 0),
        "kubo.grid_points": counts.get("kubo.grids_for", 0),
        "kubo.fjl_calls": calls.get("kubo.fjl_eta", 0),
        "kubo.sigma_kubo_calls": calls.get("kubo.sigma_kubo", 0),
        "kubo.pair_sum_self_s": total(self_s, PAIR_SUM),
        "kubo.sing_s": total(self_s, SING),
        "kubo.sing_points": sing_points,
        "cones.scan_self_s": self_s.get("cones.find_fermi_points", 0.0),
        "cones.nm_evals": counts.get("cones.minimize", 0),
        "cones.nm_s": self_s.get("cones.minimize", 0.0),
        "cones.fit_calls": calls.get("cones.fit_cone", 0),
        "cones.fit_s": self_s.get("cones.fit_cone", 0.0),
        "cones.spectral_radius_calls": calls.get("cones.spectral_radius", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def median_metrics(per_pass: list) -> dict:
    """Each metric's median over passes (counts repeat exactly across passes)."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
