"""Span tracing around the package's public functions.

Each wrapped function is replaced where its callers resolve it: on its own
module for ``module.func`` calls, and on the calling module for names bound
with ``from ... import`` (``solver.cons_to_prim``).  Spans (name, start,
end, parent, root) stay in memory and are written once, at exit.  Wrappers
are installed only while ``Tracer.active()`` is open, so untraced ops run
the package's own functions.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from fvgrad import autodiff, bc, mlcorr, recon, solver, train


def _residual_info(args, kwargs, out):
    diag = out[1]
    return {"clamps": diag["bc_clamps"], "fallback": diag["fallback_cells"],
            "cfl": args[2].co * diag["max_wave_speed"]}


def _limiter_info(args, kwargs, out):
    return {"active": float(np.mean(autodiff.value_of(out) < 1.0))}


def _take_rows_info(args, kwargs, out):
    # computed, not measured: read the gathered rows and the index, write the output
    return {"bytes": 2 * autodiff.value_of(out).nbytes + np.asarray(args[1]).nbytes}


def _segment_sum_info(args, kwargs, out):
    # computed: read values and index, read-modify-write every output row
    return {"bytes": (autodiff.value_of(args[0]).nbytes + np.asarray(args[1]).nbytes
                      + 2 * autodiff.value_of(out).nbytes)}


def _backward_info(args, kwargs, out):
    return {"nodes": args[0].node_count}


# (owner, attribute, span name, info hook)
TARGETS = (
    (solver, "step_explicit_euler", "solver.step_explicit_euler", None),
    (solver, "residual", "solver.residual", _residual_info),
    (solver, "rusanov_flux", "solver.rusanov_flux", None),
    (solver, "cons_to_prim", "euler.cons_to_prim", None),
    (solver, "prim_to_cons", "euler.prim_to_cons", None),
    (bc, "extend_with_ghosts", "bc.extend_with_ghosts", None),
    (recon, "neighbor_values", "recon.neighbor_values", None),
    (recon, "neighbor_deltas", "recon.neighbor_deltas", None),
    (recon, "gradient_gg", "recon.gradient_gg", None),
    (recon, "gradient_lsq", "recon.gradient_lsq", None),
    (recon, "venkat_limiter", "recon.venkat_limiter", _limiter_info),
    (recon, "muscl_face_values", "recon.muscl_face_values", None),
    (mlcorr, "masked_alpha", "mlcorr.masked_alpha", None),
    (autodiff, "take_rows", "autodiff.take_rows", _take_rows_info),
    (autodiff, "segment_sum", "autodiff.segment_sum", _segment_sum_info),
    (autodiff, "record_and_backprop", "autodiff.record_and_backprop", None),
    (autodiff.Tape, "backward", "autodiff.Tape.backward", _backward_info),
    (train, "cons_to_prim", "euler.cons_to_prim", None),
    (train, "prim_to_cons", "euler.prim_to_cons", None),
    (train, "entropy_pair", "euler.entropy_pair", None),
    (train, "total_loss", "train.total_loss", None),
    (train, "loss_tvd", "train.loss_tvd", None),
    (train, "loss_entropy", "train.loss_entropy", None),
    (train, "lion_step", "train.lion_step", None),
)

NAME, START, END, PARENT, ROOT, INFO = range(6)


class Tracer:
    """In-memory span recorder; one per benchmark run, used from one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = [(owner, attr, getattr(owner, attr),
                          self._wrap(name, getattr(owner, attr), hook))
                         for owner, attr, name, hook in TARGETS]

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), None, parent, root, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.spans[idx][INFO] = hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one op."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def per_root(self):
        """Per root span index: self seconds, total seconds, call counts and
        hook infos, each keyed by span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for i, s in enumerate(self.spans):
            agg = out.setdefault(s[ROOT], {"self": {}, "total": {}, "count": {}, "info": {}})
            name, dur = s[NAME], s[END] - s[START]
            agg["self"][name] = agg["self"].get(name, 0.0) + dur - child[i]
            agg["total"][name] = agg["total"].get(name, 0.0) + dur
            agg["count"][name] = agg["count"].get(name, 0) + 1
            if s[INFO] is not None:
                agg["info"].setdefault(name, []).append(s[INFO])
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "root", "info")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
