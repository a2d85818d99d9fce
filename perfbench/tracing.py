"""In-memory spans recorded from outside the qbstab package.

A span is (name, start, end, parent, job, attrs).  Spans are opened around
the benchmark's own calls (``Tracer.call``, ``Tracer.span``) or by
temporarily replacing a public function in the module namespace its caller
looks it up in (``Tracer.patch``); ``Tracer.restore`` puts every original
back.  Spans stay in memory until ``write`` dumps them as JSON at the end
of a run.  ``HOOKS`` attach computed counts (bytes, flops, RK4 steps) to a
span from its arguments and result after the span has closed, so counting
costs tracing overhead, not layer time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs", "child_s")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.attrs = {}
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans; ``enabled = False`` makes ``span`` a bare pass-through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.job = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, 0.0, parent, self.job)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.duration

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name) as sp:
            result = fn(*args, **kwargs)
        hook = HOOKS.get(name)
        if hook is not None:
            hook(sp.attrs, args, result)
        return result

    def patch(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` with a wrapper that calls it through ``call``."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        wrapper.__wrapped__ = original
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "job": s.job, "self_s": s.self_s, "attrs": s.attrs} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


# --------------------------------------------------------------------------
# computed counts
# --------------------------------------------------------------------------

def dense_flops(d: int, sizes, iters: int) -> float:
    """Dense flops of the interior-point iterations the solver made.

    Per iteration and block of size s: G' F_k G for all d matrices
    (two s-by-s products each, 4 d s^3) and the Schur complement
    U U' with U of shape (d, s(s+1)/2) (d^2 s(s+1)); once per iteration the
    Cholesky factorization of the d-by-d Schur matrix (d^3 / 3).  Counted
    for every reported iteration, including the last, which stops before
    the scaling step; the other O(d s^2) passes are left out.
    """
    per_iter = sum(4.0 * d * s**3 + d * d * s * (s + 1.0) for s in sizes) + d**3 / 3.0
    return per_iter * iters


def _assemble_counts(attrs, args, problem) -> None:
    sizes = problem.block_sizes()
    attrs["d"] = problem.d
    attrs["f_bytes"] = sum(problem.d * s * s * 8 for s in sizes)


def _solve_counts(attrs, args, sol) -> None:
    problem = args[0]
    config = args[1] if len(args) > 1 and args[1] is not None else None
    sizes = problem.block_sizes()
    # the solver appends a 1x1 block for its objective cap unless disabled
    if config is None or config.objective_box is not None:
        sizes = sizes + [1]
    attrs["status"] = sol.status
    attrs["iters"] = sol.iters
    attrs["flops"] = dense_flops(problem.d, sizes, sol.iters)


def _convergence_counts(attrs, args, report) -> None:
    n_traj, t_final, dt = args[2], args[3], args[4]
    attrs["traj_steps"] = n_traj * max(1, int(round(t_final / dt)))
    attrs["converged"] = report.trajectories_converged
    attrs["trajectories"] = report.trajectories_total


def _union_counts(attrs, args, result) -> None:
    attrs["samples"] = args[1]


HOOKS = {
    "lmi.assemble": _assemble_counts,
    "sdp.solve": _solve_counts,
    "verify.convergence_check": _convergence_counts,
    "certify.union_volume": _union_counts,
}
