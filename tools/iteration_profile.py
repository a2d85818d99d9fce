"""Per-stage cost of the interior-point iterations of the lockstep solver.

    python tools/iteration_profile.py [--quick] [SRC]

qbstab is imported from SRC, by default this checkout's ``src/``, so that
the same tool measures a change and its parent.  The cases:

- ``shear B=1``  one shear-flow solve, Re = 120 at eps = 0.0035 (d = 15,
                 the svec slots its sign group fixes; blocks of size 18
                 and 9 and the objective cap)
- ``shear B=3``  eps = 0.0030, 0.0035 and 0.0040 in lockstep, as in a
                 refinement round of ``optimize_epsilon``
- ``shear B=8``  the first 8 points of its 16-point pre-scan, in lockstep
- ``two-state``  the 20-point two-state analysis grid (d = 3), one group
- ``stacked n=40`` the two-state system stacked 20 times at eps = 0.4 with
                 the two-state decay margin (d = 820, both blocks in the W
                 form), alone in its group as the ``stacked_n40``
                 benchmark solves it

``--quick`` runs the first case only, with fewer repeats.  Each case is
solved with ``sdp.solve_many`` and reported per iteration of its group,
the largest ``iters`` of its solutions:

- ``ms/iter``: process time, the median over the repeats of runs with no
  hook installed;
- per stage, ``ms/iter`` is that time split by the shares of a sampling
  profiler on process time (``ITIMER_PROF``, every 200 us), ``lapack`` the
  share of it spent inside the LAPACK gufuncs behind
  ``np.linalg.cholesky``, ``svd`` and ``eigvalsh`` (``cholesky_lo``,
  ``svd_f`` and ``eigvalsh_lo``, which ``sdp`` may call directly as
  ``sdp.cholesky``, ``sdp.svd`` and ``sdp.eigvalsh``), timed in process time
  around each call in one more run, at most 100 %, and
  ``calls/iter`` counts the Python-level calls (Python functions and
  builtins, as ``cProfile`` counts them; a ufunc or gufunc call is none) of
  one more run under ``sys.setprofile``.

A call or a sample belongs to the innermost stage function of qbstab that
encloses it: NT scaling (``nt_scaling``: the Cholesky factors, the SVD and
the packed quantities taken from its singular values; ``_lapack`` in a tree
that called np.linalg's wrappers), ``set_scaling``,
Schur share (``schur``), factor (``_cho_factor``), Newton (``newton`` and
``cho_solve_each``) and step length (``max_step``) inside ``_Group.step``,
and ``check`` (``_Group.check``, with the ray, the residual report and the
termination tests).  What ``step`` does outside those functions is "step,
other", and what runs outside ``check`` and ``step`` (Ruiz scaling, the
group's set-up, ``keep``) is "set-up, other".  The BLAS thread count is
pinned to 1, as the benchmark pins it.

Calls count Python-level calls, not work.  The W form makes one sparse
call per column of the Schur complement (``lmi._Stack.w_share``), so at
stacked n = 40 the Schur share makes about 2,000 calls per iteration where
a product over whole chunks of columns made about 410, in less time; such a
rise in ``calls/iter`` is no regression by itself.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = "1"

import signal
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SAMPLE_S = 2e-4
# the stage of each stage function, by name, within the qbstab sources
# (``_lapack`` is the NT scaling of trees that called np.linalg's wrappers)
STAGE_OF = {"nt_scaling": "NT scaling", "_lapack": "NT scaling", "set_scaling": "set_scaling",
            "schur": "Schur share",
            "_cho_factor": "factor", "newton": "Newton", "cho_solve_each": "Newton",
            "max_step": "step length", "check": "check", "step": "step, other"}
STAGES = ("NT scaling", "set_scaling", "Schur share", "factor", "Newton", "step length",
          "check", "step, other", "set-up, other")
# the LAPACK gufuncs of numpy.linalg, and the names under which a tree's
# ``sdp`` may hold them
GUFUNCS = ("cholesky_lo", "svd_f", "eigvalsh_lo")
SDP_NAMES = ("cholesky", "svd", "eigvalsh")


class _Stages:
    """The stage of a frame: that of the innermost qbstab stage function on
    its stack, else "set-up, other"."""

    def __init__(self, package: Path):
        self.package = str(package)
        self.of_code = {}

    def code_stage(self, code):
        try:
            return self.of_code[code]
        except KeyError:
            stage = (STAGE_OF.get(code.co_name)
                     if code.co_filename.startswith(self.package) else None)
            self.of_code[code] = stage
            return stage

    def __call__(self, frame) -> str:
        while frame is not None:
            stage = self.code_stage(frame.f_code)
            if stage is not None:
                return stage
            frame = frame.f_back
        return "set-up, other"


def profile(problems, repeats: int) -> dict:
    """{"iters", "ms", "calls", "stages": {stage: (ms, calls, lapack)}} per
    iteration of ``sdp.solve_many(problems)``, as the module docstring
    defines them."""
    import qbstab
    from qbstab import sdp

    stage_of = _Stages(Path(qbstab.__file__).resolve().parent)
    iters = max(sol.iters for sol in sdp.solve_many(problems))  # and warm every cache

    times = []
    for _ in range(repeats):
        start = time.process_time()
        sdp.solve_many(problems)
        times.append(time.process_time() - start)
    ms = 1e3 * statistics.median(times) / iters

    samples = dict.fromkeys(STAGES, 0)

    def sample(signum, frame):
        samples[stage_of(frame)] += 1

    previous = signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
    try:
        for _ in range(repeats):
            sdp.solve_many(problems)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)

    lapack_s = dict.fromkeys(STAGES, 0.0)

    def timed(fn):
        def lapack(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                lapack_s[stage_of(sys._getframe(1))] += time.process_time() - start

        return lapack

    from numpy.linalg import _umath_linalg

    real = [(_umath_linalg, name, getattr(_umath_linalg, name)) for name in GUFUNCS]
    real += [(sdp, name, getattr(sdp, name)) for name in SDP_NAMES if hasattr(sdp, name)]
    try:
        for owner, name, fn in real:
            setattr(owner, name, timed(fn))
        sdp.solve_many(problems)
    finally:
        for owner, name, fn in real:
            setattr(owner, name, fn)

    calls = dict.fromkeys(STAGES, 0)

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[stage_of(frame)] += 1

    sys.setprofile(count)
    try:
        sdp.solve_many(problems)
    finally:
        sys.setprofile(None)
    # the setprofile call itself
    calls["set-up, other"] -= 1

    total = max(1, sum(samples.values()))
    stages = {}
    for name in STAGES:
        stage_ms = ms * samples[name] / total
        lapack_ms = 1e3 * lapack_s[name] / iters
        stages[name] = (stage_ms, calls[name] / iters,
                        min(1.0, lapack_ms / stage_ms) if stage_ms > 0 else 0.0)
    return {"iters": iters, "ms": ms, "calls": sum(calls.values()) / iters, "stages": stages}


def cases(quick: bool) -> dict:
    """{name: (problems, repeats)} of the module docstring."""
    import numpy as np

    from qbstab.lmi import assemble, default_alpha
    from qbstab.models import shear_flow_9, two_state
    from qbstab.systems import stack

    shear, two = shear_flow_9(120.0), two_state()

    def shear_at(eps):
        return [assemble(shear, e, default_alpha(shear), "analysis") for e in eps]

    out = {"shear B=1": (shear_at([0.0035]), 3 if quick else 20)}
    if not quick:
        out["shear B=3"] = (shear_at([0.0030, 0.0035, 0.0040]), 10)
        out["shear B=8"] = (shear_at(np.geomspace(1e-3, 1.0, 16)[:8]), 5)
        out["two-state"] = ([assemble(two, e, default_alpha(two), "analysis")
                             for e in np.linspace(0.01, 0.8, 20)], 20)
        out["stacked n=40"] = ([assemble(stack(two, 20), 0.4, default_alpha(two), "analysis")], 5)
    return out


def report(name: str, result: dict) -> str:
    lines = [f"{name}: {result['iters']} iterations, {result['ms']:.3f} ms/iter, "
             f"{result['calls']:.1f} calls/iter",
             f"  {'stage':<15}{'ms/iter':>9}{'lapack':>8}{'calls/iter':>12}"]
    for stage, (ms, calls, lapack) in result["stages"].items():
        lines.append(f"  {stage:<15}{ms:>9.3f}{lapack:>8.0%}{calls:>12.1f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    rest = [a for a in argv if a != "--quick"]
    if len(rest) > 1:
        raise SystemExit("usage: python tools/iteration_profile.py [--quick] [SRC]")
    src = Path(rest[0]).resolve() if rest else SRC
    if not (src / "qbstab" / "__init__.py").is_file():
        raise SystemExit(f"iteration_profile: no qbstab sources under {src}")
    sys.path.insert(0, str(src))
    import qbstab
    if Path(qbstab.__file__).resolve().parent != (src / "qbstab").resolve():
        raise SystemExit(f"iteration_profile: imported qbstab from {qbstab.__file__}, not {src}")
    for name, (problems, repeats) in cases(quick).items():
        print(report(name, profile(problems, repeats)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
