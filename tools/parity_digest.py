"""Print one SHA-256 per solver parity set, so that two source trees can be
shown to solve every set bitwise alike.

    python tools/parity_digest.py [SRC]
    python tools/parity_digest.py --parts SET [SRC]

qbstab is imported from SRC, by default this checkout's ``src/``; the tool
refuses to run if the import resolves anywhere else.  Run it on a change
and on its parent and compare the lines.  With ``--parts`` it prints one
digest per part of the set SET instead, each under a label: per grid or
search entry (by position and eps) and per solve, per certificate of
``reference``, per problem of ``assembly`` and per system of
``eps-window``.  So when a set's digest moves, the lines of ``--parts`` on
both trees show which parts moved.  The sets:

- ``two-grid``      the two-state analysis grid, 20 points on [0.01, 0.8]
- ``three-grid``    the three-state synthesis grid, 20 points on [0.01, 14]
- ``shear-search``  ``optimize_epsilon`` on the shear flow at Re = 120 over
                    (1e-3, 1) with rel_tol 1e-3
- ``stacked-10``    the two-state system stacked 10 times at eps = 0.3, 0.6
                    and 1.0, solved together (both blocks take the W form)
- ``stacked-6``     the two-state system stacked 6 times (d = 78) at eps =
                    0.3, 0.6 and 1.0, solved together: the main block takes
                    the W form and the floor block the Gram form, so one
                    group's work array serves the Gram rows, the W-form
                    share and the cap's chunks; eps = 1.0 ends Infeasible
                    at iteration 16, after the others have left
- ``stacked-40``    the two-state system stacked 20 times (n = 40) at
                    eps = 0.4 with the two-state decay margin, as the
                    ``stacked_n40`` benchmark solves it
- ``reference``     the checks on problem data alone, at every certificate
                    of both grids and at the stacked-40 solution
- ``assembly``      every problem that certify hands to its solves during
                    both grids and the shear-flow search, and the stacked-40
                    problem as ``assemble`` gives it
- ``eps-window``    the analysis bound eps* and, at every point of a
                    pre-scan, the spectral ray that decides it without a
                    solve (or None): the shear flow at Re = 120 and 160 on
                    geomspace(1e-3, 1, 16), the two-state system on
                    geomspace(0.005, 2, 16); no SDP is solved

A grid hashes every entry (eps, status, and the certificate's P, K and
``solver_report`` but its ``LAYOUT_KEYS``), the search its best trace and
every evaluation alike.
Every set hashes each solve it runs: status, iterations, message, history,
residuals, objective, and the bytes of x and Z.  The ``reference`` set
hashes ``LmiBlock.evaluate`` of every block, ``check_block_feasibility``'s
lambda_max and ``kkt_residuals`` of the solution a certificate was taken
from, which after NumericalFailure or IterLimit holds the best iterate.  The
``assembly`` set hashes each problem's c, every block's F0, rows and vals
and its layout (the kept slots and the order of the sign group), the
``eps-window`` set each ray's eps, blocks and message.  The BLAS thread
count is pinned to 1, as the benchmark pins it.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import hashlib
import inspect
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


class Items(list):
    """Parts of a set that ``--parts`` digests one by one, each under its
    label.  It hashes as the list it is, so no set digest depends on it."""

    def __init__(self, items, labels):
        super().__init__(items)
        self.labels = list(labels)


def _feed(h, obj) -> None:
    """Hash ``obj`` by type and value: floats and arrays by their bytes."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif obj is None or isinstance(obj, (bool, np.bool_)):
        h.update(f"b{obj};".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + np.float64(obj).tobytes())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def digest(obj) -> str:
    """The SHA-256 of ``obj``, nested lists, tuples and dicts of numbers,
    strings and arrays."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def part_lines(parts: Items, prefix: str = ""):
    """(label, digest) of every item of ``parts``; the items of a nested
    ``Items`` are labelled by their path."""
    for label, item in zip(parts.labels, parts):
        if isinstance(item, Items):
            yield from part_lines(item, f"{prefix}{label} ")
        else:
            yield prefix + label, digest(item)


def solution_parts(sol) -> list:
    """What an ``SdpSolution`` contributes to a digest."""
    return [sol.status, sol.iters, sol.message, sol.history, sol.primal_residual,
            sol.dual_residual, sol.duality_gap, sol.objective, np.asarray(sol.x),
            [np.asarray(Z) for Z in sol.Z]]


# the keys of a certificate's ``solver_report`` that state its problem's
# layout, which ``problem_parts`` hashes, and not what the solve did
LAYOUT_KEYS = ("symmetry_order", "decision_dim")


def entry_parts(entry) -> list:
    """What a ``SweepEntry`` contributes: eps, status and its certificate,
    whose ``solver_report`` without the ``LAYOUT_KEYS``."""
    cert = entry.certificate
    if cert is None:
        return [entry.epsilon, entry.status, None]
    report = {k: v for k, v in cert.solver_report.items() if k not in LAYOUT_KEYS}
    return [entry.epsilon, entry.status, [cert.P, cert.K, report]]


def entry_items(entries) -> Items:
    """``entry_parts`` of each entry, labelled by its position and eps (a
    search may come back to an eps)."""
    return Items([entry_parts(e) for e in entries],
                 [f"{k} eps={e.epsilon:.6g}" for k, e in enumerate(entries)])


def solution_items(solutions, labels=None) -> Items:
    """``solution_parts`` of each solution, labelled by ``labels`` or its index."""
    labels = range(len(solutions)) if labels is None else labels
    return Items([solution_parts(s) for s in solutions], map(str, labels))


def grid_parts(sweep, solutions) -> Items:
    """A grid's entries and the solutions of its solves."""
    return Items([entry_items(sweep.entries), solution_items(solutions)], ["entry", "solve"])


def reference_parts(problem, x, sol) -> list:
    """What the checks on problem data contribute at x: every block's
    ``evaluate(x)``, the blocks' lambda_max and the KKT residuals of ``sol``."""
    from qbstab.sdp import check_block_feasibility, kkt_residuals

    return [[blk.evaluate(x) for blk in problem.blocks],
            check_block_feasibility(problem, x, 0.0).lambda_max, kkt_residuals(problem, sol)]


def certificate_parts(sys_obj, mode, sweep, solutions) -> Items:
    """``reference_parts`` at every certificate of a recorded sweep, on its
    problem re-assembled, with the solution it was taken from; labelled by eps."""
    from qbstab.lmi import assemble

    parts, labels = [], []
    for entry, sol in zip(sweep.entries, solutions):
        cert = entry.certificate
        if cert is not None:
            problem = assemble(sys_obj, cert.epsilon, cert.alpha, mode)
            parts.append(reference_parts(problem, problem.layout.pack(cert.P, cert.Y), sol))
            labels.append(f"eps={cert.epsilon:.6g}")
    return Items(parts, labels)


def problem_parts(problem) -> list:
    """What an ``SdpProblem`` contributes: c, every block's F0, rows and
    vals, and its layout's kept slots and group order (every slot and 1 in
    a tree whose layouts have neither)."""
    lay = problem.layout
    slots = np.asarray(getattr(lay, "slots", range(lay.d)), dtype=np.int64)
    return [problem.c, [[blk.F0, blk.rows, blk.vals] for blk in problem.blocks],
            slots, getattr(lay, "group_order", 1)]


def recording(fn, problems: list | None = None):
    """(fn(), solutions): every solution that certify's solves return during
    fn(), in the order they return.  The problems handed to those solves are
    appended to ``problems`` when it is given."""
    from qbstab import certify

    solutions, solve, solve_many = [], certify.solve, certify.solve_many
    seen = [] if problems is None else problems

    def one(problem):
        seen.append(problem)
        solutions.append(solve(problem))
        return solutions[-1]

    def many(batch):
        batch = list(batch)
        seen.extend(batch)
        sols = solve_many(batch)
        solutions.extend(sols)
        return sols

    certify.solve, certify.solve_many = one, many
    try:
        return fn(), solutions
    finally:
        certify.solve, certify.solve_many = solve, solve_many


def parity_sets() -> dict:
    """{name: thunk} of the parity sets; each thunk returns what is hashed."""
    from qbstab import certify, sdp
    from qbstab.lmi import assemble, default_alpha
    from qbstab.models import shear_flow_9, three_state_qb, two_state
    from qbstab.systems import stack

    grids = ((two_state(), np.linspace(0.01, 0.8, 20), "analysis"),
             (three_state_qb(), np.linspace(0.01, 14.0, 20), "synthesis"))

    def grid(sys_obj, eps, mode, problems=None):
        return grid_parts(*recording(lambda: certify.sweep_epsilon(sys_obj, eps, None, mode),
                                     problems))

    def search(problems=None):
        res, sols = recording(lambda: certify.optimize_epsilon(
            shear_flow_9(120.0), (1e-3, 1.0), 1e-3, None, "analysis"), problems)
        best = None if res.best is None else res.best.trace_P
        return Items([best, res.solves, entry_items(res.history), solution_items(sols)],
                     ["best", "solves", "entry", "solve"])

    def stacked(k, eps, alpha):
        sys_obj = stack(two_state(), k)
        problems = [assemble(sys_obj, e, alpha, "analysis") for e in eps]
        return solution_items(sdp.solve_many(problems), [f"solve eps={e:g}" for e in eps])

    def stacked_40():
        return assemble(stack(two_state(), 20), 0.4, default_alpha(two_state()), "analysis")

    def reference():
        parts = []
        for sys_obj, eps, mode in grids:
            sweep, sols = recording(lambda: certify.sweep_epsilon(sys_obj, eps, None, mode))
            parts.append(certificate_parts(sys_obj, mode, sweep, sols))
        problem = stacked_40()
        sol = sdp.solve(problem)
        return Items(parts + [reference_parts(problem, sol.x, sol)],
                     ["two-grid", "three-grid", "stacked-40"])

    def eps_window():
        from qbstab.lmi import _EpsFamily

        parts = Items([], [])
        for label, sys_obj, eps in (
                ("Re=120", shear_flow_9(120.0), np.geomspace(1e-3, 1.0, 16)),
                ("Re=160", shear_flow_9(160.0), np.geomspace(1e-3, 1.0, 16)),
                ("two-state", two_state(), np.geomspace(0.005, 2.0, 16))):
            family = _EpsFamily(sys_obj, default_alpha(sys_obj), "analysis")
            # sources whose ray is an ``Infeasible`` marker also take alpha and mode
            ray_of = certify._spectral_ray
            extra = ((family.alpha, "analysis")
                     if len(inspect.signature(ray_of).parameters) == 5 else ())
            rays = [ray_of(family.window, family.problem(e), e, *extra) for e in eps]
            parts.append([family.window.eps_star,
                          [None if r is None else [r.epsilon, r.ray, r.message] for r in rays]])
            parts.labels.append(label)
        return parts

    def assembly():
        problems = []
        for sys_obj, eps, mode in grids:
            grid(sys_obj, eps, mode, problems)
        search(problems)
        problems.append(stacked_40())
        return Items([problem_parts(p) for p in problems],
                     [f"problem {i}" for i in range(len(problems))])

    return {
        "two-grid": lambda: grid(*grids[0]),
        "three-grid": lambda: grid(*grids[1]),
        "shear-search": search,
        "stacked-10": lambda: stacked(10, (0.3, 0.6, 1.0), default_alpha(stack(two_state(), 10))),
        "stacked-6": lambda: stacked(6, (0.3, 0.6, 1.0), default_alpha(stack(two_state(), 6))),
        "stacked-40": lambda: stacked(20, (0.4,), default_alpha(two_state())),
        "reference": reference,
        "assembly": assembly,
        "eps-window": eps_window,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/parity_digest.py")
    parser.add_argument("--parts", metavar="SET", help="one digest per part of the set SET")
    parser.add_argument("src", nargs="?", default=SRC, type=Path, metavar="SRC")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "qbstab" / "__init__.py").is_file():
        raise SystemExit(f"parity_digest: no qbstab sources under {src}")
    sys.path.insert(0, str(src))
    import qbstab
    if Path(qbstab.__file__).resolve().parent != (src / "qbstab").resolve():
        raise SystemExit(f"parity_digest: imported qbstab from {qbstab.__file__}, not {src}")
    sets = parity_sets()
    if args.parts is None:
        for name, parts in sets.items():
            print(f"{name:<13} {digest(parts())}", flush=True)
    elif args.parts not in sets:
        raise SystemExit(f"parity_digest: no set {args.parts!r}; the sets are {', '.join(sets)}")
    else:
        for label, value in part_lines(sets[args.parts]()):
            print(f"{args.parts} {label} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
