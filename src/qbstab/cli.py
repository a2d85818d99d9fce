"""Command-line front end.

Subcommands: analyze, synthesize, verify, bench, simulate.  Every run is
deterministic given (inputs, seed); output files are byte-identical across
runs apart from one timestamp header line.  Floating point values are
printed with 17 significant digits so they round-trip.

Exit codes: 0 success, 2 infeasible, 3 verification failure, 4 input error,
5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    FLOOR_FACTOR,
    REL_TOL_MIN,
    UNION_MIN_SAMPLES,
    Certificate,
    Ellipsoid,
    Infeasible,
    SolverFailure,
    UnionRegion,
    _union_rule,
    ellipsoid_volume,
    load_certificate,
    max_trace,
    optimize_epsilon,
    resolve_alpha,
    save_certificate,
    shape_report,
    sweep_epsilon,
    union_volume,
)
from .errors import QBStabError
from .lmi import assemble, default_delta
from .models import get_model, model_names
from .sdp import solve
from .systems import QBSystem, _write_json, close_loop, load_system, save_system, stack
from .verify import boundary_points, convergence_check, default_dt, sample_check, simulate

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3
EXIT_INPUT = 4
EXIT_NUMERICAL = 5


class CliError(Exception):
    """Input or usage error; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_csv(path: Path, timestamp: str, header, rows) -> None:
    """A timestamp comment line, the header and one line per row of values;
    floats are printed with ``_fmt``, everything else with ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# generated: {timestamp}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_report(path: Path, payload: dict) -> None:
    """``payload`` as a JSON file, after a ``generated`` timestamp entry."""
    _write_json(path, {"generated": _timestamp(), **payload})


def _number(token: str, error: str, cast=float):
    """``cast(token)`` if finite, or a CliError with message ``error``."""
    try:
        value = cast(token)
    except ValueError:
        raise CliError(error)
    if not np.isfinite(value):
        raise CliError(error)
    return value


def _bounded(cast, low: float, strict: bool = False, word: str | None = None):
    """argparse type: a finite ``cast`` value at or above ``low`` (above it if
    ``strict``); the token ``word``, when given, is passed through as is."""
    def parse(token: str):
        if token == word:
            return token
        value = cast(token)
        if not (low < value < math.inf if strict else low <= value < math.inf):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low:g}, got {token}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid <name> value"
    return parse


_positive = _bounded(float, 0.0, strict=True)
_rel_tol = _bounded(float, REL_TOL_MIN)


def _load_target(args) -> tuple[QBSystem, str]:
    if args.zoo and args.system:
        raise CliError("pass either --zoo or --system, not both")
    if args.zoo:
        params = {}
        for spec in args.param or []:
            if "=" not in spec:
                raise CliError(f"--param expects key=value, got {spec!r}")
            key, value = spec.split("=", 1)
            params[key] = _number(value, f"--param value must be a finite number, got {spec!r}")
        try:
            return get_model(args.zoo, **params), f"zoo:{args.zoo}"
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(str(exc))
    if args.system:
        sys_obj, _defect = load_system(args.system)
        return sys_obj, str(args.system)
    raise CliError("a system source is required: --zoo NAME or --system FILE")


def _parse_eps(spec: str):
    """Parse the eps specification.

    Forms: a bare float; ``grid:lo:hi:count[:log]``; ``search:lo:hi``.
    """
    parts = spec.split(":")
    bad = f"bad eps spec {spec!r}"
    if parts[0] == "grid":
        if len(parts) not in (4, 5):
            raise CliError(f"bad grid spec {spec!r}; want grid:lo:hi:count[:log]")
        lo, hi = _number(parts[1], bad), _number(parts[2], bad)
        count = _number(parts[3], bad, int)
        if count < 1 or lo <= 0 or hi <= lo:
            raise CliError(f"bad grid spec {spec!r}")
        log = len(parts) == 5
        if log and parts[4] != "log":
            raise CliError(f"bad grid spec {spec!r}; trailing token must be 'log'")
        grid = np.geomspace(lo, hi, count) if log else np.linspace(lo, hi, count)
        return ("grid", grid)
    if parts[0] == "search":
        if len(parts) != 3:
            raise CliError(f"bad search spec {spec!r}; want search:lo:hi")
        lo, hi = _number(parts[1], bad), _number(parts[2], bad)
        if not 0 < lo < hi:
            raise CliError(f"bad search spec {spec!r}")
        return ("search", (lo, hi))
    eps = _number(spec, bad)
    if eps <= 0:
        raise CliError("eps must be positive")
    return ("single", eps)


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create --out directory: {exc}")
    return out


def _write_geometry(path: Path, cert: Certificate) -> None:
    """Boundary polyline for planar systems; principal axes otherwise."""
    w, V = np.linalg.eigh(cert.P)
    if cert.n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 257)
        ring = (V * np.sqrt(w)) @ np.vstack([np.cos(theta), np.sin(theta)])
        _write_csv(path, _timestamp(), ["x1", "x2"], ring.T)
        return
    header = ["semi_axis_length"] + [f"v{i + 1}" for i in range(cert.n)]
    _write_csv(path, _timestamp(), header,
               ((np.sqrt(w[k]), *V[:, k]) for k in range(cert.n - 1, -1, -1)))


def _union_payload(certs: list[Certificate], samples: int, seed: int) -> dict:
    region = UnionRegion(members=tuple(Ellipsoid(P=c.P) for c in certs))
    estimate, error = union_volume(region, samples, seed)
    method, shape = _union_rule(region.n, samples)
    largest = max(ellipsoid_volume(e) for e in region.members)
    payload = {
        "members": len(certs),
        "samples": samples,
        "seed": seed,
        "method": method,
        "directions": math.prod(shape),
        "volume_estimate": estimate,
        "standard_error": error,
        "largest_member_volume": largest,
    }
    # the union contains every member, so an estimate 3 errors below the
    # largest exact member volume means the directions missed where the
    # union reaches farthest
    if estimate + 3.0 * error < largest:
        payload["warning"] = (
            f"union volume estimate {estimate:.6g} +- {error:.2g} is below the largest "
            f"member's exact volume {largest:.6g}: {payload['directions']} directions in "
            f"n = {region.n} miss where the union reaches farthest, so the estimate "
            "is not usable")
        print(json.dumps({"warning": "union_undersampled", "message": payload["warning"]}),
              file=sys.stderr)
    return payload


def _window(result) -> dict:
    """The spectral bound eps* of an analysis grid or search (null when it is
    infinite) and the count of points its ray decided without a solve."""
    if result.eps_star is None:
        return {}
    return {"eps_star": result.eps_star if math.isfinite(result.eps_star) else None,
            "spectral_ray_points": result.ray_points}


def _failed_points(entries) -> list:
    """The eps points whose solve failed, told apart from infeasible ones."""
    return [{"epsilon": e.epsilon, "status": e.status}
            for e in entries if e.status not in ("optimal", "infeasible")]


def _run_certification(args) -> int:
    mode = args.mode
    sys_obj, source = _load_target(args)
    if mode == "synthesis" and sys_obj.m < 1:
        raise CliError(f"synthesis requires an input channel (m >= 1); {source} has m = 0")
    kind, eps_spec = _parse_eps(args.eps)
    if kind == "grid" and args.union_samples < UNION_MIN_SAMPLES:
        raise CliError(f"--union-samples must be at least {UNION_MIN_SAMPLES}")
    alpha = resolve_alpha(sys_obj, args.alpha)
    out = _outdir(args)
    summary = {
        "command": args.command,
        "tool_version": __version__,
        "system": source,
        "n": sys_obj.n,
        "m": sys_obj.m,
        "mode": mode,
        "eps_spec": args.eps,
        "seed": args.seed,
        "alpha": alpha,
    }
    best: Certificate | None = None

    if kind == "grid":
        sweep = sweep_epsilon(sys_obj, eps_spec, alpha, mode)
        _write_csv(out / "sweep.csv", _timestamp(), ["epsilon", "feasible", "trace_P"],
                   ((e.epsilon, int(e.feasible), e.trace_P if e.feasible else "")
                    for e in sweep.entries))
        summary["grid_points"] = len(sweep.entries)
        summary["feasible_points"] = len(sweep.feasible_entries())
        summary["failed_points"] = _failed_points(sweep.entries)
        summary.update(_window(sweep))
        summary["symmetry_order"] = sweep.symmetry_order
        best = sweep.best()
        feas_certs = [e.certificate for e in sweep.feasible_entries()]
        summary["floor_active_points"] = sum(c.solver_report["floor_active"] for c in feas_certs)
        if len(feas_certs) >= 2:
            union = _union_payload(feas_certs, args.union_samples, args.seed)
            _write_report(out / "union.json", union)
            summary["union_volume_estimate"] = union["volume_estimate"]
            if "warning" in union:
                summary["warning"] = union["warning"]
    elif kind == "search":
        result = optimize_epsilon(sys_obj, eps_spec, rel_tol=args.rel_tol, alpha=alpha, mode=mode)
        summary["evaluations"] = len(result.history)
        summary["solves"] = result.solves
        summary["failed_points"] = _failed_points(result.history)
        summary.update(_window(result))
        summary["symmetry_order"] = result.symmetry_order
        best = result.best
    else:
        outcome = max_trace(sys_obj, eps_spec, alpha, mode)
        if isinstance(outcome, Infeasible):
            summary["status"] = "infeasible"
            summary["epsilon"] = eps_spec
            summary["infeasibility_message"] = outcome.message
            _write_report(out / "summary.json", summary)
            return EXIT_INFEASIBLE
        best = outcome

    if best is None:
        summary["status"] = "infeasible"
        _write_report(out / "summary.json", summary)
        return EXIT_INFEASIBLE

    summary["status"] = "optimal"
    summary["best"] = {"epsilon": best.epsilon, "trace_P": best.trace_P,
                       "solver_report": dict(best.solver_report)}
    save_certificate(best, out / "certificate.json")
    _write_geometry(out / "geometry.csv", best)
    if mode == "synthesis":
        closed = close_loop(sys_obj, best.K)
        save_system(closed, out / "closed_loop.json")
        summary["gain_K"] = best.K.tolist()
    _write_report(out / "summary.json", summary)
    return EXIT_OK


def _cmd_verify(args) -> int:
    sys_obj, source = _load_target(args)
    cert = load_certificate(args.certificate)
    # the shape is recomputed rather than read back, so certificates written
    # without its entries are judged too; the proof's shrink is read back
    shape = {**shape_report(cert.P, cert.K, default_delta(sys_obj)),
             "proof_shrink": cert.solver_report.get("proof_shrink")}
    warnings = []
    if shape["floor_active"]:
        warnings.append(
            f"certificate is floor-active: lambda_min(P) = "
            f"{shape['lambda_min_over_delta']:.3g} delta <= {FLOOR_FACTOR:g} delta; "
            "its ellipsoid is degenerate and its gain may be too stiff to simulate")
        print(json.dumps({"warning": "floor_active", "message": warnings[-1]}), file=sys.stderr)
    # certificates written before the solver's own status was recorded mark a
    # failed solve's iterate with this key; without a shrink it was accepted
    # on loose tolerances, not proven, though its status reads Optimal
    if cert.solver_report.get("relaxed_retry") and shape["proof_shrink"] is None:
        warnings.append(
            "certificate is a failed solve's iterate accepted without proof "
            "(relaxed_retry with no proof_shrink): its LMI may be violated")
        print(json.dumps({"warning": "unproven_iterate", "message": warnings[-1]}),
              file=sys.stderr)
    dt = args.dt if args.dt is not None else default_dt(sys_obj)
    out = _outdir(args)
    flows = convergence_check(sys_obj, cert, args.trajectories, args.t_final, dt, args.seed + 1)
    sampled = sample_check(sys_obj, cert, args.samples, args.seed)
    report = {
        "command": "verify",
        "tool_version": __version__,
        "system": source,
        "certificate": str(args.certificate),
        "certificate_shape": shape,
        "warnings": warnings,
        "sample_check": {
            "samples": sampled.samples_tested,
            "violations": sampled.violations,
            "max_vdot_ratio": sampled.max_vdot_ratio,
            "min_decay_margin": sampled.min_decay_margin,
        },
        "convergence_check": {
            "trajectories": flows.trajectories_total,
            "converged": flows.trajectories_converged,
            "violations": flows.violations,
            "max_vdot_ratio": flows.max_vdot_ratio,
            "min_decay_margin": flows.min_decay_margin,
            "t_final": args.t_final,
            "dt": dt,
        },
        "passed": sampled.passed and flows.passed,
    }
    _write_report(out / "verification.json", report)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def _cmd_bench(args) -> int:
    sys_obj, source = _load_target(args)
    try:
        factors = [int(tok) for tok in args.stack.split(",") if tok]
    except ValueError:
        raise CliError(f"--stack expects comma-separated integers, got {args.stack!r}")
    if not factors or any(k < 1 for k in factors):
        raise CliError("--stack factors must be positive integers")
    kind, eps = _parse_eps(args.eps)
    if kind != "single":
        raise CliError("bench requires a single eps value")
    out = _outdir(args)
    rows = []
    for k in factors:
        stacked = stack(sys_obj, k)
        t0 = time.perf_counter()
        problem = assemble(stacked, eps, resolve_alpha(stacked, args.alpha), "analysis")
        sol = solve(problem)
        wall = time.perf_counter() - t0
        rows.append((stacked.n, wall, sol.iters, sol.status, sol.objective))
    _write_csv(out / "bench.csv", _timestamp(), ["n", "wall_seconds", "iters", "status"],
               (row[:4] for row in rows))
    fit_rows = [(n, w) for n, w, _i, st, _o in rows if st == "Optimal" and n >= 40]
    fit_scope = "n>=40"
    if len(fit_rows) < 2:
        fit_rows = [(n, w) for n, w, _i, st, _o in rows if st == "Optimal"]
        fit_scope = "all"
    exponent = None
    if len(fit_rows) >= 2:
        ln = np.log([r[0] for r in fit_rows])
        lw = np.log([r[1] for r in fit_rows])
        exponent = float(np.polyfit(ln, lw, 1)[0])
    payload = {
        "command": "bench",
        "system": source,
        "epsilon": eps,
        "sizes": [r[0] for r in rows],
        "wall_seconds": [r[1] for r in rows],
        "statuses": [r[3] for r in rows],
        "objectives": [r[4] for r in rows],
        "power_law_exponent": round(exponent, 2) if exponent is not None else None,
        "power_law_scope": fit_scope,
    }
    _write_report(out / "bench_summary.json", payload)
    if exponent is not None:
        print(f"fitted wall-clock power law exponent ({fit_scope}): {exponent:.2f}")
    return EXIT_OK


def _parse_x0_list(spec: str, n: int) -> list[np.ndarray]:
    points = []
    for group in spec.split(";"):
        group = group.strip()
        if not group:
            continue
        vals = [_number(tok, f"initial condition {group!r} must be comma-separated numbers")
                for tok in group.split(",")]
        if len(vals) != n:
            raise CliError(f"initial condition {group!r} must have {n} components")
        points.append(np.array(vals))
    if not points:
        raise CliError("no initial conditions given")
    return points


def _cmd_simulate(args) -> int:
    sys_obj, _source = _load_target(args)
    if not sys_obj.is_autonomous:
        raise CliError("simulate requires an autonomous system "
                       "(close the loop first via synthesize)")
    dt = args.dt if args.dt is not None else default_dt(sys_obj)
    if args.x0:
        points = _parse_x0_list(args.x0, sys_obj.n)
    elif args.boundary_samples:
        if not args.certificate:
            raise CliError("--boundary-samples requires --certificate for the ellipsoid")
        cert = load_certificate(args.certificate)
        points = boundary_points(cert.P, args.boundary_samples, np.random.default_rng(args.seed))
    else:
        raise CliError("pass --x0 or --boundary-samples")
    out = _outdir(args)
    ts = _timestamp()
    header = ["t"] + [f"x{i + 1}" for i in range(sys_obj.n)]
    for idx, x0 in enumerate(points):
        traj = simulate(sys_obj, x0, args.t_final, dt)
        _write_csv(out / f"trajectory_{idx:03d}.csv", ts, header,
                   ((t, *row) for t, row in zip(traj.times, traj.states)))
    if sys_obj.n == 2 and args.phase_grid > 0:
        lim = args.phase_extent
        axis = np.linspace(-lim, lim, args.phase_grid)
        shorts = (simulate(sys_obj, np.array([a, b]), 20.0 * dt * 5, dt * 5)
                  for a in axis for b in axis)
        _write_csv(out / "phase_portrait.csv", ts, ["traj", "t", "x1", "x2"],
                   ((tid, t, *row) for tid, short in enumerate(shorts)
                    for t, row in zip(short.times, short.states)))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, need_eps: bool = True) -> None:
    import os
    p.add_argument("--zoo", help=f"model name from the registry: {', '.join(model_names())}")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="model parameter (repeatable), e.g. --param Re=120")
    p.add_argument("--system", help="path to a system JSON file")
    p.add_argument("--out", default=os.environ.get("QBSTAB_OUT", "qbstab_out"),
                   help="output directory (env QBSTAB_OUT overrides the default)")
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    if need_eps:
        p.add_argument("--eps", required=True,
                       help="eps spec: VALUE | grid:lo:hi:count[:log] | search:lo:hi")
        p.add_argument("--alpha", type=_bounded(float, 0.0, word="auto"), default="auto",
                       help="decay margin; 'auto' = 1e-6 |A|_F (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbstab",
                     description="Ellipsoidal stability certification for quadratic-bilinear systems")
    parser.add_argument("--version", action="version", version=f"qbstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, mode, text in (
            ("analyze", "analysis", "region-of-attraction certification (m may be 0)"),
            ("synthesize", "synthesis", "stabilizing gain synthesis (m >= 1)")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--rel-tol", type=_rel_tol, default=1e-3, help="search refinement tolerance")
        p.add_argument("--union-samples", type=int, default=1_000_000,
                       help="grid union volume (at least 1e4): random directions for n >= 4; "
                            "for n <= 3, a midpoint grid of about 16 samples^((n-1)/n) directions")
        p.set_defaults(fn=_run_certification, mode=mode)

    p = sub.add_parser("verify", help="audit a certificate by sampling and simulation")
    _add_common(p, need_eps=False)
    p.add_argument("--certificate", required=True)
    p.add_argument("--samples", type=_bounded(int, 0), default=10_000)
    p.add_argument("--trajectories", type=_bounded(int, 1), default=100)
    p.add_argument("--t-final", type=_positive, default=20.0)
    p.add_argument("--dt", type=_positive, default=None, help="default: 1e-3 / |A|_F")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench", help="wall-clock scaling over stacked system sizes")
    _add_common(p)
    p.add_argument("--stack", required=True, help="comma-separated stack factors, e.g. 1,2,5")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("simulate", help="integrate trajectories, write CSV")
    _add_common(p, need_eps=False)
    p.add_argument("--x0", help="initial conditions 'a,b;c,d;...'")
    p.add_argument("--boundary-samples", type=_bounded(int, 0), default=0)
    p.add_argument("--certificate", help="certificate JSON for boundary sampling")
    p.add_argument("--t-final", type=_positive, default=5.0)
    p.add_argument("--dt", type=_positive, default=None)
    p.add_argument("--phase-grid", type=_bounded(int, 0), default=0,
                   help="for n=2: side length of a short-trajectory phase grid")
    p.add_argument("--phase-extent", type=_bounded(float, -math.inf), default=3.0)
    p.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, QBStabError) as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
