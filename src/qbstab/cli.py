"""Command-line front end.

Subcommands: analyze, synthesize, verify, bench, simulate.  Every run is
deterministic given (inputs, seed, tolerances); output files are
byte-identical across runs apart from one timestamp header line.  Floating
point values are printed with 17 significant digits so they round-trip.

Exit codes: 0 success, 2 infeasible, 3 verification failure, 4 input error,
5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    FLOOR_FACTOR,
    UNION_MIN_SAMPLES,
    Certificate,
    Ellipsoid,
    Infeasible,
    SolverFailure,
    UnionRegion,
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
from .sdp import SolverConfig, solve
from .systems import QBSystem, close_loop, load_system, save_system, stack
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


def _write_json(path: Path, payload: dict) -> None:
    payload = {"generated": _timestamp(), **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _number(token: str, error: str, cast=float):
    """``cast(token)`` if finite, or a CliError with message ``error``."""
    try:
        value = cast(token)
    except ValueError:
        raise CliError(error)
    if not np.isfinite(value):
        raise CliError(error)
    return value


def _finite(token: str) -> float:
    """argparse type for tolerances, times and extents: a finite float."""
    value = float(token)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {token}")
    return value


def _count(token: str) -> int:
    """argparse type for seeds and sample counts: an integer >= 0."""
    value = int(token)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load_target(args) -> tuple[QBSystem, str]:
    if getattr(args, "zoo", None) and getattr(args, "system", None):
        raise CliError("pass either --zoo or --system, not both")
    if getattr(args, "zoo", None):
        params = {}
        for spec in args.param or []:
            if "=" not in spec:
                raise CliError(f"--param expects key=value, got {spec!r}")
            key, value = spec.split("=", 1)
            params[key] = _number(value, f"--param value must be a finite number, got {spec!r}")
        try:
            return get_model(args.zoo, **params), f"zoo:{args.zoo}"
        except (KeyError, TypeError) as exc:
            raise CliError(str(exc))
    if getattr(args, "system", None):
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


def _alpha_arg(value: str):
    if value == "auto":
        return "auto"
    alpha = _number(value, f"--alpha must be 'auto' or a finite number, got {value!r}")
    if alpha < 0:
        raise CliError("--alpha must be non-negative")
    return alpha


def _solver_config(args) -> SolverConfig:
    try:
        return SolverConfig(feas_tol=args.feas_tol, gap_tol=args.gap_tol,
                            max_iters=args.max_iters)
    except ValueError as exc:
        raise CliError(str(exc))


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create --out directory: {exc}")
    return out


def _write_geometry(path: Path, cert: Certificate) -> None:
    """Boundary polyline for planar systems; principal axes otherwise."""
    ts = _timestamp()
    w, V = np.linalg.eigh(cert.P)
    if cert.n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 257)
        ring = (V * np.sqrt(w)) @ np.vstack([np.cos(theta), np.sin(theta)])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# generated: {ts}\n")
            fh.write("x1,x2\n")
            for col in ring.T:
                fh.write(f"{_fmt(col[0])},{_fmt(col[1])}\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# generated: {ts}\n")
        fh.write("semi_axis_length," + ",".join(f"v{i + 1}" for i in range(cert.n)) + "\n")
        for k in range(cert.n - 1, -1, -1):
            fh.write(f"{_fmt(np.sqrt(w[k]))}," + ",".join(_fmt(v) for v in V[:, k]) + "\n")


def _union_payload(certs: list[Certificate], samples: int, seed: int) -> dict:
    region = UnionRegion(members=tuple(Ellipsoid(P=c.P) for c in certs))
    estimate, stderr = union_volume(region, samples, seed)
    largest = max(ellipsoid_volume(e) for e in region.members)
    payload = {
        "members": len(certs),
        "samples": samples,
        "seed": seed,
        "volume_estimate": estimate,
        "standard_error": stderr,
        "largest_member_volume": largest,
    }
    # the union contains every member, so an estimate 3 standard errors
    # below the largest exact member volume means the box drew too few hits
    if estimate + 3.0 * stderr < largest:
        payload["warning"] = (
            f"union volume estimate {estimate:.6g} +- {stderr:.2g} is below the largest "
            f"member's exact volume {largest:.6g}: the bounding box in n = {region.n} "
            "holds too few Monte Carlo hits for the estimate to be usable")
        print(json.dumps({"warning": "union_undersampled", "message": payload["warning"]}),
              file=sys.stderr)
    return payload


def _run_certification(args, mode: str) -> int:
    sys_obj, source = _load_target(args)
    if mode == "synthesis" and sys_obj.m < 1:
        raise CliError(f"synthesis requires an input channel (m >= 1); {source} has m = 0")
    config = _solver_config(args)
    kind, eps_spec = _parse_eps(args.eps)
    alpha = _alpha_arg(args.alpha)
    if kind == "grid" and args.union_samples < UNION_MIN_SAMPLES:
        raise CliError(f"--union-samples must be at least {UNION_MIN_SAMPLES}")
    if not 0 < args.rel_tol < np.inf:
        raise CliError("--rel-tol must be finite and positive")
    out = _outdir(args)
    summary = {
        "command": "synthesize" if mode == "synthesis" else "analyze",
        "tool_version": __version__,
        "system": source,
        "n": sys_obj.n,
        "m": sys_obj.m,
        "mode": mode,
        "eps_spec": args.eps,
        "seed": args.seed,
    }
    best: Certificate | None = None

    if kind == "grid":
        sweep = sweep_epsilon(sys_obj, eps_spec, alpha, mode, config)
        sweep.to_csv(out / "sweep.csv", timestamp=_timestamp())
        summary["alpha"] = sweep.alpha
        summary["grid_points"] = len(sweep.entries)
        summary["feasible_points"] = len(sweep.feasible_entries())
        best = sweep.best()
        feas_certs = [e.certificate for e in sweep.feasible_entries()]
        summary["floor_active_points"] = sum(c.solver_report["floor_active"] for c in feas_certs)
        if len(feas_certs) >= 2:
            union = _union_payload(feas_certs, args.union_samples, args.seed)
            _write_json(out / "union.json", union)
            summary["union_volume_estimate"] = union["volume_estimate"]
            if "warning" in union:
                summary["warning"] = union["warning"]
    elif kind == "search":
        result = optimize_epsilon(sys_obj, eps_spec, rel_tol=args.rel_tol, alpha=alpha,
                                  mode=mode, config=config)
        summary["alpha"] = resolve_alpha(sys_obj, alpha)
        summary["evaluations"] = len(result.history)
        best = result.best
    else:
        outcome = max_trace(sys_obj, eps_spec, alpha, mode, config)
        if isinstance(outcome, Infeasible):
            summary["alpha"] = outcome.alpha
            summary["status"] = "infeasible"
            summary["epsilon"] = eps_spec
            summary["infeasibility_message"] = outcome.message
            _write_json(out / "summary.json", summary)
            return EXIT_INFEASIBLE
        summary["alpha"] = outcome.alpha
        best = outcome

    if best is None:
        summary["status"] = "infeasible"
        _write_json(out / "summary.json", summary)
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
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    return _run_certification(args, "analysis")


def _cmd_synthesize(args) -> int:
    return _run_certification(args, "synthesis")


def _cmd_verify(args) -> int:
    sys_obj, source = _load_target(args)
    cert = load_certificate(args.certificate)
    # recomputed rather than read back, so certificates written without
    # these entries are judged too
    shape = {**shape_report(cert.P, cert.K, default_delta(sys_obj)),
             "relaxed_retry": cert.solver_report.get("relaxed_retry")}
    warnings = []
    if shape["floor_active"]:
        warnings.append(
            f"certificate is floor-active: lambda_min(P) = "
            f"{shape['lambda_min_over_delta']:.3g} delta <= {FLOOR_FACTOR:g} delta; "
            "its ellipsoid is degenerate and its gain may be too stiff to simulate")
        print(json.dumps({"warning": "floor_active", "message": warnings[0]}), file=sys.stderr)
    dt = args.dt if args.dt is not None else default_dt(sys_obj)
    if dt <= 0 or args.t_final <= 0 or args.trajectories < 1:
        raise CliError("need --dt > 0, --t-final > 0 and --trajectories >= 1")
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
    _write_json(out / "verification.json", report)
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
    alpha = _alpha_arg(args.alpha)
    config = _solver_config(args)
    out = _outdir(args)
    rows = []
    for k in factors:
        stacked = stack(sys_obj, k)
        t0 = time.perf_counter()
        problem = assemble(stacked, eps, resolve_alpha(stacked, alpha), "analysis")
        sol = solve(problem, config)
        wall = time.perf_counter() - t0
        rows.append((stacked.n, wall, sol.iters, sol.status, sol.objective))
    with open(out / "bench.csv", "w", encoding="utf-8") as fh:
        fh.write(f"# generated: {_timestamp()}\n")
        fh.write("n,wall_seconds,iters,status\n")
        for n, wall, iters, status, _obj in rows:
            fh.write(f"{n},{_fmt(wall)},{iters},{status}\n")
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
    _write_json(out / "bench_summary.json", payload)
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
    if dt <= 0 or args.t_final <= 0:
        raise CliError("need --dt > 0 and --t-final > 0")
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
    for idx, x0 in enumerate(points):
        traj = simulate(sys_obj, x0, args.t_final, dt)
        traj.to_csv(out / f"trajectory_{idx:03d}.csv", timestamp=ts)
    if sys_obj.n == 2 and args.phase_grid > 0:
        lim = args.phase_extent
        g = args.phase_grid
        with open(out / "phase_portrait.csv", "w", encoding="utf-8") as fh:
            fh.write(f"# generated: {ts}\n")
            fh.write("traj,t,x1,x2\n")
            tid = 0
            for a in np.linspace(-lim, lim, g):
                for b in np.linspace(-lim, lim, g):
                    short = simulate(sys_obj, np.array([a, b]), 20.0 * dt * 5, dt * 5)
                    for t, row in zip(short.times, short.states):
                        fh.write(f"{tid},{_fmt(t)},{_fmt(row[0])},{_fmt(row[1])}\n")
                    tid += 1
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, need_eps: bool = True) -> None:
    import os
    p.add_argument("--zoo", help=f"model name from the registry: {', '.join(model_names())}")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="model parameter (repeatable), e.g. --param Re=120")
    p.add_argument("--system", help="path to a system JSON file")
    p.add_argument("--out", default=os.environ.get("QBSTAB_OUT", "qbstab_out"),
                   help="output directory (env QBSTAB_OUT overrides the default)")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--feas-tol", type=_finite, default=1e-8)
    p.add_argument("--gap-tol", type=_finite, default=1e-8)
    p.add_argument("--max-iters", type=int, default=200)
    if need_eps:
        p.add_argument("--eps", required=True,
                       help="eps spec: VALUE | grid:lo:hi:count[:log] | search:lo:hi")
        p.add_argument("--alpha", default="auto",
                       help="decay margin; 'auto' = 1e-6 |A|_F (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbstab",
                     description="Ellipsoidal stability certification for quadratic-bilinear systems")
    parser.add_argument("--version", action="version", version=f"qbstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="region-of-attraction certification (m may be 0)")
    _add_common(p)
    p.add_argument("--rel-tol", type=float, default=1e-3, help="search refinement tolerance")
    p.add_argument("--union-samples", type=int, default=1_000_000)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("synthesize", help="stabilizing gain synthesis (m >= 1)")
    _add_common(p)
    p.add_argument("--rel-tol", type=float, default=1e-3)
    p.add_argument("--union-samples", type=int, default=1_000_000)
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("verify", help="audit a certificate by sampling and simulation")
    _add_common(p, need_eps=False)
    p.add_argument("--certificate", required=True)
    p.add_argument("--samples", type=_count, default=10_000)
    p.add_argument("--trajectories", type=int, default=100)
    p.add_argument("--t-final", type=_finite, default=20.0)
    p.add_argument("--dt", type=_finite, default=None, help="default: 1e-3 / |A|_F")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench", help="wall-clock scaling over stacked system sizes")
    _add_common(p)
    p.add_argument("--stack", required=True, help="comma-separated stack factors, e.g. 1,2,5")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("simulate", help="integrate trajectories, write CSV")
    _add_common(p, need_eps=False)
    p.add_argument("--x0", help="initial conditions 'a,b;c,d;...'")
    p.add_argument("--boundary-samples", type=_count, default=0)
    p.add_argument("--certificate", help="certificate JSON for boundary sampling")
    p.add_argument("--t-final", type=_finite, default=5.0)
    p.add_argument("--dt", type=_finite, default=None)
    p.add_argument("--phase-grid", type=_count, default=0,
                   help="for n=2: side length of a short-trajectory phase grid")
    p.add_argument("--phase-extent", type=_finite, default=3.0)
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
    except (FileNotFoundError, QBStabError) as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
