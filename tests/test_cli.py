import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from qbstab.certify import Certificate, save_certificate
from qbstab.cli import _union_payload, build_parser, main
from qbstab.systems import save_system, stack, system_to_dict
from qbstab.verify import convergence_check
from qbstab.models import scalar_family


def run(*argv):
    return main(list(argv))


def assert_one_input_error(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "input"


def unreadable_path(tmp_path, kind: str) -> Path:
    """A path that cannot be read as UTF-8 JSON: Latin-1 bytes, or a directory."""
    path = tmp_path / "unreadable.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"schema": "caf\xe9"}')
    return path


class TestAnalyze:
    def test_single_eps_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run("analyze", "--zoo", "two-state", "--eps", "0.4", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "optimal"
        assert (out / "certificate.json").exists()
        geometry = (out / "geometry.csv").read_text().splitlines()
        assert geometry[1] == "x1,x2"
        assert len(geometry) == 2 + 257  # closed polyline

    def test_grid_produces_sweep_and_union(self, tmp_path):
        out = tmp_path / "grid"
        code = run("analyze", "--zoo", "two-state", "--eps", "grid:0.05:0.5:5",
                   "--out", str(out), "--union-samples", "20000")
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# generated: ")
        assert lines[1] == "epsilon,feasible,trace_P"
        assert len(lines) == 2 + 5
        rows = [line.split(",") for line in lines[2:]]
        assert [float(r[0]) for r in rows] == list(np.linspace(0.05, 0.5, 5))
        # the trace column is empty exactly on infeasible rows
        assert all(r[1] in ("0", "1") and (r[2] == "") == (r[1] == "0") for r in rows)
        assert (out / "union.json").exists()

    def test_stacked_ball_union_is_exact(self, tmp_path, capsys):
        # 20 stacked scalar copies certify balls, and every direction of a
        # ball has the same radius
        sys_path = tmp_path / "stacked.json"
        save_system(stack(scalar_family(-1.0, 1.0), 20), sys_path)
        out = tmp_path / "high_n"
        assert run("analyze", "--system", str(sys_path), "--eps", "grid:0.5:0.9:2",
                   "--out", str(out), "--union-samples", "10000") == 0
        union = json.loads((out / "union.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert union["method"] == "radial-monte-carlo" and union["directions"] == 10_000
        assert union["volume_estimate"] == pytest.approx(union["largest_member_volume"],
                                                         rel=1e-12)
        assert "warning" not in union and "warning" not in summary
        assert capsys.readouterr().err == ""

    def test_undersampled_union_warns(self, capsys):
        # a needle 100 times longer than the unit ball it joins: few of
        # 10,000 random directions in n = 6 come near its axis
        n = 6
        needle = np.eye(n)
        needle[0, 0] = 1e4
        certs = [Certificate(mode="analysis", P=P, epsilon=0.5, alpha=0.0)
                 for P in (needle, np.eye(n))]
        union = _union_payload(certs, 10_000, 0)
        assert union["volume_estimate"] + 3 * union["standard_error"] < \
            union["largest_member_volume"]
        assert "10000 directions in n = 6" in union["warning"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"warning": "union_undersampled",
                                      "message": union["warning"]}

    def test_union_warning_reaches_summary(self, tmp_path, monkeypatch, capsys):
        # an estimate that misses the members, as needles at n >= 4 can give
        monkeypatch.setattr("qbstab.cli.union_volume", lambda region, samples, seed: (0.0, 0.0))
        out = tmp_path / "low"
        assert run("analyze", "--zoo", "two-state", "--eps", "grid:0.1:0.3:2",
                   "--out", str(out), "--union-samples", "10000") == 0
        union = json.loads((out / "union.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert "n = 2" in union["warning"]
        assert summary["warning"] == union["warning"]
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_reproduction_grid_union_has_no_warning(self, tmp_path, capsys):
        out = tmp_path / "repro"
        assert run("analyze", "--zoo", "two-state", "--eps", "grid:0.01:0.8:20",
                   "--out", str(out)) == 0
        union = json.loads((out / "union.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        # the largest member is the best ellipse, area 12.8339
        assert union["largest_member_volume"] == pytest.approx(12.8339, rel=1e-4)
        assert union["volume_estimate"] > union["largest_member_volume"]
        assert "warning" not in union and "warning" not in summary
        assert capsys.readouterr().err == ""

    def test_infeasible_eps_exit_code(self, tmp_path):
        code = run("analyze", "--zoo", "two-state", "--eps", "5.0",
                   "--out", str(tmp_path / "inf"))
        assert code == 2
        summary = json.loads((tmp_path / "inf" / "summary.json").read_text())
        assert summary["status"] == "infeasible"

    def test_grid_without_feasible_point_exit_code(self, tmp_path):
        out = tmp_path / "inf_grid"
        assert run("analyze", "--zoo", "two-state", "--eps", "grid:1:2:3", "--out", str(out)) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "infeasible"
        assert summary["grid_points"] == 3 and summary["feasible_points"] == 0
        assert summary["failed_points"] == []
        assert not (out / "certificate.json").exists()

    def test_stalled_eps_exit_code(self, tmp_path, capsys):
        # at Re = 120 and eps = 10**-1.8 the solve stalls: no interior, no ray
        out = tmp_path / "stall"
        assert run("analyze", "--zoo", "shear-flow-9", "--param", "Re=120",
                   "--eps", "0.015848931924611134", "--out", str(out)) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])
        assert error["error"] == "numerical" and "stalled" in error["message"]
        assert not (out / "summary.json").exists()
        assert not (out / "certificate.json").exists()

    def test_search_on_scalar_file(self, tmp_path):
        sys_path = tmp_path / "scalar.json"
        save_system(scalar_family(-1.0, 1.0), sys_path)
        out = tmp_path / "search"
        code = run("analyze", "--system", str(sys_path), "--eps", "search:0.1:2",
                   "--alpha", "1e-8", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["best"]["epsilon"] == pytest.approx(1.0, abs=1e-3)
        assert summary["best"]["trace_P"] == pytest.approx(1.0, abs=1e-3)
        assert summary["failed_points"] == []
        # the discarded look-ahead probes count as solves, not evaluations
        assert summary["evaluations"] < summary["solves"] <= 2 * summary["evaluations"]

    def test_summary_reports_the_window(self, tmp_path):
        # analysis grids and searches report eps* and the points its ray
        # decided without a solve; solves counts only the SDP solves run
        search, grid = tmp_path / "search", tmp_path / "grid"
        assert run("analyze", "--zoo", "two-state", "--eps", "search:0.01:2",
                   "--rel-tol", "1e-2", "--out", str(search)) == 0
        summary = json.loads((search / "summary.json").read_text())
        assert summary["eps_star"] == pytest.approx(0.879807, abs=5e-7)
        assert summary["spectral_ray_points"] == 3
        assert summary["solves"] + summary["spectral_ray_points"] > summary["evaluations"]
        assert run("analyze", "--zoo", "two-state", "--eps", "grid:0.4:1.6:3",
                   "--union-samples", "10000", "--out", str(grid)) == 0
        summary = json.loads((grid / "summary.json").read_text())
        assert (summary["spectral_ray_points"], summary["feasible_points"]) == (2, 1)
        assert summary["eps_star"] == pytest.approx(0.879807, abs=5e-7)
        synth = tmp_path / "synth"
        sys_path = tmp_path / "scalar_qb.json"
        save_system(scalar_family(-1.0, 1.0, b=1.0, d=0.0), sys_path)
        assert run("synthesize", "--system", str(sys_path), "--eps", "grid:0.5:1:2",
                   "--union-samples", "10000", "--out", str(synth)) == 0
        summary = json.loads((synth / "summary.json").read_text())
        assert "eps_star" not in summary and "spectral_ray_points" not in summary

    def test_summary_reports_the_sign_group(self, tmp_path):
        # the shear flow's group of order 4 leaves 15 of P's 45 svec slots;
        # the certificate's P keeps its full 9-by-9 shape, block-diagonal
        out = tmp_path / "shear"
        assert run("analyze", "--zoo", "shear-flow-9", "--param", "Re=120",
                   "--eps", "grid:0.002:0.004:2", "--union-samples", "20000",
                   "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["symmetry_order"] == 4
        report = summary["best"]["solver_report"]
        assert (report["symmetry_order"], report["decision_dim"]) == (4, 15)
        P = np.array(json.loads((out / "certificate.json").read_text())["P"])
        assert P.shape == (9, 9) and P[0, 1] == P[1, 3] == 0.0 and P[1, 2] != 0.0
        two = tmp_path / "two"
        assert run("analyze", "--zoo", "two-state", "--eps", "search:0.1:0.5",
                   "--rel-tol", "1e-1", "--out", str(two)) == 0
        summary = json.loads((two / "summary.json").read_text())
        assert summary["symmetry_order"] == 1
        assert summary["best"]["solver_report"]["decision_dim"] == 3

    def test_failed_points_told_apart_from_infeasible(self, tmp_path):
        # at Re = 120 the shear flow has no interior and no improving ray at
        # eps = 10**-1.8, just above eps*, where the spectral ray is too weak
        # to decide it, so that solve stalls; summary.json names the point
        eps = float(np.geomspace(1e-3, 1.0, 16)[6])
        out = tmp_path / "shear"
        assert run("analyze", "--zoo", "shear-flow-9", "--param", "Re=120",
                   "--eps", f"grid:0.01:{eps!r}:2", "--union-samples", "20000",
                   "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid_points"] == 2 and summary["feasible_points"] == 1
        (failed,) = summary["failed_points"]
        assert failed["epsilon"] == eps
        assert failed["status"].startswith("failed: solver returned NumericalFailure")
        assert "stalled" in failed["status"]

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run("analyze", "--zoo", "two-state", "--eps", "grid:0.1:0.5:4",
                       "--out", str(out), "--union-samples", "20000") == 0
            outs.append(out)
        for name in ("sweep.csv", "geometry.csv"):
            a = [l for l in (outs[0] / name).read_text().splitlines() if not l.startswith("#")]
            b = [l for l in (outs[1] / name).read_text().splitlines() if not l.startswith("#")]
            assert a == b
        ja = json.loads((outs[0] / "summary.json").read_text())
        jb = json.loads((outs[1] / "summary.json").read_text())
        ja.pop("generated"), jb.pop("generated")
        assert ja == jb


class TestSynthesize:
    def test_three_state_single_eps(self, tmp_path):
        out = tmp_path / "syn"
        code = run("synthesize", "--zoo", "three-state-qb", "--eps", "1.0", "--out", str(out))
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["mode"] == "synthesis"
        assert np.array(cert["K"]).shape == (2, 3)
        assert (out / "closed_loop.json").exists()
        report = json.loads((out / "summary.json").read_text())["best"]["solver_report"]
        assert report == cert["residuals"]
        assert report["floor_active"] is False and report["status"] == "Optimal"
        assert "proof_shrink" not in report

    def test_grid_reports_the_solver_status(self, tmp_path, three_state_sweep):
        # the three-state grid's third point is a proven failed iterate: its
        # report states the solver's status and the shrink, and no written
        # file carries a relaxed_retry key
        out = tmp_path / "grid"
        assert run("synthesize", "--zoo", "three-state-qb", "--eps", "grid:0.01:14:20",
                   "--union-samples", "10000", "--out", str(out)) == 0
        for name in ("certificate.json", "summary.json"):
            assert "relaxed_retry" not in (out / name).read_text(), name
        cert = three_state_sweep.entries[2].certificate
        assert cert.solver_report["status"] == "NumericalFailure"
        cert_path = tmp_path / "proven.json"
        save_certificate(cert, cert_path)
        vout = tmp_path / "ver"
        assert run("verify", "--zoo", "three-state-qb", "--certificate", str(cert_path),
                   "--samples", "500", "--trajectories", "5", "--t-final", "20",
                   "--dt", "0.01", "--out", str(vout)) == 0
        text = (vout / "verification.json").read_text()
        assert "relaxed_retry" not in text
        assert json.loads(text)["certificate_shape"]["proof_shrink"] == 1e-10

    def test_rejects_autonomous_system(self, tmp_path):
        code = run("synthesize", "--zoo", "two-state", "--eps", "1.0",
                   "--out", str(tmp_path / "bad"))
        assert code == 4


class TestVerifyCommand:
    def test_end_to_end_scalar_synthesis(self, tmp_path):
        sys_path = tmp_path / "scalar_qb.json"
        save_system(scalar_family(-1.0, 1.0, b=1.0, d=0.0), sys_path)
        out = tmp_path / "syn"
        assert run("synthesize", "--system", str(sys_path), "--eps", "1.0",
                   "--out", str(out)) == 0
        vout = tmp_path / "ver"
        code = run("verify", "--system", str(sys_path),
                   "--certificate", str(out / "certificate.json"),
                   "--samples", "2000", "--trajectories", "20",
                   "--t-final", "25", "--dt", "0.001", "--out", str(vout))
        assert code == 0
        report = json.loads((vout / "verification.json").read_text())
        assert report["passed"]
        assert report["warnings"] == []
        assert report["sample_check"]["violations"] == 0
        assert report["convergence_check"]["converged"] == 20

    def test_convergence_report_keeps_margin_and_vdot_ratio(self, tmp_path):
        system = scalar_family(-1.0, 1.0)
        sys_path, cert_path = tmp_path / "scalar.json", tmp_path / "cert.json"
        save_system(system, sys_path)
        cert = Certificate(mode="analysis", P=np.array([[0.5]]), epsilon=1.0, alpha=0.0)
        save_certificate(cert, cert_path)
        vout = tmp_path / "ver"
        assert run("verify", "--system", str(sys_path), "--certificate", str(cert_path),
                   "--samples", "100", "--trajectories", "10", "--t-final", "10",
                   "--dt", "0.01", "--seed", "4", "--out", str(vout)) == 0
        conv = json.loads((vout / "verification.json").read_text())["convergence_check"]
        flows = convergence_check(system, cert, 10, 10.0, 0.01, 5)  # the CLI passes seed + 1
        assert conv["min_decay_margin"] == flows.min_decay_margin > 0.0
        assert conv["max_vdot_ratio"] == flows.max_vdot_ratio < 0.0

    def test_floor_active_certificate_warns(self, tmp_path, capsys):
        # a hand-built needle: lambda_min(P) = 5 delta for the scalar system
        sys_path = tmp_path / "scalar_qb.json"
        save_system(scalar_family(-1.0, 1.0, b=1.0, d=0.0), sys_path)
        P = np.array([[5e-8]])
        cert = Certificate(mode="synthesis", P=P, epsilon=1.0, alpha=0.0,
                           Y=-P, K=np.array([[-1.0]]))
        cert_path = tmp_path / "needle.json"
        save_certificate(cert, cert_path)
        vout = tmp_path / "ver"
        code = run("verify", "--system", str(sys_path), "--certificate", str(cert_path),
                   "--samples", "500", "--trajectories", "5", "--t-final", "5",
                   "--dt", "0.01", "--out", str(vout))
        assert code == 0
        warning = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert warning["warning"] == "floor_active"
        report = json.loads((vout / "verification.json").read_text())
        shape = report["certificate_shape"]
        assert shape["floor_active"] is True
        assert shape["lambda_min_over_delta"] == pytest.approx(5.0)
        assert shape["gain_norm"] == pytest.approx(1.0)
        assert shape["proof_shrink"] is None  # not recorded in this certificate
        assert report["warnings"]

    @pytest.mark.parametrize("residuals, warned", [
        ({"status": "Optimal", "relaxed_retry": True}, True),
        ({"status": "Optimal", "relaxed_retry": True, "proof_shrink": 1e-10}, False),
        ({"status": "Optimal", "relaxed_retry": False}, False),
    ])
    def test_unproven_iterate_of_an_older_certificate_warns(self, tmp_path, capsys,
                                                            residuals, warned):
        # a certificate as written before the solver's status was recorded:
        # relaxed_retry without proof_shrink is an iterate accepted unproven
        sys_path, cert_path = tmp_path / "scalar.json", tmp_path / "cert.json"
        save_system(scalar_family(-1.0, 1.0), sys_path)
        doc = {"schema": "qbstab-certificate-v1", "mode": "analysis", "n": 1, "m": 0,
               "epsilon": 1.0, "alpha": 0.0, "P": [[0.5]], "Y": None, "K": None,
               "trace": 0.5, "residuals": residuals}
        cert_path.write_text(json.dumps(doc))
        vout = tmp_path / "ver"
        assert run("verify", "--system", str(sys_path), "--certificate", str(cert_path),
                   "--samples", "100", "--trajectories", "10", "--t-final", "10",
                   "--dt", "0.01", "--seed", "4", "--out", str(vout)) == 0
        report = json.loads((vout / "verification.json").read_text())
        assert report["certificate_shape"]["proof_shrink"] == residuals.get("proof_shrink")
        err = [json.loads(line) for line in capsys.readouterr().err.splitlines()
               if line.startswith("{")]
        assert [w["warning"] for w in err] == (["unproven_iterate"] if warned else [])
        assert len(report["warnings"]) == warned

    def test_asymmetric_p_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "an"
        assert run("analyze", "--zoo", "two-state", "--eps", "0.3", "--out", str(out)) == 0
        cert_path = out / "certificate.json"
        doc = json.loads(cert_path.read_text())
        doc["P"][0][1] /= 2.0
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        vout = tmp_path / "ver"
        assert run("verify", "--zoo", "two-state", "--certificate", str(cert_path),
                   "--t-final", "5", "--dt", "1e-3", "--out", str(vout)) == 4
        assert_one_input_error(capsys)
        assert not (vout / "verification.json").exists()

    def test_dimension_mismatch_is_input_error(self, tmp_path):
        sys_path = tmp_path / "scalar.json"
        save_system(scalar_family(-1.0, 1.0), sys_path)
        out = tmp_path / "an"
        assert run("analyze", "--system", str(sys_path), "--eps", "1.0",
                   "--out", str(out)) == 0
        code = run("verify", "--zoo", "two-state",
                   "--certificate", str(out / "certificate.json"),
                   "--out", str(tmp_path / "v"))
        assert code == 4

    @pytest.mark.parametrize("field,value", [
        ("P", [[float("nan")]]),
        ("P", [["0.5"]]),
        ("Y", "abc"),
        ("Y", [[float("inf")]]),
        ("K", [["-1"]]),
        ("K", [[-1.0, 0.0]]),
        ("K", [[1.0]]),
        ("epsilon", float("nan")),
        ("epsilon", 0.0),
        ("alpha", -1.0),
        ("alpha", float("inf")),
        ("residuals", [1, 2]),
        ("n", 1.5),
        ("n", "1"),
        ("n", True),
        ("m", 2.7),
        ("m", "x"),
        ("m", True),
        ("m", 5),
        # an analysis certificate with a Y and a K that no audit applies
        ("mode", "analysis"),
    ])
    def test_malformed_certificate_is_input_error(self, tmp_path, capsys, field, value):
        sys_path, cert_path = tmp_path / "scalar_qb.json", tmp_path / "cert.json"
        save_system(scalar_family(-1.0, 1.0, b=1.0, d=0.0), sys_path)
        P = np.array([[0.5]])
        save_certificate(Certificate(mode="synthesis", P=P, epsilon=1.0, alpha=0.0,
                                     Y=-P, K=np.array([[-1.0]])), cert_path)
        doc = json.loads(cert_path.read_text())
        doc[field] = value
        cert_path.write_text(json.dumps(doc))
        vout = tmp_path / "ver"
        assert run("verify", "--system", str(sys_path), "--certificate", str(cert_path),
                   "--samples", "100", "--trajectories", "2", "--out", str(vout)) == 4
        assert_one_input_error(capsys)
        assert not (vout / "verification.json").exists()

    @pytest.mark.parametrize("kind", ["not_utf8", "directory"])
    def test_unreadable_certificate_is_input_error(self, tmp_path, capsys, kind):
        vout = tmp_path / "ver"
        assert run("verify", "--zoo", "two-state", "--certificate",
                   str(unreadable_path(tmp_path, kind)), "--out", str(vout)) == 4
        assert_one_input_error(capsys)
        assert not vout.exists()

    @pytest.mark.parametrize("flags", [
        ("--dt", "-0.001"), ("--dt", "0"), ("--t-final", "0"), ("--t-final", "-5"),
        ("--trajectories", "0"),
    ])
    def test_bad_step_inputs_are_input_errors(self, tmp_path, capsys, flags):
        cert_dir = tmp_path / "an"
        assert run("analyze", "--zoo", "two-state", "--eps", "0.4", "--out", str(cert_dir)) == 0
        vout = tmp_path / "ver"
        code = run("verify", "--zoo", "two-state", "--certificate",
                   str(cert_dir / "certificate.json"), "--out", str(vout), *flags)
        assert code == 4
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "input"
        assert not (vout / "verification.json").exists()

    def test_output_directory_exists_before_the_checks_run(self, tmp_path, monkeypatch):
        # an --out that cannot be created fails before the slow checks, not after
        from qbstab import cli

        save_certificate(Certificate(mode="analysis", P=np.eye(2), epsilon=0.4, alpha=0.0),
                         tmp_path / "cert.json")
        vout = tmp_path / "ver"
        seen = []

        def probe(*args):
            seen.append(vout.is_dir())
            raise RuntimeError("stop")

        monkeypatch.setattr(cli, "convergence_check", probe)
        with pytest.raises(RuntimeError, match="stop"):
            run("verify", "--zoo", "two-state", "--certificate", str(tmp_path / "cert.json"),
                "--out", str(vout))
        assert seen == [True]


class TestBench:
    def test_stack_sizes_and_exponent(self, tmp_path):
        out = tmp_path / "bench"
        code = run("bench", "--zoo", "two-state", "--eps", "0.4",
                   "--stack", "1,2,5", "--out", str(out))
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[1] == "n,wall_seconds,iters,status"
        ns = [int(l.split(",")[0]) for l in lines[2:]]
        assert ns == [2, 4, 10]
        summary = json.loads((out / "bench_summary.json").read_text())
        assert summary["power_law_scope"] == "all"  # no n >= 40 points here
        assert isinstance(summary["power_law_exponent"], float)

    def test_requires_single_eps(self, tmp_path):
        code = run("bench", "--zoo", "two-state", "--eps", "grid:0.1:0.5:3",
                   "--stack", "1,2", "--out", str(tmp_path / "x"))
        assert code == 4


class TestSimulate:
    def test_linear_decay_csv(self, tmp_path):
        sys_path = tmp_path / "lin.json"
        save_system(scalar_family(-1.0, 0.0), sys_path)
        out = tmp_path / "sim"
        code = run("simulate", "--system", str(sys_path), "--x0", "1.0",
                   "--t-final", "1.0", "--dt", "0.001", "--out", str(out))
        assert code == 0
        lines = (out / "trajectory_000.csv").read_text().splitlines()
        assert lines[0].startswith("# generated: ")
        assert lines[1] == "t,x1"
        assert len(lines) == 2 + 1001
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_multiple_initial_conditions(self, tmp_path):
        out = tmp_path / "sim2"
        code = run("simulate", "--zoo", "two-state", "--x0", "0.1,0.1;0,0",
                   "--t-final", "0.5", "--dt", "0.001", "--out", str(out))
        assert code == 0
        assert (out / "trajectory_000.csv").exists()
        assert (out / "trajectory_001.csv").exists()

    def test_requires_initial_conditions(self, tmp_path):
        code = run("simulate", "--zoo", "two-state", "--t-final", "1.0",
                   "--out", str(tmp_path / "x"))
        assert code == 4

    def test_boundary_samples_start_on_shrunk_boundary(self, tmp_path):
        cert_dir = tmp_path / "an"
        assert run("analyze", "--zoo", "two-state", "--eps", "0.4", "--out", str(cert_dir)) == 0
        P = np.array(json.loads((cert_dir / "certificate.json").read_text())["P"])
        out = tmp_path / "sim"
        code = run("simulate", "--zoo", "two-state", "--certificate",
                   str(cert_dir / "certificate.json"), "--boundary-samples", "6",
                   "--seed", "3", "--t-final", "0.01", "--dt", "0.001", "--out", str(out))
        assert code == 0
        for idx in range(6):
            lines = (out / f"trajectory_{idx:03d}.csv").read_text().splitlines()
            first = np.array([float(v) for v in lines[2].split(",")])
            assert first[0] == 0.0
            x0 = first[1:]
            assert x0 @ np.linalg.solve(P, x0) == pytest.approx((1.0 - 1e-6) ** 2, abs=1e-9)

    def test_phase_grid_portrait(self, tmp_path):
        out = tmp_path / "phase"
        assert run("simulate", "--zoo", "two-state", "--x0", "0.1,0.1", "--phase-grid", "3",
                   "--t-final", "0.1", "--dt", "0.001", "--out", str(out)) == 0
        lines = (out / "phase_portrait.csv").read_text().splitlines()
        assert lines[0].startswith("# generated: ")
        assert lines[1] == "traj,t,x1,x2"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        starts = rows[rows[:, 1] == 0.0]
        # one short trajectory from each point of the 3 x 3 grid over [-3, 3]^2
        assert list(starts[:, 0]) == list(range(9))
        axis = np.linspace(-3.0, 3.0, 3)
        assert starts[:, 2:].tolist() == [[a, b] for a in axis for b in axis]


class TestArgumentHandling:
    @pytest.mark.parametrize("command", ["analyze", "synthesize"])
    def test_certification_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "search refinement tolerance" in help_text
        assert "grid union volume (at least 1e4)" in help_text

    def test_unknown_zoo_name(self, tmp_path):
        assert run("analyze", "--zoo", "nope", "--eps", "1.0",
                   "--out", str(tmp_path / "x")) == 4

    def test_bad_eps_spec(self, tmp_path):
        assert run("analyze", "--zoo", "two-state", "--eps", "grid:1:2",
                   "--out", str(tmp_path / "x")) == 4

    def test_no_system_source(self, tmp_path, capsys):
        assert run("analyze", "--eps", "1.0", "--out", str(tmp_path / "x")) == 4
        assert_one_input_error(capsys)

    def test_both_sources_rejected(self, tmp_path):
        assert run("analyze", "--zoo", "two-state", "--system", "f.json",
                   "--eps", "1.0", "--out", str(tmp_path / "x")) == 4

    def test_missing_file(self, tmp_path):
        assert run("analyze", "--system", str(tmp_path / "missing.json"),
                   "--eps", "1.0", "--out", str(tmp_path / "x")) == 4

    def test_model_parameter_the_model_cannot_take(self, tmp_path, capsys):
        # 1/Re overflows: the shear-flow A is infinite, which QBSystem rejects
        out = tmp_path / "x"
        assert run("analyze", "--zoo", "shear-flow-9", "--param", "Re=1e-320",
                   "--eps", "0.01", "--out", str(out)) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "input", "message": "A must be finite"}
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("A", [["x"]]),
        ("A", [[float("nan")]]),
        ("H", {"triplets": [[0, 0, 0, "x"]]}),
        ("H", {"triplets": [[0, 0, 0, float("inf")]]}),
        ("n", 1.5),
        ("n", "1"),
        ("n", True),
        ("m", False),
    ])
    def test_malformed_system_file_is_input_error(self, tmp_path, capsys, field, value):
        doc = system_to_dict(scalar_family(-1.0, 1.0))
        doc[field] = value
        sys_path = tmp_path / "scalar.json"
        sys_path.write_text(json.dumps(doc))
        out = tmp_path / "x"
        assert run("analyze", "--system", str(sys_path), "--eps", "1.0", "--out", str(out)) == 4
        assert_one_input_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("triplets", [
        [[0, 0, 1, 1e308], [0, 1, 0, 1e308]],
        [[0, 0, 1, 1e308], [0, 0, 1, 1e308]],
    ], ids=["mirrored", "repeated"])
    def test_overflowing_h_is_one_input_error(self, tmp_path, capsys, triplets):
        # finite entries whose sum overflows: exit 4 and one stderr line, no
        # RuntimeWarning before it
        doc = {"n": 2, "m": 0, "A": [[-1.0, 0.0], [0.0, -1.0]], "H": {"triplets": triplets}}
        sys_path = tmp_path / "big.json"
        sys_path.write_text(json.dumps(doc))
        out = tmp_path / "x"
        assert run("analyze", "--system", str(sys_path), "--eps", "1.0", "--out", str(out)) == 4
        assert_one_input_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["not_utf8", "directory"])
    def test_unreadable_system_file_is_input_error(self, tmp_path, capsys, kind):
        out = tmp_path / "x"
        assert run("analyze", "--system", str(unreadable_path(tmp_path, kind)),
                   "--eps", "0.3", "--out", str(out)) == 4
        assert_one_input_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("analyze", "--eps", "grid:x:1:3"),
        ("analyze", "--eps", "search:a:1"),
        ("simulate", "--x0", "a,b"),
        ("analyze", "--eps", "0.4", "--max-iters", "0"),
        ("analyze", "--eps", "0.4", "--feas-tol", "0"),
        ("bench", "--eps", "0.4", "--stack", "1", "--max-iters", "0"),
        ("bench", "--eps", "0.4", "--stack", "1", "--feas-tol", "0"),
        ("simulate", "--x0", "0.1,0.1", "--dt", "-0.001"),
        ("simulate", "--x0", "0.1,0.1", "--t-final", "0"),
        ("analyze", "--eps", "grid:0.01:0.8:3", "--union-samples", "100"),
        ("analyze", "--eps", "search:0.1:0.5", "--rel-tol", "0"),
        ("analyze", "--eps", "search:0.1:0.5", "--rel-tol", "1e-16"),
        ("simulate", "--boundary-samples", "-2", "--certificate", "cert.json"),
        ("verify", "--certificate", "cert.json", "--samples", "-5"),
        ("verify", "--certificate", "cert.json", "--seed", "-3"),
        ("verify", "--certificate", "cert.json", "--feas-tol", "1e-8"),
        ("verify", "--certificate", "cert.json", "--gap-tol", "1e-8"),
        ("verify", "--certificate", "cert.json", "--max-iters", "200"),
        ("simulate", "--x0", "0.1,0.1", "--feas-tol", "1e-8"),
        ("simulate", "--x0", "0.1,0.1", "--gap-tol", "1e-8"),
        ("simulate", "--x0", "0.1,0.1", "--max-iters", "200"),
        ("analyze", "--eps", "grid:0.1:0.5:3", "--seed", "-1"),
        ("simulate", "--boundary-samples", "2", "--certificate", "cert.json", "--seed", "-1"),
        ("analyze", "--eps", "nan"),
        ("analyze", "--eps", "inf"),
        ("analyze", "--eps", "grid:0.01:inf:3"),
        ("analyze", "--eps", "0.4", "--alpha", "nan"),
        ("analyze", "--zoo", "scalar", "--param", "a=nan", "--eps", "0.4"),
        ("analyze", "--eps", "0.4", "--feas-tol", "nan"),
        ("analyze", "--eps", "0.4", "--feas-tol", "inf", "--gap-tol", "inf"),
        ("verify", "--certificate", "cert.json", "--t-final", "inf"),
        ("verify", "--certificate", "cert.json", "--dt", "nan"),
        ("simulate", "--x0", "0.1,0.1", "--t-final", "inf"),
        ("simulate", "--x0", "0.1,0.1", "--dt", "nan"),
        ("simulate", "--x0", "0.1,0.1", "--phase-grid", "-1"),
        ("simulate", "--x0", "0.1,0.1", "--phase-extent", "nan"),
        ("analyze", "--eps", "1.0", "--feas-tol", "1e-6"),
        ("analyze", "--zoo", "shear-flow-9", "--param", "Re=-5", "--eps", "0.1"),
        ("analyze", "--param", "Re", "--eps", "0.4"),
        ("analyze", "--eps", "grid:0.5:0.1:3"),
        ("analyze", "--eps", "grid:0.1:0.5:0"),
        ("analyze", "--eps", "grid:0.1:0.5:3:lin"),
        ("analyze", "--eps", "search:0.1"),
        ("analyze", "--eps", "search:0.5:0.1"),
        ("analyze", "--eps", "0"),
        ("bench", "--eps", "0.4", "--stack", "1,a"),
        ("bench", "--eps", "0.4", "--stack", "1,0"),
        ("simulate", "--x0", "0.1"),
        ("simulate", "--x0", ";"),
        ("simulate", "--zoo", "three-state-qb", "--x0", "0.1,0.1,0.1"),
        ("simulate", "--boundary-samples", "3"),
    ])
    def test_bad_values_are_input_errors(self, tmp_path, capsys, monkeypatch, argv):
        # input checks come before any solve
        monkeypatch.setattr("qbstab.certify.solve", None)
        monkeypatch.setattr("qbstab.certify.solve_many", None)
        save_certificate(Certificate(mode="analysis", P=np.eye(2), epsilon=0.4, alpha=0.0),
                         tmp_path / "cert.json")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "x"
        assert run(argv[0], "--zoo", "two-state", *argv[1:], "--out", str(out)) == 4
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "input"
        assert not (out / "summary.json").exists()


    @pytest.mark.parametrize("argv", [
        ("analyze", "--eps", "grid:x:1:3"),
        ("verify", "--certificate", "cert.json", "--dt", "-1"),
        ("simulate", "--x0", "0.1,0.1", "--dt", "0"),
        ("verify", "--certificate", "cert.json", "--samples", "-5"),
        ("verify", "--certificate", "cert.json", "--t-final", "inf"),
        ("verify", "--certificate", "cert.json", "--dt", "nan"),
        ("analyze", "--eps", "nan"),
        ("analyze", "--eps", "1.0", "--feas-tol", "1e-6"),
        ("analyze", "--zoo", "shear-flow-9", "--param", "Re=-5", "--eps", "0.1"),
    ])
    def test_rejected_run_creates_no_output_directory(self, tmp_path, capsys, monkeypatch, argv):
        save_certificate(Certificate(mode="analysis", P=np.eye(2), epsilon=0.4, alpha=0.0),
                         tmp_path / "cert.json")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o1"
        assert run(argv[0], "--zoo", "two-state", *argv[1:], "--out", str(out)) == 4
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "input"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("analyze", "--eps", "0.4"),
        ("verify", "--certificate", "cert.json"),
        ("simulate", "--x0", "0.1,0.1"),
    ])
    def test_uncreatable_output_directory_is_input_error(self, tmp_path, capsys, monkeypatch,
                                                         argv):
        save_certificate(Certificate(mode="analysis", P=np.eye(2), epsilon=0.4, alpha=0.0),
                         tmp_path / "cert.json")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert run(argv[0], "--zoo", "two-state", *argv[1:], "--out", str(out)) == 4
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "input"


def readme_block(heading: str, fence: str) -> str:
    """The first ``fence`` code block after ``heading`` in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(heading, 1)[1].split(f"```{fence}", 1)[1].split("```", 1)[0]


class TestReadmeUsage:
    def test_usage_lines_parse(self):
        # every qbstab line of README's command-line block names real flags
        block = readme_block("## Command line", "sh")
        lines = [line for line in block.splitlines() if line.startswith("qbstab ")]
        assert len(lines) >= 5
        for line in lines:
            args = build_parser().parse_args(shlex.split(line)[1:])
            assert callable(args.fn), line

    def test_library_quick_start_runs(self):
        # README's Python example runs as written
        namespace = {}
        exec(compile(readme_block("## Library quick start", "python"), "README.md", "exec"),
             namespace)
        assert namespace["best"].trace_P == pytest.approx(8.3346, abs=1e-3)
        assert namespace["cert3"].K.shape == (2, 3)
