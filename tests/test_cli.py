import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from qbstab.certify import Certificate, save_certificate
from qbstab.cli import build_parser, main
from qbstab.systems import save_system, stack
from qbstab.verify import convergence_check
from qbstab.models import scalar_family


def run(*argv):
    return main(list(argv))


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
        assert lines[1] == "epsilon,feasible,trace_P"
        assert len(lines) == 2 + 5
        assert (out / "union.json").exists()

    def test_undersampled_union_warns(self, tmp_path, capsys):
        # 20 stacked scalar copies: each ellipsoid fills ~1e-8 of its box,
        # so 10,000 box samples hit nothing
        sys_path = tmp_path / "stacked.json"
        save_system(stack(scalar_family(-1.0, 1.0), 20), sys_path)
        out = tmp_path / "high_n"
        assert run("analyze", "--system", str(sys_path), "--eps", "grid:0.5:0.9:2",
                   "--out", str(out), "--union-samples", "10000") == 0
        union = json.loads((out / "union.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert union["volume_estimate"] == 0.0
        assert union["largest_member_volume"] > 0.0
        assert "n = 20" in union["warning"]
        assert summary["warning"] == union["warning"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"warning": "union_undersampled",
                                      "message": union["warning"]}

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
        assert report["floor_active"] is False and report["relaxed_retry"] is False

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
                           Y=-P, K=np.array([[-1.0]]), trace_P=5e-8)
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
        assert shape["relaxed_retry"] is None  # not recorded in this certificate
        assert report["warnings"]

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


class TestArgumentHandling:
    def test_unknown_zoo_name(self, tmp_path):
        assert run("analyze", "--zoo", "nope", "--eps", "1.0",
                   "--out", str(tmp_path / "x")) == 4

    def test_bad_eps_spec(self, tmp_path):
        assert run("analyze", "--zoo", "two-state", "--eps", "grid:1:2",
                   "--out", str(tmp_path / "x")) == 4

    def test_both_sources_rejected(self, tmp_path):
        assert run("analyze", "--zoo", "two-state", "--system", "f.json",
                   "--eps", "1.0", "--out", str(tmp_path / "x")) == 4

    def test_missing_file(self, tmp_path):
        assert run("analyze", "--system", str(tmp_path / "missing.json"),
                   "--eps", "1.0", "--out", str(tmp_path / "x")) == 4

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
        ("simulate", "--boundary-samples", "-2", "--certificate", "cert.json"),
        ("verify", "--certificate", "cert.json", "--samples", "-5"),
        ("verify", "--certificate", "cert.json", "--seed", "-3"),
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
    ])
    def test_bad_values_are_input_errors(self, tmp_path, capsys, monkeypatch, argv):
        # input checks come before any solve
        monkeypatch.setattr("qbstab.certify.solve", None)
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


class TestReadmeUsage:
    def test_usage_lines_parse(self):
        # every qbstab line of README's command-line block names real flags
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("qbstab ")]
        assert len(lines) >= 5
        for line in lines:
            args = build_parser().parse_args(shlex.split(line)[1:])
            assert callable(args.fn), line
