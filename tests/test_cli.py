"""Command line front end: config handling, subcommands, exit codes."""

import io
import json

import numpy as np
import pytest

from weylgeom import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestConfigParsing:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"model": {"name": "flat", "params": {"m": 3}}, "bogus": 1})
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_unknown_model_key(self, tmp_path, capsys):
        # Parameters live under params; anything else beside name is noise.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"name": "flat", "m": 3}}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "'m'" in err

    def test_unknown_tolerance_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"name": "flat", "params": {"m": 3}},
                    "tolerances": {"nope": 1.0},
                }
            )
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "nope" in err

    def test_model_and_metric_exclusive(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"name": "flat", "params": {"m": 2}},
                    "metric": {"constant": [[1.0, 0.0], [0.0, 1.0]]},
                }
            )
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2

    def test_neither_model_nor_metric(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2

    def test_sample_floor(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"model": {"name": "flat", "params": {"m": 3}}, "samples": 1})
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2

    def test_unknown_model_name(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "nope:m=3")
        assert code == 2

    def test_point_width_must_match(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--model", "sphere:m=3,r=1.0", "--point", "0.1,0.1"
        )
        assert code == 2

    def test_stdin_config(self, capsys, monkeypatch):
        payload = json.dumps(
            {"model": {"name": "space_form", "params": {"m": 4, "lambda0": 1.0}}}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        doc = run_json(capsys, "analyze", "-")
        assert doc["schema_version"] == 1

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"name": "random", "params": {"seed": 1, "m": 4}},
                    "seed": 5,
                }
            )
        )
        doc = run_json(capsys, "analyze", str(cfg), "--seed", "9")
        assert doc["seed"] == 9


class TestAnalyze:
    def test_algebraic_report_shape(self, capsys):
        doc = run_json(
            capsys, "analyze", "--model", "space_form:m=5,lambda0=1.0"
        )
        assert doc["schema_version"] == 1
        assert doc["command"] == "analyze"
        rec = doc["records"][0]
        assert rec["point"] is None
        assert rec["verdict"]["kind"] == "ConformallyFlat"
        assert abs(rec["scalar_curvature"] - 20.0) < 1e-9

    def test_chart_default_points(self, capsys):
        doc = run_json(capsys, "analyze", "--model", "sphere:m=3,r=1.0")
        assert len(doc["records"]) == 3
        for rec in doc["records"]:
            assert rec["verdict"]["kind"] == "ConformallyFlat"
            assert rec["bianchi_residual"] <= 1e-7

    def test_explicit_points(self, capsys):
        doc = run_json(
            capsys,
            "analyze",
            "--model",
            "fubini_study:n=2",
            "--point",
            "0.05,0.05,0.05,0.05",
            "--point",
            "0.1,0.0,-0.1,0.2",
        )
        assert len(doc["records"]) == 2
        kinds = {r["verdict"]["kind"] for r in doc["records"]}
        assert kinds == {"ConformallyComplexSpaceForm"}
        for rec in doc["records"]:
            assert rec["verdict"]["lambda1"] > 0

    def test_external_metric(self, tmp_path, capsys):
        constant = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"metric": {"constant": constant}, "points": [[0.1, 0.1, 0.1]]})
        )
        doc = run_json(capsys, "analyze", str(cfg))
        assert doc["records"][0]["verdict"]["kind"] == "ConformallyFlat"

    def test_boundary_point_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--model", "flat:m=2", "--point", "4.9999,0.0"
        )
        assert code == 3
        assert "domain error" in err

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "analyze",
            "--model",
            "space_form:m=4,lambda0=1.0",
            "--format",
            "json",
            "--out",
            str(dest),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(dest.read_text())
        assert doc["command"] == "analyze"

    def test_text_and_json_share_values(self, capsys):
        doc = run_json(capsys, "analyze", "--model", "space_form:m=5,lambda0=1.0")
        code, text, _ = run(capsys, "analyze", "--model", "space_form:m=5,lambda0=1.0")
        assert code == 0
        tau = doc["records"][0]["scalar_curvature"]
        assert format(tau, ".17g") in text

    def test_float_precision_survives_roundtrip(self, capsys):
        # Pinned Weyl-part constancy distance; the JSON float must carry
        # enough digits to reproduce it exactly.
        doc = run_json(capsys, "analyze", "--model", "random:seed=7,m=6")
        dist = doc["records"][0]["osserman"]["max_profile_distance"]
        assert dist == pytest.approx(1.2597389410047757, rel=1e-12)


class TestDeterminism:
    def render(self, capsys, monkeypatch, workers):
        monkeypatch.setenv("WEYLGEOM_WORKERS", workers)
        code, out, err = run(
            capsys,
            "analyze",
            "--model",
            "perturbed_flat:m=4,eps=0.1,seed=3",
            "--format",
            "json",
        )
        assert code == 0, err
        return out

    def test_parallel_output_is_byte_identical(self, capsys, monkeypatch):
        serial = self.render(capsys, monkeypatch, "1")
        parallel = self.render(capsys, monkeypatch, "4")
        assert serial == parallel

    def test_repeat_runs_identical(self, capsys):
        a = run(capsys, "analyze", "--model", "random:seed=3,m=5", "--format", "json")
        b = run(capsys, "analyze", "--model", "random:seed=3,m=5", "--format", "json")
        assert a == b

    def test_invalid_worker_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLGEOM_WORKERS", "abc")
        code, _, err = run(capsys, "analyze", "--model", "flat:m=2")
        assert code == 2


class TestVerify:
    def test_projective_chart_passes(self, capsys):
        doc = run_json(capsys, "verify", "--model", "fubini_study:n=2")
        assert doc["summary"]["all_passed"] is True
        assert doc["summary"]["failed"] == 0
        names = {c["name"] for r in doc["records"] for c in r["checks"]}
        assert "second_bianchi" in names
        assert "conformal_invariance" in names
        assert "parallel_structure" in names

    def test_algebraic_model_passes(self, capsys):
        doc = run_json(capsys, "verify", "--model", "random:seed=2,m=5")
        assert doc["summary"]["all_passed"] is True
        names = {c["name"] for r in doc["records"] for c in r["checks"]}
        assert "curvature_symmetries" in names
        assert "decomposition_reconstruction" in names

    def test_corrupted_derivative_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--model", "sphere:m=3,r=1.0", "--debug-corrupt"
        )
        assert code == 1

    def test_corruption_is_surfaced_in_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--model",
            "sphere:m=3,r=1.0",
            "--debug-corrupt",
            "--format",
            "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["all_passed"] is False
        failed = [
            c for r in doc["records"] for c in r["checks"] if not c["passed"]
        ]
        assert failed
        assert any(c["name"] == "second_bianchi_corrupted" for c in failed)


class TestSpectrum:
    def test_constant_rows_for_projective_space(self, capsys):
        doc = run_json(
            capsys, "spectrum", "--model", "fubini_study:n=4", "--samples", "8"
        )
        rows = np.array(doc["records"][0]["spectra"])
        assert rows.shape[1] == 7
        spread = rows.max(axis=0) - rows.min(axis=0)
        assert spread.max() <= 1e-4

    def test_weyl_eigenvalue_ratio(self, capsys):
        doc = run_json(
            capsys, "spectrum", "--model", "fubini_study:n=4", "--samples", "4"
        )
        row = np.sort(np.array(doc["records"][0]["spectra"][0]))
        ratio = row[0] / row[-1]
        assert ratio == pytest.approx(-1.0 / 6.0, rel=1e-3)

    def test_algebraic_spectrum(self, capsys):
        # Rows are conformal (Weyl part) spectra, not full Jacobi spectra.
        doc = run_json(
            capsys,
            "spectrum",
            "--model",
            "complex_space_form:n=4,lambda0=1.0,lambda1=1.0",
            "--samples",
            "4",
        )
        row = np.sort(np.array(doc["records"][0]["spectra"][0]))
        np.testing.assert_allclose(row, [-3.0 / 7.0] * 6 + [18.0 / 7.0], atol=1e-10)


class TestFailureMapping:
    def test_numerical_error_exit_code(self, capsys, monkeypatch):
        def boom(config):
            raise cli.NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "cmd_analyze", boom)
        code, _, err = run(capsys, "analyze", "--model", "flat:m=2")
        assert code == 4
        assert "synthetic failure" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_metric_coefficient_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            '{"metric": {"constant": [[%s, 0, 0], [0, 1, 0], [0, 0, 1]]}}' % value
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "non-finite" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_metric_is_domain_error(self, tmp_path, capsys):
        # Finite coefficients whose difference stencils overflow.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"metric": {"constant": (1e308 * np.eye(3)).tolist()}}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 3
        assert "not finite" in err

    def test_formatter_rejects_non_finite(self):
        with pytest.raises(cli.NumericalError):
            cli._fmt(float("nan"))
        with pytest.raises(cli.NumericalError):
            cli._fmt(float("inf"))
