"""Command line front end: config handling, subcommands, exit codes."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from weylgeom import chart_geometry, cli, tiers
from weylgeom.models import ModelSpec, build_model, standard_phi
from weylgeom.tensor_core import max_abs

from test_chart_geometry import counted_chart


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

    @pytest.mark.parametrize("key", ["nope", "degeneracy_tol"])
    def test_unknown_tolerance_key(self, tmp_path, capsys, key):
        # degeneracy_tol is a removed key; a config still carrying it fails.
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"name": "flat", "params": {"m": 3}},
                    "tolerances": {key: 1e-3},
                }
            )
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert key in err

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

    @pytest.mark.parametrize("samples", [1, tiers.MAX_SAMPLES + 1, 10**13])
    def test_sample_bounds(self, tmp_path, capsys, samples):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"model": {"name": "sphere", "params": {"m": 4}}, "samples": samples})
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert f"samples must be 2 to {tiers.MAX_SAMPLES}" in err

    def test_sample_flag_above_the_bound(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "--model", "space_form:m=4", "--samples", str(10**13)
        )
        assert code == 2
        assert f"samples must be 2 to {tiers.MAX_SAMPLES}" in err

    def test_unknown_model_name(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "nope:m=3")
        assert code == 2

    def test_point_width_must_match(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--model", "sphere:m=3,r=1.0", "--point", "0.1,0.1"
        )
        assert code == 2

    def test_unequal_point_flags(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--model", "sphere:m=3", "--point", "0.1,0.2", "--point", "0.1"
        )
        assert code == 2
        assert "coordinates" in err

    def test_unequal_config_points(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {"model": {"name": "sphere", "params": {"m": 3}}, "points": [[0.1, 0.2, 0.1], [0.1]]}
            )
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "coordinates" in err

    @pytest.mark.parametrize(
        "model",
        [
            {"name": "fubini_study", "params": {"n": 2}},
            {"name": "random", "params": {"seed": 1, "m": 4}},
        ],
    )
    def test_empty_point_list(self, tmp_path, capsys, model):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": model, "points": []}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "non-empty" in err

    def test_scalar_constant_flag(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "polynomial:constant=1")
        assert code == 2
        assert "square" in err

    def test_scalar_constant_metric(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"metric": {"constant": 5}}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "square" in err

    @pytest.mark.parametrize("model", ["flat:m=2", "complex_space_form:n=1", "random:seed=1,m=2"])
    def test_dimension_below_three(self, capsys, model):
        code, _, err = run(capsys, "analyze", "--model", model)
        assert code == 2
        assert "dimension 2" in err

    def test_one_dimensional_metric(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"metric": {"constant": [[1]]}}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "dimension 1" in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "spectrum"])
    def test_dimension_above_the_guard(self, capsys, command):
        code, _, err = run(capsys, command, "--model", "space_form:m=33")
        assert code == 2
        assert "dimension 33" in err

    @pytest.mark.parametrize("model", ["sphere:m=1000000000", "fubini_study:n=500000000"])
    def test_huge_dimension_is_refused_before_the_build(self, capsys, monkeypatch, model):
        def never(spec):
            raise AssertionError(f"built {spec}")

        monkeypatch.setattr(cli, "build_model", never)
        code, _, err = run(capsys, "analyze", "--model", model)
        assert code == 2
        assert "dimension 1000000000" in err

    def test_metric_dimension_above_the_guard(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"metric": {"constant": np.eye(33).tolist()}}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "dimension 33" in err

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

    @pytest.mark.parametrize("extent", ["0.4", 1])
    def test_external_metric_extent(self, tmp_path, capsys, extent):
        # The metric key holds the polynomial model's parameters; its
        # extent is anything float() takes, echoed as given.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"metric": {"constant": np.eye(3).tolist(), "extent": extent}}))
        doc = run_json(capsys, "analyze", str(cfg))
        assert doc["model_name"] == "polynomial"
        assert doc["config"]["metric"]["extent"] == extent
        points = np.array([rec["point"] for rec in doc["records"]])
        assert 0.1 * float(extent) < np.abs(points).max() < float(extent)

    def test_rejected_external_metric(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        metric = {"constant": np.eye(3).tolist(), "linear": np.zeros((2, 3, 3)).tolist()}
        cfg.write_text(json.dumps({"metric": metric}))
        code, out, err = run(capsys, "analyze", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("config error: bad external metric: coefficient array shapes")

    def test_boundary_point_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--model", "flat:m=3", "--point", "4.9999,0.0,0.0"
        )
        assert code == 3
        assert "domain error" in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_collapsed_stencil_is_domain_error(self, capsys, command):
        # u +- step3 / 2 rounds onto u = 0.05: every nabla R stencil value
        # is the centre's, and a difference of them is rounding noise.
        code, _, err = run(capsys, command, "--model", "fubini_study:n=2", "--fd-step", "1e-300")
        assert code == 3
        assert "domain error: difference step 3e-300 vanishes at u=[0.05" in err

    def test_small_step_reports_its_residual(self, capsys):
        # A half step of about 22 ulps of u still moves every stencil
        # point: the residual is roundoff over the step, 0.08 to 0.8
        # measured, and is reported as it is.
        doc = run_json(capsys, "analyze", "--model", "fubini_study:n=2", "--fd-step", "1e-16")
        residuals = [rec["bianchi_residual"] for rec in doc["records"]]
        assert all(1e-3 < r < 10.0 for r in residuals)

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
    def render(self, capsys):
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

    def test_chart_repeat_runs_identical(self, capsys):
        assert self.render(capsys) == self.render(capsys)

    def test_repeat_runs_identical(self, capsys):
        a = run(capsys, "analyze", "--model", "random:seed=3,m=5", "--format", "json")
        b = run(capsys, "analyze", "--model", "random:seed=3,m=5", "--format", "json")
        assert a == b



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

    @pytest.mark.parametrize("name", ["fubini_study", "complex_hyperbolic"])
    def test_structure_residuals_are_the_christoffel_commutator(self, capsys, name):
        # Phi is constant in the chart, so nabla_a Phi = [Gamma_a, Phi], with
        # Gamma from christoffel: bit for bit the reported residual, and
        # roundoff on these Kähler charts.
        doc = run_json(capsys, "verify", "--model", f"{name}:n=2")
        chart = build_model(ModelSpec(name, {"n": 2}))
        phi = standard_phi(4).matrix
        for rec in doc["records"]:
            ga = np.moveaxis(chart_geometry.christoffel(chart, np.array(rec["point"])), 1, 0)
            nabla = ga @ phi - phi @ ga
            checks = {c["name"]: c["residual"] for c in rec["checks"]}
            assert checks["parallel_structure"] == max_abs(nabla) <= 1e-12

    @pytest.mark.parametrize("lam", ["1e6", "1e9"])
    def test_trace_tier_scales_with_the_tensor(self, capsys, lam):
        doc = run_json(
            capsys, "verify", "--model", f"complex_space_form:n=4,lambda0={lam},lambda1={lam}"
        )
        assert doc["summary"]["all_passed"] is True

    @pytest.mark.parametrize(
        "model", ["complex_space_form:n=4,lambda0=1e6,lambda1=1e6", "fubini_study:n=2"]
    )
    def test_trace_check_fires_on_the_full_tensor(self, capsys, monkeypatch, model):
        # R in place of W: its Jacobi trace is the Ricci form, far above
        # the scaled tier.
        decompose = cli.orthonormal_decomposition

        def full_tensor(a):
            dec = decompose(a)
            return replace(dec, w=dec.r)

        monkeypatch.setattr(cli, "orthonormal_decomposition", full_tensor)
        code, out, _ = run(capsys, "verify", "--model", model, "--format", "json")
        assert code == 1
        for rec in json.loads(out)["records"]:
            trace = next(c for c in rec["checks"] if c["name"] == "trace_free_jacobi")
            assert not trace["passed"]

    def test_bianchi_check_fires_on_a_corrupted_derivative(self, capsys, monkeypatch):
        # One entry of nabla R off by 0.1 breaks the cyclic sum at every
        # point: nabla_2 R over the pair (0, 1) twice, which the triple
        # (0, 1, 2) reads.
        inner = chart_geometry.riemann_with_derivative

        def corrupted(chart, u):
            r, nabla_r, gamma = inner(chart, u)
            nabla_r[2, 0, 0] += 0.1
            return r, nabla_r, gamma

        monkeypatch.setattr(cli, "riemann_with_derivative", corrupted)
        argv = ("verify", "--model", "sphere:m=3,r=1.0")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["all_passed"] is False
        for rec in doc["records"]:
            bianchi = next(c for c in rec["checks"] if c["name"] == "second_bianchi")
            assert not bianchi["passed"]
        code, text, _ = run(capsys, *argv)
        assert code == 1
        assert "FAIL  second_bianchi" in text

    def test_debug_corrupt_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--model", "sphere:m=3,r=1.0", "--debug-corrupt"])
        assert exc.value.code == 2
        assert "--debug-corrupt" in capsys.readouterr().err


class TestChartPointCurvature:
    @pytest.mark.parametrize("command, counts", [("analyze", (3, 3, 3)), ("verify", (12, 9, 6))])
    def test_one_curvature_pass_per_point(self, capsys, monkeypatch, command, counts):
        # metric_at / d_metric / d2_metric calls for the three default
        # points of fubini_study:n=2: one stacked call each per point for R
        # and nabla R together (6 per point before R was taken from nabla
        # R's pass); verify adds the rescaled chart's curvature, 3/2/1
        # calls of the base callbacks.  The structure checks read the
        # Christoffel symbols of that same pass and call nothing more.
        seen = []
        build = cli.build_model

        def counted_model(spec):
            chart, calls = counted_chart(build(spec))
            seen.append(calls)
            return chart

        monkeypatch.setattr(cli, "build_model", counted_model)
        run_json(capsys, command, "--model", "fubini_study:n=2")
        assert [tuple(calls.values()) for calls in seen] == [counts]


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

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, command):
        # Exit 1 would read as a failed verify check.
        dest = tmp_path / "missing_dir" / "x.json"
        code, out, err = run(capsys, command, "--model", "sphere:m=3", "--out", str(dest))
        assert code == 2
        assert out == ""
        assert f"cannot write report to {str(dest)!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_metric_coefficient_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            '{"metric": {"constant": [[%s, 0, 0], [0, 1, 0], [0, 0, 1]]}}' % value
        )
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "non-finite" in err

    @pytest.mark.parametrize(
        "entry, named",
        [
            ('"points": [[0.1, BIG, 0.1]]', "point coordinate"),
            ('"tolerances": {"fd_step": BIG}', "fd_step"),
            ('"tolerances": {"spec_tol": BIG}', "spec_tol"),
            ('"tolerances": {"cluster_tol": BIG}', "cluster_tol"),
            ('"metric": {"constant": [[BIG, 0, 0], [0, 1, 0], [0, 0, 1]]}', "metric constant"),
            ('"seed": ' + "1" * 4301, "config is not valid JSON"),
        ],
        ids=["point", "fd_step", "spec_tol", "cluster_tol", "metric", "past_int_digit_limit"],
    )
    def test_integer_beyond_the_float_range_is_config_error(self, tmp_path, capsys, entry, named):
        # Exit 1 would read as a failed verify check.
        text = entry.replace("BIG", "1" * 401)
        if "metric" not in entry:
            text = '"model": {"name": "sphere", "params": {"m": 3}}, ' + text
        cfg = tmp_path / "c.json"
        cfg.write_text("{%s}" % text)
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert named in err

    @pytest.mark.parametrize(
        "params",
        [
            '{"constant": [[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            '{"constant": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "linear": [[[NaN, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]}',
            '{"constant": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "extent": Infinity}',
        ],
        ids=["nan_constant", "nan_linear", "infinite_extent"],
    )
    def test_non_finite_polynomial_model_param_is_config_error(self, tmp_path, capsys, params):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"model": {"name": "polynomial", "params": %s}}' % params)
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "non-finite" in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "spectrum"])
    @pytest.mark.parametrize("model", ["space_form:m=4", "sphere:m=4"])
    def test_negative_seed_flag_is_config_error(self, capsys, command, model):
        code, out, err = run(capsys, command, "--model", model, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be non-negative" in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "spectrum"])
    def test_negative_seed_in_config_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"name": "sphere", "params": {"m": 4}}, "seed": -3}))
        code, _, err = run(capsys, command, str(cfg))
        assert code == 2
        assert "seed must be non-negative" in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "spectrum"])
    @pytest.mark.parametrize(
        "model",
        [
            "space_form:m=4,lambda0=nan",
            "complex_space_form:n=2,lambda1=nan",
            "sphere:m=4,r=nan",
            "sphere:m=4,r=inf",
            "sphere:m=4,r=-inf",
            "perturbed_flat:m=4,eps=nan,seed=1",
        ],
    )
    def test_non_finite_model_param_flag_is_config_error(self, capsys, command, model):
        code, _, err = run(capsys, command, "--model", model)
        assert code == 2
        assert "must be finite" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_model_param_in_config_is_config_error(self, tmp_path, capsys, value):
        # json.loads accepts these non-standard constants.
        cfg = tmp_path / "c.json"
        cfg.write_text('{"model": {"name": "sphere", "params": {"m": 4, "r": %s}}}' % value)
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "model parameter r must be finite" in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "spectrum"])
    def test_overflowing_model_param_is_config_error(self, capsys, command):
        # The sphere chart builds 4 r^4, which overflows a float at r = 1e200.
        code, _, err = run(capsys, command, "--model", "sphere:m=3,r=1e200")
        assert code == 2
        assert "bad model" in err

    @pytest.mark.parametrize(
        "model, missing",
        [("perturbed_flat:m=6", "['eps', 'seed']"), ("random:m=8", "['seed']"), ("flat", "['m']")],
    )
    def test_missing_model_param_is_named(self, capsys, model, missing):
        code, _, err = run(capsys, "analyze", "--model", model)
        assert code == 2
        name = model.split(":")[0]
        assert f"bad model: model {name!r} is missing parameters {missing}" in err

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
