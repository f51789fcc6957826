"""Release acceptance: thirteen end-to-end criteria.

Each test prints exactly one PASS/FAIL line (run pytest with -s to see
them) so the criteria can be tallied from a log without parsing pytest
output. Tolerances are fixed here on purpose; loosening them is a
release decision, not a test fix.
"""

import contextlib
import dataclasses
import io
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom import cli
from weylgeom.chart_geometry import (
    christoffel,
    conformal_rescale,
    default_probe_points,
    riemann_at,
    second_bianchi_residual,
)
from weylgeom.classifier import (
    VerdictKind,
    classify_act,
    classify_chart,
    parity_consistency,
)
from weylgeom.curvature_algebra import (
    a_phi,
    complex_space_form_act,
    r0,
    random_act,
    weyl_decompose,
)
from weylgeom.models import (
    complex_hyperbolic_chart,
    flat_chart,
    fubini_study_chart,
    hyperbolic_chart,
    perturbed_flat_chart,
    polynomial_metric_chart,
    sphere_chart,
    standard_phi,
)
from weylgeom.spectral import SpectralProfile, osserman_test, trace_check
from weylgeom.tensor_core import (
    CurvatureTensor,
    InnerProduct,
    max_abs,
    orthonormal_frame,
    transform_tensor,
)

TRACE_TOL_ALGEBRAIC = 1e-9
TRACE_TOL_CHART = 1e-5
CONFORMAL_TOL = 1e-5
RATIO_TOL = 1e-4
FLAT_WEYL_TOL = 1e-5
CONSTANCY_TOL_ALGEBRAIC = 1e-10
CONSTANCY_TOL_CHART = 1e-4
CHART_SPEC_TOL = 1e-4
RECOVERY_STRUCTURE_TOL = 1e-8
RECOVERY_MATCH_TOL = 1e-7
BIANCHI_TOL_FD = 1e-4
BIANCHI_TOL_ANALYTIC = 1e-7
KAHLER_TOL = 1e-3
ORACLE_TOL_FD = 1e-5
ORACLE_TOL_ANALYTIC = 1e-9

PINNED_NEGATIVE_CONTROL_DISTANCE = 0.033589896281500942


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {label}")
        raise
    print(f"criterion {num:02d}: PASS  {label}")


def chart_weyl(chart, u):
    """Weyl part of the chart curvature, pulled to an orthonormal frame."""
    a, g = riemann_at(chart, u)
    a = transform_tensor(a, orthonormal_frame(g))
    return weyl_decompose(a).w


def weyl13(chart, u):
    """(1,3) Weyl components in chart coordinates."""
    a, g = riemann_at(chart, u)
    w = weyl_decompose(a).w.components
    return np.einsum("ia,ajkl->ijkl", np.linalg.inv(g.g), w)


def all_chart_models():
    return [
        flat_chart(4),
        sphere_chart(4, 1.0),
        hyperbolic_chart(4),
        fubini_study_chart(2),
        fubini_study_chart(3),
        fubini_study_chart(4),
        complex_hyperbolic_chart(2),
        perturbed_flat_chart(6, 0.1, 42),
    ]


def test_criterion_01_trace_free_conformal_jacobi():
    with criterion(1, "trace-free conformal Jacobi over all directions"):
        for chart in all_chart_models():
            u = default_probe_points(chart, count=1)[0]
            w = chart_weyl(chart, u)
            assert trace_check(w) <= TRACE_TOL_CHART, chart.name
        algebraic = [
            CurvatureTensor(2.0 * r0(InnerProduct.euclidean(4)).components,
                            InnerProduct.euclidean(4)),
            complex_space_form_act(1.0, 1.0, standard_phi(4)),
            complex_space_form_act(1.0, 1.0, standard_phi(6)),
            complex_space_form_act(1.0, 1.0, standard_phi(8)),
            complex_space_form_act(-1.0, -1.0, standard_phi(4)),
            random_act(42, 6),
        ]
        for act in algebraic:
            w = weyl_decompose(act).w
            assert trace_check(w) <= TRACE_TOL_ALGEBRAIC


def test_criterion_02_conformal_invariance():
    with criterion(2, "Weyl (1,3) invariance under metric rescaling"):
        alpha = lambda u: float(np.exp(0.3 * u[0]))
        for chart in (flat_chart(4), sphere_chart(4, 1.0), fubini_study_chart(2)):
            rescaled = conformal_rescale(chart, alpha)  # finite difference mode
            u = default_probe_points(chart, count=1)[0]
            dev = max_abs(weyl13(chart, u) - weyl13(rescaled, u))
            assert dev <= CONFORMAL_TOL, (chart.name, dev)


def test_criterion_03_projective_space_m8_classification():
    with criterion(3, "m=8 projective chart: structural verdict and spectrum"):
        fs = fubini_study_chart(4)
        rep = classify_chart(fs, default_probe_points(fs, count=1))
        v = rep.verdicts[0]
        assert v.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert v.lambda1 > 0
        assert abs(v.lambda0 / v.lambda1 + 3.0 / 7.0) <= RATIO_TOL
        assert v.profile.multiplicities == (6, 1)
        low, high = v.profile.values
        assert abs(low - (-3.0 / 7.0) * v.lambda1) <= RATIO_TOL * abs(v.lambda1)
        assert abs(high - (18.0 / 7.0) * v.lambda1) <= RATIO_TOL * abs(v.lambda1)


def test_criterion_04_hyperbolic_analogue_signs_and_caveat():
    with criterion(4, "negative-sign family: caveat at m=4, clean at m=8"):
        small = complex_hyperbolic_chart(2)
        v4 = classify_chart(small, default_probe_points(small, count=1)).verdicts[0]
        assert v4.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert v4.lambda1 < 0
        assert any("m=4" in w for w in v4.warnings)
        big = complex_hyperbolic_chart(4)
        v8 = classify_chart(big, default_probe_points(big, count=1)).verdicts[0]
        assert v8.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert v8.lambda1 < 0
        assert v8.warnings == ()


def test_criterion_05_space_forms_conformally_flat():
    with criterion(5, "space form charts: vanishing Weyl, flat verdict"):
        for chart in (sphere_chart(4, 1.0), hyperbolic_chart(4)):
            pts = default_probe_points(chart, count=5)
            rep = classify_chart(chart, pts)
            assert len(rep.verdicts) == 5
            for v in rep.verdicts:
                assert v.kind is VerdictKind.CONFORMALLY_FLAT, chart.name
                assert v.diagnostics["weyl_max"] <= FLAT_WEYL_TOL


def test_criterion_06_osserman_constancy_projective_family():
    with criterion(6, "reduced spectra constant over directions"):
        for n in (2, 3, 4):
            act = complex_space_form_act(1.0, 1.0, standard_phi(2 * n))
            w = weyl_decompose(act).w
            rep = osserman_test(w, samples=64)
            assert rep.max_profile_distance <= CONSTANCY_TOL_ALGEBRAIC, n
            chart = fubini_study_chart(n)
            u = default_probe_points(chart, count=1)[0]
            repc = osserman_test(chart_weyl(chart, u), samples=64)
            assert repc.max_profile_distance <= CONSTANCY_TOL_CHART, n


def test_criterion_07_negative_control_pinned():
    with criterion(7, "perturbed flat control rejected, distance pinned"):
        chart = perturbed_flat_chart(6, 0.1, 42)
        pts = default_probe_points(chart, count=5)
        rep = classify_chart(chart, pts)
        for v in rep.verdicts:
            assert v.kind is VerdictKind.NOT_CONFORMALLY_OSSERMAN
            assert v.diagnostics["osserman_distance"] > 10.0 * CHART_SPEC_TOL
        first = rep.verdicts[0].diagnostics["osserman_distance"]
        assert first == pytest.approx(PINNED_NEGATIVE_CONTROL_DISTANCE, rel=1e-8)


def test_criterion_08_structure_recovery_roundtrip():
    with criterion(8, "Hermitian structure recovery for random conjugates"):
        for m in (6, 8, 10):
            g = InnerProduct.euclidean(m)
            base = standard_phi(m).matrix
            lambda1 = 1.0
            lambda0 = -3.0 * lambda1 / (m - 1)
            rng = np.random.default_rng(m)
            for _ in range(20):
                q, _r = np.linalg.qr(rng.standard_normal((m, m)))
                phi = q.T @ base @ q
                w = CurvatureTensor(
                    lambda0 * r0(g).components + lambda1 * a_phi(phi, g).components, g
                )
                v = classify_act(w)
                assert v.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
                res = v.phi.residuals()
                assert res["square"] <= RECOVERY_STRUCTURE_TOL
                assert res["skew"] <= RECOVERY_STRUCTURE_TOL
                got = v.phi.matrix
                assert min(max_abs(got - phi), max_abs(got + phi)) <= RECOVERY_MATCH_TOL
                model = (
                    v.lambda0 * r0(g).components
                    + v.lambda1 * a_phi(v.phi, g).components
                )
                assert max_abs(w.components - model) <= RECOVERY_STRUCTURE_TOL * w.max_abs()


def test_criterion_09_second_bianchi_everywhere():
    with criterion(9, "second Bianchi residual on every chart model"):
        charts = all_chart_models() + [
            polynomial_metric_chart(
                np.eye(3),
                quadratic=0.05 * np.einsum("ab,ij->abij", np.eye(3), np.eye(3)),
            )
        ]
        for chart in charts:
            tol = BIANCHI_TOL_ANALYTIC if chart.analytic else BIANCHI_TOL_FD
            for u in default_probe_points(chart, count=5):
                assert second_bianchi_residual(chart, u) <= tol, chart.name
        # Finite difference tier, exercised via a derivative-free variant.
        fd = dataclasses.replace(sphere_chart(4, 1.0), d_metric=None, d2_metric=None)
        for u in default_probe_points(fd, count=5):
            assert second_bianchi_residual(fd, u) <= BIANCHI_TOL_FD


def test_criterion_10_parallel_structure():
    with criterion(10, "structure field parallel on the projective chart"):
        chart = fubini_study_chart(2)
        phi = standard_phi(4).matrix
        for u in default_probe_points(chart, count=3):
            # Phi is constant in the chart, so nabla_a Phi = [Gamma_a, Phi].
            ga = np.moveaxis(christoffel(chart, u), 1, 0)
            nabla = ga @ phi - phi @ ga
            assert np.abs(nabla).max() <= KAHLER_TOL
            for n in range(chart.dim):
                anti = nabla[n] @ phi + phi @ nabla[n]
                assert max_abs(anti) <= KAHLER_TOL


def test_criterion_11_parity_consistency():
    with criterion(11, "multiplicity parity laws and corrupted profiles"):
        v10 = classify_act(complex_space_form_act(1.0, 1.0, standard_phi(10)))
        assert v10.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert v10.profile.multiplicities == (8, 1)
        assert parity_consistency(10, v10.profile, v10) == []
        for m in (5, 7):
            g = InnerProduct.euclidean(m)
            v = classify_act(CurvatureTensor(3.0 * r0(g).components, g))
            assert v.kind is VerdictKind.CONFORMALLY_FLAT
            assert v.profile.clusters == ((0.0, m - 1),)
        # Hand-corrupted profiles must trip the warnings.
        two_clusters = SpectralProfile(((-0.4, 5), (2.0, 1)), 0.0, dim=7)
        assert parity_consistency(7, two_clusters, v10)
        no_simple = SpectralProfile(((-0.3, 7), (1.0, 2)), 0.0, dim=10)
        assert parity_consistency(10, no_simple, v10)


def test_criterion_12_chart_versus_algebra_oracles():
    with criterion(12, "chart curvature matches closed-form generators"):
        e3 = r0(InnerProduct.euclidean(3)).components
        e4 = r0(InnerProduct.euclidean(4)).components
        cases = [
            (sphere_chart(3, 1.0), np.full(3, 0.05), e3),
            (sphere_chart(4, 1.0), np.full(4, 0.05), e4),
            (hyperbolic_chart(3), np.full(3, 0.05), -e3),
            (
                fubini_study_chart(2),
                np.zeros(4),
                complex_space_form_act(1.0, 1.0, standard_phi(4)).components,
            ),
        ]
        for chart, u, oracle in cases:
            a, g = riemann_at(chart, u)
            got = transform_tensor(a, orthonormal_frame(g)).components
            assert max_abs(got - oracle) <= ORACLE_TOL_ANALYTIC, chart.name
            fd = dataclasses.replace(chart, d_metric=None, d2_metric=None)
            a2, g2 = riemann_at(fd, u)
            got2 = transform_tensor(a2, orthonormal_frame(g2)).components
            assert max_abs(got2 - oracle) <= ORACLE_TOL_FD, chart.name


def test_criterion_13_byte_identical_reports(tmp_path):
    with criterion(13, "reports byte-identical across runs"):
        def render(run):
            out = tmp_path / f"report-{run}.json"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(
                    [
                        "analyze",
                        "--model",
                        "perturbed_flat:m=4,eps=0.1,seed=3",
                        "--seed",
                        "11",
                        "--format",
                        "json",
                        "--out",
                        str(out),
                    ]
                )
            assert code == 0
            return out.read_bytes()

        first = render(1)
        assert first == render(2)
        doc = json.loads(first)
        assert doc["schema_version"] == 1
        assert doc["seed"] == 11
