"""Coordinate charts: connection, curvature, derivatives, rescaling."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom.chart_geometry import (
    Ball,
    Box,
    DomainError,
    MetricChart,
    christoffel,
    conformal_rescale,
    covariant_derivative_endo,
    covariant_derivative_riemann,
    cyclic_bianchi_residual,
    default_probe_points,
    riemann_at,
    second_bianchi_residual,
)
from weylgeom.curvature_algebra import complex_space_form_act, r0
from weylgeom.models import (
    flat_chart,
    fubini_study_chart,
    hyperbolic_chart,
    sphere_chart,
    standard_phi,
)
from weylgeom.tensor_core import InnerProduct, max_abs, orthonormal_frame, transform_tensor


def orthonormal_components(chart, u):
    a, g = riemann_at(chart, u)
    return transform_tensor(a, orthonormal_frame(g)).components


class TestDomains:
    def test_box_contains_with_margin(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert box.contains(np.array([0.9, 0.0]))
        assert not box.contains(np.array([0.9, 0.0]), margin=0.2)
        assert not box.contains(np.array([1.1, 0.0]))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_box_sampling_stays_central(self):
        box = Box(np.array([-1.0]), np.array([1.0]))
        pts = box.interior_sample(50, seed=0)
        assert np.all(np.abs(pts) <= 0.6 + 1e-12)

    def test_ball_contains_stacks_margins(self):
        ball = Ball(1.0, margin=0.1)
        assert ball.contains(np.array([0.85, 0.0]))
        assert not ball.contains(np.array([0.85, 0.0]), margin=0.1)

    def test_ball_sampling_needs_dimension(self):
        with pytest.raises(ValueError):
            Ball(1.0).interior_sample(3, seed=0)
        pts = Ball(1.0).interior_sample(10, seed=0, dim=3)
        assert pts.shape == (10, 3)
        assert np.all(np.linalg.norm(pts, axis=1) <= 0.54 + 1e-12)


class TestMetricChart:
    def setup_method(self):
        self.flat = flat_chart(2)

    def test_metric_validates_point_shape(self):
        with pytest.raises(ValueError):
            self.flat.metric(np.zeros(3))

    def test_metric_rejects_asymmetric_callback(self):
        bad = MetricChart(
            dim=2,
            metric_at=lambda u: np.array([[1.0, 0.5], [0.0, 1.0]]),
            domain=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        )
        with pytest.raises(ValueError, match="symmetric"):
            bad.metric(np.zeros(2))

    def test_metric_flags_indefinite_as_domain_error(self):
        bad = MetricChart(
            dim=2,
            metric_at=lambda u: np.diag([1.0, u[0] - 1.0]),
            domain=Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0])),
        )
        with pytest.raises(DomainError):
            bad.metric(np.zeros(2))

    def test_metric_flags_non_finite_as_domain_error(self):
        bad = MetricChart(
            dim=2,
            metric_at=lambda u: np.full((2, 2), np.nan),
            domain=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        )
        with pytest.raises(DomainError, match="not finite"):
            bad.metric(np.zeros(2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_curvature_flags_non_finite_stencil_values(self):
        # A finite metric whose difference stencils overflow.
        chart = MetricChart(
            dim=3,
            metric_at=lambda u: 1e308 * np.eye(3),
            domain=Box(-np.ones(3), np.ones(3)),
        )
        chart.metric(np.zeros(3))
        with pytest.raises(DomainError, match="curvature is not finite"):
            riemann_at(chart, np.zeros(3))

    def test_analytic_needs_both_derivative_callbacks(self):
        chart = sphere_chart(3, 1.0)
        assert chart.analytic
        assert not dataclasses.replace(chart, d2_metric=None).analytic
        assert not dataclasses.replace(chart, d_metric=None).analytic

    def test_require_interior(self):
        self.flat.require_interior(np.zeros(2), 0.5)
        with pytest.raises(DomainError, match="boundary"):
            self.flat.require_interior(np.array([4.9999, 0.0]), 0.01)

    def test_probe_points_deterministic(self):
        assert_allclose(self.flat.probe_points(6), self.flat.probe_points(6))


class TestChristoffel:
    def test_flat_vanishes(self):
        gam = christoffel(flat_chart(3), np.full(3, 0.1))
        assert np.abs(gam).max() <= 1e-12

    def test_hyperbolic_center_vanishes(self):
        gam = christoffel(hyperbolic_chart(2), np.zeros(2))
        assert np.abs(gam).max() <= 1e-9

    def test_conformally_flat_plane(self):
        # g = exp(u0) * id: the nonzero symbols are +-(1/2) d(u0).
        chart = conformal_rescale(
            flat_chart(2),
            lambda u: np.exp(u[0]),
            d_alpha=lambda u: np.array([np.exp(u[0]), 0.0]),
            d2_alpha=lambda u: np.array([[np.exp(u[0]), 0.0], [0.0, 0.0]]),
        )
        gam = christoffel(chart, np.array([0.3, -0.4]))
        assert_allclose(gam[0, 0, 0], 0.5, atol=1e-9)
        assert_allclose(gam[1, 0, 1], 0.5, atol=1e-9)
        assert_allclose(gam[0, 1, 1], -0.5, atol=1e-9)
        assert_allclose(gam[1, 0, 0], 0.0, atol=1e-9)

    def test_lower_index_symmetry(self):
        gam = christoffel(sphere_chart(3, 1.0), np.full(3, 0.07))
        assert max_abs(gam - np.swapaxes(gam, 1, 2)) <= 1e-9


class TestRiemannAt:
    def test_sphere_matches_generator(self):
        u = np.full(3, 0.05)
        got = orthonormal_components(sphere_chart(3, 1.0), u)
        assert max_abs(got - r0(InnerProduct.euclidean(3)).components) <= 1e-10

    def test_sphere_radius_scaling(self):
        got = orthonormal_components(sphere_chart(3, 2.0), np.full(3, 0.05))
        assert max_abs(got - 0.25 * r0(InnerProduct.euclidean(3)).components) <= 1e-10

    def test_hyperbolic_matches_negative_generator(self):
        got = orthonormal_components(hyperbolic_chart(3), np.full(3, 0.05))
        assert max_abs(got + r0(InnerProduct.euclidean(3)).components) <= 1e-10

    def test_fubini_study_center(self):
        a, g = riemann_at(fubini_study_chart(2), np.zeros(4))
        expect = complex_space_form_act(1.0, 1.0, standard_phi(4))
        assert max_abs(a.components - expect.components) <= 1e-10
        assert g.is_euclidean(tol=1e-12)

    def test_metric_travels_with_tensor(self):
        u = np.full(3, 0.1)
        chart = sphere_chart(3, 1.0)
        a, g = riemann_at(chart, u)
        assert_allclose(g.g, chart.metric(u))
        assert a.metric is g

    def test_finite_difference_mode_agrees(self):
        chart = sphere_chart(3, 1.0)
        fd = dataclasses.replace(chart, d_metric=None, d2_metric=None)
        u = np.full(3, 0.05)
        a_fd, _ = riemann_at(fd, u)
        a_an, _ = riemann_at(chart, u)
        assert max_abs(a_fd.components - a_an.components) <= 1e-7

    def test_near_boundary_rejected(self):
        with pytest.raises(DomainError):
            riemann_at(flat_chart(2), np.array([4.9999999, 0.0]))


class TestCovariantDerivatives:
    def test_flat_curvature_gradient_vanishes(self):
        nr = covariant_derivative_riemann(flat_chart(3), np.full(3, 0.1))
        assert np.abs(nr).max() <= 1e-9

    def test_symmetric_spaces_are_parallel(self):
        # Locally symmetric: nabla R = 0 up to stencil truncation.
        cases = [
            (sphere_chart(3, 1.0), np.full(3, 0.05)),
            (hyperbolic_chart(3), np.full(3, 0.05)),
            (fubini_study_chart(2), np.full(4, 0.05)),
        ]
        for chart, u in cases:
            assert np.abs(covariant_derivative_riemann(chart, u)).max() <= 1e-9

    def test_both_bianchi_residuals_near_zero(self):
        chart = fubini_study_chart(2)
        u = np.full(4, 0.05)
        nr = covariant_derivative_riemann(chart, u)
        assert cyclic_bianchi_residual(nr) <= 1e-9
        assert second_bianchi_residual(chart, u) <= 1e-9

    def test_finite_difference_bianchi_tier(self):
        fd = dataclasses.replace(sphere_chart(3, 1.0), d_metric=None, d2_metric=None)
        assert second_bianchi_residual(fd, np.full(3, 0.05)) <= 1e-4

    def test_corrupted_gradient_fails_cyclic_identity(self):
        nr = covariant_derivative_riemann(sphere_chart(3, 1.0), np.full(3, 0.05)).copy()
        nr[0, 0, 0, 0, 1] += 0.1
        assert cyclic_bianchi_residual(nr) >= 0.09

    def test_constant_endo_on_flat_is_parallel(self):
        val = np.diag([1.0, 2.0, 3.0])
        de = covariant_derivative_endo(flat_chart(3), lambda u: val, np.full(3, 0.1))
        assert np.abs(de).max() == 0.0

    def test_standard_structure_parallel_on_fubini_study(self):
        phi = standard_phi(4).matrix
        de = covariant_derivative_endo(fubini_study_chart(2), lambda u: phi, np.full(4, 0.05))
        assert np.abs(de).max() <= 1e-12


class TestConformalRescale:
    def test_identity_factor_keeps_metric(self):
        chart = conformal_rescale(flat_chart(2), lambda u: 1.0)
        u = np.array([0.3, 0.8])
        assert_allclose(chart.metric(u), np.eye(2))
        assert chart.name.endswith("*alpha")

    def test_constant_factor_keeps_flatness(self):
        chart = conformal_rescale(flat_chart(3), lambda u: 2.5)
        a, g = riemann_at(chart, np.full(3, 0.1))
        assert_allclose(g.g, 2.5 * np.eye(3))
        assert max_abs(a) <= 1e-9

    def test_factor_multiplies_metric(self):
        base = sphere_chart(2, 1.0)
        chart = conformal_rescale(base, lambda u: np.exp(0.3 * u[1]))
        u = np.array([0.2, 0.4])
        assert_allclose(chart.metric(u), np.exp(0.12) * base.metric(u), rtol=1e-12)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError, match="positive"):
            conformal_rescale(flat_chart(2), lambda u: u[0])

    def test_analytic_mode_survives_only_with_derivatives(self):
        base = flat_chart(2)
        assert base.analytic
        plain = conformal_rescale(base, lambda u: np.exp(u[0]))
        assert not plain.analytic
        full = conformal_rescale(
            base,
            lambda u: np.exp(u[0]),
            d_alpha=lambda u: np.array([np.exp(u[0]), 0.0]),
            d2_alpha=lambda u: np.array([[np.exp(u[0]), 0.0], [0.0, 0.0]]),
        )
        assert full.analytic


class TestDefaultProbePoints:
    def test_shape_and_anchor(self):
        pts = default_probe_points(fubini_study_chart(2))
        assert pts.shape == (5, 4)
        assert_allclose(pts[0], np.full(4, 0.05))

    def test_points_admit_curvature_stencils(self):
        for chart in (sphere_chart(3, 1.0), hyperbolic_chart(3), fubini_study_chart(2)):
            for u in default_probe_points(chart, count=4):
                riemann_at(chart, u)

    def test_deterministic(self):
        chart = hyperbolic_chart(4)
        assert_allclose(default_probe_points(chart), default_probe_points(chart))
