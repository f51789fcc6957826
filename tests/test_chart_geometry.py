"""Coordinate charts: connection, curvature, derivatives, rescaling."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom import chart_geometry
from weylgeom.chart_geometry import (
    Ball,
    Box,
    DomainError,
    MetricChart,
    _christoffel_derivative,
    _christoffel_from,
    _curvature,
    _metric_jet,
    christoffel,
    conformal_rescale,
    cyclic_bianchi_residual,
    default_probe_points,
    riemann_at,
    riemann_with_derivative,
    second_bianchi_residual,
)
from weylgeom.classifier import classify_chart
from weylgeom.curvature_algebra import complex_space_form_act, r0
from weylgeom.models import (
    complex_hyperbolic_chart,
    flat_chart,
    fubini_study_chart,
    hyperbolic_chart,
    perturbed_flat_chart,
    sphere_chart,
    standard_phi,
)
from weylgeom.tensor_core import InnerProduct, max_abs, orthonormal_frame, transform_tensor


CHART_FAMILIES = {
    "sphere": lambda m: sphere_chart(m, 1.0),
    "hyperbolic": hyperbolic_chart,
    "perturbed_flat": lambda m: perturbed_flat_chart(m, 0.1, seed=3),
    "fubini_study": lambda m: fubini_study_chart(m // 2),
    "complex_hyperbolic": lambda m: complex_hyperbolic_chart(m // 2),
}


# The seeded Ball probe points of default_probe_points(chart, 3, seed=1)
# after the fixed first point, for Ball(1.0, margin=0.1) charts by
# dimension, as the direction-times-radius sampler draws them.
PINNED_BALL_POINTS = {
    8: [
        [
            0.0704401452163631, 0.16746975894594898, 0.06735272088737414,
            -0.2656214802115612, 0.18453795105588974, 0.09098416657992978,
            -0.1094467418986684, 0.11844883124681499
        ],
        [
            0.13561849121572844, 0.10941532006054071, 0.0105728835329879,
            0.2033735717461777, -0.27395599111087476, -0.06060141026029341,
            -0.17934515738336615, 0.22276678288695778
        ],
    ],
    16: [
        [
            0.07545882251827737, 0.17940154408633296, 0.07215142722878455,
            -0.2845463204364641, 0.19768580053094764, 0.09746655201859876,
            -0.11724453785221395, 0.12688800267371564, 0.0796049251399523,
            0.06422426827274065, 0.0062060386796231, 0.11937559405926797,
            -0.1608058456374672, -0.03557162953149496, -0.10527146924976313,
            0.1307589615281581
        ],
        [
            0.004598039565394675, -0.03385338284795589, -0.09050995212410913,
            -0.02977133322606589, 0.0009424995435908218, -0.031902462966985075,
            0.14979458533251017, 0.11653355087864481, -0.31383109147104066,
            -0.21866306183589285, -0.020230774375893518, -0.04887072563948612,
            0.02473028289905584, 0.025156138498721618, 0.24515079904426607,
            -0.12872215973838663
        ],
    ],
}


def counted_chart(chart):
    """The chart with each supplied callback wrapped to count its calls."""
    calls = {"metric_at": 0, "d_metric": 0, "d2_metric": 0}

    def counting(name):
        inner = getattr(chart, name)

        def wrapped(u):
            calls[name] += 1
            return inner(u)

        return wrapped

    hooks = {name: counting(name) for name in calls if getattr(chart, name) is not None}
    return dataclasses.replace(chart, **hooks), calls


def per_slot_nabla_r(chart, u):
    """nabla R [i, j, k, l, n] the long way: central differences of the
    projected curvature at each stencil point, then one Christoffel
    correction per tensor slot."""
    k = 0.5 * chart.step3

    def comps(v):
        return riemann_at(chart, v)[0].components

    dr = []
    for n in range(chart.dim):
        e = np.zeros(chart.dim)
        e[n] = k
        dr.append(
            (-comps(u + 2 * e) + 8 * comps(u + e) - 8 * comps(u - e) + comps(u - 2 * e)) / (12 * k)
        )
    rc = comps(u)
    gamma = christoffel(chart, u)
    out = np.moveaxis(np.array(dr), 0, -1)
    for slot in range(4):
        out = out - np.moveaxis(np.tensordot(rc, gamma, axes=([slot], [0])), -1, slot)
    return out, rc


def jet_partial_r(chart, u):
    """d_n R [n, i, j, k, l] by the product rule at u: third derivatives
    from central differences of d2g along the nabla R stencil, the
    derivatives of both Christoffel kinds from u's own g, dg and d2g."""
    k = 0.5 * chart.step3

    def d2(v):
        return _metric_jet(chart, v[None])[2][0]

    d3g = np.array(
        [(-d2(u + 2 * e) + 8 * d2(u + e) - 8 * d2(u - e) + d2(u - 2 * e)) / (12 * k)
         for e in np.eye(chart.dim) * k]
    )
    g, dg, d2g = (a[0] for a in _metric_jet(chart, u[None]))
    gamma = christoffel(chart, u)
    first = np.einsum("ls,sij->lij", g, gamma)
    # d_n Gamma_{l,ij} = (1/2) (d_n d_i g_jl + d_n d_j g_il - d_n d_l g_ij).
    d_first = 0.5 * (
        np.einsum("nijl->nlij", d2g) + np.einsum("njil->nlij", d2g) - np.einsum("nlij->nlij", d2g)
    )
    d_gamma = np.einsum("kl,nlij->nkij", np.linalg.inv(g), d_first - np.einsum(
        "nls,sij->nlij", dg, gamma))
    # L_ijkl = (1/2) d_i S_jkl - Gamma_{s,il} Gamma^s_jk and R = L - L with i, j swapped.
    d_s = d3g + np.einsum("nikjl->nijkl", d3g) - np.einsum("niljk->nijkl", d3g)
    d_l = 0.5 * d_s - np.einsum("nsil,sjk->nijkl", d_first, gamma) - np.einsum(
        "sil,nsjk->nijkl", first, d_gamma)
    return d_l - np.swapaxes(d_l, 1, 2)


def einsum_cyclic_residual(nabla_r):
    return max_abs(
        np.einsum("bckla->abckl", nabla_r)
        + np.einsum("caklb->abckl", nabla_r)
        + np.einsum("abklc->abckl", nabla_r)
    )


def traced_peak(f, *args):
    """tracemalloc's peak in bytes over a call of f, after a warm call."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("dim", [4, 6, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ball_sampling_keeps_draw_order(self, dim, seed):
        # Oracle: all Gaussian directions, then all radii, one point each.
        ball = Ball(1.0, margin=0.1)
        rng = np.random.default_rng(seed)
        limit = 0.6 * 0.9
        v = rng.standard_normal((5, dim))
        r = limit * rng.uniform(size=5) ** (1.0 / dim)
        expected = [v[i] * (r[i] / np.sqrt(v[i] @ v[i])) for i in range(5)]
        assert np.array_equal(ball.interior_sample(5, seed, dim=dim), np.array(expected))

    def test_ball_probe_points_at_m24(self):
        # Rejection from the cube never finished here; the points lie in
        # the sampling ball and come back bit for bit from the seed.
        chart = hyperbolic_chart(24)
        points = default_probe_points(chart, 3, seed=1)
        assert points.shape == (3, 24)
        assert np.all(np.linalg.norm(points[1:], axis=1) <= 0.6 * 0.9 * (1 + 1e-15))
        assert np.array_equal(default_probe_points(chart, 3, seed=1), points)
        assert not np.array_equal(default_probe_points(chart, 3, seed=2), points)

    @pytest.mark.parametrize(
        "build, pinned",
        [
            (lambda: complex_hyperbolic_chart(4), PINNED_BALL_POINTS[8]),
            (lambda: complex_hyperbolic_chart(8), PINNED_BALL_POINTS[16]),
            (lambda: hyperbolic_chart(16), PINNED_BALL_POINTS[16]),
        ],
        ids=["complex_hyperbolic_4", "complex_hyperbolic_8", "hyperbolic_16"],
    )
    def test_default_probe_points_are_pinned(self, build, pinned):
        chart = build()
        expected = np.vstack([np.full(chart.dim, 0.05), pinned])
        assert np.array_equal(default_probe_points(chart, 3, seed=1), expected)


class TestMetricChart:
    def setup_method(self):
        self.flat = flat_chart(2)

    def test_metric_validates_point_shape(self):
        with pytest.raises(ValueError):
            self.flat.metric(np.zeros(3))

    @pytest.mark.parametrize("chart", [fubini_study_chart(2), hyperbolic_chart(4)], ids=["box", "ball"])
    @pytest.mark.parametrize("shape", [(3,), (1, 4)])
    @pytest.mark.parametrize(
        "entry",
        [
            riemann_at,
            riemann_with_derivative,
            christoffel,
            lambda chart, u: classify_chart(chart, u[None]),
        ],
        ids=["riemann_at", "riemann_with_derivative", "christoffel", "classify_chart"],
    )
    def test_point_of_the_wrong_shape_is_named(self, chart, shape, entry):
        # Caught before numpy broadcasts it, or the callback is blamed.
        message = f"point shape {shape} does not match chart dimension 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            entry(chart, np.full(shape, 0.05))

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
        # A finite metric, finite when symmetrized, whose difference
        # stencils overflow.
        chart = MetricChart(
            dim=3,
            metric_at=lambda u: 4e307 * np.eye(3),
            domain=Box(-np.ones(3), np.ones(3)),
        )
        assert np.isfinite(chart.metric(np.zeros(3))).all()
        with pytest.raises(DomainError, match="curvature is not finite"):
            riemann_at(chart, np.zeros(3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    def test_nabla_r_flags_non_finite_off_centre_jet(self, analytic):
        # Bad beyond 0.6 step3 along u0: the centre's jet stays clear of
        # it, the nabla R stencil point u + step3 e_0 does not.  An
        # analytic d2_metric is infinite there; a finite difference metric
        # jumps to 4e307, finite and valid, and its differences overflow.
        def hit(u):
            return u[0] > 0.6 * chart.step3

        def metric_at(u):
            return (4e307 if hit(u) and not analytic else 1.0) * np.eye(3)

        def d2_metric(u):
            return np.full((3,) * 4, np.inf if hit(u) else 0.0)

        chart = MetricChart(dim=3, metric_at=metric_at, domain=Box(-np.ones(3), np.ones(3)))
        if analytic:
            chart = dataclasses.replace(
                chart, d_metric=lambda u: np.zeros((3,) * 3), d2_metric=d2_metric
            )
        u = np.zeros(3)
        assert max_abs(riemann_at(chart, u)[0]) == 0.0
        with pytest.raises(DomainError, match="not finite"):
            second_bianchi_residual(chart, u)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nabla_r_flags_overflowing_differences(self):
        # A finite jet everywhere: d2_metric is 1e306 off the centre, and
        # its weighted differences, not the jet, overflow.
        u = np.full(3, 0.05)

        def d2_metric(p):
            return np.full((3,) * 4, 0.0 if np.array_equal(p, u) else 1e306)

        chart = MetricChart(
            dim=3,
            metric_at=lambda p: np.eye(3),
            domain=Box(-np.ones(3), np.ones(3)),
            d_metric=lambda p: np.zeros((3,) * 3),
            d2_metric=d2_metric,
        )
        assert max_abs(riemann_at(chart, u)[0]) == 0.0
        with pytest.raises(DomainError, match=r"nabla R is not finite at u=\[0\.05 0\.05 0\.05\]"):
            second_bianchi_residual(chart, u)

    @pytest.mark.parametrize("stacked", [True, False])
    def test_metric_whose_symmetrization_overflows_is_not_finite(self, stacked):
        # Every entry is finite, but g + g^T overflows on the diagonal.
        chart = MetricChart(
            dim=3,
            metric_at=lambda u: 1e308 * np.broadcast_to(np.eye(3), np.shape(u)[:-1] + (3, 3)),
            domain=Box(-np.ones(3), np.ones(3)),
            stacked=stacked,
        )
        for evaluate in (chart.metric, lambda u: riemann_at(chart, u)):
            with pytest.raises(DomainError, match="metric is not finite"):
                evaluate(np.zeros(3))

    @pytest.mark.parametrize("stacked", [True, False])
    @pytest.mark.parametrize(
        "kind, error, message",
        [
            ("nan", DomainError, "not finite"),
            ("asymmetric", ValueError, "not symmetric"),
            ("indefinite", DomainError, "singular or indefinite"),
        ],
    )
    def test_off_centre_stencil_metric_is_checked(self, kind, error, message, stacked):
        # Bad beyond three quarters of the metric stencil's reach along u0:
        # the first bad point in stencil order is its first off-centre
        # point, u + step2 e_0, ahead of the axis-pair points that share
        # that offset.
        def metric_at(us):
            g = np.broadcast_to(np.eye(3), np.shape(us)[:-1] + (3, 3)).copy()
            hit = np.asarray(us)[..., 0] > 0.75 * chart.step2
            if kind == "nan":
                g[hit] = np.nan
            elif kind == "asymmetric":
                g[hit, 0, 1] = 0.5
            else:
                g[hit, 1, 1] = -1.0
            return g

        chart = MetricChart(
            dim=3, metric_at=metric_at, domain=Box(-np.ones(3), np.ones(3)), stacked=stacked
        )
        u = np.zeros(3)
        bad = u.copy()
        bad[0] += chart.step2
        with pytest.raises(error, match=message) as info:
            riemann_at(chart, u)
        assert f"u={bad}" in str(info.value)

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

    @pytest.mark.parametrize("m", [4, 8, 16])
    @pytest.mark.parametrize("family", sorted(CHART_FAMILIES))
    def test_finite_difference_matches_analytic_families(self, family, m):
        # Largest |R_FD - R_analytic| measured at these points: 3.0e-9
        # (hyperbolic, m = 16); the nested Gamma stencil that the single
        # metric stencil replaced read up to 3.8e-8 (sphere, m = 16).
        chart = CHART_FAMILIES[family](m)
        fd = dataclasses.replace(chart, d_metric=None, d2_metric=None)
        rng = np.random.default_rng(m)
        for u in [np.full(m, 0.05), *rng.uniform(-0.1, 0.1, (2, m))]:
            got, expect = riemann_at(fd, u)[0], riemann_at(chart, u)[0]
            assert max_abs(got.components - expect.components) <= 1e-8

    @pytest.mark.parametrize(
        "family, fd_step, bound",
        [
            ("fubini_study", 1e-3, 3e-8),
            ("hyperbolic", 1e-3, 1.2e-7),
            ("fubini_study", 1e-5, 1.8e-8),
            ("hyperbolic", 1e-5, 4.5e-8),
        ],
    )
    def test_finite_difference_away_from_the_default_step(self, family, fd_step, bound):
        # m = 8, the points above.  Each bound is 3x the largest
        # |R_FD - R_analytic| of the tensor-product mixed stencil: 1.0e-8,
        # 4.0e-8, 5.8e-9 and 1.5e-8 in this order.  The diagonal stencil
        # reads the same, but 2.1e-8 for fubini_study at fd_step 1e-3,
        # where truncation, not roundoff, leads.
        chart = CHART_FAMILIES[family](8)
        fd = dataclasses.replace(chart, d_metric=None, d2_metric=None, fd_step=fd_step)
        rng = np.random.default_rng(8)
        for u in [np.full(8, 0.05), *rng.uniform(-0.1, 0.1, (2, 8))]:
            got, expect = riemann_at(fd, u)[0], riemann_at(chart, u)[0]
            assert max_abs(got.components - expect.components) <= bound

    def test_near_boundary_rejected(self):
        with pytest.raises(DomainError):
            riemann_at(flat_chart(2), np.array([4.9999999, 0.0]))


def quintic_chart(m):
    """A stacked chart g = I + 0.1 sum_k C_k u^e_k over monomials u^e_k of
    degree at most 5, every C_k symmetric, with its closed form d2g."""
    exponents = np.zeros((6, m), dtype=int)
    exponents[0, [0, 1]] = [3, 2]  # u_0^3 u_1^2
    exponents[1, [1, 2]] = [2, 2]  # u_1^2 u_2^2
    exponents[2, [0, 2, 3]] = [1, 1, 3]
    exponents[3, 3] = 5
    exponents[4, [1, 3]] = [1, 4]
    exponents[5, [0, 2]] = [1, 1]
    c = np.random.default_rng(5).uniform(-1.0, 1.0, (len(exponents), m, m))
    c = 0.1 * (c + np.swapaxes(c, 1, 2))

    def metric(us):
        return np.eye(m) + np.einsum("nk,kij->nij", np.prod(us[:, None] ** exponents, axis=-1), c)

    def d2_metric(us):
        out = np.zeros((len(us), m, m, m, m))
        for a in range(m):
            for b in range(m):
                # d_a d_b u^e = e_a (e_b - delta_ab) u^(e - 1_a - 1_b).
                factor = exponents[:, a] * (exponents[:, b] - (a == b))
                lowered = exponents - np.eye(m, dtype=int)[a] - np.eye(m, dtype=int)[b]
                mono = factor * np.prod(us[:, None] ** np.maximum(lowered, 0), axis=-1)
                out[:, a, b] = np.einsum("nk,kij->nij", mono, c)
        return out

    chart = MetricChart(m, metric, Box(-np.ones(m), np.ones(m)), name="quintic", stacked=True)
    return chart, d2_metric


class TestMetricJet:
    def test_mixed_stencil_is_exact_on_quintics(self):
        # A fourth order second difference is exact on polynomials of
        # degree 5, so d2g is the closed form up to roundoff: 4.4e-10
        # measured, 7.5e-11 off the diagonal (a != b).
        m = 5
        chart, d2_metric = quintic_chart(m)
        us = np.random.default_rng(6).uniform(-0.5, 0.5, (4, m))
        d2g = _metric_jet(chart, us)[2]
        expect = d2_metric(us)
        a, b = np.triu_indices(m, 1)
        assert max_abs(expect[:, a, b]) > 1e-2
        assert max_abs(d2g - expect) <= 1e-8 * max(1.0, max_abs(expect))
        assert np.array_equal(d2g, np.swapaxes(d2g, 1, 2))


class TestCallbackCounts:
    def test_riemann_at_evaluates_each_callback_once(self):
        chart, calls = counted_chart(fubini_study_chart(2))
        riemann_at(chart, np.full(4, 0.05))
        assert calls == {"metric_at": 1, "d_metric": 1, "d2_metric": 1}

    @pytest.mark.parametrize(
        "n, stacked, count",
        [(2, True, 1), (2, False, 17), (4, True, 2), (8, True, 16), (12, True, 24)],
    )
    def test_second_bianchi_evaluates_each_stencil_point_once(self, n, stacked, count):
        # d2_metric at the point and four stencil points along each of the
        # m axes, one call per point when not stacked.  Stacked, blocks of
        # whole axes within 2^16 floats of m^4 a point, the point riding
        # with the first: all 4 axes in one block at m = 4, blocks of 4
        # axes at m = 8, one axis a block at m = 16 and m = 24.  metric_at
        # and d_metric see the point alone.
        chart, calls = counted_chart(dataclasses.replace(fubini_study_chart(n), stacked=stacked))
        second_bianchi_residual(chart, np.full(2 * n, 0.05))
        assert calls == {"metric_at": 1, "d_metric": 1, "d2_metric": count}

    @pytest.mark.parametrize(
        "n, stacked, riemann, bianchi", [(2, True, 1, 1), (2, False, 65, 1105), (4, True, 1, 8)]
    )
    def test_finite_difference_metric_calls(self, n, stacked, riemann, bianchi):
        # 1 + 4m^2 = 65 metric stencil points per curvature evaluation at
        # m = 4 (the point, 4 along each axis, 8 along the diagonals of
        # each axis pair): one call when stacked, one call each otherwise.
        # The second Bianchi residual evaluates curvature at 4m + 1 = 17
        # points, which share one block and so one call.  At m = 8 the
        # 257 stencil points put one axis in each block, 8 calls, the
        # point riding with the first.
        fd = dataclasses.replace(
            fubini_study_chart(n), d_metric=None, d2_metric=None, stacked=stacked
        )
        u = np.full(2 * n, 0.05)
        chart, calls = counted_chart(fd)
        riemann_at(chart, u)
        assert calls["metric_at"] == riemann
        chart, calls = counted_chart(fd)
        second_bianchi_residual(chart, u)
        assert calls["metric_at"] == bianchi


class TestCurvatureBlocks:
    @pytest.mark.parametrize(
        "chart",
        [
            fubini_study_chart(4),
            dataclasses.replace(hyperbolic_chart(6), d_metric=None, d2_metric=None),
        ],
        ids=["analytic-m8", "fd-m6"],
    )
    def test_block_layout_leaves_nabla_r(self, chart, monkeypatch):
        m = chart.dim
        u = np.full(m, 0.05)
        per_point = m**4 if chart.analytic else (1 + 4 * m * m) * m * m
        # One call per block of the callback that the stencil points see.
        stencil_callback = "d2_metric" if chart.analytic else "metric_at"
        runs = []
        # One axis a block, blocks of 3 axes (the last one short), and
        # all axes in one block.
        for axes in (1, 3, m):
            monkeypatch.setattr(chart_geometry, "_CURVATURE_FLOATS", axes * 4 * per_point)
            counted, calls = counted_chart(chart)
            runs.append(riemann_with_derivative(counted, u))
            assert calls[stencil_callback] == -(-m // axes)
        r, nabla, gam = runs[0]
        # R, g and Gamma at the point are riemann_at's and christoffel's
        # bit for bit, whatever the block the point rides in.
        expect, metric = riemann_at(chart, u)
        assert np.array_equal(r.components, expect.components)
        assert np.array_equal(r.metric.g, metric.g)
        assert np.array_equal(gam, christoffel(chart, u))
        # The bound of the stacked point-loop comparison in test_models.
        bound = 1e-15 * max(max_abs(nabla), 3.0 / chart.step3 * max_abs(r.components))
        for r2, nabla2, gam2 in runs[1:]:
            assert np.array_equal(r.components, r2.components)
            assert np.array_equal(r.metric.g, r2.metric.g)
            assert np.array_equal(gam, gam2)
            assert max_abs(nabla - nabla2) <= bound


class TestCovariantDerivatives:
    def test_flat_curvature_gradient_vanishes(self):
        nr = riemann_with_derivative(flat_chart(3), np.full(3, 0.1))[1]
        assert np.abs(nr).max() <= 1e-9

    def test_symmetric_spaces_are_parallel(self):
        # Locally symmetric: nabla R = 0 up to stencil truncation.
        cases = [
            (sphere_chart(3, 1.0), np.full(3, 0.05)),
            (hyperbolic_chart(3), np.full(3, 0.05)),
            (fubini_study_chart(2), np.full(4, 0.05)),
        ]
        for chart, u in cases:
            assert np.abs(riemann_with_derivative(chart, u)[1]).max() <= 1e-9

    def test_both_bianchi_residuals_near_zero(self):
        chart = fubini_study_chart(2)
        u = np.full(4, 0.05)
        nr = riemann_with_derivative(chart, u)[1]
        assert cyclic_bianchi_residual(nr) <= 1e-9
        assert second_bianchi_residual(chart, u) <= 1e-9

    def test_vanishing_nabla_r_step_is_domain_error(self):
        # u0 + step3 / 2 rounds onto u0 = 0.05; the zero coordinates still
        # move, so one collapsed axis is enough.  R itself takes no stencil.
        chart = dataclasses.replace(fubini_study_chart(2), fd_step=1e-20)
        u = np.array([0.05, 0.0, 0.0, 0.0])
        riemann_at(chart, u)
        with pytest.raises(DomainError, match=r"step 3e-20 vanishes at u=\[0\.05 0\. "):
            second_bianchi_residual(chart, u)

    def test_vanishing_metric_step_is_domain_error(self):
        fd = dataclasses.replace(
            fubini_study_chart(2), d_metric=None, d2_metric=None, fd_step=1e-300
        )
        u = np.full(4, 0.05)
        for evaluate in (riemann_at, christoffel):
            with pytest.raises(DomainError, match="step 2.5e-151 vanishes at u="):
                evaluate(fd, u)

    def test_small_step_keeps_honest_residual(self):
        # A half step of about 22 ulps of u0 = 0.05: no stencil point
        # collapses, and roundoff over the step shows in the residual,
        # 0.81 measured (0.79 differencing the Christoffel symbols along
        # the stencil too).
        chart = dataclasses.replace(fubini_study_chart(2), fd_step=1e-16)
        residual = second_bianchi_residual(chart, np.full(4, 0.05))
        assert 1e-3 < residual < 10.0

    def test_finite_difference_bianchi_tier(self):
        fd = dataclasses.replace(sphere_chart(3, 1.0), d_metric=None, d2_metric=None)
        assert second_bianchi_residual(fd, np.full(3, 0.05)) <= 1e-4

    def test_corrupted_gradient_fails_cyclic_identity(self):
        nr = riemann_with_derivative(sphere_chart(3, 1.0), np.full(3, 0.05))[1].copy()
        nr[0, 0, 0, 0, 1] += 0.1
        assert cyclic_bianchi_residual(nr) >= 0.09

    @pytest.mark.parametrize("analytic", [True, False])
    def test_matches_einsum_reference_layout(self, analytic):
        # nabla_n R_ijkl = d_n R_ijkl - Gamma^s_ni R_sjkl - Gamma^s_nj R_iskl
        #                 - Gamma^s_nk R_ijsl - Gamma^s_nl R_ijks, stored [i, j, k, l, n],
        # with d_n R by the product rule on the same jet as the pass: 2e-14
        # analytic and 9e-16 finite difference measured.
        chart = perturbed_flat_chart(4, 0.1, seed=3)
        if not analytic:
            chart = dataclasses.replace(chart, d_metric=None, d2_metric=None)
        u = np.array([0.05, -0.1, 0.08, 0.02])
        rc = riemann_at(chart, u)[0].components
        gamma = christoffel(chart, u)
        expect = np.einsum("nijkl->ijkln", jet_partial_r(chart, u)) - (
            np.einsum("sni,sjkl->ijkln", gamma, rc)
            + np.einsum("snj,iskl->ijkln", gamma, rc)
            + np.einsum("snk,ijsl->ijkln", gamma, rc)
            + np.einsum("snl,ijks->ijkln", gamma, rc)
        )
        got = riemann_with_derivative(chart, u)[1]
        assert got.shape == (4,) * 5
        assert max_abs(got - expect) <= 1e-12 * max(1.0, max_abs(expect))

    def test_fd_pass_matches_differenced_curvature(self):
        # Differences of R along the nabla R stencil instead of the product
        # rule on the point's jet: the two agree to that stencil's
        # truncation, 5.9e-12 relative measured, against a 1.3e-7 distance
        # of either from the analytic chart's nabla R.
        chart = perturbed_flat_chart(4, 0.1, seed=3)
        u = np.array([0.05, -0.1, 0.08, 0.02])
        analytic = riemann_with_derivative(chart, u)[1]
        chart = dataclasses.replace(chart, d_metric=None, d2_metric=None)
        expect = per_slot_nabla_r(chart, u)[0]
        got = riemann_with_derivative(chart, u)[1]
        scale = max(1.0, max_abs(expect))
        assert max_abs(got - expect) <= 3e-11 * scale
        assert max_abs(got - analytic) <= 1e-6 * scale

    @pytest.mark.parametrize("analytic", [True, False])
    def test_derivative_has_exact_curvature_symmetries(self, analytic):
        # Each derivative axis is projected onto the curvature symmetry
        # class as a whole, so its symmetries hold bit for bit.
        chart = perturbed_flat_chart(6, 0.1, seed=3)
        if not analytic:
            chart = dataclasses.replace(chart, d_metric=None, d2_metric=None)
        nr = riemann_with_derivative(chart, np.linspace(-0.1, 0.1, 6))[1]
        assert max_abs(nr) > 1e-3
        assert np.array_equal(nr, -np.swapaxes(nr, 0, 1))
        assert np.array_equal(nr, -np.swapaxes(nr, 2, 3))
        assert np.array_equal(nr, np.transpose(nr, (2, 3, 0, 1, 4)))

    @pytest.mark.parametrize(
        "chart", [fubini_study_chart(8), perturbed_flat_chart(16, 0.1, seed=5)], ids=lambda c: c.name
    )
    def test_stacked_m16_matches_per_slot_reference(self, chart):
        # One projection and one product per axis against a projection per
        # stencil point and four slot corrections: equal in exact
        # arithmetic.  The central difference multiplies a relative
        # rounding change of R by up to its weight sum, 3 / step3.
        assert chart.stacked and chart.analytic and chart.dim == 16
        u = np.full(16, 0.05)
        expect, r = per_slot_nabla_r(chart, u)
        got = riemann_with_derivative(chart, u)[1]
        bound = 1e-15 * max(max_abs(expect), 3.0 / chart.step3 * max_abs(r))
        assert max_abs(got - expect) <= bound

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_cyclic_residual_matches_einsum_reference(self, m):
        rng = np.random.default_rng(m)
        t = rng.normal(size=(m,) * 5)
        assert cyclic_bianchi_residual(t) == einsum_cyclic_residual(t)
        # The nabla R layout riemann_with_derivative returns: derivative
        # first in memory, an [i, j, k, l, n] view.
        view = np.moveaxis(np.ascontiguousarray(np.moveaxis(t, -1, 0)), 0, -1)
        assert cyclic_bianchi_residual(view) == einsum_cyclic_residual(t)
        chart = perturbed_flat_chart(m, 0.1, seed=3)
        nr = riemann_with_derivative(chart, np.full(m, 0.05))[1]
        assert cyclic_bianchi_residual(nr) == einsum_cyclic_residual(nr) <= 1e-9
        nr = nr.copy()
        nr[0, 1, 0, 1, m - 1] += 0.1
        assert cyclic_bianchi_residual(nr) == einsum_cyclic_residual(nr) >= 0.09
        nr[1, 0, 1, 0, 0] = np.nan
        assert np.isnan(cyclic_bianchi_residual(nr))

    def test_second_bianchi_memory_peak(self):
        # At m = 16 nabla R is one 8.4 MB array; the correction and the
        # cyclic sum work on m^4 slabs of it (12.3 MB peak measured, 25.2
        # MB with whole m^5 temporaries).
        peak = traced_peak(second_bianchi_residual, fubini_study_chart(8), np.full(16, 0.05))
        assert peak <= 16e6


def rescaled_fubini_study_chart(m):
    """exp(0.3 u_0) times the Fubini-Study metric, with analytic
    derivatives."""

    def alpha(u):
        return np.exp(0.3 * u[0])

    def d_alpha(u):
        out = np.zeros(m)
        out[0] = 0.3 * alpha(u)
        return out

    def d2_alpha(u):
        out = np.zeros((m, m))
        out[0, 0] = 0.09 * alpha(u)
        return out

    return conformal_rescale(fubini_study_chart(m // 2), alpha, d_alpha, d2_alpha)


def textbook_lowered_curvature(g, dg, d2g):
    """L_ijkl = g_sl (d_i Gamma^s_jk + Gamma^s_it Gamma^t_jk) at a stack
    of points, with Gamma and d Gamma from the second kind formulas."""
    ginv = np.linalg.inv(g)
    s = dg + np.einsum("njil->nijl", dg) - np.einsum("nlij->nijl", dg)
    ds = d2g + np.einsum("najil->naijl", d2g) - np.einsum("nalij->naijl", d2g)
    gamma = 0.5 * np.einsum("nkl,nijl->nkij", ginv, s)
    dgamma = 0.5 * np.einsum("nkl,naijl->nakij", ginv, ds) - np.einsum(
        "nkp,napq,nqij->nakij", ginv, dg, gamma, optimize=True
    )
    squares = np.einsum("nsit,ntjk->nisjk", gamma, gamma, optimize=True)
    return np.einsum("nsl,nisjk->nijkl", g, dgamma + squares, optimize=True)


class TestCurvatureCore:
    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("m", [4, 8, 16])
    @pytest.mark.parametrize(
        "build",
        [
            lambda m: fubini_study_chart(m // 2),
            lambda m: complex_hyperbolic_chart(m // 2),
            lambda m: perturbed_flat_chart(m, 0.1, seed=3),
            rescaled_fubini_study_chart,
        ],
        ids=["fubini_study", "complex_hyperbolic", "perturbed_flat", "rescaled_fubini_study"],
    )
    def test_lowered_curvature_is_the_textbook_formula(self, build, m, analytic):
        # (1/2) d_i S_jkl - Gamma_{s,il} Gamma^s_jk against the second
        # kind formula, on the same metric jet: at most 9.4e-16 measured.
        chart = build(m)
        assert chart.analytic
        if not analytic:
            chart = dataclasses.replace(chart, d_metric=None, d2_metric=None)
        us = default_probe_points(chart, 2)
        g, dg, d2g = _metric_jet(chart, us)
        expect = textbook_lowered_curvature(g, dg, d2g)
        got = _curvature(us, d2g, *_christoffel_from(np.linalg.inv(g), dg))
        assert max_abs(expect) > 1e-2
        assert max_abs(got - expect) <= 1e-13 * max_abs(expect)

    @pytest.mark.parametrize("m", [4, 8, 16])
    @pytest.mark.parametrize("family", ["fubini_study", "complex_hyperbolic"])
    def test_analytic_bianchi_residuals_keep_their_size(self, family, m):
        # Max over the default probe points: 7e-13 to 4.3e-11 (8e-13 to
        # 4.1e-11 differencing the Christoffel symbols along the stencil),
        # and 4.9e-11 with the second kind formula; a second order nabla R
        # stencil gives 1.6e-10 and up.
        chart = CHART_FAMILIES[family](m)
        residuals = [second_bianchi_residual(chart, u) for u in default_probe_points(chart)]
        assert max(residuals) <= 1e-10

    @pytest.mark.parametrize(
        "family, m",
        [
            ("sphere", 4), ("sphere", 8), ("hyperbolic", 6), ("perturbed_flat", 8),
            ("fubini_study", 4), ("fubini_study", 8),
            ("complex_hyperbolic", 4), ("complex_hyperbolic", 8),
        ],
    )
    def test_fd_bianchi_residuals_keep_their_size(self, family, m):
        # The fd_charts families without derivative callbacks.  Max over
        # the default probe points: 4.3e-6 (hyperbolic m = 6) with the
        # Christoffel derivatives from the point's jet, 3.8e-6 differencing
        # them along the stencil; the other charts 3.8e-8 to 7.1e-7.  The
        # tier is 1e-4.
        chart = dataclasses.replace(CHART_FAMILIES[family](m), d_metric=None, d2_metric=None)
        residuals = [second_bianchi_residual(chart, u) for u in default_probe_points(chart)]
        assert max(residuals) <= 1e-5

    @pytest.mark.parametrize(
        "build",
        [lambda m: perturbed_flat_chart(m, 0.1, seed=3), rescaled_fubini_study_chart],
        ids=["perturbed_flat", "rescaled_fubini_study"],
    )
    def test_exact_christoffel_derivative_matches_differences(self, build):
        # Non-symmetric charts, so that d Gamma is not zero.  The
        # derivatives from the point's jet against fourth order
        # differences of christoffel and of the lowered symbols at reach
        # 1e-3: at most 3.7e-12 relative measured.  nabla R, built on
        # them, against differences of R itself: at most 1.2e-11.
        chart = build(8)
        m, k = 8, 5e-4

        def lowered(v):
            return np.einsum("lk,kij->ijl", chart.metric(v), christoffel(chart, v))

        def central(f, u):
            return np.array(
                [
                    (-f(u + 2 * e) + 8 * f(u + e) - 8 * f(u - e) + f(u - 2 * e)) / (12 * k)
                    for e in np.eye(m) * k
                ]
            )

        for u in default_probe_points(chart, 3):
            g, dg, d2g = _metric_jet(chart, u[None])
            ginv = np.linalg.inv(g)
            gamma = _christoffel_from(ginv, dg)[1][0]
            exact = _christoffel_derivative(ginv[0], dg[0], d2g[0], gamma)
            differenced = central(lowered, u), central(lambda v: christoffel(chart, v), u)
            for got, expect in zip(exact, differenced):
                assert max_abs(expect) > 1e-3
                assert max_abs(got.reshape(expect.shape) - expect) <= 1e-10 * max_abs(expect)
            expect = per_slot_nabla_r(chart, u)[0]
            got = riemann_with_derivative(chart, u)[1]
            assert max_abs(got - expect) <= 1e-10 * max_abs(expect)

    def test_bianchi_oracle_sees_a_jet_that_is_no_metric_jet(self):
        # d2_metric off by 1e-3 sin(u_0) delta_ab delta_ij: smooth and
        # symmetric in (a, b), but its derivative along c is not symmetric
        # in (a, c), so no metric has it for a Hessian.  The pass
        # differences d2g, so the residual shows it: 9.1e-5 to 1e-3 at
        # the default points, against at most 5.8e-12 for the chart itself.
        chart = fubini_study_chart(4)
        base, eye = chart.d2_metric, np.eye(8)

        def d2_metric(u):
            u = np.asarray(u)
            error = np.sin(u[..., 0])[..., None, None, None, None] * np.multiply.outer(eye, eye)
            return base(u) + 1e-3 * error

        wrong = dataclasses.replace(chart, d2_metric=d2_metric)
        for u in default_probe_points(chart):
            assert second_bianchi_residual(chart, u) <= 1e-10
            assert second_bianchi_residual(wrong, u) >= 1e-5

    def test_riemann_with_derivative_memory_peak(self):
        # At m = 16 nabla R is one 8.4 MB array, allocated once the first
        # block's jet, which holds the point too, is gone; beside it the
        # point's R and d2g and one block's d2g (12.28 MB peak measured,
        # 12.47 MB differencing the Christoffel symbols along the stencil).
        peak = traced_peak(riemann_with_derivative, fubini_study_chart(8), np.full(16, 0.05))
        assert peak <= 12.5e6

    def test_riemann_at_memory_peak(self):
        # At m = 16 the jet, L and the projection hold a few m^4 arrays
        # of 0.5 MB (1.74 MB peak measured, 2.76 MB with the second kind
        # formula).
        assert traced_peak(riemann_at, fubini_study_chart(8), np.full(16, 0.05)) <= 2e6

    def test_projective_d2_memory_peak(self):
        # The m^4 result is written once, next to two factors of about
        # m^3: 0.65 MB peak measured at m = 16, against 1.68 MB for a sum
        # of broadcast m^4 products.
        d2 = fubini_study_chart(8).d2_metric
        assert traced_peak(d2, np.full((1, 16), 0.05)) < 1.3e6


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

    def test_stacked_base_with_scalar_factor(self):
        # alpha indexes a single point; the rescaled chart stays stacked and
        # calls it once per point of a stack.
        seen = []

        def alpha(u):
            seen.append(u.shape)
            return float(np.exp(0.3 * u[1]))

        base = sphere_chart(3, 1.0)
        chart = conformal_rescale(base, alpha)
        assert chart.stacked
        us = chart.probe_points(7, seed=2)
        seen.clear()
        stack = chart.metric_at(us)
        assert seen == [(3,)] * 7
        expect = np.array([alpha(u) * base.metric_at(u) for u in us])
        assert max_abs(stack - expect) <= 1e-15 * max_abs(expect)
        u = np.full(3, 0.05)
        looped = dataclasses.replace(chart, stacked=False)
        got, expect = riemann_at(chart, u)[0], riemann_at(looped, u)[0]
        assert max_abs(got.components - expect.components) <= 1e-8

    def test_asymmetric_d2_alpha_counts_by_its_symmetric_part(self):
        base = fubini_study_chart(3)
        w = np.linspace(0.1, 0.4, 6)
        skew = np.triu(np.full((6, 6), 0.2), 1)

        def alpha(u):
            return float(np.exp(w @ u))

        def d2_asymmetric(u):
            return alpha(u) * (np.outer(w, w) + skew)

        def d2_symmetric(u):
            d2 = d2_asymmetric(u)
            return 0.5 * (d2 + d2.T)

        u = np.full(6, 0.05)
        got, expect = (
            riemann_at(conformal_rescale(base, alpha, lambda u: alpha(u) * w, d2), u)[0].components
            for d2 in (d2_asymmetric, d2_symmetric)
        )
        # Equal bit for bit; the bound also admits symmetrizing d2g as a
        # whole after the sum, which leaves 4.4e-16 against max |R| = 4.1.
        assert max_abs(expect) > 1.0
        assert max_abs(got - expect) <= 1e-15 * max_abs(expect)

    def test_rescaled_d2_metric_is_symmetric(self):
        # A dense d_alpha, so that both cross terms d_a alpha d_b g and
        # d_b alpha d_a g are nonzero: added to the rest one after the
        # other, they would round differently at (a, b) and (b, a).
        base = fubini_study_chart(8)
        w = np.linspace(0.1, 0.4, 16)

        def alpha(u):
            return float(np.exp(w @ u))

        chart = conformal_rescale(
            base, alpha, lambda u: alpha(u) * w, lambda u: alpha(u) * np.outer(w, w)
        )
        us = chart.probe_points(8, seed=3)
        d2 = chart.d2_metric(us)
        assert np.array_equal(d2, np.swapaxes(d2, 1, 2))

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

    def test_first_derivative_alone_gives_finite_difference_chart(self):
        base = sphere_chart(3, 1.0)

        def alpha(u):
            return np.exp(0.3 * u[1])

        def d_alpha(u):
            return np.array([0.0, 0.3 * alpha(u), 0.0])

        half = conformal_rescale(base, alpha, d_alpha=d_alpha)
        assert half.d_metric is None and half.d2_metric is None
        u = np.full(3, 0.05)
        got, expect = riemann_at(half, u)[0], riemann_at(conformal_rescale(base, alpha), u)[0]
        assert np.array_equal(got.components, expect.components)


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
