"""Built-in geometries and the model registry."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom.chart_geometry import (
    DomainError,
    MetricChart,
    conformal_rescale,
    riemann_at,
    riemann_with_derivative,
)
from weylgeom.curvature_algebra import complex_space_form_act, r0
from weylgeom.models import (
    ALGEBRAIC_MODELS,
    CHART_MODELS,
    ModelSpec,
    build_model,
    complex_hyperbolic_chart,
    flat_chart,
    fubini_study_chart,
    hyperbolic_chart,
    perturbed_flat_chart,
    polynomial_metric_chart,
    sphere_chart,
    standard_phi,
)
from weylgeom.tensor_core import (
    CurvatureTensor,
    InnerProduct,
    max_abs,
    orthonormal_frame,
    transform_tensor,
)


class TestStandardPhi:
    def test_block_layout_m4(self):
        expect = np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        assert_allclose(standard_phi(4).matrix, expect)

    def test_is_valid_structure(self):
        for m in (2, 6, 10):
            standard_phi(m).validate()

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            standard_phi(5)


class TestFlatChart:
    def test_identity_metric_and_no_curvature(self):
        chart = flat_chart(3)
        assert chart.analytic
        u = np.array([1.7, -2.2, 0.4])
        assert_allclose(chart.metric(u), np.eye(3))
        a, _ = riemann_at(chart, u)
        assert max_abs(a) <= 1e-12

    def test_name_embeds_dimension(self):
        assert flat_chart(4).name == "flat(m=4)"


class TestConstantCurvatureCharts:
    def probe(self, chart, u):
        a, g = riemann_at(chart, u)
        return transform_tensor(a, orthonormal_frame(g)).components

    def test_sphere_unit_radius(self):
        got = self.probe(sphere_chart(4, 1.0), np.full(4, 0.08))
        assert max_abs(got - r0(InnerProduct.euclidean(4)).components) <= 1e-10

    def test_sphere_general_radius(self):
        got = self.probe(sphere_chart(3, 2.0), np.full(3, 0.08))
        assert max_abs(got - 0.25 * r0(InnerProduct.euclidean(3)).components) <= 1e-10

    def test_hyperbolic(self):
        got = self.probe(hyperbolic_chart(4), np.full(4, 0.08))
        assert max_abs(got + r0(InnerProduct.euclidean(4)).components) <= 1e-10


class TestComplexSpaceFormCharts:
    def test_fubini_study_center(self):
        for n in (2, 3):
            chart = fubini_study_chart(n)
            assert chart.dim == 2 * n
            a, g = riemann_at(chart, np.zeros(2 * n))
            assert g.is_euclidean(tol=1e-12)
            expect = complex_space_form_act(1.0, 1.0, standard_phi(2 * n))
            assert max_abs(a.components - expect.components) <= 1e-10

    def test_complex_hyperbolic_center(self):
        chart = complex_hyperbolic_chart(2)
        a, _ = riemann_at(chart, np.zeros(4))
        expect = complex_space_form_act(-1.0, -1.0, standard_phi(4))
        assert max_abs(a.components - expect.components) <= 1e-10

    def test_metric_positive_on_probes(self):
        chart = fubini_study_chart(3)
        for u in chart.probe_points(6, seed=4):
            chart.metric(u)


def projective_derivatives_by_loop(n, sign, u):
    """Per-(a, b) formula for the derivatives of
    g = [(1 + sign s) I - sign P] / (1 + sign s)^2, the reference for
    the broadcast closed form in models."""
    m = 2 * n
    jmat = standard_phi(m).matrix
    eye = np.eye(m)
    s = float(u @ u)
    v = jmat @ u
    p = np.outer(u, u) + np.outer(v, v)
    q = 1.0 + sign * s

    def dp(a):
        ea, ja = eye[a], jmat[:, a]
        return np.outer(ea, u) + np.outer(u, ea) + np.outer(ja, v) + np.outer(v, ja)

    d1 = np.empty((m, m, m))
    d2 = np.empty((m, m, m, m))
    for a in range(m):
        dqa = sign * 2.0 * u[a]
        d1[a] = -dqa / q**2 * eye + 2.0 * dqa * sign / q**3 * p - sign / q**2 * dp(a)
        for b in range(m):
            dqb = sign * 2.0 * u[b]
            dqab = sign * 2.0 * eye[a, b]
            d2p = (
                np.outer(eye[a], eye[b])
                + np.outer(eye[b], eye[a])
                + np.outer(jmat[:, a], jmat[:, b])
                + np.outer(jmat[:, b], jmat[:, a])
            )
            d2[a, b] = (
                (-dqab / q**2 + 2.0 * dqa * dqb / q**3) * eye
                + 2.0 * sign * (dqab / q**3 - 3.0 * dqa * dqb / q**4) * p
                + 2.0 * sign * dqa / q**3 * dp(b)
                + 2.0 * sign * dqb / q**3 * dp(a)
                - sign / q**2 * d2p
            )
    return d1, d2


PROJECTIVE_FAMILY = pytest.mark.parametrize(
    "build,sign", [(fubini_study_chart, 1.0), (complex_hyperbolic_chart, -1.0)]
)


class TestProjectiveDerivatives:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @PROJECTIVE_FAMILY
    def test_closed_form_matches_loop(self, n, build, sign):
        chart = build(n)
        for u in chart.probe_points(4, seed=5):
            d1, d2 = projective_derivatives_by_loop(n, sign, u)
            assert max_abs(chart.d_metric(u) - d1) <= 1e-14
            assert max_abs(chart.d2_metric(u) - d2) <= 1e-14

    @PROJECTIVE_FAMILY
    def test_stacked_block_matches_loop(self, build, sign):
        # One batched product over a 40 point block, at the size the
        # command line benchmarks.
        chart = build(8)
        us = chart.probe_points(40, seed=5)
        d2 = chart.d2_metric(us)
        for u, got in zip(us, d2):
            assert max_abs(got - projective_derivatives_by_loop(8, sign, u)[1]) <= 1e-14


class TestPerturbedFlat:
    def test_zero_amplitude_is_flat(self):
        chart = perturbed_flat_chart(3, 0.0, 5)
        assert_allclose(chart.metric(np.full(3, 0.2)), np.eye(3))

    def test_deterministic_in_seed(self):
        u = np.full(3, 0.2)
        a = perturbed_flat_chart(3, 0.1, 5).metric(u)
        b = perturbed_flat_chart(3, 0.1, 5).metric(u)
        assert_allclose(a, b)
        c = perturbed_flat_chart(3, 0.1, 6).metric(u)
        assert max_abs(a - c) > 1e-6

    def test_analytic_with_name(self):
        chart = perturbed_flat_chart(4, 0.05, 2)
        assert chart.analytic
        assert chart.name == "perturbed_flat(m=4,eps=0.05,seed=2)"

    def test_curvature_scales_with_amplitude(self):
        u = np.full(3, 0.1)
        big, _ = riemann_at(perturbed_flat_chart(3, 0.1, 5), u)
        small, _ = riemann_at(perturbed_flat_chart(3, 0.01, 5), u)
        assert max_abs(big) > 5.0 * max_abs(small)


class TestPolynomialChart:
    def test_constant_term(self):
        chart = polynomial_metric_chart(np.diag([2.0, 1.0]))
        assert_allclose(chart.metric(np.zeros(2)), np.diag([2.0, 1.0]))
        assert chart.analytic
        assert chart.name == "polynomial"

    def test_linear_term(self):
        lin = np.zeros((2, 2, 2))
        lin[0, 0, 0] = 1.0
        chart = polynomial_metric_chart(np.eye(2), linear=lin)
        assert_allclose(chart.metric(np.array([0.3, 0.0]))[0, 0], 1.3)

    def test_quadratic_term_and_coordinate_symmetrization(self):
        quad = np.zeros((2, 2, 2, 2))
        quad[0, 1, 0, 0] = 0.4
        chart = polynomial_metric_chart(np.eye(2), quadratic=quad)
        u = np.array([0.3, 0.2])
        assert_allclose(chart.metric(u)[0, 0], 1.0 + 0.4 * 0.3 * 0.2)
        # d_metric reflects the symmetrized coefficients.
        assert_allclose(chart.d_metric(u)[1, 0, 0], 2.0 * 0.2 * 0.3, atol=1e-12)

    def test_extent_controls_domain(self):
        chart = polynomial_metric_chart(np.eye(2), extent=0.25)
        assert_allclose(chart.domain.lo, [-0.25, -0.25])
        assert_allclose(chart.domain.hi, [0.25, 0.25])

    def test_rejects_indefinite_constant(self):
        with pytest.raises(DomainError):
            polynomial_metric_chart(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric_metric_values(self):
        quad = np.zeros((2, 2, 2, 2))
        quad[0, 1, 0, 1] = 0.4
        with pytest.raises(ValueError, match="symmetric"):
            polynomial_metric_chart(np.eye(2), quadratic=quad)

    @pytest.mark.parametrize("constant", [5.0, [1.0, 2.0], np.zeros((2, 3))])
    def test_rejects_non_square_constant(self, constant):
        with pytest.raises(ValueError, match="square"):
            polynomial_metric_chart(np.asarray(constant))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError, match="shapes"):
            polynomial_metric_chart(np.eye(2), linear=np.zeros((3, 2, 2)))


def _polynomial_example():
    rng = np.random.default_rng(4)
    lin = 0.1 * rng.uniform(-1.0, 1.0, (3, 3, 3))
    quad = 0.1 * rng.uniform(-1.0, 1.0, (3, 3, 3, 3))
    lin = 0.5 * (lin + np.swapaxes(lin, 1, 2))
    quad = 0.5 * (quad + np.swapaxes(quad, 2, 3))
    return polynomial_metric_chart(np.diag([2.0, 1.0, 1.5]), lin, quad)


STACKED_MODELS = {
    "flat": lambda: flat_chart(4),
    "sphere": lambda: sphere_chart(5, 2.0),
    "hyperbolic": lambda: hyperbolic_chart(4),
    "fubini_study": lambda: fubini_study_chart(3),
    "complex_hyperbolic": lambda: complex_hyperbolic_chart(3),
    "perturbed_flat": lambda: perturbed_flat_chart(5, 0.1, seed=2),
    "polynomial": _polynomial_example,
}


@pytest.mark.parametrize("name", sorted(STACKED_MODELS))
class TestStackedMetric:
    def test_stack_matches_single_points(self, name):
        chart = STACKED_MODELS[name]()
        assert chart.stacked
        us = chart.probe_points(50, seed=3)
        for rank, f in enumerate((chart.metric_at, chart.d_metric, chart.d2_metric), start=2):
            stack = f(us)
            single = np.array([f(u) for u in us])
            assert stack.shape == (50,) + (chart.dim,) * rank
            assert max_abs(stack - single) <= 1e-15 * max_abs(single)

    def test_d2_metric_is_symmetric(self, name):
        # Curvature takes d2_metric as it is, so every model keeps it
        # symmetric in (a, b) bit for bit; the polynomial example's
        # quadratic coefficients are not.
        chart = STACKED_MODELS[name]()
        us = chart.probe_points(40, seed=3)
        for d2 in [chart.d2_metric(us)] + [chart.d2_metric(u)[None] for u in us]:
            assert np.array_equal(d2, np.swapaxes(d2, 1, 2))

    def test_analytic_curvature_matches_point_loop(self, name):
        chart = STACKED_MODELS[name]()
        looped = dataclasses.replace(chart, stacked=False)
        u = np.full(chart.dim, 0.05)
        r = riemann_at(looped, u)[0].components
        assert max_abs(riemann_at(chart, u)[0].components - r) <= 1e-15 * max_abs(r)
        # The central difference multiplies a relative rounding change of
        # the curvature values by up to its weight sum, 3 / step3; BLAS
        # rounds a one-point product and a stacked one differently.
        nabla = riemann_with_derivative(looped, u)[1]
        bound = 1e-15 * max(max_abs(nabla), 3.0 / chart.step3 * max_abs(r))
        assert max_abs(riemann_with_derivative(chart, u)[1] - nabla) <= bound

    def test_rescaled_with_scalar_factor(self, name):
        # alpha and its derivatives take a single point; the rescaled
        # chart stays stacked and analytic.
        base = STACKED_MODELS[name]()
        w = np.linspace(0.1, 0.3, base.dim)

        def alpha(u):
            assert u.shape == (base.dim,)
            return float(np.exp(w @ u))

        chart = conformal_rescale(
            base, alpha, lambda u: alpha(u) * w, lambda u: alpha(u) * np.outer(w, w)
        )
        assert chart.stacked and chart.analytic
        us = chart.probe_points(50, seed=3)
        for f in (chart.d_metric, chart.d2_metric):
            single = np.array([f(u) for u in us])
            assert max_abs(f(us) - single) <= 1e-15 * max_abs(single)
        u = np.full(chart.dim, 0.05)
        fd = dataclasses.replace(chart, d_metric=None, d2_metric=None)
        expect = riemann_at(fd, u)[0].components
        got = riemann_at(chart, u)[0].components
        assert max_abs(got - expect) <= 1e-6 * max(1.0, max_abs(expect))

    def test_fd_curvature_matches_point_loop(self, name):
        chart = dataclasses.replace(STACKED_MODELS[name](), d_metric=None, d2_metric=None)
        u = np.full(chart.dim, 0.05)
        stacked = riemann_at(chart, u)[0].components
        looped = riemann_at(dataclasses.replace(chart, stacked=False), u)[0].components
        assert max_abs(stacked - looped) <= 1e-8


def _polynomial_params(m):
    """Coefficients of a polynomial metric near 2 I, symmetric in (i, j)."""
    rng = np.random.default_rng(m)
    lin = rng.uniform(-1.0, 1.0, (m, m, m)) / m
    quad = rng.uniform(-1.0, 1.0, (m, m, m, m)) / m**2
    return {
        "constant": 2.0 * np.eye(m),
        "linear": lin + np.swapaxes(lin, 1, 2),
        "quadratic": quad + np.swapaxes(quad, 2, 3),
    }


CHART_PARAMS = {
    "flat": lambda m: {"m": m},
    "sphere": lambda m: {"m": m, "r": 1.5},
    "hyperbolic": lambda m: {"m": m},
    "fubini_study": lambda m: {"n": m // 2},
    "complex_hyperbolic": lambda m: {"n": m // 2},
    "perturbed_flat": lambda m: {"m": m, "eps": 0.1, "seed": 2},
    "polynomial": _polynomial_params,
}


def central_difference(f, u, h=1e-3):
    """Fourth order central difference of the stacked callback f at u,
    with the differentiation axis first."""
    m = len(u)
    steps = h * np.eye(m)
    values = f(np.concatenate([u + 2.0 * steps, u + steps, u - steps, u - 2.0 * steps]))
    v = values.reshape((4, m) + values.shape[1:])
    return (-v[0] + 8.0 * v[1] - 8.0 * v[2] + v[3]) / (12.0 * h)


@pytest.mark.parametrize("m", [4, 16])
@pytest.mark.parametrize("name", sorted(CHART_MODELS))
def test_derivatives_match_central_differences(name, m):
    # Each metric family writes its metric and both derivatives once;
    # the derivatives must be those of the metric it returns.
    chart = build_model(ModelSpec(name, CHART_PARAMS[name](m)))
    assert chart.dim == m
    for u in chart.probe_points(2, seed=7):
        for f, df in ((chart.metric_at, chart.d_metric), (chart.d_metric, chart.d2_metric)):
            exact = df(u)
            assert max_abs(central_difference(f, u) - exact) <= 1e-8 * max(1.0, max_abs(exact))


class TestRegistry:
    def test_registry_contents(self):
        assert set(CHART_MODELS) == {
            "flat",
            "sphere",
            "hyperbolic",
            "fubini_study",
            "complex_hyperbolic",
            "perturbed_flat",
            "polynomial",
        }
        assert set(ALGEBRAIC_MODELS) == {"space_form", "complex_space_form", "random"}

    def test_kind_property(self):
        assert ModelSpec("sphere", {"m": 3}).kind == "chart"
        assert ModelSpec("random", {"seed": 0, "m": 4}).kind == "algebraic"
        with pytest.raises(ValueError, match="unknown model"):
            ModelSpec("nope").kind

    def test_build_chart_model(self):
        chart = build_model(ModelSpec("sphere", {"m": 3, "r": 2.0}))
        assert isinstance(chart, MetricChart)
        assert chart.name == "sphere(m=3,r=2.0)"

    def test_build_algebraic_model(self):
        a = build_model(ModelSpec("random", {"seed": 2, "m": 5}))
        assert isinstance(a, CurvatureTensor)
        assert a.dim == 5

    def test_build_polynomial_from_plain_lists(self):
        chart = build_model(ModelSpec("polynomial", {"constant": [[2.0, 0.0], [0.0, 1.0]]}))
        assert_allclose(chart.metric(np.zeros(2)), np.diag([2.0, 1.0]))
        params = _polynomial_params(3)
        chart = build_model(ModelSpec("polynomial", {k: v.tolist() for k, v in params.items()}))
        expect = polynomial_metric_chart(**params)
        u = np.array([0.1, -0.2, 0.3])
        for f in ("metric_at", "d_metric", "d2_metric"):
            assert np.array_equal(getattr(chart, f)(u), getattr(expect, f)(u))

    def test_build_random_with_null_k(self):
        a = build_model(ModelSpec("random", {"seed": 2, "m": 5, "k": None}))
        b = build_model(ModelSpec("random", {"seed": 2, "m": 5}))
        assert np.array_equal(a.components, b.components)

    @pytest.mark.parametrize(
        "name,params,m",
        [("flat", {"m": -2}, -2), ("sphere", {"m": -1}, -1), ("sphere", {"m": 1, "r": -1}, 1)],
    )
    def test_dimension_guard_comes_first(self, name, params, m):
        with pytest.raises(ValueError, match=f"^need m >= 2, got {m}$"):
            build_model(ModelSpec(name, params))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model(ModelSpec("nope"))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            build_model(ModelSpec("sphere", {"m": 3, "bogus": 1}))

    def test_missing_parameter_surfaces(self):
        with pytest.raises(ValueError, match=r"model 'sphere' is missing parameters \['m'\]"):
            build_model(ModelSpec("sphere"))
