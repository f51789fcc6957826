"""Model charts and algebraic fixtures used as oracles and baselines.

Chart models: flat space, the round sphere (stereographic), hyperbolic
space (conformal ball), the complex projective model in inhomogeneous
coordinates, its negative curvature dual, a seeded perturbed flat chart
as a negative control, and explicit polynomial metrics.  They rest on
three metric families, each with one implementation of the metric and
its two derivatives:

- conformally flat, g = c / (a + sigma |u|^2)^2 * identity: flat
  (sigma = 0), the sphere (+1) and hyperbolic space (-1);
- projective, g = [(1 + s |u|^2) I - s P] / (1 + s |u|^2)^2: the
  complex projective model (s = +1) and its dual (s = -1);
- polynomial, g = constant + linear u + quadratic u u: the external
  metric format, and the perturbed flat chart.

All charts carry analytic first and second metric derivatives, so the
tight tolerance tiers apply; the curvature pipeline still exercises its
finite difference path when a chart is rebuilt without callbacks.
Every callback, the metric and both derivatives, broadcasts over
leading axes of its point argument: a stack of points of shape (N, m)
maps to values of shape (N, m, m), (N, m, m, m) and (N, m, m, m, m), so
every chart is stacked.

Complex models use interleaved realification: z_j = u_{2j-1} + i u_{2j}
(one based), with the standard block structure as the complex unit.
The projective metric is normalized so g(0) is the identity and the
curvature at the origin equals R0 + A_Phi for the standard Phi, which
pins holomorphic sectional curvature 4.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .chart_geometry import Ball, Box, MetricChart
from .curvature_algebra import complex_space_form_act, r0, random_act
from .tensor_core import CurvatureTensor, HermitianStructure, InnerProduct

__all__ = [
    "standard_phi",
    "flat_chart",
    "sphere_chart",
    "hyperbolic_chart",
    "fubini_study_chart",
    "complex_hyperbolic_chart",
    "perturbed_flat_chart",
    "polynomial_metric_chart",
    "ModelSpec",
    "build_model",
    "CHART_MODELS",
    "ALGEBRAIC_MODELS",
]


def standard_phi(m: int) -> HermitianStructure:
    """Block diagonal complex unit: 2x2 rotation blocks [[0, -1], [1, 0]]."""
    if m % 2 != 0:
        raise ValueError(f"even dimension required, got m={m}")
    phi = np.zeros((m, m))
    for j in range(m // 2):
        phi[2 * j, 2 * j + 1] = -1.0
        phi[2 * j + 1, 2 * j] = 1.0
    return HermitianStructure(phi)


def _square_norm(u: np.ndarray) -> np.ndarray:
    """|u|^2 over the last axis as an elementwise sum, as the metric
    callbacks round it; finite difference curvature amplifies any change
    to that rounding."""
    return (u * u).sum(axis=-1)


def _dot_square_norm(u: np.ndarray) -> np.ndarray:
    """|u|^2 over the last axis as the dot product u @ u of each point,
    as the derivative callbacks round it."""
    return (u[..., None, :] @ u[..., :, None])[..., 0, 0]


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Outer products over the last axis, (..., m) to (..., m, m)."""
    return u[..., :, None] * v[..., None, :]


def _linear_quadratic(u: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_a u_a c1[a] and sum_ab u_a u_b c2[a, b] for u of shape (..., m),
    each one matrix product over the stack."""
    m = u.shape[-1]
    lead = u.shape[:-1] + (m, m)
    flat = u.reshape(-1, m)
    uu = (flat[:, :, None] * flat[:, None, :]).reshape(-1, m * m)
    lin = flat @ c1.reshape(m, m * m)
    quad = uu @ c2.reshape(m * m, m * m)
    return lin.reshape(lead), quad.reshape(lead)


def _conformally_flat(m: int, c: float, a: float, sigma: float, domain, name: str) -> MetricChart:
    """Chart for g = phi * identity with phi = c / q^2, q = a + sigma |u|^2.

    d_k phi = k1 u_k / q^3 and d_k d_l phi = k1 delta_kl / q^3
    + k2 u_k u_l / q^4, with k1 = -4 sigma c and k2 = 24 sigma^2 c.
    """
    eye = np.eye(m)
    k1 = -4.0 * sigma * c
    k2 = 24.0 * sigma**2 * c

    def metric(u):
        return np.multiply.outer(c / (a + sigma * _square_norm(u)) ** 2, eye)

    def d1(u):
        q = (a + sigma * _dot_square_norm(u))[..., None]
        return (k1 * u / q**3)[..., None, None] * eye

    def d2(u):
        q = (a + sigma * _dot_square_norm(u))[..., None, None]
        return (k1 * eye / q**3 + k2 * _outer(u, u) / q**4)[..., None, None] * eye

    return MetricChart(
        dim=m, metric_at=metric, domain=domain, d_metric=d1, d2_metric=d2, name=name, stacked=True
    )


def flat_chart(m: int) -> MetricChart:
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return _conformally_flat(
        m, 1.0, 1.0, 0.0, Box(-5.0 * np.ones(m), 5.0 * np.ones(m)), f"flat(m={m})"
    )


def sphere_chart(m: int, r: float = 1.0) -> MetricChart:
    """Round sphere of radius r in stereographic coordinates:
    g = 4 r^4 / (r^2 + |u|^2)^2 * identity, sectional curvature 1/r^2."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return _conformally_flat(
        m, 4.0 * r**4, r**2, 1.0, Box(-3.0 * np.ones(m), 3.0 * np.ones(m)), f"sphere(m={m},r={r})"
    )


def hyperbolic_chart(m: int) -> MetricChart:
    """Hyperbolic space on the unit ball: g = 4 / (1 - |u|^2)^2 * identity,
    sectional curvature -1."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return _conformally_flat(m, 4.0, 1.0, -1.0, Ball(1.0, margin=0.1), f"hyperbolic(m={m})")


def _projective_family(n: int, sign: float, domain, name: str) -> MetricChart:
    """Shared construction for the projective model and its dual.

    g = [(1 + sign s) I - sign P] / (1 + sign s)^2 with s = |u|^2 and
    P = u u^T + (J u)(J u)^T; sign +1 gives the positive model, -1 the
    negative dual.
    """
    m = 2 * n
    jmat = standard_phi(m).matrix
    eye = np.eye(m)
    # d2P[a, b] = e_a e_b^T + e_b e_a^T + J_a J_b^T + J_b J_a^T with J_a the
    # a-th column of J; it does not depend on the point, and of its m^4
    # entries at most 4 m^2 are nonzero, kept as flat indices and values.
    outer_e = eye[:, None, :, None] * eye[None, :, None, :]
    outer_j = jmat.T[:, None, :, None] * jmat.T[None, :, None, :]
    d2p = outer_e + outer_j
    d2p = d2p + np.transpose(d2p, (1, 0, 2, 3))
    d2p_at = np.flatnonzero(d2p)
    d2p_values = d2p.ravel()[d2p_at]

    def metric(u):
        # (q I - sign P) / q^2 built in place.  Adding all of q I, not
        # only its diagonal, turns the -0 entries of -sign P into +0.
        v = u @ jmat.T
        q = (1.0 + sign * _square_norm(u))[..., None, None]
        g = _outer(v, v)
        g += _outer(u, u)
        g *= -sign
        g += q * eye
        g /= q**2
        return g

    def first_order(u):
        """q, dq[a] = d_a q, P and dP[a, i, j] = d_a P_ij, each with the
        leading axes of u; q is shaped to broadcast against (m, m)."""
        v = u @ jmat.T
        p = _outer(u, u) + _outer(v, v)
        half = eye[:, :, None] * u[..., None, None, :] + jmat.T[:, :, None] * v[..., None, None, :]
        q = (1.0 + sign * _dot_square_norm(u))[..., None, None]
        return q, sign * 2.0 * u, p, half + np.swapaxes(half, -1, -2)

    def d1(u):
        q, dq, p, dp = first_order(u)
        return (
            (-dq[..., None, None] / q[..., None, :, :] ** 2) * eye
            + (2.0 * sign * dq[..., None, None] / q[..., None, :, :] ** 3) * p[..., None, :, :]
            - sign / q[..., None, :, :] ** 2 * dp
        )

    def d2(u):
        """With s = sign and W[c, ij] = (2s/q^3) dP[c, ij] - (3s/q^4) dq_c P_ij,

            d2g[a, b, i, j] = dq_a W[b, ij] + dq_b W[a, ij] + delta_ab (4/q^3) P_ij
                + delta_ij (2 dq_a dq_b/q^3 - 2s delta_ab/q^2) - (s/q^2) d2P[a, b, i, j].

        The first line is one batched product A @ W over c, with
        A[(a, b), c] = dq_a delta_bc + dq_b delta_ac; each delta term is
        one more column of A and row of W.  So the m^4 result is written
        once, and d2P only at its nonzero entries.  Rows (a, b) and (b, a)
        of A are equal, which keeps d2g symmetric in (a, b).
        """
        lead = np.shape(u)[:-1]
        q, dq, p, dp = first_order(np.reshape(u, (-1, m)))
        k = len(dq)
        w = np.empty((k, m + 2, m, m))
        w[:, :m] = 2.0 * sign / q[:, None] ** 3 * dp
        w[:, :m] -= 3.0 * sign / q[:, None] ** 4 * (dq[:, :, None, None] * p[:, None])
        w[:, m] = 4.0 / q**3 * p
        w[:, m + 1] = eye
        a = np.empty((k, m, m, m + 2))
        a[..., :m] = dq[:, :, None, None] * eye + dq[:, None, :, None] * eye[:, None, :]
        a[..., m] = eye
        a[..., m + 1] = 2.0 * _outer(dq, dq) / q**3 - (2.0 * sign / q**2) * eye
        out = a.reshape(k, m * m, m + 2) @ w.reshape(k, m + 2, m * m)
        out.reshape(k, -1)[:, d2p_at] -= (sign / q.reshape(k, 1) ** 2) * d2p_values
        return out.reshape(lead + (m,) * 4)

    return MetricChart(
        dim=m, metric_at=metric, domain=domain, d_metric=d1, d2_metric=d2, name=name, stacked=True
    )


def fubini_study_chart(n: int) -> MetricChart:
    """Complex projective model in inhomogeneous coordinates, m = 2n."""
    if n < 2:
        raise ValueError(f"need complex dimension n >= 2, got {n}")
    m = 2 * n
    return _projective_family(
        n, +1.0, Box(-3.0 * np.ones(m), 3.0 * np.ones(m)), f"fubini_study(n={n})"
    )


def complex_hyperbolic_chart(n: int) -> MetricChart:
    """Negative curvature dual of the projective model, on the unit ball."""
    if n < 2:
        raise ValueError(f"need complex dimension n >= 2, got {n}")
    return _projective_family(n, -1.0, Ball(1.0, margin=0.1), f"complex_hyperbolic(n={n})")


def perturbed_flat_chart(m: int, eps: float, seed: int) -> MetricChart:
    """Flat metric plus a seeded quadratic symmetric perturbation.

    g(u) = I + eps * (C0 + sum_a u_a C1[a] / sqrt(m)
           + sum_ab u_a u_b C2[a, b] / m), all C symmetric with entries
    uniform in [-1, 1], as a polynomial metric.  Positivity is checked on
    a deterministic point sample at construction; generic draws break
    eigenvalue constancy of the conformal part, which is the point of the
    model.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    rng = np.random.default_rng(seed)

    def sym(a):
        return 0.5 * (a + a.T)

    c0 = sym(rng.uniform(-1.0, 1.0, size=(m, m)))
    c1 = np.array([sym(rng.uniform(-1.0, 1.0, size=(m, m))) for _ in range(m)]) / np.sqrt(m)
    c2_raw = np.array(
        [[sym(rng.uniform(-1.0, 1.0, size=(m, m))) for _ in range(m)] for _ in range(m)]
    )
    c2 = 0.5 * (c2_raw + np.transpose(c2_raw, (1, 0, 2, 3))) / m
    chart = polynomial_metric_chart(
        np.eye(m) + eps * c0,
        eps * c1,
        eps * c2,
        extent=0.5,
        name=f"perturbed_flat(m={m},eps={eps},seed={seed})",
    )
    for p in chart.probe_points(16, seed=0):
        chart.metric(p)  # raises DomainError on SPD violation
    for corner in (chart.domain.lo, chart.domain.hi):
        chart.metric(corner)
    return chart


def polynomial_metric_chart(
    constant: np.ndarray,
    linear: np.ndarray | None = None,
    quadratic: np.ndarray | None = None,
    extent: float = 0.5,
    name: str = "polynomial",
) -> MetricChart:
    """Metric patch from explicit polynomial coefficient arrays.

    g(u) = constant + sum_a u_a linear[a] + sum_ab u_a u_b quadratic[a, b].
    This is the machine readable external metric format accepted by the
    command line front end; the coefficients may be nested lists, and
    extent anything float() takes.
    """
    g0 = np.asarray(constant, dtype=float)
    extent = float(extent)
    if g0.ndim != 2 or g0.shape[0] != g0.shape[1]:
        raise ValueError(f"constant term must be square, got {g0.shape}")
    m = g0.shape[0]
    lin = np.zeros((m, m, m)) if linear is None else np.asarray(linear, dtype=float)
    quad = np.zeros((m, m, m, m)) if quadratic is None else np.asarray(quadratic, dtype=float)
    if lin.shape != (m, m, m) or quad.shape != (m, m, m, m):
        raise ValueError("coefficient array shapes must be (m,m,m) and (m,m,m,m)")
    quad = 0.5 * (quad + np.transpose(quad, (1, 0, 2, 3)))

    def metric(u):
        lin_term, quad_term = _linear_quadratic(u, lin, quad)
        return g0 + lin_term + quad_term

    def d1(u):
        return lin + 2.0 * np.tensordot(u, quad, axes=([-1], [1]))

    def d2(u):
        return np.broadcast_to(2.0 * quad, np.shape(u)[:-1] + quad.shape)

    chart = MetricChart(
        dim=m,
        metric_at=metric,
        domain=Box(-extent * np.ones(m), extent * np.ones(m)),
        d_metric=d1,
        d2_metric=d2,
        name=name,
        stacked=True,
    )
    for p in chart.probe_points(8, seed=0):
        chart.metric(p)
    return chart


@dataclass(frozen=True)
class ModelSpec:
    """Named model with parameters; kind is chart or algebraic."""

    name: str
    params: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        if self.name in CHART_MODELS:
            return "chart"
        if self.name in ALGEBRAIC_MODELS:
            return "algebraic"
        raise ValueError(f"unknown model name {self.name!r}")


def _algebraic_space_form(m: int, lambda0: float = 1.0) -> CurvatureTensor:
    g = InnerProduct.euclidean(m)
    return CurvatureTensor(lambda0 * r0(g).components, g)


def _algebraic_complex_space_form(n: int, lambda0: float = 1.0, lambda1: float = 1.0) -> CurvatureTensor:
    m = 2 * n
    return complex_space_form_act(lambda0, lambda1, standard_phi(m), InnerProduct.euclidean(m))


CHART_MODELS = {
    "flat": (flat_chart, {"m"}),
    "sphere": (sphere_chart, {"m", "r"}),
    "hyperbolic": (hyperbolic_chart, {"m"}),
    "fubini_study": (fubini_study_chart, {"n"}),
    "complex_hyperbolic": (complex_hyperbolic_chart, {"n"}),
    "perturbed_flat": (perturbed_flat_chart, {"m", "eps", "seed"}),
    "polynomial": (polynomial_metric_chart, {"constant", "linear", "quadratic", "extent"}),
}

ALGEBRAIC_MODELS = {
    "space_form": (_algebraic_space_form, {"m", "lambda0"}),
    "complex_space_form": (_algebraic_complex_space_form, {"n", "lambda0", "lambda1"}),
    "random": (random_act, {"seed", "m", "k"}),
}


def build_model(spec: ModelSpec):
    """Instantiate a model spec; returns a MetricChart or a CurvatureTensor.
    Unknown and missing parameters are a ValueError naming them."""
    kind = spec.kind
    table = CHART_MODELS if kind == "chart" else ALGEBRAIC_MODELS
    builder, allowed = table[spec.name]
    unknown = set(spec.params) - allowed
    if unknown:
        raise ValueError(f"model {spec.name!r} got unknown parameters {sorted(unknown)}")
    signature = inspect.signature(builder)
    try:
        signature.bind(**spec.params)
    except TypeError:
        missing = [
            name
            for name, p in signature.parameters.items()
            if p.default is p.empty and name not in spec.params
        ]
        raise ValueError(f"model {spec.name!r} is missing parameters {missing}") from None
    return builder(**spec.params)
