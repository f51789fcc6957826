"""Curvature of a metric chart: Christoffel symbols, the Riemann tensor,
covariant derivatives, Bianchi residuals, and conformal rescaling.

A chart supplies the metric as a function of coordinates, optionally
with analytic first and second derivative callbacks.  Without
callbacks, derivatives fall back to fourth order central differences:
reach h for first derivatives, an h^(1/2)-scaled outer reach for
second derivatives and for differencing the curvature tensor itself.
The graded steps keep truncation and roundoff balanced for O(1)
charts in 64 bit floats; the fourth order stencil buys about three
decades of Bianchi residual on stiff charts over the three point one.

Sign convention: R_ijkl = g(R(del_i, del_j) del_k, del_l) with
R(x, y) = grad_x grad_y - grad_y grad_x - grad_[x,y], oriented so the
round sphere has R = + R0.  The orientation is pinned by an executable
calibration test against the stereographic sphere chart, not only by
this docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .tensor_core import CurvatureTensor, InnerProduct, max_abs

__all__ = [
    "DomainError",
    "Box",
    "Ball",
    "MetricChart",
    "christoffel",
    "riemann_at",
    "covariant_derivative_riemann",
    "cyclic_bianchi_residual",
    "second_bianchi_residual",
    "covariant_derivative_endo",
    "conformal_rescale",
    "default_probe_points",
    "DEFAULT_FD_STEP",
]

DEFAULT_FD_STEP = 1e-4


class DomainError(ValueError):
    """Point too close to (or outside) the declared chart domain."""


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box needs lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, u: np.ndarray, margin: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lo + margin) and np.all(u <= self.hi - margin))

    def interior_sample(self, count: int, seed: int, dim: int | None = None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        span = self.hi - self.lo
        # Stay in the middle 60 percent so finite difference stencils fit.
        t = rng.uniform(0.2, 0.8, size=(count, len(span)))
        return self.lo + t * span


@dataclass(frozen=True)
class Ball:
    radius: float
    margin: float = 0.1

    def contains(self, u: np.ndarray, margin: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.linalg.norm(u) <= self.radius - self.margin - margin)

    def interior_sample(self, count: int, seed: int, dim: int | None = None) -> np.ndarray:
        if dim is None:
            raise ValueError("ball sampling needs the chart dimension")
        rng = np.random.default_rng(seed)
        out = []
        limit = 0.6 * (self.radius - self.margin)
        while len(out) < count:
            v = rng.uniform(-limit, limit, size=dim)
            if np.linalg.norm(v) <= limit:
                out.append(v)
        return np.array(out)


@dataclass(frozen=True)
class MetricChart:
    """A metric patch: coordinates to SPD matrices, plus derivative mode.

    d_metric(u)[a, i, j] and d2_metric(u)[a, b, i, j] hold the first and
    second coordinate derivatives of the metric when supplied; both must
    be present for the chart to count as analytic.
    """

    dim: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    domain: Box | Ball
    d_metric: Callable[[np.ndarray], np.ndarray] | None = None
    d2_metric: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = DEFAULT_FD_STEP
    name: str = ""

    @property
    def analytic(self) -> bool:
        return self.d_metric is not None and self.d2_metric is not None

    @property
    def step2(self) -> float:
        """Outer reach for second derivative stencils."""
        return 0.1 * np.sqrt(self.fd_step)

    @property
    def step3(self) -> float:
        """Outer reach when differencing the curvature tensor itself.

        Analytic charts evaluate curvature to near machine precision, so
        a small reach balances the fourth order truncation against eps/h
        roundoff; finite difference charts carry smooth stencil bias and
        want the wider second derivative reach.
        """
        return 3.0 * self.fd_step if self.analytic else 5.0 * self.step2

    def metric(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"point shape {u.shape} does not match chart dimension {self.dim}")
        g = np.asarray(self.metric_at(u), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError(f"metric callback returned shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise DomainError(f"metric is not finite at u={u}")
        if max_abs(g - g.T) > 1e-9 * max(1.0, max_abs(g)):
            raise ValueError(f"metric is not symmetric at u={u}")
        try:
            np.linalg.cholesky(0.5 * (g + g.T))
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"metric is singular or indefinite at u={u}") from exc
        return 0.5 * (g + g.T)

    def require_interior(self, u: np.ndarray, extent: float) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if not self.domain.contains(u, margin=extent):
            raise DomainError(
                f"point {u} within {extent:.2e} of the domain boundary of chart "
                f"{self.name or '<anonymous>'}"
            )
        return u

    def probe_points(self, count: int, seed: int = 1) -> np.ndarray:
        return self.domain.interior_sample(count, seed, dim=self.dim)


def _stencil4(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray, a: int, reach: float) -> np.ndarray:
    """Fourth order central difference of f along coordinate a.

    Evaluates at u +- reach/2 and u +- reach, so the stencil never
    leaves a ball of the given reach around u; truncation O(reach^4).
    """
    k = 0.5 * reach
    e = np.zeros(len(u))
    e[a] = k
    fp2 = np.asarray(f(u + 2.0 * e), dtype=float)
    fp1 = np.asarray(f(u + e), dtype=float)
    fm1 = np.asarray(f(u - e), dtype=float)
    fm2 = np.asarray(f(u - 2.0 * e), dtype=float)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * k)


def _metric_d1(chart: MetricChart, u: np.ndarray) -> np.ndarray:
    """First derivatives dg[a, i, j] = d_a g_ij, analytic or central."""
    if chart.d_metric is not None:
        return np.asarray(chart.d_metric(u), dtype=float)
    h = chart.fd_step
    m = chart.dim
    out = np.empty((m, m, m))
    for a in range(m):
        out[a] = _stencil4(chart.metric_at, u, a, h)
    return out


def _metric_d2(chart: MetricChart, u: np.ndarray) -> np.ndarray:
    """Second derivatives d2[a, b, i, j], symmetrized in (a, b)."""
    if chart.d2_metric is not None:
        d2 = np.asarray(chart.d2_metric(u), dtype=float)
    else:
        m = chart.dim
        d2 = np.empty((m, m, m, m))
        for b in range(m):
            d2[:, b] = _stencil4(lambda v: _metric_d1(chart, v), u, b, chart.step2)
    return 0.5 * (d2 + np.swapaxes(d2, 0, 1))


def _christoffel_from(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    ginv = np.linalg.inv(g)
    s = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("kl,ijl->kij", ginv, s)


def christoffel(chart: MetricChart, u: np.ndarray) -> np.ndarray:
    """Connection coefficients Gamma[k, i, j], symmetric in (i, j).

    Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).
    """
    u = chart.require_interior(u, extent=2.0 * chart.fd_step)
    return _christoffel_from(chart.metric(u), _metric_d1(chart, u))


def _christoffel_d1(chart: MetricChart, u: np.ndarray) -> np.ndarray:
    """dGamma[a, k, i, j] = d_a Gamma^k_ij."""
    m = chart.dim
    if chart.analytic:
        g = chart.metric(u)
        dg = _metric_d1(chart, u)
        d2g = _metric_d2(chart, u)
        ginv = np.linalg.inv(g)
        dginv = -np.einsum("kp,apq,ql->akl", ginv, dg, ginv)
        s = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
        # d_a S_ijl from the symmetrized second derivatives.
        ds = (
            d2g
            + np.transpose(d2g, (0, 2, 1, 3))
            - np.transpose(d2g, (0, 2, 3, 1))
        )
        return 0.5 * (
            np.einsum("akl,ijl->akij", dginv, s) + np.einsum("kl,aijl->akij", ginv, ds)
        )
    def gamma_at(v: np.ndarray) -> np.ndarray:
        return _christoffel_from(chart.metric(v), _metric_d1(chart, v))

    out = np.empty((m, m, m, m))
    for a in range(m):
        out[a] = _stencil4(gamma_at, u, a, chart.step2)
    return out


def _symmetrize_curvature(c: np.ndarray) -> np.ndarray:
    """Project onto the pair antisymmetry + pair interchange class.

    The true curvature tensor lies in this class exactly, so the
    projection only removes finite difference error.  The cyclic
    identity is deliberately not enforced; it stays a live diagnostic.
    """
    c = 0.5 * (c - np.swapaxes(c, 0, 1))
    c = 0.5 * (c - np.swapaxes(c, 2, 3))
    return 0.5 * (c + np.transpose(c, (2, 3, 0, 1)))


def riemann_at(chart: MetricChart, u: np.ndarray) -> tuple[CurvatureTensor, InnerProduct]:
    """Fully covariant Riemann tensor and the metric at a point."""
    u = chart.require_interior(u, extent=2.0 * (chart.step2 + chart.fd_step))
    g = chart.metric(u)
    gamma = _christoffel_from(g, _metric_d1(chart, u))
    dgamma = _christoffel_d1(chart, u)
    comps = (
        np.einsum("sl,isjk->ijkl", g, dgamma)
        - np.einsum("sl,jsik->ijkl", g, dgamma)
        + np.einsum("sl,sit,tjk->ijkl", g, gamma, gamma, optimize=True)
        - np.einsum("sl,sjt,tik->ijkl", g, gamma, gamma, optimize=True)
    )
    # Stencils call metric_at directly, so a non-finite value off the
    # centre point first shows here.
    if not np.all(np.isfinite(comps)):
        raise DomainError(f"curvature is not finite at u={u}")
    metric = InnerProduct(g)
    return CurvatureTensor(_symmetrize_curvature(comps), metric), metric


def covariant_derivative_riemann(chart: MetricChart, u: np.ndarray) -> np.ndarray:
    """Covariant derivative of the curvature, components [i, j, k, l, n].

    nabla_n R_ijkl = d_n R_ijkl minus one Christoffel correction per
    tensor slot.
    """
    k3 = chart.step3
    u = chart.require_interior(u, extent=k3 + 2.0 * (chart.step2 + chart.fd_step))
    m = chart.dim

    def riemann_comps(v: np.ndarray) -> np.ndarray:
        return riemann_at(chart, v)[0].components

    dr = np.empty((m, m, m, m, m))
    for n in range(m):
        dr[n] = _stencil4(riemann_comps, u, n, k3)
    r, _ = riemann_at(chart, u)
    gamma = _christoffel_from(chart.metric(u), _metric_d1(chart, u))
    rc = r.components
    corr = (
        np.einsum("sni,sjkl->ijkln", gamma, rc)
        + np.einsum("snj,iskl->ijkln", gamma, rc)
        + np.einsum("snk,ijsl->ijkln", gamma, rc)
        + np.einsum("snl,ijks->ijkln", gamma, rc)
    )
    return np.transpose(dr, (1, 2, 3, 4, 0)) - corr


def cyclic_bianchi_residual(nabla_r: np.ndarray) -> float:
    """Max-norm of the cyclic sum over the derivative slot and the first
    two tensor slots; an identity (= 0) for any Levi-Civita curvature."""
    t = (
        np.einsum("bckla->abckl", nabla_r)
        + np.einsum("caklb->abckl", nabla_r)
        + np.einsum("abklc->abckl", nabla_r)
    )
    return max_abs(t)


def second_bianchi_residual(chart: MetricChart, u: np.ndarray) -> float:
    """Differential Bianchi residual; a pipeline correctness oracle,
    near zero for every metric when the numerics are healthy."""
    return cyclic_bianchi_residual(covariant_derivative_riemann(chart, u))


def covariant_derivative_endo(
    chart: MetricChart,
    phi_field: Callable[[np.ndarray], np.ndarray],
    u: np.ndarray,
) -> np.ndarray:
    """Covariant derivative of an endomorphism field, output [a, i, j].

    (nabla_a Phi) = d_a Phi + [Gamma_a, Phi] with (Gamma_a)^i_j the
    connection matrix Gamma^i_{a j}.
    """
    u = chart.require_interior(u, extent=2.0 * chart.fd_step)
    m = chart.dim
    h = chart.fd_step
    phi0 = np.asarray(phi_field(u), dtype=float)
    if phi0.shape != (m, m):
        raise ValueError(f"endomorphism field returned shape {phi0.shape}")
    gamma = christoffel(chart, u)
    out = np.empty((m, m, m))
    for a in range(m):
        dphi = _stencil4(phi_field, u, a, h)
        ga = gamma[:, a, :]
        out[a] = dphi + ga @ phi0 - phi0 @ ga
    return out


def conformal_rescale(
    chart: MetricChart,
    alpha: Callable[[np.ndarray], float],
    d_alpha: Callable[[np.ndarray], np.ndarray] | None = None,
    d2_alpha: Callable[[np.ndarray], np.ndarray] | None = None,
    check_points: int = 16,
) -> MetricChart:
    """Chart with metric alpha(u) g(u) for a positive scaling function.

    Positivity is checked on a deterministic sample of interior points
    at construction.  Analytic derivative mode survives only when the
    base chart is analytic and both alpha derivative callbacks are
    supplied; otherwise the result degrades to finite differences.
    """
    for p in chart.probe_points(check_points, seed=0):
        val = float(alpha(p))
        if not val > 0.0:
            raise ValueError(f"conformal factor must be positive, got {val} at u={p}")

    base_metric = chart.metric_at

    def scaled_metric(u: np.ndarray) -> np.ndarray:
        return float(alpha(u)) * np.asarray(base_metric(u), dtype=float)

    new_d1 = None
    new_d2 = None
    if chart.analytic and d_alpha is not None:
        base_d1 = chart.d_metric

        def scaled_d1(u: np.ndarray) -> np.ndarray:
            g = np.asarray(base_metric(u), dtype=float)
            dg = np.asarray(base_d1(u), dtype=float)
            da = np.asarray(d_alpha(u), dtype=float)
            return float(alpha(u)) * dg + np.einsum("a,ij->aij", da, g)

        new_d1 = scaled_d1
        if d2_alpha is not None:
            base_d2 = chart.d2_metric

            def scaled_d2(u: np.ndarray) -> np.ndarray:
                g = np.asarray(base_metric(u), dtype=float)
                dg = np.asarray(base_d1(u), dtype=float)
                d2g = np.asarray(base_d2(u), dtype=float)
                da = np.asarray(d_alpha(u), dtype=float)
                d2a = np.asarray(d2_alpha(u), dtype=float)
                return (
                    float(alpha(u)) * d2g
                    + np.einsum("ab,ij->abij", d2a, g)
                    + np.einsum("a,bij->abij", da, dg)
                    + np.einsum("b,aij->abij", da, dg)
                )

            new_d2 = scaled_d2

    return replace(
        chart,
        metric_at=scaled_metric,
        d_metric=new_d1,
        d2_metric=new_d2,
        name=f"{chart.name}*alpha" if chart.name else "rescaled",
    )


def default_probe_points(chart: MetricChart, count: int = 5, seed: int = 1) -> np.ndarray:
    """Deterministic interior evaluation points: a small origin offset
    followed by seeded samples away from the boundary."""
    pts = [np.full(chart.dim, 0.05)]
    if count > 1:
        pts.extend(chart.probe_points(count - 1, seed=seed))
    out = np.array(pts)
    for p in out:
        if not chart.domain.contains(p, margin=0.05):
            raise DomainError(f"probe point {p} escapes the chart domain")
    return out
