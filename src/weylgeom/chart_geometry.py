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
The nested stencil points of one curvature evaluation reach the metric
through MetricChart.metric_stack, a block of points per metric_at call
when the chart is stacked.

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

    A chart that sets ``stacked`` declares that metric_at also maps a
    stack of points, shape (N, m), to a stack of metrics, shape
    (N, m, m), evaluating each point as the single point call would.
    Finite difference stencils then reach metric_at in blocks of points
    instead of one call per point; without the flag every point is its
    own call.  Derivative callbacks always take one point.
    """

    dim: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    domain: Box | Ball
    d_metric: Callable[[np.ndarray], np.ndarray] | None = None
    d2_metric: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = DEFAULT_FD_STEP
    name: str = ""
    stacked: bool = False

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

    def metric_stack(self, us: np.ndarray) -> np.ndarray:
        """Unvalidated metric_at values at a stack of points, (N, m) to
        (N, m, m): one callback call for a stacked chart, one per point
        otherwise."""
        us = np.asarray(us, dtype=float)
        if self.stacked:
            g = np.asarray(self.metric_at(us), dtype=float)
        else:
            g = np.array([np.asarray(self.metric_at(u), dtype=float) for u in us])
        if g.shape != (len(us), self.dim, self.dim):
            raise ValueError(f"metric callback returned shape {g.shape} for {len(us)} point(s)")
        return g

    def _validated(self, us: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Symmetrized metrics g at the points us after the finiteness,
        symmetry and positivity checks; the first offending point in
        stack order raises, with its coordinates in the message."""
        finite = np.isfinite(g).all(axis=(1, 2))
        gt = g.transpose(0, 2, 1)
        with np.errstate(invalid="ignore"):
            scale = np.maximum(1.0, np.abs(g).max(axis=(1, 2)))
            asym = np.abs(g - gt).max(axis=(1, 2)) > 1e-9 * scale
        sym = 0.5 * (g + gt)
        bad = ~finite | asym
        first = int(bad.argmax()) if bad.any() else len(g)
        try:
            np.linalg.cholesky(sym[:first])
        except np.linalg.LinAlgError as exc:
            u = next(u for u, s in zip(us, sym) if not _positive_definite(s))
            raise DomainError(f"metric is singular or indefinite at u={u}") from exc
        if first < len(g):
            u = us[first]
            if not finite[first]:
                raise DomainError(f"metric is not finite at u={u}")
            raise ValueError(f"metric is not symmetric at u={u}")
        return sym

    def metric(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"point shape {u.shape} does not match chart dimension {self.dim}")
        return self._validated(u[None], self.metric_stack(u[None]))[0]

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


def _positive_definite(g: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


# Metric values of one block of stacked stencil points stay within this
# many floats, so the nested stencils of a finite difference curvature
# evaluation do not raise the process's memory high-water mark.
_STACK_FLOATS = 2**13


def _stencil(u: np.ndarray, reach: float) -> np.ndarray:
    """The 4m points of the fourth order central stencil around each
    point of u, shape (..., m) to (..., 4m, m): axis by axis, the
    offsets +reach, +reach/2, -reach/2 and -reach along it."""
    k = 0.5 * reach
    m = u.shape[-1]
    steps = np.array([2.0 * k, k, -k, -2.0 * k])
    return u[..., None, :] + (np.eye(m)[:, None, :] * steps[:, None]).reshape(4 * m, m)


def _by_offset(f: np.ndarray, axis: int) -> np.ndarray:
    """Values at _stencil points, which run along `axis`, as four arrays
    stacked on axis 0, one per offset; the coordinate index of the
    stencil takes the place of `axis`."""
    return np.moveaxis(f.reshape(f.shape[:axis] + (-1, 4) + f.shape[axis + 1 :]), axis + 1, 0)


def _central(f, reach: float) -> np.ndarray:
    """Fourth order central difference from the four values f at the
    offsets +reach, +reach/2, -reach/2 and -reach along one axis.

    The stencil never leaves a ball of the given reach around its
    centre; truncation O(reach^4).
    """
    fp2, fp1, fm1, fm2 = f
    k = 0.5 * reach
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * k)


def _gradient(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray, reach: float) -> np.ndarray:
    """Central differences of f along every coordinate, stacked on axis 0,
    from one call of f per stencil point; one axis of values is alive at
    a time."""
    points = _stencil(u, reach)
    out = None
    for a in range(len(u)):
        values = [np.asarray(f(v), dtype=float) for v in points[4 * a : 4 * a + 4]]
        if out is None:
            out = np.empty((len(u),) + values[0].shape)
        out[a] = _central(values, reach)
        del values
    return out


def _metric_jet(chart: MetricChart, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated metrics g[n, i, j] and first derivatives dg[n, a, i, j]
    at a stack of points.

    Without a d_metric callback, dg is a central difference at reach
    fd_step, and each point with its stencil is evaluated in one stack;
    only the metrics at the points themselves are validated.
    """
    if chart.d_metric is not None:
        g = chart._validated(centres, chart.metric_stack(centres))
        return g, np.array([np.asarray(chart.d_metric(c), dtype=float) for c in centres])
    n, m = centres.shape
    width = 4 * m + 1
    per_block = max(1, _STACK_FLOATS // (width * m * m))
    raw = np.empty((n, m, m))
    dg = np.empty((n, m, m, m))
    for lo in range(0, n, per_block):
        c = centres[lo : lo + per_block]
        points = np.concatenate([c[:, None], _stencil(c, chart.fd_step)], axis=1)
        values = chart.metric_stack(points.reshape(-1, m)).reshape(len(c), width, m, m)
        raw[lo : lo + len(c)] = values[:, 0]
        dg[lo : lo + len(c)] = _central(_by_offset(values[:, 1:], 1), chart.fd_step)
    return chart._validated(centres, raw), dg


def _christoffel_from(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[n, k, i, j] from stacks g^-1[n, k, l] and dg[n, a, i, j]."""
    s = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("nkl,nijl->nkij", ginv, s)


def christoffel(chart: MetricChart, u: np.ndarray) -> np.ndarray:
    """Connection coefficients Gamma[k, i, j], symmetric in (i, j).

    Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).
    """
    u = chart.require_interior(u, extent=2.0 * chart.fd_step)
    g, dg = _metric_jet(chart, u[None])
    return _christoffel_from(np.linalg.inv(g), dg)[0]


def _christoffel_d1(chart: MetricChart, u: np.ndarray, ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """dGamma[a, k, i, j] = d_a Gamma^k_ij of an analytic chart, given
    g^-1 and dg at u."""
    d2g = np.asarray(chart.d2_metric(u), dtype=float)
    d2g = 0.5 * (d2g + np.swapaxes(d2g, 0, 1))
    dginv = -(ginv @ dg @ ginv)
    s = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    # d_a S_ijl from the symmetrized second derivatives.
    ds = d2g + np.transpose(d2g, (0, 2, 1, 3)) - np.transpose(d2g, (0, 2, 3, 1))
    # [a, k, i, j] = dginv[a, k, l] s[i, j, l] + ginv[k, l] ds[a, i, j, l]
    return 0.5 * (np.tensordot(dginv, s, axes=([2], [2])) + np.moveaxis(ds @ ginv.T, 3, 1))


def _symmetrize_curvature(c: np.ndarray) -> np.ndarray:
    """Project onto the pair antisymmetry + pair interchange class.

    The true curvature tensor lies in this class exactly, so the
    projection only removes finite difference error.  The cyclic
    identity is deliberately not enforced; it stays a live diagnostic.
    """
    c = 0.5 * (c - np.swapaxes(c, 0, 1))
    c = 0.5 * (c - np.swapaxes(c, 2, 3))
    return 0.5 * (c + np.transpose(c, (2, 3, 0, 1)))


def _curvature(chart: MetricChart, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Riemann components, metric and Gamma at u; no domain check.

    An analytic chart evaluates each callback once at u.  Otherwise
    dGamma is a central difference of Gamma at reach step2, and the
    metric jets at u and at that stencil's points come from one
    _metric_jet stack.
    """
    centres = u[None] if chart.analytic else np.concatenate([u[None], _stencil(u, chart.step2)])
    gs, dgs = _metric_jet(chart, centres)
    ginvs = np.linalg.inv(gs)
    gammas = _christoffel_from(ginvs, dgs)
    g, gamma = gs[0], gammas[0]
    if chart.analytic:
        dgamma = _christoffel_d1(chart, u, ginvs[0], dgs[0])
    else:
        dgamma = _central(_by_offset(gammas[1:], 0), chart.step2)
    # R_ijkl = g_sl (d_i Gamma^s_jk + Gamma^s_it Gamma^t_jk) minus the
    # same with i and j swapped: lower once, then antisymmetrize.
    upper = dgamma + np.swapaxes(np.tensordot(gamma, gamma, axes=([2], [0])), 0, 1)
    lowered = np.tensordot(upper, g, axes=([1], [0]))
    comps = lowered - np.swapaxes(lowered, 0, 1)
    # Only the metrics at the Gamma stencil points are validated, so a
    # non-finite value at a dg stencil point first shows here.
    if not np.all(np.isfinite(comps)):
        raise DomainError(f"curvature is not finite at u={u}")
    return _symmetrize_curvature(comps), g, gamma


def riemann_at(chart: MetricChart, u: np.ndarray) -> tuple[CurvatureTensor, InnerProduct]:
    """Fully covariant Riemann tensor and the metric at a point."""
    u = chart.require_interior(u, extent=2.0 * (chart.step2 + chart.fd_step))
    comps, g, _ = _curvature(chart, u)
    metric = InnerProduct(g)
    return CurvatureTensor(comps, metric), metric


def covariant_derivative_riemann(chart: MetricChart, u: np.ndarray) -> np.ndarray:
    """Covariant derivative of the curvature, components [i, j, k, l, n].

    nabla_n R_ijkl = d_n R_ijkl minus one Christoffel correction per
    tensor slot.
    """
    k3 = chart.step3
    # Each stencil point moves at most k3 along one axis, so this margin
    # leaves riemann_at's own margin around it: per coordinate for a Box,
    # by the triangle inequality for a Ball.
    u = chart.require_interior(u, extent=k3 + 2.0 * (chart.step2 + chart.fd_step))
    out = np.moveaxis(_gradient(lambda v: _curvature(chart, v)[0], u, k3), 0, -1)
    rc, _, gamma = _curvature(chart, u)
    # Slot p of R contracted with Gamma^s_np lands as axes (..., n, p);
    # move p back into place.  Subtracting in place keeps one m^5
    # temporary alive at a time.
    for slot in range(4):
        out -= np.moveaxis(np.tensordot(rc, gamma, axes=([slot], [0])), -1, slot)
    return out


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
    phi0 = np.asarray(phi_field(u), dtype=float)
    if phi0.shape != (chart.dim, chart.dim):
        raise ValueError(f"endomorphism field returned shape {phi0.shape}")
    ga = np.moveaxis(christoffel(chart, u), 1, 0)
    return _gradient(phi_field, u, chart.fd_step) + ga @ phi0 - phi0 @ ga


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
    supplied; otherwise the result degrades to finite differences.  The
    result is stacked when the base chart is; alpha is still called
    once per point.
    """
    for p in chart.probe_points(check_points, seed=0):
        val = float(alpha(p))
        if not val > 0.0:
            raise ValueError(f"conformal factor must be positive, got {val} at u={p}")

    base_metric = chart.metric_at

    def scaled_metric(u: np.ndarray) -> np.ndarray:
        # alpha takes one point, also when a stacked chart passes a stack.
        u = np.asarray(u, dtype=float)
        scale = np.array([float(alpha(p)) for p in u.reshape(-1, chart.dim)])
        return scale.reshape(u.shape[:-1] + (1, 1)) * np.asarray(base_metric(u), dtype=float)

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
