"""Curvature of a metric chart: Christoffel symbols, the Riemann tensor,
its covariant derivative, Bianchi residuals, and conformal rescaling.

A chart supplies the metric as a function of coordinates, optionally
with analytic first and second derivative callbacks.  Without both,
one fourth order stencil on the metric, of reach h^(1/2)/4 for h =
fd_step, gives the metric and its first and second derivatives: along
each axis, and for a mixed derivative d_a d_b along the two diagonals
e_a + e_b and e_a - e_b, 1 + 4m^2 metric points in all.  One
curvature formula serves both modes; the covariant derivative of the
curvature differences d2g alone, at twice that reach, takes the
derivatives of the Christoffel symbols exactly from the point's own jet
and joins them by the product rule.  The reaches,
chosen against analytic curvature, keep truncation and roundoff balanced
for O(1) charts in 64 bit floats; the fourth order stencil buys about
three decades of Bianchi residual on stiff charts over the three point
one.  A stencil point that rounds onto its centre is a DomainError.
Curvature is evaluated on a stack of points at once: the metric, its
derivatives, Gamma and R are batched over the stack, and every
callback sees a block of points per call when the chart is stacked.

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

from . import tiers
from .tensor_core import CurvatureTensor, InnerProduct, max_abs

__all__ = [
    "DomainError",
    "Box",
    "Ball",
    "MetricChart",
    "christoffel",
    "riemann_at",
    "riemann_with_derivative",
    "cyclic_bianchi_residual",
    "second_bianchi_residual",
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
        limit = 0.6 * (self.radius - self.margin)
        # A uniform direction times a radius of density r^(dim - 1) is
        # uniform in the ball (M. E. Muller, Comm. ACM 2, 1959), at a cost
        # that does not grow with dim as rejection from the cube does.
        v = rng.standard_normal((count, dim))
        r = limit * rng.uniform(size=count) ** (1.0 / dim)
        return v * (r / np.sqrt(np.vecdot(v, v)))[:, None]


@dataclass(frozen=True)
class MetricChart:
    """A metric patch: coordinates to SPD matrices, plus derivative mode.

    d_metric(u)[a, i, j] and d2_metric(u)[a, b, i, j] hold the first and
    second coordinate derivatives of the metric when supplied; both must
    be present for the chart to count as analytic.  A chart with only
    one is a finite difference chart, and that callback is not called.
    d2_metric(u)[a, b] must be symmetric in (a, b), as a second
    derivative is: curvature takes the callback's values as they are.

    A chart that sets ``stacked`` declares that each of its callbacks
    also maps a stack of points, shape (N, m), to a stack of values:
    metric_at to (N, m, m), d_metric to (N, m, m, m) and d2_metric to
    (N, m, m, m, m), evaluating each point as the single point call
    would.  Curvature then reaches the callbacks in blocks of points
    instead of one call per point; without the flag every point is its
    own call.
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
        """Reach of the metric stencil of a finite difference chart."""
        return 0.25 * np.sqrt(self.fd_step)

    @property
    def step3(self) -> float:
        """Outer reach of the nabla R stencil, which differences d2g, the
        one part of the jet that curvature is built from not known at
        the point itself.

        Analytic charts evaluate the jet to near machine precision, so
        a small reach balances the fourth order truncation against eps/h
        roundoff; finite difference charts carry smooth stencil bias and
        want a reach wider than the metric stencil's.
        """
        return 3.0 * self.fd_step if self.analytic else 2.0 * self.step2

    def callback_stack(self, f: Callable, us: np.ndarray, rank: int) -> np.ndarray:
        """Values of the callback f (metric_at, d_metric or d2_metric,
        whose values have `rank` axes of length m) at a stack of points:
        one call for a stacked chart, one per point otherwise."""
        us = np.asarray(us, dtype=float)
        if self.stacked:
            out = np.asarray(f(us), dtype=float)
        else:
            out = np.array([np.asarray(f(u), dtype=float) for u in us])
        if out.shape != (len(us),) + (self.dim,) * rank:
            raise ValueError(f"callback returned shape {out.shape} for {len(us)} point(s)")
        return out

    def _validated(self, us: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Symmetrized metrics g at the points us after the finiteness,
        symmetry and positivity checks; the first offending point in
        stack order raises, with its coordinates in the message."""
        gt = g.transpose(0, 2, 1)
        with np.errstate(invalid="ignore", over="ignore"):
            scale = np.maximum(1.0, np.abs(g).max(axis=(1, 2)))
            asym = np.abs(g - gt).max(axis=(1, 2)) > tiers.CHART_METRIC_SYMMETRY * scale
            sym = 0.5 * (g + gt)
        # The symmetrized metric is the one returned: a finite g can
        # overflow in the sum.
        finite = np.isfinite(sym).all(axis=(1, 2))
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

    def _point(self, u: np.ndarray) -> np.ndarray:
        """u as a float point; a shape other than (dim,) is a ValueError."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"point shape {u.shape} does not match chart dimension {self.dim}")
        return u

    def metric(self, u: np.ndarray) -> np.ndarray:
        u = self._point(u)
        return self._validated(u[None], self.callback_stack(self.metric_at, u[None], 2))[0]

    def require_interior(self, u: np.ndarray, extent: float) -> np.ndarray:
        u = self._point(u)
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


# One block of the nabla R pass holds whole derivative axes, four
# stencil points each, and at most this many floats of per-point
# temporaries, but at least one axis: the jet's m^4 d2g for an analytic
# chart, the (1 + 4m^2) m^2 metric values at the point's _jet_stencil
# otherwise, which give all axes one block at m = 4, blocks of 3 axes at
# m = 6 and one axis a block from m = 8.
# Stacking pays while the temporaries stay in cache.  One analytic pass
# (fubini_study, 2 vCPUs, one BLAS thread, best of 40 at m = 8 and of 7
# at m = 16 in three rounds on a noisy host) in blocks of 1, 2, 4 or 8
# axes took 2.4-3.7, 2.0-3.0, 1.5-2.2 and 1.3-2.0 ms at m = 8, where the
# budget gives 4 axes, and 29-36, 29-35 and 36-46 ms (1, 2, 4) at
# m = 16, where it gives 1.
_CURVATURE_FLOATS = 2**16


def _stencil(u: np.ndarray, reach: float) -> np.ndarray:
    """The 4m points of the fourth order central stencil around each
    point of u, shape (..., m) to (..., 4m, m): axis by axis, the
    offsets +reach, +reach/2, -reach/2 and -reach along it."""
    k = 0.5 * reach
    m = u.shape[-1]
    steps = np.array([2.0 * k, k, -k, -2.0 * k])
    return u[..., None, :] + (np.eye(m)[:, None, :] * steps[:, None]).reshape(4 * m, m)


def _jet_stencil(u: np.ndarray, reach: float) -> np.ndarray:
    """Each point of u, its 4m _stencil points and, for each axis pair
    a < b, the 8 points u + s (e_a + e_b) and then u + s (e_a - e_b)
    over the _stencil offsets s: shape (n, m) to (n, 1 + 4m^2, m).  No
    point moves more than `reach` along any axis."""
    m = u.shape[-1]
    axis = _stencil(np.zeros(m), reach).reshape(m, 4, m)
    a, b = np.triu_indices(m, 1)
    pairs = np.stack([axis[a] + axis[b], axis[a] - axis[b]], axis=1)
    offsets = np.concatenate([np.zeros((1, m)), axis.reshape(-1, m), pairs.reshape(-1, m)])
    return u[:, None] + offsets


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


def _metric_jet(
    chart: MetricChart, us: np.ndarray, head: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated metrics g[n, i, j] and derivatives dg[n, a, i, j] at the
    first `head` points of a stack, all of them by default, and
    d2g[n, a, b, i, j] at every point: the one place where the
    derivative mode picks a formula.  An analytic chart calls d2_metric
    once on the stack, and metric_at and d_metric once on its head
    unless that is empty, and returns the metric validated and both
    derivatives as the callbacks give them; d2g is symmetric in (a, b)
    by the MetricChart contract.  Otherwise one metric call covers the
    _jet_stencil points of the whole stack at reach step2, whatever the
    head, and every difference is a fourth order
    central one, of four points for a first derivative and five for a
    second (B. Fornberg, Math. Comp. 51, 1988).  dg and the diagonal of
    d2g are taken along each axis, and for a != b

        d_a d_b g = (D2(e_a + e_b) - D2(e_a - e_b)) / 4

    with D2(d) the second derivative along d, in which the centre's term
    cancels, so each pair costs 8 points.  d2g is symmetric in (a, b)
    bit for bit.  The points and their axis points are validated; a
    non-finite metric at a pair point shows as non-finite curvature.
    """
    n, m = us.shape
    if chart.analytic:
        top = us[:head]
        g, dg = np.empty((0, m, m)), np.empty((0, m, m, m))
        if len(top):
            g = chart._validated(top, chart.callback_stack(chart.metric_at, top, 2))
            dg = chart.callback_stack(chart.d_metric, top, 3)
        return g, dg, chart.callback_stack(chart.d2_metric, us, 4)
    h, axial = chart.step2, 4 * m + 1
    points = _jet_stencil(us, h)
    _require_distinct(us, points[:, 1:axial], h)
    values = chart.callback_stack(chart.metric_at, points.reshape(-1, m), 2).reshape(n, -1, m, m)
    core = chart._validated(points[:, :axial].reshape(-1, m), values[:, :axial].reshape(-1, m, m))
    core = core.reshape(n, axial, m, m)
    g = core[:, 0]
    fp2, fp1, fm1, fm2 = _by_offset(core[:, 1:], 1)
    dg = _central((fp2, fp1, fm1, fm2), h)
    d2g = np.empty((n, m, m, m, m))
    i, (a, b) = np.arange(m), np.triu_indices(m, 1)
    d2g[:, i, i] = (16.0 * (fp1 + fm1) - fp2 - fm2 - 30.0 * g[:, None]) / (3.0 * h * h)
    # Per pair, the values along e_a + e_b less those along e_a - e_b,
    # one per _stencil offset.
    grid = values[:, axial:].reshape(n, -1, 2, 4, m, m)
    dp2, dp1, dm1, dm2 = np.moveaxis(grid[:, :, 0] - grid[:, :, 1], 2, 0)
    d2g[:, a, b] = d2g[:, b, a] = (16.0 * (dp1 + dm1) - dp2 - dm2) / (12.0 * h * h)
    return g[:head], dg[:head], d2g


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """S[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij from dg[..., a, i, j];
    applied to second derivatives d2g[..., b, a, i, j] it gives d_b S."""
    s = dg + np.swapaxes(dg, -3, -2)
    s -= np.moveaxis(dg, -3, -1)
    return s


def _christoffel_from(ginv: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols of both kinds at a stack of points, from
    g^-1[n, k, l] and dg[n, a, i, j]: the first kind
    Gamma_{l,ij} = (1/2) S_ijl as [n, (ij), l] and the second kind
    Gamma^k_ij = g^kl Gamma_{l,ij} as [n, k, i, j]."""
    n, m = ginv.shape[:2]
    first = _first_kind(dg).reshape(n, m * m, m)
    first *= 0.5
    return first, (ginv @ np.swapaxes(first, 1, 2)).reshape(n, m, m, m)


def christoffel(chart: MetricChart, u: np.ndarray) -> np.ndarray:
    """Connection coefficients Gamma[k, i, j], symmetric in (i, j).

    Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).
    """
    u = chart.require_interior(u, extent=2.0 * chart.step2)
    g, dg, _ = _metric_jet(chart, u[None])
    return _christoffel_from(np.linalg.inv(g), dg)[1][0]


def _symmetrize_curvature(c: np.ndarray) -> np.ndarray:
    """Project onto the pair antisymmetry + pair interchange class, over
    the last four axes.

    The true curvature tensor lies in this class exactly, so the
    projection only removes finite difference error.  The cyclic
    identity is deliberately not enforced; it stays a live diagnostic.
    """
    c = 0.5 * (c - np.swapaxes(c, -4, -3))
    c = 0.5 * (c - np.swapaxes(c, -2, -1))
    return 0.5 * (c + np.moveaxis(c, (-2, -1), (-4, -3)))


def _curvature(us: np.ndarray, d2g: np.ndarray, first: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Lowered curvature L[n, i, j, k, l] at a stack of points us[n] from
    their second derivatives d2g[n, b, a, i, j] and Christoffel symbols
    of both kinds from _christoffel_from; the one place that forms L.

    L_ijkl = g_sl (d_i Gamma^s_jk + Gamma^s_it Gamma^t_jk) is R before
    its (i, j) antisymmetrization: R = 2 _symmetrize_curvature(L), bit for
    bit the projection of L_ijkl - L_jikl.  The projection is linear, so
    it commutes with a central difference of L.

    L is built from the first kind symbols Gamma_{l,ij} = (1/2) S_ijl of
    _first_kind, with no derivative of Gamma^s_jk and no lowering by g:
    g_sl d_i Gamma^s_jk = d_i Gamma_{l,jk} - (d_i g_sl) Gamma^s_jk, and
    Gamma_{l,is} - d_i g_sl = -Gamma_{s,il}, so

        L_ijkl = (1/2) d_i S_jkl - Gamma_{s,il} Gamma^s_jk,

    one m^5 product per point.  Both derivative modes run this formula
    on the metric jet of _metric_jet, which makes one call of each
    callback it uses.
    """
    n, m = us.shape
    # [n, (i l), (j k)] = Gamma_{s,il} Gamma^s_jk.
    squares = (first @ gamma.reshape(n, m, m * m)).reshape((n,) + (m,) * 4)
    lowered = _first_kind(d2g)
    lowered *= 0.5
    lowered -= np.moveaxis(squares, 2, 4)
    # Every metric is validated, but differences of finite metrics can
    # still overflow.
    _require_finite(us, "curvature", lowered)
    return lowered


def _require_finite(us: np.ndarray, what: str, a: np.ndarray) -> None:
    """DomainError naming the first point of the stack us at which the
    array a, with a leading axis over us, is not finite."""
    finite = np.isfinite(a).reshape(len(us), -1).all(axis=1)
    if not finite.all():
        raise DomainError(f"{what} is not finite at u={us[int(finite.argmin())]}")


def _require_distinct(us: np.ndarray, points: np.ndarray, reach: float) -> None:
    """DomainError when a stencil point points[n, p] of reach `reach`
    rounds onto its centre us[n]: a difference over it would divide
    rounding noise by the reach."""
    same = (points == us[:, None]).all(axis=-1).any(axis=-1)
    if same.any():
        raise DomainError(
            f"difference step {reach:.3g} vanishes at u={us[int(same.argmax())]}: "
            "a stencil point rounds onto it"
        )


def riemann_at(chart: MetricChart, u: np.ndarray) -> tuple[CurvatureTensor, InnerProduct]:
    """Fully covariant Riemann tensor and the metric at a point."""
    u = chart.require_interior(u, extent=2.0 * chart.step2)
    g, dg, d2g = _metric_jet(chart, u[None])
    lowered = _curvature(u[None], d2g, *_christoffel_from(np.linalg.inv(g), dg))[0]
    del d2g  # the m^4 d2g, before the projection's temporaries
    metric = InnerProduct(g[0])
    return CurvatureTensor(2.0 * _symmetrize_curvature(lowered), metric), metric


def riemann_with_derivative(
    chart: MetricChart, u: np.ndarray
) -> tuple[CurvatureTensor, np.ndarray, np.ndarray]:
    """riemann_at's tensor, the covariant derivative of the curvature,
    components [i, j, k, l, n], and the Christoffel symbols
    Gamma[k, i, j] at u, from one pass.  A nabla R axis whose
    differences overflow is a DomainError.

    nabla_n R = d_n R minus one correction Gamma^s_np R_..s.. per slot p.
    With P = _symmetrize_curvature and L from _curvature, R = 2 P(L), and
    P commutes with d_n.  R lies in P's class, so the four corrections
    sum to 4 P(C), C[i, jkl] = Gamma^s_ni R_sjkl: slot j follows from i
    by pair antisymmetry, k and l by pair interchange.  Each axis n is
    one product and one projection, 2 P(d_n L - 2 C).

    d_n L is not a difference of L but the product rule at the point,

        d_n L = (1/2) _first_kind(d_n d2g)
                - moveaxis((d_n first) gamma + first (d_n gamma)),

    with first and gamma the point's Christoffel symbols.  Only the
    third derivatives d_n d2g come from a stencil: it evaluates d2g
    alone at its 4m points, in blocks of whole axes within the
    _CURVATURE_FLOATS budget, the point itself riding with the first,
    and differences each axis in one weighted sum of its four values
    (B. Fornberg, Math. Comp. 51, 1988).  The derivatives of both
    Christoffel kinds are exact from the point's jet g, dg and d2g; see
    _christoffel_derivative.  An analytic chart so sees one call of
    metric_at and of d_metric, at the point, and one of d2_metric per
    block; L's m^4 work runs once per axis.
    """
    k3 = chart.step3
    m = chart.dim
    # Each stencil point moves at most k3 along one axis, so this margin
    # leaves riemann_at's own margin around it: per coordinate for a Box,
    # by the triangle inequality for a Ball.
    u = chart.require_interior(u, extent=k3 + 2.0 * chart.step2)
    stencil = _stencil(u, k3)
    _require_distinct(u[None], stencil[None], k3)
    per_point = m**4 if chart.analytic else (1 + 4 * m * m) * m * m
    per_block = max(1, _CURVATURE_FLOATS // (4 * per_point))
    weights = _central(np.eye(4), k3)
    for lo in range(0, m, per_block):
        axes = slice(lo, lo + per_block)
        us = stencil[4 * lo : 4 * axes.stop]
        if lo == 0:
            g, dg, d2g = _metric_jet(chart, np.concatenate([u[None], us]), head=1)
            ginv = np.linalg.inv(g)
            first, gamma = _christoffel_from(ginv, dg)
            rc = 2.0 * _symmetrize_curvature(_curvature(u[None], d2g[:1], first, gamma)[0])
            g, dg, ginv, first, gamma = g[0], dg[0], ginv[0], first[0], gamma[0]
            # The point's d2g serves every block: a copy, so that the
            # stencil rows of this block can go.
            d2g_c, d2g = d2g[0].copy(), d2g[1:]
        else:
            d2g = _metric_jet(chart, us, head=0)[2]
        _require_finite(us, "metric jet", d2g)
        d_d2g = weights @ d2g.reshape(len(us) // 4, 4, -1)
        del d2g
        if lo == 0:
            # Once the first block's jet, a point larger than the
            # others, is gone.
            out = np.empty((m,) * 5)
        d_christoffel = _christoffel_derivative(ginv, dg[axes], d2g_c[axes], gamma)
        half = _half_nabla_r(axes, rc, first, gamma, d_d2g, *d_christoffel)
        del d_d2g
        np.multiply(half, 2.0, out=out[axes])
        del half
        _require_finite(u[None], "nabla R", out[axes][None])
    return CurvatureTensor(rc, InnerProduct(g)), np.moveaxis(out, 0, -1), gamma


def _christoffel_derivative(
    ginv: np.ndarray, dg: np.ndarray, d2g: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives along some axes n of the Christoffel symbols of both
    kinds at one point, exact from its jet: from g^-1[k, l], the rows
    dg[n, l, s] and d2g[n, a, i, j] of those axes, and Gamma^k_ij,

        d_n Gamma_{l,ij} = (1/2) _first_kind(d2g[n])_ijl,
        d_n Gamma^k_ij = g^kl (d_n Gamma_{l,ij} - d_n g_ls Gamma^s_ij),

    the second by d(g^-1) = -g^-1 (dg) g^-1, as _christoffel_from lays
    out its two kinds."""
    k, m = len(d2g), len(ginv)
    d_first, d_gamma = _christoffel_from(np.broadcast_to(ginv, (k, m, m)), d2g)
    d_gamma -= (ginv @ dg @ gamma.reshape(m, m * m)).reshape(d_gamma.shape)
    return d_first, d_gamma


def _half_nabla_r(
    axes: slice,
    rc: np.ndarray,
    first: np.ndarray,
    gamma: np.ndarray,
    d_d2g: np.ndarray,
    d_first: np.ndarray,
    d_gamma: np.ndarray,
) -> np.ndarray:
    """nabla_n R / 2 = P(d_n L - 2 C[n]) for the derivative axes n in
    `axes` (see riemann_with_derivative), from the centre's R and
    Christoffel symbols of both kinds, the central differences of d2g
    along those axes, one flat row per axis, and the derivatives of the
    Christoffel symbols along them from _christoffel_derivative."""
    k, m = len(d_d2g), len(rc)
    d = _first_kind(d_d2g.reshape((k,) + (m,) * 4))
    d *= 0.5
    # d_n (first gamma) = [d_n first, first] [gamma; d_n gamma].
    left = np.concatenate([d_first.reshape(k, m * m, m), np.broadcast_to(first, (k, m * m, m))], 2)
    right = np.concatenate(
        [np.broadcast_to(gamma.reshape(m, m * m), (k, m, m * m)), d_gamma.reshape(k, m, m * m)], 1
    )
    d -= np.moveaxis((left @ right).reshape(d.shape), 2, 4)
    # C[n, i, jkl] = Gamma^s_ni R_sjkl.
    d -= (2.0 * np.transpose(gamma[:, axes], (1, 2, 0)) @ rc.reshape(m, -1)).reshape(d.shape)
    return _symmetrize_curvature(d)


def cyclic_bianchi_residual(nabla_r: np.ndarray) -> float:
    """Max-norm of the cyclic sum over the derivative slot and the first
    two tensor slots, one m^4 slab per derivative index; an identity
    (= 0) for any Levi-Civita curvature."""
    d = np.moveaxis(nabla_r, -1, 0)  # D[a, b, c] + D[b, c, a] + D[c, a, b]
    slabs = [max_abs(d[a] + d[:, :, a] + np.swapaxes(d[:, a], 0, 1)) for a in range(len(d))]
    return max_abs(np.array(slabs))


def second_bianchi_residual(chart: MetricChart, u: np.ndarray) -> float:
    """Differential Bianchi residual; a pipeline correctness oracle,
    near zero for every metric when the numerics are healthy."""
    return cyclic_bianchi_residual(riemann_with_derivative(chart, u)[1])


def conformal_rescale(
    chart: MetricChart,
    alpha: Callable[[np.ndarray], float],
    d_alpha: Callable[[np.ndarray], np.ndarray] | None = None,
    d2_alpha: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MetricChart:
    """Chart with metric alpha(u) g(u) for a positive scaling function.

    Positivity is checked on a deterministic sample of interior points
    at construction.  Analytic derivative mode survives only when the
    base chart is analytic and both alpha derivative callbacks are
    supplied; otherwise the result degrades to finite differences.  The
    result is stacked when the base chart is; alpha and its derivative
    callbacks are still called once per point.
    """
    for p in chart.probe_points(16, seed=0):
        val = float(alpha(p))
        if not val > 0.0:
            raise ValueError(f"conformal factor must be positive, got {val} at u={p}")

    base_metric = chart.metric_at

    def per_point(f: Callable, u: np.ndarray, rank: int) -> np.ndarray:
        # alpha and its derivatives take one point, also when a stacked
        # chart passes a stack.
        vals = [np.asarray(f(p), dtype=float) for p in u.reshape(-1, chart.dim)]
        return np.array(vals).reshape(u.shape[:-1] + (chart.dim,) * rank)

    def scaled_metric(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return per_point(alpha, u, 0)[..., None, None] * np.asarray(base_metric(u), dtype=float)

    new_d1 = None
    new_d2 = None
    if chart.analytic and d_alpha is not None and d2_alpha is not None:
        base_d1 = chart.d_metric
        base_d2 = chart.d2_metric

        def scaled_d1(u: np.ndarray) -> np.ndarray:
            u = np.asarray(u, dtype=float)
            g = np.asarray(base_metric(u), dtype=float)
            dg = np.asarray(base_d1(u), dtype=float)
            da = per_point(d_alpha, u, 1)
            return (
                per_point(alpha, u, 0)[..., None, None, None] * dg
                + da[..., :, None, None] * g[..., None, :, :]
            )

        def scaled_d2(u: np.ndarray) -> np.ndarray:
            u = np.asarray(u, dtype=float)
            g = np.asarray(base_metric(u), dtype=float)
            dg = np.asarray(base_d1(u), dtype=float)
            d2g = np.asarray(base_d2(u), dtype=float)
            da = per_point(d_alpha, u, 1)
            # The user's d2_alpha is made symmetric, and the two cross
            # terms are summed first, so that d2g is symmetric in (a, b)
            # bit for bit whenever the base chart's is.
            d2a = per_point(d2_alpha, u, 2)
            d2a = 0.5 * (d2a + np.swapaxes(d2a, -1, -2))
            cross = da[..., :, None, None, None] * dg[..., None, :, :, :]
            return (
                per_point(alpha, u, 0)[..., None, None, None, None] * d2g
                + d2a[..., :, :, None, None] * g[..., None, None, :, :]
                + (cross + np.swapaxes(cross, -4, -3))
            )

        new_d1, new_d2 = scaled_d1, scaled_d2

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
