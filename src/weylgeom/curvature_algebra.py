"""Canonical curvature tensors and the conformal (Weyl) decomposition.

The decomposition splits any algebraic curvature tensor ``A`` as

    A = W + c1 * tau * R0 + c2 * L,
    c1 = -1 / ((m - 1) (m - 2)),   c2 = 1 / (m - 2),

where ``R0`` is the constant curvature tensor of the metric, ``L`` is
built from the Ricci form, ``tau`` is the scalar curvature, and ``W``
is the trace free conformal part.  Ricci contraction is carried out in
the tensor's own frame, with the inverse metric; an orthonormal frame
reduces it to a plain trace.

Two generator families produce exact algebraic curvature tensors:

    A_Psi(x, y, z, w) = g(Psi x, w) g(Psi y, z) - g(Psi x, z) g(Psi y, w)

for a g-self-adjoint Psi, and

    A_Phi(x, y, z, w) = g(Phi x, w) g(Phi y, z) - g(Phi x, z) g(Phi y, w)
                        - 2 g(Phi x, y) g(Phi z, w)

for a g-skew-adjoint Phi.  ``A_Id`` reproduces ``R0``, and
``L = A_{Id+rho} - A_Id - A_rho`` with rho the Ricci operator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tiers
from .tensor_core import (
    CurvatureTensor,
    HermitianStructure,
    InnerProduct,
    max_abs,
    self_adjoint_residual,
    skew_adjoint_residual,
    symmetry_residual,
)

__all__ = [
    "CurvatureDecomposition",
    "r0",
    "ricci_scalar",
    "l_tensor",
    "weyl_decompose",
    "a_psi",
    "a_phi",
    "draw_act_generators",
    "sum_psi_generators",
    "random_act",
    "complex_space_form_act",
    "weyl_constants",
]


def weyl_constants(m: int) -> tuple[float, float]:
    """The pair (c1, c2) of decomposition constants for dimension m."""
    if m < 3:
        raise ValueError(f"decomposition constants are undefined for m={m}; need m >= 3")
    return -1.0 / ((m - 1) * (m - 2)), 1.0 / (m - 2)


@dataclass(frozen=True)
class CurvatureDecomposition:
    """Result of the conformal decomposition of a curvature tensor.

    Attributes
    ----------
    r : CurvatureTensor
        The input tensor.
    ricci : (m, m) array
        Covariant Ricci form in the same frame as ``r``.
    tau : float
        Scalar curvature.
    w : CurvatureTensor
        Conformal part; trace free in the Jacobi sense.
    c1, c2 : float
        Dimension constants used in the reconstruction.
    """

    r: CurvatureTensor
    ricci: np.ndarray
    tau: float
    w: CurvatureTensor
    c1: float
    c2: float

    @property
    def dim(self) -> int:
        return self.r.dim

    def reconstruction_residual(self) -> float:
        """Max-norm of R - (W + c1 tau R0 + c2 L); roundoff level by construction."""
        g = self.r.metric
        rebuilt = (
            self.w.components
            + self.c1 * self.tau * r0(g).components
            + self.c2 * l_tensor(self.ricci, g).components
        )
        return max_abs(self.r.components - rebuilt)


def _pair_products(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The array e_li e_kj - e_ki e_lj at [i, j, k, l], and the outer
    product o[i, j, k, l] = e_ji e_lk whose two transposed views it is
    the difference of."""
    o = np.multiply.outer(e.T, e.T)
    return np.subtract(o.transpose(0, 2, 3, 1), o.transpose(0, 2, 1, 3)), o


def r0(g: InnerProduct) -> CurvatureTensor:
    """Constant curvature tensor: (R0)_ijkl = g_jk g_il - g_ik g_jl."""
    return CurvatureTensor(_pair_products(g.g)[0], g)


def ricci_scalar(a: CurvatureTensor) -> tuple[np.ndarray, float]:
    """Ricci form and scalar curvature of a curvature tensor.

    The contraction rho_ij = g^kl A_iklj and tau = g^ij rho_ij run in the
    tensor's own frame; for a Euclidean metric they are the plain traces
    rho_ij = sum_k A_ikkj and tau = sum_i rho_ii.  The returned form is
    symmetrized, and tau is taken from the symmetrized form.

    The input must pass the curvature symmetry check to a loose
    tolerance, RICCI_CONTRACTION_SYMMETRY; a ValueError says otherwise.
    """
    res = symmetry_residual(a)
    if not res <= tiers.RICCI_CONTRACTION_SYMMETRY * max(1.0, a.max_abs()):
        raise ValueError(f"symmetry residual {res:.3e} too large for Ricci contraction")
    if a.metric.is_euclidean():
        rho = np.einsum("ikkj->ij", a.components)
        rho = 0.5 * (rho + rho.T)
        return rho, float(np.trace(rho))
    ginv = np.linalg.inv(a.metric.g)
    rho = np.tensordot(a.components, ginv, axes=([1, 2], [0, 1]))
    rho = 0.5 * (rho + rho.T)
    return rho, float(np.sum(ginv * rho))


def l_tensor(rho: np.ndarray, g: InnerProduct) -> CurvatureTensor:
    """Ricci part of the decomposition, from the covariant Ricci form.

    L_ijkl = rho_jk g_il - rho_ik g_jl + g_jk rho_il - g_ik rho_jl.
    """
    rho = np.asarray(rho, dtype=float)
    if not max_abs(rho - rho.T) <= tiers.RICCI_FORM_SYMMETRY * max(1.0, max_abs(rho)):
        raise ValueError("Ricci form must be symmetric")
    gm = g.g
    comps = (
        np.einsum("jk,il->ijkl", rho, gm)
        - np.einsum("ik,jl->ijkl", rho, gm)
        + np.einsum("jk,il->ijkl", gm, rho)
        - np.einsum("ik,jl->ijkl", gm, rho)
    )
    return CurvatureTensor(comps, g)


def weyl_decompose(a: CurvatureTensor) -> CurvatureDecomposition:
    """Split a curvature tensor into conformal, scalar and Ricci parts.

    Requires m >= 3 for the constants; conformal classification is
    meaningful from m = 4 up.  The input must pass ricci_scalar's symmetry
    check.  The reconstruction identity R = W + c1 tau R0 + c2 L holds
    to roundoff by construction.
    """
    c1, c2 = weyl_constants(a.dim)
    rho, tau = ricci_scalar(a)
    # c1 tau R0 + c2 L = K (x) g, the Kulkarni-Nomizu product of
    # K = c2 rho + (c1 tau / 2) g with g, so W = A - K (x) g.
    gm = a.metric.g
    k = c2 * rho + (0.5 * c1 * tau) * gm
    w = CurvatureTensor(_minus_kulkarni_nomizu(a.components, k, gm), a.metric)
    return CurvatureDecomposition(r=a, ricci=rho, tau=tau, w=w, c1=c1, c2=c2)


def _minus_kulkarni_nomizu(a: np.ndarray, k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A - K (x) g for symmetric K and g, in one fresh array, where
    (K (x) g)_ijkl = K_jk g_il + g_jk K_il - K_ik g_jl - g_ik K_jl."""
    m = g.shape[0]
    # e[i, l, j, k] = g_il K_jk + K_il g_jk is one rank-2 product over the
    # index pairs (il) and (jk); its [i, j, k, l] view minus the same view
    # with i and j swapped is K (x) g.
    left = np.stack([g, k]).reshape(2, m * m)
    right = np.stack([k, g]).reshape(2, m * m)
    e = (left.T @ right).reshape(m, m, m, m).transpose(0, 2, 3, 1)
    out = np.subtract(a, e)
    out += e.swapaxes(0, 1)
    return out


def a_psi(psi: np.ndarray, g: InnerProduct) -> CurvatureTensor:
    """Curvature generator of a g-self-adjoint endomorphism, given as its
    matrix."""
    mat = np.asarray(psi, dtype=float)
    res = self_adjoint_residual(mat, g)
    if not res <= tiers.GENERATOR_ADJOINT * max(1.0, max_abs(mat)):
        raise ValueError(f"endomorphism is not g-self-adjoint (residual {res:.3e})")
    # E_li = g(Psi e_i, e_l); E is symmetric exactly when Psi is g-self-adjoint.
    e = g.g @ mat
    return CurvatureTensor(_pair_products(e)[0], g)


def a_phi(phi: HermitianStructure | np.ndarray, g: InnerProduct) -> CurvatureTensor:
    """Curvature generator of a skew-adjoint endomorphism.

    For a Hermitian almost complex structure this is the complex space
    form building block; the output is invariant under Phi -> -Phi.
    """
    mat = phi.matrix if isinstance(phi, HermitianStructure) else np.asarray(phi, dtype=float)
    res = skew_adjoint_residual(mat, g)
    if not res <= tiers.GENERATOR_ADJOINT * max(1.0, max_abs(mat)):
        raise ValueError(f"endomorphism is not g-skew-adjoint (residual {res:.3e})")
    comps, o = _pair_products(g.g @ mat)
    o *= 2.0
    comps -= o
    return CurvatureTensor(comps, g)


def draw_act_generators(seed: int, m: int, k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Deterministic draw of k symmetric generators and coefficients.

    Entries are uniform in [-1, 1], symmetrized; exposed separately so
    the summation path is testable with handpicked generators.
    """
    if k < 1:
        raise ValueError(f"need at least one generator, got k={k}")
    rng = np.random.default_rng(seed)
    psis = []
    for _ in range(k):
        raw = rng.uniform(-1.0, 1.0, size=(m, m))
        psis.append(0.5 * (raw + raw.T))
    coeffs = rng.uniform(-1.0, 1.0, size=k)
    return psis, coeffs


def sum_psi_generators(
    psis: list[np.ndarray], coeffs: np.ndarray, g: InnerProduct
) -> CurvatureTensor:
    """Weighted sum of self-adjoint generators; exact ACT by construction."""
    if len(psis) != len(coeffs):
        raise ValueError("generator and coefficient counts differ")
    total = np.zeros((g.dim,) * 4)
    for psi, c in zip(psis, coeffs):
        total = total + float(c) * a_psi(psi, g).components
    return CurvatureTensor(total, g)


def random_act(seed: int, m: int, k: int | None = None) -> CurvatureTensor:
    """Random algebraic curvature tensor, deterministic in the seed.

    Sums k generator tensors with random coefficients in the Euclidean
    frame; k defaults to m.  Generic draws land far from any Osserman
    eigenstructure, which makes them useful negative controls.
    """
    if k is None:
        k = m
    psis, coeffs = draw_act_generators(seed, m, k)
    return sum_psi_generators(psis, coeffs, InnerProduct.euclidean(m))


def complex_space_form_act(
    lambda0: float,
    lambda1: float,
    phi: HermitianStructure,
    g: InnerProduct | None = None,
) -> CurvatureTensor:
    """Curvature tensor lambda0 R0 + lambda1 A_Phi of a complex space form.

    lambda1 = 0 is allowed but degenerates to a real space form; a
    warning flags that case since the complex structure then carries no
    information.
    """
    if g is None:
        g = InnerProduct.euclidean(phi.dim)
    if g.dim % 2 != 0:
        raise ValueError("complex space forms need even dimension")
    phi.validate(g)
    if lambda1 == 0.0:
        warnings.warn("degenerate: space form (lambda1 = 0)", stacklevel=2)
        return CurvatureTensor(lambda0 * r0(g).components, g)
    comps = lambda0 * r0(g).components + lambda1 * a_phi(phi, g).components
    return CurvatureTensor(comps, g)
