"""Value types and frame algebra for rank-4 curvature tensors.

Conventions used throughout the package:

* A rank-4 tensor ``A`` stores fully covariant components
  ``A[i, j, k, l] = A(e_i, e_j, e_k, e_l)``.
* An algebraic curvature tensor (ACT) satisfies antisymmetry in the
  first and last index pairs, pair interchange symmetry, and the cyclic
  (first Bianchi) identity on the first three slots.
* Tangent vectors are plain length-m numpy arrays; endomorphisms act as
  ``v -> M @ v``.
* The tensor norm is the max absolute component.  Spectral and
  classification work always happens in an orthonormal frame, where
  that norm is frame-honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tiers

__all__ = [
    "InnerProduct",
    "HermitianStructure",
    "CurvatureTensor",
    "symmetry_residual",
    "orthonormal_frame",
    "transform_tensor",
    "self_adjoint_residual",
    "skew_adjoint_residual",
    "max_abs",
]


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


def max_abs(a) -> float:
    """Max absolute entry of an array or of a CurvatureTensor's components."""
    if isinstance(a, CurvatureTensor):
        a = a.components
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    # Two reductions in place of forming |a|.  np.maximum keeps a NaN, and
    # adding +0.0 turns the -0.0 of an all-(-0.0) array into +0.0.
    return float(np.maximum(a.max(), -a.min())) + 0.0


@dataclass(frozen=True)
class InnerProduct:
    """Positive definite symmetric bilinear form on an m-dimensional space.

    Parameters
    ----------
    g : (m, m) array
        Finite, symmetric positive definite matrix.  Symmetry is checked
        to a fixed tolerance and positivity via a Cholesky attempt.
    """

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"inner product must be a square matrix, got shape {g.shape}")
        if g.shape[0] < 2:
            raise ValueError(f"dimension must be at least 2, got {g.shape[0]}")
        if not np.all(np.isfinite(g)):
            raise ValueError("inner product matrix has non-finite entries")
        if max_abs(g - g.T) > tiers.INNER_PRODUCT_SYMMETRY * max(1.0, max_abs(g)):
            raise ValueError("inner product matrix is not symmetric")
        g = 0.5 * (g + g.T)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise ValueError("inner product matrix is not positive definite") from exc
        object.__setattr__(self, "g", _as_readonly(g))

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @classmethod
    def euclidean(cls, m: int) -> "InnerProduct":
        return cls(np.eye(m))

    def pair(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.g @ y)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.pair(x, x), 0.0)))

    def is_euclidean(self, tol: float = tiers.EUCLIDEAN_FRAME) -> bool:
        return max_abs(self.g - np.eye(self.dim)) <= tol


@dataclass(frozen=True)
class HermitianStructure:
    """Almost complex structure compatible with a metric.

    Invariants (relative to a metric g, checked by :meth:`validate`):
    ``Phi^2 = -I``, skew-adjointness ``g Phi = -Phi^T g`` and
    orthogonality ``Phi^T g Phi = g``.  Skewness plus ``Phi^2 = -I``
    already force orthogonality; all three residuals are still reported
    because downstream recovery code degrades them independently.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"almost complex structure must be square, got shape {mat.shape}")
        if mat.shape[0] % 2 != 0:
            raise ValueError("almost complex structures exist only in even dimensions")
        if not np.all(np.isfinite(mat)):
            raise ValueError("almost complex structure has non-finite entries")
        object.__setattr__(self, "matrix", _as_readonly(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def residuals(self, g: InnerProduct | None = None) -> dict:
        """Residuals of the three compatibility invariants: square,
        skew-adjointness, orthogonality; g defaults to the Euclidean one."""
        if g is None:
            g = InnerProduct.euclidean(self.dim)
        phi = self.matrix
        return {
            "square": max_abs(phi @ phi + np.eye(self.dim)),
            "skew": skew_adjoint_residual(phi, g),
            "orthogonality": max_abs(phi.T @ g.g @ phi - g.g),
        }

    def validate(
        self, g: InnerProduct | None = None, tol: float = tiers.HERMITIAN_INVARIANTS
    ) -> None:
        res = self.residuals(g)
        bad = {k: v for k, v in res.items() if not v <= tol}
        if bad:
            raise ValueError(f"Hermitian structure invariants violated: {bad}")


@dataclass(frozen=True)
class CurvatureTensor:
    """Fully covariant rank-4 tensor with an attached inner product.

    Construction does not force the curvature symmetries; use
    :func:`symmetry_residual` to measure them.  Finite difference
    pipelines produce small violations by nature and the residual is a
    first-class diagnostic.  The components are kept as a read-only,
    C-contiguous copy, so reshaping them makes no copy; non-finite
    entries are a ValueError.
    """

    components: np.ndarray
    metric: InnerProduct

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.ndim != 4 or len(set(comps.shape)) != 1:
            raise ValueError(f"components must have shape (m, m, m, m), got {comps.shape}")
        if comps.shape[0] != self.metric.dim:
            raise ValueError(
                f"tensor dimension {comps.shape[0]} does not match metric dimension {self.metric.dim}"
            )
        # max_abs is NaN or inf exactly when some component is, and needs
        # no m^4 mask.
        if not np.isfinite(max_abs(comps)):
            raise ValueError("curvature components have non-finite entries")
        object.__setattr__(self, "components", _as_readonly(comps))

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def max_abs(self) -> float:
        return max_abs(self.components)


def symmetry_residual(a: CurvatureTensor) -> float:
    """Worst violation of the curvature symmetries, as a max-norm.

    Checks antisymmetry in slots (0,1) and (2,3), pair interchange, and
    the cyclic sum over the first three slots.  Returns 0 for an exact
    algebraic curvature tensor.
    """
    c = a.components
    buf = np.empty_like(c)
    res = max_abs(np.add(c, np.swapaxes(c, 0, 1), out=buf))
    res = max(res, max_abs(np.add(c, np.swapaxes(c, 2, 3), out=buf)))
    res = max(res, max_abs(np.subtract(c, np.transpose(c, (2, 3, 0, 1)), out=buf)))
    np.add(c, np.transpose(c, (2, 0, 1, 3)), out=buf)
    buf += np.transpose(c, (1, 2, 0, 3))
    return max(res, max_abs(buf))


def orthonormal_frame(g: InnerProduct) -> np.ndarray:
    """Basis transform B with ``B^T g B = I``, via Cholesky.

    Deterministic for a given metric: B is the inverse transpose of the
    lower triangular Cholesky factor.
    """
    chol = np.linalg.cholesky(g.g)
    return np.linalg.inv(chol).T


def transform_tensor(a: CurvatureTensor, b: np.ndarray) -> CurvatureTensor:
    """Pull back a tensor through the basis transform ``x -> B x``.

    The result represents the same multilinear map in the new basis:
    ``A'(x, y, z, w) = A(Bx, By, Bz, Bw)``, with the inner product
    pulled back to ``B^T g B``.
    """
    b = np.asarray(b, dtype=float)
    m = a.dim
    if b.shape != (m, m):
        raise ValueError(f"basis transform shape {b.shape} does not match tensor dimension {m}")
    # Each contraction takes the leading slot and appends the new index,
    # so after four the slots are back in order.  The transposed view goes
    # to the product as it is, without the copy tensordot would make.
    comps = a.components
    for _ in range(4):
        comps = (comps.reshape(m, m**3).T @ b).reshape(m, m, m, m)
    new_g = InnerProduct(b.T @ a.metric.g @ b)
    return CurvatureTensor(comps, new_g)


def self_adjoint_residual(psi: np.ndarray, g: InnerProduct) -> float:
    """Max-norm of ``g Psi - Psi^T g``; zero iff Psi is g-self-adjoint."""
    gp = g.g @ psi
    return max_abs(gp - gp.T)


def skew_adjoint_residual(phi: np.ndarray, g: InnerProduct) -> float:
    """Max-norm of ``g Phi + Phi^T g``; zero iff Phi is g-skew-adjoint."""
    gp = g.g @ phi
    return max_abs(gp + gp.T)
