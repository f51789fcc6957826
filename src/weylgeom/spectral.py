"""Jacobi operators, reduced spectra, and the direction constancy test.

The Jacobi operator of a curvature tensor A in direction x is the self
adjoint map defined by g(J(x) y, z) = A(y, x, x, z); it always kills x.
The reduced operator restricts to the hyperplane orthogonal to x.  The
constancy test samples unit directions and compares sorted reduced
spectra; constant spectra over the sphere of directions is the defining
property this package classifies against.

All operations here require tensors already expressed in an orthonormal
frame (metric = identity); convert with tensor_core.transform_tensor
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tiers
from .tensor_core import CurvatureTensor

__all__ = [
    "SpectralProfile",
    "OssermanReport",
    "jacobi_operator",
    "complement_basis",
    "reduced_jacobi",
    "direction_spectra",
    "structured_spectra",
    "spectral_profile",
    "cluster_spectrum",
    "unit_directions",
    "structured_directions",
    "trace_check",
    "osserman_test",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 64


def _require_orthonormal(a: CurvatureTensor) -> None:
    if not a.metric.is_euclidean(tol=tiers.SPECTRAL_FRAME):
        raise ValueError(
            "spectral operations require an orthonormal frame; "
            "transform the tensor with orthonormal_frame first"
        )


@dataclass(frozen=True)
class SpectralProfile:
    """Clustered eigenvalues of a reduced Jacobi operator.

    clusters: ascending (value, multiplicity) pairs; multiplicities sum
    to m - 1.  spread: the largest eigenvalue width inside any cluster,
    a direct readout of how sharp the clustering was.
    """

    clusters: tuple[tuple[float, int], ...]
    spread: float
    dim: int

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.clusters)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(val for val, _ in self.clusters)

    def __post_init__(self):
        total = sum(m for _, m in self.clusters)
        if total != self.dim - 1:
            raise ValueError(
                f"cluster multiplicities sum to {total}, expected {self.dim - 1}"
            )


@dataclass(frozen=True)
class OssermanReport:
    """Outcome of the eigenvalue constancy test over sampled directions."""

    is_constant: bool
    max_profile_distance: float
    samples: int
    seed: int
    spec_tol: float
    spectra: np.ndarray = field(repr=False)  # (n_directions, m-1) sorted rows

    def __post_init__(self):
        spectra = np.asarray(self.spectra, dtype=float)
        object.__setattr__(self, "spectra", spectra)


_BLOCK_ROWS = 64


def _jacobi_stack(comps: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Jacobi operators J(x)[z, y] = A[y, a, b, z] x_a x_b of the rows of
    dirs, shape (n, m, m)."""
    n, m = dirs.shape
    xx = (dirs[:, :, None] * dirs[:, None, :]).reshape(n, m * m)
    # One (n, m^2) @ (m^2, m) product per y reads a contiguous A in
    # place, without a transposed m^4 copy; the result is [y, n, z].
    return np.transpose(xx @ comps.reshape(m, m * m, m), (1, 2, 0))


def jacobi_operator(a: CurvatureTensor, x: np.ndarray) -> np.ndarray:
    """Matrix of y -> A(y, x, x, .) in the orthonormal frame.

    Self adjoint for any algebraic curvature tensor; quadratic in x, so
    non-unit x is allowed (the constancy test normalizes upstream).
    """
    _require_orthonormal(a)
    return _jacobi_stack(a.components, np.asarray(x, dtype=float)[None, :])[0]


def _complement_bases(dirs: np.ndarray) -> np.ndarray:
    """Householder complements of unit rows, shape (n, m, m - 1)."""
    m = dirs.shape[1]
    v = dirs.copy()
    v[:, 0] += np.where(dirs[:, 0] >= 0, 1.0, -1.0)
    scale = -2.0 / np.einsum("ni,ni->n", v, v)
    h = (scale[:, None] * v)[:, :, None] * v[:, None, :]
    h += np.eye(m)
    return h[:, :, 1:]


def complement_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit x.

    Columns of the returned (m, m-1) matrix; built from a Householder
    reflection, hence deterministic and smooth away from the pole.
    """
    return _complement_bases(np.asarray(x, dtype=float)[None, :])[0]


def _reduce(jac: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Jacobi operators jac of the unit rows of dirs compressed to their
    Householder complements, (n, m-1, m-1)."""
    nrm = np.linalg.norm(dirs, axis=1)
    bad = np.flatnonzero(np.abs(nrm - 1.0) > tiers.UNIT_DIRECTION)
    if bad.size:
        raise ValueError(f"direction must be unit length, got |x| = {float(nrm[bad[0]])!r}")
    p = _complement_bases(dirs)
    return np.swapaxes(p, 1, 2) @ jac @ p


def reduced_jacobi(a: CurvatureTensor, x: np.ndarray) -> np.ndarray:
    """Jacobi operator restricted to the complement of unit x."""
    _require_orthonormal(a)
    x = np.asarray(x, dtype=float)[None, :]
    return _reduce(_jacobi_stack(a.components, x), x)[0]


def _spectra(dirs: np.ndarray, jacobi) -> np.ndarray:
    """Ascending reduced spectra of the unit rows of dirs, shape (n, m - 1);
    jacobi(block) gives the Jacobi operators of the rows dirs[block].

    Rows are solved in fixed blocks, which bounds the memory of the
    stacked operators.
    """
    spectra = np.empty((dirs.shape[0], dirs.shape[1] - 1))
    for start in range(0, dirs.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        spectra[block] = _self_adjoint_eigvalsh(_reduce(jacobi(block), dirs[block]))
    return spectra


def direction_spectra(a: CurvatureTensor, dirs: np.ndarray) -> np.ndarray:
    """Ascending reduced Jacobi spectra of the unit rows of dirs, one row
    each, shape (n, m - 1).

    A row that is not unit length, or whose reduced operator is not self
    adjoint, raises ValueError.
    """
    _require_orthonormal(a)
    dirs = np.asarray(dirs, dtype=float)
    return _spectra(dirs, lambda block: _jacobi_stack(a.components, dirs[block]))


def _structured_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes i, j and signs s of the structured_directions rows, in order:
    (i, i, 0) for each axis, then (i, j, +1) and (i, j, -1) for each
    i < j in row-major order."""
    iu, ju = np.triu_indices(m, 1)
    axes = np.arange(m)
    i = np.concatenate([axes, np.repeat(iu, 2)])
    j = np.concatenate([axes, np.repeat(ju, 2)])
    s = np.concatenate([np.zeros(m), np.tile([1.0, -1.0], iu.size)])
    return i, j, s


def _structured_rows(m: int, i: np.ndarray, j: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The unit rows (e_i + s e_j)/sqrt2 of a pair index, and e_i for an axis."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    dirs = np.zeros((i.size, m))
    dirs[np.arange(m), i[:m]] = 1.0
    pairs = np.arange(m, i.size)
    dirs[pairs, i[m:]] = inv_sqrt2
    dirs[pairs, j[m:]] = s[m:] * inv_sqrt2
    return dirs


def _structured_jacobi(ab: np.ndarray, i: np.ndarray, j: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Jacobi operators of the structured rows (i, j, s), read off slices
    of the tensor, shape (n, m, m).

    With T_ab[z, y] = A[y, a, b, z], held in ab[y, a m + b, z],
    J(e_i) = T_ii and J((e_i + s e_j)/sqrt2) = (T_ii + T_jj)/2 +
    s (T_ij + T_ji)/2.  An axis row has i = j and s = 0, for which the
    formula gives T_ii exactly.
    """
    m = ab.shape[0]
    jac = ab[:, i * m + i] + ab[:, j * m + j]
    jac *= 0.5
    cross = ab[:, i * m + j] + ab[:, j * m + i]
    cross *= (0.5 * s)[:, None]
    jac += cross
    return np.transpose(jac, (1, 2, 0))


def structured_spectra(a: CurvatureTensor) -> np.ndarray:
    """Ascending reduced Jacobi spectra of the structured_directions rows,
    shape (m * m, m - 1); the operators come from slices of the tensor
    rather than from a product over all of it."""
    _require_orthonormal(a)
    m = a.dim
    i, j, s = _structured_index(m)
    ab = a.components.reshape(m, m * m, m)
    return _spectra(
        _structured_rows(m, i, j, s),
        lambda block: _structured_jacobi(ab, i[block], j[block], s[block]),
    )


def _self_adjoint_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix, or a stack of matrices, each
    required to be self adjoint."""
    mat = np.asarray(mat, dtype=float)
    mat_t = np.swapaxes(mat, -1, -2)
    skew = np.abs(mat - mat_t).max(axis=(-2, -1), initial=0.0)
    size = np.abs(mat).max(axis=(-2, -1), initial=0.0)
    if np.any(skew > tiers.JACOBI_SELF_ADJOINT * np.maximum(1.0, size)):
        raise ValueError("eigenvalue solve needs a self adjoint matrix")
    sym = mat + mat_t
    sym *= 0.5
    return np.linalg.eigvalsh(sym)


def cluster_spectrum(eig: np.ndarray, cluster_tol: float = tiers.CLUSTER) -> SpectralProfile:
    """Cluster an ascending eigenvalue row by gap threshold.

    Consecutive eigenvalues merge when their gap is at most
    cluster_tol * max(1, max |eig|); cluster values are member means.
    """
    eig = np.asarray(eig, dtype=float)
    scale = max(1.0, float(np.max(np.abs(eig))) if eig.size else 1.0)
    threshold = cluster_tol * scale
    clusters: list[tuple[float, int]] = []
    spread = 0.0
    start = 0
    for i in range(1, len(eig) + 1):
        if i == len(eig) or eig[i] - eig[i - 1] > threshold:
            members = eig[start:i]
            clusters.append((float(np.mean(members)), len(members)))
            spread = max(spread, float(members[-1] - members[0]))
            start = i
    return SpectralProfile(tuple(clusters), spread, dim=len(eig) + 1)


def spectral_profile(mat: np.ndarray, cluster_tol: float = tiers.CLUSTER) -> SpectralProfile:
    """Clustered spectrum of a self adjoint matrix (see cluster_spectrum)."""
    return cluster_spectrum(_self_adjoint_eigvalsh(mat), cluster_tol)


def structured_directions(m: int) -> np.ndarray:
    """Fixed direction set: basis vectors and normalized pairs (e_i +- e_j)/sqrt2."""
    return _structured_rows(m, *_structured_index(m))


def _random_directions(m: int, n: int, seed: int) -> np.ndarray:
    """n Gaussian-normalized draws; a draw whose norm is below the floor
    is a ValueError."""
    v = np.random.default_rng(seed).standard_normal((n, m))
    nrm = np.sqrt(np.vecdot(v, v))
    if np.any(nrm < tiers.DIRECTION_NORM_FLOOR):
        raise ValueError(f"direction draw of seed {seed} has norm below the floor")
    return v / nrm[:, None]


def unit_directions(m: int, n: int, seed: int) -> np.ndarray:
    """Deterministic unit direction sample: the m^2 structured_directions
    rows, then n Gaussian-normalized draws.  The structured part catches
    axis aligned degeneracies that random draws can miss.  A draw whose
    norm is below the floor is a ValueError."""
    return np.vstack([structured_directions(m), _random_directions(m, n, seed)])


def trace_check(
    a: CurvatureTensor, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> float:
    """Max |Tr J(x)| over sampled unit directions.

    The trace equals the Ricci quadratic form in direction x, so the
    conformal part of any decomposition drives this to roundoff while a
    generic tensor reports its Ricci size.
    """
    _require_orthonormal(a)
    # Tr J(x) = x^T T x with T_ab = sum_y A_yaby.
    t = np.einsum("yaby->ab", a.components)
    dirs = unit_directions(a.dim, samples, seed)
    return float(np.max(np.abs(np.einsum("na,ab,nb->n", dirs, t, dirs))))


def osserman_test(
    a: CurvatureTensor,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    spec_tol: float = tiers.SPEC_ALGEBRAIC,
) -> OssermanReport:
    """Test whether reduced Jacobi spectra are direction independent.

    Samples the structured direction set plus ``samples`` seeded draws,
    sorts each reduced spectrum, and reports the max pairwise L-infinity
    distance; the spectra count as constant when it is at most spec_tol
    times max(1, max |eigenvalue|), the scale of cluster_spectrum.  Full
    sorted spectra are compared rather than clusters, so cluster
    boundary flips cannot mask genuine variation.  The spectra rows
    follow unit_directions, structured directions first; a reduced
    operator that is not self adjoint raises ValueError.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    spectra = np.vstack(
        [structured_spectra(a), direction_spectra(a, _random_directions(a.dim, samples, seed))]
    )
    # Max pairwise L-inf distance of sorted rows equals the widest
    # per-coordinate range.
    distance = float(np.max(spectra.max(axis=0) - spectra.min(axis=0)))
    scale = max(1.0, float(np.max(np.abs(spectra))))
    return OssermanReport(
        is_constant=bool(distance <= spec_tol * scale),
        max_profile_distance=distance,
        samples=samples,
        seed=seed,
        spec_tol=spec_tol,
        spectra=spectra,
    )
