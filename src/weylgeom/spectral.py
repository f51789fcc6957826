"""Jacobi operators, reduced spectra, and the direction constancy test.

The Jacobi operator of a curvature tensor A in direction x is the self
adjoint map defined by g(J(x) y, z) = A(y, x, x, z); for an algebraic
curvature tensor it kills x, J(x)x = 0, which the spectra here require.
The reduced operator restricts to x^perp, so its spectrum is that of
J(x) less one zero.  The constancy test samples unit directions and
compares sorted reduced spectra; constant spectra over the sphere of
directions is the defining property this package classifies against.

All operations here require tensors already expressed in an orthonormal
frame (metric = identity); convert with tensor_core.transform_tensor
first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tiers
from .tensor_core import CurvatureTensor

__all__ = [
    "SpectralProfile",
    "OssermanReport",
    "direction_spectra",
    "structured_spectra",
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


def _spectra(dirs: np.ndarray, jacobi) -> np.ndarray:
    """Ascending reduced spectra of the unit rows of dirs, shape (n, m - 1);
    jacobi(block) gives the Jacobi operators of the rows dirs[block].

    With J(x)x = 0, each row is the spectrum of J(x) less its eigenvalue
    of least modulus, the first on a tie.  Rows are solved in fixed
    blocks, which bounds the memory of the stacked operators.
    """
    nrm = np.linalg.norm(dirs, axis=1)
    # Written so that a NaN norm fails the gate.
    bad = np.flatnonzero(~(np.abs(nrm - 1.0) <= tiers.UNIT_DIRECTION))
    if bad.size:
        raise ValueError(f"direction must be unit length, got |x| = {float(nrm[bad[0]])!r}")
    n, m = dirs.shape
    spectra = np.empty((n, m - 1))
    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        eig = _self_adjoint_eigvalsh(jacobi(block))
        keep = np.ones(eig.shape, dtype=bool)
        keep[np.arange(len(eig)), np.argmin(np.abs(eig), axis=1)] = False
        spectra[block] = eig[keep].reshape(len(eig), m - 1)
    return spectra


def direction_spectra(a: CurvatureTensor, dirs: np.ndarray) -> np.ndarray:
    """Ascending reduced Jacobi spectra of the unit rows of dirs, one row
    each, shape (n, m - 1).

    dirs must have shape (n, m), and the tensor must give J(x)x = 0, as
    every algebraic curvature tensor does.  A row that is not unit
    length (a NaN row among them), or whose Jacobi operator is not self
    adjoint, raises ValueError.
    """
    _require_orthonormal(a)
    dirs = np.asarray(dirs, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != a.dim:
        raise ValueError(f"directions must have shape (n, {a.dim}), got {dirs.shape}")
    return _spectra(dirs, lambda block: _jacobi_stack(a.components, dirs[block]))


class _Structured(NamedTuple):
    """The structured_directions rows of one dimension, read-only.

    Axes i, j and signs s, in row order: (i, i, 0) for each axis, then
    (i, j, +1) and (i, j, -1) for each i < j in row-major order; the
    unit rows (e_i + s e_j)/sqrt2, and e_i for an axis; and what
    _structured_jacobi gathers with: the flat indices a m + b of the
    slices T_ii, T_jj, T_ij and T_ji, and the column s/2.
    """

    i: np.ndarray
    j: np.ndarray
    s: np.ndarray
    rows: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    ij: np.ndarray
    ji: np.ndarray
    half_s: np.ndarray


@functools.lru_cache(maxsize=8)
def _structured(m: int) -> _Structured:
    """The table of dimension m, built once: m^3 floats of rows and a few
    m^2 index arrays, for the most recently used dimensions."""
    iu, ju = np.triu_indices(m, 1)
    axes = np.arange(m)
    i = np.concatenate([axes, np.repeat(iu, 2)])
    j = np.concatenate([axes, np.repeat(ju, 2)])
    s = np.concatenate([np.zeros(m), np.tile([1.0, -1.0], iu.size)])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    rows = np.zeros((i.size, m))
    rows[axes, axes] = 1.0
    pairs = np.arange(m, i.size)
    rows[pairs, i[m:]] = inv_sqrt2
    rows[pairs, j[m:]] = s[m:] * inv_sqrt2
    table = _Structured(
        i, j, s, rows, i * m + i, j * m + j, i * m + j, j * m + i, (0.5 * s)[:, None]
    )
    for arr in table:
        arr.flags.writeable = False
    return table


def _structured_jacobi(ab: np.ndarray, table: _Structured, block: slice) -> np.ndarray:
    """Jacobi operators of the structured rows table.rows[block], read off
    slices of the tensor, shape (n, m, m).

    With T_ab[z, y] = A[y, a, b, z], held in ab[y, a m + b, z],
    J(e_i) = T_ii and J((e_i + s e_j)/sqrt2) = (T_ii + T_jj)/2 +
    s (T_ij + T_ji)/2.  An axis row has i = j and s = 0, for which the
    formula gives T_ii exactly.
    """
    jac = ab[:, table.ii[block]] + ab[:, table.jj[block]]
    jac *= 0.5
    cross = ab[:, table.ij[block]] + ab[:, table.ji[block]]
    cross *= table.half_s[block]
    jac += cross
    return np.transpose(jac, (1, 2, 0))


def structured_spectra(a: CurvatureTensor) -> np.ndarray:
    """Ascending reduced Jacobi spectra of the structured_directions rows,
    shape (m * m, m - 1); the operators come from slices of the tensor
    rather than from a product over all of it."""
    _require_orthonormal(a)
    m = a.dim
    table = _structured(m)
    ab = a.components.reshape(m, m * m, m)
    return _spectra(table.rows, lambda block: _structured_jacobi(ab, table, block))


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


def structured_directions(m: int) -> np.ndarray:
    """Fixed direction set: basis vectors and normalized pairs (e_i +- e_j)/sqrt2."""
    return _structured(m).rows.copy()


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


def trace_check(a: CurvatureTensor) -> float:
    """Max |Tr J(x)| over all unit directions x.

    The trace equals the Ricci quadratic form in direction x, so the
    conformal part of any decomposition drives this to roundoff while a
    generic tensor reports its Ricci size.
    """
    _require_orthonormal(a)
    # Tr J(x) = x^T T x with T_ab = sum_y A_yaby; its maximum modulus over
    # unit x is the spectral radius of the symmetric part of T.
    t = np.einsum("yaby->ab", a.components)
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (t + t.T)))))


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
    follow unit_directions, structured directions first.  The tensor
    must give J(x)x = 0, as every algebraic curvature tensor does; a
    Jacobi operator that is not self adjoint raises ValueError, and so
    does a sample count below 2 or above tiers.MAX_SAMPLES.
    """
    if not 2 <= samples <= tiers.MAX_SAMPLES:
        raise ValueError(f"samples must be 2 to {tiers.MAX_SAMPLES}, got {samples}")
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
