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

from .tensor_core import CurvatureTensor, max_abs

__all__ = [
    "SpectralProfile",
    "OssermanReport",
    "jacobi_operator",
    "complement_basis",
    "reduced_jacobi",
    "spectral_profile",
    "cluster_spectrum",
    "unit_directions",
    "structured_directions",
    "trace_check",
    "osserman_test",
    "DEFAULT_SAMPLES",
    "DEFAULT_SPEC_TOL_ALGEBRAIC",
    "DEFAULT_CLUSTER_TOL",
]

DEFAULT_SAMPLES = 64
DEFAULT_SPEC_TOL_ALGEBRAIC = 1e-6
DEFAULT_CLUSTER_TOL = 1e-3

_UNIT_TOL = 1e-8


def _require_orthonormal(a: CurvatureTensor) -> None:
    if not a.metric.is_euclidean(tol=1e-10):
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


def jacobi_operator(a: CurvatureTensor, x: np.ndarray) -> np.ndarray:
    """Matrix of y -> A(y, x, x, .) in the orthonormal frame.

    Self adjoint for any algebraic curvature tensor; quadratic in x, so
    non-unit x is allowed (the constancy test normalizes upstream).
    """
    _require_orthonormal(a)
    x = np.asarray(x, dtype=float)
    return np.einsum("yabz,a,b->zy", a.components, x, x, optimize=True)


def complement_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit x.

    Columns of the returned (m, m-1) matrix; built from a Householder
    reflection, hence deterministic and smooth away from the pole.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    s = 1.0 if x[0] >= 0 else -1.0
    v = x.copy()
    v[0] += s
    h = np.eye(m) - 2.0 * np.outer(v, v) / (v @ v)
    return h[:, 1:]


def reduced_jacobi(a: CurvatureTensor, x: np.ndarray) -> np.ndarray:
    """Jacobi operator restricted to the complement of unit x."""
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if abs(nrm - 1.0) > _UNIT_TOL:
        raise ValueError(f"direction must be unit length, got |x| = {nrm!r}")
    j = jacobi_operator(a, x)
    p = complement_basis(x)
    return p.T @ j @ p


def _self_adjoint_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix required to be self adjoint."""
    mat = np.asarray(mat, dtype=float)
    if max_abs(mat - mat.T) > _UNIT_TOL * max(1.0, max_abs(mat)):
        raise ValueError("eigenvalue solve needs a self adjoint matrix")
    return np.linalg.eigvalsh(0.5 * (mat + mat.T))


def cluster_spectrum(eig: np.ndarray, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralProfile:
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


def spectral_profile(mat: np.ndarray, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralProfile:
    """Clustered spectrum of a self adjoint matrix (see cluster_spectrum)."""
    return cluster_spectrum(_self_adjoint_eigvalsh(mat), cluster_tol)


def structured_directions(m: int) -> np.ndarray:
    """Fixed direction set: basis vectors and normalized pairs (e_i +- e_j)/sqrt2."""
    dirs = [np.eye(m)[i] for i in range(m)]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros(m)
            e[i] = inv_sqrt2
            e[j] = inv_sqrt2
            dirs.append(e.copy())
            e[j] = -inv_sqrt2
            dirs.append(e)
    return np.array(dirs)


def unit_directions(
    m: int, n: int, seed: int, include_structured: bool = True
) -> np.ndarray:
    """Deterministic unit direction sample: structured set plus n
    Gaussian-normalized draws.  The structured part catches axis aligned
    degeneracies that random draws can miss."""
    rng = np.random.default_rng(seed)
    rows = [structured_directions(m)] if include_structured else []
    draws = np.empty((n, m))
    count = 0
    while count < n:
        v = rng.standard_normal(m)
        nrm = np.linalg.norm(v)
        if nrm < 1e-8:
            continue
        draws[count] = v / nrm
        count += 1
    rows.append(draws)
    return np.vstack(rows)


def trace_check(
    a: CurvatureTensor, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> float:
    """Max |Tr J(x)| over sampled unit directions.

    The trace equals the Ricci quadratic form in direction x, so the
    conformal part of any decomposition drives this to roundoff while a
    generic tensor reports its Ricci size.
    """
    _require_orthonormal(a)
    worst = 0.0
    for x in unit_directions(a.dim, samples, seed):
        worst = max(worst, abs(float(np.trace(jacobi_operator(a, x)))))
    return worst


def osserman_test(
    a: CurvatureTensor,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    spec_tol: float = DEFAULT_SPEC_TOL_ALGEBRAIC,
) -> OssermanReport:
    """Test whether reduced Jacobi spectra are direction independent.

    Samples the structured direction set plus ``samples`` seeded draws,
    sorts each reduced spectrum, and reports the max pairwise L-infinity
    distance.  Full sorted spectra are compared rather than clusters, so
    cluster boundary flips cannot mask genuine variation.  The spectra
    rows follow unit_directions, structured directions first; a reduced
    operator that is not self adjoint raises ValueError.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    _require_orthonormal(a)
    dirs = unit_directions(a.dim, samples, seed)
    spectra = np.empty((dirs.shape[0], a.dim - 1))
    for row, x in enumerate(dirs):
        spectra[row] = _self_adjoint_eigvalsh(reduced_jacobi(a, x))
    # Max pairwise L-inf distance of sorted rows equals the widest
    # per-coordinate range.
    distance = float(np.max(spectra.max(axis=0) - spectra.min(axis=0)))
    return OssermanReport(
        is_constant=bool(distance <= spec_tol),
        max_profile_distance=distance,
        samples=samples,
        seed=seed,
        spec_tol=spec_tol,
        spectra=spectra,
    )
