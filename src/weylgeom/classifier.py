"""Eigenvalue structure classification of Weyl curvature.

Decision tree over the reduced conformal Jacobi spectrum at a point,
given that the spectrum is direction independent:

  one cluster                -> conformally flat (the trace identity
                                forces the lone eigenvalue to zero, so
                                the Weyl norm is asserted small);
  two clusters, sizes
  (1, m-2), m even           -> conformally complex space form; the
                                eigenvalues pin (lambda0, lambda1), the
                                linear relation 3*lambda1 +
                                (m-1)*lambda0 = 0 is checked, and the
                                Hermitian structure is reconstructed
                                from the curvature components;
  anything else              -> other Osserman structure.

Direction dependent spectra short circuit to NotConformallyOsserman.

Phi is recovered from B ~ A_Phi by reading B as a symmetric operator on
2-forms, B2[(ij), (kl)] = B[i, j, k, l] over the pairs i < j.  For
Phi^2 = -I and m = 2n its spectrum is -(m + 1) once, with the 2-form of
Phi as the eigenvector, -1 on the n^2 - 1 other 2-forms that commute
with Phi and +1 on the n(n - 1) that anticommute, so Phi is the
eigenvector of the lowest eigenvalue, skew by construction.  The result
is validated against B and the almost complex identities before being
returned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import tiers
from .chart_geometry import MetricChart, riemann_at
from .curvature_algebra import CurvatureDecomposition, a_phi, add_r0_of_identity, weyl_decompose
from .spectral import (
    DEFAULT_SAMPLES,
    OssermanReport,
    SpectralProfile,
    cluster_spectrum,
    osserman_test,
)
from .tensor_core import (
    CurvatureTensor,
    HermitianStructure,
    InnerProduct,
    max_abs,
    orthonormal_frame,
    transform_tensor,
)

__all__ = [
    "VerdictKind",
    "Verdict",
    "PointAnalysis",
    "ToleranceConfig",
    "ChartReport",
    "Eq2aCheck",
    "ReconstructionFailedError",
    "check_eq2a",
    "recover_phi",
    "classify_point",
    "orthonormal_decomposition",
    "analyze_point",
    "classify_act",
    "parity_consistency",
    "classify_chart",
]


class VerdictKind(str, Enum):
    CONFORMALLY_FLAT = "ConformallyFlat"
    CONFORMALLY_COMPLEX_SPACE_FORM = "ConformallyComplexSpaceForm"
    OSSERMAN_OTHER = "OssermanOther"
    NOT_CONFORMALLY_OSSERMAN = "NotConformallyOsserman"


class ReconstructionFailedError(ValueError):
    """Candidate tensor is not of the A_Phi form to tolerance."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds for one classification pass.

    spec_tol bounds the direction-to-direction spectrum drift accepted
    as constant; flat_tol bounds the Weyl norm accepted as zero;
    cluster_tol merges eigenvalues; eq2a_tol and recon_tol gate the
    structural checks of a complex space form verdict, recon_tol being
    the one gate of Phi recovery: Phi, the lowest eigenvector of B on
    2-forms (spectrum -(m + 1) once, -1 and +1 for the rest), must
    square to -I and rebuild B.  Both tiers and the defaults read their
    values from the tiers table.
    """

    spec_tol: float
    flat_tol: float
    eq2a_tol: float
    recon_tol: float
    cluster_tol: float = tiers.CLUSTER

    @classmethod
    def algebraic(cls) -> "ToleranceConfig":
        return cls(
            spec_tol=tiers.SPEC_ALGEBRAIC,
            flat_tol=tiers.FLAT_ALGEBRAIC,
            eq2a_tol=tiers.EQ2A_ALGEBRAIC,
            recon_tol=tiers.RECON_ALGEBRAIC,
        )

    @classmethod
    def chart(cls) -> "ToleranceConfig":
        """Looser tiers matched to the finite difference noise floor."""
        return cls(
            spec_tol=tiers.SPEC_CHART,
            flat_tol=tiers.FLAT_CHART,
            eq2a_tol=tiers.EQ2A_CHART,
            recon_tol=tiers.RECON_CHART,
        )


@dataclass(frozen=True)
class Eq2aCheck:
    passed: bool
    residual: float


def check_eq2a(
    lambda0: float, lambda1: float, m: int, tol: float = tiers.EQ2A_ALGEBRAIC
) -> Eq2aCheck:
    """Relative residual of 3*lambda1 + (m-1)*lambda0 = 0."""
    if lambda1 == 0.0:
        raise ValueError("relation check needs lambda1 != 0")
    residual = abs(3.0 * lambda1 + (m - 1) * lambda0) / abs(lambda1)
    return Eq2aCheck(passed=residual <= tol, residual=residual)


def _require_euclidean(a: CurvatureTensor) -> None:
    if not a.metric.is_euclidean():
        raise ValueError("orthonormal frame required; transform the tensor first")


def recover_phi(
    b: CurvatureTensor, recon_tol: float = tiers.RECON_ALGEBRAIC
) -> HermitianStructure:
    """Reconstruct Phi from a tensor of the form a_phi(Phi).

    B acting on 2-forms over the pairs i < j has, for B = a_phi(Phi),
    the spectrum -(m + 1) once and -1 or +1 for the rest; the 2-form of
    Phi is the eigenvector of -(m + 1).  The global sign of Phi is not
    observable (a_phi is even), so the canonical representative is
    returned: the first upper-triangle entry, in row-major order, whose
    square is within a relative tiers.PIVOT_TIE of the largest is
    positive.  Raises ReconstructionFailedError when Phi^2 + I or the
    reconstruction residual against B, relative to max(1, max |B|),
    exceeds recon_tol: the zero tensor, a sign-flipped a_phi and any
    tensor off the a_phi form among them.
    """
    _require_euclidean(b)
    return _recover_phi_model(b.components, b.metric, recon_tol)[0]


# Steps of the rank-one iteration in _recover_phi_model.
_PHI_STEPS = 3


def _recover_phi_model(
    c: np.ndarray, g: InnerProduct, recon_tol: float
) -> tuple[HermitianStructure, np.ndarray]:
    """recover_phi on the components c of a tensor over the orthonormal
    metric g, returning Phi together with the components of a_phi(Phi),
    the model it was validated against."""
    m = c.shape[0]
    if m % 2 != 0:
        raise ValueError(f"even dimension required, got m={m}")
    i, j = np.triu_indices(m, 1)
    b2 = c[i, j][:, i, j]
    # For B = a_phi(Phi), B2^2 - I = ((m + 1)^2 - 1) v v^T: B2's column of
    # largest norm leans most on v, and each step v <- (B2^2 - I) v strips
    # the rest, down to the drift of the other eigenvalues from +-1.  The
    # steps run on B2 / 2^k with 2^k >= max(1, max |B2|), which keeps them
    # finite and, being a power of two, changes no bit of the direction.
    k = max(0, int(np.frexp(max_abs(b2))[1]))
    b2 = np.ldexp(b2, -k)
    v = b2[:, np.argmax(np.vecdot(b2.T, b2.T))]
    for _ in range(_PHI_STEPS):
        v = b2 @ (b2 @ v) - np.ldexp(v, -2 * k)
        nrm = np.sqrt(v @ v)
        if nrm > 0.0:
            v /= nrm
    # The tie band lets entries equal in exact arithmetic (four at m = 8
    # for the standard structure) fix the same sign whatever the roundoff
    # upstream.
    sq = v * v
    if v[np.argmax(sq >= (1.0 - tiers.PIVOT_TIE) * sq.max())] < 0.0:
        v = -v
    phi = np.zeros((m, m))
    phi[i, j] = np.sqrt(m / 2.0) * v
    phi -= phi.T
    square = max_abs(phi @ phi + np.eye(m))
    model = a_phi(phi, g).components
    recon = max_abs(model - c)
    if not (square <= recon_tol and recon / max(1.0, max_abs(c)) <= recon_tol):
        raise ReconstructionFailedError(
            f"validation residuals square={square:.3e} "
            f"reconstruction={recon:.3e} exceed {recon_tol:.1e}"
        )
    return HermitianStructure(phi), model


@dataclass(frozen=True)
class Verdict:
    """Classification outcome at one point.

    lambda0, lambda1 and phi are populated only for complex space form
    verdicts; diagnostics carries the measured residuals that justify
    (or disqualify) the structural claims.
    """

    kind: VerdictKind
    m: int
    profile: SpectralProfile
    lambda0: float | None = None
    lambda1: float | None = None
    phi: HermitianStructure | None = None
    diagnostics: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def _modal_profile(rows: np.ndarray, cluster_tol: float) -> SpectralProfile:
    """Clustered profile of the first row whose multiplicity signature
    is the most frequent one.

    A row's signature is fixed by where its ascending eigenvalues break
    into clusters (gaps over cluster_tol * max(1, max |row|), as in
    cluster_spectrum), so the vote runs over break patterns.
    """
    scale = np.maximum(1.0, np.abs(rows).max(axis=1, initial=0.0))
    breaks = np.diff(rows, axis=1) > cluster_tol * scale[:, None]
    keys = list(map(bytes, np.packbits(breaks, axis=1)))
    # A Counter keeps its keys in first-seen order and max returns the
    # first maximal one: the signature of the earliest modal row.
    counts = Counter(keys)
    modal = max(counts, key=counts.__getitem__)
    return cluster_spectrum(rows[keys.index(modal)], cluster_tol)


def parity_consistency(m: int, profile: SpectralProfile, verdict: Verdict) -> list[str]:
    """Warnings when the cluster structure contradicts the parity laws.

    Odd m forces a single eigenvalue; m = 2 mod 4 forces a simple
    eigenvalue whenever there are at least two.  A warning flags a
    numerical clustering failure, not new geometry.
    """
    if verdict.kind is VerdictKind.NOT_CONFORMALLY_OSSERMAN:
        return []
    mults = profile.multiplicities
    out = []
    if m % 2 == 1 and len(mults) > 1:
        out.append(
            f"parity: odd m={m} admits only one reduced eigenvalue, "
            f"observed {len(mults)} clusters {mults}"
        )
    if m % 4 == 2 and len(mults) >= 2 and 1 not in mults:
        out.append(
            f"parity: m={m} = 2 mod 4 requires a simple eigenvalue among "
            f"multiple clusters, observed multiplicities {mults}"
        )
    return out


def _classify_constant(
    w: CurvatureTensor,
    profile: SpectralProfile,
    m: int,
    tol: ToleranceConfig,
    diagnostics: dict,
) -> Verdict:
    """Tree below the Osserman gate; assumes a direction independent
    spectrum and fills in the structural branches."""
    weyl_max = diagnostics["weyl_max"]
    clusters = profile.clusters
    mults = profile.multiplicities
    warnings: list[str] = []

    def verdict(kind: VerdictKind, **structure) -> Verdict:
        return Verdict(
            kind=kind,
            m=m,
            profile=profile,
            diagnostics=diagnostics,
            warnings=tuple(warnings),
            **structure,
        )

    if len(clusters) == 1:
        gap = tol.cluster_tol * max(1.0, max(abs(v) for v in profile.values))
        if profile.spread > tiers.NEAR_DEGENERATE * gap:
            warnings.append(
                "near-degenerate: intra-cluster spread "
                f"{profile.spread:.3e} within a factor 2 of the clustering "
                f"threshold {gap:.3e}; an eigenvalue split below the "
                "clustering resolution cannot be excluded"
            )
        # The zero trace pins a merged cluster at eigenvalue 0, and
        # polarization bounds the components by three times the largest
        # reduced eigenvalue, hence by 3 * spread.  Anything larger is
        # inconsistent with a single-eigenvalue profile.
        if weyl_max <= max(tol.flat_tol, 3.0 * profile.spread):
            return verdict(VerdictKind.CONFORMALLY_FLAT)
        warnings.append(
            f"single eigenvalue but Weyl norm {weyl_max:.3e} exceeds "
            f"{tol.flat_tol:.1e}; inconsistent with the trace identity"
        )
        return verdict(VerdictKind.OSSERMAN_OTHER)

    if sorted(mults) == sorted([1, m - 2]) and m % 2 == 0:
        single_idx = mults.index(1)
        bulk_idx = 1 - single_idx
        single_val = clusters[single_idx][0]
        lambda0 = clusters[bulk_idx][0]
        lambda1 = (single_val - lambda0) / 3.0
        eq2a = check_eq2a(lambda0, lambda1, m, tol=tol.eq2a_tol)
        diagnostics["eq2a_residual"] = eq2a.residual
        if not eq2a.passed:
            warnings.append(
                f"eigenvalue relation residual {eq2a.residual:.3e} exceeds "
                f"{tol.eq2a_tol:.1e}; not a conformal complex space form"
            )
            return verdict(VerdictKind.OSSERMAN_OTHER)
        # One work array holds B = (W - lambda0 R0) / lambda1 and then the
        # model lambda0 R0 + lambda1 A_Phi; W is in an orthonormal frame.
        buf = add_r0_of_identity(w.components.copy(), -lambda0)
        buf /= lambda1
        try:
            phi, a_phi_comps = _recover_phi_model(buf, w.metric, tol.recon_tol)
        except ReconstructionFailedError as exc:
            warnings.append(f"Hermitian structure recovery failed: {exc}")
            return verdict(VerdictKind.OSSERMAN_OTHER)
        model = add_r0_of_identity(np.multiply(a_phi_comps, lambda1, out=buf), lambda0)
        diagnostics["reconstruction_residual"] = max_abs(
            np.subtract(w.components, model, out=model)
        ) / max(1.0, weyl_max)
        if m < 8:
            warnings.append(
                f"below theorem threshold m>=8: the rigidity statement is not "
                f"claimed at m={m}; structural verdict is numerical only"
            )
        return verdict(
            VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM, lambda0=lambda0, lambda1=lambda1, phi=phi
        )

    return verdict(VerdictKind.OSSERMAN_OTHER)


def classify_point(
    w: CurvatureTensor,
    profile: SpectralProfile,
    osserman: OssermanReport,
    m: int,
    tol: ToleranceConfig | None = None,
) -> Verdict:
    """Decision tree over an orthonormal-frame Weyl tensor at a point."""
    tol = tol or ToleranceConfig.algebraic()
    _require_euclidean(w)
    if w.dim != m or profile.dim != m:
        raise ValueError(
            f"inconsistent inputs: tensor dim {w.dim}, profile dim {profile.dim}, m={m}"
        )
    diagnostics = {
        "weyl_max": w.max_abs(),
        "osserman_distance": osserman.max_profile_distance,
        "profile_spread": profile.spread,
    }
    if not osserman.is_constant:
        return Verdict(
            kind=VerdictKind.NOT_CONFORMALLY_OSSERMAN,
            m=m,
            profile=profile,
            diagnostics=diagnostics,
        )
    verdict = _classify_constant(w, profile, m, tol, diagnostics)
    extra = parity_consistency(m, profile, verdict)
    if extra:
        verdict = replace(verdict, warnings=verdict.warnings + tuple(extra))
    return verdict


@dataclass(frozen=True)
class PointAnalysis:
    """Every stage of the pipeline at one point: the Weyl decomposition
    in an orthonormal frame, the constancy test with its per-direction
    spectra, the consensus profile and the verdict."""

    decomposition: CurvatureDecomposition
    osserman: OssermanReport
    profile: SpectralProfile
    verdict: Verdict


def orthonormal_decomposition(a: CurvatureTensor) -> CurvatureDecomposition:
    """Weyl decomposition of a tensor, moved to an orthonormal frame first
    unless its metric is already the identity."""
    if not a.metric.is_euclidean():
        a = transform_tensor(a, orthonormal_frame(a.metric))
    return weyl_decompose(a)


def analyze_point(
    a: CurvatureTensor,
    tol: ToleranceConfig | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> PointAnalysis:
    """Full pipeline for one curvature tensor, each direction solved once.

    The consensus profile is a vote over the structured-direction rows of
    the constancy test's spectra: rows are grouped by their multiplicity
    signature, and the profile is that of the earliest row with the most
    frequent signature.
    """
    tol = tol or ToleranceConfig.algebraic()
    dec = orthonormal_decomposition(a)
    w = dec.w
    report = osserman_test(w, samples=samples, seed=seed, spec_tol=tol.spec_tol)
    # The structured directions lead the rows: m axes and m(m - 1) pairs.
    rows = report.spectra[: w.dim**2]
    profile = _modal_profile(rows, tol.cluster_tol)
    verdict = classify_point(w, profile, report, w.dim, tol=tol)
    return PointAnalysis(dec, report, profile, verdict)


def classify_act(
    a: CurvatureTensor,
    tol: ToleranceConfig | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> Verdict:
    """Verdict of analyze_point for a single algebraic curvature tensor."""
    return analyze_point(a, tol, samples, seed).verdict


@dataclass(frozen=True)
class ChartReport:
    points: np.ndarray
    verdicts: tuple[Verdict, ...]
    summary: dict


def _phi_pair_consistency(verdicts: tuple[Verdict, ...]) -> float | None:
    """Worst pairwise distance between recovered structures, modulo the
    global sign; None unless at least two points carry a Phi."""
    phis = [v.phi.matrix for v in verdicts if v.phi is not None]
    if len(phis) < 2:
        return None
    worst = 0.0
    for i in range(len(phis)):
        for j in range(i + 1, len(phis)):
            d = min(max_abs(phis[i] - phis[j]), max_abs(phis[i] + phis[j]))
            worst = max(worst, d)
    return worst


def classify_chart(
    chart: MetricChart,
    points: np.ndarray,
    tol: ToleranceConfig | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ChartReport:
    """Classify the Weyl structure of a chart at each given point, with
    analyze_point's options; tol defaults to the chart tier."""
    tol = tol or ToleranceConfig.chart()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    verdicts = tuple(
        analyze_point(riemann_at(chart, u)[0], tol, samples, seed).verdict for u in points
    )
    counts = Counter(v.kind.value for v in verdicts)
    signs = Counter(
        "positive" if v.lambda1 > 0 else "negative"
        for v in verdicts
        if v.lambda1 is not None
    )
    summary = {
        "kinds": dict(sorted(counts.items())),
        "lambda1_signs": dict(sorted(signs.items())),
        "phi_pair_consistency": _phi_pair_consistency(verdicts),
        "warning_count": sum(len(v.warnings) for v in verdicts),
    }
    return ChartReport(points=points, verdicts=verdicts, summary=summary)
