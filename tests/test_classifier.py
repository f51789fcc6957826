"""Verdict pipeline: eigenvalue relation, structure recovery, parity.

The classifier consumes Weyl parts only; every entry point is expected
to absorb frame changes and overall metric scale on its own.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom import classifier, tiers
from weylgeom.classifier import (
    ChartReport,
    ReconstructionFailedError,
    ToleranceConfig,
    VerdictKind,
    analyze_point,
    check_eq2a,
    classify_act,
    classify_chart,
    classify_point,
    parity_consistency,
    recover_phi,
)
from weylgeom.chart_geometry import default_probe_points, riemann_at
from weylgeom.curvature_algebra import (
    a_phi,
    complex_space_form_act,
    r0,
    random_act,
    weyl_decompose,
)
from weylgeom.models import (
    complex_hyperbolic_chart,
    flat_chart,
    fubini_study_chart,
    perturbed_flat_chart,
    sphere_chart,
    standard_phi,
)
from weylgeom.spectral import (
    OssermanReport,
    SpectralProfile,
    cluster_spectrum,
    direction_spectra,
    osserman_test,
    unit_directions,
)
from weylgeom.tensor_core import (
    CurvatureTensor,
    HermitianStructure,
    InnerProduct,
    max_abs,
    transform_tensor,
)

ROOT = Path(__file__).resolve().parents[1]


def structure_distance(got, expect):
    """Distance modulo the unobservable global sign."""
    return min(max_abs(got - expect), max_abs(got + expect))


class TestEigenvalueRelation:
    def test_exact_solution_passes(self):
        chk = check_eq2a(-3.0 / 7.0, 1.0, 8)
        assert chk.passed
        assert chk.residual == 0.0

    def test_violation_reports_relative_residual(self):
        chk = check_eq2a(0.5, 1.0, 8)
        assert not chk.passed
        assert_allclose(chk.residual, 6.5)

    def test_scale_invariance(self):
        a = check_eq2a(-3.0 / 7.0 * 5.0, 5.0, 8)
        assert a.passed

    def test_degenerate_lambda1_rejected(self):
        with pytest.raises(ValueError, match="lambda1"):
            check_eq2a(1.0, 0.0, 8)


class TestRecoverPhi:
    def test_standard_structure_roundtrip(self):
        for m in (6, 8, 10):
            g = InnerProduct.euclidean(m)
            phi = standard_phi(m)
            rec = recover_phi(a_phi(phi, g))
            assert structure_distance(rec.matrix, phi.matrix) <= 1e-12

    def test_canonical_sign(self):
        # Both signs generate the same tensor; the first largest entry of
        # the returned representative's upper triangle is positive.
        g = InnerProduct.euclidean(6)
        phi = standard_phi(6)
        rec_pos = recover_phi(a_phi(phi, g))
        rec_neg = recover_phi(a_phi(-phi.matrix, g))
        assert_allclose(rec_pos.matrix, rec_neg.matrix)

    def test_conjugated_structures(self):
        rng = np.random.default_rng(14)
        for m in (6, 8):
            g = InnerProduct.euclidean(m)
            base = standard_phi(m).matrix
            for _ in range(3):
                q, _r = np.linalg.qr(rng.standard_normal((m, m)))
                phi = q.T @ base @ q
                rec = recover_phi(a_phi(phi, g))
                assert structure_distance(rec.matrix, phi) <= 1e-10

    def test_canonical_sign_survives_roundoff(self):
        # Four upper-triangle entries of Phi tie exactly; noise of a few
        # ulps must not move the sign to one of the others.
        g = InnerProduct.euclidean(8)
        clean = a_phi(standard_phi(8), g)
        rng = np.random.default_rng(2)
        noise = rng.uniform(-1e-15, 1e-15, clean.components.shape)
        noisy = recover_phi(CurvatureTensor(clean.components + noise, g))
        assert max_abs(noisy.matrix - recover_phi(clean).matrix) <= 1e-12

    def test_skew_residual_above_tolerance(self):
        # A candidate 1e-6 off the a_phi form fails the validation at
        # 1e-8 with the typed error and passes it at 1e-4.
        g = InnerProduct.euclidean(8)
        noisy = a_phi(standard_phi(8), g).components + 1e-6 * random_act(3, 8).components
        with pytest.raises(ReconstructionFailedError, match="validation residuals"):
            recover_phi(CurvatureTensor(noisy, g), recon_tol=1e-8)
        recover_phi(CurvatureTensor(noisy, g), recon_tol=1e-4)

    def test_recovered_structure_validates(self):
        g = InnerProduct.euclidean(8)
        rec = recover_phi(a_phi(standard_phi(8), g))
        rec.validate()

    def test_degenerate_input(self):
        g = InnerProduct.euclidean(6)
        with pytest.raises(ReconstructionFailedError, match="validation residuals"):
            recover_phi(CurvatureTensor(np.zeros((6,) * 4), g))

    def test_wrong_sign_input(self):
        g = InnerProduct.euclidean(6)
        flipped = CurvatureTensor(-a_phi(standard_phi(6), g).components, g)
        with pytest.raises(ReconstructionFailedError, match="validation residuals"):
            recover_phi(flipped)

    def test_odd_dimension_rejected(self):
        g = InnerProduct.euclidean(5)
        with pytest.raises(ValueError, match="even"):
            recover_phi(CurvatureTensor(np.ones((5,) * 4), g))

    def test_requires_orthonormal_frame(self):
        g = InnerProduct(2.0 * np.eye(6))
        with pytest.raises(ValueError, match="orthonormal"):
            recover_phi(CurvatureTensor(np.zeros((6,) * 4), g))


def pivot_recovery(c):
    """The pivot-and-propagation recovery of Phi from B ~ a_phi(Phi), kept
    as the reference for recover_phi: B_pqqp = 3 Phi_pq^2 fixes a pivot
    (the first in row-major order within PIVOT_TIE of the largest, made
    positive), B_pqql = 3 Phi_pq Phi_lq fills its column, and the
    polarized Jacobi operator Phi e_a = (2/3) Jpol(e_q, e_a) Phi e_q, with
    [Jpol(x1, x2)]_zy = (B[y,x1,x2,z] + B[y,x2,x1,z]) / 2, the rest."""
    m = c.shape[0]
    diag = np.einsum("pqqp->pq", c).copy()
    np.fill_diagonal(diag, 0.0)
    mag = np.abs(diag)
    p, q = np.unravel_index(np.argmax(mag >= (1.0 - tiers.PIVOT_TIE) * mag.max()), diag.shape)
    assert diag[p, q] > 0.0
    phi = np.zeros((m, m))
    phi_pq = np.sqrt(diag[p, q] / 3.0)
    phi[:, q] = c[p, q, q, :] / (3.0 * phi_pq)
    jpol = 0.5 * (np.einsum("yaz->azy", c[:, q]) + np.einsum("yaz->azy", c[:, :, q]))
    cols = (2.0 / 3.0) * np.einsum("azy,y->za", jpol, phi[:, q])
    keep = np.arange(m) != q
    phi[:, keep] = cols[:, keep]
    return 0.5 * (phi - phi.T)


def eigh_recovery(c):
    """Phi as the full eigh of the 2-form operator gives it, kept as the
    reference for the rank-one iteration of recover_phi: the eigenvector
    of the lowest eigenvalue of B2[(ij), (kl)] = B[i, j, k, l] over i < j,
    signed by the pivot rule and scaled by sqrt(m/2)."""
    m = c.shape[0]
    i, j = np.triu_indices(m, 1)
    v = np.linalg.eigh(c[i, j][:, i, j])[1][:, 0]
    sq = v * v
    if v[np.argmax(sq >= (1.0 - tiers.PIVOT_TIE) * sq.max())] < 0.0:
        v = -v
    phi = np.zeros((m, m))
    phi[i, j] = np.sqrt(m / 2.0) * v
    return phi - phi.T


def captured_recoveries(monkeypatch):
    """Record each (B, Phi) that the classifier's recovery returns."""
    seen = []
    inner = classifier._recover_phi_model

    def recording(c, g, recon_tol):
        out = inner(c, g, recon_tol)
        seen.append((np.array(c), out[0].matrix))
        return out

    monkeypatch.setattr(classifier, "_recover_phi_model", recording)
    return seen


class TestRecoverPhiReference:
    """recover_phi against the pivot-and-propagation and the eigh
    references, and FD charts against their analytic twins; all compare
    signed matrices."""

    @pytest.mark.parametrize("make_chart", [fubini_study_chart, complex_hyperbolic_chart])
    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    def test_matches_eigh_recovery_on_charts(self, make_chart, mode, monkeypatch):
        # B here is (W - lambda0 R0) / lambda1 of a chart point, off the
        # a_phi form by the chart's curvature error.
        chart = make_chart(4)
        if mode == "fd":
            chart = replace(chart, d_metric=None, d2_metric=None)
        seen = captured_recoveries(monkeypatch)
        classify_chart(chart, default_probe_points(make_chart(4), 3))
        assert len(seen) == 3
        for c, phi in seen:
            assert max_abs(phi - eigh_recovery(c)) <= 1e-13

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_extreme_scales_fail_validation(self, scale):
        # The iteration runs on B2 over a power of two, so no product
        # overflows; off scale 1, B is not a_phi and fails the gate.
        g = InnerProduct.euclidean(8)
        b = CurvatureTensor(scale * a_phi(standard_phi(8), g).components, g)
        with pytest.raises(ReconstructionFailedError, match="validation residuals"):
            recover_phi(b)

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 16, 24])
    def test_matches_both_references_on_rotations(self, m):
        g = InnerProduct.euclidean(m)
        base = standard_phi(m).matrix
        rng = np.random.default_rng(m)
        for _ in range(5):
            q, _r = np.linalg.qr(rng.standard_normal((m, m)))
            b = a_phi(q.T @ base @ q, g)
            got = recover_phi(b).matrix
            assert max_abs(got - pivot_recovery(b.components)) <= 1e-13
            assert max_abs(got - eigh_recovery(b.components)) <= 1e-13

    def test_matches_pivot_recovery_under_roundoff(self):
        g = InnerProduct.euclidean(8)
        clean = a_phi(standard_phi(8), g).components
        noisy = clean + np.random.default_rng(2).uniform(-1e-15, 1e-15, clean.shape)
        got = recover_phi(CurvatureTensor(noisy, g)).matrix
        assert max_abs(got - pivot_recovery(noisy)) <= 1e-13
        assert max_abs(got - pivot_recovery(clean)) <= 1e-13

    @pytest.mark.parametrize("builder", [fubini_study_chart, complex_hyperbolic_chart])
    @pytest.mark.parametrize("n", [2, 4])
    def test_finite_difference_matches_analytic(self, builder, n):
        analytic = builder(n)
        fd = replace(analytic, d_metric=None, d2_metric=None)
        pts = default_probe_points(analytic)
        for exact, approx in zip(
            classify_chart(analytic, pts).verdicts, classify_chart(fd, pts).verdicts
        ):
            assert max_abs(approx.phi.matrix - exact.phi.matrix) <= 1e-8


def modal_row(rows, cluster_tol=tiers.CLUSTER):
    """Index of the earliest row whose multiplicity signature is the most
    frequent one, one clustered row at a time: the reference for the
    consensus vote of analyze_point."""
    signatures = [cluster_spectrum(row, cluster_tol).multiplicities for row in rows]
    counts = Counter(signatures)
    top = max(counts.values())
    return next(i for i, sig in enumerate(signatures) if counts[sig] == top)


class TestConsensusProfile:
    def test_space_form_weyl_is_flat_profile(self):
        profile = analyze_point(r0(InnerProduct.euclidean(6))).profile
        assert profile.clusters == ((0.0, 5),)

    def test_complex_space_form_weyl(self):
        profile = analyze_point(complex_space_form_act(1.0, 1.0, standard_phi(8))).profile
        assert profile.multiplicities == (6, 1)
        assert_allclose(profile.values[0], -3.0 / 7.0, atol=1e-12)
        assert_allclose(profile.values[1], 18.0 / 7.0, atol=1e-12)


class TestAnalyzePoint:
    def test_spectra_are_the_constancy_test(self):
        a = complex_space_form_act(1.0, -1.0, standard_phi(6))
        analysis = analyze_point(a, samples=8, seed=3)
        report = osserman_test(weyl_decompose(a).w, samples=8, seed=3)
        assert np.array_equal(analysis.osserman.spectra, report.spectra)
        assert analysis.osserman.max_profile_distance == report.max_profile_distance

    def test_moves_to_orthonormal_frame(self):
        a = complex_space_form_act(1.0, 1.0, standard_phi(8))
        rng = np.random.default_rng(4)
        b = rng.standard_normal((8, 8)) + 3.0 * np.eye(8)
        analysis = analyze_point(transform_tensor(a, b))
        assert analysis.decomposition.w.metric.is_euclidean()
        assert analysis.verdict.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM

    def test_interleaved_dimensions_match_a_fresh_process(self):
        # The per-dimension direction tables are built once and kept;
        # every output bit must be what a process that never saw another
        # dimension computes.
        here = [pipeline_fingerprint(m) for m in (8, 10, 16, 8)]
        assert here[3] == here[0]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")])
        )
        for m, digest in zip((8, 10, 16), here):
            code = f"from test_classifier import pipeline_fingerprint; print(pipeline_fingerprint({m}))"
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == digest


def pipeline_fingerprint(m):
    """Digest of every output bit of analyze_point on two seeded tensors
    of dimension m: a random ACT, and a complex space form seen in a
    skewed frame, whose metric is not the identity."""
    frame = np.eye(m) + 0.1 * np.random.default_rng(m).standard_normal((m, m))
    tensors = [
        random_act(m, m),
        transform_tensor(complex_space_form_act(-0.5, 1.5, standard_phi(m)), frame),
    ]
    digest = hashlib.sha256()
    for a in tensors:
        analysis = analyze_point(a)
        v = analysis.verdict
        digest.update(analysis.osserman.spectra.tobytes())
        fields = (v.kind, v.profile, v.lambda0, v.lambda1, sorted(v.diagnostics.items()), v.warnings)
        digest.update(repr(fields).encode())
        if v.phi is not None:
            digest.update(v.phi.matrix.tobytes())
    return digest.hexdigest()


# Left multiplication by i, j, k on the quaternions in the basis 1, i, j, k.
QUATERNION_UNITS = (
    np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float),
    np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float),
)


def screen_tensor(kind, m, seed):
    """A seeded tensor of one verdict kind, rotated off the coordinate
    axes, and the kind expected of it."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))
    e = InnerProduct.euclidean(m)
    if kind == "random":
        return random_act(seed, m), VerdictKind.NOT_CONFORMALLY_OSSERMAN
    if kind == "complex":
        phi = HermitianStructure(q @ standard_phi(m).matrix @ q.T)
        return complex_space_form_act(0.7, -1.3, phi), VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
    if kind == "space":
        g = InnerProduct(q @ np.diag(rng.uniform(0.5, 2.0, m)) @ q.T)
        return CurvatureTensor(-1.7 * r0(g).components, g), VerdictKind.CONFORMALLY_FLAT
    comps = 0.4 * r0(e).components
    for unit in QUATERNION_UNITS:
        comps = comps + 1.1 * a_phi(q @ np.kron(np.eye(m // 4), unit) @ q.T, e).components
    return CurvatureTensor(comps, e), VerdictKind.OSSERMAN_OTHER


class TestScreenTensors:
    """The structured spectra read off the tensor, checked against the
    general product over the same direction rows."""

    @pytest.mark.parametrize(
        "kind,m",
        [(k, m) for m in (8, 10, 16, 24) for k in ("random", "complex", "space", "quaternionic")
         if k != "quaternionic" or m % 4 == 0],
    )
    def test_verdict_and_profile_match_the_general_spectra(self, kind, m):
        a, expect_kind = screen_tensor(kind, m, seed=m)
        analysis = analyze_point(a)
        assert analysis.verdict.kind is expect_kind
        assert not any(w.startswith("parity") for w in analysis.verdict.warnings)
        w = analysis.decomposition.w
        expect = direction_spectra(w, unit_directions(m, 64, seed=0))
        scale = max(1.0, max_abs(expect))
        assert max_abs(analysis.osserman.spectra - expect) <= 1e-13 * scale
        profile = analysis.profile
        row = modal_row(expect[: m * m])
        assert profile == cluster_spectrum(analysis.osserman.spectra[row])
        reference = cluster_spectrum(expect[row])
        assert reference.multiplicities == profile.multiplicities
        assert_allclose(reference.values, profile.values, rtol=0.0, atol=1e-13 * scale)
        v = analysis.verdict
        if v.phi is not None:
            model = v.lambda0 * r0(w.metric).components + v.lambda1 * a_phi(v.phi, w.metric).components
            residual = max_abs(w.components - model) / max(1.0, v.diagnostics["weyl_max"])
            assert v.diagnostics["reconstruction_residual"] == residual


class TestClassifyAct:
    def test_space_forms_are_conformally_flat(self):
        for lam in (1.0, -2.0):
            g = InnerProduct.euclidean(5)
            a = CurvatureTensor(lam * r0(g).components, g)
            v = classify_act(a)
            assert v.kind is VerdictKind.CONFORMALLY_FLAT
            assert v.diagnostics["weyl_max"] <= 1e-9

    def test_complex_space_form_full_verdict(self):
        v = classify_act(complex_space_form_act(1.0, 1.0, standard_phi(8)))
        assert v.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert v.m == 8
        assert_allclose(v.lambda1, 1.0, atol=1e-10)
        assert_allclose(v.lambda0, -3.0 / 7.0, atol=1e-10)
        assert structure_distance(v.phi.matrix, standard_phi(8).matrix) <= 1e-8
        assert v.warnings == ()
        for key in ("weyl_max", "osserman_distance", "profile_spread",
                    "eq2a_residual", "reconstruction_residual"):
            assert key in v.diagnostics

    def test_generic_tensor_is_not_osserman(self):
        v = classify_act(random_act(7, 6))
        assert v.kind is VerdictKind.NOT_CONFORMALLY_OSSERMAN
        assert v.diagnostics["osserman_distance"] > 1e-3

    def test_small_dimension_carries_caveat(self):
        v = classify_act(complex_space_form_act(1.0, 1.0, standard_phi(4)))
        assert v.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert any("m=4" in w for w in v.warnings)

    def test_frame_invariance(self):
        # Arbitrary invertible frames land on the same verdict.
        a = complex_space_form_act(1.0, 1.0, standard_phi(8))
        rng = np.random.default_rng(4)
        b = rng.standard_normal((8, 8)) + 3.0 * np.eye(8)
        v = classify_act(transform_tensor(a, b))
        assert v.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert_allclose(v.lambda1, 1.0, rtol=1e-8)

    def test_skew_residual_above_recon_tol_is_other(self):
        tol = ToleranceConfig(spec_tol=1e-4, flat_tol=1e-9, eq2a_tol=1e-4, recon_tol=1e-8)
        base = complex_space_form_act(1.0, 1.0, standard_phi(8))
        a = CurvatureTensor(base.components + 1e-6 * random_act(3, 8).components, base.metric)
        v = classify_act(a, tol)
        assert v.kind is VerdictKind.OSSERMAN_OTHER
        assert any("recovery failed: validation residuals" in w for w in v.warnings)

    @pytest.mark.parametrize("lam", [1e9, 1e11])
    def test_osserman_gate_is_relative_to_the_spectrum(self, lam):
        # The spectrum drift of an exact form is roundoff of its size
        # (4.3e-6 at 1e9, 4.9e-4 at 1e11), over spec_tol in absolute terms.
        v = classify_act(complex_space_form_act(-lam, lam, standard_phi(8)))
        assert v.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert_allclose(v.lambda1, lam, rtol=1e-8)

    def test_scaled_generic_tensor_stays_not_osserman(self):
        a = random_act(1, 8)
        v = classify_act(CurvatureTensor(1e9 * a.components, a.metric))
        assert v.kind is VerdictKind.NOT_CONFORMALLY_OSSERMAN

    def test_metric_scale_covariance(self):
        # g -> c g with A -> c A divides reduced eigenvalues by c.
        a = complex_space_form_act(1.0, 1.0, standard_phi(8))
        c = 4.0
        scaled = CurvatureTensor(c * a.components, InnerProduct(c * np.eye(8)))
        v = classify_act(scaled)
        assert v.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM
        assert_allclose(v.lambda1, 1.0 / c, rtol=1e-8)


class TestSampleBounds:
    @pytest.mark.parametrize("samples", [1, tiers.MAX_SAMPLES + 1, 10**13])
    @pytest.mark.parametrize("entry", ["classify_act", "analyze_point", "classify_chart"])
    def test_sample_count_outside_the_bounds_is_refused(self, entry, samples):
        # 10**13 directions would ask numpy for hundreds of TiB.
        a, chart = random_act(0, 4), flat_chart(4)
        run = {
            "classify_act": lambda: classify_act(a, samples=samples),
            "analyze_point": lambda: analyze_point(a, samples=samples),
            "classify_chart": lambda: classify_chart(chart, np.full(4, 0.05), samples=samples),
        }[entry]
        with pytest.raises(ValueError, match=f"samples must be 2 to {tiers.MAX_SAMPLES}, got"):
            run()


class TestMergeRegion:
    """Behavior as lambda1 crosses the clustering resolution."""

    def kind_at(self, lam1):
        return classify_act(complex_space_form_act(1.0, lam1, standard_phi(8)))

    def test_resolvable_split_is_structural(self):
        v = self.kind_at(1e-2)
        assert v.kind is VerdictKind.CONFORMALLY_COMPLEX_SPACE_FORM

    def test_sub_resolution_split_merges_to_flat(self):
        v = self.kind_at(3e-4)
        assert v.kind is VerdictKind.CONFORMALLY_FLAT
        assert any("near-degenerate" in w for w in v.warnings)

    def test_deep_flat_limit_is_clean(self):
        v = self.kind_at(1e-12)
        assert v.kind is VerdictKind.CONFORMALLY_FLAT
        assert not any("near-degenerate" in w for w in v.warnings)

    def test_inconsistent_single_cluster_is_refused(self):
        # A fabricated flat profile cannot excuse a large Weyl norm: the
        # zero trace pins the merged cluster at 0 and polarization caps
        # the components at three times the spread.
        g = InnerProduct.euclidean(6)
        w = weyl_decompose(random_act(1, 6)).w
        profile = SpectralProfile(((0.0, 5),), 0.0, dim=6)
        report = OssermanReport(True, 0.0, 64, 0, 1e-6, np.zeros((2, 5)))
        v = classify_point(w, profile, report, 6)
        assert v.kind is VerdictKind.OSSERMAN_OTHER
        assert any("trace identity" in s for s in v.warnings)


class TestParityConsistency:
    def test_consistent_even_structure(self):
        v = classify_act(complex_space_form_act(1.0, 1.0, standard_phi(10)))
        assert v.profile.multiplicities == (8, 1)
        assert parity_consistency(10, v.profile, v) == []

    def test_odd_dimension_with_two_clusters(self):
        v = classify_act(complex_space_form_act(1.0, 1.0, standard_phi(10)))
        notes = parity_consistency(7, v.profile, v)
        assert notes and "odd" in notes[0]


class TestClassifyChart:
    def test_flat_and_sphere(self):
        for chart in (flat_chart(3), sphere_chart(4, 1.0)):
            pts = default_probe_points(chart, count=3)
            rep = classify_chart(chart, pts)
            assert isinstance(rep, ChartReport)
            assert rep.summary["kinds"] == {"ConformallyFlat": 3}
            assert np.array_equal(rep.points, pts)

    def test_projective_family_structure_sign(self):
        fs = fubini_study_chart(2)
        rep = classify_chart(fs, default_probe_points(fs, count=3))
        assert rep.summary["kinds"] == {"ConformallyComplexSpaceForm": 3}
        assert rep.summary["lambda1_signs"] == {"positive": 3}
        assert rep.summary["phi_pair_consistency"] <= 1e-10

    @pytest.mark.parametrize(
        "builder, n, sign",
        [
            (fubini_study_chart, 2, "positive"),
            (fubini_study_chart, 3, "positive"),
            (fubini_study_chart, 4, "positive"),
            (complex_hyperbolic_chart, 2, "negative"),
        ],
    )
    def test_finite_difference_projective_family(self, builder, n, sign):
        chart = replace(builder(n), d_metric=None, d2_metric=None)
        rep = classify_chart(chart, default_probe_points(chart, count=3))
        assert rep.summary["kinds"] == {"ConformallyComplexSpaceForm": 3}
        assert rep.summary["lambda1_signs"] == {sign: 3}
        for v in rep.verdicts:
            assert v.diagnostics["reconstruction_residual"] <= 1e-6

    def test_hyperbolic_family_structure_sign(self):
        ch = complex_hyperbolic_chart(2)
        rep = classify_chart(ch, default_probe_points(ch, count=2))
        assert rep.summary["lambda1_signs"] == {"negative": 2}

    def test_perturbed_flat_is_rejected(self):
        pf = perturbed_flat_chart(6, 0.1, 42)
        rep = classify_chart(pf, default_probe_points(pf, count=2))
        assert rep.summary["kinds"] == {"NotConformallyOsserman": 2}

    def test_custom_config_threads_through(self):
        tol = ToleranceConfig.chart()
        for chart in (flat_chart(3), perturbed_flat_chart(6, 0.1, 42)):
            pts = default_probe_points(chart, count=2)
            rep = classify_chart(chart, pts, tol=tol, samples=8, seed=3)
            for u, v in zip(pts, rep.verdicts):
                expected = analyze_point(riemann_at(chart, u)[0], tol, 8, 3).verdict
                assert v.kind == expected.kind
                assert v.diagnostics == expected.diagnostics
        # perturbed_flat: the default sample of directions finds another
        # spectrum drift than 8 directions at seed 3.
        default = classify_chart(chart, pts)
        for v, d in zip(rep.verdicts, default.verdicts):
            assert v.diagnostics["osserman_distance"] != d.diagnostics["osserman_distance"]
        # A negative spec_tol accepts no spectrum as constant.
        fs = fubini_study_chart(2)
        strict = replace(ToleranceConfig.chart(), spec_tol=-1.0)
        rep = classify_chart(fs, default_probe_points(fs, count=1), tol=strict)
        assert rep.summary["kinds"] == {"NotConformallyOsserman": 1}
