"""Jacobi operators, spectrum clustering, and the constancy test."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom.chart_geometry import default_probe_points, riemann_at
from weylgeom.classifier import classify_act, orthonormal_decomposition
from weylgeom.curvature_algebra import (
    a_phi,
    complex_space_form_act,
    r0,
    random_act,
    ricci_scalar,
    weyl_decompose,
)
from weylgeom import spectral, tiers
from weylgeom.models import fubini_study_chart, standard_phi
from weylgeom.spectral import (
    SpectralProfile,
    _jacobi_stack,
    _self_adjoint_eigvalsh,
    _structured,
    _structured_jacobi,
    cluster_spectrum,
    direction_spectra,
    osserman_test,
    structured_directions,
    structured_spectra,
    trace_check,
    unit_directions,
)
from weylgeom.tensor_core import CurvatureTensor, HermitianStructure, InnerProduct, max_abs


def basis_vector(m, i):
    x = np.zeros(m)
    x[i] = 1.0
    return x


def structured_directions_by_loop(m):
    """The structured direction set as a loop over pairs, the reference
    for the vectorized build."""
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


def reduced_jacobi_by_formula(a, x):
    """One direction at a time: the einsum Jacobi operator compressed to
    the Householder complement of x, the reference for the batched
    spectra."""
    j = np.einsum("yabz,a,b->zy", a.components, x, x)
    v = x.copy()
    v[0] += 1.0 if x[0] >= 0 else -1.0
    p = (np.eye(len(x)) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]
    return p.T @ j @ p


def reference_spectra(a, dirs):
    """Ascending spectra of reduced_jacobi_by_formula, one row per row of
    dirs: the reference for direction_spectra, with its signature."""
    return np.array([np.linalg.eigvalsh(reduced_jacobi_by_formula(a, x)) for x in dirs])


def assert_spectra_match_reference(a, draws):
    """structured_spectra, and direction_spectra of the rows draws, within
    1e-12 of the reference relative to max(1, max |eigenvalue|)."""
    m = a.dim
    for got, dirs in (
        (structured_spectra(a), structured_directions(m)),
        (direction_spectra(a, draws), draws),
    ):
        expect = reference_spectra(a, dirs)
        assert got.shape == expect.shape == (len(dirs), m - 1)
        assert max_abs(got - expect) <= 1e-12 * max(1.0, max_abs(expect))


def one_jacobi(a, x):
    """The Jacobi operator of one direction, a row of the batched stack."""
    return _jacobi_stack(a.components, np.asarray(x, dtype=float)[None, :])[0]


def rotation(m, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    return q * np.sign(np.diag(r))


# Left multiplication by i, j, k on the quaternions in the basis 1, i, j, k.
QUATERNION_UNITS = (
    np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float),
    np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float),
)


def rotated_complex_space_form(m, lambda0, seed):
    q = rotation(m, seed)
    return complex_space_form_act(
        lambda0, 1.3, HermitianStructure(q @ standard_phi(m).matrix @ q.T)
    )


def pinned_tensor(kind, m):
    """The inputs of the reference pin, in an orthonormal frame."""
    g = InnerProduct.euclidean(m)
    if kind == "complex_space_form":
        # lambda0 = 0: besides the kernel of x, J(x) has a true zero of
        # multiplicity m - 2, and the least-modulus rule must drop one.
        return rotated_complex_space_form(m, 0.0, seed=m)
    if kind == "quaternionic":
        # lambda0 R0 + lambda1 sum of A_Phi over the rotated Clifford units.
        q = rotation(m, seed=m)
        comps = 0.4 * r0(g).components
        for unit in QUATERNION_UNITS:
            comps = comps + 1.1 * a_phi(q @ np.kron(np.eye(m // 4), unit) @ q.T, g).components
        return CurvatureTensor(comps, g)
    if kind == "zero":
        return CurvatureTensor(np.zeros((m,) * 4), g)
    chart = dataclasses.replace(fubini_study_chart(m // 2), d_metric=None, d2_metric=None)
    u = default_probe_points(chart, 3)[1]
    return orthonormal_decomposition(riemann_at(chart, u)[0]).w


class TestJacobiOperator:
    def setup_method(self):
        self.g4 = InnerProduct.euclidean(4)
        self.g5 = InnerProduct.euclidean(5)

    def test_sphere_gives_complement_projection(self):
        j = one_jacobi(r0(self.g5), basis_vector(5, 0))
        assert_allclose(j, np.diag([0.0, 1.0, 1.0, 1.0, 1.0]), atol=1e-14)

    def test_annihilates_own_direction(self):
        for seed in range(3):
            a = random_act(seed, 5)
            x = unit_directions(5, 1, seed=seed)[-1]
            assert np.abs(one_jacobi(a, x) @ x).max() <= 1e-12

    def test_self_adjoint(self):
        a = random_act(11, 6)
        x = unit_directions(6, 1, seed=0)[-1]
        j = one_jacobi(a, x)
        assert max_abs(j - j.T) <= 1e-12

    def test_quadratic_homogeneity(self):
        a = random_act(1, 4)
        x = basis_vector(4, 2)
        assert_allclose(one_jacobi(a, 3.0 * x), 9.0 * one_jacobi(a, x))

    def test_complex_generator_eigenvector(self):
        # The rotated direction carries the triple eigenvalue.
        phi = standard_phi(4)
        x = basis_vector(4, 0)
        j = one_jacobi(a_phi(phi, self.g4), x)
        assert_allclose(j @ (phi.matrix @ x), 3.0 * (phi.matrix @ x), atol=1e-14)

    def test_requires_orthonormal_frame(self):
        g = InnerProduct(np.diag([4.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="orthonormal"):
            direction_spectra(r0(g), np.array([[1.0, 0.0, 0.0, 0.0]]))


class TestOneDirectionSpectrum:
    def test_sphere_is_all_ones(self):
        for m in (3, 5, 8):
            g = InnerProduct.euclidean(m)
            x = unit_directions(m, 1, seed=m)[-1:]
            assert_allclose(direction_spectra(r0(g), x), np.ones((1, m - 1)), atol=1e-12)

    def test_complex_space_form_weyl_spectrum(self):
        # m=8: one eigenvalue at 18/7, six at -3/7, independent of x.
        w = weyl_decompose(complex_space_form_act(1.0, 1.0, standard_phi(8))).w
        for x in unit_directions(8, 3, seed=2)[8 * 8 :]:
            eig = direction_spectra(w, x[None])[0]
            expect = np.array([-3.0 / 7.0] * 6 + [18.0 / 7.0])
            assert_allclose(eig, expect, atol=1e-12)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            direction_spectra(r0(InnerProduct.euclidean(4)), np.array([[0.5, 0.0, 0.0, 0.0]]))


class TestMalformedDirections:
    """direction_spectra refuses rows of the wrong shape or length with a
    ValueError that names the problem."""

    def setup_method(self):
        self.w = weyl_decompose(random_act(1, 6)).w

    def test_one_dimensional_row(self):
        with pytest.raises(ValueError, match=r"shape \(n, 6\), got \(6,\)"):
            direction_spectra(self.w, np.eye(6)[0])

    def test_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError, match=r"shape \(n, 6\), got \(2, 7\)"):
            direction_spectra(self.w, np.eye(7)[:2])

    def test_nan_row(self):
        dirs = np.eye(6)[:3].copy()
        dirs[1, 2] = np.nan
        with pytest.raises(ValueError, match="unit length, got .x. = nan"):
            direction_spectra(self.w, dirs)


class TestClusterSpectrum:
    def test_merges_close_eigenvalues(self):
        p = cluster_spectrum(np.linalg.eigvalsh(np.diag([1.0000001, 0.9999999, 4.0])))
        assert p.clusters == ((1.0, 2), (4.0, 1))
        assert p.values == (1.0, 4.0)
        assert p.multiplicities == (2, 1)
        assert p.dim == 4
        assert 0 < p.spread < 3e-7

    def test_identity_is_one_cluster(self):
        p = cluster_spectrum(np.linalg.eigvalsh(np.eye(5)))
        assert p.clusters == ((1.0, 5),)
        assert p.spread == 0.0

    def test_tight_tolerance_splits(self):
        eig = np.linalg.eigvalsh(np.diag([1.0, 1.0 + 1e-5, 4.0]))
        assert len(cluster_spectrum(eig, cluster_tol=1e-3).clusters) == 2
        assert len(cluster_spectrum(eig, cluster_tol=1e-7).clusters) == 3

    def test_threshold_is_relative_to_scale(self):
        # Same gap, 1000x the magnitude: the relative threshold merges it.
        eig = np.linalg.eigvalsh(np.diag([1000.0, 1000.0 + 1e-5, 4000.0]))
        assert len(cluster_spectrum(eig, cluster_tol=1e-3).clusters) == 2

    def test_eigensolve_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="self adjoint"):
            _self_adjoint_eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_multiplicity_bookkeeping_enforced(self):
        with pytest.raises(ValueError, match="multiplicities"):
            SpectralProfile(((1.0, 2),), 0.0, dim=4)


class TestDirectionSampling:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 10, 16, 24])
    def test_structured_matches_the_loop(self, m):
        assert np.array_equal(structured_directions(m), structured_directions_by_loop(m))

    @pytest.mark.parametrize("m", [3, 8])
    def test_kept_table_is_read_only(self, m):
        table = _structured(m)
        assert _structured(m) is table
        for arr in table:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert np.array_equal(table.rows, structured_directions_by_loop(m))
        # The gather reads the slices named by the axes and signs.
        for flat, (a, b) in zip(
            (table.ii, table.jj, table.ij, table.ji),
            ((table.i, table.i), (table.j, table.j), (table.i, table.j), (table.j, table.i)),
        ):
            assert np.array_equal(flat, a * m + b)
        assert np.array_equal(table.half_s[:, 0], 0.5 * table.s)

    def test_returned_directions_are_fresh_and_writable(self):
        first = structured_directions(4)
        first[0, 0] = 7.0
        for dirs in (structured_directions(4), unit_directions(4, 2, seed=0)[:16]):
            assert dirs.flags.writeable
            assert np.array_equal(dirs, structured_directions_by_loop(4))

    def test_structured_count_and_norms(self):
        for m in (3, 4, 6):
            dirs = structured_directions(m)
            assert dirs.shape == (m + m * (m - 1), m)
            assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)

    def test_structured_prefix_then_random(self):
        s = structured_directions(4)
        full = unit_directions(4, 10, seed=3)
        assert full.shape == (len(s) + 10, 4)
        assert_allclose(full[: len(s)], s)

    def test_random_only(self):
        dirs = unit_directions(5, 7, seed=1)[5 * 5 :]
        assert dirs.shape == (7, 5)
        assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)

    def test_draw_below_the_norm_floor_raises(self, monkeypatch):
        monkeypatch.setattr(tiers, "DIRECTION_NORM_FLOOR", 1e3)
        with pytest.raises(ValueError, match="norm"):
            unit_directions(4, 3, seed=0)

    def test_deterministic_across_calls(self):
        a = unit_directions(6, 20, seed=9)
        b = unit_directions(6, 20, seed=9)
        assert_allclose(a, b)
        c = unit_directions(6, 20, seed=10)
        assert max_abs(a - c) > 1e-3


class TestTraceCheck:
    def test_sphere_trace_is_ricci_diagonal(self):
        assert_allclose(trace_check(r0(InnerProduct.euclidean(5))), 4.0, atol=1e-12)

    def test_weyl_parts_are_traceless(self):
        for seed, m in ((0, 4), (1, 6), (2, 7)):
            w = weyl_decompose(random_act(seed, m)).w
            assert trace_check(w) <= 1e-9

    def test_zero_tensor(self):
        from weylgeom.tensor_core import CurvatureTensor

        g = InnerProduct.euclidean(4)
        assert trace_check(CurvatureTensor(np.zeros((4,) * 4), g)) == 0.0


class TestBatchedSpectra:
    @pytest.mark.parametrize("m,samples", [(6, 64), (10, 64), (10, 37), (24, 64)])
    def test_osserman_spectra_match_per_direction_loop(self, m, samples):
        # 10 * 10 + 37 rows leave a partial last block.
        a = random_act(m, m)
        rep = osserman_test(a, samples=samples, seed=4)
        expect = reference_spectra(a, unit_directions(m, samples, seed=4))
        assert rep.spectra.shape == expect.shape
        assert max_abs(rep.spectra - expect) <= 1e-12 * max(1.0, max_abs(expect))

    @pytest.mark.parametrize("m", [4, 5, 8, 10, 16, 24])
    def test_structured_operators_match_the_general_product(self, m):
        # J((e_i + s e_j)/sqrt2) read off slices of the tensor against the
        # product over all of it with x x^T; the two differ by roundoff in
        # the 1/sqrt2 weights.
        a = random_act(m, m).components
        got = _structured_jacobi(a.reshape(m, m * m, m), _structured(m), slice(None))
        expect = _jacobi_stack(a, structured_directions(m))
        assert max_abs(got - expect) <= 1e-15 * max_abs(a)
        # An axis row is the slice T_ii itself, with no roundoff at all.
        assert np.array_equal(got[:m], expect[:m])

    @pytest.mark.parametrize("m", [4, 9, 12])
    def test_structured_spectra_match_direction_spectra(self, m):
        a = weyl_decompose(random_act(m + 1, m)).w
        got = structured_spectra(a)
        expect = direction_spectra(a, structured_directions(m))
        assert got.shape == (m * m, m - 1)
        assert max_abs(got - expect) <= 1e-13 * max(1.0, max_abs(expect))

    @pytest.mark.parametrize("m", [4, 8, 16, 24])
    @pytest.mark.parametrize("kind", ["complex_space_form", "quaternionic", "zero", "fd_weyl"])
    def test_spectra_match_the_householder_reference(self, kind, m):
        a = pinned_tensor(kind, m)
        assert_spectra_match_reference(a, unit_directions(m, 16, seed=3)[m * m :])

    @pytest.mark.parametrize("m", [8, 10])
    @pytest.mark.parametrize("lambda0", [0.0, 0.7])
    def test_first_pair_symmetric_defect(self, monkeypatch, m, lambda0):
        # A defect 1e-7 h_ya h_bz, h symmetric, is symmetric in the first
        # pair and passes ricci_scalar's gate, but gives J(x)x != 0.  On
        # the tensor itself at lambda0 = 0, where zeros tie, the spectra
        # then move at the defect's order; the Weyl part that the
        # classifier reads has no tied zero and still matches the
        # reference, and the verdict is the one the reference spectra give.
        csf = rotated_complex_space_form(m, lambda0, seed=m)
        h = np.random.default_rng(m).standard_normal((m, m))
        h = (h + h.T) / max_abs(h + h.T)
        comps = csf.components + 1e-7 * csf.max_abs() * np.einsum("ya,bz->yabz", h, h)
        a = CurvatureTensor(comps, csf.metric)
        ricci_scalar(a)
        assert_spectra_match_reference(
            orthonormal_decomposition(a).w, unit_directions(m, 16, seed=3)[m * m :]
        )
        kind = classify_act(a).kind
        monkeypatch.setattr(
            spectral,
            "structured_spectra",
            lambda t: reference_spectra(t, structured_directions(t.dim)),
        )
        monkeypatch.setattr(spectral, "direction_spectra", reference_spectra)
        assert classify_act(a).kind == kind

    def test_asymmetric_row_in_second_block_raises(self):
        # The defect only shows in directions with both x_8 and x_9
        # nonzero: the structured pair (8, 9) and the random draws, all
        # past the first block of rows.
        m = 10
        comps = np.array(r0(InnerProduct.euclidean(m)).components)
        comps[0, 8, 9, 1] += 0.5
        comps[0, 9, 8, 1] += 0.5
        a = CurvatureTensor(comps, InnerProduct.euclidean(m))
        dirs = unit_directions(m, 8, seed=0)
        first_block = dirs[:64]
        assert np.all(np.abs(first_block[:, 8] * first_block[:, 9]) == 0.0)
        with pytest.raises(ValueError, match="self adjoint"):
            osserman_test(a, samples=8)

    def test_trace_check_matches_per_direction_trace(self):
        # The exact maximum bounds every sampled |x^T T x| and is attained
        # at the top eigenvector of the symmetric part of T.
        for seed, m in ((0, 6), (3, 10)):
            a = random_act(seed, m)
            exact = trace_check(a)
            sampled = np.abs(
                np.einsum("yaby,na,nb->n", a.components, *2 * (unit_directions(m, 40, seed=2),))
            )
            assert np.all(sampled <= exact * (1.0 + 1e-12))
            t = np.einsum("yaby->ab", a.components)
            vals, vecs = np.linalg.eigh(0.5 * (t + t.T))
            top = vecs[:, np.argmax(np.abs(vals))]
            attained = abs(np.einsum("yaby,a,b->", a.components, top, top))
            assert abs(exact - attained) <= 1e-12 * max(1.0, exact)


class TestOssermanTest:
    def test_space_forms_are_constant(self):
        for lam in (1.0, -2.0, 0.5):
            g = InnerProduct.euclidean(5)
            from weylgeom.tensor_core import CurvatureTensor

            a = CurvatureTensor(lam * r0(g).components, g)
            rep = osserman_test(a)
            assert rep.is_constant
            assert rep.max_profile_distance <= 1e-10

    def test_complex_space_form_is_constant(self):
        rep = osserman_test(complex_space_form_act(1.0, 1.0, standard_phi(8)))
        assert rep.is_constant
        assert rep.max_profile_distance <= 1e-10
        row = np.sort(rep.spectra[0])
        assert_allclose(row, [1.0] * 6 + [4.0], atol=1e-12)

    def test_generic_tensor_is_not_constant(self):
        rep = osserman_test(random_act(7, 6))
        assert not rep.is_constant
        # Pinned to protect the direction sampling and the distance metric.
        assert_allclose(rep.max_profile_distance, 2.1283790807437541, rtol=1e-12)

    def test_spectra_rows_cover_structured_and_random(self):
        rep = osserman_test(random_act(7, 6), samples=64)
        assert rep.spectra.shape == (6 + 6 * 5 + 64, 5)

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            osserman_test(r0(InnerProduct.euclidean(4)), samples=1)

    def test_report_is_deterministic(self):
        a = osserman_test(random_act(3, 5), seed=12)
        b = osserman_test(random_act(3, 5), seed=12)
        assert a.max_profile_distance == b.max_profile_distance
        assert_allclose(a.spectra, b.spectra)
