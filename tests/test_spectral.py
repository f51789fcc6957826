"""Jacobi operators, spectrum clustering, and the constancy test."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom.curvature_algebra import (
    a_phi,
    complex_space_form_act,
    r0,
    random_act,
    weyl_decompose,
)
from weylgeom import tiers
from weylgeom.models import standard_phi
from weylgeom.spectral import (
    SpectralProfile,
    _jacobi_stack,
    _structured_index,
    _structured_jacobi,
    complement_basis,
    direction_spectra,
    jacobi_operator,
    osserman_test,
    reduced_jacobi,
    spectral_profile,
    structured_directions,
    structured_spectra,
    trace_check,
    unit_directions,
)
from weylgeom.tensor_core import CurvatureTensor, InnerProduct, max_abs


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


class TestJacobiOperator:
    def setup_method(self):
        self.g4 = InnerProduct.euclidean(4)
        self.g5 = InnerProduct.euclidean(5)

    def test_sphere_gives_complement_projection(self):
        j = jacobi_operator(r0(self.g5), basis_vector(5, 0))
        assert_allclose(j, np.diag([0.0, 1.0, 1.0, 1.0, 1.0]), atol=1e-14)

    def test_annihilates_own_direction(self):
        for seed in range(3):
            a = random_act(seed, 5)
            x = unit_directions(5, 1, seed=seed)[-1]
            assert np.abs(jacobi_operator(a, x) @ x).max() <= 1e-12

    def test_self_adjoint(self):
        a = random_act(11, 6)
        x = unit_directions(6, 1, seed=0)[-1]
        j = jacobi_operator(a, x)
        assert max_abs(j - j.T) <= 1e-12

    def test_quadratic_homogeneity(self):
        a = random_act(1, 4)
        x = basis_vector(4, 2)
        assert_allclose(jacobi_operator(a, 3.0 * x), 9.0 * jacobi_operator(a, x))

    def test_complex_generator_eigenvector(self):
        # The rotated direction carries the triple eigenvalue.
        phi = standard_phi(4)
        x = basis_vector(4, 0)
        j = jacobi_operator(a_phi(phi, self.g4), x)
        assert_allclose(j @ (phi.matrix @ x), 3.0 * (phi.matrix @ x), atol=1e-14)

    def test_requires_orthonormal_frame(self):
        g = InnerProduct(np.diag([4.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="orthonormal"):
            jacobi_operator(r0(g), np.array([0.5, 0.0, 0.0, 0.0]))


class TestComplementBasis:
    def test_column_geometry(self):
        x = unit_directions(5, 1, seed=4)[-1]
        b = complement_basis(x)
        assert b.shape == (5, 4)
        assert max_abs(b.T @ b - np.eye(4)) <= 1e-14
        assert np.abs(b.T @ x).max() <= 1e-14

    def test_negative_leading_component(self):
        x = np.array([-1.0, 0.0, 0.0])
        b = complement_basis(x)
        assert max_abs(b.T @ b - np.eye(2)) <= 1e-14
        assert np.abs(b.T @ x).max() <= 1e-14

    def test_deterministic(self):
        x = unit_directions(6, 1, seed=8)[-1]
        assert_allclose(complement_basis(x), complement_basis(x))


class TestReducedJacobi:
    def test_sphere_is_identity(self):
        for m in (3, 5, 8):
            g = InnerProduct.euclidean(m)
            x = unit_directions(m, 1, seed=m)[-1]
            assert_allclose(reduced_jacobi(r0(g), x), np.eye(m - 1), atol=1e-12)

    def test_complex_space_form_weyl_spectrum(self):
        # m=8: one eigenvalue at 18/7, six at -3/7, independent of x.
        g = InnerProduct.euclidean(8)
        w = weyl_decompose(complex_space_form_act(1.0, 1.0, standard_phi(8))).w
        for x in unit_directions(8, 3, seed=2)[8 * 8 :]:
            eig = np.sort(np.linalg.eigvalsh(reduced_jacobi(w, x)))
            expect = np.array([-3.0 / 7.0] * 6 + [18.0 / 7.0])
            assert_allclose(eig, expect, atol=1e-12)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            reduced_jacobi(r0(InnerProduct.euclidean(4)), np.array([0.5, 0.0, 0.0, 0.0]))


class TestSpectralProfile:
    def test_merges_close_eigenvalues(self):
        p = spectral_profile(np.diag([1.0000001, 0.9999999, 4.0]))
        assert p.clusters == ((1.0, 2), (4.0, 1))
        assert p.values == (1.0, 4.0)
        assert p.multiplicities == (2, 1)
        assert p.dim == 4
        assert 0 < p.spread < 3e-7

    def test_identity_is_one_cluster(self):
        p = spectral_profile(np.eye(5))
        assert p.clusters == ((1.0, 5),)
        assert p.spread == 0.0

    def test_tight_tolerance_splits(self):
        mat = np.diag([1.0, 1.0 + 1e-5, 4.0])
        assert len(spectral_profile(mat, cluster_tol=1e-3).clusters) == 2
        assert len(spectral_profile(mat, cluster_tol=1e-7).clusters) == 3

    def test_threshold_is_relative_to_scale(self):
        # Same gap, 1000x the magnitude: the relative threshold merges it.
        mat = np.diag([1000.0, 1000.0 + 1e-5, 4000.0])
        assert len(spectral_profile(mat, cluster_tol=1e-3).clusters) == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="self adjoint"):
            spectral_profile(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_multiplicity_bookkeeping_enforced(self):
        with pytest.raises(ValueError, match="multiplicities"):
            SpectralProfile(((1.0, 2),), 0.0, dim=4)


class TestDirectionSampling:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 10, 16, 24])
    def test_structured_matches_the_loop(self, m):
        assert np.array_equal(structured_directions(m), structured_directions_by_loop(m))

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
        dirs = unit_directions(m, samples, seed=4)
        expect = np.array([np.linalg.eigvalsh(reduced_jacobi_by_formula(a, x)) for x in dirs])
        assert rep.spectra.shape == expect.shape
        assert max_abs(rep.spectra - expect) <= 1e-12 * max(1.0, max_abs(expect))
        public = np.array([np.linalg.eigvalsh(reduced_jacobi(a, x)) for x in dirs])
        assert max_abs(rep.spectra - public) <= 1e-12 * max(1.0, max_abs(expect))

    @pytest.mark.parametrize("m", [4, 5, 8, 10, 16, 24])
    def test_structured_operators_match_the_general_product(self, m):
        # J((e_i + s e_j)/sqrt2) read off slices of the tensor against the
        # product over all of it with x x^T; the two differ by roundoff in
        # the 1/sqrt2 weights.
        a = random_act(m, m).components
        i, j, s = _structured_index(m)
        got = _structured_jacobi(a.reshape(m, m * m, m), i, j, s)
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
        for seed, m in ((0, 6), (3, 10)):
            a = random_act(seed, m)
            expect = max(
                abs(np.einsum("yaby,a,b->", a.components, x, x))
                for x in unit_directions(m, 40, seed=2)
            )
            assert abs(trace_check(a, samples=40, seed=2) - expect) <= 1e-12 * max(1.0, expect)


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
