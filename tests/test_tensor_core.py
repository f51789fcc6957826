"""Value types, symmetry residuals, frame transforms, and the pair table."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom import tiers
from weylgeom.tensor_core import (
    CurvatureTensor,
    HermitianStructure,
    InnerProduct,
    max_abs,
    orthonormal_frame,
    pair_table,
    symmetry_residual,
    transform_tensor,
)
from weylgeom.curvature_algebra import a_phi, r0, sum_psi_generators
from weylgeom.models import fubini_study_chart, standard_phi


def random_spd(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


class TestPairTable:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_matches_the_loops_and_is_read_only(self, m):
        table = pair_table(m)
        assert pair_table(m) is table
        for arr in table:
            assert not arr.flags.writeable
        pairs = [list(p) for p in itertools.combinations(range(m), 2)]
        assert table.pairs.T.tolist() == pairs
        for p, (i, j) in enumerate(pairs):
            assert table.ids[i, j] == table.ids[j, i] == p
        assert np.array_equal(np.diag(table.ids), np.full(m, -1))
        expect = [
            [a, b, c, pairs.index([b, c]), pairs.index([a, c]), pairs.index([a, b])]
            for a, b, c in itertools.combinations(range(m), 3)
        ]
        assert table.triples.shape == (6, len(expect))
        assert table.triples.T.tolist() == expect


class TestInnerProduct:
    def test_euclidean(self):
        g = InnerProduct.euclidean(4)
        assert g.dim == 4
        assert g.is_euclidean()
        assert_allclose(g.g, np.eye(4))

    @pytest.mark.parametrize("spectral_first", [True, False])
    def test_is_euclidean_reads_each_tolerance(self, spectral_first):
        # max |g - I| is taken once per instance; each call compares it
        # with its own tolerance, whatever was asked before.  1e-11 lies
        # between the default tier and the spectral operations' tier.
        g = InnerProduct(np.eye(5) + np.diag([0.0, 1e-11, 0.0, 0.0, 0.0]))
        asks = [(tiers.SPECTRAL_FRAME, True), (tiers.EUCLIDEAN_FRAME, False)]
        for tol, expect in asks if spectral_first else asks[::-1]:
            assert g.is_euclidean(tol) is expect
        assert g.is_euclidean() is False

    def test_pair_and_norm(self):
        g = InnerProduct(np.diag([4.0, 9.0]))
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert g.pair(x, x) == 4.0
        assert g.pair(x, y) == 0.0
        assert g.norm(y) == 3.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            InnerProduct(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0])):
            with pytest.raises(ValueError, match="non-finite"):
                InnerProduct(bad)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            InnerProduct(np.array([[2.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            InnerProduct(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            InnerProduct(np.diag([1.0, -1.0]))

    def test_matrix_is_readonly(self):
        g = InnerProduct.euclidean(3)
        with pytest.raises(ValueError):
            g.g[0, 0] = 2.0


class TestCurvatureTensor:
    def test_shape_validation(self):
        g = InnerProduct.euclidean(3)
        with pytest.raises(ValueError):
            CurvatureTensor(np.zeros((3, 3, 3)), g)
        with pytest.raises(ValueError):
            CurvatureTensor(np.zeros((3, 3, 3, 2)), g)

    def test_metric_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CurvatureTensor(np.zeros((3, 3, 3, 3)), InnerProduct.euclidean(4))

    def test_max_abs(self):
        g = InnerProduct.euclidean(3)
        c = np.zeros((3, 3, 3, 3))
        c[0, 1, 2, 0] = -7.0
        assert CurvatureTensor(c, g).max_abs() == 7.0
        assert max_abs(CurvatureTensor(c, g)) == 7.0

    def test_components_readonly(self):
        a = r0(InnerProduct.euclidean(3))
        with pytest.raises(ValueError):
            a.components[0, 0, 0, 0] = 1.0

    def test_rejects_non_finite(self):
        g = InnerProduct.euclidean(4)
        for bad in (np.nan, np.inf, -np.inf):
            c = np.zeros((4, 4, 4, 4))
            c[1, 2, 3, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                CurvatureTensor(c, g)

    def test_components_are_c_contiguous(self):
        # An einsum output keeps its own strides; the stored copy does not.
        e = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 5))
        comps = np.einsum("li,kj->ijkl", e, e)
        a = CurvatureTensor(comps, InnerProduct.euclidean(5))
        assert a.components.flags.c_contiguous
        assert np.array_equal(a.components, comps)


class TestMaxAbs:
    def test_zeros_of_either_sign_give_plus_zero(self):
        for zero in (0.0, -0.0):
            got = max_abs(np.full((3, 4), zero))
            assert got == 0.0 and not np.signbit(got)

    def test_nan_anywhere_gives_nan(self):
        for where in (0, 5, 11):
            a = np.arange(12.0) - 6.0
            a[where] = np.nan
            assert np.isnan(max_abs(a))

    def test_largest_magnitude_of_either_sign(self):
        assert max_abs(np.array([1.0, -7.5, 3.0])) == 7.5
        assert max_abs(np.array([[2.0, 9.25], [-1.0, 0.0]])) == 9.25
        assert max_abs(np.zeros(0)) == 0.0


def symmetry_residual_reference(a):
    """The residual formed with a fresh array per term, as it was before
    the shared buffer."""
    c = a.components
    res = float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))
    res = max(res, float(np.max(np.abs(c + np.swapaxes(c, 2, 3)))))
    res = max(res, float(np.max(np.abs(c - np.transpose(c, (2, 3, 0, 1))))))
    cyclic = c + np.transpose(c, (2, 0, 1, 3)) + np.transpose(c, (1, 2, 0, 3))
    return max(res, float(np.max(np.abs(cyclic))))


class TestSymmetryResidual:
    def test_bit_identical_to_the_reference(self):
        rng = np.random.default_rng(5)
        for m in (3, 4, 7, 12):
            g = InnerProduct(random_spd(m, m))
            noise = rng.standard_normal((m,) * 4)
            for comps in (r0(g).components, r0(g).components + 1e-9 * noise, noise):
                a = CurvatureTensor(comps, g)
                assert symmetry_residual(a) == symmetry_residual_reference(a)

    def test_r0_is_exact(self):
        assert symmetry_residual(r0(InnerProduct.euclidean(3))) == 0.0

    def test_single_entry_tensor_violates(self):
        # A lone nonzero component has no antisymmetry partner.
        c = np.zeros((3, 3, 3, 3))
        c[1, 2, 2, 1] = 1.0
        a = CurvatureTensor(c, InnerProduct.euclidean(3))
        assert symmetry_residual(a) > 0.5

    def test_generator_sums_are_exact_acts(self):
        rng = np.random.default_rng(3)
        g = InnerProduct.euclidean(6)
        psis = [rng.uniform(-1, 1, (6, 6)) for _ in range(5)]
        psis = [0.5 * (p + p.T) for p in psis]
        coeffs = rng.uniform(-1, 1, 5)
        a = sum_psi_generators(psis, coeffs, g)
        assert symmetry_residual(a) <= 1e-12


class TestOrthonormalFrame:
    def test_identity(self):
        b = orthonormal_frame(InnerProduct.euclidean(5))
        assert_allclose(b, np.eye(5))

    def test_diagonal_scaling(self):
        b = orthonormal_frame(InnerProduct(np.diag([4.0, 9.0])))
        assert_allclose(b, np.diag([0.5, 1.0 / 3.0]))

    def test_defining_identity_on_chart_metric(self):
        chart = fubini_study_chart(2)
        u = np.array([0.4, -0.3, 0.2, 0.5])
        g = InnerProduct(chart.metric(u))
        b = orthonormal_frame(g)
        assert max_abs(b.T @ g.g @ b - np.eye(4)) <= 1e-12

    def test_deterministic(self):
        g = InnerProduct(random_spd(5, 11))
        assert_allclose(orthonormal_frame(g), orthonormal_frame(g))


class TestTransformTensor:
    def test_identity_transform(self):
        a = r0(InnerProduct.euclidean(4))
        b = transform_tensor(a, np.eye(4))
        assert_allclose(b.components, a.components)

    def test_r0_pulls_back_to_euclidean_r0(self):
        g = InnerProduct(random_spd(4, 7))
        frame = orthonormal_frame(g)
        pulled = transform_tensor(r0(g), frame)
        assert pulled.metric.is_euclidean(tol=1e-10)
        assert max_abs(pulled.components - r0(InnerProduct.euclidean(4)).components) <= 1e-10

    def test_a_phi_conjugation_equivariance(self):
        # Pulling A_Phi through an orthogonal Q gives A_{Q^T Phi Q}.
        m = 6
        g = InnerProduct.euclidean(m)
        phi = standard_phi(m).matrix
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        left = transform_tensor(a_phi(phi, g), q)
        right = a_phi(q.T @ phi @ q, g)
        assert max_abs(left.components - right.components) <= 1e-12

    def test_symmetry_residual_preserved(self):
        g = InnerProduct.euclidean(5)
        rng = np.random.default_rng(9)
        psi = rng.uniform(-1, 1, (5, 5))
        a = sum_psi_generators([0.5 * (psi + psi.T)], [1.0], g)
        b = rng.standard_normal((5, 5))
        assert symmetry_residual(transform_tensor(a, b)) <= 1e-10 * max(1.0, a.max_abs())

    def test_shape_mismatch(self):
        a = r0(InnerProduct.euclidean(4))
        with pytest.raises(ValueError):
            transform_tensor(a, np.eye(3))

    @pytest.mark.parametrize("m", [4, 8])
    def test_matches_einsum_reference(self, m):
        rng = np.random.default_rng(m)
        g = InnerProduct.euclidean(m)
        psis = [rng.uniform(-1, 1, (m, m)) for _ in range(3)]
        a = sum_psi_generators([0.5 * (p + p.T) for p in psis], rng.uniform(-1, 1, 3), g)
        b = rng.standard_normal((m, m))
        expect = np.einsum("abcd,ai,bj,ck,dl->ijkl", a.components, b, b, b, b)
        got = transform_tensor(a, b)
        assert max_abs(got.components - expect) <= 1e-12 * max_abs(expect)
        assert_allclose(got.metric.g, b.T @ g.g @ b)


class TestHermitianStructure:
    def test_standard_block_structure_validates(self):
        phi = standard_phi(6)
        phi.validate()
        res = phi.residuals()
        assert res["square"] == 0.0
        assert res["skew"] == 0.0
        assert res["orthogonality"] == 0.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            HermitianStructure(np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        mat = standard_phi(4).matrix.copy()
        mat[2, 3] = np.inf
        for bad in (np.full((4, 4), np.nan), mat):
            with pytest.raises(ValueError, match="non-finite"):
                HermitianStructure(bad)

    def test_corrupted_structure_fails_validate(self):
        mat = standard_phi(4).matrix.copy()
        mat[0, 1] += 0.01
        with pytest.raises(ValueError):
            HermitianStructure(mat).validate()

    def test_validate_against_non_euclidean_metric(self):
        # Conjugating the standard structure by the inverse frame of g
        # produces a g-compatible structure.
        g = InnerProduct(random_spd(4, 2))
        b = orthonormal_frame(g)
        phi = HermitianStructure(b @ standard_phi(4).matrix @ np.linalg.inv(b))
        phi.validate(g, tol=1e-8)
