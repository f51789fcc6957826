"""Generators, Ricci contraction, and the trace decomposition.

The closed-form checks here are the backbone of everything downstream:
if the sphere generator, the complex generators, and the decomposition
constants are right, the chart pipeline only has to reproduce them.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgeom.curvature_algebra import (
    a_phi,
    a_psi,
    add_r0_of_identity,
    complex_space_form_act,
    draw_act_generators,
    l_tensor,
    r0,
    random_act,
    ricci_scalar,
    sum_psi_generators,
    weyl_constants,
    weyl_decompose,
)
from weylgeom.models import standard_phi
from weylgeom.tensor_core import (
    CurvatureTensor,
    InnerProduct,
    max_abs,
    orthonormal_frame,
    symmetry_residual,
    transform_tensor,
)

E3 = InnerProduct.euclidean(3)
E4 = InnerProduct.euclidean(4)


class TestSphereGenerator:
    def test_components_m3(self):
        a = r0(E3).components
        assert a[0, 1, 1, 0] == 1.0
        assert a[0, 1, 0, 1] == -1.0
        assert a[0, 1, 2, 0] == 0.0

    def test_ricci_is_scaled_metric(self):
        for m in (3, 4, 5, 7):
            g = InnerProduct.euclidean(m)
            rho, tau = ricci_scalar(r0(g))
            assert_allclose(rho, (m - 1) * np.eye(m), atol=1e-12)
            assert_allclose(tau, m * (m - 1))

    def test_scalar_curvature_m4_m5(self):
        assert_allclose(ricci_scalar(r0(E4))[1], 12.0)
        assert_allclose(ricci_scalar(r0(InnerProduct.euclidean(5)))[1], 20.0)

    def test_symmetries(self):
        assert symmetry_residual(r0(E4)) == 0.0

    @pytest.mark.parametrize("m", [3, 4, 8])
    def test_sparse_update_is_r0_of_identity(self, m):
        base = random_act(m, m).components
        got = add_r0_of_identity(base.copy(), -2.5)
        assert np.array_equal(got, base - 2.5 * r0(InnerProduct.euclidean(m)).components)


class TestRicciContraction:
    def test_zero_tensor(self):
        rho, tau = ricci_scalar(CurvatureTensor(np.zeros((4,) * 4), E4))
        assert max_abs(rho) == 0.0
        assert tau == 0.0

    def test_complex_generator_ricci(self):
        # Skew structure contributes 3 * g to the Ricci form.
        rho, tau = ricci_scalar(a_phi(standard_phi(4), E4))
        assert_allclose(rho, 3.0 * np.eye(4), atol=1e-12)
        assert_allclose(tau, 12.0)

    def test_non_euclidean_metric(self):
        # Contraction must be metric, not coordinate: pulling back to an
        # orthonormal frame and returning cannot change the answer.
        g = InnerProduct(np.diag([1.0, 4.0, 9.0, 16.0]))
        rho, tau = ricci_scalar(r0(g))
        assert_allclose(rho, 3.0 * g.g, atol=1e-10)
        assert_allclose(tau, 12.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_frames_match_orthonormal_round_trip(self, seed):
        # Reference: contract in an orthonormal frame, then transport the
        # form back with rho = B^-T rho_on B^-1.
        m = 6
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
        q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
        frame = q1 @ np.diag(np.exp(rng.uniform(-1.0, 1.0, m))) @ q2
        assert np.linalg.cond(frame) <= np.e**2
        a = transform_tensor(random_act(seed, m), frame)
        b = orthonormal_frame(a.metric)
        rho_on = np.einsum("ikkj->ij", transform_tensor(a, b).components)
        rho_on = 0.5 * (rho_on + rho_on.T)
        binv = np.linalg.inv(b)
        expect = binv.T @ rho_on @ binv
        expect = 0.5 * (expect + expect.T)
        rho, tau = ricci_scalar(a)
        assert max_abs(rho - expect) <= 1e-13 * max_abs(expect)
        assert abs(tau - np.trace(rho_on)) <= 1e-13 * abs(np.trace(rho_on))

    def test_euclidean_metric_is_a_plain_trace(self):
        a = random_act(2, 6)
        rho, tau = ricci_scalar(a)
        expect = np.einsum("ikkj->ij", a.components)
        assert np.array_equal(rho, 0.5 * (expect + expect.T))
        assert tau == np.trace(rho)

    def test_strict_gate(self):
        c = np.zeros((3,) * 4)
        c[0, 0, 0, 0] = 1.0
        bad = CurvatureTensor(c, E3)
        with pytest.raises(ValueError, match="too large for Ricci contraction"):
            ricci_scalar(bad)


class TestRicciTypeTensor:
    def test_einstein_input_is_sphere_multiple(self):
        for kappa in (1.0, -2.5):
            lhs = l_tensor(kappa * E4.g, E4)
            assert max_abs(lhs.components - 2.0 * kappa * r0(E4).components) <= 1e-12

    def test_zero_input(self):
        assert max_abs(l_tensor(np.zeros((4, 4)), E4)) == 0.0

    def test_polarization_identity(self):
        # L(rho) is the cross term of psi -> A_psi at (identity, rho).
        g = InnerProduct.euclidean(6)
        rng = np.random.default_rng(17)
        rho = rng.uniform(-1, 1, (6, 6))
        rho = 0.5 * (rho + rho.T)
        cross = (
            a_psi(np.eye(6) + rho, g).components
            - a_psi(np.eye(6), g).components
            - a_psi(rho, g).components
        )
        assert max_abs(l_tensor(rho, g).components - cross) <= 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            l_tensor(np.array([[0.0, 1.0], [0.0, 0.0]]), InnerProduct.euclidean(2))


class TestPsiGenerator:
    def test_identity_gives_sphere(self):
        assert max_abs(a_psi(np.eye(4), E4).components - r0(E4).components) == 0.0

    def test_zero(self):
        assert max_abs(a_psi(np.zeros((4, 4)), E4)) == 0.0

    def test_diagonal_example(self):
        a = a_psi(np.diag([1.0, 2.0, 0.0, 0.0]), E4)
        assert a.components[0, 1, 1, 0] == 2.0

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            a_psi(np.array([[0.0, 1.0], [0.0, 0.0]]), InnerProduct.euclidean(2))


class TestPhiGenerator:
    def test_planar_value(self):
        a = a_phi(standard_phi(2), InnerProduct.euclidean(2))
        assert a.components[0, 1, 1, 0] == 3.0

    def test_sign_invariance(self):
        g = InnerProduct.euclidean(6)
        phi = standard_phi(6).matrix
        assert max_abs(a_phi(phi, g).components - a_phi(-phi, g).components) == 0.0

    def test_curvature_symmetries(self):
        assert symmetry_residual(a_phi(standard_phi(6), InnerProduct.euclidean(6))) <= 1e-12

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            a_phi(np.eye(4), E4)


class TestDecomposition:
    def test_constants(self):
        for m in (3, 4, 8):
            c1, c2 = weyl_constants(m)
            assert_allclose(c1, -1.0 / ((m - 1) * (m - 2)))
            assert_allclose(c2, 1.0 / (m - 2))
        with pytest.raises(ValueError, match="m >= 3"):
            weyl_constants(2)

    def test_sphere_has_no_weyl_part(self):
        for m in (3, 5, 8):
            dec = weyl_decompose(r0(InnerProduct.euclidean(m)))
            assert max_abs(dec.w) <= 1e-12
            assert_allclose(dec.tau, m * (m - 1))

    def test_complex_space_form_weyl_part(self):
        # At m=8 the trace parts absorb 3/7 of the sphere generator.
        g = InnerProduct.euclidean(8)
        a = CurvatureTensor(
            r0(g).components + a_phi(standard_phi(8), g).components, g
        )
        dec = weyl_decompose(a)
        expect = -3.0 / 7.0 * r0(g).components + a_phi(standard_phi(8), g).components
        assert max_abs(dec.w.components - expect) <= 1e-12

    def test_weyl_part_is_ricci_flat(self):
        for seed in range(4):
            dec = weyl_decompose(random_act(seed, 6))
            rho, tau = ricci_scalar(dec.w)
            assert max_abs(rho) <= 1e-10
            assert abs(tau) <= 1e-10

    @pytest.mark.parametrize("m", [3, 4, 7, 12, 24])
    def test_weyl_part_is_r_minus_the_trace_parts(self, m):
        # W is formed as A - K (x) g in one array; the three-part formula
        # R - c1 tau R0 - c2 L is the reference, in Euclidean and in
        # general frames.
        rng = np.random.default_rng(m)
        a = random_act(m, m)
        b = rng.standard_normal((m, m)) / np.sqrt(m) + np.eye(m)
        c1, c2 = weyl_constants(m)
        for r in (a, transform_tensor(a, b)):
            dec = weyl_decompose(r)
            expect = (
                r.components
                - c1 * dec.tau * r0(r.metric).components
                - c2 * l_tensor(dec.ricci, r.metric).components
            )
            assert max_abs(dec.w.components - expect) <= 1e-14 * max_abs(r)

    def test_reconstruction(self):
        for seed, m in ((0, 4), (1, 5), (2, 7)):
            dec = weyl_decompose(random_act(seed, m))
            assert dec.reconstruction_residual() <= 1e-10

    def test_frame_naturality(self):
        # Decomposing commutes with pulling through an invertible map.
        rng = np.random.default_rng(23)
        a = random_act(4, 5)
        b = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
        direct = weyl_decompose(transform_tensor(a, b)).w.components
        pulled = transform_tensor(weyl_decompose(a).w, b).components
        assert max_abs(direct - pulled) <= 1e-9 * max(1.0, np.abs(pulled).max())

    def test_dimension_two_rejected(self):
        with pytest.raises(ValueError, match="m >= 3"):
            weyl_decompose(r0(InnerProduct.euclidean(2)))

    def test_strict_gate_passthrough(self):
        c = np.zeros((4,) * 4)
        c[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="too large for Ricci contraction"):
            weyl_decompose(CurvatureTensor(c, E4))


class TestRandomAct:
    def test_deterministic(self):
        a = random_act(3, 5)
        b = random_act(3, 5)
        assert max_abs(a.components - b.components) == 0.0

    def test_seed_sensitivity(self):
        assert max_abs(random_act(0, 5).components - random_act(1, 5).components) > 1e-3

    def test_symmetries(self):
        for seed in range(3):
            assert symmetry_residual(random_act(seed, 6)) <= 1e-12

    def test_generator_draw_shapes(self):
        psis, coeffs = draw_act_generators(7, 5, 3)
        assert len(psis) == 3
        assert coeffs.shape == (3,)
        for p in psis:
            assert p.shape == (5, 5)
            assert max_abs(p - p.T) == 0.0

    def test_matches_generator_sum(self):
        psis, coeffs = draw_act_generators(9, 4, 2)
        a = sum_psi_generators(psis, coeffs, E4)
        b = random_act(9, 4, 2)
        assert max_abs(a.components - b.components) == 0.0


class TestComplexSpaceFormAct:
    def test_unit_parameters_give_generator_sum(self):
        g = InnerProduct.euclidean(8)
        a = complex_space_form_act(1.0, 1.0, standard_phi(8))
        both = r0(g).components + a_phi(standard_phi(8), g).components
        assert max_abs(a.components - both) == 0.0

    def test_degenerate_parameter_warns(self):
        with pytest.warns(UserWarning, match="lambda1"):
            a = complex_space_form_act(2.0, 0.0, standard_phi(4))
        assert max_abs(a.components - 2.0 * r0(E4).components) == 0.0

    def test_negative_holomorphic_parameter(self):
        g = InnerProduct.euclidean(4)
        a = complex_space_form_act(1.0, -0.5, standard_phi(4))
        expect = r0(g).components - 0.5 * a_phi(standard_phi(4), g).components
        assert max_abs(a.components - expect) == 0.0
