"""Property tests over seeded random inputs (hypothesis draws the seeds).

Each example builds its tensors from a numpy generator seeded by the
drawn integer, so a failing example shrinks to a seed that reproduces it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from weylgeom.classifier import (
    _modal_profile,
    analyze_point,
    classify_act,
    recover_phi,
)
from weylgeom.curvature_algebra import a_phi, complex_space_form_act, r0, random_act
from weylgeom.models import standard_phi
from weylgeom.spectral import cluster_spectrum
from weylgeom.tensor_core import CurvatureTensor, InnerProduct, max_abs, transform_tensor

from test_classifier import modal_row

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)

# Left multiplication by i, j, k on the quaternions in the basis 1, i, j, k.
QUATERNION_UNITS = (
    np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float),
    np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float),
)


def rotation(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def build(kind, m, seed):
    """Random ACT, complex space form, or quaternionic form (m = 0 mod 4)
    with seeded eigenvalue scales and a seeded orthonormal frame."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_act(seed, m)
    g = InnerProduct.euclidean(m)
    lambda0, lambda1 = rng.uniform(-2.0, 2.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    if kind == "complex_space_form":
        a = complex_space_form_act(lambda0, lambda1, standard_phi(m), g)
    else:
        comps = lambda0 * r0(g).components
        for unit in QUATERNION_UNITS:
            comps = comps + lambda1 * a_phi(np.kron(np.eye(m // 4), unit), g).components
        a = CurvatureTensor(comps, g)
    return transform_tensor(a, rotation(rng, m))


KIND_AND_DIM = st.sampled_from(
    [(kind, m) for kind in ("random", "complex_space_form") for m in (6, 8, 10)]
    + [("quaternionic", 8)]
)


@PROPERTY_SETTINGS
@given(KIND_AND_DIM, SEEDS)
def test_analyze_point_profile_is_the_modal_row(kind_and_dim, seed):
    a = build(*kind_and_dim, seed)
    analysis = analyze_point(a)
    m = kind_and_dim[1]
    rows = analysis.osserman.spectra[: m * m]
    assert analysis.profile == cluster_spectrum(rows[modal_row(rows)])


@PROPERTY_SETTINGS
@given(KIND_AND_DIM, SEEDS)
def test_verdict_kind_survives_frame_change(kind_and_dim, seed):
    m = kind_and_dim[1]
    a = build(*kind_and_dim, seed)
    rng = np.random.default_rng([seed, 1])
    # Condition number at most e^2 keeps roundoff far below the tiers.
    frame = rotation(rng, m) @ np.diag(np.exp(rng.uniform(-1.0, 1.0, m))) @ rotation(rng, m)
    assert classify_act(transform_tensor(a, frame)).kind is classify_act(a).kind


@PROPERTY_SETTINGS
@given(st.sampled_from((4, 6, 8, 10)), SEEDS)
def test_recover_phi_round_trips_conjugated_structure(m, seed):
    q = rotation(np.random.default_rng(seed), m)
    phi = q.T @ standard_phi(m).matrix @ q
    rec = recover_phi(a_phi(phi, InnerProduct.euclidean(m))).matrix
    assert min(max_abs(rec - phi), max_abs(rec + phi)) <= 1e-10


@PROPERTY_SETTINGS
@given(st.sampled_from((4, 6, 8)), SEEDS)
def test_a_phi_is_even(m, seed):
    raw = np.random.default_rng(seed).standard_normal((m, m))
    phi = raw - raw.T
    g = InnerProduct.euclidean(m)
    assert np.array_equal(a_phi(-phi, g).components, a_phi(phi, g).components)


def clustered_row(rng, sizes):
    """Ascending row with clusters of the given sizes, spread below 1e-9."""
    levels = np.cumsum(rng.uniform(0.5, 3.0, len(sizes))) - 2.0
    return np.sort(np.repeat(levels, sizes) + rng.uniform(0.0, 1e-9, sum(sizes)))


# The modal-profile properties draw row widths up to 24, so the break
# rows that _modal_profile packs into bytes span up to three of them.


def composition(rng, width):
    """Random cluster sizes summing to width."""
    cuts = np.flatnonzero(rng.random(width - 1) < 0.4) + 1
    return np.diff(np.concatenate(([0], cuts, [width])))


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from((1e-8, 1e-6, 0.3)))
def test_modal_profile_matches_modal_row(seed, cluster_tol):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, 25))
    rows = np.array([clustered_row(rng, composition(rng, width)) for _ in range(int(rng.integers(1, 40)))])
    expect = cluster_spectrum(rows[modal_row(rows, cluster_tol)], cluster_tol)
    assert _modal_profile(rows, cluster_tol) == expect


@PROPERTY_SETTINGS
@given(SEEDS)
def test_modal_profile_breaks_ties_like_modal_row(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(3, 25))
    first = composition(rng, width)
    second = first
    while np.array_equal(second, first):
        second = composition(rng, width)
    copies = int(rng.integers(1, 6))
    rows = np.array([clustered_row(rng, sizes) for sizes in [first, second] * copies])
    rows = rows[rng.permutation(len(rows))]
    assert _modal_profile(rows, 1e-6) == cluster_spectrum(rows[modal_row(rows, 1e-6)], 1e-6)


def test_modal_profile_tells_breaks_apart_past_the_first_byte():
    # Width 24: the two signatures differ only in break 19 against break
    # 20, both in the third packed byte; the later one is the more
    # frequent.
    rng = np.random.default_rng(0)
    early, late = np.array([20, 4]), np.array([21, 3])
    rows = np.array([clustered_row(rng, sizes) for sizes in (early, late, early, late, late)])
    assert _modal_profile(rows, 1e-6).multiplicities == (21, 3)
    assert _modal_profile(rows[:4], 1e-6) == cluster_spectrum(rows[0], 1e-6)
