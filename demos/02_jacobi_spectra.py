"""Reduced Jacobi spectra and the direction-constancy test.

Run from the repository root:

    python3 demos/02_jacobi_spectra.py
"""

import numpy as np

from weylgeom import (
    InnerProduct,
    cluster_spectrum,
    complex_space_form_act,
    direction_spectra,
    osserman_test,
    r0,
    random_act,
    standard_phi,
    unit_directions,
    weyl_decompose,
)

# For the sphere generator every reduced Jacobi operator is the identity
# on the direction's orthogonal complement.  direction_spectra solves a
# batch of unit rows; a single direction is a batch of one.
g = InnerProduct.euclidean(5)
x = unit_directions(5, 1, seed=0)[-1]
eig = direction_spectra(r0(g), x[None])[0]
print("sphere generator, random direction")
print("  reduced spectrum:", np.round(eig, 12))

# The Weyl part of a complex space form has a two-eigenvalue spectrum
# with multiplicities (m-2, 1); the profile clusters it automatically.
w = weyl_decompose(complex_space_form_act(1.0, 1.0, standard_phi(8))).w
x8 = unit_directions(8, 1, seed=1)[-1]
profile = cluster_spectrum(direction_spectra(w, x8[None])[0])
print("\ncomplex space form Weyl part, m=8")
for value, mult in profile.clusters:
    print(f"  eigenvalue {value:+.9f}  multiplicity {mult}")
print("  expect -3/7 and 18/7:", -3.0 / 7.0, 18.0 / 7.0)

# The constancy test sweeps structured plus random directions and
# reports the worst pairwise distance between sorted spectra.
for label, act in [
    ("complex space form", complex_space_form_act(1.0, 1.0, standard_phi(8))),
    ("random act        ", random_act(7, 6)),
]:
    rep = osserman_test(weyl_decompose(act).w, samples=64)
    print(f"\n{label}: constant={rep.is_constant}, "
          f"max profile distance {rep.max_profile_distance:.6e}")
