"""Every threshold of the package, in one table.

A threshold is a value that a residual or a quantity is compared
against: to pass or fail a check, to accept or reject an input, or to
pick a verdict branch.  Each one is written here once and read by name
everywhere else; this module imports nothing from the package, so the
bottom layer (tensor_core) can read it too.

Relative bounds are taken against max(1, size) of the compared quantity
at their use site, as the comment on each entry says.

Groups:

* Classification gates: the algebraic and chart tiers of
  classifier.ToleranceConfig, the keyword defaults of the functions
  that apply them (osserman_test, check_eq2a, recover_phi,
  cluster_spectrum and its callers), and the sign rule of recover_phi.
* Verify tiers: the residual bounds of the verify subcommand.
* Input guards: the checks that reject a malformed input before any
  verdict is computed.

Some properties are tested at two sites with different values (the
orthonormal frame check, metric symmetry, the curvature symmetries);
each site keeps its own entry.
"""

# --------------------------------------------------------------------------
# Classification gates.  The algebraic tier suits exact tensors; the chart
# tier is matched to the finite-difference noise floor.

# Widest direction-to-direction drift of a sorted reduced Jacobi spectrum
# accepted as constant (the Osserman gate), relative to max(1, max
# |eigenvalue|) over the sampled spectra.
SPEC_ALGEBRAIC = 1e-6
SPEC_CHART = 1e-4

# Largest Weyl component accepted as zero (the flat gate).
FLAT_ALGEBRAIC = 1e-9
FLAT_CHART = 1e-5

# Relative residual of 3 lambda1 + (m - 1) lambda0 = 0, over |lambda1|.
EQ2A_ALGEBRAIC = 1e-8
EQ2A_CHART = 1e-4

# Phi recovery: Phi^2 + I, and the reconstruction residual relative to
# max(1, max |B|).
RECON_ALGEBRAIC = 1e-8
RECON_CHART = 1e-6

# Eigenvalue gap, relative to max(1, max |eigenvalue|), at or below which
# two neighbours merge into one cluster.
CLUSTER = 1e-3

# Spread of a lone cluster, as a fraction of its clustering gap, above
# which the flat verdict warns that a split may hide below the resolution.
NEAR_DEGENERATE = 0.5

# Phi recovery's sign rule: relative band below the largest squared entry
# of the lowest 2-form eigenvector within which entries count as tied,
# the first of them in row-major order being made positive.
PIVOT_TIE = 1e-8

# --------------------------------------------------------------------------
# Verify tiers.

# Cyclic second Bianchi residual, by derivative mode of the chart.
VERIFY_BIANCHI_ANALYTIC = 1e-7
VERIFY_BIANCHI_FD = 1e-4

# Max |Tr J(x)| of the Weyl part over all unit directions, relative to
# max(1, max |A|) of the decomposed tensor.
VERIFY_TRACE_ALGEBRAIC = 1e-9
VERIFY_TRACE_CHART = 1e-5

# Change of the mixed-index Weyl tensor under a conformal rescaling.
VERIFY_CONFORMAL = 1e-5

# Covariant derivative of the complex structure.
VERIFY_KAHLER = 1e-3

# Curvature symmetry residual, relative to max(1, max |A|).
VERIFY_SYMMETRY = 1e-10

# Weyl decomposition reconstruction residual, relative to max(1, max |A|).
VERIFY_RECONSTRUCTION = 1e-10

# --------------------------------------------------------------------------
# Input guards.

# Largest model dimension the command line accepts, an integer: at
# m = 32 the packed nabla R array, m P^2 floats with P = m(m - 1)/2, is
# about 63 MB (268 MB in the m^5 layout).
MAX_DIMENSION = 32

# Largest random direction count that osserman_test, and so the command
# line, accepts, an integer: at m = 32 it bounds the spectra array to
# about 16 MB.
MAX_SAMPLES = 2**16

# InnerProduct: symmetry of the matrix, relative to max(1, max |g|).
INNER_PRODUCT_SYMMETRY = 1e-10

# MetricChart: symmetry of each metric value, relative to max(1, max |g|).
CHART_METRIC_SYMMETRY = 1e-9

# InnerProduct.is_euclidean: max |g - I| of an orthonormal frame, as the
# classifier and the Weyl decomposition test it.
EUCLIDEAN_FRAME = 1e-12

# The orthonormal frame check of the spectral operations.
SPECTRAL_FRAME = 1e-10

# HermitianStructure.validate: each compatibility residual.
HERMITIAN_INVARIANTS = 1e-10

# | |x| - 1 | of a direction whose Jacobi spectrum is read.
UNIT_DIRECTION = 1e-8

# Asymmetry of a Jacobi operator before its eigensolve, relative
# to max(1, max |J|).
JACOBI_SELF_ADJOINT = 1e-8

# Norm below which a Gaussian direction draw is discarded.
DIRECTION_NORM_FLOOR = 1e-8

# a_psi / a_phi: g-self- or skew-adjointness of the generator, relative to
# max(1, max |Psi|).
GENERATOR_ADJOINT = 1e-8

# Curvature symmetry residual accepted by the Ricci contraction, relative
# to max(1, max |A|).
RICCI_CONTRACTION_SYMMETRY = 1e-6

# l_tensor: symmetry of the Ricci form, relative to max(1, max |rho|).
RICCI_FORM_SYMMETRY = 1e-8
