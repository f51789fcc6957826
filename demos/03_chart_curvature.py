"""Curvature of coordinate charts, checked against closed forms.

Run from the repository root:

    python3 demos/03_chart_curvature.py
"""

import dataclasses

import numpy as np

from weylgeom import (
    InnerProduct,
    complex_hyperbolic_chart,
    complex_space_form_act,
    default_probe_points,
    fubini_study_chart,
    hyperbolic_chart,
    max_abs,
    orthonormal_frame,
    perturbed_flat_chart,
    r0,
    riemann_at,
    second_bianchi_residual,
    sphere_chart,
    standard_phi,
    transform_tensor,
)

# Constant curvature charts must reproduce +-r0 once the curvature is
# pulled into an orthonormal frame.
u = np.full(3, 0.05)
for chart, sign in [(sphere_chart(3, 1.0), +1.0), (hyperbolic_chart(3), -1.0)]:
    a, g = riemann_at(chart, u)
    pulled = transform_tensor(a, orthonormal_frame(g))
    dev = max_abs(pulled.components - sign * r0(InnerProduct.euclidean(3)).components)
    print(f"{chart.name:18s} deviation from {sign:+.0f} * r0: {dev:.3e}")

# The projective chart evaluates to the complex space form generator at
# the origin, where its metric is the identity.
fs = fubini_study_chart(2)
a, g = riemann_at(fs, np.zeros(4))
oracle = complex_space_form_act(1.0, 1.0, standard_phi(4))
print(f"{fs.name:18s} deviation from r0 + a_phi: "
      f"{max_abs(a.components - oracle.components):.3e}")

# Charts carry analytic metric derivatives when available; stripping
# them switches the pipeline to finite differences. Both modes satisfy
# the second Bianchi identity, at different noise floors.
chart = sphere_chart(3, 1.0)
fd = dataclasses.replace(chart, d_metric=None, d2_metric=None)
for label, c in [("analytic", chart), ("finite difference", fd)]:
    worst = max(second_bianchi_residual(c, p) for p in default_probe_points(c, count=3))
    print(f"second Bianchi, {label:18s} worst residual {worst:.3e}")

# Finite difference curvature comes from one fourth order stencil on the
# metric.  Its reach, a multiple of sqrt(fd_step), is set by this
# comparison with the analytic curvature: the largest deviation over
# three points per chart.
families = {
    "sphere": lambda m: sphere_chart(m, 1.0),
    "hyperbolic": hyperbolic_chart,
    "perturbed_flat": lambda m: perturbed_flat_chart(m, 0.1, seed=3),
    "fubini_study": lambda m: fubini_study_chart(m // 2),
    "complex_hyperbolic": lambda m: complex_hyperbolic_chart(m // 2),
}
print("max |R_fd - R_analytic|      m = 4     m = 8    m = 16")
for name, build in families.items():
    row = []
    for m in (4, 8, 16):
        chart = build(m)
        fd = dataclasses.replace(chart, d_metric=None, d2_metric=None)
        rng = np.random.default_rng(m)
        points = [np.full(m, 0.05), *rng.uniform(-0.1, 0.1, (2, m))]
        worst = max(
            max_abs(riemann_at(fd, p)[0].components - riemann_at(chart, p)[0].components)
            for p in points
        )
        row.append(worst)
    print(f"{name:26s}" + "".join(f"{e:10.2e}" for e in row))
