"""Output checks against closed forms, computed without weylgeom.

Every function returns a list of problems; an empty list means the
output passed.  The expected values come from the algebra of the
inputs, not from a stored copy of an earlier run:

* complex space form lambda0 R0 + lambda1 A_Phi: the Weyl part keeps
  lambda1, the classifier's lambda0 is -3 lambda1 / (m - 1), and the
  reduced spectrum is 3 lambda1 (m - 2)/(m - 1) once and
  -3 lambda1 / (m - 1) with multiplicity m - 2;
* quaternionic form lambda0 R0 + lambda1 (A_Phi1 + A_Phi2 + A_Phi3)
  with anticommuting Phi_i: reduced Weyl spectrum 3 lambda1 (m - 4)/(m - 1)
  three times and -9 lambda1 / (m - 1) with multiplicity m - 4;
* the projective model and its dual carry lambda1 = +1 and -1 at every
  point (holomorphic sectional curvature +-4).
"""

from __future__ import annotations

import numpy as np

CCSF = "ConformallyComplexSpaceForm"
FLAT = "ConformallyFlat"
OTHER = "OssermanOther"
NOT_OSSERMAN = "NotConformallyOsserman"

ALGEBRAIC_TOL = 1e-8  # relative, for exact tensors
CHART_TOL = 1e-4  # the chart tier: finite-difference noise floor
PHI_TOL = 1e-6
# Differential Bianchi residual tiers, by derivative mode.
BIANCHI_TIER = {"analytic": 1e-7, "fd": 1e-4}


def csf_spectrum(lambda1: float, m: int) -> list[tuple[float, int]]:
    return [(3.0 * lambda1 * (m - 2) / (m - 1), 1), (-3.0 * lambda1 / (m - 1), m - 2)]


def quaternionic_spectrum(lambda1: float, m: int) -> list[tuple[float, int]]:
    return [(3.0 * lambda1 * (m - 4) / (m - 1), 3), (-9.0 * lambda1 / (m - 1), m - 4)]


def check_kind(kind: str, expected: str) -> list[str]:
    return [] if kind == expected else [f"verdict {kind}, expected {expected}"]


def check_clusters(clusters, expected, tol: float) -> list[str]:
    """Compare (value, multiplicity) pairs, order free, values to tol."""
    got = sorted((float(v), int(k)) for v, k in clusters)
    want = sorted(expected)
    if [k for _, k in got] != [k for _, k in want]:
        return [f"multiplicities {[k for _, k in got]}, expected {[k for _, k in want]}"]
    scale = max(1.0, max(abs(v) for v, _ in want))
    worst = max(abs(a - b) for (a, _), (b, _) in zip(got, want))
    if worst > tol * scale:
        return [f"spectrum {got} is {worst:.3e} from {want}"]
    return []


def check_spectrum_rows(rows, expected, tol: float) -> list[str]:
    """Every sorted row of a spectrum table equals the closed form."""
    want = np.sort(np.repeat([v for v, _ in expected], [k for _, k in expected]))
    got = np.asarray(rows, dtype=float)
    if got.ndim != 2 or got.shape[1] != len(want):
        return [f"spectrum table shape {got.shape}, expected (n, {len(want)})"]
    worst = float(np.max(np.abs(np.sort(got, axis=1) - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    if worst > tol * scale:
        return [f"spectrum rows deviate by {worst:.3e} from the closed form"]
    return []


def check_complex_space_form(kind, lambda0, lambda1, clusters, m, expected_lambda1, tol) -> list[str]:
    problems = check_kind(kind, CCSF)
    if problems:
        return problems
    scale = abs(expected_lambda1)
    if abs(lambda1 - expected_lambda1) > tol * scale:
        problems.append(f"lambda1 {lambda1!r}, expected {expected_lambda1!r}")
    expected_lambda0 = -3.0 * expected_lambda1 / (m - 1)
    if abs(lambda0 - expected_lambda0) > tol * scale:
        problems.append(f"lambda0 {lambda0!r}, expected {expected_lambda0!r}")
    return problems + check_clusters(clusters, csf_spectrum(expected_lambda1, m), tol)


def check_phi(phi, expected) -> list[str]:
    """Recovered structure equals the input one up to the global sign."""
    if phi is None:
        return ["no recovered Hermitian structure"]
    phi = np.asarray(phi, dtype=float)
    gap = min(np.max(np.abs(phi - expected)), np.max(np.abs(phi + expected)))
    return [] if gap <= PHI_TOL else [f"recovered Phi is {gap:.3e} from +-Phi"]


def check_quaternionic(kind, clusters, m, lambda1) -> list[str]:
    return check_kind(kind, OTHER) or check_clusters(
        clusters, quaternionic_spectrum(lambda1, m), ALGEBRAIC_TOL
    )


def check_no_parity_warning(warnings) -> list[str]:
    return [w for w in warnings if w.startswith("parity")]


def check_bianchi(residual: float, mode: str) -> list[str]:
    tier = BIANCHI_TIER[mode]
    if residual is None or not residual <= tier:
        return [f"second Bianchi residual {residual!r} above the {mode} tier {tier:g}"]
    return []


def check_analyze_report(report: dict, m: int, lambda1: float) -> list[str]:
    problems = []
    for rec in report["records"]:
        v = rec["verdict"]
        clusters = zip(rec["profile"]["values"], rec["profile"]["multiplicities"])
        problems += check_complex_space_form(
            v["kind"], v["lambda0"], v["lambda1"], clusters, m, lambda1, CHART_TOL
        )
        problems += check_bianchi(rec["bianchi_residual"], "analytic")
        problems += check_no_parity_warning(v["warnings"])
    return problems


def check_verify_report(report: dict) -> list[str]:
    problems = [
        f"check {c['name']} failed: {c['residual']!r} > {c['tolerance']!r}"
        for rec in report["records"]
        for c in rec["checks"]
        if not c["passed"]
    ]
    if not report["summary"]["all_passed"]:
        problems.append("verify summary reports a failure")
    return problems


def check_spectrum_report(report: dict, m: int, lambda1: float) -> list[str]:
    problems = []
    for rec in report["records"]:
        problems += check_spectrum_rows(rec["spectra"], csf_spectrum(lambda1, m), CHART_TOL)
    return problems


def check_same_bytes(first: bytes, now: bytes) -> list[str]:
    if first == now:
        return []
    return [f"report bytes differ from the first pass ({len(now)} vs {len(first)} bytes)"]
