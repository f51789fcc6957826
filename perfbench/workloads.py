"""The three workloads: inputs made from the seed, operations, checks.

Each workload hands out rounds: lists of operations whose input sizes
are interleaved, so that every size class is spread over the whole run.
Every run attempts whole rounds, which keeps the share of failed
operations the same whatever the run length.  An operation's `size` is
"large" or "small" when its latency feeds `large_op_p50_ms` or
`small_op_p50_ms`; those figures are taken per `label` first (see
run.py), so operations that repeat share a label.  A workload's
`expected_failures` names the operations that are known to raise; any
other operation that raises makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import weylgeom as wg
from weylgeom import cli

import checks


@dataclass
class Op:
    label: str
    size: str | None
    run: Callable[[], object]
    check: Callable[[object], list[str]]


# --------------------------------------------------------------------------
# cli_projective


CLI_MODELS = {
    "fubini_study": 1.0,
    "complex_hyperbolic": -1.0,
}
# The n = 2 commands open each of the four slots of a round, so the
# small-input latencies are spread over the run and every small report is
# compared byte for byte four times a round.  A round takes about 18 s on
# a 2-vCPU guest, most of it the two n = 8 commands that each fill a slot.
CLI_SMALL = (
    ("analyze", "fubini_study", 2),
    ("verify", "fubini_study", 2),
    ("spectrum", "fubini_study", 2),
    ("analyze", "complex_hyperbolic", 2),
    ("verify", "complex_hyperbolic", 2),
)
CLI_SLOTS = (
    (("analyze", "fubini_study", 4), ("analyze", "complex_hyperbolic", 4),
     ("spectrum", "fubini_study", 4)),
    (("analyze", "fubini_study", 8),),
    (("verify", "fubini_study", 4), ("verify", "complex_hyperbolic", 4),
     ("spectrum", "fubini_study", 8)),
    (("verify", "fubini_study", 8),),
)


class CliProjective:
    """`weylgeom.cli.main` in-process, JSON reports written to disk.

    The workload seed becomes the CLI's direction sampling seed; probe
    points and the worker pool keep their defaults.  Each report is
    deleted before its command runs, so a command that writes none fails.
    """

    expected_failures = frozenset()

    def __init__(self, root: Path, seed: int):
        self.out = root / ".perfbench_out" / "cli_projective"
        self.seed = seed % 2**31
        self.first: dict[str, bytes] = {}

    def setup(self):
        self.out.mkdir(parents=True, exist_ok=True)
        for command in CLI_SMALL:
            self._op(*command).run()

    def instrument(self, tracer):
        pass

    def round(self, index: int) -> list[Op]:
        return [self._op(*command) for slot in CLI_SLOTS for command in CLI_SMALL + slot]

    def _op(self, command: str, name: str, n: int) -> Op:
        label = f"{command} {name}:n={n}"
        lambda1 = CLI_MODELS[name]
        path = self.out / f"{command}-{name}-{n}.json"
        argv = [command, "--model", f"{name}:n={n}", "--seed", str(self.seed),
                "--format", "json", "--out", str(path)]
        m = 2 * n

        def run():
            path.unlink(missing_ok=True)
            code = cli.main(argv)
            if code not in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED):
                raise RuntimeError(f"exit code {code}")
            if not path.is_file():
                raise RuntimeError(f"exit code {code} but no report at --out")
            return code

        def check(code):
            data = path.read_bytes()
            if label in self.first:
                return checks.check_same_bytes(self.first[label], data)
            self.first[label] = data
            report = json.loads(data)
            if command == "analyze":
                return checks.check_analyze_report(report, m, lambda1)
            if command == "verify":
                problems = checks.check_verify_report(report)
                return problems + ([] if code == cli.EXIT_OK else [f"exit code {code}"])
            return checks.check_spectrum_report(report, m, lambda1)

        size = None
        if command in ("analyze", "verify") and n == 8:
            size = "large"
        elif command == "analyze" and m == 4:
            size = "small"
        return Op(label, size, run, check)


# --------------------------------------------------------------------------
# act_screen: inputs are built here with plain numpy, not with weylgeom


ACT_SIZES = (8, 10, 16, 24)
ACT_KINDS = ("random", "complex_space_form", "space_form", "quaternionic")

# Left multiplication by i, j, k on the quaternions in the basis 1, i, j, k.
_QUATERNION_UNITS = (
    np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float),
    np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float),
)


def r0_components(g: np.ndarray) -> np.ndarray:
    """(R0)_ijkl = g_jk g_il - g_ik g_jl."""
    return np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)


def a_phi_components(phi: np.ndarray) -> np.ndarray:
    """A_Phi(x,y,z,w) = <Phi x,w><Phi y,z> - <Phi x,z><Phi y,w> - 2<Phi x,y><Phi z,w>,
    Euclidean metric, f_ab = <Phi e_b, e_a>."""
    f = phi
    return (
        np.einsum("li,kj->ijkl", f, f)
        - np.einsum("ki,lj->ijkl", f, f)
        - 2.0 * np.einsum("ji,lk->ijkl", f, f)
    )


def random_act_components(rng, m: int) -> np.ndarray:
    """Sum of m self-adjoint generators A_Psi with random weights."""
    raw = rng.uniform(-1.0, 1.0, size=(m, m, m))
    e = 0.5 * (raw + np.swapaxes(raw, 1, 2))
    c = rng.uniform(-1.0, 1.0, size=m)
    return np.einsum("n,nli,nkj->ijkl", c, e, e, optimize=True) - np.einsum(
        "n,nki,nlj->ijkl", c, e, e, optimize=True
    )


def random_rotation(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def standard_structure(m: int) -> np.ndarray:
    phi = np.zeros((m, m))
    for j in range(0, m, 2):
        phi[j, j + 1] = -1.0
        phi[j + 1, j] = 1.0
    return phi


def signed(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))


class ActScreen:
    """`classify_act` on a seeded stream of algebraic curvature tensors.

    Each round draws fresh tensors from (seed, round), so no two rounds
    repeat an input.
    """

    expected_failures = frozenset()

    def __init__(self, root: Path, seed: int):
        self.seed = seed % 2**32

    def setup(self):
        for op in self._ops(np.random.default_rng([self.seed, 2**31]), sizes=(8,)):
            op.run()

    def instrument(self, tracer):
        pass

    def round(self, index: int) -> list[Op]:
        return self._ops(np.random.default_rng([self.seed, index]), ACT_SIZES)

    def _ops(self, rng, sizes) -> list[Op]:
        return [
            self._op(kind, m, rng)
            for kind in ACT_KINDS
            for m in sizes
            if kind != "quaternionic" or m % 4 == 0
        ]

    def _op(self, kind: str, m: int, rng) -> Op:
        g = np.eye(m)
        if kind == "random":
            comps = random_act_components(rng, m)

            def expect(v):
                return checks.check_kind(v.kind.value, checks.NOT_OSSERMAN)

        elif kind == "complex_space_form":
            q = random_rotation(rng, m)
            phi = q @ standard_structure(m) @ q.T
            lambda0, lambda1 = rng.uniform(-2.0, 2.0), signed(rng)
            comps = lambda0 * r0_components(g) + lambda1 * a_phi_components(phi)

            def expect(v):
                return checks.check_complex_space_form(
                    v.kind.value, v.lambda0, v.lambda1, v.profile.clusters, m, lambda1,
                    checks.ALGEBRAIC_TOL,
                ) or checks.check_phi(None if v.phi is None else v.phi.matrix, phi)

        elif kind == "space_form":
            a = rng.standard_normal((m, m))
            g = a @ a.T / m + 0.5 * np.eye(m)
            comps = signed(rng) * r0_components(g)

            def expect(v):
                return checks.check_kind(v.kind.value, checks.FLAT)

        else:
            q = random_rotation(rng, m)
            block = np.eye(m // 4)
            lambda0, lambda1 = rng.uniform(-2.0, 2.0), signed(rng)
            comps = lambda0 * r0_components(g)
            for unit in _QUATERNION_UNITS:
                comps = comps + lambda1 * a_phi_components(q @ np.kron(block, unit) @ q.T)

            def expect(v):
                return checks.check_quaternionic(v.kind.value, v.profile.clusters, m, lambda1)

        tensor = wg.CurvatureTensor(comps, wg.InnerProduct(g))

        def check(v):
            return expect(v) + checks.check_no_parity_warning(v.warnings)

        size = {24: "large", 8: "small"}.get(m)
        return Op(f"{kind} m={m}", size, lambda: wg.classify_act(tensor), check)


# --------------------------------------------------------------------------
# fd_charts


FD_CHARTS = (
    ("sphere", 4),
    ("sphere", 8),
    ("hyperbolic", 6),
    ("perturbed_flat", 6),
    ("perturbed_flat", 8),
    ("fubini_study", 2),
    ("fubini_study", 4),
    ("complex_hyperbolic", 2),
    ("complex_hyperbolic", 4),
)
FD_POINTS = 3
# The m = 4 charts' operations run this many times a round: they are the
# shortest, so host noise moves their median most, and more samples of
# them cost little.
FD_SMALL_REPEATS = 3
# Half-width of the cube the seeded probe points are drawn from; it keeps
# the stencils well inside each domain.
FD_REACH = {"sphere": 0.3, "hyperbolic": 0.2, "perturbed_flat": 0.3}


class FdCharts:
    """Finite-difference curvature: each chart rebuilt without derivative
    callbacks, one operation per probe point.

    The projective charts keep their default probe points, so their known
    failures sit on inputs that do not depend on the seed.  The other
    charts draw their points, and perturbed_flat its coefficients, from
    the seed.
    """

    # The known fault: recover_phi's validation through a_phi raises on
    # the noisy Phi at these fubini_study points (see README.md).
    expected_failures = frozenset(
        {"fubini_study(2) point 1", "fubini_study(4) point 1", "fubini_study(4) point 2"}
    )

    def __init__(self, root: Path, seed: int):
        self.seed = seed % 2**32
        self.charts = {}
        self.points = {}
        self.analytic_kind = {}

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        for name, size in FD_CHARTS:
            if name == "perturbed_flat":
                chart = wg.perturbed_flat_chart(size, 0.1, self.seed)
            else:
                chart = getattr(wg, f"{name}_chart")(size)
            if name in FD_REACH:
                offset = np.full((1, chart.dim), 0.05)
                drawn = rng.uniform(-FD_REACH[name], FD_REACH[name], (FD_POINTS - 1, chart.dim))
                points = np.vstack([offset, drawn])
            else:
                points = wg.default_probe_points(chart, FD_POINTS)
            key = (name, size)
            self.points[key] = points
            self.charts[key] = replace(chart, d_metric=None, d2_metric=None)
            if name == "perturbed_flat":
                report = wg.classify_chart(chart, points)
                self.analytic_kind[key] = [v.kind.value for v in report.verdicts]
        self._run(("sphere", 4), 0)

    def instrument(self, tracer):
        self.charts = {key: tracer.wrap_chart(c) for key, c in self.charts.items()}

    def round(self, index: int) -> list[Op]:
        return [
            self._op(key, i)
            for i in range(FD_POINTS)
            for repeat in range(FD_SMALL_REPEATS)
            for key in FD_CHARTS
            if repeat == 0 or self.charts[key].dim == 4
        ]

    def _run(self, key, i):
        chart, u = self.charts[key], self.points[key][i]
        residual = wg.second_bianchi_residual(chart, u)
        return residual, wg.classify_chart(chart, u[None, :]).verdicts[0]

    def _op(self, key, i) -> Op:
        name, size = key
        m = self.charts[key].dim

        def check(out):
            residual, v = out
            problems = checks.check_bianchi(residual, "fd")
            if name in ("sphere", "hyperbolic"):
                problems += checks.check_kind(v.kind.value, checks.FLAT)
            elif name == "perturbed_flat":
                problems += checks.check_kind(v.kind.value, checks.NOT_OSSERMAN)
                problems += checks.check_kind(v.kind.value, self.analytic_kind[key][i])
            else:
                lambda1 = 1.0 if name == "fubini_study" else -1.0
                problems += checks.check_complex_space_form(
                    v.kind.value, v.lambda0, v.lambda1, v.profile.clusters, m, lambda1,
                    checks.CHART_TOL,
                )
            return problems + checks.check_no_parity_warning(v.warnings)

        size_class = {8: "large", 4: "small"}.get(m)
        return Op(f"{name}({size}) point {i}", size_class, lambda: self._run(key, i), check)


WORKLOADS = {
    "cli_projective": CliProjective,
    "act_screen": ActScreen,
    "fd_charts": FdCharts,
}
