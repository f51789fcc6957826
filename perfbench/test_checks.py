"""Self-test of the benchmark: every output check passes on a real output
and fires on a perturbed one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import weylgeom as wg  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _ops_by_label(workload) -> dict:
    return {op.label: op for op in workload.round(0)}


@pytest.fixture(scope="module")
def act_outputs():
    ops = _ops_by_label(workloads.ActScreen(ROOT, seed=5))
    return {label: (op, op.run()) for label, op in ops.items() if "m=8" in label}


def test_act_checks_pass_on_real_outputs(act_outputs):
    for label, (op, verdict) in act_outputs.items():
        assert op.check(verdict) == [], label


@pytest.mark.parametrize(
    "label, change",
    [
        ("complex_space_form m=8", {"lambda1": "scale"}),
        ("complex_space_form m=8", {"lambda0": "scale"}),
        ("complex_space_form m=8", {"profile": "shift"}),
        ("complex_space_form m=8", {"phi": "nudge"}),
        ("complex_space_form m=8", {"kind": wg.VerdictKind.OSSERMAN_OTHER}),
        ("quaternionic m=8", {"profile": "shift"}),
        ("quaternionic m=8", {"kind": wg.VerdictKind.CONFORMALLY_FLAT}),
        ("space_form m=8", {"kind": wg.VerdictKind.OSSERMAN_OTHER}),
        ("random m=8", {"kind": wg.VerdictKind.OSSERMAN_OTHER}),
        ("random m=8", {"warnings": ("parity: injected",)}),
    ],
)
def test_act_checks_fire_on_perturbed_outputs(act_outputs, label, change):
    op, verdict = act_outputs[label]
    fields = {}
    for key, how in change.items():
        if how == "scale":
            fields[key] = getattr(verdict, key) * (1.0 + 1e-6)
        elif how == "shift":
            clusters = verdict.profile.clusters
            shifted = ((clusters[0][0] + 1e-6, clusters[0][1]),) + clusters[1:]
            fields[key] = replace(verdict.profile, clusters=shifted)
        elif how == "nudge":
            fields[key] = wg.HermitianStructure(verdict.phi.matrix + 1e-5)
        else:
            fields[key] = how
    assert op.check(replace(verdict, **fields)) != []


def test_multiplicity_check_fires():
    expected = checks.quaternionic_spectrum(1.0, 8)
    assert checks.check_clusters(expected, expected, 1e-12) == []
    assert checks.check_clusters([(1.0, 4), (-1.0, 3)], expected, 1e-12) != []


def test_bianchi_check_fires():
    assert checks.check_bianchi(0.5e-4, "fd") == []
    assert checks.check_bianchi(2e-4, "fd") != []
    assert checks.check_bianchi(2e-7, "analytic") != []
    assert checks.check_bianchi(float("nan"), "fd") != []
    assert checks.check_bianchi(None, "analytic") != []


@pytest.fixture(scope="module")
def fd_outputs():
    fd = workloads.FdCharts(ROOT, seed=5)
    fd.setup()
    ops = _ops_by_label(fd)
    labels = ("sphere(4) point 1", "complex_hyperbolic(2) point 0")
    return {label: (ops[label], ops[label].run()) for label in labels}


def test_fd_checks_pass_and_fire(fd_outputs):
    for label, (op, (residual, verdict)) in fd_outputs.items():
        assert op.check((residual, verdict)) == [], label
        assert op.check((1e-3, verdict)) != [], label
        assert op.check((residual, replace(verdict, kind=wg.VerdictKind.OSSERMAN_OTHER))) != []
    op, (residual, verdict) = fd_outputs["complex_hyperbolic(2) point 0"]
    assert op.check((residual, replace(verdict, lambda1=verdict.lambda1 * 1.001))) != []


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    cli = workloads.CliProjective(ROOT, seed=5)
    cli.out = tmp_path_factory.mktemp("reports")
    cli.setup()
    out = {}
    for command, name, n in workloads.CLI_SMALL[:3]:
        op = cli._op(command, name, n)
        code = op.run()
        path = cli.out / f"{command}-{name}-{n}.json"
        out[command] = (op, code, path, path.read_bytes())
    return out


def test_cli_checks_pass_on_real_reports(cli_reports):
    for command, (op, code, path, data) in cli_reports.items():
        path.write_bytes(data)
        assert op.check(code) == [], command


def _rewrite(path: Path, data: bytes, edit) -> None:
    report = json.loads(data)
    edit(report)
    path.write_text(json.dumps(report))


@pytest.mark.parametrize(
    "command, edit",
    [
        ("analyze", lambda r: r["records"][0]["verdict"].update(lambda1=1.001)),
        ("analyze", lambda r: r["records"][1]["verdict"].update(kind="OssermanOther")),
        ("analyze", lambda r: r["records"][2].update(bianchi_residual=1e-6)),
        ("analyze", lambda r: r["records"][0]["profile"]["values"].reverse()),
        ("verify", lambda r: r["records"][0]["checks"][0].update(passed=False)),
        ("verify", lambda r: r["summary"].update(all_passed=False)),
        ("spectrum", lambda r: r["records"][0]["spectra"][3].__setitem__(0, -0.99)),
    ],
)
def test_cli_checks_fire_on_perturbed_reports(cli_reports, command, edit):
    _, code, path, data = cli_reports[command]
    workload = workloads.CliProjective(ROOT, seed=5)
    workload.out = path.parent
    fresh = workload._op(*next(c for c in workloads.CLI_SMALL if c[0] == command))
    _rewrite(path, data, edit)
    try:
        assert fresh.check(code) != []
    finally:
        path.write_bytes(data)


def test_byte_comparison_fires(cli_reports):
    op, code, path, data = cli_reports["analyze"]
    path.write_bytes(data)
    assert op.check(code) == []  # second pass, same bytes
    path.write_bytes(data.replace(b"1", b"2", 1))
    try:
        assert op.check(code) != []
    finally:
        path.write_bytes(data)


def test_command_that_writes_no_report_fails(cli_reports, monkeypatch):
    op, code, path, data = cli_reports["analyze"]
    path.write_bytes(data)  # a stale report from an earlier command
    monkeypatch.setattr(workloads.cli, "main", lambda argv: workloads.cli.EXIT_OK)
    with pytest.raises(RuntimeError, match="no report"):
        op.run()


class _Scripted:
    """A workload of one round whose operations raise where told to."""

    def __init__(self, raising, expected_failures=()):
        self.raising = raising
        self.expected_failures = frozenset(expected_failures)

    def round(self, index):
        def op(label, size):
            def go():
                if label in self.raising:
                    raise ValueError("injected")
                return label

            return workloads.Op(label, size, go, lambda out: [])

        return [op("big", "large"), op("small", "small"), op("known", None)]


def test_expected_failure_keeps_the_run_correct():
    res = run.measure(_Scripted({"known"}, {"known"}), 0.0, None)
    assert res["problems"] == [] and res["failed"] == res["rounds"]
    # once the fault is mended the operation passes its check instead
    res = run.measure(_Scripted(set(), {"known"}), 0.0, None)
    assert res["problems"] == [] and res["failed"] == 0


def test_unexpected_failure_makes_the_run_incorrect():
    res = run.measure(_Scripted({"small"}, {"known"}), 0.0, None)
    assert any("unexpected failure small" in p for p in res["problems"])
    assert any("no completed small operation" in p for p in res["problems"])


def test_injected_raise_in_the_program_makes_the_run_incorrect(monkeypatch):
    classify = wg.classify_act

    def classify_or_raise(tensor, *args, **kwargs):
        if tensor.dim == 24:
            raise RuntimeError("injected")
        return classify(tensor, *args, **kwargs)

    monkeypatch.setattr(wg, "classify_act", classify_or_raise)
    res = run.measure(workloads.ActScreen(ROOT, seed=5), 0.0, None)
    assert res["failed"] == 4 * res["rounds"]  # one m = 24 tensor of each kind
    assert any("unexpected failure" in p and "m=24" in p for p in res["problems"])


def test_phi_check_accepts_either_sign():
    phi = workloads.standard_structure(8)
    assert checks.check_phi(-phi, phi) == []
    assert checks.check_phi(None, phi) != []
    assert checks.check_spectrum_rows(np.zeros((2, 6)), checks.csf_spectrum(1.0, 8), 1e-4) != []


def _result(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_result_line_names_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result("act_screen", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: v["unit"] for name, v in result["metrics"].items()}
        assert printed == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "act_screen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
