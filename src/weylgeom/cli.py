"""Command line front end and machine readable reports.

Three subcommands drive the library end to end:

analyze
    Curvature pipeline at each configured point: metric, conformal
    decomposition, direction spectra, constancy test, verdict.
verify
    Identity checks for the configured model: differential Bianchi
    residual, conformal invariance of the mixed-index conformal tensor,
    trace-free Jacobi, and the parallel-structure check on the complex
    models.  Exit status 1 when any residual exceeds its tier.
spectrum
    Per-direction eigenvalue table of the reduced conformal Jacobi
    operator, in a stable direction order.

Configuration is a single JSON document read from a file (or stdin via
"-"); unknown keys are rejected rather than ignored.  Command line flags
mirror the config keys and override file values.  Reports are byte
deterministic for fixed (config, seed, version): every float goes
through one shared 17-significant-digit formatter, object keys are
sorted, and records follow the input order of the points.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 domain violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import tiers
from .tensor_core import CurvatureTensor, max_abs
from .curvature_algebra import symmetry_residual, weyl_decompose
from .spectral import DEFAULT_SAMPLES, osserman_test, trace_check
from .chart_geometry import (
    DomainError,
    MetricChart,
    conformal_rescale,
    cyclic_bianchi_residual,
    default_probe_points,
    riemann_at,
    riemann_with_derivative,
)
from .classifier import (
    PointAnalysis,
    ToleranceConfig,
    analyze_point,
    orthonormal_decomposition,
)
from .models import ModelSpec, build_model, standard_phi

__all__ = [
    "ConfigError",
    "NumericalError",
    "AnalysisConfig",
    "cmd_analyze",
    "cmd_verify",
    "cmd_spectrum",
    "render_json",
    "render_text",
    "main",
    "EXIT_OK",
    "EXIT_VERIFY_FAILED",
    "EXIT_CONFIG",
    "EXIT_DOMAIN",
    "EXIT_NUMERICAL",
]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

SCHEMA_VERSION = 1

_DEFAULT_POINT_COUNT = 3

# Models whose chart coordinates are holomorphic, making the standard
# block structure the complex structure field at every point.
_COMPLEX_MODELS = {"fubini_study", "complex_hyperbolic"}


class ConfigError(ValueError):
    """Rejected configuration: unknown key, bad type, or bad value."""


class NumericalError(RuntimeError):
    """Non-finite value reached the report serializer."""


# --------------------------------------------------------------------------
# configuration


_TOP_KEYS = {"model", "metric", "points", "samples", "seed", "tolerances", "format", "out"}
_MODEL_KEYS = {"name", "params"}
_METRIC_KEYS = {"constant", "linear", "quadratic", "extent"}
_TOL_KEYS = {"fd_step", "spec_tol", "cluster_tol"}


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated run configuration shared by all subcommands.

    fd_step and spec_tol default to None, meaning: use the chart's own
    step, and the tier matching the model kind.
    """

    model: ModelSpec | None = None
    metric: dict | None = None
    points: tuple[tuple[float, ...], ...] | None = None
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    fd_step: float | None = None
    spec_tol: float | None = None
    cluster_tol: float = tiers.CLUSTER
    format: str = "text"
    out: str | None = None


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key {unknown[0]!r}")


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _as_positive_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    # Compared before float(), which raises on an integer beyond its range.
    if not 0.0 < value <= sys.float_info.max:
        raise ConfigError(f"{key} must be positive and finite, got {value!r}")
    return float(value)


def _parse_points(raw) -> tuple[tuple[float, ...], ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"points must be a non-empty list of coordinate lists, got {raw!r}")
    points = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or not entry:
            raise ConfigError(f"each point must be a non-empty coordinate list, got {entry!r}")
        coords = []
        for x in entry:
            # Compared before float(), which raises on an integer beyond its range.
            finite = isinstance(x, (int, float)) and abs(x) <= sys.float_info.max
            if isinstance(x, bool) or not finite:
                raise ConfigError(f"point coordinate must be a finite number, got {x!r}")
            coords.append(float(x))
        if points and len(coords) != len(points[0]):
            raise ConfigError(
                f"points must all have {len(points[0])} coordinates, got {len(coords)}"
            )
        points.append(tuple(coords))
    return tuple(points)


def _parse_model(raw) -> ModelSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"model must be an object with name and params, got {raw!r}")
    _reject_unknown(raw, _MODEL_KEYS, "model")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"model name must be a non-empty string, got {name!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"model params must be an object, got {params!r}")
    if name == "polynomial":
        _require_finite_coefficients(params, "model")
    for key, value in sorted(params.items()):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"model parameter {key} must be finite, got {value!r}")
    return ModelSpec(name=name, params=dict(params))


def _require_finite_coefficients(raw: dict, where: str) -> None:
    """Reject external polynomial metric coefficients (and extent) that
    are not numbers or not finite."""
    for key in sorted(set(raw) & _METRIC_KEYS):
        try:
            coefficients = np.asarray(raw[key], dtype=float)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{where} {key} must be numeric: {exc}") from exc
        if not np.all(np.isfinite(coefficients)):
            raise ConfigError(f"{where} {key} holds a non-finite coefficient")


def _parse_metric(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"metric must be an object of coefficient arrays, got {raw!r}")
    _reject_unknown(raw, _METRIC_KEYS, "metric")
    if "constant" not in raw:
        raise ConfigError("metric needs a constant coefficient matrix")
    _require_finite_coefficients(raw, "metric")
    return dict(raw)


def config_from_mapping(data: dict) -> AnalysisConfig:
    """Build a validated config from a parsed JSON document; fail closed."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    _reject_unknown(data, _TOP_KEYS, "config")

    kwargs: dict = {}
    if "model" in data:
        kwargs["model"] = _parse_model(data["model"])
    if "metric" in data:
        kwargs["metric"] = _parse_metric(data["metric"])
    if kwargs.get("model") is not None and kwargs.get("metric") is not None:
        raise ConfigError("config takes a model or an external metric, not both")
    if "points" in data:
        kwargs["points"] = _parse_points(data["points"])
    if "samples" in data:
        samples = _as_int(data["samples"], "samples")
        if not 2 <= samples <= tiers.MAX_SAMPLES:
            raise ConfigError(f"samples must be 2 to {tiers.MAX_SAMPLES}, got {samples}")
        kwargs["samples"] = samples
    if "seed" in data:
        seed = _as_int(data["seed"], "seed")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        kwargs["seed"] = seed
    if "tolerances" in data:
        tol = data["tolerances"]
        if not isinstance(tol, dict):
            raise ConfigError(f"tolerances must be an object, got {tol!r}")
        _reject_unknown(tol, _TOL_KEYS, "tolerances")
        for key in sorted(tol):
            kwargs[key] = _as_positive_float(tol[key], key)
    if "format" in data:
        fmt = data["format"]
        if fmt not in ("text", "json"):
            raise ConfigError(f"format must be 'text' or 'json', got {fmt!r}")
        kwargs["format"] = fmt
    if "out" in data:
        out = data["out"]
        if not isinstance(out, str) or not out:
            raise ConfigError(f"out must be a non-empty path string, got {out!r}")
        kwargs["out"] = out
    return AnalysisConfig(**kwargs)


def _parse_model_flag(text: str) -> dict:
    """Parse --model 'name' or 'name:key=value,key=value'."""
    name, sep, rest = text.partition(":")
    if not name:
        raise ConfigError(f"empty model name in {text!r}")
    params: dict = {}
    if sep:
        for piece in rest.split(","):
            key, eq, value = piece.partition("=")
            if not eq or not key:
                raise ConfigError(f"model parameter {piece!r} is not key=value")
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
    return {"name": name, "params": params}


def _parse_point_flag(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"point flag must be comma separated numbers, got {text!r}") from None


def load_config(args: argparse.Namespace) -> AnalysisConfig:
    """Read the JSON config (if given) and overlay command line flags."""
    data: dict = {}
    if args.config:
        try:
            if args.config == "-":
                text = sys.stdin.read()
            else:
                text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        try:
            data = json.loads(text)
        except ValueError as exc:  # also an integer literal past int's digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")

    if args.model is not None:
        data["model"] = _parse_model_flag(args.model)
        data.pop("metric", None)
    if args.point:
        data["points"] = [_parse_point_flag(p) for p in args.point]
    for key in ("samples", "seed", "format", "out"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    for key in ("fd_step", "spec_tol", "cluster_tol"):
        value = getattr(args, key, None)
        if value is not None:
            data.setdefault("tolerances", {})[key] = value
    return config_from_mapping(data)


# --------------------------------------------------------------------------
# model resolution


def resolve_model(config: AnalysisConfig):
    """Instantiate the configured model.

    Returns (kind, target, display_name) where kind is 'chart' or
    'algebraic' and target is a MetricChart or CurvatureTensor.
    """
    if config.metric is not None:
        spec, bad = ModelSpec("polynomial", config.metric), "bad external metric"
    elif config.model is not None:
        spec, bad = config.model, "bad model"
    else:
        raise ConfigError("config needs a model or an external metric")
    # An integer m, or n for the complex models, declares the dimension,
    # which is checked before the build allocates for it.
    for key, per_unit in (("m", 1), ("n", 2)):
        value = spec.params.get(key)
        if isinstance(value, int):
            _require_dimension(per_unit * value, spec.name)
    try:
        kind = spec.kind
        built = build_model(spec)
    except DomainError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{bad}: {exc}") from exc
    _require_dimension(built.dim, spec.name)
    if kind == "chart":
        built = _apply_fd_step(built, config)
        return kind, built, built.name
    return kind, built, spec.name


def _require_dimension(dim: int, name: str) -> None:
    # The conformal decomposition that every subcommand reads is undefined
    # below dimension 3; tiers.MAX_DIMENSION bounds the memory above.
    if not 3 <= dim <= tiers.MAX_DIMENSION:
        raise ConfigError(
            f"model {name!r} has dimension {dim}; 3 to {tiers.MAX_DIMENSION} are supported"
        )


def _apply_fd_step(chart: MetricChart, config: AnalysisConfig) -> MetricChart:
    if config.fd_step is None:
        return chart
    return replace(chart, fd_step=config.fd_step)


def tolerance_config(config: AnalysisConfig, kind: str) -> ToleranceConfig:
    base = ToleranceConfig.chart() if kind == "chart" else ToleranceConfig.algebraic()
    overrides = {"cluster_tol": config.cluster_tol}
    if config.spec_tol is not None:
        overrides["spec_tol"] = config.spec_tol
    return replace(base, **overrides)


def resolve_points(chart: MetricChart, config: AnalysisConfig) -> np.ndarray:
    if config.points is None:
        return default_probe_points(chart, _DEFAULT_POINT_COUNT, seed=1)
    points = np.asarray(config.points, dtype=float)
    if points.shape[1] != chart.dim:
        raise ConfigError(
            f"points have {points.shape[1]} coordinates, chart dimension is {chart.dim}"
        )
    return points


# --------------------------------------------------------------------------
# deterministic serialization


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"non-finite value {x!r} in report")
    return format(x, ".17g")


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (str, bool, int, float, np.integer, np.floating, np.bool_))


def render_json(value, _indent: int = 0) -> str:
    """Serialize with sorted keys and fixed float formatting.

    Byte identical output for equal inputs is the point; json.dumps is
    avoided because its float repr is shortest-roundtrip, not fixed
    width, and the report contract wants at least 15 significant digits.
    """
    pad = "  " * _indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, _indent + 1)}'
            for k, v in sorted(value.items())
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        return render_json(value.tolist(), _indent)
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(_is_scalar(v) for v in items):
            return "[" + ", ".join(render_json(v, 0) for v in items) + "]"
        rows = [f"{pad}  {render_json(v, _indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _config_echo(config: AnalysisConfig, points: np.ndarray | None) -> dict:
    echo: dict = {
        "samples": config.samples,
        "seed": config.seed,
        "format": config.format,
        "tolerances": {
            "fd_step": config.fd_step,
            "spec_tol": config.spec_tol,
            "cluster_tol": config.cluster_tol,
        },
    }
    if config.model is not None:
        echo["model"] = {"name": config.model.name, "params": dict(config.model.params)}
    if config.metric is not None:
        echo["metric"] = config.metric
    if points is not None:
        echo["points"] = [list(p) for p in points]
    return echo


def _wrap_report(command: str, config: AnalysisConfig, points, records, **extra) -> dict:
    from . import __version__

    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "seed": config.seed,
        "config": _config_echo(config, points),
        "records": records,
    }
    report.update(extra)
    return report


# --------------------------------------------------------------------------
# analyze


def _analysis_record(analysis: PointAnalysis, metric: np.ndarray, bianchi: float | None) -> dict:
    oss, verdict, profile = analysis.osserman, analysis.verdict, analysis.profile
    diag = verdict.diagnostics
    return {
        "metric": metric.tolist(),
        "scalar_curvature": analysis.decomposition.tau,
        "weyl_max": diag["weyl_max"],
        "profile": {
            "values": list(profile.values),
            "multiplicities": list(profile.multiplicities),
            "spread": profile.spread,
        },
        "osserman": {
            "is_constant": oss.is_constant,
            "max_profile_distance": oss.max_profile_distance,
            "samples": oss.samples,
            "seed": oss.seed,
            "spec_tol": oss.spec_tol,
        },
        "verdict": {
            "kind": verdict.kind.value,
            "lambda0": verdict.lambda0,
            "lambda1": verdict.lambda1,
            "phi": None if verdict.phi is None else verdict.phi.matrix.tolist(),
            "eq2a_residual": diag.get("eq2a_residual"),
            "reconstruction_residual": diag.get("reconstruction_residual"),
            "osserman_distance": diag["osserman_distance"],
            "profile_spread": diag["profile_spread"],
            "warnings": list(verdict.warnings),
        },
        "bianchi_residual": bianchi,
    }


def _records(config: AnalysisConfig, kind: str, target, name: str, at_act, at_point):
    """One record for an algebraic model, or one per chart point in input
    order, each tagged with its point; returns (points, records), with
    points None for an algebraic model."""
    if kind == "algebraic":
        if config.points:
            raise ConfigError(f"model {name!r} is algebraic and takes no points")
        return None, [{"point": None, **at_act(target)}]
    points = resolve_points(target, config)
    return points, [{"point": [float(x) for x in u], **at_point(u)} for u in points]


def cmd_analyze(config: AnalysisConfig) -> tuple[dict, int]:
    kind, target, name = resolve_model(config)
    analyze = partial(
        analyze_point, tol=tolerance_config(config, kind), samples=config.samples, seed=config.seed
    )

    def at_point(u: np.ndarray) -> dict:
        r, nabla_r, _ = riemann_with_derivative(target, u)
        return _analysis_record(analyze(r), r.metric.g, cyclic_bianchi_residual(nabla_r))

    points, records = _records(
        config, kind, target, name,
        lambda act: _analysis_record(analyze(act), act.metric.g, None), at_point,
    )
    report = _wrap_report("analyze", config, points, records, model_name=name)
    return report, EXIT_OK


# --------------------------------------------------------------------------
# verify


def _alpha(u: np.ndarray) -> float:
    return float(np.exp(0.3 * u[0]))


def _d_alpha(u: np.ndarray) -> np.ndarray:
    out = np.zeros(len(u))
    out[0] = 0.3 * _alpha(u)
    return out


def _d2_alpha(u: np.ndarray) -> np.ndarray:
    out = np.zeros((len(u), len(u)))
    out[0, 0] = 0.09 * _alpha(u)
    return out


def _weyl13(r: CurvatureTensor) -> np.ndarray:
    """Mixed-index conformal tensor of a chart curvature tensor.

    The coordinate components with the first index raised are what stays
    fixed under a conformal change of metric, so both metrics can be
    compared entrywise without any frame alignment.
    """
    dec = weyl_decompose(r)
    return np.einsum("ia,ajkl->ijkl", np.linalg.inv(r.metric.g), dec.w.components)


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _verify_act(act: CurvatureTensor) -> dict:
    symmetry_tier = tiers.VERIFY_SYMMETRY * max(1.0, act.max_abs())
    checks = [_check("curvature_symmetries", symmetry_residual(act), symmetry_tier)]
    dec = orthonormal_decomposition(act)
    checks.append(
        _check(
            "decomposition_reconstruction",
            dec.reconstruction_residual(),
            tiers.VERIFY_RECONSTRUCTION * max(1.0, act.max_abs()),
        )
    )
    trace_tier = tiers.VERIFY_TRACE_ALGEBRAIC * max(1.0, dec.r.max_abs())
    checks.append(_check("trace_free_jacobi", trace_check(dec.w), trace_tier))
    return {"checks": checks}


def cmd_verify(config: AnalysisConfig) -> tuple[dict, int]:
    kind, target, name = resolve_model(config)
    phi_mat = None
    if config.model is not None and config.model.name in _COMPLEX_MODELS:
        phi_mat = standard_phi(target.dim).matrix
    scaled = conformal_rescale(target, _alpha, _d_alpha, _d2_alpha) if kind == "chart" else None

    def at_point(u: np.ndarray) -> dict:
        r, nabla_r, gamma = riemann_with_derivative(target, u)
        tier = tiers.VERIFY_BIANCHI_ANALYTIC if target.analytic else tiers.VERIFY_BIANCHI_FD
        checks = [_check("second_bianchi", cyclic_bianchi_residual(nabla_r), tier)]

        dec = orthonormal_decomposition(r)
        trace_tier = tiers.VERIFY_TRACE_CHART * max(1.0, dec.r.max_abs())
        checks.append(_check("trace_free_jacobi", trace_check(dec.w), trace_tier))

        invariance = max_abs(_weyl13(r) - _weyl13(riemann_at(scaled, u)[0]))
        checks.append(_check("conformal_invariance", invariance, tiers.VERIFY_CONFORMAL))

        if phi_mat is not None:
            # Phi is constant in these coordinates, so nabla_a Phi = [Gamma_a, Phi]
            # with the connection matrix (Gamma_a)^i_j = Gamma^i_aj.
            ga = np.moveaxis(gamma, 1, 0)
            nabla = ga @ phi_mat - phi_mat @ ga
            checks.append(_check("parallel_structure", max_abs(nabla), tiers.VERIFY_KAHLER))
        return {"checks": checks}

    points, records = _records(config, kind, target, name, _verify_act, at_point)
    failed = sum(1 for rec in records for c in rec["checks"] if not c["passed"])
    total = sum(len(rec["checks"]) for rec in records)
    report = _wrap_report(
        "verify",
        config,
        points,
        records,
        model_name=name,
        summary={"checks": total, "failed": failed, "all_passed": failed == 0},
    )
    return report, EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# spectrum


def cmd_spectrum(config: AnalysisConfig) -> tuple[dict, int]:
    kind, target, name = resolve_model(config)

    def spectra(r: CurvatureTensor) -> dict:
        w = orthonormal_decomposition(r).w
        return {"spectra": osserman_test(w, config.samples, config.seed).spectra.tolist()}

    points, records = _records(
        config, kind, target, name, spectra, lambda u: spectra(riemann_at(target, u)[0])
    )
    report = _wrap_report("spectrum", config, points, records, model_name=name)
    return report, EXIT_OK


# --------------------------------------------------------------------------
# text rendering


def _record_header(rec: dict) -> str:
    if rec["point"] is None:
        return "algebraic model:"
    return f"point [{', '.join(_fmt(x) for x in rec['point'])}]:"


def _text_analyze(report: dict, lines: list[str]) -> None:
    for rec in report["records"]:
        lines.append(_record_header(rec))
        verdict = rec["verdict"]
        lines.append(f"  verdict: {verdict['kind']}")
        if verdict["lambda0"] is not None:
            lines.append(
                f"  lambda0 = {_fmt(verdict['lambda0'])}  lambda1 = {_fmt(verdict['lambda1'])}"
            )
        lines.append(
            f"  scalar_curvature = {_fmt(rec['scalar_curvature'])}  weyl_max = {_fmt(rec['weyl_max'])}"
        )
        profile = rec["profile"]
        pairs = ", ".join(
            f"{_fmt(v)} x{mult}"
            for v, mult in zip(profile["values"], profile["multiplicities"])
        )
        lines.append(f"  profile: {pairs}  (spread {_fmt(profile['spread'])})")
        lines.append(
            f"  osserman distance = {_fmt(rec['osserman']['max_profile_distance'])}"
            f"  constant = {rec['osserman']['is_constant']}"
        )
        if verdict["eq2a_residual"] is not None:
            lines.append(f"  eigenvalue relation residual = {_fmt(verdict['eq2a_residual'])}")
        if rec["bianchi_residual"] is not None:
            lines.append(f"  bianchi residual = {_fmt(rec['bianchi_residual'])}")
        for warning in verdict["warnings"]:
            lines.append(f"  warning: {warning}")


def _text_verify(report: dict, lines: list[str]) -> None:
    for rec in report["records"]:
        lines.append(_record_header(rec))
        for check in rec["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            lines.append(
                f"  {status}  {check['name']}: residual {_fmt(check['residual'])}"
                f" vs {_fmt(check['tolerance'])}"
            )
    summary = report["summary"]
    lines.append(
        f"checks: {summary['checks']}  failed: {summary['failed']}"
        f"  all_passed: {summary['all_passed']}"
    )


def _text_spectrum(report: dict, lines: list[str]) -> None:
    for rec in report["records"]:
        lines.append(_record_header(rec))
        for idx, row in enumerate(rec["spectra"]):
            lines.append(f"  {idx:4d}  " + "  ".join(_fmt(v) for v in row))


def render_text(report: dict) -> str:
    lines = [
        f"weylgeom {report['command']} report"
        f"  (schema {report['schema_version']}, version {report['version']})",
        f"model: {report['model_name']}  seed: {report['seed']}"
        f"  samples: {report['config']['samples']}",
    ]
    renderer = {"analyze": _text_analyze, "verify": _text_verify, "spectrum": _text_spectrum}
    renderer[report["command"]](report, lines)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylgeom",
        description="Conformal curvature analysis: decomposition, direction spectra, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "analyze": "run the curvature pipeline and classify each point",
        "verify": "run identity checks; exit 1 on any residual failure",
        "spectrum": "print per-direction reduced Jacobi eigenvalues",
    }
    for name, text in helps.items():
        s = sub.add_parser(name, help=text)
        s.add_argument("config", nargs="?", help="JSON config path, or - for stdin")
        s.add_argument("--model", help="model name, or name:key=value,key=value")
        s.add_argument(
            "--point",
            action="append",
            help="comma separated chart coordinates; repeatable",
        )
        s.add_argument("--samples", type=int, help="random directions for the constancy test")
        s.add_argument("--seed", type=int, help="direction sampling seed")
        s.add_argument("--fd-step", type=float, dest="fd_step", help="finite difference step")
        s.add_argument("--spec-tol", type=float, dest="spec_tol", help="spectrum constancy tolerance")
        s.add_argument("--cluster-tol", type=float, dest="cluster_tol", help="eigenvalue clustering tolerance")
        s.add_argument("--format", choices=("text", "json"), help="report format")
        s.add_argument("--out", help="write the report to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        command = {"analyze": cmd_analyze, "verify": cmd_verify, "spectrum": cmd_spectrum}
        report, code = command[args.command](config)
        text = render_json(report) + "\n" if config.format == "json" else render_text(report)
        if config.out:
            try:
                Path(config.out).write_text(text)
            except OSError as exc:
                raise ConfigError(f"cannot write report to {config.out!r}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
