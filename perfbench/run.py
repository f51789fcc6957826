"""Benchmark of the weylgeom pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload act_screen --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from
./src.  One process runs one workload as a single-client closed loop of
whole rounds, checks every output, prints each metric with its unit and
ends with one JSON line.  With --trace 0 that line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics derived from the
in-memory span trace, which is also written to .perfbench_out/.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()

# One BLAS thread per process.  With OpenBLAS's default thread per core,
# the spread of ten runs (quartile distance over median) of act_screen's
# small_op_p50_ms was 0.34 in two sets, against 0.06 and 0.11 with one
# thread, and fd_charts' figures spread 0.19 to 0.35 against 0.11 to 0.15.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Set-up is timed in this process and in this many fresh ones, and the
# median is reported.  Ten single set-ups of fd_charts spread 0.19
# (quartile distance over median), act_screen's 0.11.
SETUP_CHILDREN = 2
# Every run measures at least this many rounds, so that a slow host does
# not leave the largest CLI commands with one sample each.
MIN_ROUNDS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli_projective", "act_screen", "fd_charts"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def load_program():
    """Import weylgeom from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "weylgeom" / "__init__.py").is_file():
        sys.exit(f"error: no weylgeom source tree under {src}")
    sys.path.insert(0, str(src))
    import weylgeom

    if not Path(weylgeom.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: weylgeom was imported from {weylgeom.__file__}, not {src}")


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        sys.exit(f"error: set-up in a fresh process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, tracer):
    """Run whole rounds: at least MIN_ROUNDS, then more while the next is
    expected to end within `seconds`.

    Timed wall time covers the operations and their checks; building a
    round's inputs happens before its clock starts.  An operation that
    raises counts as failed; unless its label is one of the workload's
    `expected_failures`, it is also a problem that makes the run incorrect,
    as is a check that fails or a size class left without a sample.
    """
    latency = {"large": defaultdict(list), "small": defaultdict(list)}
    attempted = failed = passed = 0
    failures = Counter()
    problems = []
    timed = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        ops = workload.round(rounds)
        t_round = time.perf_counter()
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted; fatal only if unexpected
                failed += 1
                failure = f"{op.label}: {type(exc).__name__}: {str(exc)[:90]}"
                failures[failure] += 1
                if op.label not in workload.expected_failures:
                    problems.append(f"unexpected failure {failure}")
                continue
            finally:
                if tracer is not None:
                    tracer.end_operation()
            if op.size:
                latency[op.size][op.label].append(time.perf_counter() - t0)
            bad = op.check(out)
            if bad:
                problems.append(f"{op.label}: {'; '.join(bad)}")
            else:
                passed += 1
        timed += time.perf_counter() - t_round
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
    problems += [f"no completed {size} operation" for size, by_op in latency.items() if not by_op]
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "passed": passed,
        "failures": failures,
        "problems": problems,
        "timed_s": timed,
        "latency": latency,
    }


def p50_ms(by_op: dict) -> float:
    """Median over operations of each operation's median latency.

    A size class mixes operations of unequal cost (input kinds, probe
    points); pooled, their samples form clusters, and the median would
    sit at the edge of one and move with the noise there, which taking
    each operation's median first avoids.  An empty class (already a
    problem of the run) reads 0.
    """
    if not by_op:
        return 0.0
    return 1e3 * statistics.median(statistics.median(v) for v in by_op.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    workload.setup()
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = [own_setup] + [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        workload.instrument(tracer)
    res = measure(workload, args.seconds, tracer)

    ops_per_s = res["passed"] / res["timed_s"]
    if tracer is None:
        lat = res["latency"]
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "large_op_p50_ms": (p50_ms(lat["large"]), "ms"),
            "small_op_p50_ms": (p50_ms(lat["small"]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        tracer.dump(OUT / f"spans-{args.workload}.npz")
        metrics = tracer.layer_metrics(res["attempted"])
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {res['rounds']}  timed {res['timed_s']:.3f} s")
    print(f"attempted {res['attempted']}  failed {res['failed']}  "
          f"passed checks {res['passed']}")
    if tracer is None:
        counts = {size: sum(map(len, by_op.values())) for size, by_op in res["latency"].items()}
        print(f"samples: large {counts['large']} of {len(res['latency']['large'])} operations  "
              f"small {counts['small']} of {len(res['latency']['small'])} operations  "
              f"set-ups {len(setups)}")
    for label, count in sorted(res["failures"].items()):
        print(f"failed x{count}: {label}")
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
