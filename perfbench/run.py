"""Run one workload of the osdrl benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ./src, never from
an installed copy. One process, one thread (BLAS pinned to one thread), a
closed loop of whole rounds while another round fits in S seconds (at
least one). wall_s is the median round time and setup_s the median set-up
time, both scaled to a reference host speed (see _timed). Every round's
outputs are checked. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The run's
details go to perfbench/out/<workload>/ (result.json; trace.json and
spans.csv when traced).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (osdrl's one dependency; imported before set-up is timed)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("instability", "frozenlake", "learners", "verify")
# set-up samples: the run's own, then fresh processes, half of them before
# the rounds and half after, so that the median spans the run
SETUP_PROBES = 4
# The speed of a shared host changes by tens of percent from one second to
# the next with load from outside the process. While work is timed, a timer
# signal every TICK_PERIOD_S runs a fixed reference loop and times it, so the
# loop's mean time measures the host's speed over the same seconds. Timed
# work is reported at the reference speed: its seconds, less the loop's,
# times TICK_REF_S / the loop's mean time.
TICK_PERIOD_S = 0.05
SETUP_TICK_PERIOD_S = 0.01  # set-up takes about 0.06 s
TICK_REF_S = 0.0006
PROBE_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
_DISTRIBUTIONS = ("cramer_project", "from_points", "mixture", "pushforward_affine", "wasserstein", "sup_wasserstein")
_OPERATORS = ("distr_bellman_opt", "distr_bellman_eval", "os_distr_opt", "os_distr_eval", "projected")
_DP = ("projected_fixed_points", "solve_q_star", "solve_q_pi", "iterate", "detect_oscillation")
_CHECKS = (
    "check_contraction_suite",
    "check_fixed_points",
    "check_projection_lemma",
    "check_mean_preservation",
    "check_projection_monotonicity",
    "check_operator_monotonicity",
    "check_wasserstein_axioms",
    "check_w1_riemann_agreement",
    "check_mean_commutation",
    "check_banach_residual",
    "check_mean_tracking",
    "check_target_complexity",
)


def _calls_and_self(names):
    return {f"{n}.{kind}": unit for n in names for kind, unit in (("calls", "count"), ("self_s", "s"))}


PER_LAYER = {
    **_calls_and_self(f"distributions.{n}" for n in _DISTRIBUTIONS),
    **_calls_and_self(f"operators.{n}" for n in _OPERATORS),
    "operators.atoms_out": "count",
    **_calls_and_self(["mdp.Policy"]),
    **_calls_and_self(f"dp.{n}" for n in _DP),
    "dp.projected_fixed_points.op_applications": "count",
    **_calls_and_self(["learning.run_learning"]),
    "learning.steps": "count",
    "learning.os.steps_per_s": "steps/s",
    "learning.cdrl.steps_per_s": "steps/s",
    "learner_steps_per_s": "steps/s",
    "cli.instability.self_s": "s",
    "cli.frozenlake.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "cli.instability.candidates_tried": "count",
    "cli.instability.candidates_iterated": "count",
    **_calls_and_self(["svgplot"]),
    **{f"verify.{n}.self_s": "s" for n in _CHECKS},
    "verify.cases": "count",
    "trace.overhead_s": "s",
    "machine.tick_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_program():
    """Import osdrl from this checkout's src/ and the workload module."""
    if not (SRC / "osdrl" / "__init__.py").is_file():
        raise BenchError(f"no osdrl package under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    import osdrl

    if Path(osdrl.__file__).resolve().parent != (SRC / "osdrl").resolve():
        raise BenchError(f"osdrl imported from {osdrl.__file__}, not from {SRC}")
    import workloads

    return workloads


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


_TICK_GRID = np.array([0.0, 1.9, 2.1, 10.0])


def _reference_loop() -> None:
    """A fixed mix of interpreter work and small-array numpy calls, like
    osdrl's hot paths (the second half follows from_points); it does not
    touch osdrl."""
    acc = 0.0
    for i in range(100):
        acc += sum(0.5 * j for j in range(6)) + int(np.searchsorted(_TICK_GRID, i * 0.01))
    for i in range(20):
        values, weights = np.asarray((2.0 + i * 0.01, 0.5, 1.5)), np.asarray((0.2, 0.3, 0.5))
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        group = np.concatenate(([0], np.cumsum(np.diff(values) > 1e-12)))
        acc += float(np.bincount(group, weights=weights)[0])


def _timed(fn, period: float = TICK_PERIOD_S):
    """Run fn() while sampling the host's speed. Returns (result, seconds at
    the reference speed, seconds, mean reference-loop seconds); the seconds
    leave out the time of the sampling itself."""
    ticks = []

    def tick(signum, frame):
        start = time.perf_counter()
        _reference_loop()
        ticks.append(time.perf_counter() - start)

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, period, period)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    seconds = elapsed - sum(ticks)
    if not ticks:
        tick(None, None)
    mean_tick = statistics.fmean(ticks)
    return result, seconds * TICK_REF_S / mean_tick, seconds, mean_tick


def _setup(name: str, seed: int, out: Path) -> tuple:
    """Import the program and build one workload's inputs; returns the
    workload and the timing of both."""

    def build():
        return _import_program().WORKLOADS[name](seed, _fresh_dir(out))

    workload, *timing = _timed(build, SETUP_TICK_PERIOD_S)
    return workload, timing


def _probe_setup(name: str, seed: int) -> list:
    """Set-up timing in a fresh interpreter, where the imports are not cached."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rounds(workload, deadline: float, problems: list, ran: set, sampled: bool = True) -> list:
    """Run whole rounds while another round of the median length still ends
    by the deadline (at least one). Returns [(timing, Round)], timing as
    _timed gives it (unsampled: seconds only), and collects the checks run
    and the problems found."""
    done = []
    while True:
        if workload.dir is not None:
            shutil.rmtree(workload.dir, ignore_errors=True)
        if sampled:
            result, *timing = _timed(workload.run)
        else:
            start = time.perf_counter()
            result = workload.run()
            timing = [None, time.perf_counter() - start, None]
        done.append((timing, result))
        names, found = workload.check()
        ran.update(names)
        problems += found
        if time.perf_counter() + statistics.median(t[1] for t, _ in done) > deadline:
            return done


def _dir_size(path) -> tuple:
    files = [p for p in Path(path).rglob("*") if p.is_file()] if path is not None else []
    return len(files), sum(p.stat().st_size for p in files)


def _layer_metrics(tracer, workload, round_, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced round."""
    calls, self_s = tracer.totals()
    counts = tracer.counts
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            metrics[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            metrics[name] = self_s[name[: -len(".self_s")]]
    files, size = _dir_size(workload.dir)
    report = {}
    if workload.name == "instability" and (workload.dir / "report.json").is_file():
        report = json.loads((workload.dir / "report.json").read_text())["search"]

    def rate(algo):
        seconds = counts[f"learning.{algo}.seconds"]
        return counts[f"learning.{algo}.steps"] / seconds if seconds else 0.0

    metrics.update(
        {
            "operators.atoms_out": counts["operators.atoms_out"],
            "dp.projected_fixed_points.op_applications": tracer.count_under(
                "operators.projected", "dp.projected_fixed_points"
            ),
            "learning.steps": counts["learning.steps"],
            "learning.os.steps_per_s": rate("os"),
            "learning.cdrl.steps_per_s": rate("cdrl"),
            "learner_steps_per_s": round_.learner_steps / untraced_wall,
            "cli.bytes_written": size,
            "cli.files_written": files,
            "cli.instability.candidates_tried": report.get("candidates_tried", 0),
            "cli.instability.candidates_iterated": calls["cli.instability.candidate"],
            "verify.cases": sum(p["cases"] for p in getattr(workload, "properties", [])),
        }
    )
    return metrics


def _result(correct: bool, rounds: list, metrics: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": sum(r.attempted for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run(args) -> dict:
    out = OUT / args.workload
    workload, first_setup = _setup(args.workload, args.seed, out)
    setups = [first_setup] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
    start = time.perf_counter()
    problems, ran, traced = [], set(), []
    rounds = _rounds(workload, start + (args.seconds / 2 if args.trace else args.seconds), problems, ran)
    if not args.trace:
        setups += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = {
            "setup_s": statistics.median(t[0] for t in setups),
            "wall_s": statistics.median(t[0] for t, _ in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        import tracing

        # half the time untraced, for the overhead; then traced rounds
        untraced_wall = statistics.median(t[1] for t, _ in rounds)
        tracer = tracing.Tracer()
        tracer.install()
        per_round = []
        try:
            deadline = start + args.seconds
            while not traced or time.perf_counter() + statistics.median(t[1] for t, _ in traced) <= deadline:
                tracer.reset()
                traced += _rounds(workload, 0.0, problems, ran, sampled=False)
                per_round.append(_layer_metrics(tracer, workload, traced[-1][1], untraced_wall))
        finally:
            tracer.uninstall()
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics["trace.overhead_s"] = statistics.median(t[1] for t, _ in traced) - untraced_wall
        metrics["machine.tick_s"] = statistics.median(t[2] for t, _ in rounds)
        units = PER_LAYER
        tracer.write_spans(out / "spans.csv")
        (out / "trace.json").write_text(json.dumps({"metrics": metrics, "untraced_wall_s": untraced_wall}, indent=2))
    result = _result(not problems and ran == set(workload.checks()), rounds + traced, metrics, units)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "timings": "[seconds at the reference speed, seconds, mean reference-loop seconds]",
        "setup": setups,
        "rounds": [t for t, _ in rounds],
        "traced_round_s": [t[1] for t, _ in traced],
        "checks_run": sorted(ran),
        "problems": problems,
        "result": result,
    }
    (out / "result.json").write_text(json.dumps(details, indent=2))
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    try:
        if args.setup_probe:
            _, timing = _setup(args.workload, args.seed, OUT / "setup-probe" / args.workload)
            print(json.dumps(timing))
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
