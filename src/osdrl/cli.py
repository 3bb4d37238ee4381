"""Command-line front end: reproduces the tabular experiments (instability,
atom-growth histograms, Frozen Lake learning curves) and runs the property
suites. Canonical outputs are CSV; SVG charts accompany them.

Exit codes: 0 success, 1 property/runtime failure, 2 config error,
3 instability search exhausted (inconclusive).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import count
from pathlib import Path

import numpy as np

from .distributions import DistributionCollection, categorical_means, categorical_w1, dirac
from .dp import (
    AtomBudgetExceeded,
    RangeConditionError,
    _checked_fixed_point,
    categorical_start,
    detect_oscillation,
    iterate,
    projected_fixed_points,
    solve_q_star,
    trace_atoms_to_csv,
)
from .learning import (
    DEFAULT_EPS_RATE,
    ExplorationSchedule,
    StepSizeSchedule,
    _as_float,
    run_learning,
    write_learning_csv,
)
from .mdp import FROZEN_LAKE_MAP, Policy, _entry_ids, make_frozen_lake, make_toy_mdp, write_csv
from .operators import categorical_full_opt_batch, categorical_os_opt
from .operators import distr_bellman_eval, os_distr_eval
from .svgplot import histogram_chart, line_chart

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
SEARCH_CHUNK = 32  # candidates the instability search draws and iterates in lockstep
SEARCH_STEPS = 140  # iterates of each searched candidate, at most


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "instability": {
        "seed": 0,
        "steps": 200,
        "one_step_iterations": 60,
        "search_candidates": 1000,
        "grid": [0.0, 1.9, 2.1, 10.0],
        "out": "out",
    },
    "histograms": {
        "steps": 4,
        "bins": 30,
        "atom_cap": 1_000_000,
        "out": "out",
    },
    "frozenlake": {
        "seed": 0,
        "steps": 100_000,
        "seeds": 100,
        "grid": [0.0, 10.0, 20.0],
        "alpha": 0.6,
        "eps_start": 1.0,
        "eps_end": 0.25,
        "eps_rate": DEFAULT_EPS_RATE,
        "goal_reward": 20.0,
        "slippery": True,
        "record_every": 1000,
        "track": [[4, 2], [10, 0]],
        "out": "out",
    },
    "verify": {
        "seed": 0,
        "fast": False,
        "out": "out",
    },
}


def load_config(command: str, config_path, overrides: dict) -> dict:
    """Defaults < config file < command-line flags; unknown keys rejected."""
    config = dict(DEFAULTS[command])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(file_config, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_config.items():
            if key not in config:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            config[key] = value
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in config:
            raise ConfigError(f"option {key!r} does not apply to command {command!r}")
        config[key] = value
    _validate_config(command, config)
    return config


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _float(v):
    """v as the float the commands compute with, or None if v is not a
    number or that float is not finite (an int beyond float range included)."""
    if not (_int(v) or isinstance(v, float)):
        return None
    f = _as_float(v)
    return f if math.isfinite(f) else None


def _number(v) -> bool:
    return _float(v) is not None


def _grid(v) -> bool:
    if not (isinstance(v, (list, tuple)) and len(v) >= 2):
        return False
    z = list(map(_float, v))
    # checked as floats, so that ints stay apart once converted; a finite span
    # z_K - z_1 keeps every gap finite, which the projection divides by
    return None not in z and all(lo < hi for lo, hi in zip(z, z[1:])) and math.isfinite(z[-1] - z[0])


_LAKE_STATES, _LAKE_ACTIONS = len("".join(FROZEN_LAKE_MAP)), 4


def _track(v) -> bool:
    def pair_ok(p):
        ok = isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_int, p))
        return ok and 0 <= p[0] < _LAKE_STATES and 0 <= p[1] < _LAKE_ACTIONS

    return isinstance(v, (list, tuple)) and len(v) >= 1 and all(map(pair_ok, v))


# Bounds on counts that size arrays before a command runs. instability keeps
# every iterate of a run in one float array of (n + 1) * S * A * K entries,
# written out whole to CSV and charts, and the search one of SEARCH_CHUNK
# times that: each is held to MAX_STACK_ENTRIES (128 MiB). histograms makes
# a linspace entry, a CSV row and a bar per bin. frozenlake lists its seeds
# and keeps each seed's learner record until the CSVs are written.
MAX_STACK_ENTRIES = 1 << 24
MAX_BINS = 10_000
MAX_SEEDS = 1000

# key -> (check, what a valid value is), one entry per key of DEFAULTS
CONFIG_SCHEMA = {
    "seed": (lambda v: _int(v) and v >= 0, "an integer >= 0"),
    "steps": (lambda v: _int(v) and v >= 0, "an integer >= 0"),
    "one_step_iterations": (lambda v: _int(v) and v >= 1, "an integer >= 1"),
    "search_candidates": (lambda v: _int(v) and v >= 0, "an integer >= 0"),
    "grid": (_grid, "a list of at least 2 numbers, finite and strictly increasing as floats, with a finite span"),
    "out": (lambda v: isinstance(v, str), "a path string"),
    "bins": (lambda v: _int(v) and 1 <= v <= MAX_BINS, f"an integer in [1, {MAX_BINS}]: a CSV row and a bar each"),
    "atom_cap": (lambda v: _int(v) and v >= 1, "an integer >= 1"),
    "seeds": (
        lambda v: _int(v) and 1 <= v <= MAX_SEEDS,
        f"an integer in [1, {MAX_SEEDS}]: a learner run each, every record kept until the CSVs are written",
    ),
    "alpha": (lambda v: _number(v) and 0.0 < v <= 1.0, "a number in (0, 1]"),
    "eps_start": (lambda v: _number(v) and 0.0 <= v <= 1.0, "a number in [0, 1]"),
    "eps_end": (lambda v: _number(v) and 0.0 <= v <= 1.0, "a number in [0, 1]"),
    "eps_rate": (lambda v: _number(v) and v >= 0.0, "a number >= 0"),
    "goal_reward": (lambda v: _number(v) and v > 0.0, "a number > 0"),
    "slippery": (lambda v: isinstance(v, bool), "true or false"),
    "record_every": (lambda v: _int(v) and v >= 1, "an integer >= 1"),
    "track": (
        _track,
        f"a nonempty list of [state, action] pairs, states in [0, {_LAKE_STATES}), actions in [0, {_LAKE_ACTIONS})",
    ),
    "fast": (lambda v: isinstance(v, bool), "true or false"),
}


def _validate_config(command: str, config: dict) -> None:
    for key, value in config.items():
        check, what = CONFIG_SCHEMA[key]
        if not check(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    if command == "frozenlake" and config["steps"] < 1:
        raise ConfigError("steps must be >= 1 for frozenlake")
    if command == "instability":
        toy, n_points = make_toy_mdp(), len(config["grid"])
        iterates = {"steps": config["steps"] + 1, "one_step_iterations": config["one_step_iterations"] + 1}
        if config["search_candidates"] > 0:
            iterates["search_candidates"] = SEARCH_CHUNK * (min(config["steps"], SEARCH_STEPS) + 1)
        for key, n in iterates.items():
            if n * toy.n_states * toy.n_actions * n_points > MAX_STACK_ENTRIES:
                raise ConfigError(
                    f"{key} = {config[key]!r} with a {n_points}-point grid keeps {n} iterates of"
                    f" {toy.n_states * toy.n_actions * n_points} floats each in memory,"
                    f" more than {MAX_STACK_ENTRIES} in all"
                )
    # the candidate search draws rewards near the interior grid points
    if command == "instability" and config["search_candidates"] > 0 and len(config["grid"]) < 3:
        raise ConfigError(f"grid must hold at least 3 points when search_candidates > 0, got {config['grid']!r}")


def _out_dir(config: dict, experiment: str) -> Path:
    path = Path(config["out"]) / experiment
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _repeats(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Whether each slice of new along the first axis has old's bits in
    every cell; 0.0 and -0.0 differ, as an operator's input bits would."""
    return (new.view(np.uint64) == old.view(np.uint64)).reshape(len(new), -1).all(axis=1)


def _prob_stack(build, start: np.ndarray, n_steps: int) -> np.ndarray:
    """Iterate a batch of array operators n_steps times from start, a (C, S,
    A, K) array, and stack every iterate, as (n_steps + 1, C, S, A, K).
    build(live) is the operator on the batch's slices live. It is pure and
    its slices never mix, so a slice that repeats its last iterate bit for
    bit fills the rest of its stack, and build runs again on the others."""
    stack = np.empty((n_steps + 1,) + start.shape)
    stack[0] = start
    live = np.arange(len(start))
    op = build(live)
    for n in range(n_steps):
        last = stack[n, live]
        new = op(last)
        stack[n + 1, live] = new
        fixed = _repeats(new, last)
        if fixed.any():
            stack[n + 2 :, live[fixed]] = new[fixed]
            live = live[~fixed]
            if not live.size:
                break
            op = build(live)
    return stack


def _probs_csv(path, labels: list, labelled_rows, grid) -> None:
    """labelled_rows yields (values of the label columns, probability row):
    one CSV row per grid cell of each, labels then k, z_k and prob."""
    cells = list(enumerate(grid.tolist()))
    rows = ((*values, k, z, p) for values, row in labelled_rows for (k, z), p in zip(cells, row))
    write_csv(path, labels + ["k", "z_k", "prob"], rows)


def _probs_chart(xs, rows: np.ndarray, grid, path, title, x_label) -> None:
    """One line per grid cell k: rows[:, k] against xs."""
    line_chart(
        [(f"p(z={z:g})", xs, rows[:, k].tolist()) for k, z in enumerate(grid)],
        path,
        title=title,
        x_label=x_label,
        y_label="probability",
    )


def _qfunc_csv(qs: dict, path) -> None:
    """qs maps a name to its (n, S, A) array of Q-function iterates; shorter
    runs repeat their last iterate."""
    names = sorted(qs)
    runs = [qs[name].reshape(len(qs[name]), -1).tolist() for name in names]
    entries = _entry_ids(*qs[names[0]].shape[1:])
    rows = (
        [it, entry] + [run[min(it, len(run) - 1)][i] for run in runs]
        for it in range(max(map(len, runs)))
        for i, entry in enumerate(entries)
    )
    write_csv(path, ["iteration", "entry_id"] + [f"q_{name}" for name in names], rows)


def _tied_candidates(rng, grid, start: np.ndarray, n_candidates: int, n_steps: int):
    """The search's perturbed toy MDPs in draw order, as (index, r_a, stack)
    for each whose tie survives rounding: drawn, filtered and iterated
    n_steps times from start SEARCH_CHUNK at a time, in lockstep."""
    for first in range(0, n_candidates, SEARCH_CHUNK):
        # proposals mix the full reward range with the near-gridpoint
        # window where tied means dither under rounding
        draws = [
            float(rng.uniform(0.0, 3.0) if rng.random() < 0.5 else rng.uniform(grid[1] - 0.1, grid[-2] + 0.1))
            for _ in range(min(SEARCH_CHUNK, n_candidates - first))
        ]
        candidates = [(index, r_a, make_toy_mdp(r_a)) for index, r_a in enumerate(draws, first)]
        tied = [c for c in candidates if abs(np.subtract(*solve_q_star(c[2], tol=1e-12)[0])) <= 1e-9]
        if tied:
            build = lambda live: categorical_full_opt_batch([tied[c][2] for c in live], grid)
            stacks = _prob_stack(build, np.broadcast_to(start, (len(tied),) + start.shape), n_steps)
        for c, (index, r_a, _) in enumerate(tied):
            # categorical_w1's matmul is only known to round alike on a contiguous stack
            yield index, r_a, np.ascontiguousarray(stacks[:, c])


def cmd_instability(config: dict) -> int:
    grid = np.asarray(config["grid"], dtype=float)
    mdp = make_toy_mdp()
    try:
        eta_star = projected_fixed_points(mdp, grid, tol=1e-10).probs()
    except RangeConditionError as exc:
        raise ConfigError(f"grid does not cover the one-step targets: {exc}") from exc
    out = _out_dir(config, "instability")

    start = categorical_start(mdp, grid).probs()
    # each trace is a batch of one
    os_op = categorical_os_opt(mdp, grid)
    os_stack = _prob_stack(lambda _: lambda p: os_op(p[0])[None], start[None], config["one_step_iterations"])[:, 0]
    os_steps = categorical_w1(os_stack[1:], os_stack[:-1], grid).max(axis=(1, 2)).tolist()
    os_refs = categorical_w1(os_stack, eta_star, grid).max(axis=(1, 2)).tolist()
    os_residual = os_refs[-1]
    os_converged = os_residual < 1e-8

    cdrl_stack = _prob_stack(lambda _: categorical_full_opt_batch([mdp], grid), start[None], config["steps"])[:, 0]
    cdrl_report = detect_oscillation(cdrl_stack, grid)

    search = {"triggered": False, "candidates_tried": 0}
    perturbed_stack = None
    if not cdrl_report.oscillating and config["search_candidates"] > 0:
        rng, total = np.random.default_rng(config["seed"]), config["search_candidates"]
        for index, r_a, stack in _tied_candidates(rng, grid, start, total, min(config["steps"], SEARCH_STEPS)):
            scan = detect_oscillation(stack, grid)
            if scan.oscillating:
                search.update(
                    triggered=True,
                    candidate_index=index,
                    r_a=r_a,
                    r_b=3.0 - r_a,
                    period=scan.period,
                    recurrence=scan.recurrence[1],
                )
                perturbed_stack = stack
                break
        search["candidates_tried"] = search.get("candidate_index", total - 1) + 1

    panels = [
        ("onestep", os_stack, "projected one-step control"),
        ("cdrl", cdrl_stack, "projected full control"),
    ]
    if perturbed_stack is not None:
        panels.append(("cdrl_perturbed", perturbed_stack, "perturbed instance"))
    entries = _entry_ids(mdp.n_states, mdp.n_actions)
    for name, stack, title in panels:
        iterates = stack.reshape(len(stack), len(entries), -1).tolist()
        labelled = (((n, entry), row) for n, it in enumerate(iterates) for entry, row in zip(entries, it))
        _probs_csv(out / f"probs_{name}.csv", ["iteration", "entry_id"], labelled, grid)
        for x, a in ((0, 0), (0, 1)):
            path = out / f"{name}_probs_x{x}_a{a}.svg"
            entry_title = f"{title} at (x{x + 1}, a{a + 1})"
            _probs_chart(range(len(stack)), stack[:, x, a], grid, path, entry_title, "iteration")
    qs = {"onestep": categorical_means(os_stack, grid), "cdrl": categorical_means(cdrl_stack, grid)}
    _qfunc_csv(qs, out / "qfunc.csv")
    # the last iterate has no successor: its dist_to_next is empty
    rows = zip(count(), os_steps + [""], os_refs)
    write_csv(out / "distances_onestep.csv", ["iteration", "dist_to_next", "dist_to_reference"], rows)
    series = [("cdrl", qs["cdrl"]), ("one-step", qs["onestep"])]
    for x, a in ((0, 0), (0, 1)):
        line_chart(
            [(label, range(len(q)), [qn[x, a] for qn in q]) for label, q in series],
            out / f"qfunc_x{x}_a{a}.svg",
            title=f"Q at (x{x + 1}, a{a + 1})",
            x_label="iteration",
            y_label="Q",
        )

    oscillation_shown = bool(cdrl_report.oscillating or search["triggered"])
    tail = cdrl_report.max_step_tail  # nan when too few iterates follow the burn-in
    found = "oscillates" if cdrl_report.oscillating else "converged" if cdrl_report.converged else "aperiodic"
    found = found if math.isfinite(tail) else "too few iterates to scan"
    report = {
        "one_step": {
            "converged": bool(os_converged),
            "residual": float(os_residual),
            "iterations": config["one_step_iterations"],
        },
        "cdrl_default": {
            "oscillating": bool(cdrl_report.oscillating),
            "converged": bool(cdrl_report.converged),
            "period": cdrl_report.period,
            "max_step_tail": tail if math.isfinite(tail) else None,
        },
        "search": search,
        "conclusive": oscillation_shown,
    }
    _write_json(out / "report.json", report)
    print(f"one-step branch: converged={os_converged} residual={os_residual:.3e}")
    print(
        f"cdrl branch: default {found}"
        + (
            f"; search triggered at candidate {search.get('candidate_index')} "
            f"(r_a={search.get('r_a'):.6f}, period={search.get('period')})"
            if search["triggered"]
            else f"; search tried {search['candidates_tried']} candidates"
        )
    )
    if not os_converged:
        return EXIT_FAILURE
    return EXIT_OK if oscillation_shown else EXIT_INCONCLUSIVE


def cmd_histograms(config: dict) -> int:
    mdp = make_toy_mdp()
    pi = Policy.uniform(2, 2)
    out = _out_dir(config, "histograms")
    n_steps = config["steps"]
    start = DistributionCollection.constant(mdp.n_states, mdp.n_actions, dirac(0.0))
    try:
        full = iterate(
            lambda m: distr_bellman_eval(m, mdp, pi),
            start,
            n_steps,
            atom_cap=config["atom_cap"],
        )
    except AtomBudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    one_step = iterate(lambda m: os_distr_eval(m, mdp, pi), start, n_steps)

    trace_atoms_to_csv(full, out / "atoms_full.csv")
    trace_atoms_to_csv(one_step, out / "atoms_onestep.csv")

    entries = _entry_ids(mdp.n_states, mdp.n_actions)
    rows = (
        (name, n, entry, dist.atoms.size)
        for name, iterates in (("full", full), ("onestep", one_step))
        for n, mu in enumerate(iterates)
        for entry, (_, dist) in zip(entries, mu)
    )
    write_csv(out / "atom_counts.csv", ["operator", "iteration", "entry_id", "n_atoms"], rows)

    bins = config["bins"]
    snapshots = [j for j in (0, 2, 4) if j <= n_steps]
    hists = []  # (iteration, (x, a), entry id, [(operator, bin edges, masses)])
    for j in snapshots:
        for (x, a), entry in zip(np.ndindex(mdp.n_states, mdp.n_actions), entries):
            full_d = full[j][x, a]
            os_d = one_step[j][x, a]
            lo = min(full_d.atoms[0], os_d.atoms[0])
            hi = max(full_d.atoms[-1], os_d.atoms[-1])
            if hi == lo:
                hi = lo + 1.0
            edges = np.linspace(lo, hi, bins + 1)
            series = [
                (name, edges, np.histogram(dist.atoms, bins=edges, weights=dist.weights)[0])
                for name, dist in (("full", full_d), ("onestep", os_d))
            ]
            hists.append((j, (x, a), entry, series))
    rows = (
        (name, j, entry, left, right, mass)
        for j, _, entry, series in hists
        for name, edges, masses in series
        for left, right, mass in zip(edges[:-1].tolist(), edges[1:].tolist(), masses.tolist())
    )
    write_csv(out / "histograms.csv", ["operator", "iteration", "entry_id", "bin_left", "bin_right", "mass"], rows)
    for j, (x, a), _, series in hists:
        histogram_chart(
            series,
            out / f"hist_x{x}_a{a}_iter{j}.svg",
            title=f"return distribution at (x{x + 1}, a{a + 1}), iteration {j}",
            x_label="return",
        )
    counts = {
        name: [iterates[j].max_atoms_per_entry() for j in snapshots]
        for name, iterates in (("full", full), ("onestep", one_step))
    }
    _write_json(out / "report.json", {"snapshots": snapshots, "max_atoms_per_entry": counts})
    print(f"atom counts per entry (max) at iterations {snapshots}: {counts}")
    return EXIT_OK


def cmd_frozenlake(config: dict) -> int:
    env = make_frozen_lake(slippery=config["slippery"], goal_reward=config["goal_reward"])
    grid = np.asarray(config["grid"], dtype=float)
    out = _out_dir(config, "frozenlake")
    q_star = solve_q_star(env.mdp, tol=1e-10)
    try:
        reference, reference_error = _checked_fixed_point(env.mdp, grid, q_star.max(axis=1), 1e-10), None
    except RangeConditionError as exc:
        # the grid does not cover the targets: the W1 column stays nan
        reference, reference_error = None, str(exc)
        print(f"warning: W1 reference unavailable: {exc}", file=sys.stderr)
    schedule = StepSizeSchedule.constant(config["alpha"])
    exploration = ExplorationSchedule(
        eps_start=config["eps_start"], eps_end=config["eps_end"], rate=config["eps_rate"]
    )
    track = [tuple(pair) for pair in config["track"]]
    seeds = list(range(config["seed"], config["seed"] + config["seeds"]))
    records = []
    learner_start = time.perf_counter()
    for seed in seeds:
        records.append(
            run_learning(
                env,
                schedule,
                exploration,
                grid,
                "control",
                config["steps"],
                seed=seed,
                reference=reference,
                reference_q=q_star,
                record_every=config["record_every"],
                track=track,
                record_q=True,
            )
        )
    learner_seconds = time.perf_counter() - learner_start

    write_learning_csv(records, out / "learning.csv")

    steps = records[0].steps
    for x, a in track:
        labelled = (
            ((step, rec.seed), row)
            for rec in records
            for step, row in zip(steps.tolist(), rec.tracked[(x, a)].tolist())
        )
        _probs_csv(out / f"probs_x{x}_a{a}.csv", ["step", "seed"], labelled, grid)
        averaged = np.mean([rec.tracked[(x, a)] for rec in records], axis=0)  # (records, K)
        title = f"seed-averaged probabilities at (x{x + 1}, a{a + 1})"
        _probs_chart(steps.tolist(), averaged, grid, out / f"probs_x{x}_a{a}.svg", title, "step")

    # Q-error of the seed-averaged Q-function (one curve per run set)
    q_mean = np.mean([rec.q_means for rec in records], axis=0)  # (records, S, A)
    err_sq = np.sum((q_mean - q_star[None]) ** 2, axis=(1, 2))
    mean_err_sq = np.mean([rec.q_error_sq for rec in records], axis=0)
    rows = zip(steps.tolist(), err_sq.tolist(), mean_err_sq.tolist())
    write_csv(out / "q_error.csv", ["step", "q_error_sq_of_mean", "mean_q_error_sq"], rows)
    line_chart(
        [("||Q_avg - Q*||^2", steps.tolist(), err_sq.tolist())],
        out / "q_error.svg",
        title="squared error of the seed-averaged Q",
        x_label="step",
        y_label="error",
    )

    # steps[0] is 0, and steps[1] the first record after a step
    report = {
        "seeds": len(seeds),
        "steps": config["steps"],
        "q_error_sq_of_mean_first": float(err_sq[1]),
        "q_error_sq_of_mean_last": float(err_sq[-1]),
        "reference_available": reference is not None,
        "reference_error": reference_error,
        # wall time of the learner runs, and their seed-steps per second
        "learner_seconds": learner_seconds,
        "learner_steps_per_s": len(seeds) * config["steps"] / learner_seconds,
        "normalized": bool(
            max(
                float(np.max(np.abs(rec.tracked[pair].sum(axis=1) - 1.0)))
                for rec in records
                for pair in track
            )
            <= 1e-9
        ),
    }
    _write_json(out / "report.json", report)
    print(
        f"frozenlake: {len(seeds)} seeds x {config['steps']} steps; "
        f"||Q_avg - Q*||^2 {err_sq[1]:.3f} -> {err_sq[-1]:.3f}"
    )
    return EXIT_OK


def cmd_verify(config: dict) -> int:
    from .verify import run_properties  # here, so the other commands never compile the suites

    out = _out_dir(config, "verify")
    results, bench, suites = run_properties(seed=config["seed"], fast=config["fast"])
    passed = all(r.passed for r in results)
    report = {
        "seed": config["seed"],
        "fast": config["fast"],
        "passed": passed,
        "properties": [r.to_json() for r in results],
        "microbenchmark": bench.to_json(),
        "suites": suites,
    }
    _write_json(out / "report.json", report)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  cases={r.cases}  max_violation={r.max_violation:.3e}")
    print(("all properties passed" if passed else "PROPERTY FAILURES (see report.json)"))
    return EXIT_OK if passed else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osdrl",
        description="Tabular distributional dynamic programming and learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("instability", "projected control: full-operator instability vs one-step convergence"),
        ("histograms", "atom growth of the full operator vs the one-step operator"),
        ("frozenlake", "tabular learning curves on Frozen Lake"),
        ("verify", "run all property suites and the target microbenchmark"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="JSON config file")
        if "seed" in DEFAULTS[name]:
            cmd.add_argument("--seed", type=int, default=None, help="base random seed")
        if "steps" in DEFAULTS[name]:
            cmd.add_argument("--steps", type=int, default=None, help="iterations / learning steps")
        cmd.add_argument("--out", type=str, default=None, help="output directory")
    return parser


COMMANDS = {
    "instability": cmd_instability,
    "histograms": cmd_histograms,
    "frozenlake": cmd_frozenlake,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    try:
        return COMMANDS[args.command](load_config(args.command, args.config, overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
