"""The benchmark's workloads: inputs made from a seed, one timed round of
work through osdrl's public entry points, and checks on the round's outputs.

Every check compares against an independent computation (hand-derived fixed
points, the benchmark's own value iteration and sup-W1) or a property the
method must have; none compares against stored output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import osdrl
from osdrl import cli

TOY_GRID = (0.0, 1.9, 2.1, 10.0)
# Projected one-step fixed point of the toy MDP on TOY_GRID, by hand: from
# x1, a1 pays 2 and ends (target 2); a2 ends with reward 0 w.p. 1/2 (target
# 0) or pays 3 and returns to x1 w.p. 1/2 (target 3 + 2/2 = 4); x2 stays at 0.
# The same targets hold under the uniform policy, whose V(x1) is also 2.
TOY_FIXED_POINT = {
    "x0_a0": (0.0, 0.5, 0.5, 0.0),
    "x0_a1": (0.5, 0.0, 0.5 * 6.0 / 7.9, 0.5 * 1.9 / 7.9),
    "x1_a0": (1.0, 0.0, 0.0, 0.0),
    "x1_a1": (1.0, 0.0, 0.0, 0.0),
}
TOY_Q = np.array([[2.0, 2.0], [0.0, 0.0]])

# instability and verify are fixed experiments: their cost is set by their
# CLI seed, so they do not take the benchmark seed. The instability search
# runs until a candidate triggers: seed 0 triggers at candidate 375 (64 s),
# seed 9 at candidate 28, the same kind of work at a size that leaves several
# rounds per run. The verify suites draw each random MDP's discount from
# {0.5, 0.9}, which moves a round by +-10% from seed to seed; they run at
# the command's default seed, 0.
INSTABILITY_CLI_SEED = 9
VERIFY_CLI_SEED = 0
FROZENLAKE_SEEDS = 2
LEARNER_SEEDS = 3
LEARNER_STEPS = 10_000
PROB_TOL = 1e-9


class Round:
    """Operation counts and learner transitions of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.learner_steps = 0

    def op(self, ok: bool, steps: int = 0) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.learner_steps += steps if ok else 0


def _write_config(out: Path, command: str, config: dict) -> str:
    path = out / f"{command}.json"
    path.write_text(json.dumps(config))
    return str(path)


def _cli(argv):
    """Run one osdrl command in process, its progress lines kept off this
    program's output; returns its exit code, or None when it raised (the
    traceback goes to stderr)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return None


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _prob_rows(path: Path, key_cols) -> dict:
    """Group a long-format probability CSV into {key: probs ordered by k}."""
    rows = defaultdict(list)
    for row in _read_csv(path):
        rows[tuple(row[c] for c in key_cols)].append((int(row["k"]), float(row["prob"])))
    return {key: np.array([p for _, p in sorted(cells)]) for key, cells in rows.items()}


def _bad_rows(rows, label: str) -> list:
    """Problems with probability rows: negative mass or a sum away from 1."""
    rows = list(rows)
    if not rows:
        return [f"{label}: no probability rows"]
    problems = []
    for probs in rows:
        if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > PROB_TOL:
            problems.append(f"{label}: row {probs.tolist()} is not a probability vector")
            break
    return problems


def _sup_w1_recurrence(stack: np.ndarray, grid: np.ndarray, lag: int) -> float:
    """Largest sup-W1 between iterates `lag` apart over the second half of a
    (iterations, entries, K) stack of probabilities on one grid."""
    cums = np.cumsum(stack, axis=2)[:, :, :-1]
    tail = cums[stack.shape[0] // 2 :]
    return float(np.max(np.abs(tail[lag:] - tail[:-lag]) @ np.diff(grid)))


def value_iteration(mdp, tol: float = 1e-13) -> np.ndarray:
    """Q* of a TabularMdp's tables, written apart from osdrl.dp."""
    q = np.zeros(mdp.kernel.shape[:2])
    while True:
        target = mdp.reward + mdp.discount * q.max(axis=1)[None, None, :]
        q_next = np.einsum("xay,xay->xa", mdp.kernel, target)
        if np.max(np.abs(q_next - q)) < tol:
            return q_next
        q = q_next


class Workload:
    """One workload: __init__ builds the inputs (set-up), run() is the timed
    work, checks() names the output checks that check() runs."""

    name = ""
    dir = None  # where the CLI command writes, cleared before each round

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def run(self) -> Round:
        raise NotImplementedError

    def checks(self) -> dict:
        raise NotImplementedError

    def _exit_code(self):
        return [] if self.code == cli.EXIT_OK else [f"exit code {self.code}"]

    def check(self) -> tuple:
        """Run every check; returns (names of checks run, problems found)."""
        ran, problems = [], []
        for name, fn in self.checks().items():
            try:
                problems += [f"{self.name}.{name}: {p}" for p in fn()]
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems.append(f"{self.name}.{name}: could not read outputs ({exc!r})")
            ran.append(name)
        return ran, problems


class Instability(Workload):
    name = "instability"

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.config = _write_config(out, self.name, {"seed": INSTABILITY_CLI_SEED, "out": str(out)})
        self.dir = out / "instability"
        self.code = None

    def run(self):
        r = Round()
        self.code = _cli(["instability", "--config", self.config])
        r.op(self.code == cli.EXIT_OK)
        return r

    def checks(self):
        return {
            "exit_code": self._exit_code,
            "one_step_fixed_point": self._one_step_fixed_point,
            "candidate_tie_family": self._candidate,
            "perturbed_period_two": self._period_two,
            "probability_rows": self._rows,
        }

    def _one_step_fixed_point(self):
        rows = _prob_rows(self.dir / "probs_onestep.csv", ("iteration", "entry_id"))
        last = str(max(int(it) for it, _ in rows))
        return [
            f"last one-step iterate at {entry} is {rows[(last, entry)].tolist()}, expected {list(want)}"
            for entry, want in TOY_FIXED_POINT.items()
            if np.max(np.abs(rows[(last, entry)] - np.array(want))) > 1e-8
        ]

    def _candidate(self):
        search = json.loads((self.dir / "report.json").read_text())["search"]
        if not search.get("triggered"):
            return ["search did not trigger"]
        if abs(search["r_a"] + search["r_b"] - 3.0) > 1e-12:
            return [f"r_a + r_b = {search['r_a'] + search['r_b']!r}, expected 3"]
        return []

    def _period_two(self):
        rows = _prob_rows(self.dir / "probs_cdrl_perturbed.csv", ("iteration", "entry_id"))
        iterations = sorted({int(it) for it, _ in rows})
        entries = sorted({e for _, e in rows})
        stack = np.array([[rows[(str(n), e)] for e in entries] for n in iterations])
        lag1 = _sup_w1_recurrence(stack, np.array(TOY_GRID), 1)
        lag2 = _sup_w1_recurrence(stack, np.array(TOY_GRID), 2)
        if lag2 < 1e-6 <= lag1:
            return []
        return [f"tail recurrences lag-1 {lag1:.3e}, lag-2 {lag2:.3e}: not period 2"]

    def _rows(self):
        problems = []
        for name in ("probs_onestep.csv", "probs_cdrl.csv", "probs_cdrl_perturbed.csv"):
            problems += _bad_rows(_prob_rows(self.dir / name, ("iteration", "entry_id")).values(), name)
        return problems


class FrozenLake(Workload):
    name = "frozenlake"

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.config = _write_config(
            out, self.name, {"seed": seed, "seeds": FROZENLAKE_SEEDS, "out": str(out)}
        )
        defaults = cli.DEFAULTS["frozenlake"]
        self.env = osdrl.make_frozen_lake(defaults["slippery"], defaults["goal_reward"])
        self.steps = defaults["steps"]
        self.dir = out / "frozenlake"
        self.code = None

    def run(self):
        r = Round()
        self.code = _cli(["frozenlake", "--config", self.config])
        r.op(self.code == cli.EXIT_OK, FROZENLAKE_SEEDS * self.steps)
        return r

    def checks(self):
        return {
            "exit_code": self._exit_code,
            "step_zero_equals_max_q": self._step_zero,
            "w1_bounds_q_error": self._w1_bound,
            "q_error_decreases": self._q_error,
            "probability_rows": self._rows,
        }

    def _learning_rows(self):
        rows = _read_csv(self.dir / "learning.csv")
        seeds = {int(row["seed"]) for row in rows}
        want = set(range(self.seed, self.seed + FROZENLAKE_SEEDS))
        if seeds != want:
            raise ValueError(f"learning.csv holds seeds {sorted(seeds)}, expected {sorted(want)}")
        return rows

    def _step_zero(self):
        q_max = float(value_iteration(self.env.mdp).max())
        problems = []
        for row in self._learning_rows():
            if int(row["step"]) != 0:
                continue
            for col in ("w1_to_reference", "q_error_sup"):
                if not abs(float(row[col]) - q_max) <= 1e-8:
                    problems.append(f"seed {row['seed']}: {col} at step 0 is {row[col]}, max Q* is {q_max!r}")
        return problems

    def _w1_bound(self):
        return [
            f"seed {row['seed']} step {row['step']}: W1 {row['w1_to_reference']} < q_error_sup {row['q_error_sup']}"
            for row in self._learning_rows()
            if not float(row["w1_to_reference"]) >= float(row["q_error_sup"]) - 1e-9
        ]

    def _q_error(self):
        rows = _read_csv(self.dir / "q_error.csv")
        # mean over seeds of each seed's squared Q error
        at_1000 = next(float(r["mean_q_error_sq"]) for r in rows if int(r["step"]) == 1000)
        last = float(rows[-1]["mean_q_error_sq"])
        if int(rows[-1]["step"]) != self.steps or not last < at_1000:
            return [f"mean squared Q error {at_1000!r} at step 1000 -> {last!r} at step {rows[-1]['step']}"]
        return []

    def _rows(self):
        problems = []
        for pair in cli.DEFAULTS["frozenlake"]["track"]:
            name = "probs_x{}_a{}.csv".format(*pair)
            problems += _bad_rows(_prob_rows(self.dir / name, ("step", "seed")).values(), name)
        return problems


class Learners(Workload):
    name = "learners"

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.env = osdrl.EpisodicEnv(osdrl.make_toy_mdp(), frozenset({1}), 0)
        self.schedule = osdrl.StepSizeSchedule.polynomial(c=1.0, omega=0.7)
        self.exploration = osdrl.ExplorationSchedule(eps_start=1.0, eps_end=0.25)
        self.policy = osdrl.Policy.uniform(2, 2)
        self.seeds = range(seed, seed + LEARNER_SEEDS)
        self.references = {}
        self.records = {}

    def run(self):
        r = Round()
        mdp = self.env.mdp
        self.records = {}
        try:
            self.references = {
                "control": osdrl.projected_fixed_points(mdp, TOY_GRID, tol=1e-12),
                "eval": osdrl.projected_fixed_points(mdp, TOY_GRID, tol=1e-12, policy=self.policy),
            }
        except Exception:
            # without references no learner can run: every run_learning call fails
            traceback.print_exc()
            self.references = {}
        for mode in ("control", "eval"):
            for algo in ("os", "cdrl"):
                for seed in self.seeds:
                    try:
                        rec = osdrl.run_learning(
                            self.env,
                            self.schedule,
                            self.exploration if mode == "control" else None,
                            TOY_GRID,
                            mode,
                            LEARNER_STEPS,
                            seed=seed,
                            policy=self.policy if mode == "eval" else None,
                            reference=self.references[mode],
                            algo=algo,
                            record_every=LEARNER_STEPS // 10,
                            record_q=True,
                        )
                    except Exception:
                        traceback.print_exc()
                        rec = None
                    self.records[(mode, algo, seed)] = rec
                    r.op(rec is not None, LEARNER_STEPS)
        return r

    def checks(self):
        return {
            "reference_fixed_point": self._reference,
            "step_zero_equals_max_q": self._step_zero,
            "w1_bounds_q_error": self._w1_bound,
            "os_w1_converges": self._converges,
            "os_cdrl_means_agree": self._means_agree,
            "probability_rows": self._rows,
        }

    def _done(self):
        return {key: rec for key, rec in self.records.items() if rec is not None}

    def _reference(self):
        problems = [] if self.references else ["the reference solves raised"]
        for mode, ref in self.references.items():
            for (x, a), dist in ref:
                want = np.array(TOY_FIXED_POINT[f"x{x}_a{a}"])
                if np.max(np.abs(dist.probs - want)) > 1e-8:
                    problems.append(f"{mode} reference at x{x}_a{a} is {dist.probs.tolist()}")
        return problems

    def _step_zero(self):
        return [
            f"{key}: W1 at step 0 is {rec.w1_to_reference[0]!r}, max Q* is 2"
            for key, rec in self._done().items()
            if rec.steps[0] != 0 or abs(rec.w1_to_reference[0] - TOY_Q.max()) > 1e-9
        ]

    def _w1_bound(self):
        # W1 to the reference bounds the gap between means from below
        problems = []
        for key, rec in self._done().items():
            q_gap = np.max(np.abs(rec.q_means - TOY_Q[None]), axis=(1, 2))
            if np.any(rec.w1_to_reference < q_gap - 1e-9):
                problems.append(f"{key}: W1 below |Q - Q*| at some record")
        return problems

    def _converges(self):
        # Per seed and mode, W1 at the horizon below a quarter of its start
        # (2.0); seeds 0..59 end at 1e4 steps with W1 at most 0.24.
        return [
            f"{key}: W1 {rec.w1_to_reference[0]!r} -> {rec.w1_to_reference[-1]!r} at step {rec.steps[-1]}"
            for key, rec in self._done().items()
            if key[1] == "os"
            and not (rec.steps[-1] == LEARNER_STEPS and rec.w1_to_reference[-1] < rec.w1_to_reference[0] / 4)
        ]

    def _means_agree(self):
        done = self._done()
        problems = []
        for mode in ("control", "eval"):
            for seed in self.seeds:
                os_rec, cdrl_rec = done.get((mode, "os", seed)), done.get((mode, "cdrl", seed))
                if os_rec is None or cdrl_rec is None:
                    continue
                gap = float(np.max(np.abs(os_rec.q_means - cdrl_rec.q_means)))
                if gap > 1e-9:
                    problems.append(f"{mode} seed {seed}: os and cdrl Q-means differ by {gap:.3e}")
        return problems

    def _rows(self):
        rows = [rec.final_state.probs[x, a] for rec in self._done().values() for x in range(2) for a in range(2)]
        return _bad_rows(rows, "final learner probabilities")


class Verify(Workload):
    name = "verify"

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.config = _write_config(out, self.name, {"seed": VERIFY_CLI_SEED, "fast": True, "out": str(out)})
        self.dir = out / "verify"
        self.code = None
        self.properties = []

    def run(self):
        r = Round()
        self.code = _cli(["verify", "--config", self.config])
        try:
            self.properties = json.loads((self.dir / "report.json").read_text())["properties"]
        except (OSError, ValueError, KeyError):
            self.properties = []
        if not self.properties:
            r.op(False)
        for prop in self.properties:
            r.op(bool(prop["passed"]))
        return r

    def checks(self):
        return {
            "exit_code": self._exit_code,
            "every_property_passes": self._properties,
        }

    def _properties(self):
        if not self.properties:
            return ["no properties reported"]
        return [
            f"{p['name']}: max violation {p['max_violation']!r} over {p['cases']} cases"
            for p in self.properties
            if not (p["passed"] and p["cases"] >= 1)
        ]


WORKLOADS = {w.name: w for w in (Instability, FrozenLake, Learners, Verify)}
