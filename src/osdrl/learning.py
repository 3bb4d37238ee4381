"""Stochastic-approximation learners over categorical return distributions.

Two per-transition updates share one harness: the one-step update mixes in
the projection of a single Dirac at the bootstrapped scalar target, while the
baseline categorical update projects the K shifted atoms of the next-state
distribution. Both preserve normalization exactly up to rounding. Both read
next-state means from a table kept beside the probabilities and write the
row they update cell by cell in Python floats, so a step of the harness
calls numpy only for the new row's mean (and the baseline's target); the
choices that do not depend on the state (whether to explore, the
exploratory action) are numpy calls once per block of steps. The baseline
memoizes its targets per successor state: rows change only through
the updates, which clear the memo of the state they write.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import mul
from typing import Optional

import numpy as np

from .distributions import (
    CategoricalDistribution,
    DistributionCollection,
    _check_grid,
    categorical_means,
    categorical_w1,
)
from .mdp import EpisodicEnv, Policy, _cumulative, write_csv

# Default epsilon decay: reaches 0.26 at step 5e4 when decaying 1 -> 0.25.
DEFAULT_EPS_RATE = math.log(75.0) / 5e4

MODES = ("eval", "control")
ALGOS = ("os", "cdrl")


def _as_float(value) -> float:
    """float(value), an int beyond float range becoming inf of its sign, so
    that the schedules' finiteness checks reject it by name."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class StepSizeSchedule:
    """Step sizes c / (1 + visits)^omega, indexed by per-(x,a) visit counts.

    constant(alpha) is c = alpha in (0, 1] with omega = 0, since
    (1 + visits)^0 is exactly 1; polynomial(c, omega) takes c > 0 and omega
    in (0.5, 1], which satisfies the divergent-sum / convergent-squared-sum
    conditions whenever every pair is visited infinitely often.
    """

    c: float
    omega: float

    @classmethod
    def constant(cls, alpha: float) -> "StepSizeSchedule":
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"constant step size must lie in (0, 1], got {alpha}")
        return cls(c=float(alpha), omega=0.0)

    @classmethod
    def polynomial(cls, c: float = 1.0, omega: float = 0.7) -> "StepSizeSchedule":
        c, omega = _as_float(c), _as_float(omega)
        if not 0.0 < c < math.inf:
            raise ValueError(f"c must be positive and finite, got {c}")
        if not 0.5 < omega <= 1.0:
            raise ValueError(f"omega must lie in (0.5, 1], got {omega}")
        return cls(c=c, omega=omega)

    def step_size(self, visits: int) -> float:
        return self.c / (1.0 + visits) ** self.omega


@dataclass(frozen=True)
class ExplorationSchedule:
    """Exponentially decaying epsilon: eps_end + (eps_start - eps_end) * exp(-rate*t)."""

    eps_start: float = 1.0
    eps_end: float = 0.25
    rate: float = DEFAULT_EPS_RATE

    def __post_init__(self):
        for name in ("eps_start", "eps_end", "rate"):
            object.__setattr__(self, name, _as_float(getattr(self, name)))
        if not (0.0 <= self.eps_start <= 1.0 and 0.0 <= self.eps_end <= 1.0):
            raise ValueError("eps_start and eps_end must lie in [0, 1]")
        if not 0.0 <= self.rate < math.inf:
            raise ValueError(f"decay rate must be nonnegative and finite, got {self.rate}")

    def epsilon(self, t: int) -> float:
        return self.eps_end + (self.eps_start - self.eps_end) * math.exp(-self.rate * t)


@dataclass
class LearnerState:
    """A learner's categorical distributions over its grid and its visit
    counters, as a run leaves them.

    probs has shape (n_states, n_actions, K); every row is a probability
    vector (sums stay within 1e-9 of 1 along any trajectory). visits has
    shape (n_states, n_actions).
    """

    probs: np.ndarray
    visits: np.ndarray


def _add_dirac(row, points, u: float, alpha: float) -> None:
    """Add alpha times the categorical projection of a point mass at u to
    row, in place: at most two cells, located by binary search. points is
    the grid as a sequence of Python floats, which bisect and subtract
    faster than numpy scalars. The one implementation of the projected
    Dirac's weights."""
    i = bisect_left(points, u)
    if i == 0:  # clamped: the weight is 1.0, and alpha * 1.0 == alpha
        row[0] += alpha
    elif i == len(points):
        row[i - 1] += alpha
    else:
        lo, hi = points[i - 1], points[i]
        gap = hi - lo
        row[i - 1] += alpha * ((hi - u) / gap)
        row[i] += alpha * ((u - lo) / gap)


class _Tables:
    """What one learner update reads and writes, held in the forms a per-step
    Python loop reads fastest.

    rows[x][a] is a view of probs[x, a], and cells[x][a] a memoryview of it
    (both share probs' memory) whose elements read and write as Python
    floats. Updates write a row cell by cell, about 0.1 us a cell against
    numpy's flat 0.5-1 us per in-place op: faster at small K, slower at
    large K. q[x][a] is the row's mean as a Python float. The table starts
    as one categorical_means call over every row; an update recomputes the
    mean of the one row it changes as float(dot(row)), dot the bound
    grid.dot. That is the 1-D dot categorical_means' vecdot calls per row,
    so the bits agree, and on one row it dispatches in about 0.5 us against
    vecdot's 0.9 us. policy is None for the greedy bootstrap
    (control) or the Policy that mixes the next state's actions (eval).

    targets[x] maps the reward to the baseline's target from successor x, as
    Python floats, and its range flag. Both depend only on x's rows: an
    update that writes one clears targets[x], and any other writer of
    probs[x] must too.
    """

    def __init__(self, probs, grid, gamma, policy=None):
        self.probs = probs
        self.grid = grid
        self.points = grid.tolist()
        self.dot = grid.dot
        self.gamma = gamma
        self.rows = [list(rows) for rows in probs]
        self.cells = [list(map(memoryview, rows)) for rows in self.rows]
        self.indices = range(grid.size)
        self.q = categorical_means(probs, grid).tolist()
        self.policy = policy
        self.policy_rows = None if policy is None else policy.probs.tolist()
        self._target_maps = {}
        self.targets = [{} for _ in self.rows]

    def target_map(self, r: float):
        """(M, off) for reward r. The projection is linear, so the baseline
        target of next-state probabilities p is p @ M, where row k of M is
        the projected Dirac at r + gamma * z_k. off is 1.0 at the atoms off
        the grid and 0.0 elsewhere, None when there are none: p is
        nonnegative, so the target leaves the grid exactly when
        off.dot(p) > 0. Built on first use of r."""
        found = self._target_maps.get(r)
        if found is None:
            atoms = r + self.gamma * self.grid
            matrix = np.zeros((atoms.size, self.grid.size))
            for row, u in zip(matrix, atoms.tolist()):
                _add_dirac(row, self.points, u, 1.0)
            off = (atoms < self.grid[0]) | (atoms > self.grid[-1])
            found = self._target_maps[r] = (matrix, off.astype(float) if off.any() else None)
        return found


# The two in-place updates below move row (x, a) a step alpha toward a
# projected target built from transition (x, a, r, x_next) and keep its mean
# in the table. Each returns True when the target puts mass outside
# [z_1, z_K].


def _os_update(t: _Tables, x, a, r, x_next, alpha) -> bool:
    """One-step update: the target projects a single Dirac at
    r + gamma * V(x_next), V the maximal or policy-mixed mean."""
    q_next = t.q[x_next]
    v = max(q_next) if t.policy is None else sum(map(mul, t.policy_rows[x_next], q_next))
    u = r + t.gamma * v
    points = t.points
    row, cells, keep = t.rows[x][a], t.cells[x][a], 1.0 - alpha
    for i in t.indices:
        cells[i] *= keep
    _add_dirac(cells, points, u, alpha)
    t.q[x][a] = float(t.dot(row))
    return not points[0] <= u <= points[-1]


def _cdrl_update(t: _Tables, x, a, r, x_next, alpha) -> bool:
    """Baseline update: the target projects the K shifted atoms
    r + gamma * z_k of the next state's distribution at the greedy action
    (the lowest of tied actions) or mixed under the policy. The target is
    built on the first use of r since x_next's rows last changed."""
    memo = t.targets[x_next]
    found = memo.get(r)
    if found is None:
        if t.policy is not None:
            next_probs = t.policy.probs[x_next] @ t.probs[x_next]
        else:
            q_next = t.q[x_next]
            next_probs = t.rows[x_next][q_next.index(max(q_next))]
        matrix, off = t.target_map(r)
        # next_probs may be row (x, a) itself: read it before the row changes
        violated = off is not None and float(off.dot(next_probs)) > 0.0
        found = memo[r] = ((next_probs @ matrix).tolist(), violated)
    target, violated = found
    row, cells, keep = t.rows[x][a], t.cells[x][a], 1.0 - alpha
    # the roundings of row *= keep; row += alpha * target, in their order
    for i, v in enumerate(target):
        cells[i] = cells[i] * keep + alpha * v
    t.q[x][a] = float(t.dot(row))
    t.targets[x].clear()
    return violated


@dataclass
class LearningRecord:
    """Strided diagnostics of one learning run, deterministic given the seed."""

    seed: int
    steps: np.ndarray
    epsilon: np.ndarray
    mean_alpha: np.ndarray
    range_violations: np.ndarray
    w1_to_reference: Optional[np.ndarray] = None
    q_error_sup: Optional[np.ndarray] = None
    q_error_sq: Optional[np.ndarray] = None
    q_means: Optional[np.ndarray] = None
    tracked: dict = field(default_factory=dict)
    final_state: Optional[LearnerState] = None


def write_learning_csv(records, path) -> None:
    """One row per recorded step of each record. Columns: step, seed,
    w1_to_reference, q_error_sup, range_violations, epsilon, mean_alpha.
    Missing metrics print as nan."""

    def col(arr):
        return arr.tolist() if arr is not None else repeat(math.nan)

    rows = (
        row
        for rec in records
        for row in zip(
            rec.steps.tolist(),
            repeat(rec.seed),
            col(rec.w1_to_reference),
            col(rec.q_error_sup),
            rec.range_violations.tolist(),
            rec.epsilon.tolist(),
            rec.mean_alpha.tolist(),
        )
    )
    header = ["step", "seed", "w1_to_reference", "q_error_sup", "range_violations", "epsilon", "mean_alpha"]
    write_csv(path, header, rows)


def _reference_probs(reference, grid: np.ndarray) -> np.ndarray:
    probs = np.zeros((reference.n_states, reference.n_actions, grid.size))
    for (x, a), dist in reference:
        if not isinstance(dist, CategoricalDistribution) or not np.array_equal(dist.grid, grid):
            raise ValueError("reference must be a categorical collection on the learner grid")
        probs[x, a] = dist.probs
    return probs


# Rows of 3 uniforms drawn per rng call in run_learning, one row per step.
# A block's exploration is decided in numpy at once, for about 50 us: under
# 0.05 us a step, with the block's arrays a few tens of kB.
_BLOCK = 1024


def _block_actions(exploration: ExplorationSchedule, start: int, u0, u1, n_actions: int) -> list:
    """Control-mode actions of steps start, start + 1, ... from their uniform
    arrays u0 and u1: min(int(u1 * n_actions), n_actions - 1) where step t
    explores, u0 < exploration.epsilon(t), and -1 where it acts greedily.
    np.exp can round exp(-rate * t) an ulp away from math.exp, so every u0
    within 1e-12 of its np.exp epsilon is decided again by epsilon(t): the
    decisions are the scalar ones, bit for bit."""
    t = np.arange(start, start + u0.size)
    with np.errstate(over="ignore", invalid="ignore"):  # as epsilon(t)'s floats: no warning for inf or nan
        eps = exploration.eps_end + (exploration.eps_start - exploration.eps_end) * np.exp(-exploration.rate * t)
    explores = u0 < eps
    for i in np.flatnonzero(np.abs(u0 - eps) <= 1e-12).tolist():
        explores[i] = u0[i] < exploration.epsilon(start + i)
    return np.where(explores, np.minimum((u1 * n_actions).astype(np.int64), n_actions - 1), -1).tolist()


def run_learning(
    env: EpisodicEnv,
    schedule: StepSizeSchedule,
    exploration: Optional[ExplorationSchedule],
    grid,
    mode: str,
    n_steps: int,
    seed: int,
    policy: Optional[Policy] = None,
    reference: Optional[DistributionCollection] = None,
    reference_q: Optional[np.ndarray] = None,
    algo: str = "os",
    record_every: int = 1000,
    track=(),
    record_q: bool = False,
) -> LearningRecord:
    """Run a learner against the environment and record strided diagnostics.

    Behavior is epsilon-greedy over the mean Q-values in control mode
    (lowest-index argmax) and the supplied policy in eval mode. Episodes
    restart at the initial state upon reaching a terminal state. Bit-identical
    output for a fixed (env, arguments, seed).

    Step t reads the t-th row (u0, u1, u2) of uniforms from
    default_rng(seed), drawn in blocks of rows: u0 decides whether to
    explore (control) or draws the policy's action (eval), u1 the
    exploratory action, u2 the successor. So a run's first n steps do not
    depend on n_steps. In control mode _block_actions decides a block's
    explorations and exploratory actions at once, each one the scalar
    u0 < exploration.epsilon(t) (np.exp's epsilons, with near ties decided
    again by epsilon(t)). The step loop then does only the work that
    depends on the state: the greedy argmax or the policy's bisect, the
    successor, the update and the restart.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "eval" and policy is None:
        raise ValueError("eval mode requires a policy")
    if mode == "control" and exploration is None:
        raise ValueError("control mode requires an exploration schedule")
    if mode == "eval" and exploration is not None:
        raise ValueError("eval mode acts by the policy: exploration must be None")
    if algo not in ALGOS:
        raise ValueError(f"algo must be one of {ALGOS}, got {algo!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")

    mdp = env.mdp
    n_states, n_actions = mdp.n_states, mdp.n_actions
    if policy is not None and policy.probs.shape != (n_states, n_actions):
        raise ValueError(f"policy shape {policy.probs.shape} does not match the MDP's {(n_states, n_actions)}")
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid)
    # all mass at z_1, where projected dynamic programming starts too
    probs = np.zeros((n_states, n_actions, grid.size))
    probs[:, :, 0] = 1.0
    eval_mode = mode == "eval"
    tables = _Tables(probs, grid, mdp.discount, policy if eval_mode else None)
    q = tables.q
    update = _os_update if algo == "os" else _cdrl_update
    c, omega = schedule.c, schedule.omega
    # successors[x][a] pairs (x, a)'s cumulative kernel row with its reward
    # row; restart[x] is the state after reaching x
    successors = [list(zip(cum, rew)) for cum, rew in zip(_cumulative(mdp.kernel), mdp.reward.tolist())]
    restart = [env.initial_state if s in env.terminal_states else s for s in range(n_states)]
    policy_cum = _cumulative(policy.probs) if eval_mode else None
    ref_probs = _reference_probs(reference, grid) if reference is not None else None
    ref_q = np.asarray(reference_q, dtype=float) if reference_q is not None else None
    track = [tuple(pair) for pair in track]

    rng = np.random.default_rng(seed)
    rec_steps, rec_eps, rec_alpha, rec_viol = [], [], [], []
    rec_w1, rec_qsup, rec_qsq, rec_q = [], [], [], []
    tracked = {pair: [] for pair in track}
    visits = [[0] * n_actions for _ in range(n_states)]

    def epsilon(t):
        return exploration.epsilon(t) if exploration is not None else math.nan

    def record(step, eps, violations):
        rec_steps.append(step)
        rec_eps.append(eps)
        rec_alpha.append(float(np.mean([schedule.step_size(n) for row in visits for n in row])))
        rec_viol.append(violations)
        means = np.array(q)
        if ref_probs is not None:
            rec_w1.append(float(np.max(categorical_w1(probs, ref_probs, grid))))
        if ref_q is not None:
            err = means - ref_q
            rec_qsup.append(float(np.max(np.abs(err))))
            rec_qsq.append(float(np.sum(err * err)))
        if record_q:
            rec_q.append(means)
        for pair in track:
            tracked[pair].append(probs[pair].copy())

    record(0, epsilon(0), 0)
    x, violations, record_at = env.initial_state, 0, min(record_every, n_steps)
    for start in range(0, n_steps, _BLOCK):
        u = rng.random((min(_BLOCK, n_steps - start), 3))
        # -1 marks a step that acts by its state
        actions = [-1] * len(u) if eval_mode else _block_actions(exploration, start, u[:, 0], u[:, 1], n_actions)
        # done counts the steps taken, this one included
        for done, u0, a, u2 in zip(count(start + 1), u[:, 0].tolist(), actions, u[:, 2].tolist()):
            if a < 0:
                if eval_mode:
                    a = bisect_right(policy_cum[x], u0)
                else:
                    qx = q[x]
                    a = qx.index(max(qx))
            cum, reward = successors[x][a]
            x_next = bisect_right(cum, u2)
            visits_x = visits[x]
            n = visits_x[a]
            violations += update(tables, x, a, reward[x_next], x_next, c / (1.0 + n) ** omega)
            visits_x[a] = n + 1
            x = restart[x_next]
            if done == record_at:
                record(done, epsilon(done - 1), violations)
                record_at = min(done + record_every, n_steps)

    return LearningRecord(
        seed=seed,
        steps=np.asarray(rec_steps),
        epsilon=np.asarray(rec_eps),
        mean_alpha=np.asarray(rec_alpha),
        range_violations=np.asarray(rec_viol),
        w1_to_reference=np.asarray(rec_w1) if ref_probs is not None else None,
        q_error_sup=np.asarray(rec_qsup) if ref_q is not None else None,
        q_error_sq=np.asarray(rec_qsq) if ref_q is not None else None,
        q_means=np.asarray(rec_q) if record_q else None,
        tracked={pair: np.asarray(rows) for pair, rows in tracked.items()},
        final_state=LearnerState(probs, np.array(visits, dtype=np.int64)),
    )
