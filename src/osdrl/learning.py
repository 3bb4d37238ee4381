"""Stochastic-approximation learners over categorical return distributions.

Two per-transition updates share one harness: the one-step update mixes in
the projection of a single Dirac at the bootstrapped scalar target, while the
baseline categorical update projects the K shifted atoms of the next-state
distribution. Both preserve normalization exactly up to rounding. Both read
next-state means from a table kept beside the probabilities and write the
row they update cell by cell in Python floats, so a step of the harness
calls numpy only for the new row's mean (and the baseline's target). The
baseline memoizes its targets per successor state: rows change only through
the updates, which clear the memo of the state they write.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from operator import mul
from statistics import median
from typing import Optional

import numpy as np

from .distributions import (
    CategoricalDistribution,
    DistributionCollection,
    _check_grid,
    categorical_means,
    categorical_w1,
    project_points,
)
from .mdp import EpisodicEnv, Policy, Transition, write_csv
from .operators import TIE_BREAKS

# Default epsilon decay: reaches 0.26 at step 5e4 when decaying 1 -> 0.25.
DEFAULT_EPS_RATE = math.log(75.0) / 5e4

MODES = ("eval", "control")
ALGOS = ("os", "cdrl")


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
        if not c > 0.0:
            raise ValueError(f"c must be positive, got {c}")
        if not 0.5 < omega <= 1.0:
            raise ValueError(f"omega must lie in (0.5, 1], got {omega}")
        return cls(c=float(c), omega=float(omega))

    def step_size(self, visits: int) -> float:
        return self.c / (1.0 + visits) ** self.omega

    def step_sizes(self, visits: np.ndarray) -> np.ndarray:
        return self.c / (1.0 + np.asarray(visits, dtype=float)) ** self.omega


@dataclass(frozen=True)
class ExplorationSchedule:
    """Exponentially decaying epsilon: eps_end + (eps_start - eps_end) * exp(-rate*t)."""

    eps_start: float = 1.0
    eps_end: float = 0.25
    rate: float = DEFAULT_EPS_RATE

    def __post_init__(self):
        if not (0.0 <= self.eps_start <= 1.0 and 0.0 <= self.eps_end <= 1.0):
            raise ValueError("eps_start and eps_end must lie in [0, 1]")
        if self.rate < 0.0:
            raise ValueError(f"decay rate must be nonnegative, got {self.rate}")

    def epsilon(self, t: int) -> float:
        return self.eps_end + (self.eps_start - self.eps_end) * math.exp(-self.rate * t)


@dataclass
class LearnerState:
    """Categorical distributions over a fixed grid plus visit counters.

    probs has shape (n_states, n_actions, K); every row is a probability
    vector (sums stay within 1e-9 of 1 along any trajectory). The rng is
    only consulted by the "random" greedy tie-break of the baseline update.
    """

    grid: np.ndarray
    probs: np.ndarray
    visits: np.ndarray
    discount: float
    t: int = 0
    range_violations: int = 0
    rng: Optional[np.random.Generator] = None

    @classmethod
    def initial(
        cls,
        n_states: int,
        n_actions: int,
        grid,
        discount: float,
        rng: Optional[np.random.Generator] = None,
    ) -> "LearnerState":
        """All mass at z_1 for every pair (the same start the projected
        dynamic-programming iteration uses)."""
        grid = np.asarray(grid, dtype=float)
        _check_grid(grid)
        if not 0.0 <= discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {discount}")
        probs = np.zeros((n_states, n_actions, grid.size))
        probs[:, :, 0] = 1.0
        visits = np.zeros((n_states, n_actions), dtype=np.int64)
        return cls(grid=grid, probs=probs, visits=visits, discount=float(discount), rng=rng)

    def q_values(self) -> np.ndarray:
        return categorical_means(self.probs, self.grid)

    def as_collection(self) -> DistributionCollection:
        return DistributionCollection.build(
            self.probs.shape[0],
            self.probs.shape[1],
            lambda x, a: CategoricalDistribution(self.grid, self.probs[x, a]),
        )


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


def _check_mode(mode: str, policy) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "eval" and policy is None:
        raise ValueError("eval mode requires a policy")


class _Tables:
    """What one learner update reads and writes, held in the forms a per-step
    Python loop reads fastest.

    rows[x][a] is a view of probs[x, a], and cells[x][a] a memoryview of it
    (both share probs' memory) whose elements read and write as Python
    floats. Updates write a row cell by cell, about 0.1 us a cell against
    numpy's flat 0.5-1 us per in-place op: faster at small K, slower at
    large K. q[x][a] is the row's mean as a Python float: float(dot(row)),
    dot the bound grid.dot, which is the 1-D dot categorical_means rounds
    with and costs about half of row @ grid. An update recomputes the mean
    of the one row it changes. policy is None for the greedy bootstrap
    (control) or the Policy that mixes the next state's actions (eval).

    targets[x] maps the reward (with the drawn action under the random
    tie-break) to the baseline's target from successor x, as Python floats,
    and its range flag. Both depend only on x's rows: an update that writes
    one clears targets[x], and any other writer of probs[x] must too.
    """

    def __init__(self, probs, grid, gamma, policy=None, tie_break="lowest", rng=None):
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
        self.tie_break = tie_break
        self.rng = rng
        self._target_maps = {}
        self.targets = [{} for _ in self.rows]

    def target_map(self, r: float):
        """(M, off) for reward r. The projection is linear, so the baseline
        target of next-state probabilities p is p @ M, where row k of M is
        project_points of a unit atom at r + gamma * z_k. off is 1.0 at the
        atoms off the grid and 0.0 elsewhere, None when there are none: p
        is nonnegative, so the target leaves the grid exactly when
        off.dot(p) > 0. Built on first use of r."""
        found = self._target_maps.get(r)
        if found is None:
            atoms = r + self.gamma * self.grid
            unit = np.ones(1)
            matrix = np.array([project_points(atoms[k : k + 1], unit, self.grid) for k in range(atoms.size)])
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


def _greedy(q_row) -> list:
    """The actions of maximal mean, in increasing order."""
    best = max(q_row)
    return [b for b, v in enumerate(q_row) if v == best]


def _cdrl_update(t: _Tables, x, a, r, x_next, alpha) -> bool:
    """Baseline update: the target projects the K shifted atoms
    r + gamma * z_k of the next state's distribution at the greedy action
    (ties broken by tie_break) or mixed under the policy. The target is
    built on the first use of its key since x_next's rows last changed."""
    memo, key = t.targets[x_next], r
    if t.policy is None and t.tie_break == "random":
        # drawn on every step, hit or miss, so the rng stream is unchanged
        winners = _greedy(t.q[x_next])
        key = (r, winners[t.rng.integers(len(winners))])
    found = memo.get(key)
    if found is None:
        if t.policy is not None:
            next_probs = t.policy.probs[x_next] @ t.probs[x_next]
        elif t.tie_break == "random":
            next_probs = t.rows[x_next][key[1]]
        elif t.tie_break == "uniform":
            next_probs = t.probs[x_next, _greedy(t.q[x_next])].mean(axis=0)
        else:
            q_next = t.q[x_next]
            next_probs = t.rows[x_next][q_next.index(max(q_next))]
        matrix, off = t.target_map(r)
        # next_probs may be row (x, a) itself: read it before the row changes
        violated = off is not None and float(off.dot(next_probs)) > 0.0
        found = memo[key] = ((next_probs @ matrix).tolist(), violated)
    target, violated = found
    row, cells, keep = t.rows[x][a], t.cells[x][a], 1.0 - alpha
    # the roundings of row *= keep; row += alpha * target, in their order
    for i, v in enumerate(target):
        cells[i] = cells[i] * keep + alpha * v
    t.q[x][a] = float(t.dot(row))
    t.targets[x].clear()
    return violated


def _step(update, state, tr, schedule, mode, policy, **kwargs) -> LearnerState:
    """Apply update to a copy of state for one transition."""
    _check_mode(mode, policy)
    probs, visits = state.probs.copy(), state.visits.copy()
    x, a = tr.state, tr.action
    tables = _Tables(probs, state.grid, state.discount, policy if mode == "eval" else None, **kwargs)
    # a numpy scalar step size would make every cell operation a numpy call
    alpha = float(schedule.step_size(visits[x, a]))
    violated = update(tables, x, a, tr.reward, tr.next_state, alpha)
    visits[x, a] += 1
    violations = state.range_violations + int(violated)
    return replace(state, probs=probs, visits=visits, t=state.t + 1, range_violations=violations)


def os_cdrl_step(
    state: LearnerState,
    tr: Transition,
    schedule: StepSizeSchedule,
    mode: str = "control",
    policy: Optional[Policy] = None,
) -> LearnerState:
    """One-step categorical update from a single transition.

    The target is the projection of a single Dirac at
    reward + discount * V(next state), with V the policy-mixed (eval) or
    maximal (control) mean of the next-state distributions. Targets outside
    [z_1, z_K] are clamped by the projection and counted.
    """
    return _step(_os_update, state, tr, schedule, mode, policy)


def cdrl_step(
    state: LearnerState,
    tr: Transition,
    schedule: StepSizeSchedule,
    mode: str = "control",
    policy: Optional[Policy] = None,
    tie_break: str = "lowest",
) -> LearnerState:
    """Baseline categorical update: the target projects the K shifted atoms
    of the next-state distribution at the greedy (control) or policy-mixed
    (eval) action."""
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if tie_break == "random" and state.rng is None:
        raise ValueError("tie_break='random' requires a LearnerState rng")
    return _step(_cdrl_update, state, tr, schedule, mode, policy, tie_break=tie_break, rng=state.rng)


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


def _cumulative(probs) -> list:
    """Cumulative sums over the last axis as nested lists, each row's entries
    from its last positive cell on set to 1.0: bisect_right of a uniform in
    [0, 1) then lands only on cells of positive probability."""
    cum = np.cumsum(probs, axis=-1)
    rows = cum.reshape(-1, cum.shape[-1])
    for row, p in zip(rows, np.reshape(probs, rows.shape)):
        row[np.flatnonzero(p)[-1] :] = 1.0
    return cum.tolist()


# Uniforms drawn per rng call in run_learning: rows of 3, one row per step.
_BLOCK = 1024
_BELOW_ONE = math.nextafter(1.0, 0.0)


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
    exploratory action, u2 the successor. A restart at a random initial
    state draws the state with u2, and the successor with u2 rescaled to
    that state's cell. So a run's first n steps do not depend on n_steps.
    """
    _check_mode(mode, policy)
    if mode == "control" and exploration is None:
        raise ValueError("control mode requires an exploration schedule")
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
    gamma = mdp.discount
    grid = np.asarray(grid, dtype=float)
    state = LearnerState.initial(n_states, n_actions, grid, gamma)
    probs = state.probs
    eval_mode = mode == "eval"
    tables = _Tables(probs, grid, gamma, policy if eval_mode else None)
    q = tables.q
    update = _os_update if algo == "os" else _cdrl_update
    c, omega = schedule.c, schedule.omega

    cum_kernel = _cumulative(mdp.kernel)
    rewards = mdp.reward.tolist()
    terminals = env.terminal_states
    policy_cum = _cumulative(policy.probs) if eval_mode else None
    initial = env.initial_state
    initial_cum = _cumulative(initial) if np.ndim(initial) else None
    ref_probs = _reference_probs(reference, grid) if reference is not None else None
    ref_q = np.asarray(reference_q, dtype=float) if reference_q is not None else None
    track = [tuple(pair) for pair in track]

    rng = np.random.default_rng(seed)
    rec_steps, rec_eps, rec_alpha, rec_viol = [], [], [], []
    rec_w1, rec_qsup, rec_qsq, rec_q = [], [], [], []
    tracked = {pair: [] for pair in track}
    visits = [[0] * n_actions for _ in range(n_states)]
    violations = 0

    def epsilon(t):
        return exploration.epsilon(t) if exploration is not None else math.nan

    def record(step, eps):
        rec_steps.append(step)
        rec_eps.append(eps)
        rec_alpha.append(float(np.mean(schedule.step_sizes(np.array(visits)))))
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

    record(0, epsilon(0))
    last_action = n_actions - 1
    if exploration is not None:
        # exploration.epsilon(t), with its operations in the same order
        eps_end, exp, minus_rate = exploration.eps_end, math.exp, -exploration.rate
        eps_span = exploration.eps_start - eps_end
    record_at = min(record_every, n_steps) - 1
    x = None if initial_cum is not None else initial
    for start in range(0, n_steps, _BLOCK):
        block = rng.random((min(_BLOCK, n_steps - start), 3)).tolist()
        for t, (u0, u1, u2) in enumerate(block, start):
            if x is None or x in terminals:
                if initial_cum is None:
                    x = initial
                else:
                    x = bisect_right(initial_cum, u2)
                    lo = initial_cum[x - 1] if x else 0.0
                    u2 = min((u2 - lo) / (initial_cum[x] - lo), _BELOW_ONE)
            if eval_mode:
                a = bisect_right(policy_cum[x], u0)
            elif u0 < eps_end + eps_span * exp(minus_rate * t):
                a = min(int(u1 * n_actions), last_action)
            else:
                qx = q[x]
                a = qx.index(max(qx))
            x_next = bisect_right(cum_kernel[x][a], u2)
            visits_x = visits[x]
            n = visits_x[a]
            violations += update(tables, x, a, rewards[x][a][x_next], x_next, c / (1.0 + n) ** omega)
            visits_x[a] = n + 1
            x = x_next
            if t == record_at:
                record(t + 1, epsilon(t))
                record_at = min(t + record_every, n_steps - 1)

    state.visits[:] = visits
    state.t = n_steps
    state.range_violations = violations
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
        final_state=state,
    )


@dataclass
class MicrobenchmarkResult:
    """Median per-call target-construction times and their ratios per K."""

    rows: list
    ratio_increasing: bool
    max_cells: int

    def to_json(self) -> dict:
        return asdict(self)


def target_microbenchmark(
    k_values=(8, 64, 512, 4096),
    n_reps: int = 64,
    seed: int = 0,
    n_inputs: int = 32,
) -> MicrobenchmarkResult:
    """Wall-time comparison of the two categorical target constructions.

    For each grid size K, times the dense K-atom projected target against the
    sparse single-Dirac target on identical random inputs (medians over
    n_reps). The sparse side times _add_dirac, the kernel the one-step
    learner runs, adding into one row through a memoryview. Also verifies
    the sparse target writes at most 2 cells for every K. The scalar
    bootstrap values are precomputed outside the timed region so only
    target construction is measured.
    """
    k_values = tuple(int(k) for k in k_values)
    if any(k < 2 for k in k_values):
        raise ValueError("every K must be >= 2")
    if sorted(k_values) != list(k_values) or len(set(k_values)) != len(k_values):
        raise ValueError("k_values must be strictly increasing")
    rng = np.random.default_rng(seed)
    gamma = 0.95
    rows = []
    max_cells = 0
    for k in k_values:
        grid = np.linspace(-10.0, 10.0, k)
        grid_list = grid.tolist()
        rewards = rng.uniform(-1.0, 1.0, size=n_inputs)
        next_probs = rng.dirichlet(np.ones(k), size=n_inputs)
        scalar_targets = rewards + gamma * (next_probs @ grid)
        for u in scalar_targets:
            cells = defaultdict(float)
            _add_dirac(cells, grid_list, u, 1.0)
            max_cells = max(max_cells, len(cells))
        scalar_list, sparse_row = scalar_targets.tolist(), memoryview(np.zeros(k))
        os_times, cdrl_times = [], []
        for _ in range(n_reps):
            t0 = time.perf_counter()
            for u in scalar_list:
                _add_dirac(sparse_row, grid_list, u, 1.0)
            t1 = time.perf_counter()
            for r, row in zip(rewards, next_probs):
                project_points(r + gamma * grid, row, grid)
            t2 = time.perf_counter()
            os_times.append((t1 - t0) / n_inputs)
            cdrl_times.append((t2 - t1) / n_inputs)
        os_med, cdrl_med = median(os_times), median(cdrl_times)
        rows.append(
            {
                "k": k,
                "os_seconds": os_med,
                "cdrl_seconds": cdrl_med,
                "ratio": cdrl_med / os_med,
            }
        )
    return MicrobenchmarkResult(
        rows=rows,
        ratio_increasing=rows[-1]["ratio"] > rows[0]["ratio"],
        max_cells=max_cells,
    )
