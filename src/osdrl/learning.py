"""Stochastic-approximation learners over categorical return distributions.

Two per-transition updates share one harness: the one-step update mixes in
the projection of a single Dirac at the bootstrapped scalar target, while the
baseline categorical update projects the K shifted atoms of the next-state
distribution. Both preserve normalization exactly up to rounding.
"""

from __future__ import annotations

import csv
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Optional

import numpy as np

from .distributions import CategoricalDistribution, DistributionCollection, categorical_w1, project_points
from .mdp import EpisodicEnv, Policy, Transition

# Default epsilon decay: reaches 0.26 at step 5e4 when decaying 1 -> 0.25.
DEFAULT_EPS_RATE = math.log(75.0) / 5e4

MODES = ("eval", "control")
ALGOS = ("os", "cdrl")


@dataclass(frozen=True)
class StepSizeSchedule:
    """Step sizes indexed by per-(x,a) visit counts.

    constant(alpha) uses a fixed alpha in (0, 1]; polynomial(c, omega) uses
    c / (1 + visits)^omega with c > 0 and omega in (0.5, 1], which satisfies
    the divergent-sum / convergent-squared-sum conditions whenever every
    pair is visited infinitely often.
    """

    kind: str
    alpha: float = 0.0
    c: float = 0.0
    omega: float = 0.0

    @classmethod
    def constant(cls, alpha: float) -> "StepSizeSchedule":
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"constant step size must lie in (0, 1], got {alpha}")
        return cls(kind="constant", alpha=float(alpha))

    @classmethod
    def polynomial(cls, c: float = 1.0, omega: float = 0.7) -> "StepSizeSchedule":
        if not c > 0.0:
            raise ValueError(f"c must be positive, got {c}")
        if not 0.5 < omega <= 1.0:
            raise ValueError(f"omega must lie in (0.5, 1], got {omega}")
        return cls(kind="polynomial", c=float(c), omega=float(omega))

    def step_size(self, visits: int) -> float:
        if self.kind == "constant":
            return self.alpha
        return self.c / (1.0 + visits) ** self.omega

    def step_sizes(self, visits: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(np.shape(visits), self.alpha)
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
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be 1-D, strictly increasing, with K >= 2")
        if not 0.0 <= discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {discount}")
        probs = np.zeros((n_states, n_actions, grid.size))
        probs[:, :, 0] = 1.0
        visits = np.zeros((n_states, n_actions), dtype=np.int64)
        return cls(grid=grid, probs=probs, visits=visits, discount=float(discount), rng=rng)

    def q_values(self) -> np.ndarray:
        return self.probs @ self.grid

    def as_collection(self) -> DistributionCollection:
        return DistributionCollection.build(
            self.probs.shape[0],
            self.probs.shape[1],
            lambda x, a: CategoricalDistribution(self.grid, self.probs[x, a]),
        )


def project_dirac_sparse(grid: np.ndarray, u: float):
    """Sparse categorical projection of a point mass: at most two
    (index, weight) cells, located by binary search."""
    if len(grid) < 2:
        raise ValueError("grid must hold at least 2 points")
    i = bisect_left(grid, u)
    if i == 0:
        return (0,), (1.0,)
    if i == len(grid):
        return (len(grid) - 1,), (1.0,)
    lo, hi = grid[i - 1], grid[i]
    gap = hi - lo
    return (i - 1, i), ((hi - u) / gap, (u - lo) / gap)


def _check_mode(mode: str, policy) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "eval" and policy is None:
        raise ValueError("eval mode requires a policy")


# The two in-place updates below move row (x, a) of probs a step alpha toward
# a projected target built from transition (x, a, r, x_next). policy=None
# bootstraps greedily (control); a policy mixes the next state's actions
# (eval). Each returns True when the target puts mass outside [z_1, z_K].


def _os_update(probs, grid, x, a, r, x_next, gamma, alpha, policy) -> bool:
    """One-step update: the target projects a single Dirac at
    r + gamma * V(x_next), V the maximal or policy-mixed mean."""
    q_next = probs[x_next] @ grid
    v = float(q_next.max()) if policy is None else float(policy.probs[x_next] @ q_next)
    u = r + gamma * v
    row = probs[x, a]
    row *= 1.0 - alpha
    points = grid.tolist()  # Python floats bisect and subtract faster than numpy scalars
    i = bisect_left(points, u)
    if i == 0:
        row[0] += alpha
        return u < points[0]
    if i == len(points):
        row[-1] += alpha
        return True
    lo, hi = points[i - 1], points[i]
    gap = hi - lo
    row[i - 1] += alpha * (hi - u) / gap
    row[i] += alpha * (u - lo) / gap
    return False


def _cdrl_update(probs, grid, x, a, r, x_next, gamma, alpha, policy, tie_break="lowest", rng=None) -> bool:
    """Baseline update: the target projects the K shifted atoms
    r + gamma * z_k of the next state's distribution at the greedy action
    (ties broken by tie_break) or mixed under the policy."""
    if policy is not None:
        next_probs = policy.probs[x_next] @ probs[x_next]
    else:
        q_next = probs[x_next] @ grid
        if tie_break == "lowest":
            next_probs = probs[x_next, int(np.argmax(q_next))]
        else:
            winners = np.flatnonzero(q_next == q_next.max())
            if tie_break == "uniform":
                next_probs = probs[x_next, winners].mean(axis=0)
            elif tie_break == "random":
                if rng is None:
                    raise ValueError("tie_break='random' requires a LearnerState rng")
                next_probs = probs[x_next, winners[rng.integers(winners.size)]]
            else:
                raise ValueError(f"unknown tie_break {tie_break!r}")
    atoms = r + gamma * grid
    target = project_points(atoms, next_probs, grid)
    probs[x, a] = (1.0 - alpha) * probs[x, a] + alpha * target
    return bool(np.any(((atoms < grid[0]) | (atoms > grid[-1])) & (next_probs > 0.0)))


def _step(update, state, tr, schedule, mode, policy, **kwargs) -> LearnerState:
    """Apply update to a copy of state for one transition."""
    _check_mode(mode, policy)
    probs, visits = state.probs.copy(), state.visits.copy()
    x, a = tr.state, tr.action
    alpha = schedule.step_size(visits[x, a])
    violated = update(
        probs, state.grid, x, a, tr.reward, tr.next_state, state.discount, alpha,
        policy if mode == "eval" else None, **kwargs,
    )
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

    def to_csv(self, path) -> None:
        """Write this record alone in the learning.csv format."""
        write_learning_csv([self], path)


def write_learning_csv(records, path) -> None:
    """One row per recorded step of each record. Columns: step, seed,
    w1_to_reference, q_error_sup, range_violations, epsilon, mean_alpha.
    Missing metrics print as nan."""

    def col(arr, i):
        return repr(float(arr[i])) if arr is not None else "nan"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "seed", "w1_to_reference", "q_error_sup", "range_violations", "epsilon", "mean_alpha"]
        )
        for rec in records:
            for i, step in enumerate(rec.steps):
                row = [int(step), rec.seed, col(rec.w1_to_reference, i), col(rec.q_error_sup, i)]
                row += [int(rec.range_violations[i]), col(rec.epsilon, i), col(rec.mean_alpha, i)]
                writer.writerow(row)


def _reference_probs(reference, grid: np.ndarray) -> np.ndarray:
    probs = np.zeros((reference.n_states, reference.n_actions, grid.size))
    for (x, a), dist in reference:
        if not isinstance(dist, CategoricalDistribution) or not np.array_equal(dist.grid, grid):
            raise ValueError("reference must be a categorical collection on the learner grid")
        probs[x, a] = dist.probs
    return probs


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
    """
    _check_mode(mode, policy)
    if mode == "control" and exploration is None:
        raise ValueError("control mode requires an exploration schedule")
    if algo not in ALGOS:
        raise ValueError(f"algo must be one of {ALGOS}, got {algo!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    mdp = env.mdp
    n_states, n_actions = mdp.n_states, mdp.n_actions
    gamma = mdp.discount
    grid = np.asarray(grid, dtype=float)
    state = LearnerState.initial(n_states, n_actions, grid, gamma)
    probs, visits = state.probs, state.visits
    update = _os_update if algo == "os" else _cdrl_update
    update_policy = policy if mode == "eval" else None

    cum_kernel = np.cumsum(mdp.kernel, axis=2)
    reward_table = mdp.reward
    terminals = env.terminal_states
    policy_cum = np.cumsum(policy.probs, axis=1) if policy is not None else None
    ref_probs = _reference_probs(reference, grid) if reference is not None else None
    ref_q = np.asarray(reference_q, dtype=float) if reference_q is not None else None
    track = [tuple(pair) for pair in track]

    rng = np.random.default_rng(seed)
    rec_steps, rec_eps, rec_alpha, rec_viol = [], [], [], []
    rec_w1, rec_qsup, rec_qsq, rec_q = [], [], [], []
    tracked = {pair: [] for pair in track}
    violations = 0

    def record(step, eps):
        rec_steps.append(step)
        rec_eps.append(eps)
        rec_alpha.append(float(np.mean(schedule.step_sizes(visits))))
        rec_viol.append(violations)
        if ref_probs is not None:
            rec_w1.append(float(np.max(categorical_w1(probs, ref_probs, grid))))
        if ref_q is not None:
            err = probs @ grid - ref_q
            rec_qsup.append(float(np.max(np.abs(err))))
            rec_qsq.append(float(np.sum(err * err)))
        if record_q:
            rec_q.append(probs @ grid)
        for pair in track:
            tracked[pair].append(probs[pair].copy())

    x = env.reset(rng)
    record(0, exploration.epsilon(0) if exploration is not None else math.nan)
    for t in range(n_steps):
        if x in terminals:
            x = env.reset(rng)
        if mode == "control":
            eps = exploration.epsilon(t)
            if rng.random() < eps:
                a = int(rng.integers(n_actions))
            else:
                a = int(np.argmax(probs[x] @ grid))
        else:
            eps = exploration.epsilon(t) if exploration is not None else math.nan
            a = int(np.searchsorted(policy_cum[x], rng.random(), side="right"))
            a = min(a, n_actions - 1)
        x_next = int(np.searchsorted(cum_kernel[x, a], rng.random(), side="right"))
        x_next = min(x_next, n_states - 1)
        r = float(reward_table[x, a, x_next])

        alpha = schedule.step_size(visits[x, a])
        violations += update(probs, grid, x, a, r, x_next, gamma, alpha, update_policy)
        visits[x, a] += 1
        x = x_next
        if (t + 1) % record_every == 0 or t + 1 == n_steps:
            record(t + 1, eps)

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
    ratio_monotone: bool
    max_cells: int

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "ratio_increasing": self.ratio_increasing,
            "ratio_monotone": self.ratio_monotone,
            "max_cells": self.max_cells,
        }


def target_microbenchmark(
    k_values=(8, 64, 512, 4096),
    n_reps: int = 64,
    seed: int = 0,
    n_inputs: int = 32,
) -> MicrobenchmarkResult:
    """Wall-time comparison of the two categorical target constructions.

    For each grid size K, times the dense K-atom projected target against the
    sparse single-Dirac target on identical random inputs (medians over
    n_reps). Also verifies the sparse target writes at most 2 cells for
    every K. The scalar bootstrap values are precomputed outside the timed
    region so only target construction is measured.
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
            idxs, _ = project_dirac_sparse(grid_list, u)
            max_cells = max(max_cells, len(idxs))
        os_times, cdrl_times = [], []
        for _ in range(n_reps):
            t0 = time.perf_counter()
            for u in scalar_targets:
                project_dirac_sparse(grid_list, u)
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
    ratios = [row["ratio"] for row in rows]
    return MicrobenchmarkResult(
        rows=rows,
        ratio_increasing=ratios[-1] > ratios[0],
        ratio_monotone=all(b > a for a, b in zip(ratios, ratios[1:])),
        max_cells=max_cells,
    )
