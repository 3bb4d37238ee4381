"""Finite MDPs, policies, environment simulation, the built-in benchmark MDPs,
and the one writer of every canonical CSV."""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ROW_SUM_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


class Transition(NamedTuple):
    state: int
    action: int
    reward: float
    next_state: int


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with dense transition and reward tables.

    kernel[x, a, x'] is the probability of moving to x' when taking action a
    in state x; reward[x, a, x'] is the reward collected on that transition.
    States and actions are 0-based integer ids. Immutable after construction.
    """

    kernel: np.ndarray
    reward: np.ndarray
    discount: float

    def __post_init__(self):
        kernel = _frozen_array(self.kernel)
        reward = _frozen_array(self.reward)
        if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2]:
            raise ValueError(f"kernel must have shape (S, A, S), got {kernel.shape}")
        if reward.shape != kernel.shape:
            raise ValueError(
                f"reward shape {reward.shape} does not match kernel shape {kernel.shape}"
            )
        if not np.all(np.isfinite(kernel)) or not np.all(np.isfinite(reward)):
            raise ValueError("kernel and reward entries must be finite")
        if np.any(kernel < 0.0):
            raise ValueError("kernel entries must be nonnegative")
        row_err = np.max(np.abs(kernel.sum(axis=2) - 1.0))
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"kernel rows must sum to 1 (max deviation {row_err:.3e})")
        if not 0.0 <= float(self.discount) < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "discount", float(self.discount))

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_actions(self) -> int:
        return self.kernel.shape[1]


def write_csv(path, header, rows) -> None:
    """Write one canonical CSV: the header, then each row. Rows hold Python
    values, read in bulk with tolist(); csv prints a Python float as its
    repr, the shortest text that round-trips, and nan as nan."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _entry_ids(n_states: int, n_actions: int) -> list:
    """The CSV id of each (x, a) entry, x-major: x{x}_a{a}."""
    return [f"x{x}_a{a}" for x, a in np.ndindex(n_states, n_actions)]


@dataclass(frozen=True)
class Policy:
    """Stochastic policy; probs[x, a] is the probability of action a in state x."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_array(self.probs)
        if probs.ndim != 2:
            raise ValueError(f"policy table must be 2-D, got shape {probs.shape}")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("policy probabilities must be finite and nonnegative")
        row_err = np.max(np.abs(probs.sum(axis=1) - 1.0))
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"policy rows must sum to 1 (max deviation {row_err:.3e})")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "Policy":
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))

    @classmethod
    def deterministic(cls, actions, n_actions: int) -> "Policy":
        actions = np.asarray(actions, dtype=int)
        probs = np.zeros((len(actions), n_actions))
        probs[np.arange(len(actions)), actions] = 1.0
        return cls(probs)


def _state_id(v, n: int, what: str) -> int:
    """v as a state id: an integer (not a bool) in [0, n), else ValueError."""
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
        raise ValueError(f"{what} must be an integer state id, got {v!r}")
    if not 0 <= v < n:
        raise ValueError(f"{what} {v} out of range")
    return int(v)


@dataclass(frozen=True)
class EpisodicEnv:
    """Episodic wrapper around a TabularMdp.

    Terminal states must be absorbing with zero reward in the wrapped MDP so
    the same operator code serves episodic and continuing settings. Every
    episode starts at the one state id initial_state.
    """

    mdp: TabularMdp
    terminal_states: frozenset
    initial_state: int = 0

    def __post_init__(self):
        n = self.mdp.n_states
        terminals = frozenset(_state_id(t, n, "terminal state") for t in self.terminal_states)
        for t in terminals:
            for a in range(self.mdp.n_actions):
                if abs(self.mdp.kernel[t, a, t] - 1.0) > ROW_SUM_TOL:
                    raise ValueError(f"terminal state {t} is not absorbing under action {a}")
                if self.mdp.reward[t, a, t] != 0.0:
                    raise ValueError(f"terminal state {t} has nonzero self-loop reward")
        object.__setattr__(self, "terminal_states", terminals)
        object.__setattr__(self, "initial_state", _state_id(self.initial_state, n, "initial state"))


def _cumulative(probs) -> list:
    """Cumulative sums over the last axis as nested lists, each row's entries
    from its last positive cell on set to 1.0: bisect_right of a uniform in
    [0, 1) then lands only on cells of positive probability. The one rule
    for drawing an index from a probability row."""
    cum = np.cumsum(probs, axis=-1)
    rows = cum.reshape(-1, cum.shape[-1])
    for row, p in zip(rows, np.reshape(probs, rows.shape)):
        row[np.flatnonzero(p)[-1] :] = 1.0
    return cum.tolist()


def sample_step(env, state: int, action: int, rng: np.random.Generator) -> Transition:
    """Sample one transition (x, a, r, x') from the environment's kernel:
    x' is bisect_right of one rng.random() in the row's _cumulative sums,
    the rule run_learning draws by.

    Accepts an EpisodicEnv or a bare TabularMdp. Deterministic given the rng
    state. Raises IndexError on out-of-range ids.
    """
    mdp = env.mdp if isinstance(env, EpisodicEnv) else env
    if not 0 <= state < mdp.n_states:
        raise IndexError(f"state {state} out of range [0, {mdp.n_states})")
    if not 0 <= action < mdp.n_actions:
        raise IndexError(f"action {action} out of range [0, {mdp.n_actions})")
    next_state = bisect_right(_cumulative(mdp.kernel[state, action]), rng.random())
    return Transition(state, action, float(mdp.reward[state, action, next_state]), next_state)


def make_toy_mdp(r_a: float = 0.0) -> TabularMdp:
    """Two-state, two-action MDP with gamma = 1/2 on which every policy is optimal.

    x2 (id 1) is absorbing with zero reward under both actions. From x1 (id 0):
    a1 moves to x2 with reward 2; a2 moves to x2 with probability 1/2 (reward
    r_a) and back to x1 with probability 1/2 (reward 3 - r_a). Every r_a gives
    Q*(x1, a1) = Q*(x1, a2) = 2, so the greedy action is tied everywhere, while
    the two actions have different return distributions.
    """
    kernel = np.zeros((2, 2, 2))
    reward = np.zeros((2, 2, 2))
    kernel[0, 0, 1] = 1.0
    reward[0, 0, 1] = 2.0
    kernel[0, 1, 1] = 0.5
    reward[0, 1, 1] = r_a
    kernel[0, 1, 0] = 0.5
    reward[0, 1, 0] = 3.0 - r_a
    kernel[1, :, 1] = 1.0
    return TabularMdp(kernel=kernel, reward=reward, discount=0.5)


FROZEN_LAKE_MAP = ("SFFF", "FHFH", "FFFH", "HFFG")
# action ids: 0 = left, 1 = down, 2 = right, 3 = up
_MOVES = ((0, -1), (1, 0), (0, 1), (-1, 0))


def make_frozen_lake(slippery: bool = True, goal_reward: float = 20.0) -> EpisodicEnv:
    """Standard 4x4 Frozen Lake as an episodic tabular environment.

    Layout SFFF/FHFH/FFFH/HFFG, actions {left, down, right, up}. With
    slippery=True the agent moves in the intended direction with probability
    1/3 and in each perpendicular direction with probability 1/3; moves off
    the grid leave the state unchanged. Holes and the goal are terminal
    (absorbing, zero reward); entering the goal pays goal_reward. The
    discount factor is 0.95.
    """
    if not goal_reward > 0:
        raise ValueError(f"goal_reward must be positive, got {goal_reward}")
    rows, cols = len(FROZEN_LAKE_MAP), len(FROZEN_LAKE_MAP[0])
    n_states, n_actions = rows * cols, 4
    cells = "".join(FROZEN_LAKE_MAP)
    goal = cells.index("G")
    terminals = {i for i, c in enumerate(cells) if c in "GH"}

    def move(state: int, direction: int) -> int:
        r, c = divmod(state, cols)
        dr, dc = _MOVES[direction]
        nr, nc = r + dr, c + dc
        if not (0 <= nr < rows and 0 <= nc < cols):
            return state
        return nr * cols + nc

    kernel = np.zeros((n_states, n_actions, n_states))
    reward = np.zeros((n_states, n_actions, n_states))
    for x in range(n_states):
        for a in range(n_actions):
            if x in terminals:
                kernel[x, a, x] = 1.0
                continue
            executed = ((a - 1) % 4, a, (a + 1) % 4) if slippery else (a,)
            for d in executed:
                kernel[x, a, move(x, d)] += 1.0 / len(executed)
            reward[x, a, goal] = goal_reward
    mdp = TabularMdp(kernel=kernel, reward=reward, discount=0.95)
    return EpisodicEnv(mdp=mdp, terminal_states=frozenset(terminals), initial_state=0)
