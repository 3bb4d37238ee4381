"""Exact dynamic programming: scalar fixed points, closed-form one-step
distributional fixed points, operator iteration, and the oscillation scan
used by the instability experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    DistributionCollection,
    categorical_w1,
    cramer_project,
    dirac,
)
from .mdp import Policy, TabularMdp, _entry_ids, write_csv
from .operators import (
    _one_step_collection,
    _project_collection,
    bellman_eval,
    bellman_opt,
    categorical_os_eval,
    categorical_os_opt,
)

_MAX_SOLVE_ITERS = 10_000_000  # defensive cap; contraction terminates far earlier


def _solve(step_fn, start, distance, discount: float, tol: float):
    # Iterate from start until distance(next, current) is below
    # tol*(1-gamma)/gamma, which bounds the distance to the fixed point by
    # tol; a single sweep is exact at gamma = 0.
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    threshold = tol * (1.0 - discount) / discount if discount > 0.0 else math.inf
    current = start
    for _ in range(_MAX_SOLVE_ITERS):
        nxt = step_fn(current)
        step = distance(nxt, current)
        current = nxt
        if step < threshold or discount == 0.0:
            return current
    raise RuntimeError("iteration failed to converge (tolerance below float precision?)")


def _solve_q(step_fn, mdp: TabularMdp, tol: float) -> np.ndarray:
    start = np.zeros((mdp.n_states, mdp.n_actions))
    return _solve(step_fn, start, lambda p, q: float(np.max(np.abs(p - q))), mdp.discount, tol)


def solve_q_pi(mdp: TabularMdp, policy: Policy, tol: float = 1e-10) -> np.ndarray:
    """Q-function of a policy, within tol in sup norm."""
    return _solve_q(lambda q: bellman_eval(q, mdp, policy), mdp, tol)


def solve_q_star(mdp: TabularMdp, tol: float = 1e-10) -> np.ndarray:
    """Optimal Q-function, within tol in sup norm."""
    return _solve_q(lambda q: bellman_opt(q, mdp), mdp, tol)


def _state_values(mdp: TabularMdp, tol: float, policy: Optional[Policy] = None) -> np.ndarray:
    """V_pi with a policy, V* without one, within tol in sup norm."""
    if policy is None:
        return solve_q_star(mdp, tol).max(axis=1)
    return (policy.probs * solve_q_pi(mdp, policy, tol)).sum(axis=1)


def one_step_fixed_point_eval(
    mdp: TabularMdp, policy: Policy, tol: float = 1e-10
) -> DistributionCollection:
    """Closed-form fixed point of the one-step evaluation operator: the Dirac
    mixture over successors at r(x,a,x') + gamma * V_pi(x')."""
    return _one_step_collection(mdp, _state_values(mdp, tol, policy))


def one_step_fixed_point_opt(mdp: TabularMdp, tol: float = 1e-10) -> DistributionCollection:
    """Closed-form fixed point of the one-step optimality operator."""
    return _one_step_collection(mdp, _state_values(mdp, tol))


class RangeConditionError(ValueError):
    """Some supported target r(x,a,x') + gamma*V(x') falls outside [z_1, z_K]."""

    def __init__(self, violations):
        self.violations = violations
        listing = ", ".join(
            f"(x={x}, a={a}, x'={xn}): target {t:.6g}" for x, a, xn, t in violations[:5]
        )
        more = "" if len(violations) <= 5 else f" and {len(violations) - 5} more"
        super().__init__(f"targets outside grid range: {listing}{more}")


class AtomBudgetExceeded(RuntimeError):
    """Total atom count of an iterate exceeded the configured cap."""

    def __init__(self, count, cap):
        self.count, self.cap = count, cap
        super().__init__(f"iterate holds {count} atoms, exceeding the cap of {cap}")


def iterate(op, mu0, n_steps: int, atom_cap: int = 1_000_000) -> list:
    """The n_steps + 1 iterates of op from the distribution collection mu0.
    Raises AtomBudgetExceeded if a produced iterate holds more than atom_cap
    atoms (guards unprojected full-operator iteration).
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    iterates = [mu0]
    for _ in range(n_steps):
        nxt = op(iterates[-1])
        count = nxt.total_atoms()
        if count > atom_cap:
            raise AtomBudgetExceeded(count, atom_cap)
        iterates.append(nxt)
    return iterates


def categorical_start(mdp: TabularMdp, grid) -> DistributionCollection:
    """The all-delta(z_1) collection on grid, where projected iteration starts."""
    return DistributionCollection.constant(
        mdp.n_states, mdp.n_actions, cramer_project(dirac(grid[0]), grid)
    )


def _projected_closed_form(
    mdp: TabularMdp, grid, v: np.ndarray, tol: float, policy: Optional[Policy] = None
) -> tuple:
    """(eta, residual): the projected closed-form fixed point of the one-step
    operator (evaluation with a policy, control without), built from the
    state values v, and its sup-W1 to the array operator iterated from the
    all-delta(z_1) start to within tol.

    Raises RangeConditionError when some supported target
    r(x,a,x') + gamma*V(x') falls outside [z_1, z_K]."""
    grid = np.asarray(grid, dtype=float)
    targets = mdp.reward + mdp.discount * v[None, None, :]
    bad = (mdp.kernel > 0.0) & ((targets < grid[0]) | (targets > grid[-1]))
    if np.any(bad):
        triplets = [(x, a, xn, float(targets[x, a, xn])) for x, a, xn in zip(*np.nonzero(bad))]
        raise RangeConditionError(triplets)

    eta = _project_collection(_one_step_collection(mdp, v), grid)
    op = categorical_os_opt(mdp, grid) if policy is None else categorical_os_eval(mdp, policy, grid)

    def sup_w1(p, q):
        return float(categorical_w1(p, q, grid).max())

    fixed = _solve(op, categorical_start(mdp, grid).probs(), sup_w1, mdp.discount, tol)
    return eta, sup_w1(fixed, eta.probs())


def projected_fixed_points(
    mdp: TabularMdp, grid, tol: float = 1e-10, policy: Optional[Policy] = None
) -> DistributionCollection:
    """Categorical fixed point of the projected one-step operator.

    With a policy this is the projection of the evaluation fixed point; in
    control mode (policy=None) the projection of the optimality fixed point.
    Requires every supported target r(x,a,x') + gamma*V(x') to lie inside
    [z_1, z_K] (raises RangeConditionError otherwise, naming the offending
    triplets). The closed form is cross-checked by iterating the array form
    of the projected operator from the all-delta(z_1) start to within tol.
    """
    return _checked_fixed_point(mdp, grid, _state_values(mdp, tol, policy), tol, policy)


def _checked_fixed_point(mdp: TabularMdp, grid, v: np.ndarray, tol: float, policy=None) -> DistributionCollection:
    """projected_fixed_points from state values v the caller has solved."""
    eta, residual = _projected_closed_form(mdp, grid, v, tol, policy)
    if residual > 10.0 * tol:
        raise RuntimeError(
            f"projected iteration disagrees with the closed-form fixed point "
            f"(sup-W1 {residual:.3e} > {10 * tol:.3e})"
        )
    return eta


@dataclass
class OscillationReport:
    """Outcome of the periodicity scan over the tail of a trace."""

    converged: bool
    oscillating: bool
    period: Optional[int]
    aperiodic: bool
    max_step_tail: float
    recurrence: dict


def detect_oscillation(stack: np.ndarray, grid) -> OscillationReport:
    """Periodicity scan over the second half of an (n, S, A, K) stack of
    iterates on one grid: the instability signature is successive iterates
    that stay apart in sup-W1 while some period-q recurrence comes close.

    recurrence[q], for q <= 4, is the largest sup-W1 between iterates q apart
    in that half (nan when it holds no such pair). converged means the
    period-1 recurrence is already below 1e-6; a tail that neither converges
    nor recurs within period 4 is reported as aperiodic.
    """
    n = len(stack)
    tol, max_period, burn_in = 1e-6, 4, n // 2
    recurrence = {
        q: float(categorical_w1(stack[burn_in : n - q], stack[burn_in + q :], grid).max())
        if n - q > burn_in
        else math.nan
        for q in range(1, max_period + 1)
    }
    max_step_tail = recurrence[1]
    converged = bool(max_step_tail < tol)  # nan compares False
    recurs = [q for q in range(2, max_period + 1) if recurrence[q] < tol]
    period = None if converged or not recurs else recurs[0]
    aperiodic = not converged and period is None
    return OscillationReport(converged, period is not None, period, aperiodic, max_step_tail, recurrence)


def trace_atoms_to_csv(iterates: list, path) -> None:
    """One row per (iteration, entry, atom) of atomic iterates: iteration,
    entry_id, atom_or_gridpoint, weight."""

    def rows():
        for n, mu in enumerate(iterates):
            for entry, (_, dist) in zip(_entry_ids(mu.n_states, mu.n_actions), mu):
                for z, w in zip(dist.atoms.tolist(), dist.weights.tolist()):
                    yield n, entry, z, w

    write_csv(path, ["iteration", "entry_id", "atom_or_gridpoint", "weight"], rows())
