"""Exact dynamic programming: scalar fixed points, closed-form one-step
distributional fixed points, operator iteration with trajectory recording,
and the oscillation scan used by the instability experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import (
    CategoricalDistribution,
    DistributionCollection,
    categorical_w1,
    cramer_project,
    dirac,
    sup_wasserstein,
)
from .mdp import Policy, TabularMdp, write_csv
from .operators import (
    _one_step_collection,
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


@dataclass
class IterationTrace:
    """Recorded operator iteration: all iterates plus distance diagnostics.

    step_distances[n] is the sup-W1 distance from iterate n to iterate n+1;
    ref_distances[n] (when a reference was supplied) is the sup-W1 distance
    from iterate n to the reference.
    """

    iterates: list
    step_distances: list
    ref_distances: Optional[list] = None


def iterate(op, mu0, n_steps: int, reference=None, atom_cap: int = 1_000_000) -> IterationTrace:
    """Apply op n_steps times from the distribution collection mu0,
    recording iterates and distances. Raises AtomBudgetExceeded if a
    produced iterate holds more than atom_cap atoms (guards unprojected
    full-operator iteration).
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    iterates = [mu0]
    steps = []
    refs = [sup_wasserstein(mu0, reference, 1.0)] if reference is not None else None
    for _ in range(n_steps):
        nxt = op(iterates[-1])
        count = nxt.total_atoms()
        if count > atom_cap:
            raise AtomBudgetExceeded(count, atom_cap)
        steps.append(sup_wasserstein(nxt, iterates[-1], 1.0))
        if refs is not None:
            refs.append(sup_wasserstein(nxt, reference, 1.0))
        iterates.append(nxt)
    return IterationTrace(iterates, steps, refs)


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

    eta = _one_step_collection(mdp, v).map(lambda d: cramer_project(d, grid))
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
    recurrence: dict = field(default_factory=dict)


def scan_oscillation(
    n: int, largest_gap, tol: float = 1e-6, max_period: int = 4, burn_in: Optional[int] = None
) -> OscillationReport:
    """Periodicity scan over the tail of n iterates.

    largest_gap(q, start) returns the largest distance between iterates i and
    i + q over start <= i < n - q. The scan starts at burn_in (default: the
    second half). converged means the period-1 recurrence is already below
    tol; a tail that neither converges nor recurs within max_period is
    reported as aperiodic.
    """
    if burn_in is None:
        burn_in = n // 2
    recurrence = {
        q: largest_gap(q, burn_in) if n - q > burn_in else math.nan
        for q in range(1, max_period + 1)
    }
    max_step_tail = recurrence.get(1, math.nan)
    converged = bool(max_step_tail < tol)  # nan compares False
    recurs = [q for q in range(2, max_period + 1) if recurrence[q] < tol]
    period = None if converged or not recurs else recurs[0]
    aperiodic = not converged and period is None
    return OscillationReport(converged, period is not None, period, aperiodic, max_step_tail, recurrence)


def detect_oscillation(stack: np.ndarray, grid) -> OscillationReport:
    """Flag the instability signature in an (n, S, A, K) stack of iterates on
    one grid: successive iterates stay apart in sup-W1 while some period-q
    recurrence (q <= 4) comes within 1e-6; see scan_oscillation."""
    n = len(stack)

    def largest_gap(q, start):
        return float(categorical_w1(stack[start : n - q], stack[start + q :], grid).max())

    return scan_oscillation(n, largest_gap)


def trace_atoms_to_csv(trace: IterationTrace, path) -> None:
    """One row per (iteration, entry, atom): iteration, entry_id,
    atom_or_gridpoint, weight."""

    def rows():
        for n, mu in enumerate(trace.iterates):
            for (x, a), dist in mu:
                categorical = isinstance(dist, CategoricalDistribution)
                points, weights = (dist.grid, dist.probs) if categorical else (dist.atoms, dist.weights)
                for z, w in zip(points.tolist(), weights.tolist()):
                    yield n, f"x{x}_a{a}", z, w

    write_csv(path, ["iteration", "entry_id", "atom_or_gridpoint", "weight"], rows())
