"""Executable property suites: contraction, fixed points, projection laws,
metric axioms, monotonicity, mean tracking, and the target microbenchmark,
with the seeded random instances they draw.

Every property runs a seeded randomized case loop into one PropertyResult:
record(violation, **case) counts the case, keeps the largest violation, and
records the first case above the tolerance through _as_json, the one JSON
writer of every recorded value; no code replays it.
The result reports (name, cases, max_violation, passed) and that failing
case when one exists. The verify CLI command aggregates these into a
machine-readable report and a process exit code.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from statistics import median
from typing import Optional

import numpy as np

from .distributions import (
    AtomicDistribution,
    CategoricalDistribution,
    DistributionCollection,
    categorical_means,
    categorical_w1,
    cramer_project,
    dirac,
    dominance_excess,
    project_points,
    sup_wasserstein,
    sup_wasserstein_ps,
    wasserstein,
    wasserstein_ps,
)
from .dp import _projected_closed_form, _state_values, categorical_start, iterate, solve_q_star
from .learning import ExplorationSchedule, StepSizeSchedule, _add_dirac, _block_actions, _cdrl_update, _os_update
from .learning import _Tables
from .mdp import EpisodicEnv, Policy, TabularMdp, make_frozen_lake, make_toy_mdp, sample_step
from .operators import (
    _project_collection,
    bellman_eval,
    bellman_opt,
    categorical_full_opt,
    categorical_full_opt_batch,
    categorical_os_eval,
    categorical_os_opt,
    distr_bellman_eval,
    distr_bellman_opt,
    os_distr_eval,
    os_distr_opt,
    projected,
)

TOY_GRID = (0.0, 1.9, 2.1, 10.0)


@dataclass
class PropertyResult:
    """One property's record: its case count, its largest violation, and
    its first case above tol as JSON, kept to be read (nothing replays it).
    It passes when no violation exceeds tol; to_json leaves tol out."""

    name: str
    tol: float
    cases: int = 0
    max_violation: float = 0.0
    failing_case: Optional[dict] = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def record(self, violation, **case) -> None:
        self.cases += 1
        if violation > self.max_violation:
            self.max_violation = float(violation)
        if violation > self.tol and self.failing_case is None:
            self.failing_case = _as_json(case)

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "cases": self.cases,
            "max_violation": self.max_violation,
            "passed": self.passed,
        }
        if self.failing_case is not None:
            doc["failing_case"] = self.failing_case
        if self.details:
            doc["details"] = self.details
        return doc


def _as_json(value):
    """A value as JSON, a dict's None values left out; the constructors are
    the readers: AtomicDistribution(**doc), CategoricalDistribution(**doc),
    TabularMdp(kernel=..., reward=..., discount=...) (README, File formats)."""
    if isinstance(value, dict):
        return {key: _as_json(v) for key, v in value.items() if v is not None}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, TabularMdp):
        return {"n_states": value.n_states, "n_actions": value.n_actions, "discount": value.discount,
                "kernel": value.kernel.tolist(), "reward": value.reward.tolist()}
    if isinstance(value, (AtomicDistribution, CategoricalDistribution)):
        return _as_json(asdict(value))
    if isinstance(value, Policy):
        return value.probs.tolist()
    if isinstance(value, DistributionCollection):
        return [[_as_json(value[x, a]) for a in range(value.n_actions)] for x in range(value.n_states)]
    if isinstance(value, np.generic):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# Seeded random instances for the property suites: Dirichlet(1, ..., 1)
# kernel rows, rewards uniform on [-1, 1], discount drawn from {0.5, 0.9}.


def random_mdp(
    rng: np.random.Generator,
    n_states: int = 3,
    n_actions: int = 2,
    discounts=(0.5, 0.9),
) -> TabularMdp:
    kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    reward = rng.uniform(-1.0, 1.0, size=(n_states, n_actions, n_states))
    return TabularMdp(kernel=kernel, reward=reward, discount=float(rng.choice(discounts)))


def random_policy(rng: np.random.Generator, n_states: int, n_actions: int) -> Policy:
    return Policy(rng.dirichlet(np.ones(n_actions), size=n_states))


def random_atomic(
    rng: np.random.Generator, max_atoms: int = 4, low: float = -2.0, high: float = 2.0
) -> AtomicDistribution:
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(low, high, size=n)
    return AtomicDistribution.from_points(atoms, rng.dirichlet(np.ones(n)))


def random_collection(
    rng: np.random.Generator, n_states: int, n_actions: int, **kwargs
) -> DistributionCollection:
    return DistributionCollection.build(
        n_states, n_actions, lambda x, a: random_atomic(rng, **kwargs)
    )


def random_probs(
    rng: np.random.Generator, n_states: int, n_actions: int, k: int, zero_frac: float = 0.3
) -> np.ndarray:
    """(n_states, n_actions, k) probability vectors with about zero_frac of
    the cells empty."""
    probs = rng.dirichlet(np.ones(k), size=(n_states, n_actions))
    probs[rng.random(probs.shape) < zero_frac] = 0.0
    probs[probs.sum(axis=-1) == 0.0, 0] = 1.0
    return probs / probs.sum(axis=-1, keepdims=True)


def random_grid(rng: np.random.Generator, max_points: int = 8) -> np.ndarray:
    """Strictly increasing support with neighbouring points at least 0.05 apart."""
    k = int(rng.integers(2, max_points + 1))
    start = rng.uniform(-10.0, 5.0)
    gaps = rng.uniform(0.05, 3.0, size=k - 1)
    return start + np.concatenate(([0.0], np.cumsum(gaps)))


def _near_tie_pair(rng, n_states, n_actions):
    """Two collections a mean-nudge apart, with tied-mean actions of
    different shapes at every state (so the greedy choice is unstable)."""
    span = float(rng.uniform(0.5, 2.0))

    def collection(z):  # action 0 spread at +-span, the others dirac(z)
        return DistributionCollection.build(
            n_states, n_actions, lambda x, a: dirac(z) if a else AtomicDistribution([-span, span], [0.5, 0.5])
        )

    return collection(0.0), collection(1e-6)


def check_contraction_suite(seed: int = 0, n_cases: int = 1000) -> list:
    """Random (MDP, mu1, mu2) triples: the one-step operators contract in
    sup-W_p for p in {1, 2, 4}, their projections contract in sup-W1, the
    full evaluation operator contracts in sup-W_p; expansion of the greedy
    full operator is recorded, not asserted."""
    rng = np.random.default_rng(seed)
    ps = (1.0, 2.0, 4.0)
    results = [
        PropertyResult(name, 1e-10)
        for name in (
            "one_step_eval_contraction",
            "one_step_opt_contraction",
            "projected_one_step_eval_contraction_w1",
            "projected_one_step_opt_contraction_w1",
            "full_eval_contraction",
        )
    ]
    # tolerance infinity: expansion is expected, so it is counted and its largest case kept
    greedy = PropertyResult("full_opt_contraction_violations", math.inf, cases=n_cases, details={"violations": 0})
    greedy_example = None
    for case_index in range(n_cases):
        n_states = int(rng.integers(2, 5))
        n_actions = int(rng.integers(2, 4))
        mdp = random_mdp(rng, n_states, n_actions)
        pi = random_policy(rng, n_states, n_actions)
        if case_index % 4 == 0:
            # near-tie pair: a hair's width of mean difference flips the
            # greedy action between two differently shaped distributions,
            # the regime where the greedy full operator expands
            mu1, mu2 = _near_tie_pair(rng, n_states, n_actions)
        else:
            mu1 = random_collection(rng, n_states, n_actions, max_atoms=3)
            mu2 = random_collection(rng, n_states, n_actions, max_atoms=3)
        grid = random_grid(rng, max_points=5)
        gamma = mdp.discount
        case = dict(mdp=mdp, policy=pi, mu1=mu1, mu2=mu2, grid=grid)
        # one quantile refinement per entry pair serves every p
        before = sup_wasserstein_ps(mu1, mu2, ps)
        ev1, ev2 = os_distr_eval(mu1, mdp, pi), os_distr_eval(mu2, mdp, pi)
        op1, op2 = os_distr_opt(mu1, mdp), os_distr_opt(mu2, mdp)
        outputs = (  # in the order of results; the projections in W1 only
            (ev1, ev2, ps),
            (op1, op2, ps),
            (_project_collection(ev1, grid), _project_collection(ev2, grid), ps[:1]),
            (_project_collection(op1, grid), _project_collection(op2, grid), ps[:1]),
            (distr_bellman_eval(mu1, mdp, pi), distr_bellman_eval(mu2, mdp, pi), ps),
        )
        for result, (out1, out2, qs) in zip(results, outputs):
            for d, after in zip(before, sup_wasserstein_ps(out1, out2, qs)):
                result.record(after - gamma * d, **case)
        fo1 = distr_bellman_opt(mu1, mdp)
        fo2 = distr_bellman_opt(mu2, mdp)
        excess = sup_wasserstein(fo1, fo2, 1.0) - gamma * before[0]
        if excess > 1e-12:
            greedy.details["violations"] += 1
            if excess > greedy.max_violation:
                greedy.max_violation, greedy_example = float(excess), case
    greedy.details["example"] = _as_json(greedy_example)
    return [*results, greedy]


def _fitting_grid(mdp, v, k: int = 7) -> np.ndarray:
    targets = mdp.reward + mdp.discount * v[None, None, :]
    lo, hi = float(targets.min()), float(targets.max())
    pad = 0.1 * (hi - lo) + 0.1
    return np.linspace(lo - pad, hi + pad, k)


def check_fixed_points(seed: int = 0) -> list:
    """Iterating the projected one-step operators from the all-delta(z1)
    collection reaches the projection of the closed-form fixed point within
    1e-8, on the toy MDP and 10 random control and 5 random evaluation
    instances satisfying the range condition. The array operators iterate;
    one object-level application at the closed form checks it against the
    exact layer."""
    rng = np.random.default_rng(seed)
    tol = 1e-8
    # (mdp, policy, grid): no policy is control; no grid fits one to the targets
    cases = [(make_toy_mdp(), None, np.asarray(TOY_GRID))]
    cases += [(random_mdp(rng, int(rng.integers(2, 5)), 2), None, None) for _ in range(10)]
    cases.append((make_toy_mdp(), Policy.uniform(2, 2), np.asarray(TOY_GRID)))
    for _ in range(5):
        mdp = random_mdp(rng, int(rng.integers(2, 5)), 2)
        cases.append((mdp, random_policy(rng, mdp.n_states, 2), None))
    results = {kind: PropertyResult(f"projected_fixed_point_{kind}", tol) for kind in ("control", "eval")}
    for mdp, pi, grid in cases:
        v = _state_values(mdp, 1e-12, pi)
        if grid is None:
            grid = _fitting_grid(mdp, v)
        eta, residual = _projected_closed_form(mdp, grid, v, 1e-12, pi)
        if pi is None:
            op = lambda m: os_distr_opt(m, mdp)
        else:
            op = lambda m: os_distr_eval(m, mdp, pi)
        exact = sup_wasserstein(projected(op, grid)(eta), eta, 1.0)
        results["control" if pi is None else "eval"].record(max(residual, exact) - tol, mdp=mdp, grid=grid, policy=pi)
    return list(results.values())


def check_projection_lemma(seed: int = 0, n_cases: int = 10_000) -> PropertyResult:
    """W1 of projected point masses never exceeds the original separation."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("projection_w1_nonexpansive_on_diracs", 1e-10)
    for _ in range(n_cases):
        grid = random_grid(rng)
        a, b = rng.uniform(-15.0, 15.0, size=2)
        d = wasserstein(cramer_project(dirac(a), grid), cramer_project(dirac(b), grid), 1.0)
        result.record(d - abs(a - b), grid=grid, a=a, b=b)
    return result


def check_mean_preservation(seed: int = 0, n_cases: int = 10_000) -> PropertyResult:
    """Projection preserves the mean exactly for support inside [z1, zK]."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("projection_mean_preservation", 1e-12)
    for _ in range(n_cases):
        grid = random_grid(rng)
        n = int(rng.integers(1, 6))
        atoms = rng.uniform(grid[0], grid[-1], size=n)
        nu = AtomicDistribution.from_points(atoms, rng.dirichlet(np.ones(n)))
        err = abs(cramer_project(nu, grid).mean() - nu.mean())
        result.record(err - 1e-12, grid=grid, nu=nu)
    return result


def _dominated_pair(rng, base):
    shifts = rng.uniform(0.0, 2.0, size=base.atoms.size)
    return AtomicDistribution.from_points(base.atoms + shifts, base.weights)


def check_projection_monotonicity(seed: int = 0, n_cases: int = 2000) -> PropertyResult:
    """Stochastic dominance survives the categorical projection."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("projection_monotone_in_dominance", 1e-12)
    for _ in range(n_cases):
        grid = random_grid(rng)
        nu1 = random_atomic(rng, max_atoms=4, low=-5.0, high=5.0)
        nu2 = _dominated_pair(rng, nu1)
        excess = dominance_excess(cramer_project(nu2, grid), cramer_project(nu1, grid))
        result.record(excess, grid=grid, lo=nu1, hi=nu2)
    return result


def check_operator_monotonicity(seed: int = 0, n_cases: int = 400) -> PropertyResult:
    """Entrywise dominance is preserved by the one-step optimality operator
    and its projection."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("one_step_monotone_in_dominance", 1e-12)
    for _ in range(n_cases):
        mdp = random_mdp(rng, int(rng.integers(2, 4)), 2)
        mu1 = random_collection(rng, mdp.n_states, mdp.n_actions, max_atoms=3)
        mu2 = DistributionCollection.build(
            mdp.n_states, mdp.n_actions, lambda x, a: _dominated_pair(rng, mu1[x, a])
        )
        grid = random_grid(rng, max_points=5)
        out1, out2 = os_distr_opt(mu1, mdp), os_distr_opt(mu2, mdp)
        pr1, pr2 = _project_collection(out1, grid), _project_collection(out2, grid)
        excess = max(
            dominance_excess(hi[x, a], lo[x, a]) for lo, hi in ((out1, out2), (pr1, pr2)) for (x, a), _ in lo
        )
        result.record(excess, mdp=mdp, mu_lo=mu1, mu_hi=mu2, grid=grid)
    return result


def check_wasserstein_axioms(seed: int = 0, n_cases: int = 1000) -> list:
    rng = np.random.default_rng(seed)
    symmetry = PropertyResult("wasserstein_symmetry", 1e-12)
    identity = PropertyResult("wasserstein_identity", 1e-12)
    triangle = PropertyResult("wasserstein_triangle", 1e-10)
    ps = (1.0, 2.0, 4.0)
    for _ in range(n_cases):
        a = random_atomic(rng, max_atoms=5)
        b = random_atomic(rng, max_atoms=5)
        c = random_atomic(rng, max_atoms=5)
        case = dict(a=a, b=b, c=c)
        # one refinement per ordered pair: (b, a) is not (a, b)'s, or symmetry checks nothing
        ab, ba, aa, ac, cb = (wasserstein_ps(u, v, ps) for u, v in ((a, b), (b, a), (a, a), (a, c), (c, b)))
        for i in range(len(ps)):
            symmetry.record(abs(ab[i] - ba[i]), **case)
            identity.record(aa[i], **case)
            triangle.record(ab[i] - ac[i] - cb[i], **case)
    return [symmetry, identity, triangle]


def check_w1_riemann_agreement(seed: int = 0, n_cases: int = 200) -> PropertyResult:
    """Exact W1 against an independent CDF-area Riemann sum on lattice atoms
    (lattice spacing keeps the midpoint rule exact)."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("w1_matches_riemann_cdf_area", 1e-6)
    step = 1.0 / 64

    def lattice(n):
        values = rng.integers(-512, 512, size=n) * step
        return AtomicDistribution.from_points(values, rng.dirichlet(np.ones(n)))

    for _ in range(n_cases):
        a = lattice(int(rng.integers(1, 6)))
        b = lattice(int(rng.integers(1, 6)))
        exact = wasserstein(a, b, 1.0)
        lo = min(a.atoms[0], b.atoms[0]) - step
        hi = max(a.atoms[-1], b.atoms[-1]) + step
        mids = np.arange(lo + step / 4, hi, step / 2)
        riemann = float(np.sum(np.abs(a.cdf(mids) - b.cdf(mids))) * step / 2)
        rel = abs(exact - riemann) / exact if exact > 0 else float(riemann > 1e-12)
        result.record(rel - 1e-6, a=a, b=b)
    return result


def check_categorical_w1(seed: int = 0, n_cases: int = 2000) -> PropertyResult:
    """The shared-grid W1 kernel agrees with the exact quantile W1 on random
    grids and probability vectors, zero cells and identical pairs included."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("categorical_w1_matches_exact", 1e-12)

    def probs(k):
        p = rng.dirichlet(np.ones(k))
        p[rng.random(k) < 0.3] = 0.0
        if p.sum() == 0.0:
            p[rng.integers(k)] = 1.0
        return p / p.sum()

    for case_index in range(n_cases):
        grid = random_grid(rng)
        p = probs(grid.size)
        q = p if case_index % 5 == 0 else probs(grid.size)
        exact = wasserstein(CategoricalDistribution(grid, p), CategoricalDistribution(grid, q), 1.0)
        result.record(abs(float(categorical_w1(p, q, grid)) - exact), grid=grid, p=p, q=q)
    return result


# Memory layouts of an (n, m, K) probability stack that keep its values:
# a row's mean must not depend on how its cells sit in memory.
_LAYOUTS = {
    "contiguous": lambda p: p,
    "reversed": lambda p: p[..., ::-1].copy()[..., ::-1],  # negative strides
    "fortran": np.asfortranarray,
    "strided": lambda p: np.repeat(p, 2, axis=-1)[..., ::2],
    "axis_moved": lambda p: np.moveaxis(np.moveaxis(p, -1, 0).copy(), 0, -1),
    "sliced": lambda p: p[1:, 1:],
    "broadcast": lambda p: np.broadcast_to(p[:1], p.shape),
    "one_row": lambda p: p[0, 0],
}
# grid sizes on both sides of OpenBLAS's 16- and 32-cell block edges
_MEANS_KS = (2, 3, 4, 15, 16, 17, 31, 32, 33, 51, 201)


def check_categorical_means(seed: int = 0, n_cases: int = 200) -> PropertyResult:
    """categorical_means equals CategoricalDistribution.mean entry by entry,
    bit for bit (tolerance 0, max abs difference reported), on random stacks
    in every layout of _LAYOUTS and on contiguous, reversed and strided
    grids, at every K of _MEANS_KS."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("categorical_means_match_entry_means", 0.0)
    layouts = list(_LAYOUTS)
    for case_index in range(n_cases):
        k = _MEANS_KS[case_index % len(_MEANS_KS)]
        layout = layouts[case_index % len(layouts)]
        grid_layout = ("contiguous", "reversed", "strided")[case_index % 3]
        grid = _LAYOUTS[grid_layout](np.cumsum(rng.uniform(0.05, 3.0, size=k)) - 10.0)
        probs = random_probs(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)), k)
        stack = _LAYOUTS[layout](probs)
        got = categorical_means(stack, grid)
        want = np.zeros(stack.shape[:-1])
        for index in np.ndindex(want.shape):
            want[index] = CategoricalDistribution(grid, stack[index]).mean()
        shaped = isinstance(got, np.ndarray) and got.shape == want.shape
        diff = float(np.max(np.abs(got - want))) if shaped else math.inf
        result.record(
            0.0 if shaped and np.array_equal(got, want) else (diff if diff > 0.0 else math.inf),
            layout=layout,
            grid_layout=grid_layout,
            grid=grid,
            probs=probs,
        )
    return result


def _tied(rng, probs, near: bool) -> np.ndarray:
    """Every action takes action 0's probabilities, so the greedy step sees
    exact ties; near=True then moves a few ulp of mass between two cells of
    the last action, so its mean sits a rounding step from the others."""
    probs = np.repeat(probs[:, :1], probs.shape[1], axis=1)
    if near:
        for row in probs[:, -1]:
            src = int(rng.choice(np.flatnonzero(row > 0.0)))
            moved = row[src] * 2.0**-52 * float(rng.integers(1, 4))
            row[src] -= moved
            row[(src + 1) % row.size] += moved
    return probs


def check_categorical_operators(seed: int = 0, n_cases: int = 120) -> PropertyResult:
    """The array forms of the projected operators equal their object-level
    compositions bit for bit (tolerance 0, max abs difference reported).

    Case 0 is Frozen Lake, through the one-step operators that its W1
    reference iterates; the rest cycle through the toy family at random
    r_a (random inputs with exact or near ties, and an iterate of the full
    operator, where tied means dither), r_a = 1.5 (the two successors of
    (x1, a2) pay the same reward, so their atoms coincide), random MDPs on
    narrow grids that clamp three or more atoms per entry, random MDPs whose
    successors' rewards lie within 1e-12 (merged by from_points), and random
    MDPs with stochastic evaluation policies. The toy cases then go once more
    through one categorical_full_opt_batch of all their MDPs."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("categorical_operators_match_object", 0.0)
    compared, toy = [], []  # (operator, array result, object result, mdp, grid, probs, policy)
    for case_index in range(n_cases):
        family = (case_index - 1) % 6 if case_index else None
        if family is None:
            mdp, grid = make_frozen_lake().mdp, np.array([0.0, 10.0, 20.0])
        elif family < 3:
            # family 2 draws r_a from the window where the search finds oscillations
            r_a = (float(rng.uniform(0.0, 3.0)), 1.5, float(rng.uniform(1.8, 2.2)))[family]
            mdp, grid = make_toy_mdp(r_a), np.asarray(TOY_GRID)
        elif family == 3:
            # 9 atoms per entry on a narrow grid: around 0 they clamp on
            # both sides, below -11.9 all clamp above (rewards >= -1, gamma
            # <= 0.9), where numpy sums the clamped mass pairwise
            mdp = random_mdp(rng, 3, 2)
            grid = float(rng.choice([0.0, -12.0])) + np.array([-0.05, 0.0, 0.05])
        else:
            mdp, grid = random_mdp(rng, 3, 2), random_grid(rng, max_points=5)
            if family == 4:
                reward = mdp.reward.copy()
                reward[..., 1] = reward[..., 0] + rng.choice([0.0, 3e-13, 9e-13, 3e-12], size=reward.shape[:2])
                mdp = TabularMdp(kernel=mdp.kernel, reward=reward, discount=mdp.discount)
        probs = random_probs(rng, mdp.n_states, mdp.n_actions, grid.size, zero_frac=0.0 if family == 3 else 0.3)
        if family == 2:
            op, probs = categorical_full_opt(mdp, grid), categorical_start(mdp, grid).probs()
            for _ in range(int(rng.integers(20, 140))):
                probs = op(probs)
        elif family is not None and case_index % 3:
            probs = _tied(rng, probs, near=case_index % 3 == 2)
        pi = random_policy(rng, mdp.n_states, mdp.n_actions)
        mu = DistributionCollection.build(
            mdp.n_states, mdp.n_actions, lambda x, a: CategoricalDistribution(grid, probs[x, a])
        )
        pairs = (
            ("full_opt", categorical_full_opt(mdp, grid), lambda m: distr_bellman_opt(m, mdp)),
            ("one_step_opt", categorical_os_opt(mdp, grid), lambda m: os_distr_opt(m, mdp)),
            ("one_step_eval", categorical_os_eval(mdp, pi, grid), lambda m: os_distr_eval(m, mdp, pi)),
        )
        for name, array_op, object_op in pairs[family is None :]:  # Frozen Lake: its reference's operators
            compared.append((name, array_op(probs), projected(object_op, grid)(mu).probs(), mdp, grid, probs, pi))
            if name == "full_opt" and family in (0, 1, 2):
                toy.append(compared[-1])
    if toy:  # the toy cases once more, through one batched application of their MDPs
        batched = categorical_full_opt_batch([c[3] for c in toy], TOY_GRID)(np.stack([c[5] for c in toy]))
        compared += [("full_opt_batch", got, *case[2:]) for got, case in zip(batched, toy)]
    for name, got, want, mdp, grid, probs, pi in compared:
        diff = float(np.max(np.abs(got - want)))
        result.record(
            0.0 if np.array_equal(got, want) else (diff if diff > 0.0 else math.inf),
            operator=name,
            mdp=mdp,
            grid=grid,
            probs=probs,
            policy=pi,
        )
    return result


def _expected_update(update, tables, mdp, x, a, alpha) -> np.ndarray:
    """Row (x, a) after one update at step size alpha, averaged over the
    successors x' ~ P(.|x, a): one call of the learner's update per
    successor, each from the same tables."""
    row, mean = tables.probs[x, a].copy(), tables.q[x][a]
    expected = np.zeros(row.size)
    for x_next in np.flatnonzero(mdp.kernel[x, a]):
        update(tables, x, a, float(mdp.reward[x, a, x_next]), int(x_next), alpha)
        expected += mdp.kernel[x, a, x_next] * tables.probs[x, a]
        tables.probs[x, a], tables.q[x][a] = row, mean
        tables.targets[x].clear()
    return expected


def check_mean_field(seed: int = 0, n_cases: int = 100) -> PropertyResult:
    """Each learner's expected update is a step toward its projected
    operator: averaged over x' ~ P(.|x,a), one update of row (x, a) at step
    size alpha equals (1 - alpha) p + alpha op(p) at (x, a), to 1e-12, for
    every entry. The one-step learner's op is categorical_os_opt (control) or
    categorical_os_eval (eval), the baseline's categorical_full_opt (control)
    or the object-level projected full evaluation operator (eval); the
    projection is linear, so the mixture over successors commutes with it.
    Random MDPs and grids, clamped targets included; a third of the cases
    give every action the same row (exact greedy ties) and a third move a few
    ulp of mass in the last action (ties a rounding step apart)."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("learner_mean_field", 1e-12)
    for case_index in range(n_cases):
        mdp = random_mdp(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        grid = random_grid(rng, max_points=5)
        probs = random_probs(rng, mdp.n_states, mdp.n_actions, grid.size, zero_frac=0.3)
        if case_index % 3:
            probs = _tied(rng, probs, near=case_index % 3 == 2)
        pi = random_policy(rng, mdp.n_states, mdp.n_actions)
        alpha = float(rng.uniform(0.05, 1.0))
        mu = DistributionCollection.build(
            mdp.n_states, mdp.n_actions, lambda x, a: CategoricalDistribution(grid, probs[x, a])
        )
        ops = (
            ("os", "control", _os_update, None, categorical_os_opt(mdp, grid)(probs)),
            ("os", "eval", _os_update, pi, categorical_os_eval(mdp, pi, grid)(probs)),
            ("cdrl", "control", _cdrl_update, None, categorical_full_opt(mdp, grid)(probs)),
            ("cdrl", "eval", _cdrl_update, pi, projected(lambda m: distr_bellman_eval(m, mdp, pi), grid)(mu).probs()),
        )
        for algo, mode, update, policy, target in ops:
            tables = _Tables(probs.copy(), grid, mdp.discount, policy)
            step = (1.0 - alpha) * probs + alpha * target
            gap = max(
                float(np.max(np.abs(_expected_update(update, tables, mdp, x, a, alpha) - step[x, a])))
                for x in range(mdp.n_states)
                for a in range(mdp.n_actions)
            )
            result.record(gap, algo=algo, mode=mode, mdp=mdp, grid=grid, probs=probs, policy=pi, alpha=alpha)
    return result


# Exploration schedules at which _block_actions must decide as epsilon(t)
# does: falling, rising, rate 0, epsilon exactly 0 and exactly 1, and a rate
# at which -rate * t overflows; and block starts where exp(-rate * t) is
# near 1 and where it has decayed.
_SCHEDULES = {
    "falling": ExplorationSchedule(),
    "rising": ExplorationSchedule(eps_start=0.05, eps_end=0.9, rate=2e-4),
    "rate_0": ExplorationSchedule(eps_start=0.3, eps_end=0.7, rate=0.0),
    "eps_0": ExplorationSchedule(eps_start=0.0, eps_end=0.0),
    "eps_1": ExplorationSchedule(eps_start=1.0, eps_end=1.0),
    "rate_overflows": ExplorationSchedule(eps_start=0.9, eps_end=0.1, rate=1e308),
}
_STARTS = (0, 1024, 49_152)


def _near_epsilon(exploration: ExplorationSchedule, start: int, n: int, side: int) -> np.ndarray:
    """u0 for steps start, ..., start + n - 1: each step's epsilon(t)
    (side 0), or the float next to it below (side -1) or above (side 1)."""
    eps = np.array([exploration.epsilon(t) for t in range(start, start + n)])
    return np.nextafter(eps, side * np.inf) if side else eps


def check_exploration_decisions(seed: int = 0, n_cases: int = 60) -> PropertyResult:
    """_block_actions decides every step as the scalar u0 < epsilon(t) and
    min(int(u1 * A), A - 1) do, at tolerance 0 (the violation counts the
    steps decided otherwise), on blocks of 256 steps whose u0 sit on
    epsilon(t) or a float to either side and whose last u1 is the largest
    float below 1: the schedules of _SCHEDULES first, then random ones."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("exploration_decisions_match_scalar", 0.0)
    named = list(_SCHEDULES.values())
    for case_index in range(n_cases):
        rate = float(rng.choice([0.0, 10.0 ** rng.uniform(-6.0, -2.0)]))
        ex = named[case_index] if case_index < len(named) else ExplorationSchedule(*rng.random(2).tolist(), rate)
        start, n_actions = int(rng.choice([*_STARTS, int(rng.integers(0, 200_000))])), int(rng.integers(2, 6))
        u0 = np.choose(rng.integers(0, 3, 256), [_near_epsilon(ex, start, 256, side) for side in (-1, 0, 1)])
        u1 = np.append(rng.random(255), np.nextafter(1.0, 0.0))
        want = [
            min(int(b * n_actions), n_actions - 1) if a < ex.epsilon(t) else -1
            for t, a, b in zip(range(start, start + 256), u0.tolist(), u1.tolist())
        ]
        got = _block_actions(ex, start, u0, u1, n_actions)
        result.record(
            float(sum(g != w for g, w in zip(got, want))),
            schedule=[ex.eps_start, ex.eps_end, ex.rate],
            start=start,
            n_actions=n_actions,
            u0=u0,
            u1=u1,
        )
    return result


def check_mean_commutation(seed: int = 0, n_cases: int = 300) -> PropertyResult:
    """Entrywise means of every distributional operator output equal the
    scalar Bellman operator applied to entrywise means; projected variants
    agree whenever all targets lie inside the grid."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("mean_commutation", 1e-10)
    for _ in range(n_cases):
        mdp = random_mdp(rng, int(rng.integers(2, 5)), 2)
        pi = random_policy(rng, mdp.n_states, 2)
        mu = random_collection(rng, mdp.n_states, 2, max_atoms=3)
        q = mu.means()
        err = np.max(np.abs(distr_bellman_eval(mu, mdp, pi).means() - bellman_eval(q, mdp, pi)))
        err = max(err, np.max(np.abs(distr_bellman_opt(mu, mdp).means() - bellman_opt(q, mdp))))
        err = max(err, np.max(np.abs(os_distr_eval(mu, mdp, pi).means() - bellman_eval(q, mdp, pi))))
        out_opt = os_distr_opt(mu, mdp)
        err = max(err, np.max(np.abs(out_opt.means() - bellman_opt(q, mdp))))
        # projected variant on a grid that covers every one-step target
        v = q.max(axis=1)
        grid = _fitting_grid(mdp, v)
        projected_means = _project_collection(out_opt, grid).means()
        err = max(err, np.max(np.abs(projected_means - bellman_opt(q, mdp))))
        result.record(err, mdp=mdp, policy=pi, mu=mu)
    return result


def check_banach_residual(seed: int = 0, n_cases: int = 50) -> PropertyResult:
    """Successive step distances along contractive-operator traces decay by
    at least the discount factor."""
    rng = np.random.default_rng(seed)
    result = PropertyResult("banach_residual_decay", 1e-10)
    for _ in range(n_cases):
        mdp = random_mdp(rng, int(rng.integers(2, 4)), 2)
        pi = random_policy(rng, mdp.n_states, 2)
        mu0 = random_collection(rng, mdp.n_states, 2, max_atoms=3)
        grid = _fitting_grid(mdp, solve_q_star(mdp, tol=1e-10).max(axis=1))
        ops = [
            lambda m: os_distr_eval(m, mdp, pi),
            lambda m: os_distr_opt(m, mdp),
            projected(lambda m: os_distr_opt(m, mdp), grid),
        ]
        for op in ops:
            iterates = iterate(op, mu0, 8)
            steps = [sup_wasserstein(nxt, cur, 1.0) for cur, nxt in zip(iterates, iterates[1:])]
            for n in range(1, len(steps)):
                result.record(steps[n] - mdp.discount * steps[n - 1], mdp=mdp)
    return result


def check_mean_tracking(seed: int = 0, n_steps: int = 10_000) -> PropertyResult:
    """Identical transition streams drive the one-step update's entrywise
    means and an independently coded scalar learner to the same iterates."""
    env = EpisodicEnv(mdp=make_toy_mdp(), terminal_states=frozenset({1}), initial_state=0)
    mdp = env.mdp
    rng = np.random.default_rng(seed)
    schedule = StepSizeSchedule.polynomial(c=1.0, omega=0.7)
    grid = np.asarray(TOY_GRID)
    pi = Policy.uniform(2, 2)
    result = PropertyResult("mean_tracking_vs_scalar_learner", 1e-9)
    for mode in ("control", "eval"):
        probs = categorical_start(mdp, grid).probs()
        tables = _Tables(probs, grid, mdp.discount, pi if mode == "eval" else None)
        q = np.zeros((2, 2))
        visits = np.zeros((2, 2), dtype=int)
        x = env.initial_state
        for t in range(1, n_steps + 1):
            if x in env.terminal_states:
                x = env.initial_state
            a = int(rng.integers(2))
            tr = sample_step(env, x, a, rng)
            _os_update(tables, x, a, tr.reward, tr.next_state, float(schedule.step_size(visits[x, a])))
            # scalar update, written independently of the learner module
            alpha = 1.0 / (1.0 + visits[tr.state, tr.action]) ** 0.7
            if mode == "control":
                boot = q[tr.next_state].max()
            else:
                boot = float(pi.probs[tr.next_state] @ q[tr.next_state])
            q[tr.state, tr.action] = (1 - alpha) * q[tr.state, tr.action] + alpha * (
                tr.reward + mdp.discount * boot
            )
            visits[tr.state, tr.action] += 1
            x = tr.next_state
            result.record(float(np.max(np.abs(categorical_means(probs, grid) - q))), step=t, mode=mode)
    return result


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


def check_target_complexity(seed: int = 0, fast: bool = False) -> tuple:
    """Table-style complexity comparison: the dense target's cost grows with
    K while the sparse target touches at most two cells."""
    bench = target_microbenchmark(
        k_values=(8, 64, 512, 4096),
        n_reps=16 if fast else 64,
        seed=seed,
        n_inputs=16 if fast else 32,
    )
    result = PropertyResult(
        "target_complexity",
        0.0,
        cases=len(bench.rows),
        max_violation=0.0 if bench.ratio_increasing and bench.max_cells <= 2 else 1.0,
        details={"ratios": [row["ratio"] for row in bench.rows], "max_cells": bench.max_cells},
    )
    return result, bench


def run_properties(seed: int = 0, fast: bool = False):
    """Run every suite; returns (results, microbenchmark, suites), where
    suites lists each check_* suite's {name, seconds} in run order."""
    scale = 10 if fast else 1
    results, suites = [], []

    def run(check, **kwargs):
        start = time.perf_counter()
        out = check(seed, **kwargs)
        suites.append({"name": check.__name__, "seconds": time.perf_counter() - start})
        return out

    results += run(check_contraction_suite, n_cases=1000 // scale)
    results += run(check_fixed_points)
    results.append(run(check_projection_lemma, n_cases=10_000 // scale))
    results.append(run(check_mean_preservation, n_cases=10_000 // scale))
    results.append(run(check_projection_monotonicity, n_cases=2000 // scale))
    results.append(run(check_operator_monotonicity, n_cases=400 // scale))
    results += run(check_wasserstein_axioms, n_cases=1000 // scale)
    results.append(run(check_w1_riemann_agreement, n_cases=200 // scale))
    results.append(run(check_categorical_w1, n_cases=2000 // scale))
    results.append(run(check_categorical_means, n_cases=200 // scale))
    results.append(run(check_categorical_operators, n_cases=120 // scale))
    results.append(run(check_mean_commutation, n_cases=300 // scale))
    results.append(run(check_banach_residual, n_cases=50 // scale))
    results.append(run(check_mean_tracking, n_steps=10_000 // scale))
    results.append(run(check_mean_field, n_cases=100 // scale))
    results.append(run(check_exploration_decisions, n_cases=60 // scale))
    complexity, bench = run(check_target_complexity, fast=fast)
    results.append(complexity)
    return results, bench, suites
