import copy
import csv
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import partial
from operator import mul

import numpy as np
import pytest

import osdrl.learning
import osdrl.verify
from osdrl import (
    EpisodicEnv,
    ExplorationSchedule,
    Policy,
    StepSizeSchedule,
    TabularMdp,
    categorical_means,
    categorical_start,
    greedy_policy,
    make_frozen_lake,
    make_toy_mdp,
    project_points,
    projected_fixed_points,
    run_learning,
    solve_q_star,
    write_learning_csv,
)
from osdrl.learning import ALGOS, _BLOCK, _add_dirac, _block_actions, _cdrl_update, _os_update, _Tables
from osdrl.verify import (
    _SCHEDULES,
    _STARTS,
    _near_epsilon,
    check_exploration_decisions,
    check_mean_field,
    check_mean_tracking,
    random_mdp,
    target_microbenchmark,
)

TOY_GRID = np.array([0.0, 1.9, 2.1, 10.0])
LAKE_GRID = np.array([0.0, 10.0, 20.0])


def toy_env():
    return EpisodicEnv(mdp=make_toy_mdp(), terminal_states=frozenset({1}), initial_state=0)


def five_state_env():
    """A seeded 5-state MDP whose last state is terminal, with episodes
    starting at state 2: restarts land on a state other than 0."""
    mdp = random_mdp(np.random.default_rng(31), n_states=5, n_actions=2, discounts=(0.9,))
    kernel, reward = mdp.kernel.copy(), mdp.reward.copy()
    kernel[4], reward[4] = 0.0, 0.0
    kernel[4, :, 4] = 1.0
    mdp = TabularMdp(kernel=kernel, reward=reward, discount=mdp.discount)
    return EpisodicEnv(mdp=mdp, terminal_states=frozenset({4}), initial_state=2)


def initial_probs(grid):
    """Two states by two actions, all mass at z_1, as a learner starts."""
    return categorical_start(make_toy_mdp(), np.asarray(grid)).probs()


def updated(update, probs, grid, transition, alpha, policy=None):
    """(tables, flag) after one update, at discount 0.5, of a _Tables over
    a copy of probs by transition (x, a, r, x_next)."""
    tables = _Tables(probs.copy(), np.asarray(grid), 0.5, policy)
    return tables, update(tables, *transition, alpha)


class TestStepSizeSchedule:
    def test_constant_bounds(self):
        sched = StepSizeSchedule.constant(0.6)
        assert sched.step_size(99) == 0.6
        assert all(sched.step_size(n) == 0.6 for n in range(1000))
        with pytest.raises(ValueError):
            StepSizeSchedule.constant(0.0)
        with pytest.raises(ValueError):
            StepSizeSchedule.constant(1.5)

    def test_polynomial_values(self):
        sched = StepSizeSchedule.polynomial(c=1.0, omega=0.7)
        assert sched.step_size(0) == 1.0
        assert sched.step_size(1) == pytest.approx(2.0 ** -0.7)

    def test_polynomial_bounds(self):
        with pytest.raises(ValueError):
            StepSizeSchedule.polynomial(c=0.0)
        with pytest.raises(ValueError):
            StepSizeSchedule.polynomial(omega=0.5)
        with pytest.raises(ValueError):
            StepSizeSchedule.polynomial(omega=1.1)
        # inf would make every step size inf; 10**400 does not fit in a float
        for c in (math.inf, math.nan, 10**400):
            with pytest.raises(ValueError, match="c must"):
                StepSizeSchedule.polynomial(c=c)

    def test_robbins_monro_partial_sums(self):
        # divergent sum, convergent squared sum for omega in (0.5, 1]
        sched = StepSizeSchedule.polynomial(c=1.0, omega=0.7)
        alphas = np.array([sched.step_size(n) for n in range(100_000)])
        assert alphas.sum() > 30  # grows like n^0.3
        assert (alphas ** 2).sum() < 3.2  # partial sums bounded by zeta(1.4) ~ 3.11


class TestExplorationSchedule:
    def test_monotone_decay(self):
        expl = ExplorationSchedule(eps_start=1.0, eps_end=0.25)
        values = [expl.epsilon(t) for t in range(0, 100_001, 1000)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.25

    def test_default_rate_hits_quarter_point(self):
        expl = ExplorationSchedule(eps_start=1.0, eps_end=0.25)
        assert expl.epsilon(50_000) == pytest.approx(0.26, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplorationSchedule(eps_start=1.5)
        with pytest.raises(ValueError):
            ExplorationSchedule(rate=-1.0)
        # inf would make epsilon(0) nan (-inf * 0), nan every epsilon, and
        # 10**400, which does not fit in a float, overflow epsilon(t)
        for rate in (math.inf, math.nan, 10**400):
            with pytest.raises(ValueError, match="rate"):
                ExplorationSchedule(rate=rate)
        assert _SCHEDULES["rate_overflows"].rate == 1e308  # finite, so still a schedule


class TestBlockActions:
    """run_learning's per-block decisions against exploration.epsilon(t)."""

    @pytest.mark.parametrize("name", list(_SCHEDULES))
    def test_ties_are_decided_as_the_scalar_epsilon_decides_them(self, name):
        # u0 on epsilon(t) and one float to either side, where np.exp alone
        # would decide some steps otherwise (asserted for the falling schedule)
        exploration, n_actions = _SCHEDULES[name], 3
        differs = 0
        for start in _STARTS:
            t = np.arange(start, start + _BLOCK)
            u1 = np.append(np.random.default_rng(start).random(_BLOCK - 1), np.nextafter(1.0, 0.0))
            if name == "falling":
                span = exploration.eps_start - exploration.eps_end
                np_eps = exploration.eps_end + span * np.exp(-exploration.rate * t)
                differs += int(np.sum(np_eps != _near_epsilon(exploration, start, _BLOCK, 0)))
            for side in (-1, 0, 1):
                u0 = _near_epsilon(exploration, start, _BLOCK, side)
                want = [
                    min(int(b * n_actions), n_actions - 1) if a < exploration.epsilon(step) else -1
                    for step, a, b in zip(t.tolist(), u0.tolist(), u1.tolist())
                ]
                assert _block_actions(exploration, start, u0, u1, n_actions) == want, (start, side)
        if name == "falling":
            assert differs > 0

    def test_verify_property_passes(self):
        result = check_exploration_decisions(seed=5, n_cases=40)
        assert result.passed and result.cases == 40, result.failing_case


class TestLearnerState:
    """The learner's start and the state a run leaves behind."""

    PAIRS = [(x, a) for x in range(2) for a in range(2)]

    def test_initial_mass_at_lowest_atom(self):
        rec = run_learning(
            toy_env(), StepSizeSchedule.constant(0.6), ExplorationSchedule(), TOY_GRID, "control", 100, seed=0,
            track=self.PAIRS,
        )
        assert rec.steps[0] == 0
        for pair in self.PAIRS:
            assert rec.tracked[pair][0].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_rejects_single_point_grid(self):
        # and grids holding nan or inf, on which the learner would run to nan means
        for grid in ([0.0], [0.0, math.nan, 2.0], [0.0, math.inf], [-math.inf, 0.0, 1.0], [0.0, math.nan, 10.0]):
            with pytest.raises(ValueError, match="grid"):
                run_learning(
                    toy_env(), StepSizeSchedule.constant(0.6), ExplorationSchedule(), grid, "control", 100, seed=0,
                )

    def test_rejects_overflowing_grid_span(self):
        # finite points whose span z_K - z_1 overflows to inf: every interior
        # gap is inf and the projected weights would be 0
        with pytest.raises(ValueError, match="grid"):
            run_learning(
                toy_env(), StepSizeSchedule.constant(0.6), ExplorationSchedule(), [-1e308, 0.0, 1e308],
                "control", 100, seed=0,
            )

    def test_q_values(self):
        rec = run_learning(
            toy_env(), StepSizeSchedule.constant(0.6), ExplorationSchedule(), TOY_GRID, "control", 100, seed=0,
            record_q=True,
        )
        assert np.all(rec.q_means[0] == 0.0)

    def test_q_values_round_like_categorical_means(self):
        # the greedy step compares means with ==: the learner's kept table
        # and categorical_means must agree to the last bit
        rec = run_learning(
            toy_env(), StepSizeSchedule.polynomial(), ExplorationSchedule(), TOY_GRID,
            "control", 3000, seed=5, algo="cdrl", record_q=True,
        )
        assert np.array_equal(rec.q_means[-1], categorical_means(rec.final_state.probs, TOY_GRID))


class TestOsCdrlStep:
    """The one-step update, _os_update, on one transition."""

    def test_full_replacement_on_grid_target(self):
        # alpha = 1 and an on-grid target replaces the row with a unit mass:
        # the next-state value is 0, so the target is 2.1 = z_3
        tables, _ = updated(_os_update, initial_probs(TOY_GRID), TOY_GRID, (0, 0, 2.1, 1), 1.0)
        assert tables.probs[0, 0].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_zero_alpha_keeps_distribution(self):
        probs = initial_probs(TOY_GRID)
        tables, _ = updated(_os_update, probs, TOY_GRID, (0, 0, 2.0, 1), 0.0)
        assert np.array_equal(tables.probs, probs)

    def test_mean_follows_q_learning_update(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(4), size=(2, 2))
        alpha = 0.3
        q_before = categorical_means(probs, TOY_GRID)
        target = 3.0 + 0.5 * q_before[0].max()
        tables, _ = updated(_os_update, probs, TOY_GRID, (0, 1, 3.0, 0), alpha)
        expected = (1 - alpha) * q_before[0, 1] + alpha * target
        assert abs(categorical_means(tables.probs, TOY_GRID)[0, 1] - expected) <= 1e-12

    def test_range_violation_counted_and_clamped(self):
        # target 50 > z_K
        tables, violated = updated(_os_update, initial_probs(TOY_GRID), TOY_GRID, (0, 0, 50.0, 1), 0.5)
        assert violated is True
        assert tables.probs[0, 0, -1] == 0.5  # clamped mass went to z_K

    def test_eval_mode_requires_policy(self):
        # eval mode reads _os_update's next-state value from a policy; with
        # none the run is refused before any update
        with pytest.raises(ValueError, match="policy"):
            run_learning(toy_env(), StepSizeSchedule.polynomial(), None, TOY_GRID, "eval", 100, 0, algo="os")

    def test_other_entries_untouched(self):
        probs = initial_probs(TOY_GRID)
        tables, _ = updated(_os_update, probs, TOY_GRID, (0, 0, 2.0, 1), 0.5)
        assert np.array_equal(tables.probs[0, 1], probs[0, 1])
        assert np.array_equal(tables.probs[1], probs[1])

    def test_target_invariant_to_argmax_ties(self):
        # two next-state actions with exactly equal means but different
        # shapes: the one-step target only uses the max of the means, so any
        # argmax selection (here simulated by relabeling) gives the same update
        grid = np.array([0.0, 2.0, 4.0, 6.0])
        probs = initial_probs(grid)
        probs[1, 0] = [0.5, 0.0, 0.0, 0.5]  # mean 3
        probs[1, 1] = [0.0, 0.5, 0.5, 0.0]  # mean 3
        q = probs[1] @ grid
        assert q[0] == q[1] == 3.0
        out_a, _ = updated(_os_update, probs, grid, (0, 0, 1.0, 1), 0.5)
        probs[1] = probs[1, ::-1]
        out_b, _ = updated(_os_update, probs, grid, (0, 0, 1.0, 1), 0.5)
        assert np.array_equal(out_a.probs[0, 0], out_b.probs[0, 0])


# The learner updates' arithmetic as written before the two-cell kernel, the
# bound grid.dot means and the one-dot range check. The guard below holds
# _os_update and _cdrl_update to it bit for bit.


def reference_dirac(points, u):
    """The projected Dirac's (cells, weights), written out."""
    i = bisect_left(points, u)
    if i == 0:
        return (0,), (1.0,)
    if i == len(points):
        return (len(points) - 1,), (1.0,)
    lo, hi = points[i - 1], points[i]
    gap = hi - lo
    return (i - 1, i), ((hi - u) / gap, (u - lo) / gap)


class ReferenceLearner:
    """probs and their kept means, moved by the reference arithmetic. The
    baseline's greedy next-state row is the object-level greedy_policy's.
    seen tallies the situations the updates met, for the coverage checks."""

    def __init__(self, probs, grid, gamma, policy=None):
        self.probs, self.grid, self.gamma, self.policy = probs, grid, gamma, policy
        self.q = [[float(row @ grid) for row in rows] for rows in probs]
        self.seen = Counter()

    def os_update(self, x, a, r, x_next, alpha):
        q_next = self.q[x_next]
        if self.policy is None:
            v = max(q_next)
            self.seen["tie"] += q_next.count(v) > 1
        else:
            v = sum(map(mul, self.policy.probs[x_next].tolist(), q_next))
        u = r + self.gamma * v
        points = self.grid.tolist()
        cells, weights = reference_dirac(points, u)
        self.seen["below" if u < points[0] else "above" if u > points[-1] else "inside"] += 1
        self.seen["on_grid"] += u in points
        row = self.probs[x, a]
        row *= 1 - alpha
        for i, w in zip(cells, weights):
            row[i] += alpha * w
        self.q[x][a] = float(row @ self.grid)
        return not points[0] <= u <= points[-1]

    def cdrl_update(self, x, a, r, x_next, alpha):
        if self.policy is not None:
            next_probs = self.policy.probs[x_next] @ self.probs[x_next]
        else:
            q_next = self.q[x_next]
            tied = [row for row, q in zip(self.probs[x_next], q_next) if q == max(q_next)]
            self.seen["tie"] += len(tied) > 1
            self.seen["tie_rows_differ"] += any(not np.array_equal(row, tied[0]) for row in tied)
            next_probs = greedy_policy(np.array([q_next])).probs[0] @ self.probs[x_next]
        grid = self.grid
        atoms = r + self.gamma * grid
        matrix = np.array([project_points(atoms[k : k + 1], np.ones(1), grid) for k in range(atoms.size)])
        off = (atoms < grid[0]) | (atoms > grid[-1])
        target = next_probs @ matrix
        violated = bool(np.any(next_probs[off] > 0.0))
        self.seen["off_grid_hit" if violated else "off_grid_missed" if off.any() else "on_grid_atoms"] += 1
        row = self.probs[x, a]
        row *= 1 - alpha
        row += alpha * target
        self.q[x][a] = float(row @ grid)
        return violated


def update_cases(seed, n_cases=60, n_updates=12, k=None):
    """A seeded spread of (grid, gamma, probs, policy, transitions), on
    grids of 2 to 6 points or of k points. A quarter of the cases have
    gamma 0, where a reward on a grid point puts u exactly there; rewards
    also fall below z_1, above z_K (clamped ends) and in between. A third of
    the cases give every action the same row (exact greedy ties), and about
    a third of the cells hold no mass. Then, unless k < 3, come
    max(2, n_cases // 6) cases from a stream of their own on the integer
    lattice around 0, where actions 0 and 1 tie above every other action
    with different rows, delta(0) against delta(-1) / 2 + delta(1) / 2, so
    the baseline's greedy rule decides which row it reads."""
    ties = range(max(2, n_cases // 6) if k is None or k >= 3 else 0)
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        n_points = int(rng.integers(2, 7)) if k is None else k
        grid = rng.uniform(-3.0, 0.0) + np.cumsum(rng.uniform(0.1, 2.0, size=n_points))
        gamma = 0.0 if case % 4 == 0 else float(rng.uniform(0.1, 0.99))
        n_states, n_actions = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(n_points), size=(n_states, n_actions))
        keep = rng.random(probs.shape) > 0.35
        keep[..., 0] |= ~keep.any(axis=-1)
        probs = np.where(keep, probs, 0.0)
        probs /= probs.sum(axis=-1, keepdims=True)
        if case % 3 == 1:
            probs[:] = probs[:, :1]
        yield grid, gamma, probs, *_policy_and_transitions(rng, grid, gamma, probs.shape, n_updates)
    rng = np.random.default_rng([seed, 1])
    for _ in ties:
        n_points = int(rng.integers(3, 7)) if k is None else k
        grid, zero = np.arange(n_points) - n_points // 2.0, n_points // 2
        gamma = float(rng.uniform(0.1, 0.99))  # at gamma 0 every next row projects alike
        probs = np.zeros((int(rng.integers(2, 4)), int(rng.integers(3, 5)), n_points))
        probs[..., 0] = 1.0
        probs[:, 0] = np.eye(n_points)[zero]
        probs[:, 1] = (np.eye(n_points)[zero - 1] + np.eye(n_points)[zero + 1]) / 2.0
        q = categorical_means(probs, grid)
        assert np.all(q[:, 0] == q[:, 1]) and np.all(q[:, 2:] < q[:, :1])
        yield grid, gamma, probs, *_policy_and_transitions(rng, grid, gamma, probs.shape, n_updates)


def _policy_and_transitions(rng, grid, gamma, shape, n_updates):
    """update_cases' random policy and n_updates transitions (x, a, r, x',
    alpha) for probs of the given (n_states, n_actions, k) shape."""
    n_states, n_actions, k = shape
    policy = Policy(rng.dirichlet(np.ones(n_actions), size=n_states))
    span = grid[-1] - grid[0]
    transitions = []
    for _ in range(n_updates):
        kind = int(rng.integers(4))
        if kind == 0:
            r = float(grid[rng.integers(k)])
        elif kind == 1:
            r = float(grid[0] - rng.uniform(0.1, 1.0) * span)
        elif kind == 2:
            r = float(grid[-1] + rng.uniform(0.1, 1.0) * span)
        else:
            r = float(rng.uniform(grid[0], grid[-1]) * (1.0 - gamma))
        alpha = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 1.0))
        x, a, x_next = int(rng.integers(n_states)), int(rng.integers(n_actions)), int(rng.integers(n_states))
        transitions.append((x, a, r, x_next, alpha))
    return policy, transitions


def replay(algo, mode, cases) -> Counter:
    """Run each case's transitions through the learner's update and the
    reference side by side, asserting the same rows, means and flags after
    every update; return the situations the reference met."""
    update = _os_update if algo == "os" else _cdrl_update
    seen = Counter()
    for grid, gamma, probs, policy, transitions in cases:
        policy = policy if mode == "eval" else None
        tables = _Tables(probs.copy(), grid, gamma, policy)
        ref = ReferenceLearner(probs.copy(), grid, gamma, policy)
        ref_update = ref.os_update if algo == "os" else ref.cdrl_update
        assert tables.q == ref.q
        for x, a, r, x_next, alpha in transitions:
            flag = update(tables, x, a, r, x_next, alpha)
            assert flag == ref_update(x, a, r, x_next, alpha)
            assert type(flag) is bool
            assert np.array_equal(tables.probs, ref.probs)
            assert tables.q == ref.q
        seen += ref.seen
    return seen


UPDATE_KINDS = [("os", "control"), ("os", "eval"), ("cdrl", "control"), ("cdrl", "eval")]


class TestUpdatesKeepTheirBits:
    @pytest.mark.parametrize("algo, mode", UPDATE_KINDS)
    def test_rows_means_and_flags_match_the_reference(self, algo, mode):
        seen = replay(algo, mode, update_cases(seed=5))
        # the spread reached every situation it is meant to cover
        if algo == "os":
            assert min(seen["below"], seen["above"], seen["inside"], seen["on_grid"]) > 0, seen
        else:
            assert min(seen["off_grid_hit"], seen["off_grid_missed"], seen["on_grid_atoms"]) > 0, seen
        if mode == "control":
            assert seen["tie"] > 0, seen
        if (algo, mode) == ("cdrl", "control"):
            assert seen["tie_rows_differ"] > 0, seen

    @pytest.mark.parametrize("k", [2, 3, 51])
    @pytest.mark.parametrize("algo, mode", UPDATE_KINDS)
    def test_short_and_long_grids(self, algo, mode, k):
        seen = replay(algo, mode, update_cases(seed=6, n_cases=16, k=k))
        if algo == "os":
            assert min(seen["below"], seen["above"]) > 0, seen

    @pytest.mark.parametrize("algo", ALGOS)
    def test_a_row_written_through_probs_is_what_the_next_update_reads(self, algo):
        # restore a row by assignment, as the mean-field property does
        # between successors, then update it again
        update = _os_update if algo == "os" else _cdrl_update
        for grid, gamma, probs, _, transitions in update_cases(seed=7, n_cases=12):
            tables = _Tables(probs.copy(), grid, gamma)
            ref = ReferenceLearner(probs.copy(), grid, gamma)
            ref_update = ref.os_update if algo == "os" else ref.cdrl_update
            for x, a, r, x_next, alpha in transitions:
                row, mean = tables.probs[x, a].copy(), tables.q[x][a]
                update(tables, x, a, r, x_next, alpha)
                tables.probs[x, a], tables.q[x][a] = row, mean
                assert update(tables, x, a, r, x_next, alpha) == ref_update(x, a, r, x_next, alpha)
                assert np.array_equal(tables.probs, ref.probs)
                assert categorical_means(tables.probs, grid).tolist() == tables.q == ref.q


def count_builds(tables):
    """Record the reward of every baseline target the update builds: the
    update asks target_map for its projection matrix only on a memo miss."""
    builds = []
    target_map = tables.target_map

    def counted(r):
        builds.append(r)
        return target_map(r)

    tables.target_map = counted
    return builds


# (x, a, reward index, x_next, whether the update builds the target anew)
MEMO_SCRIPT = [
    (0, 0, 0, 1, True),  # first use of (1, r0)
    (0, 1, 0, 1, False),  # state 1 untouched: hit
    (0, 0, 1, 1, True),  # a new reward
    (0, 1, 1, 1, False),  # hit
    (1, 0, 0, 1, False),  # x' == x, still the rows (1, r0) was built from
    (1, 1, 0, 1, True),  # the update before changed state 1
    (0, 0, 0, 1, True),  # state 1 changed in between
    (1, 0, 1, 0, True),  # first use of (0, r1)
    (1, 1, 1, 0, False),  # state 0 untouched: hit
    (0, 1, 1, 0, False),  # x' == x hit
    (0, 0, 1, 0, True),  # the update before changed state 0
]


class TestBaselineTargetMemo:
    @pytest.mark.parametrize("mode", ["control", "eval"])
    def test_hits_and_misses_keep_the_reference_bits(self, mode):
        updates, built, seen = 0, 0, Counter()
        for grid, gamma, probs, policy, _ in update_cases(seed=8, n_cases=12):
            policy = policy if mode == "eval" else None
            span = grid[-1] - grid[0]
            rewards = (float(grid[0] - 0.5 * span), float(grid[1] * (1.0 - gamma)))
            tables = _Tables(probs.copy(), grid, gamma, policy)
            ref = ReferenceLearner(probs.copy(), grid, gamma, policy)
            builds = count_builds(tables)
            for step, (x, a, i, x_next, miss) in enumerate(MEMO_SCRIPT):
                alpha = 1.0 if step == 3 else 0.2 + 0.05 * step
                before = len(builds)
                flag = _cdrl_update(tables, x, a, rewards[i], x_next, alpha)
                assert flag == ref.cdrl_update(x, a, rewards[i], x_next, alpha)
                assert np.array_equal(tables.probs, ref.probs)
                assert tables.q == ref.q
                assert (len(builds) > before) == miss, step
            updates, built, seen = updates + len(MEMO_SCRIPT), built + len(builds), seen + ref.seen
        assert built < updates
        assert seen["off_grid_hit"] > 0 and (mode == "eval" or seen["tie"] > 0), seen

    def test_a_row_restored_through_probs_drops_its_memo(self):
        # the mean-field property's pattern: update (x, a), put the row back
        # through probs and clear targets[x]; a target built from the
        # updated row in between must not outlive the restore
        rebuilt, cases = 0, list(update_cases(seed=9, n_cases=12))
        for grid, gamma, probs, _, _ in cases:
            r = float(grid[-1] * (1.0 - gamma))
            tables = _Tables(probs.copy(), grid, gamma)
            ref = ReferenceLearner(probs.copy(), grid, gamma)
            builds = count_builds(tables)
            row, mean = probs[0, 0].copy(), ref.q[0][0]
            for update in (partial(_cdrl_update, tables), ref.cdrl_update):
                update(0, 0, r, 1, 0.5)
                update(1, 0, r, 0, 0.5)  # a target for successor 0 from the updated row
            for learner in (tables, ref):
                learner.probs[0, 0], learner.q[0][0] = row, mean
            assert tables.targets[0]
            tables.targets[0].clear()
            n_built = len(builds)
            assert _cdrl_update(tables, 1, 1, r, 0, 0.5) == ref.cdrl_update(1, 1, r, 0, 0.5)
            rebuilt += len(builds) - n_built
            assert np.array_equal(tables.probs, ref.probs)
            assert tables.q == ref.q
        assert rebuilt == len(cases)  # one rebuild per case


class TestCdrlStep:
    """The baseline update, _cdrl_update, on one transition."""

    def test_on_grid_dirac_next_state_matches_os_target(self):
        # when the next-state distribution is a unit mass on a grid point
        # the two targets coincide
        probs = initial_probs(TOY_GRID)
        probs[1, 0] = [0.0, 0.0, 1.0, 0.0]
        probs[1, 1] = [0.0, 0.0, 1.0, 0.0]
        out_cdrl, _ = updated(_cdrl_update, probs, TOY_GRID, (0, 0, 1.0, 1), 0.5)
        out_os, _ = updated(_os_update, probs, TOY_GRID, (0, 0, 1.0, 1), 0.5)
        assert np.allclose(out_cdrl.probs, out_os.probs, atol=1e-14)

    def test_target_means_agree_in_range(self):
        # shifted atoms all inside [z_1, z_K] keep the two target means equal
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 10.0, 6)
        for _ in range(100):
            probs = rng.dirichlet(np.ones(6), size=(2, 2))
            tr = (0, 0, float(rng.uniform(0.0, 5.0)), 1)
            out_cdrl, _ = updated(_cdrl_update, probs, grid, tr, 1.0)
            out_os, _ = updated(_os_update, probs, grid, tr, 1.0)
            assert categorical_means(out_cdrl.probs, grid)[0, 0] == pytest.approx(
                categorical_means(out_os.probs, grid)[0, 0], abs=1e-10
            )

    def test_eval_mode_mixes_policy(self):
        probs = initial_probs(TOY_GRID)
        probs[1, 0] = [1.0, 0.0, 0.0, 0.0]
        probs[1, 1] = [0.0, 0.0, 0.0, 1.0]
        out, _ = updated(_cdrl_update, probs, TOY_GRID, (0, 0, 0.0, 1), 1.0, policy=Policy.uniform(2, 2))
        # mixed next-state distribution: half at 0, half at 10, shifted by gamma
        assert categorical_means(out.probs, TOY_GRID)[0, 0] == pytest.approx(0.5 * (0.0 + 0.5 * 10.0), abs=1e-12)

    def test_tie_break_affects_cdrl_but_not_os(self):
        # tied means, different shapes: the baseline projects the row of the
        # lowest tied action, so relabeling the rows changes its update; the
        # one-step update reads only the tied mean
        grid = np.array([0.0, 2.0, 4.0, 6.0])
        probs = initial_probs(grid)
        probs[1, 0] = [0.5, 0.0, 0.0, 0.5]
        probs[1, 1] = [0.0, 0.5, 0.5, 0.0]
        swapped = probs.copy()
        swapped[1] = probs[1, ::-1]
        cdrl = [updated(_cdrl_update, p, grid, (0, 0, 1.0, 1), 1.0)[0].probs[0, 0] for p in (probs, swapped)]
        one_step = [updated(_os_update, p, grid, (0, 0, 1.0, 1), 1.0)[0].probs[0, 0] for p in (probs, swapped)]
        assert not np.allclose(cdrl[0], cdrl[1])
        assert np.array_equal(one_step[0], one_step[1])


class TestRunLearning:
    def test_deterministic_given_seed(self):
        env = toy_env()
        sched = StepSizeSchedule.polynomial()
        expl = ExplorationSchedule()
        a = run_learning(env, sched, expl, TOY_GRID, "control", 2000, seed=3, record_every=500)
        b = run_learning(env, sched, expl, TOY_GRID, "control", 2000, seed=3, record_every=500)
        assert np.array_equal(a.final_state.probs, b.final_state.probs)
        assert np.array_equal(a.mean_alpha, b.mean_alpha)

    def test_normalization_along_trajectory(self):
        env = toy_env()
        rec = run_learning(
            env,
            StepSizeSchedule.constant(0.6),
            ExplorationSchedule(),
            TOY_GRID,
            "control",
            5000,
            seed=1,
            record_every=100,
            track=[(0, 0), (0, 1)],
        )
        for pair, rows in rec.tracked.items():
            assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(rec.final_state.probs.sum(axis=2) - 1.0)) <= 1e-9

    def test_eval_mode_converges_to_eta_pi(self):
        env = toy_env()
        pi = Policy.uniform(2, 2)
        eta_pi = projected_fixed_points(env.mdp, TOY_GRID, tol=1e-12, policy=pi)
        rec = run_learning(
            env,
            StepSizeSchedule.polynomial(),
            None,
            TOY_GRID,
            "eval",
            60_000,
            seed=0,
            policy=pi,
            reference=eta_pi,
            record_every=10_000,
        )
        assert rec.w1_to_reference[-1] < 0.1

    def test_cdrl_algo_runs_and_normalizes(self):
        env = toy_env()
        rec = run_learning(
            env,
            StepSizeSchedule.constant(0.6),
            ExplorationSchedule(),
            TOY_GRID,
            "control",
            3000,
            seed=2,
            algo="cdrl",
        )
        assert np.max(np.abs(rec.final_state.probs.sum(axis=2) - 1.0)) <= 1e-9

    def test_csv_schema(self, tmp_path):
        env = toy_env()
        eta = projected_fixed_points(env.mdp, TOY_GRID, tol=1e-10)
        q_star = solve_q_star(env.mdp)
        rec = run_learning(
            env,
            StepSizeSchedule.polynomial(),
            ExplorationSchedule(),
            TOY_GRID,
            "control",
            1000,
            seed=0,
            reference=eta,
            reference_q=q_star,
            record_every=200,
        )
        path = tmp_path / "learn.csv"
        write_learning_csv([rec], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "step",
            "seed",
            "w1_to_reference",
            "q_error_sup",
            "range_violations",
            "epsilon",
            "mean_alpha",
        ]
        assert len(rows) == 2 + len(rec.steps) - 1  # header + records

    def test_learning_csv_concatenates_records(self, tmp_path):
        env = toy_env()
        recs = [
            run_learning(env, StepSizeSchedule.polynomial(), ExplorationSchedule(), TOY_GRID, "control", 300, seed=s)
            for s in (0, 1)
        ]
        write_learning_csv(recs, tmp_path / "both.csv")
        lines = []
        for i, rec in enumerate(recs):
            write_learning_csv([rec], tmp_path / f"{i}.csv")
            lines += (tmp_path / f"{i}.csv").read_text().splitlines()[0 if i == 0 else 1 :]
        assert (tmp_path / "both.csv").read_text().splitlines() == lines

    @pytest.mark.parametrize(
        "algo, make_env, mode",
        [(algo, toy_env, "eval") for algo in ALGOS]
        + [(algo, make_env, "control") for make_env in (toy_env, make_frozen_lake, five_state_env) for algo in ALGOS],
        ids=[
            "os", "cdrl", "control-toy-os", "control-toy-cdrl", "control-lake-os", "control-lake-cdrl",
            "control-five-os", "control-five-cdrl",
        ],
    )
    def test_step_functions_replay_the_harness_bit_for_bit(self, algo, make_env, mode):
        env, control = make_env(), mode == "control"
        mdp, n_actions = env.mdp, env.mdp.n_actions
        schedule = StepSizeSchedule.polynomial()
        grid = {toy_env: TOY_GRID, make_frozen_lake: LAKE_GRID, five_state_env: np.linspace(-3.0, 5.0, 6)}[make_env]
        # control: three blocks of uniforms, with record points inside the
        # first two blocks (steps 997 and 1994) and at the last step
        n_steps, record_every = (2500, 997) if control else (2000, 1000)
        pi = None if control else Policy.uniform(2, 2)
        exploration = ExplorationSchedule() if control else None
        rec = run_learning(
            env, schedule, exploration, grid, mode, n_steps, seed=4, policy=pi, algo=algo,
            record_every=record_every, record_q=True,
        )
        # the harness reads a row of 3 uniforms per step: the first decides
        # whether to explore (control) or draws the policy's action (eval),
        # the second gives the exploratory action (unused in eval), the third
        # draws the successor
        uniforms = np.random.default_rng(4).random((n_steps, 3))
        update = _os_update if algo == "os" else _cdrl_update
        tables = _Tables(categorical_start(mdp, grid).probs(), grid, mdp.discount, pi)
        visits = np.zeros((mdp.n_states, n_actions), dtype=np.int64)
        violations, q_means = 0, [np.array(tables.q)]
        x = env.initial_state
        for t, (u0, u1, u2) in enumerate(uniforms):
            if x in env.terminal_states:
                x = env.initial_state
            if not control:
                a = int(np.searchsorted(np.cumsum(pi.probs[x]), u0, side="right"))
            elif u0 < exploration.epsilon(t):
                a = min(int(u1 * n_actions), n_actions - 1)
            else:
                a = int(np.argmax(tables.q[x]))  # the lowest of tied actions
            x_next = int(np.searchsorted(np.cumsum(mdp.kernel[x, a]), u2, side="right"))
            alpha = float(schedule.step_size(visits[x, a]))
            violations += update(tables, x, a, float(mdp.reward[x, a, x_next]), x_next, alpha)
            visits[x, a] += 1
            x = x_next
            if (t + 1) % record_every == 0 or t + 1 == n_steps:
                q_means.append(np.array(tables.q))
        assert np.array_equal(tables.probs, rec.final_state.probs)
        assert np.array_equal(visits, rec.final_state.visits)
        assert violations == rec.range_violations[-1]
        assert np.array_equal(np.array(q_means), rec.q_means)

    def test_rejects_bad_arguments(self):
        env = toy_env()
        with pytest.raises(ValueError):
            run_learning(env, StepSizeSchedule.polynomial(), None, TOY_GRID, "control", 100, 0)
        with pytest.raises(ValueError):
            run_learning(
                env, StepSizeSchedule.polynomial(), ExplorationSchedule(), TOY_GRID,
                "control", 100, 0, algo="dqn",
            )
        with pytest.raises(ValueError):
            run_learning(
                env, StepSizeSchedule.polynomial(), ExplorationSchedule(), TOY_GRID,
                "control", 0, 0,
            )
        for record_every in (0, -3):
            with pytest.raises(ValueError, match="record_every"):
                run_learning(
                    env, StepSizeSchedule.polynomial(), ExplorationSchedule(), TOY_GRID,
                    "control", 100, 0, record_every=record_every,
                )
        for pi in (Policy.uniform(3, 2), Policy.uniform(2, 3)):
            with pytest.raises(ValueError, match="policy shape"):
                run_learning(env, StepSizeSchedule.polynomial(), None, TOY_GRID, "eval", 100, 0, policy=pi)

    @pytest.mark.parametrize("make_env", [toy_env, five_state_env])
    @pytest.mark.parametrize("algo", ["os", "cdrl"])
    def test_first_steps_do_not_depend_on_the_horizon(self, make_env, algo):
        # 5000 and 10000 steps split their uniforms into different blocks;
        # the shorter run must equal the first half of the longer one
        env = make_env()
        pairs = [(x, a) for x in range(env.mdp.n_states) for a in range(env.mdp.n_actions)]
        grid = TOY_GRID if make_env is toy_env else np.linspace(-3.0, 5.0, 6)
        short, long = (
            run_learning(
                env, StepSizeSchedule.polynomial(), ExplorationSchedule(), grid, "control", n, seed=7,
                algo=algo, record_every=1000, track=pairs, record_q=True,
            )
            for n in (5000, 10_000)
        )
        n = len(short.steps)
        assert short.steps[-1] == long.steps[n - 1] == 5000
        for name in ("epsilon", "mean_alpha", "range_violations", "q_means"):
            assert np.array_equal(getattr(short, name), getattr(long, name)[:n]), name
        for pair in pairs:
            assert np.array_equal(short.tracked[pair], long.tracked[pair][:n])
        halfway = np.array([long.tracked[pair][n - 1] for pair in pairs])
        assert np.array_equal(short.final_state.probs.reshape(halfway.shape), halfway)

    def test_eval_mode_rejects_an_exploration_schedule(self):
        # eval acts by the policy alone; a schedule would only be written
        # into the record's epsilon column
        with pytest.raises(ValueError, match="exploration"):
            run_learning(
                toy_env(), StepSizeSchedule.polynomial(), ExplorationSchedule(), TOY_GRID, "eval", 100, 0,
                policy=Policy.uniform(2, 2),
            )

    def test_theorem_one_on_random_mdp(self):
        # convergence property on a seeded 5-state MDP with persistent
        # exploration: W1 to the projected fixed point below 0.05 at t=1e5
        # in at least 18 of 20 seeds
        rng = np.random.default_rng(2024)
        mdp = random_mdp(rng, n_states=5, n_actions=2, discounts=(0.5,))
        v_star = solve_q_star(mdp, tol=1e-12).max(axis=1)
        targets = mdp.reward + mdp.discount * v_star[None, None, :]
        grid = np.linspace(targets.min() - 0.25, targets.max() + 0.25, 7)
        eta_star = projected_fixed_points(mdp, grid, tol=1e-12)
        env = EpisodicEnv(mdp=mdp, terminal_states=frozenset(), initial_state=0)
        finals = []
        for seed in range(20):
            rec = run_learning(
                env,
                StepSizeSchedule.polynomial(c=1.0, omega=0.7),
                ExplorationSchedule(eps_start=1.0, eps_end=0.25),
                grid,
                "control",
                100_000,
                seed=seed,
                reference=eta_star,
                record_every=100_000,
            )
            finals.append(rec.w1_to_reference[-1])
        passes = int(np.sum(np.array(finals) < 0.05))
        assert passes >= 18, f"only {passes}/20 seeds below 0.05: {np.round(finals, 4)}"


class TestMicrobenchmark:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            target_microbenchmark(k_values=(1, 8))

    def test_rejects_unsorted_k(self):
        with pytest.raises(ValueError):
            target_microbenchmark(k_values=(64, 8))

    def test_ratio_grows_and_cells_bounded(self):
        # K = 8 and 4096 put the two ratios about 30 and 170 apart; at 8 and
        # 512 they sat close enough for host noise to flip them
        result = target_microbenchmark(k_values=(8, 4096), n_reps=16, n_inputs=16)
        assert result.ratio_increasing
        assert result.max_cells <= 2


class TestMeanField:
    def test_expected_update_is_the_projected_operator_step(self):
        result = check_mean_field(seed=1, n_cases=12)
        assert result.passed, result.failing_case
        assert result.cases == 4 * 12  # two learners in two modes per case

    def test_swapped_interpolation_weights_fail(self, monkeypatch):
        def swapped(row, points, u, alpha):
            cells = defaultdict(float)
            _add_dirac(cells, points, u, 1.0)
            for i, w in zip(cells, tuple(cells.values())[::-1]):
                row[i] += alpha * w

        monkeypatch.setattr(osdrl.learning, "_add_dirac", swapped)
        result = check_mean_field(seed=1, n_cases=12)
        assert not result.passed
        assert result.failing_case["algo"] == "os"


class TestMeanTrackingProperty:
    def test_a_broken_update_fails(self, monkeypatch):
        # the bootstrap discounted twice, r + gamma^2 V(x'), moves the means
        # off the scalar learner's iterates
        def gamma_twice(tables, x, a, r, x_next, alpha):
            mutant = copy.copy(tables)  # shares the rows and means it writes
            mutant.gamma = tables.gamma**2
            return _os_update(mutant, x, a, r, x_next, alpha)

        assert check_mean_tracking(seed=0, n_steps=300).passed
        monkeypatch.setattr(osdrl.verify, "_os_update", gamma_twice)
        assert check_mean_tracking(seed=0, n_steps=300).passed is False
