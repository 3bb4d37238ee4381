import csv
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import partial
from operator import mul

import numpy as np
import pytest

import osdrl.learning
from osdrl import (
    EpisodicEnv,
    ExplorationSchedule,
    LearnerState,
    Policy,
    StepSizeSchedule,
    TabularMdp,
    Transition,
    categorical_means,
    cdrl_step,
    make_toy_mdp,
    os_cdrl_step,
    project_points,
    projected_fixed_points,
    run_learning,
    sample_step,
    solve_q_star,
    target_microbenchmark,
    write_learning_csv,
)
from osdrl.learning import ALGOS, _add_dirac, _cdrl_update, _os_update, _Tables
from osdrl.operators import random_mdp
from osdrl.verify import check_mean_field

TOY_GRID = np.array([0.0, 1.9, 2.1, 10.0])


def toy_env():
    return EpisodicEnv(mdp=make_toy_mdp(), terminal_states=frozenset({1}), initial_state=0)


def random_start_env():
    """A seeded 5-state MDP whose last state is terminal, with episodes
    starting at states 0..2 with probabilities 0.5, 0.3, 0.2."""
    mdp = random_mdp(np.random.default_rng(31), n_states=5, n_actions=2, discounts=(0.9,))
    kernel, reward = mdp.kernel.copy(), mdp.reward.copy()
    kernel[4], reward[4] = 0.0, 0.0
    kernel[4, :, 4] = 1.0
    mdp = TabularMdp(kernel=kernel, reward=reward, discount=mdp.discount)
    return EpisodicEnv(mdp=mdp, terminal_states=frozenset({4}), initial_state=[0.5, 0.3, 0.2, 0.0, 0.0])


class FixedAlpha:
    """Stub schedule with a constant, possibly zero, step size."""

    def __init__(self, alpha):
        self.alpha = alpha

    def step_size(self, visits):
        return self.alpha

    def step_sizes(self, visits):
        return np.full(np.shape(visits), self.alpha)


class TestStepSizeSchedule:
    def test_constant_bounds(self):
        sched = StepSizeSchedule.constant(0.6)
        assert sched.step_size(99) == 0.6
        assert np.all(sched.step_sizes(np.arange(1000)) == 0.6)
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

    def test_robbins_monro_partial_sums(self):
        # divergent sum, convergent squared sum for omega in (0.5, 1]
        sched = StepSizeSchedule.polynomial(c=1.0, omega=0.7)
        alphas = sched.step_sizes(np.arange(100_000))
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


class TestLearnerState:
    def test_initial_mass_at_lowest_atom(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        assert np.all(state.probs[:, :, 0] == 1.0)
        assert np.all(state.probs.sum(axis=2) == 1.0)

    def test_rejects_single_point_grid(self):
        # and grids holding nan or inf, on which the learner would run to nan means
        for grid in ([0.0], [0.0, math.nan, 2.0], [0.0, math.inf], [-math.inf, 0.0, 1.0]):
            with pytest.raises(ValueError, match="grid"):
                LearnerState.initial(2, 2, grid, 0.5)
        with pytest.raises(ValueError, match="grid"):
            run_learning(
                toy_env(), StepSizeSchedule.constant(0.6), ExplorationSchedule(), [0.0, math.nan, 10.0],
                "control", 100, seed=0,
            )

    def test_q_values(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        assert np.all(state.q_values() == 0.0)

    def test_q_values_round_like_categorical_means(self):
        # the greedy step compares means with ==: q_values, the learner's
        # kept table and categorical_means must agree to the last bit
        rng = np.random.default_rng(3)
        grid = np.sort(rng.uniform(-5.0, 5.0, size=11))
        state = LearnerState.initial(3, 2, grid, 0.5)
        state.probs[:] = rng.dirichlet(np.ones(11), size=(3, 2))
        assert np.array_equal(state.q_values(), categorical_means(state.probs, grid))
        rec = run_learning(
            toy_env(), StepSizeSchedule.polynomial(), ExplorationSchedule(), TOY_GRID,
            "control", 3000, seed=5, algo="cdrl", record_q=True,
        )
        assert np.array_equal(rec.q_means[-1], categorical_means(rec.final_state.probs, TOY_GRID))

    def test_as_collection_round_trip(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        mu = state.as_collection()
        assert mu[1, 1].probs.tolist() == [1.0, 0.0, 0.0, 0.0]


class TestOsCdrlStep:
    def test_full_replacement_on_grid_target(self):
        # alpha = 1 and an on-grid target replaces the row with a unit mass
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        tr = Transition(0, 0, 2.1, 1)  # next-state value is 0, target = 2.1 = z_3
        out = os_cdrl_step(state, tr, FixedAlpha(1.0), mode="control")
        assert out.probs[0, 0].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_zero_alpha_keeps_distribution(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        tr = Transition(0, 0, 2.0, 1)
        out = os_cdrl_step(state, tr, FixedAlpha(0.0), mode="control")
        assert np.array_equal(out.probs, state.probs)
        assert out.visits[0, 0] == 1 and out.t == 1

    def test_mean_follows_q_learning_update(self):
        rng = np.random.default_rng(5)
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        state.probs[:] = rng.dirichlet(np.ones(4), size=(2, 2))
        tr = Transition(0, 1, 3.0, 0)
        alpha = 0.3
        q_before = state.q_values()
        target = 3.0 + 0.5 * q_before[0].max()
        out = os_cdrl_step(state, tr, FixedAlpha(alpha), mode="control")
        expected = (1 - alpha) * q_before[0, 1] + alpha * target
        assert abs(out.q_values()[0, 1] - expected) <= 1e-12

    def test_range_violation_counted_and_clamped(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        tr = Transition(0, 0, 50.0, 1)  # target 50 > z_K
        out = os_cdrl_step(state, tr, FixedAlpha(0.5), mode="control")
        assert out.range_violations == 1
        assert out.probs[0, 0, -1] == 0.5  # clamped mass went to z_K

    def test_eval_mode_requires_policy(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        with pytest.raises(ValueError, match="policy"):
            os_cdrl_step(state, Transition(0, 0, 0.0, 1), FixedAlpha(0.5), mode="eval")

    def test_other_entries_untouched(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        out = os_cdrl_step(state, Transition(0, 0, 2.0, 1), FixedAlpha(0.5))
        assert np.array_equal(out.probs[0, 1], state.probs[0, 1])
        assert np.array_equal(out.probs[1], state.probs[1])

    def test_target_invariant_to_argmax_ties(self):
        # two next-state actions with exactly equal means but different
        # shapes: the one-step target only uses the max of the means, so any
        # argmax selection (here simulated by relabeling) gives the same update
        grid = np.array([0.0, 2.0, 4.0, 6.0])
        state = LearnerState.initial(2, 2, grid, 0.5)
        state.probs[1, 0] = [0.5, 0.0, 0.0, 0.5]  # mean 3
        state.probs[1, 1] = [0.0, 0.5, 0.5, 0.0]  # mean 3
        q = state.probs[1] @ grid
        assert q[0] == q[1] == 3.0
        tr = Transition(0, 0, 1.0, 1)
        out_a = os_cdrl_step(state, tr, FixedAlpha(0.5), mode="control")
        state.probs[1] = state.probs[1, ::-1]
        out_b = os_cdrl_step(state, tr, FixedAlpha(0.5), mode="control")
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
    """probs and their kept means, moved by the reference arithmetic. seen
    tallies the situations the updates met, for the coverage checks."""

    def __init__(self, probs, grid, gamma, policy, tie_break, rng):
        self.probs, self.grid, self.gamma, self.policy = probs, grid, gamma, policy
        self.tie_break, self.rng = tie_break, rng
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
            winners = [b for b, v in enumerate(q_next) if v == max(q_next)]
            self.seen["tie"] += len(winners) > 1
            if self.tie_break == "lowest":
                next_probs = self.probs[x_next, winners[0]]
            elif self.tie_break == "uniform":
                next_probs = self.probs[x_next, winners].mean(axis=0)
            else:
                next_probs = self.probs[x_next, winners[self.rng.integers(len(winners))]]
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
    a third of the cells hold no mass."""
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        k = int(rng.integers(2, 7)) if k is None else k
        grid = rng.uniform(-3.0, 0.0) + np.cumsum(rng.uniform(0.1, 2.0, size=k))
        gamma = 0.0 if case % 4 == 0 else float(rng.uniform(0.1, 0.99))
        n_states, n_actions = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(k), size=(n_states, n_actions))
        keep = rng.random(probs.shape) > 0.35
        keep[..., 0] |= ~keep.any(axis=-1)
        probs = np.where(keep, probs, 0.0)
        probs /= probs.sum(axis=-1, keepdims=True)
        if case % 3 == 1:
            probs[:] = probs[:, :1]
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
        yield grid, gamma, probs, policy, transitions


def replay(algo, mode, tie_break, cases) -> Counter:
    """Run each case's transitions through the learner's update and the
    reference side by side, asserting the same rows, means and flags after
    every update; return the situations the reference met."""
    update = _os_update if algo == "os" else _cdrl_update
    seen = Counter()
    for grid, gamma, probs, policy, transitions in cases:
        policy = policy if mode == "eval" else None
        tables = _Tables(probs.copy(), grid, gamma, policy, tie_break, np.random.default_rng(1))
        ref = ReferenceLearner(probs.copy(), grid, gamma, policy, tie_break, np.random.default_rng(1))
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


UPDATE_KINDS = [
    ("os", "control", "lowest"),
    ("os", "eval", "lowest"),
    ("cdrl", "control", "lowest"),
    ("cdrl", "control", "uniform"),
    ("cdrl", "control", "random"),
    ("cdrl", "eval", "lowest"),
]


class TestUpdatesKeepTheirBits:
    @pytest.mark.parametrize("algo, mode, tie_break", UPDATE_KINDS)
    def test_rows_means_and_flags_match_the_reference(self, algo, mode, tie_break):
        seen = replay(algo, mode, tie_break, update_cases(seed=5))
        # the spread reached every situation it is meant to cover
        if algo == "os":
            assert min(seen["below"], seen["above"], seen["inside"], seen["on_grid"]) > 0, seen
        else:
            assert min(seen["off_grid_hit"], seen["off_grid_missed"], seen["on_grid_atoms"]) > 0, seen
        if mode == "control":
            assert seen["tie"] > 0, seen

    @pytest.mark.parametrize("k", [2, 3, 51])
    @pytest.mark.parametrize("algo, mode", [("os", "control"), ("os", "eval"), ("cdrl", "control"), ("cdrl", "eval")])
    def test_short_and_long_grids(self, algo, mode, k):
        seen = replay(algo, mode, "lowest", update_cases(seed=6, n_cases=16, k=k))
        if algo == "os":
            assert min(seen["below"], seen["above"]) > 0, seen

    @pytest.mark.parametrize("algo", ALGOS)
    def test_a_row_written_through_probs_is_what_the_next_update_reads(self, algo):
        # restore a row by assignment, as the mean-field property does
        # between successors, then update it again
        update = _os_update if algo == "os" else _cdrl_update
        for grid, gamma, probs, _, transitions in update_cases(seed=7, n_cases=12):
            tables = _Tables(probs.copy(), grid, gamma)
            ref = ReferenceLearner(probs.copy(), grid, gamma, None, "lowest", None)
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
    @pytest.mark.parametrize(
        "mode, tie_break", [("control", "lowest"), ("control", "uniform"), ("control", "random"), ("eval", "lowest")]
    )
    def test_hits_and_misses_keep_the_reference_bits(self, mode, tie_break):
        updates, built, seen = 0, 0, Counter()
        for grid, gamma, probs, policy, _ in update_cases(seed=8, n_cases=12):
            policy = policy if mode == "eval" else None
            span = grid[-1] - grid[0]
            rewards = (float(grid[0] - 0.5 * span), float(grid[1] * (1.0 - gamma)))
            tables = _Tables(probs.copy(), grid, gamma, policy, tie_break, np.random.default_rng(1))
            ref = ReferenceLearner(probs.copy(), grid, gamma, policy, tie_break, np.random.default_rng(1))
            builds = count_builds(tables)
            for step, (x, a, i, x_next, miss) in enumerate(MEMO_SCRIPT):
                alpha = 1.0 if step == 3 else 0.2 + 0.05 * step
                before = len(builds)
                flag = _cdrl_update(tables, x, a, rewards[i], x_next, alpha)
                assert flag == ref.cdrl_update(x, a, rewards[i], x_next, alpha)
                assert np.array_equal(tables.probs, ref.probs)
                assert tables.q == ref.q
                if tie_break != "random":  # there the key holds the drawn action too
                    assert (len(builds) > before) == miss, step
            # the random tie-break drew exactly what the reference drew
            if tie_break == "random":
                assert tables.rng.bit_generator.state == ref.rng.bit_generator.state
            updates, built, seen = updates + len(MEMO_SCRIPT), built + len(builds), seen + ref.seen
        assert built < updates
        assert seen["off_grid_hit"] > 0 and (mode == "eval" or seen["tie"] > 0), seen

    def test_random_tie_break_keys_on_the_drawn_action(self):
        # successor 1's two rows differ but their means tie exactly, so the
        # draw picks which target applies on every step
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        probs = np.array([[[1.0, 0.0, 0.0, 0.0]] * 2, [[0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0]]])
        tables = _Tables(probs.copy(), grid, 0.5, None, "random", np.random.default_rng(1))
        ref = ReferenceLearner(probs.copy(), grid, 0.5, None, "random", np.random.default_rng(1))
        builds = count_builds(tables)
        for step in range(12):
            assert _cdrl_update(tables, 0, step % 2, 0.5, 1, 0.3) == ref.cdrl_update(0, step % 2, 0.5, 1, 0.3)
            assert np.array_equal(tables.probs, ref.probs)
        assert ref.seen["tie"] == 12 and len(builds) == 2
        assert tables.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_a_row_restored_through_probs_drops_its_memo(self):
        # the mean-field property's pattern: update (x, a), put the row back
        # through probs and clear targets[x]; a target built from the
        # updated row in between must not outlive the restore
        rebuilt = 0
        for grid, gamma, probs, _, _ in update_cases(seed=9, n_cases=12):
            r = float(grid[-1] * (1.0 - gamma))
            tables = _Tables(probs.copy(), grid, gamma)
            ref = ReferenceLearner(probs.copy(), grid, gamma, None, "lowest", None)
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
        assert rebuilt == 12


class TestCdrlStep:
    def test_on_grid_dirac_next_state_matches_os_target(self):
        # when the next-state distribution is a unit mass on a grid point
        # the two targets coincide
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        state.probs[1, 0] = [0.0, 0.0, 1.0, 0.0]
        state.probs[1, 1] = [0.0, 0.0, 1.0, 0.0]
        tr = Transition(0, 0, 1.0, 1)
        out_cdrl = cdrl_step(state, tr, FixedAlpha(0.5), mode="control")
        out_os = os_cdrl_step(state, tr, FixedAlpha(0.5), mode="control")
        assert np.allclose(out_cdrl.probs, out_os.probs, atol=1e-14)

    def test_target_means_agree_in_range(self):
        # shifted atoms all inside [z_1, z_K] keep the two target means equal
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 10.0, 6)
        for _ in range(100):
            state = LearnerState.initial(2, 2, grid, 0.5)
            state.probs[:] = rng.dirichlet(np.ones(6), size=(2, 2))
            tr = Transition(0, 0, float(rng.uniform(0.0, 5.0)), 1)
            out_cdrl = cdrl_step(state, tr, FixedAlpha(1.0), mode="control")
            out_os = os_cdrl_step(state, tr, FixedAlpha(1.0), mode="control")
            assert out_cdrl.q_values()[0, 0] == pytest.approx(
                out_os.q_values()[0, 0], abs=1e-10
            )

    def test_eval_mode_mixes_policy(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        state.probs[1, 0] = [1.0, 0.0, 0.0, 0.0]
        state.probs[1, 1] = [0.0, 0.0, 0.0, 1.0]
        pi = Policy.uniform(2, 2)
        tr = Transition(0, 0, 0.0, 1)
        out = cdrl_step(state, tr, FixedAlpha(1.0), mode="eval", policy=pi)
        # mixed next-state distribution: half at 0, half at 10, shifted by gamma
        assert out.q_values()[0, 0] == pytest.approx(0.5 * (0.0 + 0.5 * 10.0), abs=1e-12)

    def test_tie_break_affects_cdrl_but_not_os(self):
        grid = np.array([0.0, 2.0, 4.0, 6.0])
        state = LearnerState.initial(2, 2, grid, 0.5)
        state.probs[1, 0] = [0.5, 0.0, 0.0, 0.5]  # tied means, different shapes
        state.probs[1, 1] = [0.0, 0.5, 0.5, 0.0]
        tr = Transition(0, 0, 1.0, 1)
        out_low = cdrl_step(state, tr, FixedAlpha(1.0), tie_break="lowest")
        out_mix = cdrl_step(state, tr, FixedAlpha(1.0), tie_break="uniform")
        assert not np.allclose(out_low.probs[0, 0], out_mix.probs[0, 0])


def scalar_q_learning(discount, transitions, step_size_fn, n_states, n_actions):
    """Independent scalar oracle fed the same transition stream."""
    q = np.zeros((n_states, n_actions))
    visits = np.zeros((n_states, n_actions), dtype=int)
    trajectory = []
    for x, a, r, xn in transitions:
        alpha = step_size_fn(visits[x, a])
        q[x, a] = (1 - alpha) * q[x, a] + alpha * (r + discount * q[xn].max())
        visits[x, a] += 1
        trajectory.append(q.copy())
    return trajectory


class TestMeanTracking:
    def test_means_match_scalar_learner_exactly(self):
        env = toy_env()
        mdp = env.mdp
        rng = np.random.default_rng(77)
        transitions = []
        x = env.reset(rng)
        for _ in range(2000):
            if env.is_terminal(x):
                x = env.reset(rng)
            a = int(rng.integers(2))
            tr = sample_step(env, x, a, rng)
            transitions.append(tr)
            x = tr.next_state
        sched = StepSizeSchedule.polynomial(c=1.0, omega=0.7)
        state = LearnerState.initial(2, 2, TOY_GRID, mdp.discount)
        scalar = scalar_q_learning(
            mdp.discount, transitions, sched.step_size, 2, 2
        )
        for tr, q_expected in zip(transitions, scalar):
            state = os_cdrl_step(state, tr, sched, mode="control")
            assert np.max(np.abs(state.q_values() - q_expected)) <= 1e-9


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

    @pytest.mark.parametrize("algo, step", [("os", os_cdrl_step), ("cdrl", cdrl_step)])
    def test_step_functions_replay_the_harness_bit_for_bit(self, algo, step):
        env, pi = toy_env(), Policy.uniform(2, 2)
        schedule = StepSizeSchedule.polynomial()
        rec = run_learning(env, schedule, None, TOY_GRID, "eval", 2000, seed=4, policy=pi, algo=algo)
        # the harness reads a row of 3 uniforms per step: the first draws the
        # policy's action, the second (the exploratory action) goes unused in
        # eval mode, the third draws the successor
        uniforms = np.random.default_rng(4).random((2000, 3))
        mdp = env.mdp
        state = LearnerState.initial(2, 2, TOY_GRID, mdp.discount)
        x = env.initial_state
        for u_action, _, u_next in uniforms:
            if env.is_terminal(x):
                x = env.initial_state
            a = int(np.searchsorted(np.cumsum(pi.probs[x]), u_action, side="right"))
            x_next = int(np.searchsorted(np.cumsum(mdp.kernel[x, a]), u_next, side="right"))
            tr = Transition(x, a, float(mdp.reward[x, a, x_next]), x_next)
            state = step(state, tr, schedule, mode="eval", policy=pi)
            x = x_next
        assert np.array_equal(state.probs, rec.final_state.probs)
        assert np.array_equal(state.visits, rec.final_state.visits)
        assert state.range_violations == rec.final_state.range_violations

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

    @pytest.mark.parametrize("make_env", [toy_env, random_start_env])
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

    def test_random_restart_is_independent_of_the_successor(self):
        # every episode is one step from a start state drawn from
        # (0.5, 0.3, 0.2) to terminal 3 (reward 1) or 4 (reward 0) with
        # probability 1/2 each: the start states' visit shares follow the
        # initial distribution and every mean approaches 1/2, which fails if
        # the draw of the start state leaks into the draw of the successor
        kernel, reward = np.zeros((5, 2, 5)), np.zeros((5, 2, 5))
        kernel[:3, :, 3:] = 0.5
        reward[:3, :, 3] = 1.0
        kernel[3:, :, 3:] = np.eye(2)[:, None, :]
        mdp = TabularMdp(kernel=kernel, reward=reward, discount=0.5)
        env = EpisodicEnv(mdp=mdp, terminal_states=frozenset({3, 4}), initial_state=[0.5, 0.3, 0.2, 0.0, 0.0])
        pi = Policy.uniform(5, 2)
        rec = run_learning(
            env, StepSizeSchedule.polynomial(), None, [0.0, 1.0], "eval", 20_000, seed=0, policy=pi,
        )
        visits = rec.final_state.visits
        assert visits.sum() == 20_000 and visits[3:].sum() == 0
        assert np.allclose(visits[:3].sum(axis=1) / 20_000, [0.5, 0.3, 0.2], atol=0.02)
        assert np.max(np.abs(rec.final_state.q_values()[:3] - 0.5)) < 0.1

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
