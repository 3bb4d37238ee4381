import numpy as np
import pytest

from osdrl import (
    CategoricalDistribution,
    DistributionCollection,
    Policy,
    bellman_eval,
    bellman_opt,
    categorical_full_opt,
    categorical_full_opt_batch,
    categorical_os_eval,
    categorical_os_opt,
    cramer_project,
    dirac,
    distr_bellman_eval,
    distr_bellman_opt,
    dominance_excess,
    greedy_policy,
    make_frozen_lake,
    make_toy_mdp,
    os_distr_eval,
    os_distr_opt,
    projected,
    sup_wasserstein,
    wasserstein,
)
from osdrl.distributions import AtomicDistribution
from osdrl.mdp import TabularMdp
from osdrl.dp import categorical_start
from osdrl import operators
from osdrl.operators import _positive_columns, _project_collection
from osdrl.verify import (
    check_categorical_operators,
    random_atomic,
    random_collection,
    random_grid,
    random_mdp,
    random_policy,
    random_probs,
)


def self_loop_mdp(reward=1.0, discount=0.5):
    kernel = np.ones((1, 1, 1))
    return TabularMdp(kernel=kernel, reward=np.full((1, 1, 1), reward), discount=discount)


def all_dirac(mdp, z=0.0):
    return DistributionCollection.constant(mdp.n_states, mdp.n_actions, dirac(z))


class TestScalarOperators:
    def test_eval_one_step_reward(self):
        mdp = self_loop_mdp()
        pi = Policy.uniform(1, 1)
        out = bellman_eval(np.zeros((1, 1)), mdp, pi)
        assert out[0, 0] == 1.0

    def test_eval_fixed_point_on_toy(self):
        # oracle: direct linear solve of the policy's Bellman system
        mdp = make_toy_mdp()
        pi = Policy.uniform(2, 2)
        n = 4
        r = (mdp.kernel * mdp.reward).sum(axis=2).reshape(n)
        m = np.zeros((n, n))
        for x in range(2):
            for a in range(2):
                for xn in range(2):
                    for an in range(2):
                        m[x * 2 + a, xn * 2 + an] = mdp.kernel[x, a, xn] * pi.probs[xn, an]
        q_pi = np.linalg.solve(np.eye(n) - mdp.discount * m, r).reshape(2, 2)
        assert np.max(np.abs(bellman_eval(q_pi, mdp, pi) - q_pi)) < 1e-10

    def test_opt_geometric_series(self):
        mdp = self_loop_mdp()
        q = np.full((1, 1), 2.0)
        assert np.allclose(bellman_opt(q, mdp), q)

    def test_opt_fixed_point_on_toy(self):
        mdp = make_toy_mdp()
        q_star = np.array([[2.0, 2.0], [0.0, 0.0]])
        assert np.max(np.abs(bellman_opt(q_star, mdp) - q_star)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_or_misshapen_q(self, bad):
        mdp = make_toy_mdp()
        for cell in ((0, 0), (1, 1)):
            q = np.zeros((2, 2))
            q[cell] = bad
            for apply in (lambda q: bellman_opt(q, mdp), lambda q: bellman_eval(q, mdp, Policy.uniform(2, 2))):
                with pytest.raises(ValueError, match="^Q entries must be finite$"):
                    apply(q)
        with pytest.raises(ValueError, match="does not match MDP"):
            bellman_opt(np.zeros((2, 3)), mdp)

    def test_contraction_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mdp = random_mdp(rng)
            pi = random_policy(rng, mdp.n_states, mdp.n_actions)
            q1 = rng.uniform(-5, 5, size=(mdp.n_states, mdp.n_actions))
            q2 = rng.uniform(-5, 5, size=(mdp.n_states, mdp.n_actions))
            gap = np.max(np.abs(q1 - q2))
            assert np.max(np.abs(bellman_eval(q1, mdp, pi) - bellman_eval(q2, mdp, pi))) <= (
                mdp.discount * gap + 1e-12
            )
            assert np.max(np.abs(bellman_opt(q1, mdp) - bellman_opt(q2, mdp))) <= (
                mdp.discount * gap + 1e-12
            )


class TestGreedyPolicy:
    def test_lowest_index(self):
        pi = greedy_policy(np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert pi.probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestFullDistributionalOperators:
    def test_all_dirac_toy_entry(self):
        mdp = make_toy_mdp()
        out = distr_bellman_eval(all_dirac(mdp), mdp, Policy.uniform(2, 2))
        assert out[0, 0].atoms.tolist() == [2.0]
        assert out[0, 0].weights.tolist() == [1.0]

    def test_atom_count_bound(self):
        rng = np.random.default_rng(1)
        mdp = random_mdp(rng, n_states=3, n_actions=2)
        mu = random_collection(rng, 3, 2, max_atoms=3)
        pi = random_policy(rng, 3, 2)
        out = distr_bellman_eval(mu, mdp, pi)
        k_max = max(mu[x, a].atoms.size for x in range(3) for a in range(2))
        for x in range(3):
            for a in range(2):
                assert out[x, a].atoms.size <= 3 * 2 * k_max

    def test_mean_commutation_eval(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mdp = random_mdp(rng)
            mu = random_collection(rng, mdp.n_states, mdp.n_actions)
            pi = random_policy(rng, mdp.n_states, mdp.n_actions)
            out = distr_bellman_eval(mu, mdp, pi)
            expected = bellman_eval(mu.means(), mdp, pi)
            assert np.max(np.abs(out.means() - expected)) <= 1e-10

    def test_opt_equals_eval_under_greedy_without_ties(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng)
        mu = random_collection(rng, mdp.n_states, mdp.n_actions)
        pi_greedy = greedy_policy(mu.means())
        out_opt = distr_bellman_opt(mu, mdp)
        out_eval = distr_bellman_eval(mu, mdp, pi_greedy)
        assert sup_wasserstein(out_opt, out_eval, 1.0) == 0.0

    def test_opt_mean_commutation(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mdp = random_mdp(rng)
            mu = random_collection(rng, mdp.n_states, mdp.n_actions)
            out = distr_bellman_opt(mu, mdp)
            assert np.max(np.abs(out.means() - bellman_opt(mu.means(), mdp))) <= 1e-10

    def test_tie_break_changes_output_on_toy(self):
        # exact tie at x1, different shapes: the full operator mixes in the
        # entry of the lowest tied action, so relabelling the tied entries
        # changes its output; the one-step operator reads only the tied mean
        mdp = make_toy_mdp()
        spread = AtomicDistribution.from_points([0.0, 4.0], [0.5, 0.5])
        mu = DistributionCollection([[dirac(2.0), spread], [dirac(0.0), dirac(0.0)]])
        swapped = DistributionCollection([[spread, dirac(2.0)], [dirac(0.0), dirac(0.0)]])
        assert mu.means()[0, 0] == mu.means()[0, 1] == 2.0
        assert sup_wasserstein(distr_bellman_opt(mu, mdp), distr_bellman_opt(swapped, mdp), 1.0) > 0.01
        assert sup_wasserstein(os_distr_opt(mu, mdp), os_distr_opt(swapped, mdp), 1.0) == 0.0

    def test_full_eval_contracts(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mdp = random_mdp(rng)
            mu1 = random_collection(rng, mdp.n_states, mdp.n_actions)
            mu2 = random_collection(rng, mdp.n_states, mdp.n_actions)
            pi = random_policy(rng, mdp.n_states, mdp.n_actions)
            for p in (1.0, 2.0):
                before = sup_wasserstein(mu1, mu2, p)
                after = sup_wasserstein(
                    distr_bellman_eval(mu1, mdp, pi), distr_bellman_eval(mu2, mdp, pi), p
                )
                assert after <= mdp.discount * before + 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_mu_or_policy_of_another_shape_is_refused(self, gamma):
        # a 3 x 2 mu holds as many entries as a 2 x 3 MDP, and a one-state
        # policy would broadcast over every state; neither is paired up
        rng = np.random.default_rng(6)
        mdp = random_mdp(rng, n_states=2, n_actions=3)
        mdp = TabularMdp(kernel=mdp.kernel, reward=mdp.reward, discount=gamma)
        mu, pi = random_collection(rng, 2, 3), random_policy(rng, 2, 3)
        for bad_mu, bad_pi in ((random_collection(rng, 3, 2), pi), (mu, random_policy(rng, 1, 3))):
            with pytest.raises(ValueError, match="same states and actions"):
                distr_bellman_eval(bad_mu, mdp, bad_pi)
        with pytest.raises(ValueError, match="same states and actions"):
            distr_bellman_opt(random_collection(rng, 3, 2), mdp)


class TestOneStepOperators:
    def test_atom_count_at_most_n_states(self):
        mdp = make_toy_mdp()
        rng = np.random.default_rng(6)
        mu = random_collection(rng, 2, 2)
        for out in (os_distr_eval(mu, mdp, Policy.uniform(2, 2)), os_distr_opt(mu, mdp)):
            for x in range(2):
                for a in range(2):
                    assert out[x, a].atoms.size <= 2

    def test_zero_means_give_reward_mixture(self):
        rng = np.random.default_rng(7)
        mdp = random_mdp(rng)
        mu = all_dirac(mdp)
        out = os_distr_opt(mu, mdp)
        for x in range(mdp.n_states):
            for a in range(mdp.n_actions):
                row = mdp.kernel[x, a]
                keep = row > 0
                expected = AtomicDistribution.from_points(mdp.reward[x, a][keep], row[keep])
                assert wasserstein(out[x, a], expected, 1.0) <= 1e-12

    def test_matches_direct_formula_on_categorical_input(self):
        # independent evaluation of the finite-support formula with
        # Q(x', a') the categorical means
        rng = np.random.default_rng(8)
        mdp = random_mdp(rng, n_states=3, n_actions=2)
        grid = np.array([-2.0, 0.0, 1.0, 3.0])
        mu = DistributionCollection.build(
            3, 2, lambda x, a: cramer_project(random_atomic(rng), grid)
        )
        pi = random_policy(rng, 3, 2)
        out = os_distr_eval(mu, mdp, pi)
        q = np.array([[mu[x, a].mean() for a in range(2)] for x in range(3)])
        v = (pi.probs * q).sum(axis=1)
        for x in range(3):
            for a in range(2):
                targets = [
                    mdp.reward[x, a, xn] + mdp.discount * v[xn]
                    for xn in range(3)
                    if mdp.kernel[x, a, xn] > 0
                ]
                weights = [p for p in mdp.kernel[x, a] if p > 0]
                expected = AtomicDistribution.from_points(targets, weights)
                assert wasserstein(out[x, a], expected, 1.0) <= 1e-12

    def test_opt_invariant_to_action_relabeling(self):
        rng = np.random.default_rng(9)
        mdp = random_mdp(rng, n_states=2, n_actions=2)
        mu = random_collection(rng, 2, 2)
        swapped = DistributionCollection.build(2, 2, lambda x, a: mu[x, 1 - a])
        assert sup_wasserstein(os_distr_opt(mu, mdp), os_distr_opt(swapped, mdp), 1.0) == 0.0

    def test_contraction(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            mdp = random_mdp(rng)
            mu1 = random_collection(rng, mdp.n_states, mdp.n_actions)
            mu2 = random_collection(rng, mdp.n_states, mdp.n_actions)
            pi = random_policy(rng, mdp.n_states, mdp.n_actions)
            for p in (1.0, 2.0, 4.0):
                before = sup_wasserstein(mu1, mu2, p)
                assert sup_wasserstein(os_distr_opt(mu1, mdp), os_distr_opt(mu2, mdp), p) <= (
                    mdp.discount * before + 1e-10
                )
                assert sup_wasserstein(
                    os_distr_eval(mu1, mdp, pi), os_distr_eval(mu2, mdp, pi), p
                ) <= mdp.discount * before + 1e-10

    def test_monotone_in_dominance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            mdp = random_mdp(rng)
            mu1 = random_collection(rng, mdp.n_states, mdp.n_actions)

            def shifted(x, a):
                base = mu1[x, a]
                shifts = rng.uniform(0.0, 2.0, size=base.atoms.size)
                return AtomicDistribution.from_points(base.atoms + shifts, base.weights)

            mu2 = DistributionCollection.build(mdp.n_states, mdp.n_actions, shifted)
            out1, out2 = os_distr_opt(mu1, mdp), os_distr_opt(mu2, mdp)
            for x in range(mdp.n_states):
                for a in range(mdp.n_actions):
                    assert dominance_excess(out2[x, a], out1[x, a]) <= 1e-12


class TestProjectedOperators:
    GRID = np.array([0.0, 1.9, 2.1, 10.0])

    def test_projected_output_is_normalized_categorical(self):
        mdp = make_toy_mdp()
        op = projected(lambda m: os_distr_opt(m, mdp), self.GRID)
        out = op(all_dirac(mdp, z=0.0))
        for _, dist in out:
            assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_projected_contraction_w1(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            mdp = random_mdp(rng)
            grid = np.sort(rng.uniform(-3, 3, size=4))
            if np.any(np.diff(grid) < 1e-3):
                continue
            op = projected(lambda m: os_distr_opt(m, mdp), grid)
            mu1 = random_collection(rng, mdp.n_states, mdp.n_actions)
            mu2 = random_collection(rng, mdp.n_states, mdp.n_actions)
            assert sup_wasserstein(op(mu1), op(mu2), 1.0) <= (
                mdp.discount * sup_wasserstein(mu1, mu2, 1.0) + 1e-10
            )

    def test_projected_iteration_accepts_own_output(self):
        mdp = make_toy_mdp()
        op = projected(lambda m: os_distr_opt(m, mdp), self.GRID)
        mu = op(all_dirac(mdp))
        again = op(mu)  # categorical input round-trips through the operator
        assert again[0, 0].probs.sum() == pytest.approx(1.0, abs=1e-12)


def categorical_collection(probs, grid):
    return DistributionCollection.build(
        probs.shape[0], probs.shape[1], lambda x, a: CategoricalDistribution(grid, probs[x, a])
    )


def assert_ops_match(mdp, grid, probs, policy=None):
    """Every array operator equals its object-level composition bit for bit."""
    policy = policy or Policy.uniform(mdp.n_states, mdp.n_actions)
    mu = categorical_collection(probs, grid)
    pairs = (
        (categorical_full_opt(mdp, grid), lambda m: distr_bellman_opt(m, mdp)),
        (categorical_os_opt(mdp, grid), lambda m: os_distr_opt(m, mdp)),
        (categorical_os_eval(mdp, policy, grid), lambda m: os_distr_eval(m, mdp, policy)),
    )
    for array_op, object_op in pairs:
        assert np.array_equal(array_op(probs), projected(object_op, grid)(mu).probs())


class TestArrayOperators:
    GRID = np.array([0.0, 1.9, 2.1, 10.0])

    @pytest.mark.parametrize("r_a", [0.0, 0.7, 1.5, 1.8878306765799053, 2.05])
    def test_full_opt_trace_matches_object_on_toy_family(self, r_a):
        # r_a = 1.5: both successors of (x1, a2) pay 1.5, so their atoms coincide
        mdp = make_toy_mdp(r_a)
        array_op = categorical_full_opt(mdp, self.GRID)
        object_op = projected(lambda m: distr_bellman_opt(m, mdp), self.GRID)
        mu = categorical_start(mdp, self.GRID)
        probs = mu.probs()
        for _ in range(40):
            mu, probs = object_op(mu), array_op(probs)
            assert np.array_equal(probs, mu.probs())

    def test_tied_and_near_tied_actions(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            mdp = make_toy_mdp(float(rng.uniform(0.0, 3.0)))
            probs = random_probs(rng, 2, 2, self.GRID.size)
            probs[:, 1] = probs[:, 0]  # exact tie: the lowest index wins
            assert_ops_match(mdp, self.GRID, probs)
            row = probs[0, 1]
            src = int(np.flatnonzero(row > 0.0)[0])
            moved = row[src] * 2.0**-52
            row[src] -= moved
            row[(src + 1) % row.size] += moved  # means a rounding step apart
            assert_ops_match(mdp, self.GRID, probs)

    def test_random_mdps_with_stochastic_policies(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            mdp = random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            grid = random_grid(rng, max_points=6)
            probs = random_probs(rng, mdp.n_states, mdp.n_actions, grid.size)
            assert_ops_match(mdp, grid, probs, random_policy(rng, mdp.n_states, mdp.n_actions))

    def test_many_clamped_atoms_keep_numpy_sum_order(self):
        # every atom lies above a narrow grid: 4 successors x 3 cells clamp
        # 12 atoms per entry into the last cell, summed as project_points sums
        rng = np.random.default_rng(5)
        for _ in range(10):
            mdp = random_mdp(rng, 4, 2)
            reward = np.abs(mdp.reward) + 0.5
            mdp = TabularMdp(kernel=mdp.kernel, reward=reward, discount=mdp.discount)
            grid = np.array([-0.02, 0.0, 0.02])
            assert_ops_match(mdp, grid, random_probs(rng, 4, 2, 3, zero_frac=0.0))

    @pytest.mark.parametrize("offset", [0.0, 4e-13, 9e-13, 2e-12])
    def test_atoms_within_merge_tolerance(self, offset):
        # successors 0 and 1 pay rewards `offset` apart: from_points merges
        # their atoms below 1e-12 and keeps them apart above it
        rng = np.random.default_rng(6)
        for _ in range(10):
            mdp = random_mdp(rng, 3, 2)
            reward = mdp.reward.copy()
            reward[..., 1] = reward[..., 0] + offset
            mdp = TabularMdp(kernel=mdp.kernel, reward=reward, discount=mdp.discount)
            grid = random_grid(rng, max_points=5)
            assert_ops_match(mdp, grid, random_probs(rng, 3, 2, grid.size))

    def test_cells_narrower_than_merge_tolerance_and_zero_discount(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mdp = random_mdp(rng, 3, 2)
            grid = np.array([0.0, 1e-13, 2e-13, 1.0])  # pushforwards merge atoms
            assert_ops_match(mdp, grid, random_probs(rng, 3, 2, 4))
            flat = TabularMdp(kernel=mdp.kernel, reward=mdp.reward, discount=0.0)
            assert_ops_match(flat, grid, random_probs(rng, 3, 2, 4))

    def test_frozen_lake(self):
        rng = np.random.default_rng(8)
        mdp = make_frozen_lake().mdp
        grid = np.array([0.0, 10.0, 20.0])
        probs = random_probs(rng, mdp.n_states, mdp.n_actions, 3)
        assert_ops_match(mdp, grid, probs, random_policy(rng, mdp.n_states, mdp.n_actions))

    def test_verify_property_passes(self):
        result = check_categorical_operators(seed=1, n_cases=24)
        assert result.passed and result.max_violation == 0.0
        assert result.cases >= 24


class TestOneStepRows:
    """The rows that os_distr_eval, os_distr_opt and their array forms share."""

    def test_an_overflowing_target_fails_in_the_array_forms_too(self):
        # successor 1 pays 1e308 and its row's mean is 1e308, so its target
        # overflows; where it has probability 0 nothing fails
        grid = np.array([0.0, 1e308])
        probs = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        reward = np.zeros((2, 1, 2))
        reward[..., 1] = 1e308
        policy = Policy(np.ones((2, 1)))
        reached = TabularMdp(kernel=np.full((2, 1, 2), 0.5), reward=reward, discount=0.9)
        unreached = TabularMdp(kernel=np.array([[[1.0, 0.0]]] * 2), reward=reward, discount=0.9)
        with np.errstate(over="ignore"):
            for make in (categorical_os_opt, lambda m, g: categorical_os_eval(m, policy, g)):
                with pytest.raises(ValueError, match="atoms must be finite"):
                    make(reached, grid)(probs)
                assert make(unreached, grid)(probs).tolist() == [[[1.0, 0.0]], [[1.0, 0.0]]]


def lone_and_batched(mdps, grid, probs, n_steps):
    """n_steps applications from probs[c] of each MDP's own operator, and of
    one batched operator over all of them, as (n_steps + 1, C, S, A, K)."""
    lone = []
    for mdp, p in zip(mdps, probs):
        op, stack = categorical_full_opt(mdp, grid), [p]
        for _ in range(n_steps):
            stack.append(op(stack[-1]))
        lone.append(stack)
    op, batched = categorical_full_opt_batch(mdps, grid), [probs]
    for _ in range(n_steps):
        batched.append(op(batched[-1]))
    return np.array(lone).swapaxes(0, 1), np.array(batched)


class TestFullOptBatch:
    GRID = np.array([0.0, 1.9, 2.1, 10.0])

    def test_each_candidate_keeps_its_lone_bits(self):
        # r_a = 1.5 puts coincident atoms in (x1, a2), so the batch runs its
        # merge step on every row; the others' rows have nothing to merge
        rng = np.random.default_rng(12)
        r_as = rng.uniform(1.8, 2.2, 24).tolist() + [1.5] + rng.uniform(0.0, 3.0, 24).tolist()
        mdps = [make_toy_mdp(r_a) for r_a in r_as]
        start = categorical_start(mdps[0], self.GRID).probs()
        lone, batched = lone_and_batched(mdps, self.GRID, np.array([start] * len(mdps)), 140)
        for c, r_a in enumerate(r_as):
            assert lone[:, c].tobytes() == batched[:, c].tobytes(), f"candidate {c} (r_a={r_a!r})"

    @pytest.mark.parametrize("grid, discount", [(None, None), ([0.0, 1e-13, 2e-13, 1.0], None), (None, 0.0)])
    def test_random_rewards_on_one_kernel(self, grid, discount):
        # successors 0 and 1 of some MDPs pay rewards within the merge
        # tolerance; a grid of 1e-13 cells merges atoms inside each pushforward
        rng = np.random.default_rng(13)
        base = random_mdp(rng, 3, 2)
        grid = random_grid(rng, max_points=5) if grid is None else np.array(grid)
        mdps = []
        for offset in (None, 0.0, 4e-13, 2e-12, None, 9e-13):
            reward = rng.uniform(-1.0, 1.0, size=base.reward.shape)
            if offset is not None:
                reward[..., 1] = reward[..., 0] + offset
            mdps.append(TabularMdp(kernel=base.kernel, reward=reward, discount=base.discount if discount is None else discount))
        probs = np.array([random_probs(rng, 3, 2, grid.size) for _ in mdps])
        lone, batched = lone_and_batched(mdps, grid, probs, 20)
        assert lone.tobytes() == batched.tobytes()
        for mdp, p, got in zip(mdps, probs, batched[1]):
            assert_ops_match(mdp, grid, p)  # and the lone operator is the object-level one
            assert np.array_equal(got, categorical_full_opt(mdp, grid)(p))

    def test_a_subset_of_the_batch_keeps_the_batch_bits(self, monkeypatch):
        # the instability search rebuilds its batch over the candidates still
        # moving; the merge flags are batch-wide, so a subset without r_a =
        # 1.5 skips _merge_sorted, which must leave every row's bits alone
        rng = np.random.default_rng(12)
        r_as = rng.uniform(1.8, 2.2, 6).tolist() + [1.5] + rng.uniform(0.0, 3.0, 6).tolist()
        mdps = [make_toy_mdp(r_a) for r_a in r_as]
        start = categorical_start(mdps[0], self.GRID).probs()
        _, batched = lone_and_batched(mdps, self.GRID, np.array([start] * len(mdps)), 40)
        merges = []
        real_merge = operators._merge_sorted
        monkeypatch.setattr(operators, "_merge_sorted", lambda *a: merges.append(1) or real_merge(*a))
        without_merge = [c for c in range(len(mdps)) if c != 6]
        for subset, merging in (([0, 6, 12], True), ([6], True), (without_merge, False), ([9], False)):
            op = categorical_full_opt_batch([mdps[c] for c in subset], self.GRID)
            merges.clear()
            for n in range(40):
                got = op(batched[n, subset])
                assert got.tobytes() == batched[n + 1, subset].tobytes(), f"subset {subset}, iterate {n + 1}"
            assert bool(merges) is merging, subset

    def test_batch_of_one_is_the_single_operator(self):
        mdp = make_toy_mdp(1.9)
        probs = random_probs(np.random.default_rng(14), 2, 2, self.GRID.size)
        got = categorical_full_opt_batch([mdp], self.GRID)(probs[None])
        assert got.shape == (1, 2, 2, 4)
        assert got[0].tobytes() == categorical_full_opt(mdp, self.GRID)(probs).tobytes()

    def test_mdps_must_share_kernel_and_discount(self):
        mdp = make_toy_mdp()
        other_kernel = mdp.kernel.copy()
        other_kernel[0, 1] = [0.25, 0.75]
        for other in (
            TabularMdp(kernel=other_kernel, reward=mdp.reward, discount=mdp.discount),
            TabularMdp(kernel=mdp.kernel, reward=mdp.reward, discount=0.9),
        ):
            with pytest.raises(ValueError, match="share kernel and discount"):
                categorical_full_opt_batch([mdp, other], self.GRID)

    def test_infinite_atoms_merge_before_their_clamped_mass_is_summed(self):
        # every entry reaches successors 0 and 1 with probability 1/2, whose
        # rewards near float max overflow r + 0.9 * 1e307 to +inf: each row
        # clamps 0.15 at each of two finite atoms and 0.35 at each of two
        # equal infinite ones, which merge as from_points merges them (inf -
        # inf is NaN, not a new run), so the mass sums as 0.15 + 0.15 +
        # (0.35 + 0.35) = 1.0 and not as 0.9999999999999999 in atom order
        reward = np.zeros((2, 1, 2))
        reward[..., 0], reward[..., 1] = 1.79e308, 1.795e308
        mdp = TabularMdp(kernel=np.full((2, 1, 2), 0.5), reward=reward, discount=0.9)
        probs = np.array([[[0.3, 0.7]], [[0.3, 0.7]]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = categorical_full_opt(mdp, np.array([0.0, 1e307]))(probs)
        assert got.tolist() == [[[0.0, 1.0]], [[0.0, 1.0]]]


def collection_cases(seed, n_cases=300):
    """(collection, grid) pairs for the collection projection: atomic and
    categorical entries (the latter on another grid, with empty cells),
    single atoms, atoms exactly on grid points, clamps on both sides, 3 to
    12 atoms clamped on one side, and grids of K = 2 to 6 points."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        grid = random_grid(rng, max_points=6) if rng.random() < 0.7 else np.sort(rng.uniform(-3.0, 3.0, 2))
        lo, hi = float(grid[0]), float(grid[-1])

        def entry(x, a):
            kind = int(rng.integers(6))
            n = int(rng.integers(1, 7))
            if kind == 0:  # a single atom, anywhere
                return dirac(float(rng.uniform(lo - 2.0, hi + 2.0)))
            if kind == 1:  # atoms on grid points, some off them
                atoms = np.where(rng.random(n) < 0.7, rng.choice(grid, n), rng.uniform(lo, hi, n))
            elif kind == 2:  # every atom clamped below or above; from 8 on numpy sums them pairwise
                n = int(rng.integers(3, 13))
                atoms = rng.uniform(lo - 3.0, lo, n) if rng.random() < 0.5 else rng.uniform(hi, hi + 3.0, n)
            elif kind == 3:  # categorical, on a grid of its own
                other = random_grid(rng, max_points=6)
                return CategoricalDistribution(other, random_probs(rng, 1, 1, other.size)[0, 0])
            else:  # clamps on both sides and interior atoms
                atoms = rng.uniform(lo - 2.0, hi + 2.0, n)
            return AtomicDistribution.from_points(atoms, rng.dirichlet(np.ones(n)))

        yield DistributionCollection.build(int(rng.integers(1, 5)), int(rng.integers(1, 4)), entry), grid


class TestCollectionProjection:
    """_project_collection, the one mirror pass over a whole collection,
    against cramer_project entry by entry."""

    def test_equals_cramer_project_bit_for_bit(self):
        # rows clamping more than two atoms on one side, and those among
        # them whose in-order sum differs from numpy's
        crowded = ties = 0
        for mu, grid in collection_cases(seed=28):
            got = _project_collection(mu, grid)
            assert (got.n_states, got.n_actions) == (mu.n_states, mu.n_actions)
            for (x, a), dist in mu:
                want = cramer_project(dist, grid)
                assert isinstance(got[x, a], CategoricalDistribution)
                assert got[x, a].grid.tobytes() == want.grid.tobytes()
                assert got[x, a].probs.tobytes() == want.probs.tobytes()
                assert not got[x, a].probs.flags.writeable
                nu = dist.as_atomic() if isinstance(dist, CategoricalDistribution) else dist
                for side in (nu.atoms <= grid[0], nu.atoms > grid[-1]):
                    if side.sum() > 2:
                        crowded += 1
                        w = nu.weights[side]
                        ties += float(np.cumsum(w)[-1]) != float(w.sum())
        assert crowded >= 50 and ties >= 1

    def test_two_point_grid_pads_a_one_atom_row(self):
        grid = np.array([-1.0, 1.0])
        nu = AtomicDistribution.from_points([-3.0, -1.0, 0.25, 1.0, 2.0], [0.1, 0.2, 0.3, 0.15, 0.25])
        mu = DistributionCollection([[nu, dirac(0.5)]])
        got = _project_collection(mu, grid)
        for a in range(2):
            assert got[0, a].probs.tobytes() == cramer_project(mu[0, a], grid).probs.tobytes()

    def test_bad_grid_is_refused(self):
        mu = DistributionCollection.constant(1, 1, dirac(0.0))
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            _project_collection(mu, [0.0, 0.0, 1.0])


def argsort_columns(weights):
    """_positive_columns without its all-positive shortcut: the argsort form."""
    real = weights > 0.0
    count = real.sum(axis=1)
    cols = (~real).argsort(axis=1, kind="stable")[:, : count.max()]
    real = np.arange(cols.shape[1]) < count[:, None]
    return np.where(real, cols, cols[np.arange(len(cols)), count - 1][:, None]), real


class TestPositiveColumns:
    """_positive_columns' all-positive shortcut against the argsort it skips."""

    @staticmethod
    def weight_matrices():
        rng = np.random.default_rng(29)
        for mdp in (make_toy_mdp(), make_frozen_lake().mdp):
            yield mdp.kernel.reshape(-1, mdp.n_states)
        for _ in range(40):
            mdp = random_mdp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            kernel = mdp.kernel.copy()
            if rng.random() < 0.5:  # some zero cells, never a whole row
                kernel[rng.random(kernel.shape) < 0.3] = 0.0
                kernel[kernel.sum(axis=-1) == 0.0, 0] = 1.0
                kernel /= kernel.sum(axis=-1, keepdims=True)
            yield kernel.reshape(-1, mdp.n_states)
            n = mdp.n_states * mdp.n_actions
            shape = (mdp.n_states, mdp.n_actions)
            for policy in (random_policy(rng, *shape), greedy_policy(rng.random(shape))):
                yield (kernel[..., None] * policy.probs).reshape(n, n)  # distr_bellman_eval's mixture matrix

    def test_shortcut_matches_the_argsort(self):
        with_zeros = without = 0
        for weights in self.weight_matrices():
            (cols, real), (want_cols, want_real) = _positive_columns(weights), argsort_columns(weights)
            assert cols.dtype == want_cols.dtype and cols.shape == want_cols.shape
            assert np.array_equal(cols, want_cols) and np.array_equal(real, want_real)
            if np.all(weights > 0.0):
                without += 1
            else:
                with_zeros += 1
        assert with_zeros >= 20 and without >= 20
