import json
from types import SimpleNamespace

import numpy as np
import pytest

from osdrl import (
    EpisodicEnv,
    Policy,
    TabularMdp,
    Transition,
    make_frozen_lake,
    make_toy_mdp,
    sample_step,
)
from osdrl.verify import _as_json, random_mdp


def q_pi_linear_solve(mdp, policy):
    """Independent oracle: Q^pi from the linear system (I - gamma*P*Pi) Q = R.

    Treats Q as a vector over (x, a) pairs; no operator iteration involved.
    """
    s, a = mdp.n_states, mdp.n_actions
    n = s * a
    # expected immediate reward per (x, a)
    r = (mdp.kernel * mdp.reward).sum(axis=2).reshape(n)
    # transition matrix over (x, a) -> (x', a') under the policy
    m = np.zeros((n, n))
    for x in range(s):
        for ai in range(a):
            for xn in range(s):
                for an in range(a):
                    m[x * a + ai, xn * a + an] = mdp.kernel[x, ai, xn] * policy.probs[xn, an]
    q = np.linalg.solve(np.eye(n) - mdp.discount * m, r)
    return q.reshape(s, a)


def q_star_brute_force(mdp):
    """Independent oracle for Q*: enumerate all deterministic policies and
    take the entrywise max of their linear-solve Q-functions."""
    import itertools

    s, a = mdp.n_states, mdp.n_actions
    best = np.full((s, a), -np.inf)
    for actions in itertools.product(range(a), repeat=s):
        q = q_pi_linear_solve(mdp, Policy.deterministic(actions, a))
        best = np.maximum(best, q)
    return best


class TestTabularMdp:
    def test_kernel_rows_sum_to_one(self):
        for mdp in (make_toy_mdp(), make_frozen_lake().mdp, make_frozen_lake(slippery=False).mdp):
            assert np.max(np.abs(mdp.kernel.sum(axis=2) - 1.0)) <= 1e-12

    def test_rejects_bad_rows(self):
        kernel = np.zeros((2, 1, 2))
        kernel[:, :, 0] = 0.9  # rows sum to 0.9
        with pytest.raises(ValueError, match="sum to 1"):
            TabularMdp(kernel=kernel, reward=np.zeros((2, 1, 2)), discount=0.5)

    def test_rejects_negative_kernel(self):
        kernel = np.zeros((2, 1, 2))
        kernel[:, :, 0] = 1.5
        kernel[:, :, 1] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            TabularMdp(kernel=kernel, reward=np.zeros((2, 1, 2)), discount=0.5)

    def test_rejects_discount_one(self):
        kernel = np.zeros((1, 1, 1))
        kernel[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="discount"):
            TabularMdp(kernel=kernel, reward=np.zeros((1, 1, 1)), discount=1.0)

    def test_json_round_trip(self):
        # verify's one writer, read back by the constructor
        mdp = random_mdp(np.random.default_rng(3), 3, 2)
        doc = json.loads(json.dumps(_as_json(mdp)))
        assert list(doc) == ["n_states", "n_actions", "discount", "kernel", "reward"]
        assert (doc["n_states"], doc["n_actions"]) == mdp.kernel.shape[:2] == (3, 2)
        back = TabularMdp(kernel=doc["kernel"], reward=doc["reward"], discount=doc["discount"])
        assert np.array_equal(back.kernel, mdp.kernel)
        assert np.array_equal(back.reward, mdp.reward)
        assert back.discount == mdp.discount


class TestPolicy:
    def test_uniform_rows(self):
        pi = Policy.uniform(3, 4)
        assert np.allclose(pi.probs.sum(axis=1), 1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Policy(np.array([[0.5, 0.4]]))

    def test_deterministic(self):
        pi = Policy.deterministic([1, 0], 2)
        assert pi.probs[0, 1] == 1.0 and pi.probs[1, 0] == 1.0


class TestToyMdp:
    def test_discount_is_half(self):
        assert make_toy_mdp().discount == 0.5

    def test_q_star_values(self):
        # value oracle: brute-force deterministic-policy enumeration
        q_star = q_star_brute_force(make_toy_mdp())
        assert abs(q_star[0, 0] - 2.0) < 1e-12
        assert abs(q_star[0, 1] - 2.0) < 1e-12
        assert abs(q_star[1, 0]) < 1e-12 and abs(q_star[1, 1]) < 1e-12

    def test_every_policy_is_optimal(self):
        mdp = make_toy_mdp()
        q_star = q_star_brute_force(mdp)
        rng = np.random.default_rng(7)
        for _ in range(50):
            pi = Policy(rng.dirichlet(np.ones(2), size=2))
            q_pi = q_pi_linear_solve(mdp, pi)
            assert np.max(np.abs(q_pi - q_star)) < 1e-9

    def test_reward_perturbation_keeps_the_tie(self):
        for r_a in (0.7, 1.95, 2.9):
            mdp = make_toy_mdp(r_a)
            assert mdp.reward[0, 1, 1] == r_a and mdp.reward[0, 1, 0] == 3.0 - r_a
            q_star = q_star_brute_force(mdp)
            assert abs(q_star[0, 0] - 2.0) < 1e-12 and abs(q_star[0, 1] - 2.0) < 1e-12

    def test_deterministic_transition(self):
        mdp = make_toy_mdp()
        rng = np.random.default_rng(0)
        for _ in range(10):
            tr = sample_step(mdp, 0, 0, rng)
            assert tr == Transition(0, 0, 2.0, 1)


class TestFrozenLake:
    def test_shape(self):
        env = make_frozen_lake()
        assert env.mdp.n_states == 16 and env.mdp.n_actions == 4
        assert env.mdp.discount == 0.95

    def test_terminals_absorbing(self):
        env = make_frozen_lake()
        assert env.terminal_states == frozenset({5, 7, 11, 12, 15})
        for t in env.terminal_states:
            for a in range(4):
                assert env.mdp.kernel[t, a, t] == 1.0
                assert env.mdp.reward[t, a, t] == 0.0

    def test_non_slippery_down_from_start(self):
        env = make_frozen_lake(slippery=False)
        assert env.mdp.kernel[0, 1, 4] == 1.0

    def test_moves_off_grid_stay(self):
        env = make_frozen_lake(slippery=False)
        # left from the start cell keeps the state
        assert env.mdp.kernel[0, 0, 0] == 1.0

    def test_goal_reward_on_entry(self):
        env = make_frozen_lake(slippery=False, goal_reward=3.0)
        assert env.mdp.reward[14, 2, 15] == 3.0

    def test_rejects_nonpositive_goal_reward(self):
        with pytest.raises(ValueError, match="goal_reward"):
            make_frozen_lake(goal_reward=0.0)

    def test_slippery_spreads_one_third(self):
        env = make_frozen_lake(slippery=True)
        # from start, intended down: perpendiculars are left (stays) and right
        row = env.mdp.kernel[0, 1]
        assert abs(row[4] - 1 / 3) < 1e-12
        assert abs(row[0] - 1 / 3) < 1e-12
        assert abs(row[1] - 1 / 3) < 1e-12

    def test_monte_carlo_matches_kernel(self):
        # slippery cell, action right, 1e5 samples within 0.01 of the kernel
        env = make_frozen_lake(slippery=True)
        rng = np.random.default_rng(123)
        counts = np.zeros(16)
        n = 100_000
        for _ in range(n):
            tr = sample_step(env, 0, 2, rng)
            counts[tr.next_state] += 1
        assert np.max(np.abs(counts / n - env.mdp.kernel[0, 2])) < 0.01


class TestEpisodicEnv:
    def test_rejects_non_absorbing_terminal(self):
        mdp = make_toy_mdp()
        with pytest.raises(ValueError, match="absorbing"):
            EpisodicEnv(mdp=mdp, terminal_states=frozenset({0}), initial_state=0)

    def test_reset_fixed_initial(self):
        env = EpisodicEnv(mdp=make_toy_mdp(), terminal_states=frozenset({1}), initial_state=np.int64(1))
        assert env.initial_state == 1 and type(env.initial_state) is int

    def test_initial_state_must_be_an_integer_id(self):
        for bad in (0.7, 1.0, True, [0.5, 0.5], 2, -1):
            with pytest.raises(ValueError, match="initial state"):
                EpisodicEnv(mdp=make_toy_mdp(), terminal_states=frozenset({1}), initial_state=bad)

    def test_terminal_states_must_be_integer_ids(self):
        for bad in (1.9, 1.0, True, np.float64(1.0), 2):
            with pytest.raises(ValueError, match="terminal state"):
                EpisodicEnv(mdp=make_toy_mdp(), terminal_states=frozenset({bad}), initial_state=0)
        env = EpisodicEnv(mdp=make_toy_mdp(), terminal_states=frozenset({np.int64(1)}), initial_state=0)
        assert env.terminal_states == {1} and all(type(t) is int for t in env.terminal_states)

    def test_sample_step_rejects_bad_ids(self):
        env = make_frozen_lake()
        rng = np.random.default_rng(0)
        with pytest.raises(IndexError):
            sample_step(env, 16, 0, rng)
        with pytest.raises(IndexError):
            sample_step(env, 0, -1, rng)

    def test_sample_step_deterministic_given_rng(self):
        env = make_frozen_lake()
        a = [sample_step(env, 0, 2, np.random.default_rng(9)) for _ in range(3)]
        assert a[0] == a[1] == a[2]

    def test_sample_step_never_draws_a_state_of_probability_zero(self):
        # the row's cumulative sums end at 0.9999999999999999, which a
        # uniform just below 1.0 reaches: the draw stops at the last cell of
        # positive probability, as the learner's draws do
        kernel = np.zeros((4, 1, 4))
        kernel[:, 0] = [0.7, 0.2, 0.1, 0.0]
        mdp = TabularMdp(kernel=kernel, reward=np.zeros_like(kernel), discount=0.5)
        assert np.cumsum(kernel[0, 0])[-1] < 1.0
        rng = SimpleNamespace(random=lambda: np.nextafter(1.0, 0.0))
        assert sample_step(mdp, 0, 0, rng).next_state == 2
