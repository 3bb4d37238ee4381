import csv
import math
from collections import deque

import numpy as np
import pytest

from osdrl import (
    AtomBudgetExceeded,
    AtomicDistribution,
    DistributionCollection,
    Policy,
    RangeConditionError,
    categorical_start,
    detect_oscillation,
    dirac,
    iterate,
    make_frozen_lake,
    make_toy_mdp,
    one_step_fixed_point_eval,
    one_step_fixed_point_opt,
    os_distr_eval,
    os_distr_opt,
    projected,
    projected_fixed_points,
    solve_q_pi,
    solve_q_star,
    sup_wasserstein,
    trace_atoms_to_csv,
    wasserstein,
)
from osdrl.mdp import TabularMdp
from osdrl.operators import bellman_eval, bellman_opt, distr_bellman_eval
from osdrl.verify import check_fixed_points, random_mdp, random_policy

TOY_GRID = [0.0, 1.9, 2.1, 10.0]


def self_loop_mdp(reward=1.0, discount=0.5):
    return TabularMdp(
        kernel=np.ones((1, 1, 1)), reward=np.full((1, 1, 1), reward), discount=discount
    )


def bfs_shortest_path_steps(env):
    """Independent oracle: fewest non-slippery moves from start to goal."""
    mdp = env.mdp
    start = int(env.initial_state)
    goal = 15
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        x, depth = frontier.popleft()
        if x == goal:
            return depth
        if x in env.terminal_states:
            continue
        for a in range(mdp.n_actions):
            xn = int(np.argmax(mdp.kernel[x, a]))
            if xn not in seen:
                seen.add(xn)
                frontier.append((xn, depth + 1))
    raise AssertionError("goal unreachable")


class TestScalarSolvers:
    def test_self_loop_geometric_series(self):
        mdp = self_loop_mdp()
        q = solve_q_pi(mdp, Policy.uniform(1, 1), tol=1e-10)
        assert abs(q[0, 0] - 2.0) <= 1e-10

    def test_toy_uniform_policy_value(self):
        mdp = make_toy_mdp()
        q = solve_q_pi(mdp, Policy.uniform(2, 2), tol=1e-10)
        assert abs(q[0, 0] - 2.0) <= 1e-10
        assert abs(q[0, 1] - 2.0) <= 1e-10

    def test_residual_below_stopping_bound(self):
        mdp = make_toy_mdp()
        pi = Policy.uniform(2, 2)
        tol = 1e-8
        q = solve_q_pi(mdp, pi, tol=tol)
        assert np.max(np.abs(bellman_eval(q, mdp, pi) - q)) < tol * (1 - mdp.discount)

    def test_q_star_toy(self):
        q = solve_q_star(make_toy_mdp(), tol=1e-12)
        assert np.max(np.abs(q - np.array([[2.0, 2.0], [0.0, 0.0]]))) <= 1e-10

    def test_q_star_fixed_point_residual(self):
        mdp = make_frozen_lake().mdp
        tol = 1e-9
        q = solve_q_star(mdp, tol=tol)
        assert np.max(np.abs(bellman_opt(q, mdp) - q)) < tol

    def test_frozen_lake_shortest_path_value(self):
        # BFS oracle: 6 moves to the goal, reward on the final transition
        env = make_frozen_lake(slippery=False, goal_reward=1.0)
        steps = bfs_shortest_path_steps(env)
        assert steps == 6
        v_start = solve_q_star(env.mdp, tol=1e-12)[0].max()
        assert abs(v_start - 0.95 ** (steps - 1)) <= 1e-9

    def test_gamma_zero_single_sweep(self):
        kernel = np.ones((1, 1, 1))
        mdp = TabularMdp(kernel=kernel, reward=np.full((1, 1, 1), 3.0), discount=0.0)
        assert solve_q_star(mdp, tol=1e-10)[0, 0] == 3.0

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            solve_q_star(make_toy_mdp(), tol=0.0)


class TestOneStepFixedPoints:
    def test_toy_eval_entry_is_dirac_two(self):
        mdp = make_toy_mdp()
        nu = one_step_fixed_point_eval(mdp, Policy.uniform(2, 2), tol=1e-12)
        assert wasserstein(nu[0, 0], dirac(2.0), 1.0) <= 1e-10

    def test_eval_is_fixed_point(self):
        tol = 1e-10
        rng = np.random.default_rng(0)
        for mdp, pi in [(make_toy_mdp(), Policy.uniform(2, 2))] + [
            (m := random_mdp(rng), random_policy(rng, m.n_states, m.n_actions))
            for _ in range(10)
        ]:
            nu = one_step_fixed_point_eval(mdp, pi, tol=tol)
            assert sup_wasserstein(os_distr_eval(nu, mdp, pi), nu, 1.0) <= 10 * tol

    def test_eval_means_match_q(self):
        tol = 1e-10
        mdp = make_toy_mdp()
        pi = Policy.uniform(2, 2)
        nu = one_step_fixed_point_eval(mdp, pi, tol=tol)
        assert np.max(np.abs(nu.means() - solve_q_pi(mdp, pi, tol=tol))) <= 10 * tol

    def test_toy_opt_mixture_entry(self):
        nu = one_step_fixed_point_opt(make_toy_mdp(), tol=1e-12)
        expected = AtomicDistribution.from_points([0.0, 4.0], [0.5, 0.5])
        assert wasserstein(nu[0, 1], expected, 1.0) <= 1e-10

    def test_opt_is_fixed_point(self):
        tol = 1e-10
        rng = np.random.default_rng(1)
        for mdp in [make_toy_mdp()] + [random_mdp(rng) for _ in range(10)]:
            nu = one_step_fixed_point_opt(mdp, tol=tol)
            assert sup_wasserstein(os_distr_opt(nu, mdp), nu, 1.0) <= 10 * tol

    def test_opt_means_match_q_star(self):
        tol = 1e-10
        mdp = make_frozen_lake().mdp
        nu = one_step_fixed_point_opt(mdp, tol=tol)
        assert np.max(np.abs(nu.means() - solve_q_star(mdp, tol=tol))) <= 10 * tol


def shift_array_operator_up(monkeypatch):
    """Make dp's array one-step control operator move every cell's mass one
    cell up (the last cell keeps its own)."""
    import osdrl.dp as dp

    exact = dp.categorical_os_opt

    def shifted(mdp, grid):
        op = exact(mdp, grid)

        def apply(probs):
            out = op(probs)
            moved = np.zeros_like(out)
            moved[..., 1:] = out[..., :-1]
            moved[..., -1] += out[..., -1]
            return moved

        return apply

    monkeypatch.setattr(dp, "categorical_os_opt", shifted)


class TestProjectedFixedPoints:
    def test_toy_control_entry(self):
        eta = projected_fixed_points(make_toy_mdp(), TOY_GRID, tol=1e-10)
        assert np.allclose(eta[0, 0].probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_narrow_grid_raises_with_triplet(self):
        with pytest.raises(RangeConditionError) as excinfo:
            projected_fixed_points(make_toy_mdp(), [0.0, 1.0], tol=1e-10)
        assert "x'" in str(excinfo.value)
        assert excinfo.value.violations  # offending triplets listed

    def test_iteration_reaches_fixed_point_within_banach_bound(self):
        mdp = make_toy_mdp()
        tol = 1e-8
        eta = projected_fixed_points(mdp, TOY_GRID, tol=1e-10)
        op = projected(lambda m: os_distr_opt(m, mdp), TOY_GRID)
        # any start within distance D reaches tol in ceil(ln(tol/D)/ln(gamma))
        start = DistributionCollection.constant(
            2, 2, op(DistributionCollection.constant(2, 2, dirac(0.0)))[1, 1]
        )
        d0 = sup_wasserstein(start, eta, 1.0)
        bound = math.ceil(math.log(tol / d0) / math.log(mdp.discount))
        current = start
        n_iters = 0
        while sup_wasserstein(current, eta, 1.0) > tol:
            current = op(current)
            n_iters += 1
        assert n_iters <= bound

    def test_cross_check_raises_when_iteration_disagrees(self, monkeypatch):
        shift_array_operator_up(monkeypatch)
        with pytest.raises(RuntimeError, match="disagrees with the closed-form"):
            projected_fixed_points(make_toy_mdp(), TOY_GRID, tol=1e-10)

    def test_fixed_point_property_fails_under_shifted_array_operator(self, monkeypatch):
        shift_array_operator_up(monkeypatch)
        control, evaluation = check_fixed_points()
        assert not control.passed and control.failing_case is not None
        assert evaluation.passed

    def test_fixed_point_property_fails_under_object_operator_mutant(self, monkeypatch):
        import osdrl.verify as verify
        from osdrl.operators import _one_step_collection

        def gamma_twice(mu, mdp):
            # targets r + gamma^2 V: the discount applied twice
            return _one_step_collection(mdp, mdp.discount * mu.means().max(axis=1))

        monkeypatch.setattr(verify, "os_distr_opt", gamma_twice)
        control, evaluation = check_fixed_points()
        assert not control.passed and control.failing_case is not None
        assert evaluation.passed

    def test_categorical_start_puts_all_mass_at_lowest_point(self):
        start = categorical_start(make_toy_mdp(), TOY_GRID)
        assert (start.n_states, start.n_actions) == (2, 2)
        for _, dist in start:
            assert np.array_equal(dist.probs, [1.0, 0.0, 0.0, 0.0])

    def test_eval_mode_matches_projection_of_closed_form(self):
        mdp = make_toy_mdp()
        pi = Policy.uniform(2, 2)
        eta = projected_fixed_points(mdp, TOY_GRID, tol=1e-10, policy=pi)
        from osdrl import cramer_project

        nu = one_step_fixed_point_eval(mdp, pi, tol=1e-10)
        direct = nu.map(lambda d: cramer_project(d, np.asarray(TOY_GRID)))
        assert sup_wasserstein(eta, direct, 1.0) <= 1e-10


class TestIterate:
    def test_zero_steps_keeps_initial_only(self):
        mu0 = DistributionCollection.constant(2, 2, dirac(0.0))
        assert iterate(lambda m: m, mu0, 0) == [mu0]

    def test_projected_one_step_distances_decay_geometrically(self):
        mdp = make_toy_mdp()
        op = projected(lambda m: os_distr_opt(m, mdp), TOY_GRID)
        eta = projected_fixed_points(mdp, TOY_GRID, tol=1e-12)
        mu0 = DistributionCollection.constant(2, 2, dirac(0.0)).map(
            lambda d: d
        )
        refs = [sup_wasserstein(mu, eta, 1.0) for mu in iterate(op, mu0, 30)]
        for n in range(len(refs) - 1):
            if refs[n] > 1e-12:
                assert refs[n + 1] <= mdp.discount * refs[n] + 1e-10

    def test_banach_residual_along_traces(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mdp = random_mdp(rng)
            pi = random_policy(rng, mdp.n_states, mdp.n_actions)
            mu0 = DistributionCollection.constant(mdp.n_states, mdp.n_actions, dirac(0.0))
            iterates = iterate(lambda m: os_distr_eval(m, mdp, pi), mu0, 10)
            steps = [sup_wasserstein(nxt, cur, 1.0) for cur, nxt in zip(iterates, iterates[1:])]
            for n in range(1, len(steps)):
                assert steps[n] <= mdp.discount * steps[n - 1] + 1e-10

    def test_full_operator_atom_growth_bounded(self):
        mdp = make_toy_mdp()
        pi = Policy.uniform(2, 2)
        mu0 = DistributionCollection.constant(2, 2, dirac(0.0))
        for j, mu in enumerate(iterate(lambda m: distr_bellman_eval(m, mdp, pi), mu0, 4)):
            assert mu.max_atoms_per_entry() <= (2 * 2) ** j

    def test_atom_cap_aborts(self):
        mdp = make_toy_mdp()
        pi = Policy.uniform(2, 2)
        mu0 = DistributionCollection.constant(2, 2, dirac(0.0))
        with pytest.raises(AtomBudgetExceeded):
            iterate(lambda m: distr_bellman_eval(m, mdp, pi), mu0, 10, atom_cap=20)

    def test_rejects_negative_steps(self):
        mu0 = DistributionCollection.constant(1, 1, dirac(0.0))
        with pytest.raises(ValueError):
            iterate(lambda m: m, mu0, -1)


class TestOscillationDetector:
    GRID = np.array([0.0, 1.0])

    @staticmethod
    def _stack(ps):
        # one entry on the grid (0, 1) per iterate, with mass p at 0
        return np.array([[[[p, 1.0 - p]]] for p in ps])

    def test_flags_period_two_cycle(self):
        report = detect_oscillation(self._stack([0.2, 0.8] * 20), self.GRID)
        assert report.oscillating and report.period == 2 and not report.converged

    def test_converged_trace(self):
        report = detect_oscillation(self._stack([0.5] * 30), self.GRID)
        assert report.converged and not report.oscillating

    def test_aperiodic_trace(self):
        rng = np.random.default_rng(3)
        report = detect_oscillation(self._stack(rng.uniform(0.05, 0.95, size=40)), self.GRID)
        assert report.aperiodic and not report.converged and not report.oscillating

    def test_flags_period_three_cycle(self):
        report = detect_oscillation(self._stack([0.1, 0.5, 0.9] * 10), self.GRID)
        assert report.oscillating and report.period == 3 and not report.converged
        assert report.recurrence[1] > 1e-6 and report.recurrence[2] > 1e-6
        assert report.max_step_tail == report.recurrence[1]

    def test_lags_without_a_pair_after_burn_in_are_nan(self):
        # of five iterates the scan reads 2, 3 and 4 (burn-in n // 2): lag 2
        # still finds a pair, lags 3 and 4 find none
        report = detect_oscillation(self._stack([0.1, 0.5, 0.9, 0.3, 0.7]), self.GRID)
        assert not math.isnan(report.recurrence[2])
        assert math.isnan(report.recurrence[3]) and math.isnan(report.recurrence[4])
        assert report.aperiodic and not report.converged and not report.oscillating


class TestTraceCsv:
    def test_atoms_csv_schema(self, tmp_path):
        mdp = make_toy_mdp()
        mu0 = DistributionCollection.constant(2, 2, dirac(0.0))
        path = tmp_path / "atoms.csv"
        trace_atoms_to_csv(iterate(lambda m: os_distr_opt(m, mdp), mu0, 2), path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "entry_id", "atom_or_gridpoint", "weight"]
        assert rows[1][0] == "0" and rows[1][1] == "x0_a0"
