import csv

import numpy as np
import pytest

from osdrl import (
    EpisodicEnv,
    ExplorationSchedule,
    LearnerState,
    Policy,
    StepSizeSchedule,
    Transition,
    cdrl_step,
    make_toy_mdp,
    os_cdrl_step,
    project_dirac_sparse,
    projected_fixed_points,
    run_learning,
    sample_step,
    solve_q_star,
    target_microbenchmark,
    write_learning_csv,
)
from osdrl.operators import random_mdp

TOY_GRID = np.array([0.0, 1.9, 2.1, 10.0])


def toy_env():
    return EpisodicEnv(mdp=make_toy_mdp(), terminal_states=frozenset({1}), initial_state=0)


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
        assert StepSizeSchedule.constant(0.6).step_size(99) == 0.6
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
        with pytest.raises(ValueError):
            LearnerState.initial(2, 2, [0.0], 0.5)

    def test_q_values(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        assert np.all(state.q_values() == 0.0)

    def test_as_collection_round_trip(self):
        state = LearnerState.initial(2, 2, TOY_GRID, 0.5)
        mu = state.as_collection()
        assert mu[1, 1].probs.tolist() == [1.0, 0.0, 0.0, 0.0]


class TestProjectDiracSparse:
    def test_at_most_two_cells(self):
        grid = np.linspace(-10, 10, 101).tolist()
        rng = np.random.default_rng(0)
        for u in rng.uniform(-15, 15, size=500):
            idxs, ws = project_dirac_sparse(grid, u)
            assert len(idxs) <= 2
            assert abs(sum(ws) - 1.0) <= 1e-12

    def test_clamps(self):
        grid = [0.0, 1.0, 2.0]
        assert project_dirac_sparse(grid, -3.0) == ((0,), (1.0,))
        assert project_dirac_sparse(grid, 9.0) == ((2,), (1.0,))

    def test_split_weights(self):
        idxs, ws = project_dirac_sparse([0.0, 2.0], 0.5)
        assert idxs == (0, 1)
        assert ws == (0.75, 0.25)


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
        rec.to_csv(path)
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
            rec.to_csv(tmp_path / f"{i}.csv")
            lines += (tmp_path / f"{i}.csv").read_text().splitlines()[0 if i == 0 else 1 :]
        assert (tmp_path / "both.csv").read_text().splitlines() == lines

    @pytest.mark.parametrize("algo, step", [("os", os_cdrl_step), ("cdrl", cdrl_step)])
    def test_step_functions_replay_the_harness_bit_for_bit(self, algo, step):
        env, pi = toy_env(), Policy.uniform(2, 2)
        schedule = StepSizeSchedule.polynomial()
        rec = run_learning(env, schedule, None, TOY_GRID, "eval", 2000, seed=4, policy=pi, algo=algo)
        # the harness draws one uniform for the action and one for the successor
        rng = np.random.default_rng(4)
        state = LearnerState.initial(2, 2, TOY_GRID, env.mdp.discount)
        x = env.reset(rng)
        for _ in range(2000):
            if env.is_terminal(x):
                x = env.reset(rng)
            a = min(int(np.searchsorted(np.cumsum(pi.probs[x]), rng.random(), side="right")), 1)
            tr = sample_step(env, x, a, rng)
            state = step(state, tr, schedule, mode="eval", policy=pi)
            x = tr.next_state
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
        result = target_microbenchmark(k_values=(8, 512), n_reps=16, n_inputs=16)
        assert result.ratio_increasing
        assert result.max_cells <= 2
