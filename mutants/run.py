"""Run the named mutants of osdrl's kernels, of its greedy, draw and
float-overflow rules, of the instability stacks' repeat rule and of its
verify property record and JSON writer against the tier-1 tests that must
catch them.

    python3 mutants/run.py [NAME ...]

Each mutant in MUTANTS is one old-text/new-text patch of one file under
src/, with the checks that must fail on it: tier-1 test ids, or
`verify:NAME` for the property NAME of a fast `osdrl verify` round
(`run_properties(0, fast=True)`). The command copies src/, tests/ and
pyproject.toml of this working tree into a temporary directory, checks that
every named check passes there unpatched, then for each mutant patches a
fresh copy and runs only its named tests, and the verify round once if it
names a property. A mutant is caught when every one of its checks fails; a
property that is missing or whose round raises does not pass. A patch whose
old text does not occur exactly once in its file is an error, not a pass: a
refactor that rewrites a kernel must port that kernel's mutants or remove
them, and say so.

Exits 0 when every mutant is caught, 1 when one survives, and 2 when the
catalog is broken (a missing or repeated old text, an unknown name) or the
unpatched tree fails a named check.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = "src/osdrl/cli.py"
DISTRIBUTIONS = "src/osdrl/distributions.py"
LEARNING = "src/osdrl/learning.py"
MDP = "src/osdrl/mdp.py"
OPERATORS = "src/osdrl/operators.py"
VERIFY = "src/osdrl/verify.py"
_REPLAY = "tests/test_learning.py::TestRunLearning::test_step_functions_replay_the_harness_bit_for_bit"
_PROB_STACK = "tests/test_cli.py::TestProbStack"
_TIES = "tests/test_learning.py::TestBlockActions::test_ties_are_decided_as_the_scalar_epsilon_decides_them"
_PROPERTY = "tests/test_learning.py::TestBlockActions::test_verify_property_passes"
_UPDATES = "tests/test_learning.py::TestUpdatesKeepTheirBits"
_ORACLE = "tests/test_distributions.py::TestExactOracleKeepsItsBits"
_ALL_REPLAYS = [
    f"{_REPLAY}[{name}]"
    for name in (
        "os", "cdrl", "control-toy-os", "control-toy-cdrl", "control-lake-os", "control-lake-cdrl",
        "control-five-os", "control-five-cdrl",
    )
]
# verify properties that a broken operator or kernel must fail, and ones that must pass
_FIXED_POINT_FAILS = (
    "tests/test_dp.py::TestProjectedFixedPoints::test_fixed_point_property_fails_under_shifted_array_operator"
)
_SYMMETRY_FAILS = (
    "tests/test_distributions.py::TestExactOracleKeepsItsBits::test_symmetry_check_refines_the_swapped_pair"
)
_MEAN_FIELD_FAILS = "tests/test_learning.py::TestMeanField::test_swapped_interpolation_weights_fail"
_MEAN_TRACKING_FAILS = "tests/test_learning.py::TestMeanTrackingProperty::test_a_broken_update_fails"
_GRID_CHECK = "tests/test_distributions.py::TestCramerProjection::test_grid_check_names_what_failed"
_SUP_BAD_P = "tests/test_distributions.py::TestSupWasserstein::test_rejects_bad_p"
_FAILING_CASES_JSON = "tests/test_cli.py::TestVerifyCommand::test_every_failing_case_is_json"
_TOL_0_PASS = [
    "tests/test_learning.py::TestBlockActions::test_verify_property_passes",
    "tests/test_operators.py::TestArrayOperators::test_verify_property_passes",
    "tests/test_cli.py::TestVerifyCommand::test_fast_run_passes_with_report",
]

# a check named VERIFY_CHECK + NAME is the property NAME of _VERIFY_ROUND,
# which prints the name of every property that passes
VERIFY_CHECK = "verify:"
_VERIFY_ROUND = (
    "from osdrl.verify import run_properties\n"
    "print(*(r.name for r in run_properties(0, fast=True)[0] if r.passed))\n"
)

# name -> (file, old text, new text, checks that must fail)
MUTANTS = {
    "epsilon_compared_with_le": (
        LEARNING,
        "    explores = u0 < eps\n"
        "    for i in np.flatnonzero(np.abs(u0 - eps) <= 1e-12).tolist():\n"
        "        explores[i] = u0[i] < exploration.epsilon(start + i)\n",
        "    explores = u0 <= eps\n"
        "    for i in np.flatnonzero(np.abs(u0 - eps) <= 1e-12).tolist():\n"
        "        explores[i] = u0[i] <= exploration.epsilon(start + i)\n",
        [f"{_TIES}[{name}]" for name in ("falling", "rising", "rate_0", "eps_0", "eps_1", "rate_overflows")] + [_PROPERTY],
    ),
    "np_exp_without_scalar_recheck": (
        LEARNING,
        "    for i in np.flatnonzero(np.abs(u0 - eps) <= 1e-12).tolist():\n"
        "        explores[i] = u0[i] < exploration.epsilon(start + i)\n",
        "",
        [f"{_TIES}[falling]", f"{_TIES}[rising]", _PROPERTY],
    ),
    "overflowing_epsilon_warns": (
        LEARNING,
        'with np.errstate(over="ignore", invalid="ignore"):',
        "if True:",
        [f"{_TIES}[rate_overflows]"],
    ),
    "step_size_from_np_power": (
        LEARNING,
        "c / (1.0 + n) ** omega)",
        "float(c / np.power(1.0 + n, omega)))",
        _ALL_REPLAYS,
    ),
    "greedy_tie_to_highest_action": (
        LEARNING,
        "a = qx.index(max(qx))",
        "a = len(qx) - 1 - qx[::-1].index(max(qx))",
        [f"{_REPLAY}[control-lake-{algo}]" for algo in ("os", "cdrl")],
    ),
    "cdrl_greedy_tie_to_highest": (
        LEARNING,
        "next_probs = t.rows[x_next][q_next.index(max(q_next))]",
        "next_probs = t.rows[x_next][len(q_next) - 1 - q_next[::-1].index(max(q_next))]",
        [
            f"{_UPDATES}::test_rows_means_and_flags_match_the_reference[cdrl-control]",
            f"{_UPDATES}::test_short_and_long_grids[cdrl-control-3]",
            f"{_UPDATES}::test_short_and_long_grids[cdrl-control-51]",
            f"{_UPDATES}::test_a_row_written_through_probs_is_what_the_next_update_reads[cdrl]",
            "tests/test_learning.py::TestBaselineTargetMemo::test_hits_and_misses_keep_the_reference_bits[control]",
            "tests/test_learning.py::TestBaselineTargetMemo::test_a_row_restored_through_probs_drops_its_memo",
        ],
    ),
    "terminal_restart_skipped": (
        LEARNING,
        "x = restart[x_next]",
        "x = x_next",
        _ALL_REPLAYS,
    ),
    "restart_to_state_0": (
        LEARNING,
        "restart = [env.initial_state if s in",
        "restart = [0 if s in",
        [f"{_REPLAY}[control-five-{algo}]" for algo in ("os", "cdrl")],
    ),
    "exact_greedy_tie_to_highest": (
        OPERATORS,
        "Policy.deterministic(q.argmax(axis=1), q.shape[1])",
        "Policy.deterministic(q.shape[1] - 1 - q[:, ::-1].argmax(axis=1), q.shape[1])",
        [
            "tests/test_operators.py::TestGreedyPolicy::test_lowest_index",
            "tests/test_operators.py::TestArrayOperators::test_tied_and_near_tied_actions",
            "tests/test_operators.py::TestArrayOperators::test_full_opt_trace_matches_object_on_toy_family[0.7]",
            "tests/test_operators.py::TestArrayOperators::test_verify_property_passes",
            f"{_UPDATES}::test_rows_means_and_flags_match_the_reference[cdrl-control]",
        ],
    ),
    "row_argsort_unstable": (
        OPERATORS,
        'np.argsort(values, axis=1, kind="stable")',
        "np.argsort(values, axis=1)",
        [f"{_ORACLE}::test_full_eval_and_greedy_opt"],
    ),
    "full_eval_skips_component_merge": (
        OPERATORS,
        "        masses = _merge_sorted(atoms.reshape(rows), weights[src].reshape(rows)).reshape(atoms.shape)\n",
        "        masses = weights[src]\n",
        [
            f"{_ORACLE}::test_full_eval_and_greedy_opt",
            "tests/test_operators.py::TestArrayOperators::test_cells_narrower_than_merge_tolerance_and_zero_discount",
            "tests/test_operators.py::TestFullOptBatch::test_random_rewards_on_one_kernel[grid1-None]",
        ],
    ),
    "one_step_rows_skip_finiteness": (
        OPERATORS,
        '    if not _all(np.isfinite(targets), axis=None):\n        raise ValueError("atoms must be finite")\n',
        "",
        ["tests/test_operators.py::TestOneStepRows::test_an_overflowing_target_fails_in_the_array_forms_too"],
    ),
    "merge_shortcut_skips_a_gap_of_exactly_the_tolerance": (
        OPERATORS,
        "(gaps > ATOM_MERGE_TOL)",
        "(gaps >= ATOM_MERGE_TOL)",
        [f"{_ORACLE}::test_a_gap_of_exactly_the_merge_tolerance_merges"],
    ),
    "merge_shortcut_skips_two_infinite_atoms": (
        OPERATORS,
        "| np.isnan(values[:, 1:])",
        "| np.isnan(gaps)",
        ["tests/test_operators.py::TestFullOptBatch::test_infinite_atoms_merge_before_their_clamped_mass_is_summed"],
    ),
    "means_from_batched_matmul": (
        DISTRIBUTIONS,
        "np.asarray(np.vecdot(probs, np.ascontiguousarray(grid, dtype=float)))",
        "np.asarray(probs @ np.ascontiguousarray(grid, dtype=float))",
        [
            f"{VERIFY_CHECK}categorical_means_match_entry_means",
            f"{VERIFY_CHECK}categorical_operators_match_object",
            "tests/test_distributions.py::TestMean::test_categorical_means_equal_mean_bit_for_bit[4]",
            "tests/test_distributions.py::TestMean::test_categorical_means_equal_mean_bit_for_bit[51]",
            "tests/test_operators.py::TestArrayOperators::test_tied_and_near_tied_actions",
        ],
    ),
    "categorical_w1_shifted": (
        DISTRIBUTIONS,
        "np.abs(_cumsum(p - q, axis=-1)[..., :-1])",
        "np.abs(_cumsum(p - q, axis=-1)[..., 1:])",
        [
            f"{VERIFY_CHECK}categorical_w1_matches_exact",
            "tests/test_distributions.py::TestCategoricalW1::test_matches_exact_w1_over_leading_axes",
            "tests/test_dp.py::TestOscillationDetector::test_flags_period_two_cycle",
            "tests/test_cli.py::TestInstabilityCommand::test_one_step_trace_matches_object_iteration",
        ],
    ),
    "add_dirac_weights_swapped": (
        LEARNING,
        "        row[i - 1] += alpha * ((hi - u) / gap)\n        row[i] += alpha * ((u - lo) / gap)\n",
        "        row[i - 1] += alpha * ((u - lo) / gap)\n        row[i] += alpha * ((hi - u) / gap)\n",
        [
            f"{VERIFY_CHECK}learner_mean_field",
            f"{VERIFY_CHECK}mean_tracking_vs_scalar_learner",
            f"{_UPDATES}::test_rows_means_and_flags_match_the_reference[os-control]",
            f"{_UPDATES}::test_rows_means_and_flags_match_the_reference[cdrl-control]",
            "tests/test_learning.py::TestOsCdrlStep::test_mean_follows_q_learning_update",
        ],
    ),
    "os_update_discounts_twice": (
        LEARNING,
        "    u = r + t.gamma * v\n",
        "    u = r + t.gamma * t.gamma * v\n",
        [
            f"{VERIFY_CHECK}learner_mean_field",
            f"{VERIFY_CHECK}mean_tracking_vs_scalar_learner",
            f"{_UPDATES}::test_rows_means_and_flags_match_the_reference[os-control]",
            f"{_UPDATES}::test_rows_means_and_flags_match_the_reference[os-eval]",
            "tests/test_learning.py::TestOsCdrlStep::test_mean_follows_q_learning_update",
        ],
    ),
    "full_eval_skips_weight_check": (
        OPERATORS,
        "    for ws in mix.tolist():\n        _check_mixture_weights(ws)\n",
        "",
        ["tests/test_distributions.py::TestMixture::test_rejects_bad_weights"],
    ),
    "csv_floats_to_six_places": (
        MDP,
        "        writer.writerows(rows)\n",
        '        writer.writerows([[f"{v:.6f}" if isinstance(v, float) else v for v in row] for row in rows])\n',
        [
            "tests/test_cli.py::TestCsvText::test_every_field_of_every_csv_is_canonical",
            "tests/test_cli.py::TestInstabilityCommand::test_one_step_trace_matches_object_iteration",
        ],
    ),
    "draw_past_last_positive_cell": (
        MDP,
        "        row[np.flatnonzero(p)[-1] :] = 1.0\n",
        "        pass\n",
        ["tests/test_mdp.py::TestEpisodicEnv::test_sample_step_never_draws_a_state_of_probability_zero"],
    ),
    "max_violation_never_updated": (
        VERIFY,
        "            self.max_violation = float(violation)\n",
        "            pass\n",
        [_FIXED_POINT_FAILS, _SYMMETRY_FAILS, _MEAN_FIELD_FAILS, _MEAN_TRACKING_FAILS],
    ),
    "failing_case_never_kept": (
        VERIFY,
        "            self.failing_case = _as_json(case)\n",
        "            pass\n",
        [_FIXED_POINT_FAILS, _MEAN_FIELD_FAILS, _FAILING_CASES_JSON],
    ),
    "passed_compares_with_lt": (
        VERIFY,
        "return self.max_violation <= self.tol",
        "return self.max_violation < self.tol",
        _TOL_0_PASS,
    ),
    "mdp_json_without_shape": (
        VERIFY,
        '"n_states": value.n_states, "n_actions": value.n_actions, ',
        "",
        ["tests/test_mdp.py::TestTabularMdp::test_json_round_trip"],
    ),
    "collection_projection_keeps_padding": (
        OPERATORS,
        "    weights = np.where(present, np.concatenate([nu.weights for nu in nus])[at], 0.0)\n",
        "    weights = np.concatenate([nu.weights for nu in nus])[at]\n",
        [
            "tests/test_operators.py::TestCollectionProjection::test_equals_cramer_project_bit_for_bit",
            "tests/test_operators.py::TestCollectionProjection::test_two_point_grid_pads_a_one_atom_row",
            f"{VERIFY_CHECK}projected_one_step_eval_contraction_w1",
        ],
    ),
    "positive_columns_shortcut_on_nonnegative": (
        OPERATORS,
        "    if _all(real, axis=None):\n",
        "    if _all(weights >= 0.0, axis=None):\n",
        [
            "tests/test_operators.py::TestPositiveColumns::test_shortcut_matches_the_argsort",
            "tests/test_operators.py::TestArrayOperators::test_frozen_lake",
            f"{VERIFY_CHECK}categorical_operators_match_object",
        ],
    ),
    "grid_check_accepts_equal_points": (
        DISTRIBUTIONS,
        "_all(grid[1:] > grid[:-1])",
        "_all(grid[1:] >= grid[:-1])",
        [
            f"{_GRID_CHECK}[equal_inside]",
            f"{_GRID_CHECK}[equal_pair]",
            "tests/test_distributions.py::TestCramerProjection::test_rejects_bad_grid",
        ],
    ),
    "sup_skips_exponent_check": (
        DISTRIBUTIONS,
        "    ps = _checked_ps(ps)\n    per_entry",
        "    per_entry",
        [f"{_SUP_BAD_P}[{p}]" for p in ("half", "zero", "nan", "inf")],
    ),
    "one_step_bases_for_state_count": (
        OPERATORS,
        "    bases = _bases(len(successors[0]), grid.size)\n",
        "    bases = _bases(len(successors[0]), mdp.n_states)\n",
        [
            "tests/test_operators.py::TestArrayOperators::test_frozen_lake",
            f"{VERIFY_CHECK}categorical_operators_match_object",
        ],
    ),
    "categorical_json_unconverted": (
        VERIFY,
        "isinstance(value, (AtomicDistribution, CategoricalDistribution))",
        "isinstance(value, AtomicDistribution)",
        ["tests/test_distributions.py::TestCategoricalDistribution::test_json_round_trip"],
    ),
    "as_float_overflow_to_zero": (
        LEARNING,
        "        return math.inf if value > 0 else -math.inf\n",
        "        return 0.0\n",
        [
            f"tests/test_cli.py::TestConfigHandling::test_adversarial_values_are_config_errors[{key}]"
            for key in ("instability-grid", "frozenlake-grid", "frozenlake-eps_rate", "frozenlake-goal_reward")
        ]
        + ["tests/test_learning.py::TestExplorationSchedule::test_validation"],
    ),
    "repeat_by_value_equality": (
        CLI,
        "    return (new.view(np.uint64) == old.view(np.uint64)).reshape(len(new), -1).all(axis=1)\n",
        "    return np.array([np.array_equal(a, b) for a, b in zip(new, old)])\n",
        [f"{_PROB_STACK}::test_zero_and_negative_zero_are_no_repeat"],
    ),
    "moving_slices_dropped": (
        CLI,
        "            live = live[~fixed]\n",
        "            live = live[fixed]\n",
        [f"{_PROB_STACK}::test_toy_traces[{trace}-{n}]" for trace in ("onestep", "cdrl") for n in (60, 200)]
        + [f"{_PROB_STACK}::test_search_chunks[{chunk}-140]" for chunk in ("9-27", "0-374")]
        + ["tests/test_cli.py::TestInstabilityCommand::test_seed_nine_triggers_at_candidate_27_with_period_two"],
    ),
    "freeze_on_any_cell": (
        CLI,
        "reshape(len(new), -1).all(axis=1)",
        "reshape(len(new), -1).any(axis=1)",
        [f"{_PROB_STACK}::test_toy_traces[{trace}-{n}]" for trace in ("onestep", "cdrl") for n in (60, 2)]
        + [f"{_PROB_STACK}::test_search_chunks[{chunk}-140]" for chunk in ("9-27", "0-374")]
        + [f"{_PROB_STACK}::test_zero_and_negative_zero_are_no_repeat"],
    ),
}


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _passed(tree: Path, ids: list) -> set:
    """The ids among ids that pass on tree; a test that errors, fails or is
    not collected does not pass, nor does a verify property that fails, is
    missing or whose round raises."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    tests = [i for i in ids if not i.startswith(VERIFY_CHECK)]
    properties = set(ids) - set(tests)
    passed = set()
    if tests:
        cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        passed |= {line.split(" ", 2)[1] for line in proc.stdout.splitlines() if line.startswith("PASSED ")}
    if properties:
        proc = subprocess.run([sys.executable, "-c", _VERIFY_ROUND], cwd=tree, env=env, capture_output=True, text=True)
        passed |= {VERIFY_CHECK + name for name in proc.stdout.split()}
    return passed & set(ids)


def _patch(tree: Path, name: str) -> None:
    path, old, new, _ = MUTANTS[name]
    text = (tree / path).read_text()
    (tree / path).write_text(text.replace(old, new))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    names = parser.parse_args(argv).names or list(MUTANTS)

    broken = [f"unknown mutant {name!r}" for name in names if name not in MUTANTS]
    for name in set(names) & set(MUTANTS):
        path, old, _, ids = MUTANTS[name]
        found = (ROOT / path).read_text().count(old)
        if found != 1:
            broken.append(f"{name}: its old text occurs {found} times in {path}, not once")
        if not ids:
            broken.append(f"{name}: names no check")
    if broken:
        print("\n".join(broken))
        return 2

    with tempfile.TemporaryDirectory(prefix="osdrl_mutants_") as tmp:
        base = Path(tmp) / "unpatched"
        _copy_tree(base)
        every_id = sorted({i for name in names for i in MUTANTS[name][3]})
        failing = sorted(set(every_id) - _passed(base, every_id))
        if failing:
            print("the unpatched tree does not pass:\n  " + "\n  ".join(failing))
            return 2
        print(f"unpatched tree: {len(every_id)} named checks pass")
        survived = []
        for name in names:
            tree = Path(tmp) / name
            _copy_tree(tree)
            _patch(tree, name)
            ids = MUTANTS[name][3]
            passing = sorted(_passed(tree, ids))
            if passing:
                survived.append(name)
                print(f"SURVIVED {name}: {len(passing)} of {len(ids)} named checks pass:\n  " + "\n  ".join(passing))
            else:
                print(f"caught   {name}: all {len(ids)} named checks fail")
            shutil.rmtree(tree)
    print(f"{len(names) - len(survived)} of {len(names)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
