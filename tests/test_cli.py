import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import osdrl
from osdrl import (
    categorical_start,
    distr_bellman_opt,
    make_toy_mdp,
    os_distr_opt,
    projected,
    projected_fixed_points,
    sup_wasserstein,
)

from osdrl.cli import (
    CONFIG_SCHEMA,
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    MAX_BINS,
    MAX_SEEDS,
    MAX_STACK_ENTRIES,
    SEARCH_CHUNK,
    ConfigError,
    load_config,
    main,
)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_report(path):
    """report.json parsed as strict JSON: NaN and Infinity raise."""

    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture(autouse=True)
def reports_are_strict_json(tmp_path):
    # every report.json a test's commands wrote must parse as strict JSON
    yield
    for path in tmp_path.rglob("report.json"):
        read_report(path)


class TestConfigHandling:
    def test_defaults_apply(self):
        config = load_config("histograms", None, {})
        assert config["steps"] == 4 and config["bins"] == 30

    def test_unknown_key_rejected_with_name(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus_knob": 3}')
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_config("histograms", path, {})

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 5, "steps": 7}')
        config = load_config("frozenlake", path, {"seed": 9, "steps": None, "out": None})
        assert config["seed"] == 9 and config["steps"] == 7

    def test_histograms_takes_no_seed(self, tmp_path):
        # the command is deterministic: neither the flag nor the key exists
        with pytest.raises(SystemExit):
            main(["histograms", "--seed", "1"])
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 0}')
        with pytest.raises(ConfigError, match="unknown config key 'seed'"):
            load_config("histograms", path, {})

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"grid": [1.0, 1.0]}')
        with pytest.raises(ConfigError, match="grid"):
            load_config("instability", path, {})

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("frozenlake", "alpha", "0.6"),
            ("frozenlake", "track", [[99, 0]]),
            ("frozenlake", "seeds", 1.5),
            ("instability", "one_step_iterations", "5"),
            ("frozenlake", "eps_start", 2),
            ("verify", "fast", "no"),
            ("histograms", "bins", True),
            ("frozenlake", "track", []),
            # the candidate search draws rewards near grid[1] .. grid[-2]
            ("instability", "grid", [0.0, 10.0]),
            # strictly increasing as ints, but two points are one float
            ("instability", "grid", [0, 10**20, 10**20 + 1, 10**21]),
        ],
    )
    def test_bad_typed_value_rejected(self, tmp_path, command, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=key):
            load_config(command, path, {})

    def test_every_default_key_has_a_check(self):
        keys = {key for defaults in DEFAULTS.values() for key in defaults}
        assert keys == set(CONFIG_SCHEMA)
        for command in DEFAULTS:
            load_config(command, None, {})

    def test_bad_track_exits_with_config_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"track": [[99, 0]]}')
        assert main(["frozenlake", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "track" in capsys.readouterr().err
        assert not (tmp_path / "frozenlake").exists()

    @pytest.mark.parametrize("command", ["frozenlake", "instability"])
    def test_overflowing_grid_span_exits_with_config_code(self, tmp_path, capsys, command):
        # finite points, but z_K - z_1 overflows: every interior gap is inf
        path = tmp_path / "cfg.json"
        path.write_text('{"grid": [-1e308, 0.0, 1e308]}')
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "grid" in capsys.readouterr().err
        assert not (tmp_path / command).exists()

    def test_integer_beyond_float_range_exits_with_config_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"alpha": 1' + "0" * 400 + "}")
        assert main(["frozenlake", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "frozenlake").exists()

    @pytest.mark.parametrize(
        "command, key", [(command, key) for command, defaults in DEFAULTS.items() for key in defaults]
    )
    def test_adversarial_values_are_config_errors(self, tmp_path, command, key):
        # json writes nan and inf as NaN and Infinity, which json reads back
        values = [10**400, -(10**400), 1e308, -1e308, math.nan, math.inf, -math.inf, "x", True, None, [], [[]], {}]
        default = DEFAULTS[command][key]
        candidates = list(values)
        if isinstance(default, list):  # each value also as a list's first and last element
            candidates += [[v, *default[1:]] for v in values] + [[*default[:-1], v] for v in values]
            if isinstance(default[0], list):  # and as a number in a [state, action] pair
                candidates += [[[v, default[0][1]]] for v in values] + [[[default[0][0], v]] for v in values]
        path = tmp_path / "cfg.json"
        for value in candidates:
            path.write_text(json.dumps({key: value}))
            try:
                config = load_config(command, path, {})
            except ConfigError as exc:
                assert key in str(exc)
                continue
            assert json.dumps(config[key]) == json.dumps(value)
            if key in ("grid", "alpha", "eps_start", "eps_end", "eps_rate", "goal_reward"):
                assert np.all(np.isfinite(np.asarray(config[key], dtype=float))), (key, value)

    def test_bins_past_their_bound_are_config_errors(self, tmp_path):
        # checked through load_config only, so no value past the bound is run
        path = tmp_path / "cfg.json"
        for value in (MAX_BINS + 1, 10**9, 10**400):
            path.write_text(json.dumps({"bins": value}))
            with pytest.raises(ConfigError, match="bins") as info:
                load_config("histograms", path, {})
            assert str(MAX_BINS) in str(info.value)
        path.write_text(json.dumps({"bins": MAX_BINS}))
        assert load_config("histograms", path, {})["bins"] == MAX_BINS

    @pytest.mark.parametrize("key", ["steps", "one_step_iterations"])
    def test_instability_iterates_past_the_memory_bound_are_config_errors(self, tmp_path, key):
        # instability keeps (n + 1) iterates of the toy MDP's 4 pairs on the
        # default 4-point grid: the bound is on the floats kept, not on n
        path = tmp_path / "cfg.json"
        fits = MAX_STACK_ENTRIES // 16 - 1
        for value in (fits + 1, 10**9, 10**400):
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ConfigError, match=key) as info:
                load_config("instability", path, {})
            assert str(MAX_STACK_ENTRIES) in str(info.value)
        for value in (200_000, fits):
            path.write_text(json.dumps({key: value}))
            assert load_config("instability", path, {})[key] == value

    def test_a_long_grid_shrinks_the_instability_counts_that_fit(self, tmp_path):
        # 70000 points: 61 one-step iterates of 4 pairs pass the bound, 11
        # do not; so does the search's stack of SEARCH_CHUNK candidates
        grid = list(range(70_000))
        path = tmp_path / "cfg.json"
        for extra, key in (
            ({}, "steps"),
            ({"steps": 10}, "one_step_iterations"),
            ({"steps": 10, "one_step_iterations": 10}, "search_candidates"),
        ):
            path.write_text(json.dumps({"grid": grid, **extra}))
            with pytest.raises(ConfigError, match=f"{key} = .* 70000-point grid"):
                load_config("instability", path, {})
        path.write_text(json.dumps({"grid": grid, "steps": 10, "one_step_iterations": 10, "search_candidates": 0}))
        assert len(load_config("instability", path, {})["grid"]) == 70_000

    def test_seeds_past_their_bound_are_config_errors(self, tmp_path):
        # checked through load_config only, so no value past the bound is run
        path = tmp_path / "cfg.json"
        for value in (MAX_SEEDS + 1, 10**9, 10**400):
            path.write_text(json.dumps({"seeds": value}))
            with pytest.raises(ConfigError, match="seeds") as info:
                load_config("frozenlake", path, {})
            assert str(MAX_SEEDS) in str(info.value)
        path.write_text(json.dumps({"seeds": MAX_SEEDS}))
        assert load_config("frozenlake", path, {})["seeds"] == MAX_SEEDS

    def test_steps_are_bounded_only_where_they_size_an_array(self, tmp_path):
        # histograms and frozenlake size no array by steps before they run
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": MAX_STACK_ENTRIES}))
        for command in ("histograms", "frozenlake"):
            assert load_config(command, path, {})["steps"] == MAX_STACK_ENTRIES

    def test_cli_exit_code_on_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"not_a_key": 1}')
        code = main(["histograms", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert "not_a_key" in capsys.readouterr().err

    def test_option_that_does_not_apply_is_config_error(self, tmp_path, capsys):
        # verify has no steps key, so its parser has no --steps flag
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--steps", "5", "--out", str(tmp_path)])
        assert exit_info.value.code == EXIT_CONFIG
        assert "steps" in capsys.readouterr().err
        assert not (tmp_path / "verify").exists()

    def test_steps_flag_only_where_the_defaults_have_steps(self, capsys):
        for command, defaults in DEFAULTS.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert ("--steps" in capsys.readouterr().out) == ("steps" in defaults)

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        assert main(["verify", "--config", str(path)]) == EXIT_CONFIG


class TestHistogramsCommand:
    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["histograms", "--out", str(out1)]) == EXIT_OK
        assert main(["histograms", "--out", str(out2)]) == EXIT_OK
        for name in ("atoms_full.csv", "atoms_onestep.csv", "histograms.csv", "atom_counts.csv"):
            assert read_bytes(out1 / "histograms" / name) == read_bytes(out2 / "histograms" / name)
        report = read_report(out1 / "histograms" / "report.json")
        assert report["max_atoms_per_entry"]["onestep"] == [1, 2, 2]
        assert report["max_atoms_per_entry"]["full"][1] > 2  # j = 2 exceeds 2 atoms

    def test_zero_iteration_histogram_single_bin(self, tmp_path):
        out = tmp_path / "h"
        assert main(["histograms", "--out", str(out)]) == EXIT_OK
        with open(out / "histograms" / "histograms.csv") as fh:
            rows = [r for r in csv.DictReader(fh)]
        occupied = [
            r for r in rows
            if r["iteration"] == "0" and r["entry_id"] == "x0_a1" and float(r["mass"]) > 0
        ]
        assert len(set(r["operator"] for r in occupied)) == 2
        for op in ("full", "onestep"):
            assert sum(1 for r in occupied if r["operator"] == op) == 1


class TestInstabilityCommand:
    def test_inconclusive_exit_without_search(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"search_candidates": 0, "steps": 60}')
        out = tmp_path / "o"
        code = main(["instability", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_INCONCLUSIVE
        report = read_report(out / "instability" / "report.json")
        assert report["one_step"]["converged"] is True
        assert report["one_step"]["residual"] < 1e-8
        assert report["cdrl_default"]["oscillating"] is False
        assert report["conclusive"] is False

    def test_two_point_grid_runs_without_search(self, tmp_path):
        # only the candidate search needs an interior grid point
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": [0.0, 10.0], "search_candidates": 0, "steps": 30, "one_step_iterations": 30}')
        out = tmp_path / "o"
        assert main(["instability", "--config", str(cfg), "--out", str(out)]) == EXIT_INCONCLUSIVE
        assert (out / "instability" / "probs_cdrl.csv").exists()

    def test_six_panels_written(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"search_candidates": 0, "steps": 30, "one_step_iterations": 30}')
        out = tmp_path / "o"
        main(["instability", "--config", str(cfg), "--out", str(out)])
        panels = [
            "cdrl_probs_x0_a0.svg",
            "cdrl_probs_x0_a1.svg",
            "onestep_probs_x0_a0.svg",
            "onestep_probs_x0_a1.svg",
            "qfunc_x0_a0.svg",
            "qfunc_x0_a1.svg",
        ]
        for name in panels:
            assert (out / "instability" / name).exists()
        with open(out / "instability" / "probs_onestep.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["iteration", "entry_id", "k", "z_k", "prob"]

    def test_too_short_a_trace_is_reported_as_such(self, tmp_path, capsys):
        # one iterate leaves the scan nothing to look at: no NaN in the
        # report, and no claim that the iteration converged
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": 0, "search_candidates": 0}')
        out = tmp_path / "o"
        assert main(["instability", "--config", str(cfg), "--out", str(out)]) == EXIT_INCONCLUSIVE
        report = read_report(out / "instability" / "report.json")["cdrl_default"]
        assert report["max_step_tail"] is None
        assert report["converged"] is False and report["oscillating"] is False
        assert "cdrl branch: default too few iterates to scan;" in capsys.readouterr().out

    @pytest.mark.parametrize("steps, found", [(60, "converged"), (2, "aperiodic")])
    def test_printed_scan_matches_the_report(self, tmp_path, capsys, steps, found):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": steps, "search_candidates": 0}))
        out = tmp_path / "o"
        assert main(["instability", "--config", str(cfg), "--out", str(out)]) == EXIT_INCONCLUSIVE
        report = read_report(out / "instability" / "report.json")["cdrl_default"]
        assert report["converged"] is (found == "converged")
        assert report["max_step_tail"] >= 0.0
        assert f"cdrl branch: default {found};" in capsys.readouterr().out


    def test_narrow_grid_exits_with_config_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": [0, 1, 2]}')
        out = tmp_path / "o"
        assert main(["instability", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "grid" in capsys.readouterr().err
        assert not (out / "instability").exists()

    def test_one_step_trace_matches_object_iteration(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"search_candidates": 0}')
        out = tmp_path / "o"
        assert main(["instability", "--config", str(cfg), "--out", str(out)]) == EXIT_INCONCLUSIVE
        with open(out / "instability" / "probs_onestep.csv") as fh:
            written = np.array([float(row["prob"]) for row in csv.DictReader(fh)]).reshape(61, 2, 2, 4)
        with open(out / "instability" / "distances_onestep.csv") as fh:
            assert next(csv.reader(fh)) == ["iteration", "dist_to_next", "dist_to_reference"]
        with open(out / "instability" / "distances_onestep.csv") as fh:
            distances = list(csv.DictReader(fh))
        assert len(distances) == 61
        # the array stack, as written, equals 60 object-level applications of
        # the projected one-step operator; its W1 columns agree with the
        # exact quantile sup-W1 on those iterates
        grid = DEFAULTS["instability"]["grid"]
        mdp = make_toy_mdp()
        op = projected(lambda m: os_distr_opt(m, mdp), grid)
        eta = projected_fixed_points(mdp, grid, tol=1e-10)
        mus = [categorical_start(mdp, grid)]
        for _ in range(60):
            mus.append(op(mus[-1]))
        for n, (mu, row) in enumerate(zip(mus, distances)):
            assert np.array_equal(written[n], mu.probs()), f"iterate {n}"
            assert abs(float(row["dist_to_reference"]) - sup_wasserstein(mu, eta, 1.0)) <= 1e-12
        for n in range(60):
            step = sup_wasserstein(mus[n + 1], mus[n], 1.0)
            assert abs(float(distances[n]["dist_to_next"]) - step) <= 1e-12
        assert distances[60]["dist_to_next"] == ""

    def test_default_seed_triggers_at_candidate_374_with_period_two(self, tmp_path):
        # candidate 374 lies mid-way through the twelfth chunk of SEARCH_CHUNK
        assert 374 % SEARCH_CHUNK not in (0, SEARCH_CHUNK - 1)
        out = tmp_path / "o"
        assert main(["instability", "--out", str(out)]) == EXIT_OK
        search = read_report(out / "instability" / "report.json")["search"]
        assert search["triggered"] is True
        assert (search["candidate_index"], search["period"], search["candidates_tried"]) == (374, 2, 375)

    # seed 9 triggers at candidate 27: a search of 27 stops one short of it
    @pytest.mark.parametrize("seed, candidates", [(0, 40), (9, 27)])
    def test_search_that_runs_out_mid_chunk(self, tmp_path, capsys, seed, candidates):
        assert candidates % SEARCH_CHUNK != 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed, "search_candidates": candidates}))
        out = tmp_path / "o"
        assert main(["instability", "--config", str(cfg), "--out", str(out)]) == EXIT_INCONCLUSIVE
        report = read_report(out / "instability" / "report.json")
        assert report["search"] == {"triggered": False, "candidates_tried": candidates}
        assert report["conclusive"] is False
        assert not (out / "instability" / "probs_cdrl_perturbed.csv").exists()
        assert f"search tried {candidates} candidates" in capsys.readouterr().out

    def test_seed_nine_triggers_at_candidate_27_with_period_two(self, tmp_path):
        out = tmp_path / "o"
        code = main(["instability", "--seed", "9", "--out", str(out)])
        assert code == EXIT_OK
        search = read_report(out / "instability" / "report.json")["search"]
        assert search["triggered"] is True
        assert (search["candidate_index"], search["period"]) == (27, 2)
        # the triggered candidate's array stack, as written, equals the
        # object-level iteration of the projected full operator
        with open(out / "instability" / "probs_cdrl_perturbed.csv") as fh:
            written = np.array([float(row["prob"]) for row in csv.DictReader(fh)]).reshape(141, 2, 2, 4)
        grid = DEFAULTS["instability"]["grid"]
        mdp = make_toy_mdp(search["r_a"])
        op = projected(lambda m: distr_bellman_opt(m, mdp), grid)
        mu = categorical_start(mdp, grid)
        for n in range(141):
            assert np.array_equal(written[n], mu.probs()), f"iterate {n}"
            mu = op(mu)


class TestFrozenlakeCommand:
    CFG = '{"seeds": 2, "steps": 400, "record_every": 100}'

    def test_outputs_row_counts_and_normalization(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(self.CFG)
        out = tmp_path / "o"
        assert main(["frozenlake", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        with open(out / "frozenlake" / "learning.csv") as fh:
            rows = list(csv.DictReader(fh))
        n_records = 5  # steps 0, 100, 200, 300, 400
        assert len(rows) == 2 * n_records
        with open(out / "frozenlake" / "probs_x4_a2.csv") as fh:
            prows = list(csv.DictReader(fh))
        assert len(prows) == 2 * n_records * 3  # seeds x records x K
        # probability row groups sum to 1
        groups = {}
        for r in prows:
            groups.setdefault((r["step"], r["seed"]), 0.0)
            groups[(r["step"], r["seed"])] += float(r["prob"])
        assert all(abs(total - 1.0) <= 1e-9 for total in groups.values())

    def test_report_gives_learner_throughput(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(self.CFG)
        out = tmp_path / "o"
        assert main(["frozenlake", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = read_report(out / "frozenlake" / "report.json")
        seconds, rate = report["learner_seconds"], report["learner_steps_per_s"]
        assert seconds > 0.0 and rate > 0.0
        # counted in seed-steps: 2 seeds x 400 steps
        assert rate * seconds == pytest.approx(2 * 400)

    def test_missing_reference_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": [0, 1, 2], "seeds": 1, "steps": 200}')
        out = tmp_path / "o"
        assert main(["frozenlake", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = read_report(out / "frozenlake" / "report.json")
        assert report["reference_available"] is False
        assert "outside grid range" in report["reference_error"]
        assert "W1 reference unavailable" in capsys.readouterr().err
        with open(out / "frozenlake" / "learning.csv") as fh:
            assert all(row["w1_to_reference"] == "nan" for row in csv.DictReader(fh))

    def test_byte_identical_rerun(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(self.CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["frozenlake", "--config", str(cfg), "--out", str(out1)])
        main(["frozenlake", "--config", str(cfg), "--out", str(out2)])
        for name in ("learning.csv", "probs_x4_a2.csv", "probs_x10_a0.csv", "q_error.csv"):
            assert read_bytes(out1 / "frozenlake" / name) == read_bytes(out2 / "frozenlake" / name)


class TestVerifyCommand:
    def test_fast_run_passes_with_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"fast": true}')
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = read_report(out / "verify" / "report.json")
        assert report["passed"] is True
        assert len(report["properties"]) >= 15
        for entry in report["properties"]:
            assert {"name", "cases", "max_violation", "passed"} <= set(entry)
        assert report["microbenchmark"]["max_cells"] <= 2
        names = [suite["name"] for suite in report["suites"]]
        assert len(names) == len(set(names)) >= 15
        assert all(name.startswith("check_") for name in names)
        assert all(suite["seconds"] >= 0.0 for suite in report["suites"])

    def test_every_failing_case_is_json(self, monkeypatch):
        # every tolerance below every violation, so each recorded property
        # keeps its first case: a value that json cannot write fails here,
        # and not only in a run where a property fails
        import osdrl.verify as verify

        init = verify.PropertyResult.__init__

        def failing(self, name, tol, *args, **kwargs):
            init(self, name, -math.inf, *args, **kwargs)

        monkeypatch.setattr(verify.PropertyResult, "__init__", failing)
        results, _, _ = verify.run_properties(seed=0, fast=True)
        unrecorded = {"full_opt_contraction_violations", "target_complexity"}  # built by hand, no record()
        for result in results:
            assert (result.failing_case is None) == (result.name in unrecorded), result.name
            json.dumps(result.to_json(), allow_nan=False)
        by_name = {result.name: result for result in results}
        assert by_name["full_opt_contraction_violations"].details["example"] is not None
        assert list(by_name["projected_fixed_point_control"].failing_case) == ["mdp", "grid"]
        assert list(by_name["projected_fixed_point_eval"].failing_case) == ["mdp", "grid", "policy"]


class TestStartup:
    def test_cli_import_leaves_the_verify_suites_unloaded(self):
        # a fresh interpreter, so no earlier test has imported osdrl.verify
        src = str(Path(osdrl.__file__).resolve().parents[1])
        code = "import sys, osdrl, osdrl.cli; print(sorted(m for m in sys.modules if m.startswith('osdrl')))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        loaded = proc.stdout.strip()
        assert "'osdrl.cli'" in loaded
        assert "'osdrl.verify'" not in loaded, loaded


# an integer, an entry id, an operator name, or the empty dist_to_next of the last iterate
NON_FLOAT_FIELD = re.compile(r"-?\d+|x\d+_a\d+|full|onestep|")


def canonical_field(text):
    if NON_FLOAT_FIELD.fullmatch(text):
        return True
    try:
        return repr(float(text)) == text  # the shortest text that round-trips
    except ValueError:
        return False


class TestCsvText:
    def test_every_field_of_every_csv_is_canonical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # a grid that leaves the W1 reference missing, so learning.csv holds nan
        cfg.write_text('{"grid": [0, 1, 2], "seeds": 2, "steps": 400, "record_every": 100}')
        out = tmp_path / "o"
        assert main(["instability", "--seed", "9", "--out", str(out)]) == EXIT_OK
        assert main(["histograms", "--out", str(out)]) == EXIT_OK
        assert main(["frozenlake", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        paths = sorted(out.rglob("*.csv"))
        # instability 5 (3 probs panels, qfunc, distances), histograms 4, frozenlake 4
        assert len(paths) == 13
        for path in paths:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), path.name
            bad = [field for row in rows for field in row if not canonical_field(field)]
            assert not bad, f"{path.name}: {bad[:5]}"
