"""Span tracing of osdrl from outside the package.

The tracer rebinds each traced function at every module of the package that
holds a reference to it (so `cramer_project` is traced whether it is called
from `operators`, `dp` or `verify`), records one span per call with its
name, parent, start, end and self time, and restores every binding on
uninstall. Self time is a span's duration minus the time of its child spans.
Spans stay in memory until they are written out.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import osdrl
from osdrl import distributions, learning, mdp, operators, verify

# (owner, attribute, span name) for the module-level functions traced.
FUNCTIONS = [
    (distributions, "cramer_project", "distributions.cramer_project"),
    (distributions, "mixture", "distributions.mixture"),
    (distributions, "pushforward_affine", "distributions.pushforward_affine"),
    (distributions, "wasserstein", "distributions.wasserstein"),
    (distributions, "sup_wasserstein", "distributions.sup_wasserstein"),
    (operators, "distr_bellman_opt", "operators.distr_bellman_opt"),
    (operators, "distr_bellman_eval", "operators.distr_bellman_eval"),
    (operators, "os_distr_opt", "operators.os_distr_opt"),
    (operators, "os_distr_eval", "operators.os_distr_eval"),
    ("dp", "projected_fixed_points", "dp.projected_fixed_points"),
    ("dp", "solve_q_star", "dp.solve_q_star"),
    ("dp", "solve_q_pi", "dp.solve_q_pi"),
    ("dp", "iterate", "dp.iterate"),
    ("dp", "detect_oscillation", "dp.detect_oscillation"),
    (learning, "run_learning", "learning.run_learning"),
    ("svgplot", "line_chart", "svgplot"),
    ("svgplot", "histogram_chart", "svgplot"),
    ("cli", "_prob_stack", "cli.instability.candidate"),
] + [(verify, name, f"verify.{name}") for name in (
    "check_contraction_suite",
    "check_fixed_points",
    "check_projection_lemma",
    "check_mean_preservation",
    "check_projection_monotonicity",
    "check_operator_monotonicity",
    "check_wasserstein_axioms",
    "check_w1_riemann_agreement",
    "check_mean_commutation",
    "check_banach_residual",
    "check_mean_tracking",
    "check_target_complexity",
)]
COMMANDS = ("instability", "frozenlake", "verify")
FULL_OPERATORS = ("operators.distr_bellman_opt", "operators.distr_bellman_eval")


def _modules():
    """The package and every module in it."""
    mods = [osdrl]
    for info in pkgutil.iter_modules(osdrl.__path__):
        mods.append(importlib.import_module(f"osdrl.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, self seconds)
        self.counts = defaultdict(float)
        self._stack = []  # [id, child seconds] of the open spans
        self._next_id = 0
        self._names = {}  # span id -> name, for parent lookups
        self._undo = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name, fn, on_exit=None):
        stack, spans, names = self._stack, self.spans, self._names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            names[span_id] = name
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    (span_id, parent[0] if parent else -1, name, start, end, end - start - frame[1])
                )
            if on_exit is not None:
                on_exit(args, kwargs, result, parent[0] if parent else -1)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        for owner, attr, name in FUNCTIONS:
            if isinstance(owner, str):
                owner = importlib.import_module(f"osdrl.{owner}")
            original = getattr(owner, attr, None)
            if original is None:
                continue  # gone from the package: its metrics read 0
            self._rebind(original, self.wrap(name, original, self._on_exit(name, original)))

        # projected(op, grid) returns the operator; trace its applications
        original_projected = operators.projected

        def projected(op, grid):
            return self.wrap("operators.projected", original_projected(op, grid))

        self._rebind(original_projected, projected)

        # classmethod and constructor, patched on the class itself
        atomic = distributions.AtomicDistribution
        from_points = vars(atomic)["from_points"]
        self._undo.append((atomic, "from_points", from_points))
        atomic.from_points = classmethod(self.wrap("distributions.from_points", from_points.__func__))
        policy_init = mdp.Policy.__init__
        self._undo.append((mdp.Policy, "__init__", policy_init))
        mdp.Policy.__init__ = self.wrap("mdp.Policy", policy_init)

        from osdrl import cli

        for command in COMMANDS:
            original = cli.COMMANDS[command]
            traced = self.wrap(f"cli.{command}", original)
            self._undo.append((cli.COMMANDS, command, original))
            cli.COMMANDS[command] = traced

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def _on_exit(self, name, original):
        if name in FULL_OPERATORS:
            # count atoms once per full-operator output: the optimality
            # operator's inner evaluation call is not counted again
            def count_atoms(args, kwargs, result, parent):
                if self._names.get(parent) not in FULL_OPERATORS:
                    self.counts["operators.atoms_out"] += result.total_atoms()

            return count_atoms
        if name == "learning.run_learning":
            signature = inspect.signature(original)

            def count_steps(args, kwargs, result, parent):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                algo, steps = bound.arguments["algo"], bound.arguments["n_steps"]
                _, _, _, start, end, _ = self.spans[-1]  # this call's span
                self.counts["learning.steps"] += steps
                self.counts[f"learning.{algo}.steps"] += steps
                self.counts[f"learning.{algo}.seconds"] += end - start

            return count_steps
        return None

    # -- results ----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._names.clear()

    def totals(self) -> tuple:
        """Per span name: (calls, self seconds)."""
        calls, self_s = defaultdict(int), defaultdict(float)
        for _, _, name, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        return calls, self_s

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        parents = {span_id: parent for span_id, parent, *_ in self.spans}
        found = 0
        for span_id, parent, span_name, *_ in self.spans:
            if span_name != name:
                continue
            while parent != -1 and self._names[parent] != ancestor:
                parent = parents[parent]
            found += parent != -1
        return found

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s", "self_s"])
            origin = min((s[3] for s in self.spans), default=0.0)
            for span_id, parent, name, start, end, own in self.spans:
                writer.writerow([span_id, parent, name, f"{start - origin:.9f}", f"{end - origin:.9f}", f"{own:.9f}"])
