"""Check that this working tree writes the same bytes as another revision.

    python3 tools/same_bytes.py --against REV [--new NAME ...]

Exports REV with `git archive` into a temporary directory, runs the same
osdrl invocations on that tree and on this working tree (each imports its
own src/), and runs `diff -r` on their output directories, stdout and exit
codes. Before the diff, every report.json drops the wall-clock fields named
in WALL_CLOCK_FIELDS; nothing else is left out. `--new NAME` declares a
verify property or suite (its `check_*` function) that this tree adds: its
entry in the verify report and its stdout line are dropped from this tree's
side, and it is an error if REV already has that name or this tree does
not. Exits 0 when the trees agree, 1 when they differ.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (command line after `osdrl`, config file contents or None)
INVOCATIONS = {
    "instability_seed9": (["instability", "--seed", "9"], None),
    "instability_seed0": (["instability", "--seed", "0"], None),
    "histograms": (["histograms"], None),
    "frozenlake": (["frozenlake"], {"seeds": 2, "steps": 20000}),
    "verify_fast": (["verify"], {"fast": True}),
    "verify": (["verify"], None),
}
VERIFY_RUNS = ("verify_fast", "verify")  # the same properties and suites, fast and full

# report.json keys that hold wall-clock readings, dropped wherever they occur:
# frozenlake's learner timing; verify's target_complexity ratios, the
# microbenchmark's per-row timings and the order of its ratios, and each
# suite's seconds
WALL_CLOCK_FIELDS = frozenset(
    {
        "learner_seconds",
        "learner_steps_per_s",
        "ratios",
        "cdrl_seconds",
        "os_seconds",
        "ratio",
        "ratio_increasing",
        "seconds",
    }
)


def _without_wall_clock(doc):
    if isinstance(doc, dict):
        return {k: _without_wall_clock(v) for k, v in doc.items() if k not in WALL_CLOCK_FIELDS}
    if isinstance(doc, list):
        return [_without_wall_clock(v) for v in doc]
    return doc


def _run_tree(src: Path, work: Path) -> Path:
    """Run every invocation with src on the path; returns the results directory."""
    results = work / "results"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for name, (args, config) in INVOCATIONS.items():
        out = results / name
        out.mkdir(parents=True)
        # paths relative to work, so that both trees print the same ones
        cmd = [sys.executable, "-m", "osdrl.cli", *args, "--out", f"results/{name}"]
        if config is not None:
            (work / f"{name}.json").write_text(json.dumps(config))
            cmd += ["--config", f"{name}.json"]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        (out / "stdout.txt").write_text(proc.stdout)
        (out / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"  {name}: exit {proc.returncode}, {len(list(out.rglob('*')))} files", flush=True)
    return results


def _verify_names(results: Path) -> set:
    doc = json.loads((results / "verify_fast" / "verify" / "report.json").read_text())
    return {entry["name"] for entry in doc["properties"] + doc["suites"]}


def _normalize(results: Path, drop: set) -> None:
    """Rewrite each report.json without its wall-clock fields and without the
    verify properties and suites named in drop, whose stdout lines go too."""
    for report in results.rglob("report.json"):
        doc = _without_wall_clock(json.loads(report.read_text()))
        for key in ("properties", "suites"):
            if key in doc:
                doc[key] = [entry for entry in doc[key] if entry["name"] not in drop]
        report.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for run in VERIFY_RUNS:
        stdout = results / run / "stdout.txt"
        lines = stdout.read_text().splitlines(keepends=True)
        stdout.write_text("".join(line for line in lines if not any(f"  {name}  " in line for name in drop)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with, e.g. HEAD~")
    parser.add_argument("--new", action="append", default=[], help="a verify property or suite this tree adds")
    args = parser.parse_args(argv)
    new = set(args.new)

    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", args.against], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)

        sides = []
        for label, src in ((args.against, tree / "src"), ("working tree", ROOT / "src")):
            print(f"{label}:", flush=True)
            work = tmp / ("base", "head")[len(sides)]
            work.mkdir()
            sides.append(_run_tree(src, work))
        base, head = sides

        missing, present = new - _verify_names(head), new & _verify_names(base)
        if missing or present:
            print(f"--new: not in this tree {sorted(missing)}, already in {args.against} {sorted(present)}")
            return 1
        _normalize(base, set())
        _normalize(head, new)

        diff = subprocess.run(["diff", "-r", str(base), str(head)], capture_output=True, text=True)
        n_files = sum(1 for p in head.rglob("*") if p.is_file())
        ignored = ", ".join(sorted(WALL_CLOCK_FIELDS))
        if diff.returncode == 0:
            extra = f"; new verify entries left out: {', '.join(sorted(new))}" if new else ""
            print(f"same bytes: {n_files} files in {len(INVOCATIONS)} invocations (wall-clock fields left out: {ignored}{extra})")
            return 0
        print(diff.stdout.replace(str(base), args.against).replace(str(head), "working-tree"), end="")
        print(diff.stderr, end="")
        print(f"DIFFERENT: see above (wall-clock fields left out: {ignored})")
        return 1


if __name__ == "__main__":
    sys.exit(main())
