"""Run the byte-identity oracle in two source trees and compare the bytes.

Usage::

    python tools/compare_trees.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository, for example one
made with ``git archive`` and the working tree.  In each tree, every case
runs in a fresh process on that tree's ``src``:

* the golden cases of ``tests/test_golden_reports.py`` (``CASES``), each
  report as ``results_to_json`` writes it;
* ``koopcontrol check --exact --seed 7`` on ``finite3``, ``collapse2`` and
  the perfbench 32x3 table (``perfbench/workloads.table_config(7)``, read
  from CHANGE and given to both trees);
* ``koopcontrol check --exact --seed 11`` on the 32x3 table of the
  benchmark's confirm seed (``perfbench/workloads.table_config(11)``);
* ``koopcontrol check --exact --seed 7`` on ``mixed5x2``, the table of
  ``tests/test_golden_reports.py`` whose labels (``b,7,x,1e3,0`` and
  ``q,1``) are not their positions, given as a config;
* ``koopcontrol check --seed 7`` on ``finite3``, without ``--exact``;
* ``koopcontrol check --seed 7 --points 1000 --tol 1e-12`` on
  ``scalarlinear`` and ``logistic-with-offset``, and the same at the
  confirm seed 11;
* ``koopcontrol check --seed 7 --points 30`` on ``scalarlinear`` with
  ``functions = 50`` in a config, so that fewer points than functions
  are drawn;
* ``koopcontrol check --seed 7 --points 1000 --tol 1e-300`` on
  ``logistic-with-offset``; every check still passes there, because both
  sides of each identity are read with the same bits;
* ``koopcontrol check --seed 7 --points 1000 --tol 1e-12`` on
  ``logistic-with-offset`` with ``param.offsets = 0.0,0.02,0.05`` in a
  config: the one case with three float input labels;
* ``koopcontrol fit --system scalarlinear --dict monomial:10 --points 5000
  --seed 7``, then in the same output directory one ``koopcontrol
  predict`` with the first of ``perfbench/workloads.predict_inputs(7)``,
  as the perfbench ``identify`` workload runs it;
* ``koopcontrol fit`` then ``predict`` on ``finite3`` with the indicator
  dictionary (label fields in ``training.csv``), predicting from state 2
  along the word ``b,a,a`` for 12 steps;
* ``koopcontrol fit --dict monomial:4 --points 500 --seed 7`` then
  ``predict`` on ``logistic-with-offset``, predicting from 0.3 along the
  word ``0.05,0.0,0.05`` for 30 steps (float labels, written with their
  ``repr`` in ``prediction_errors.csv``);
* each script of ``demos/`` (the scripts CHANGE has), run as ``__main__``;
* CHANGE's ``tools/public_entry_probe.py``, which maps caller point lists
  through every public operator, ``evaluate`` and ``obs(p)``.

Every file a case writes, its stdout and stderr (with the case's output
directory masked) and its exit status are compared byte for byte.  The
script lists each difference; for a check report (a JSON list of checks)
it also prints one line saying whether every ``pass`` and ``n_evaluated``
is equal, or naming the ids whose values changed.  It then prints
``wc -l src/koopcontrol/*.py`` of both trees, and exits 1 if there is any
difference, else 0.
"""

from __future__ import annotations

import difflib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_GOLDENS = """
import runpy, sys
from pathlib import Path
mod = runpy.run_path("tests/test_golden_reports.py")
for name in sorted(mod["CASES"]):
    (Path(sys.argv[1]) / f"golden_{name}.json").write_text(mod["_report"](name))
"""

_EXACT = ["--exact", "--seed", "7"]
_MIXED = """system = table
name = mixed5x2
states = b,7,x,1e3,0
inputs = q,1
step.b.q = 7
step.b.1 = x
step.7.q = 0
step.7.1 = 7
step.x.q = 1e3
step.x.1 = b
step.1e3.q = b
step.1e3.1 = 0
step.0.q = x
step.0.1 = 1e3
"""
_SAMPLED = ["--seed", "7", "--points", "1000", "--tol", "1e-12"]
_SAMPLED11 = ["--seed", "11", "--points", "1000", "--tol", "1e-12"]


def _cases(
    table: Path, table11: Path, mixed: Path, few_points: Path, offsets: Path, predict: Path, demos: list, words: dict,
    probe: Path,
) -> dict:
    """Case name -> the argv lists after ``python`` that run in turn; ``{out}``
    is the case's output directory."""
    cli = ["-m", "koopcontrol.cli"]
    cases = {"goldens": ["-c", _GOLDENS, "{out}"]}
    for name in ("finite3", "collapse2"):
        cases[f"check-{name}"] = cli + ["check", "--system", name, *_EXACT, "--out", "{out}"]
    cases["check-finite3-default"] = cli + ["check", "--system", "finite3", "--seed", "7", "--out", "{out}"]
    cases["check-table32x3"] = cli + ["check", "--config", str(table), *_EXACT, "--out", "{out}"]
    cases["check-table32x3-seed11"] = cli + [
        "check", "--config", str(table11), "--exact", "--seed", "11", "--out", "{out}",
    ]
    cases["check-mixed5x2"] = cli + ["check", "--config", str(mixed), *_EXACT, "--out", "{out}"]
    for name in ("scalarlinear", "logistic-with-offset"):
        cases[f"check-{name}"] = cli + ["check", "--system", name, *_SAMPLED, "--out", "{out}"]
        cases[f"check-{name}-seed11"] = cli + ["check", "--system", name, *_SAMPLED11, "--out", "{out}"]
    cases["check-scalarlinear-few-points"] = cli + [
        "check", "--config", str(few_points), "--seed", "7", "--points", "30", "--out", "{out}",
    ]
    cases["check-logistic-with-offset-tol1e-300"] = cli + [
        "check", "--system", "logistic-with-offset", "--seed", "7", "--points", "1000",
        "--tol", "1e-300", "--out", "{out}",
    ]
    cases["check-logistic-with-offset-three-offsets"] = cli + [
        "check", "--config", str(offsets), *_SAMPLED, "--out", "{out}",
    ]
    fit = ["--system", "scalarlinear", "--dict", "monomial:10", "--out", "{out}"]
    cases["fit-scalarlinear"] = (
        cli + ["fit", *fit, "--points", "5000", "--seed", "7"],
        cli + ["predict", *fit, "--config", str(predict), "--tol", "1e-08"],
    )
    sampled = ["--points", "500", "--seed", "7"]
    for name, spec, extra in (("finite3", "indicator", []), ("logistic-with-offset", "monomial:4", sampled)):
        fit = ["--system", name, "--dict", spec, "--out", "{out}"]
        cases[f"fit-{name}"] = (cli + ["fit", *fit, *extra], cli + ["predict", *fit, "--config", str(words[name])])
    for demo in demos:
        cases[f"demo-{demo.stem}"] = [f"demos/{demo.name}"]
    cases["public-entry-probe"] = [str(probe)]
    return {name: argvs if isinstance(argvs, tuple) else (argvs,) for name, argvs in cases.items()}


def _run_tree(tree: Path, cases: dict, dest: Path) -> None:
    """Run every case in ``tree``; write its files and streams under ``dest/<case>``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, argvs in cases.items():
        out = dest / name / "files"
        out.mkdir(parents=True)
        streams = ""
        for argv in argvs:
            cmd = [sys.executable] + [a.replace("{out}", str(out)) for a in argv]
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
            streams += f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        (dest / name / "streams.txt").write_text(streams.replace(str(out), "<out>"))


def _line_counts(tree: Path) -> dict:
    """Library module name -> its line count, as ``wc -l`` counts them."""
    return {p.name: p.read_bytes().count(b"\n") for p in (tree / "src" / "koopcontrol").glob("*.py")}


def _print_sizes(parent: Path, change: Path) -> None:
    before, after = _line_counts(parent), _line_counts(change)
    print("wc -l  parent  change")
    for name in sorted(before.keys() | after.keys()):
        print(f"{before.get(name, 0):14d}  {after.get(name, 0):6d}  src/koopcontrol/{name}")
    print(f"{sum(before.values()):14d}  {sum(after.values()):6d}  total")


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _verdict_line(old: bytes, new: bytes):
    """Whether every ``pass`` and ``n_evaluated`` of two versions of a check
    report is equal, as one line; ``None`` if either is not a check report."""
    try:
        a, b = ({r["id"]: (r["pass"], r["n_evaluated"]) for r in json.loads(d)} for d in (old, new))
    except (ValueError, TypeError, KeyError):
        return None
    changed = [cid for cid in dict.fromkeys([*a, *b]) if a.get(cid) != b.get(cid)]
    if changed:
        return f"pass or n_evaluated changed: {', '.join(changed)}"
    return "every pass and n_evaluated equal"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_trees.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    spec = importlib.util.spec_from_file_location("workloads", change / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    with tempfile.TemporaryDirectory(prefix="compare_trees_") as tmp:
        tmp = Path(tmp)
        table = tmp / "table32x3.cfg"
        table.write_text(workloads.table_config(7))
        table11 = tmp / "table32x3-seed11.cfg"
        table11.write_text(workloads.table_config(11))
        mixed = tmp / "mixed5x2.cfg"
        mixed.write_text(_MIXED)
        few_points = tmp / "scalarlinear50.cfg"
        few_points.write_text("system = scalarlinear\nfunctions = 50\n")
        offsets = tmp / "logistic3.cfg"
        offsets.write_text("system = logistic-with-offset\nparam.offsets = 0.0,0.02,0.05\n")
        predict = tmp / "predict.cfg"
        x0, word = workloads.predict_inputs(7)[0]
        predict.write_text(f"x0 = {x0!r}\nword = {','.join(word)}\nsteps = {workloads.PREDICT_STEPS}\n")
        words = {"finite3": tmp / "finite3-predict.cfg", "logistic-with-offset": tmp / "logistic-predict.cfg"}
        words["finite3"].write_text("x0 = 2\nword = b,a,a\nsteps = 12\n")
        words["logistic-with-offset"].write_text("x0 = 0.3\nword = 0.05,0.0,0.05\nsteps = 30\n")
        demos = sorted((change / "demos").glob("*.py"))
        probe = change / "tools" / "public_entry_probe.py"
        cases = _cases(table, table11, mixed, few_points, offsets, predict, demos, words, probe)
        for side, tree in (("parent", parent), ("change", change)):
            _run_tree(tree, cases, tmp / side)
        before, after = _files(tmp / "parent"), _files(tmp / "change")
        differ = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
        for key in differ:
            print(f"DIFFERS: {key}")
            verdict = _verdict_line(before.get(key, b""), after.get(key, b""))
            if verdict:
                print(verdict)
            old, new = (d.get(key, b"").decode(errors="replace").splitlines() for d in (before, after))
            sys.stdout.writelines(
                line + "\n" for line in list(difflib.unified_diff(old, new, "parent", "change", lineterm=""))[:40]
            )
        print(f"{len(before.keys() | after.keys()) - len(differ)} identical, {len(differ)} different")
    _print_sizes(parent, change)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
