"""Seeded inputs, per-pass command sequences and output gates.

A workload is one pass of ``koopcontrol`` CLI commands.  Everything the
library sees is derived from the benchmark seed here: the argv lists and
the config files written into the run's work directory.  The gates turn
a wrong answer into a failed operation, where an operation is one
identity check in a report, one ``fit`` or one ``predict``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The seed on which a later gain claim is confirmed; never used while tuning.
CONFIRM_SEED = 11

TABLE_STATES = 32
TABLE_INPUTS = ("a", "b", "c")
BOX_SYSTEMS = ("scalarlinear", "logistic-with-offset")
BOX_POINTS = 1000
BOX_FUNCTIONS = 50  # the CLI default the sampled plan uses; the probes build as many
BOX_TOL = 1e-12

FIT_SYSTEM = "scalarlinear"
FIT_DEGREE = 10
FIT_POINTS = 5000
# The catalog's default scalarlinear gains; the fitted model must equal
# diag(l(u)^k), k = 0..FIT_DEGREE, because monomials span an invariant subspace.
FIT_LAMBDAS = {"a": 0.5, "b": -0.8}
MODEL_TOL = 1e-8
N_PREDICT = 100
PREDICT_STEPS = 200
PREDICT_TOL = 1e-8

N_CHECKS_FINITE = 20
N_CHECKS_BOX = 19  # C19 applies to finite systems only


@dataclass
class Command:
    """One CLI command of a pass.

    ``opts`` holds the same settings as ``argv`` in structured form, so the
    traced replay can make the library calls the CLI would make.
    """

    kind: str  # "check", "fit" or "predict"
    name: str
    out: Path
    opts: dict = field(default_factory=dict)

    @property
    def argv(self) -> list:
        o = self.opts
        argv = [self.kind]
        for key in ("system", "config", "dict"):
            if key in o:
                argv += [f"--{key}", str(o[key])]
        if o.get("exact"):
            argv.append("--exact")
        for key in ("seed", "points", "tol"):
            if key in o:
                argv += [f"--{key}", repr(o[key])]
        return argv + ["--out", str(self.out)]

    @property
    def product(self) -> Path:
        """The file the gate reads; removed before each run so none is stale."""
        name = {"check": "check_report.json", "fit": "model.json"}.get(
            self.kind, "prediction_errors.csv"
        )
        return self.out / name


def table_config(seed: int) -> str:
    """A random total transition table, 32 states by 3 inputs, as a config."""
    rng = np.random.default_rng([seed, TABLE_STATES])
    succ = rng.integers(TABLE_STATES, size=(TABLE_STATES, len(TABLE_INPUTS)))
    lines = [
        "system = table",
        f"name = table{TABLE_STATES}x{len(TABLE_INPUTS)}",
        "states = " + ",".join(str(x) for x in range(TABLE_STATES)),
        "inputs = " + ",".join(TABLE_INPUTS),
    ]
    for x in range(TABLE_STATES):
        for j, u in enumerate(TABLE_INPUTS):
            lines.append(f"step.{x}.{u} = {int(succ[x, j])}")
    return "\n".join(lines) + "\n"


def predict_inputs(seed: int) -> list:
    """``N_PREDICT`` pairs ``(x0, word)``: x0 in [-1, 1], words of 1-3 labels."""
    rng = np.random.default_rng([seed, N_PREDICT])
    labels = tuple(FIT_LAMBDAS)
    out = []
    for _ in range(N_PREDICT):
        x0 = float(rng.uniform(-1.0, 1.0))
        length = int(rng.integers(1, 4))
        word = tuple(labels[int(i)] for i in rng.integers(len(labels), size=length))
        out.append((x0, word))
    return out


def generate(workload: str, seed: int, work: Path) -> list:
    """Write the workload's input files under ``work``; return one pass of commands."""
    if workload == "exact-finite":
        cfg = work / "table.cfg"
        cfg.write_text(table_config(seed))
        check = {"exact": True, "seed": seed}
        return [
            Command("check", "finite3", work / "finite3", {"system": "finite3", **check}),
            Command("check", "collapse2", work / "collapse2", {"system": "collapse2", **check}),
            Command("check", "table", work / "table", {"config": cfg, **check}),
        ]
    if workload == "sampled-box":
        plan = {"seed": seed, "points": BOX_POINTS, "tol": BOX_TOL}
        return [
            Command("check", name, work / name, {"system": name, **plan})
            for name in BOX_SYSTEMS
        ]
    if workload == "identify":
        out = work / "identify"
        common = {"system": FIT_SYSTEM, "dict": f"monomial:{FIT_DEGREE}"}
        cmds = [Command("fit", "fit", out, {**common, "points": FIT_POINTS, "seed": seed})]
        for i, (x0, word) in enumerate(predict_inputs(seed)):
            cfg = work / f"predict{i:03d}.cfg"
            cfg.write_text(
                f"x0 = {x0!r}\nword = {','.join(word)}\nsteps = {PREDICT_STEPS}\n"
            )
            cmds.append(
                Command("predict", f"predict{i:03d}", out,
                        {**common, "config": cfg, "tol": PREDICT_TOL})
            )
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """Gate verdict for one command: operations attempted and failed."""

    attempted: int
    failed: int
    work: int = 0  # identity evaluations for a check, transition triples for a fit
    problems: list = field(default_factory=list)


def expected_ops(cmd: Command) -> int:
    if cmd.kind != "check":
        return 1
    return N_CHECKS_FINITE if cmd.opts.get("exact") else N_CHECKS_BOX


def gate_report(entries: list, cmd: Command) -> Outcome:
    """Each check must pass: exact with error 0.0, sampled finite and <= 1e-12."""
    exact = bool(cmd.opts.get("exact"))
    want = expected_ops(cmd)
    problems = []
    failed = 0
    for e in entries:
        err = e.get("max_abs_error")
        ok = e.get("pass") is True and isinstance(err, float)
        if ok:
            ok = err == 0.0 if exact else (math.isfinite(err) and err <= BOX_TOL)
        if not ok:
            failed += 1
            problems.append(f"{cmd.name} {e.get('id')}: pass={e.get('pass')} error={err!r}")
    if len(entries) != want:
        problems.append(f"{cmd.name}: {len(entries)} checks reported, expected {want}")
        failed += max(want - len(entries), 0)
    evals = sum(int(e.get("n_evaluated", 0)) for e in entries)
    return Outcome(max(want, len(entries)), failed, evals, problems)


def gate_model(payload: dict) -> list:
    """Problems with a fitted model: it must be diag(l(u)^k) within 1e-8."""
    problems = []
    dim = FIT_DEGREE + 1
    for u, lam in FIT_LAMBDAS.items():
        rows = payload.get("matrices", {}).get(u)
        if rows is None:
            problems.append(f"model has no matrix for input {u!r}")
            continue
        mat = np.array([[complex(re, im) for re, im in row] for row in rows])
        want = np.diag([lam**k for k in range(dim)]).astype(complex)
        if mat.shape != want.shape:
            problems.append(f"matrix {u!r} has shape {mat.shape}, expected {want.shape}")
            continue
        err = float(np.max(np.abs(mat - want)))
        if not err <= MODEL_TOL:
            problems.append(f"matrix {u!r} is {err:.3e} from diag(l^k)")
    return problems


def gate(cmd: Command, rc, output: str) -> Outcome:
    """Read what ``cmd`` wrote and judge it; ``rc`` is the CLI's exit code."""
    want = expected_ops(cmd)
    if cmd.kind == "check":
        try:
            entries = json.loads(cmd.product.read_text())
        except (OSError, ValueError) as exc:
            return Outcome(want, want, 0, [f"{cmd.name}: no readable report ({exc})"])
        outcome = gate_report(entries, cmd)
        if rc != 0 and not outcome.failed:
            outcome.failed = want
            outcome.problems.append(f"{cmd.name}: exit code {rc}")
        return outcome
    problems = [] if rc == 0 else [f"{cmd.name}: exit code {rc}: {output.strip()[-200:]}"]
    triples = 0
    if cmd.kind == "fit" and not problems:
        try:
            payload = json.loads(cmd.product.read_text())
        except (OSError, ValueError) as exc:
            return Outcome(1, 1, 0, [f"fit: no readable model ({exc})"])
        problems = gate_model(payload)
        triples = sum(payload.get("fit", {}).get("counts", {}).values())
    elif not problems and not cmd.product.is_file():
        problems = [f"{cmd.name}: exit code 0 but no {cmd.product.name}"]
    return Outcome(1, 1 if problems else 0, triples, problems)
