"""Traced replay of a workload pass, and the per-layer ns/op probes.

The replay makes the public library calls the CLI makes for each command:

* check: config parse and ``resolve_system``, ``run_check`` per id, then
  ``results_to_json`` and ``results_to_text``;
* fit: ``collect_data``, ``fit_kcf``, then the two exports;
* predict: ``import_model_json``, then ``prediction_error``.

A span surrounds each command (module ``cli``) and each call into a
library module (``checks``, ``edmd``).  The system the replay passes in
carries a counting wrapper on its ``transition`` callable; the wrapper adds
its call count and time to the innermost open span (module ``systems``).
Spans stay in memory and are written once, when the run ends.

Nothing here reaches inside the library, so the observables and operators
modules have no spans of their own: their work is inside the ``checks`` and
``edmd`` self time.  The probes measure those layers one public call at a
time, on the workload's own systems, points and functions.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import statistics
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import koopcontrol as kc
from koopcontrol import cli
import workloads as wl

SELF_MODULES = ("cli", "checks", "edmd", "systems")
NOT_SEPARABLE = ("observables", "operators")
# Printed on every workload; BENCHMARK.json lists exactly these as per_layer.
COMMON_METRICS = (
    ("systems.transitions", "count"),
    ("systems.step_ns", "ns"),
    ("systems.step_share", "ratio"),
    ("systems.shift_ns", "ns"),
    ("systems.draw_ns", "ns"),
    ("observables.eval_ns", "ns"),
    ("observables.ci_test_ms", "ms"),
    ("operators.chain_ns", "ns"),
    ("operators.power_ns_per_k", "ns"),
    ("operators.word_ns_per_input", "ns"),
    ("cli.self_ms", "ms"),
)
PROBE_REPEATS = 5
PROBE_MIN_NS = 20_000_000
SEQ_PREFIX_MAX, SEQ_PERIOD_MAX = 4, 3  # the plans' sequence bounds
CI_SAMPLES = 100  # is_control_independent as C3 runs it
LIFT_SAMPLE = 1000  # fit triples whose two states are lifted again to time Dictionary.lift


class Tracer:
    """In-memory spans: name, start, end, parent index and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        self._open.append(len(self.spans))
        rec = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-2] if len(self._open) > 1 else None,
            "run": self.run_id,
            "transitions": 0,
            "transition_s": 0.0,
        }
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def counted(self, system: kc.ControlSystem) -> kc.ControlSystem:
        """The same system whose transition counts and times its calls."""
        inner, spans, open_ = system.transition, self.spans, self._open

        def transition(x, u):
            t0 = perf_counter()
            try:
                return inner(x, u)
            finally:
                rec = spans[open_[-1]]
                rec["transitions"] += 1
                rec["transition_s"] += perf_counter() - t0

        return dataclasses.replace(system, transition=transition)


# --- replay ----------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _merged_cfg(cmd: wl.Command) -> dict:
    """Config file lines overlaid with the flags, as the CLI merges them."""
    opts = cmd.opts
    cfg = cli.parse_config_text(Path(opts["config"]).read_text()) if "config" in opts else {}
    for key in ("system", "seed", "points", "tol", "dict"):
        if key in opts:
            cfg[key] = str(opts[key])
    return cfg


def _same_as_cli(cmd: wl.Command, replayed: Path, outcome: wl.Outcome) -> None:
    """The replay must write the bytes the CLI wrote, or it measured other work."""
    if cmd.product.read_bytes() != replayed.read_bytes():
        outcome.failed = outcome.attempted
        outcome.problems.append(f"{cmd.name}: replayed {replayed.name} differs from the CLI's")


def _replay_check(tr: Tracer, cmd: wl.Command, out: Path, echo) -> tuple:
    opts = cmd.opts
    with tr.span(f"cli.check:{cmd.name}"):
        system = cli.resolve_system(_merged_cfg(cmd))
        if opts.get("exact"):
            plan = kc.exact_plan(seed=opts["seed"])
        else:
            plan = kc.sampled_plan(opts["seed"], n_points=opts["points"], tolerance=opts["tol"])
        counted = tr.counted(system)
        results = []
        for cid in kc.check_ids():
            if kc.is_applicable(cid, counted):
                with tr.span(f"checks.{cid}"):
                    results.append(kc.run_check(cid, counted, plan))
        with tr.span("checks.report"):
            report = kc.results_to_json(results)
            table = kc.results_to_text(results)
        _write_atomic(out / "check_report.json", report)
        _write_atomic(out / "check_report.txt", table)
        print(f"system {system.name}, seed {plan.rng_seed}, tolerance {plan.tolerance:g}", file=echo)
        print(table, end="", file=echo)
    return wl.gate_report(json.loads(report), cmd), system


def _replay_fit(tr: Tracer, cmd: wl.Command, out: Path, echo) -> tuple:
    opts = cmd.opts
    with tr.span("cli.fit"):
        system = cli.resolve_system(_merged_cfg(cmd))
        dictionary = kc.dictionary_for(system, opts["dict"])
        counted = tr.counted(system)
        with tr.span("edmd.collect_data"):
            data = kc.collect_data(counted, kc.UniformRandom(opts["points"], opts["seed"]))
        with tr.span("edmd.fit_kcf"):
            model, report = kc.fit_kcf(dictionary, data)
        tmps = []
        for _ in range(2):
            fd, tmp = tempfile.mkstemp(dir=out, suffix=".tmp")
            os.close(fd)
            tmps.append(tmp)
        with tr.span("edmd.export"):
            kc.export_model_json(model, tmps[0], report)
            kc.export_training_csv(data, tmps[1])
        os.replace(tmps[0], out / "model.json")
        os.replace(tmps[1], out / "training.csv")
        print(f"fit {system.name} with dictionary {opts['dict']} ({dictionary.dim} observables)", file=echo)
        for u in data.input_labels:
            print(f"  input {u!r}: residual {report.residuals[u]:.3e} over {report.counts[u]} samples", file=echo)
    # Lift part of the fit's own inputs again, right after the fit and outside
    # the command span, so lift time and fit time see the same machine speed.
    sample = data.triples[:LIFT_SAMPLE]
    with tr.span("probe.lift") as rec:
        for x, _, y in sample:
            dictionary.lift(x)
            dictionary.lift(y)
    rec["entries"] = 2 * len(sample) * dictionary.dim
    rec["fit_entries"] = 2 * len(data.triples) * dictionary.dim
    problems = wl.gate_model(json.loads((out / "model.json").read_text()))
    return wl.Outcome(1, 1 if problems else 0, sum(report.counts.values()), problems), system


def _replay_predict(tr: Tracer, cmd: wl.Command, out: Path, echo) -> tuple:
    with tr.span(f"cli.predict:{cmd.name}"):
        cfg = _merged_cfg(cmd)
        system = cli.resolve_system(cfg)
        dictionary = kc.dictionary_for(system, cfg["dict"])
        counted = tr.counted(system)
        with tr.span("edmd.import_model_json"):
            model = kc.import_model_json(out / "model.json", dictionary, counted)
        x0 = np.array([float(tok) for tok in cfg["x0"].split(",")])
        seq = kc.InputSequence((), tuple(cfg["word"].split(",")))
        with tr.span("edmd.prediction_error"):
            errors = kc.prediction_error(model, dictionary, counted, x0, seq, int(cfg["steps"]))
        lines = ["step,input,error"]
        for k, err in enumerate(errors):
            lines.append(f"{k},{'' if k == 0 else repr(seq.at(k - 1))},{err:.17g}")
        _write_atomic(out / "prediction_errors.csv", "\n".join(lines) + "\n")
        worst = float(np.max(errors))
        print(f"predict {system.name}: max lifted prediction error {worst:.3e}", file=echo)
    problems = [] if worst <= float(cfg["tol"]) else [f"{cmd.name}: error {worst:.3e} > {cfg['tol']}"]
    return wl.Outcome(1, 1 if problems else 0, 0, problems), system


_REPLAY = {"check": _replay_check, "fit": _replay_fit, "predict": _replay_predict}


def replay_pass(tr: Tracer, cmds: list) -> tuple:
    """One traced pass after an untraced one; returns (first span, outcomes, systems).

    Where no later command of the pass overwrites a command's output file,
    the replayed file is compared with the one the untraced pass left.
    """
    first = len(tr.spans)
    outcomes, systems = [], {}
    last_writer = {cmd.product: cmd for cmd in cmds}
    echo = io.StringIO()
    for cmd in cmds:
        out = cmd.out.parent / "replay" / cmd.out.name
        out.mkdir(parents=True, exist_ok=True)
        try:
            outcome, system = _REPLAY[cmd.kind](tr, cmd, out, echo)
        except Exception:  # a crash is a failed operation; its spans still count
            want = wl.expected_ops(cmd)
            outcome = wl.Outcome(want, want, 0, [traceback.format_exc(limit=-1).strip()])
            system = cli.resolve_system(_merged_cfg(cmd))
        else:
            if last_writer[cmd.product] is cmd:
                _same_as_cli(cmd, out / cmd.product.name, outcome)
        outcomes.append(outcome)
        systems.setdefault(system.name, system)
    return first, outcomes, systems


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def pass_figures(spans: list, first: int) -> dict:
    """Per-layer figures of the traced pass whose spans start at index ``first``."""
    mine = list(enumerate(spans[first:], start=first))
    children = {}
    for _, s in mine:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur(s)
    fig = {
        "self_s": dict.fromkeys(SELF_MODULES, 0.0),
        "checks": {},
        "cli_self_s": [],
        "import_s": [],
        "predict_s": [],
        "report_s": 0.0,
    }
    for i, s in mine:
        name = s["name"]
        if name == "probe.lift":
            fig["lift_ns_per_entry"] = 1e9 * _dur(s) / s["entries"]
            fig["lift_fit_s"] = 1e-9 * fig["lift_ns_per_entry"] * s["fit_entries"]
            continue
        module = name.split(".", 1)[0]
        own = _dur(s) - children.get(i, 0.0) - s["transition_s"]
        fig["self_s"][module] += own
        fig["self_s"]["systems"] += s["transition_s"]
        if module == "cli":
            fig["cli_self_s"].append(own)
        elif name.startswith("checks.C"):
            cid = name[len("checks."):]
            fig["checks"][cid] = fig["checks"].get(cid, 0.0) + _dur(s)
        elif name == "checks.report":
            fig["report_s"] += _dur(s)
        elif name == "edmd.import_model_json":
            fig["import_s"].append(_dur(s))
        elif name == "edmd.prediction_error":
            fig["predict_s"].append(_dur(s))
        else:
            fig[name] = _dur(s)
    fig["wall_s"] = sum(_dur(s) for _, s in mine if s["name"].startswith("cli."))
    fig["library_s"] = sum(_dur(s) for _, s in mine if s["name"].split(".", 1)[0] in ("checks", "edmd"))
    fig["transitions"] = sum(s["transitions"] for _, s in mine)
    return fig


# --- probes ------------------------------------------------------------------


def _ns_per_op(fn, items: list, n_ops=None) -> float:
    """Median over repeats of ns per operation for ``fn(*item)`` over ``items``.

    Each repeat sweeps ``items`` until PROBE_MIN_NS have passed, so short
    item lists still give a sample well above the clock's resolution.
    """
    n_ops = len(items) if n_ops is None else n_ops
    for item in items:
        fn(*item)
    samples = []
    for _ in range(PROBE_REPEATS):
        sweeps, t0 = 0, perf_counter_ns()
        while (elapsed := perf_counter_ns() - t0) < PROBE_MIN_NS:
            for item in items:
                fn(*item)
            sweeps += 1
        samples.append(elapsed / (sweeps * n_ops))
    return statistics.median(samples)


def _function_mix(system, rng) -> list:
    """The state functions the checks use: indicators, or random combinations."""
    if isinstance(system.states, kc.FiniteStates):
        return [kc.indicator(x) for x in system.states.labels] + [
            kc.constant_one(kc.DomainTag.STATE_ONLY)
        ]
    dim = system.states.dimension
    basis = [kc.constant_one(kc.DomainTag.STATE_ONLY)]
    for i in range(dim):
        basis += [kc.coordinate(i), kc.monomial(tuple(2 if j == i else 0 for j in range(dim)))]
    return [
        kc.linear_combine(
            rng.uniform(-1, 1, len(basis)) + 1j * rng.uniform(-1, 1, len(basis)), basis
        )
        for _ in range(wl.BOX_FUNCTIONS)
    ]


def _states(system, rng, n: int = 200) -> list:
    if isinstance(system.states, kc.FiniteStates):
        return list(system.states.labels)
    box = system.states
    return [rng.uniform(np.asarray(box.lower), np.asarray(box.upper)) for _ in range(n)]


def _probe_inputs(workload: str, seed: int, systems: dict) -> list:
    """Per system: (system, states, functions, sequences), all seeded."""
    rng = np.random.default_rng([seed, 99])
    out = []
    for system in systems.values():
        labels = system.inputs.labels
        if workload == "identify":
            pairs = wl.predict_inputs(seed)
            states = [np.array([x0]) for x0, _ in pairs]
            funcs = list(kc.dictionary_for(system, f"monomial:{wl.FIT_DEGREE}").observables)
            seqs = [kc.InputSequence((), word) for _, word in pairs]
        else:
            states = _states(system, rng)
            funcs = _function_mix(system, rng)
            seqs = [
                kc.random_sequence(rng, labels, SEQ_PREFIX_MAX, SEQ_PERIOD_MAX)
                for _ in range(200)
            ]
        out.append((system, states, funcs, seqs))
    return out


def _lift_to_seq(iso, f):
    """A state function lifted to the sequence domain, as C13 and C14 lift it."""
    return kc.apply(iso.extend_aug_to_seq, kc.apply(iso.extend_state_to_aug, f))


def _two_hop(ru, rop, kin, iso, f, x):
    """C13's two-hop chain: five nested ``apply``, built and evaluated once."""
    return kc.apply(ru, kc.apply(rop, kc.apply(kin, _lift_to_seq(iso, f))))(x)


def _witnesses(system):
    """C16's and C19's searches: the two-step gap and input-as-state probing."""
    kc.two_step_discrepancy_witness(system)
    probes = [kc.pair_indicator(x, u) for x, u in kc.enumerate_points(kc.DomainTag.STATE_INPUT, system)]
    kc.input_aug_well_definedness(system, probes)


def run_probes(workload: str, seed: int, systems: dict) -> dict:
    """ns/op (or ms/call) figures of single public calls, per layer."""
    inputs = _probe_inputs(workload, seed, systems)
    fig = {}
    steps, shifts, draws, evals, cis, chains, powers, words = ([] for _ in range(8))
    power_ops = word_ops = 0
    for system, states, funcs, seqs in inputs:
        labels = system.inputs.labels
        iso = kc.ci_isomorphisms(system)
        kin = kc.k_inf(system)
        rop = kc.restriction_inf_to_aug()
        steps += [(system, x, labels[i % len(labels)]) for i, x in enumerate(states * 2)]
        shifts += [(s,) for s in seqs]
        draws += [(np.random.default_rng([seed, j]), labels) for j in range(50)]
        evals += [(f, x) for f in funcs for x in states][:2000]
        lifted = [_lift_to_seq(iso, f) for f in funcs]
        cis += [
            (h, system, kc.Sampled(CI_SAMPLES, seed + j)) for j, h in enumerate(lifted[:3])
        ]
        for u in labels:
            ru = kc.restriction_aug_to_f(u, system)
            chains += [
                (ru, rop, kin, iso, funcs[i % len(funcs)], x) for i, x in enumerate(states)
            ]
        for i, seq in enumerate(seqs):
            k = 1 + i % 10
            powers.append((kin, k, lifted[i % len(lifted)], (states[i % len(states)], seq)))
            power_ops += k
            word = tuple(labels[(i + j) % len(labels)] for j in range(1 + i % 5))
            words.append((system, word, funcs[i % len(funcs)], states[i % len(states)]))
            word_ops += len(word)

    fig["systems.step_ns"] = _ns_per_op(kc.step, steps)
    fig["systems.shift_ns"] = _ns_per_op(lambda s: kc.shift(s).at(0), shifts)
    fig["systems.draw_ns"] = _ns_per_op(
        lambda rng, labels: kc.random_sequence(rng, labels, SEQ_PREFIX_MAX, SEQ_PERIOD_MAX), draws
    )
    fig["observables.eval_ns"] = _ns_per_op(lambda f, x: f(x), evals)
    fig["observables.ci_test_ms"] = 1e-6 * _ns_per_op(
        lambda h, system, mode: kc.is_control_independent(h, system, mode, tol=1e-12), cis
    )
    fig["operators.chain_ns"] = _ns_per_op(_two_hop, chains)
    fig["operators.power_ns_per_k"] = _ns_per_op(
        lambda kin, k, h, p: kc.apply(kc.power(kin, k), h)(p), powers, power_ops
    )
    fig["operators.word_ns_per_input"] = _ns_per_op(
        lambda system, word, f, x: kc.apply(kc.kcf_word(system, word), f)(x), words, word_ops
    )
    finite = [s for s, *_ in inputs if isinstance(s.states, kc.FiniteStates)]
    if finite:
        fig["operators.witness_ms"] = 1e-6 * _ns_per_op(_witnesses, [(s,) for s in finite])
    return fig


# --- the traced run ----------------------------------------------------------


def traced_run(workload: str, seed: int, cmds: list, seconds: float, untraced_pass) -> tuple:
    """Alternate untraced and traced passes for ``seconds``, then probe.

    Returns ``(metrics, lines, outcomes, spans)``: the per-layer metrics the
    result line carries, the report lines, every operation's outcome, and
    the spans to write out.
    """
    tr = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}")
    untraced_walls, figs, outcomes = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        wall, outs = untraced_pass(cmds)
        untraced_walls.append(wall)
        outcomes += outs
        first, outs, systems = replay_pass(tr, cmds)
        figs.append(pass_figures(tr.spans, first))
        outcomes += outs
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            break
    probes = run_probes(workload, seed, systems)
    med = statistics.median

    def over_passes(key):
        return med(f[key] for f in figs)

    library_s = over_passes("library_s")
    transitions = over_passes("transitions")
    values = {
        **probes,
        "systems.transitions": transitions,
        "systems.step_share": transitions * probes["systems.step_ns"] * 1e-9 / library_s,
        "cli.self_ms": 1e3 * med(t for f in figs for t in f["cli_self_s"]),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in COMMON_METRICS}
    traced_wall, untraced_wall = over_passes("wall_s"), med(untraced_walls)
    lines = [f"traced passes {len(figs)}, untraced passes {len(untraced_walls)}; medians per pass"]

    def line(name, value, unit, note=""):
        lines.append(f"  {name:<30} {value:>14.6g} {unit:<6} {note}".rstrip())

    for name, unit in COMMON_METRICS:
        note = "computed: transitions x step_ns / library span time" if name == "systems.step_share" else ""
        line(name, metrics[name]["value"], unit, note)
    extra = []
    if figs[0]["checks"]:
        evals = sum(o.work for o in outcomes[-len(cmds):])  # the last replay's reports
        for cid in kc.check_ids():
            if cid in figs[0]["checks"]:
                extra.append((f"checks.{cid}_s", med(f["checks"][cid] for f in figs), "s", ""))
            else:
                extra.append((f"checks.{cid}_s", None, "s", "not run: C19 applies to finite systems only"))
        extra += [
            ("checks.evals", evals, "count", "sum of n_evaluated"),
            ("checks.report_ms", 1e3 * over_passes("report_s"), "ms", "results_to_json + results_to_text"),
            ("systems.transitions_per_eval", transitions / evals, "ratio", "computed"),
        ]
    else:
        extra.append(("checks.*", None, "", f"not measured: {workload} runs no check"))
    if "operators.witness_ms" in probes:
        extra.append(("operators.witness_ms", probes["operators.witness_ms"], "ms", "per finite system"))
    else:
        extra.append(("operators.witness_ms", None, "ms", "not measured: input_aug_well_definedness needs a finite system"))
    if all("lift_fit_s" in f for f in figs):
        share = med(f["lift_fit_s"] / f["edmd.fit_kcf"] for f in figs)
        extra += [
            ("edmd.collect_s", over_passes("edmd.collect_data"), "s", "collect_data"),
            ("edmd.fit_s", over_passes("edmd.fit_kcf"), "s", "fit_kcf"),
            ("edmd.lift_ns_per_entry", over_passes("lift_ns_per_entry"), "ns",
             f"Dictionary.lift / (points x dim), on {LIFT_SAMPLE} fit triples"),
            ("edmd.lift_share", share, "ratio",
             "computed: lift_ns_per_entry x 2 x triples x dim / edmd.fit_s"),
            ("edmd.export_ms", 1e3 * over_passes("edmd.export"), "ms", "export_model_json + export_training_csv"),
            ("edmd.import_ms", 1e3 * med(t for f in figs for t in f["import_s"]), "ms", "import_model_json, per predict"),
            ("edmd.predict_ms", 1e3 * med(t for f in figs for t in f["predict_s"]), "ms", "one prediction_error"),
        ]
    else:
        extra.append(("edmd.*", None, "", f"not measured: {workload} runs no fit or predict"))
    for name, value, unit, note in extra:
        if value is None:
            lines.append(f"  {name:<30} {'-':>14} {unit:<6} {note}")
        else:
            line(name, value, unit, note)
    lines.append("self time per module, ms per pass (span minus child spans minus transition calls):")
    for module in SELF_MODULES:
        line(f"self.{module}", 1e3 * med(f["self_s"][module] for f in figs), "ms")
    for module in NOT_SEPARABLE:
        lines.append(f"  self.{module:<25} {'-':>14} ms     not separable from outside the library: inside checks/edmd self time")
    lines.append(
        f"tracing overhead: traced pass {traced_wall:.4f} s - untraced wall_s {untraced_wall:.4f} s"
        f" = {traced_wall - untraced_wall:+.4f} s ({(traced_wall / untraced_wall - 1) * 100:+.1f}%)"
    )
    return metrics, lines, outcomes, tr.spans
