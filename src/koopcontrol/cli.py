"""Config-driven command line front end.

Commands::

    koopcontrol check      run the identity-check registry, write reports
    koopcontrol fit        sample transitions and fit one matrix per input
    koopcontrol predict    roll a fitted model forward and score it

Options come from an optional config file of ``key = value`` lines plus
command-line flags; flags win.  The table ``_OPTIONS`` lists every config
key, how its value is read, and which commands take it as a flag; any
other key is an error.  Inline finite systems use ``system = table`` with
``states``, ``inputs``, and one ``step.<state>.<input> = <next>`` line per
transition; built-in systems take the ``param.*`` overrides they name
(``param.r = 3.0``; ``param.lambdas.a = 0.4``, where the ``param.lambdas.*``
keys given replace the whole table).  ``check`` overlays the ``points``,
``functions`` and ``tol`` given on ``exact_plan`` (finite systems) or
``sampled_plan`` (boxes); ``fit`` takes every pair of a finite system,
else ``points`` uniform states of the box.

Output files go to ``--out``, else the directory named by the
``KOOPCONTROL_OUT`` environment variable, else the current directory.
All files are written atomically (temp + rename), contain no timestamps,
and are byte-identical across runs with the same config and seed.
Exit status: 0 when everything executed passed, 1 when a check or a
toleranced prediction failed, 2 on bad config or usage.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys as _sys
import tempfile
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .catalog import BUILTIN_SYSTEMS, builtin_system, dictionary_for
from .checks import (
    SamplePlan,
    check_ids,
    exact_plan,
    is_applicable,
    results_to_json,
    results_to_text,
    run_all,
    sampled_plan,
)
from .edmd import (
    ExhaustiveFinite,
    UniformRandom,
    collect_data,
    export_model_json,
    export_training_csv,
    fit_kcf,
    import_model_json,
    prediction_error,
)
from .errors import DomainError, DomainMismatchError, UnsupportedError
from .systems import ControlSystem, FiniteStates, InputSequence, InputSet

OUTPUT_DIR_ENV = "KOOPCONTROL_OUT"

__all__ = ["main", "parse_config_text", "load_config", "resolve_system"]


# --- config ----------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; ``#`` starts a comment.  A key may
    be given once."""
    cfg, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise DomainError(f"config line {lineno}: empty key")
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        elif " #" in value:
            value = value.split(" #", 1)[0].rstrip()
        if key in cfg:
            raise DomainError(f"config key {key!r} is given twice, on lines {lines[key]} and {lineno}")
        cfg[key], lines[key] = value, lineno
    return cfg


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


# --- options ---------------------------------------------------------------


class _Option(NamedTuple):
    """A config key; with ``commands``, also the flag ``--<key>`` of each."""

    key: str
    kind: type  # str, int, float or bool: how its text is read
    help: str = ""
    commands: tuple = ()
    least: Optional[int] = None  # for a number: the smallest value allowed
    most: Optional[int] = None  # for a size: the largest, read before anything is allocated


_OPTIONS = {
    opt.key: opt
    for opt in (
        _Option("system", str, "built-in system name: " + ", ".join(sorted(BUILTIN_SYSTEMS)),
                ("check", "fit", "predict")),
        _Option("seed", int, "generator seed (required off finite systems)", ("check", "fit"), least=0),
        _Option("points", int, "sample budget", ("check", "fit"), least=1, most=100_000),
        _Option("tol", float, "pass/fail tolerance", ("check", "predict"), least=0),
        _Option("out", str, f"output directory (default: ${OUTPUT_DIR_ENV} or the current directory)",
                ("check", "fit", "predict")),
        _Option("only", str, "comma-separated check ids (C1..C20)", ("check",)),
        _Option("exact", bool, "exhaustive zero-tolerance run (finite systems only)", ("check",)),
        _Option("dict", str, "dictionary spec: indicator or monomial:<degree>", ("fit", "predict")),
        _Option("functions", int, least=1, most=1_000),
        _Option("steps", int, least=0, most=100_000),
        *(_Option(k, str) for k in ("x0", "word", "name", "states", "inputs")),
    )
}
_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean"}
_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True)
_BOOLEANS.update(dict.fromkeys(("0", "false", "no", "off"), False))


def _read(key: str, kind: type, text: str):
    """``text`` as a ``kind`` value; malformed text names its config key."""
    try:
        return _BOOLEANS[text.strip().lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise DomainError(f"config key {key!r}: expected {_EXPECTED[kind]}, got {text!r}") from None


def _merged(args) -> dict:
    """The config file overlaid with the flags given, each value read once.

    Keys under ``param.`` and ``step.`` stay text for the system resolvers.
    """
    raw = load_config(args.config) if args.config else {}
    raw.update({k: str(v) for k, v in vars(args).items() if k in _OPTIONS and v is not None})
    cfg = {}
    for key, text in raw.items():
        if key in _OPTIONS:
            kind, least, most = _OPTIONS[key].kind, _OPTIONS[key].least, _OPTIONS[key].most
            cfg[key] = value = _read(key, kind, text)
            if least is not None and not value >= least:  # NaN included
                raise DomainError(f"config key {key!r}: expected {_EXPECTED[kind]} >= {least}, got {text!r}")
            if most is not None and value > most:
                raise DomainError(f"config key {key!r}: expected {_EXPECTED[kind]} <= {most}, got {text!r}")
            if value == math.inf:
                raise DomainError(f"config key {key!r}: expected a finite number, got {text!r}")
        elif key.startswith(("param.", "step.")):
            cfg[key] = text
        else:
            raise DomainError(f"unknown config key {key!r}")
    return cfg


def _parse_label(token: str):
    token = token.strip()
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def _finite(key: str, text: str) -> float:
    value = _read(key, float, text)
    if not math.isfinite(value):
        raise DomainError(f"config key {key!r}: expected a finite number, got {text!r}")
    return value


def _entries(key: str, text: str, read=None) -> tuple:
    """The comma-separated entries of config key ``key``, labels or ``read(key, token)``, each given once."""
    tokens = text.split(",")
    if read is None and not all(token.strip() for token in tokens):
        raise DomainError(f"config key {key!r}: expected comma-separated labels, got {text!r}")
    values = tuple(_parse_label(token) if read is None else read(key, token) for token in tokens)
    if len(set(values)) != len(values):
        raise DomainError(f"config key {key!r}: entries must be unique, got {text!r}")
    return values


# --- system resolution -----------------------------------------------------


# The value shapes each built-in parameter takes; a lone number is a one-element list.
_PARAM_SHAPES = {"r": ("a number",), "offsets": ("a list", "a number"), "lambdas": ("per-label keys",)}


def _collect_params(cfg, name: str) -> dict:
    params, keys = {}, {}  # keys: the config key of each (head, label) given
    for key, value in cfg.items():
        if not key.startswith("param."):
            continue
        head, dot, sub = key[len("param.") :].partition(".")
        if name in BUILTIN_SYSTEMS and head not in inspect.signature(BUILTIN_SYSTEMS[name]).parameters:
            raise DomainError(f"config key {key!r}: system {name!r} takes no such parameter")
        shape = "per-label keys" if dot else "a list" if "," in value else "a number"
        takes = _PARAM_SHAPES.get(head, (shape,))
        if shape not in takes:
            raise DomainError(f"config key {key!r}: {head!r} takes {' or '.join(takes)}, not {shape}")
        if dot:
            label = _parse_label(sub)
            if (head, label) in keys:
                first = keys[(head, label)]
                raise DomainError(f"config keys {first!r} and {key!r} both give {head!r} of label {label!r}")
            params.setdefault(head, {})[label], keys[(head, label)] = _finite(key, value), key
        else:
            values = _entries(key, value, _finite)
            params[head] = values if "a list" in takes else values[0]
    return params


def _table_system(cfg) -> ControlSystem:
    for req in ("states", "inputs"):
        if req not in cfg:
            raise DomainError(f"inline table system needs a {req!r} key")
    states, inputs = _entries("states", cfg["states"]), _entries("inputs", cfg["inputs"])
    table, keys = {}, {}
    for key, value in cfg.items():
        if not key.startswith("step."):
            continue
        rest = key[len("step.") :]
        xs, _, us = rest.partition(".")
        if not us:
            raise DomainError(f"bad key {key!r}; use step.<state>.<input> = <next>")
        x, u = _parse_label(xs), _parse_label(us)
        if x not in states or u not in inputs:
            kind = "state" if x not in states else "input"
            raise DomainError(f"config key {key!r} names an undeclared {kind}")
        if (x, u) in table:
            raise DomainError(f"config keys {keys[(x, u)]!r} and {key!r} both give the step from {x!r} under {u!r}")
        table[(x, u)], keys[(x, u)] = _parse_label(value), key
    missing = [(x, u) for x in states for u in inputs if (x, u) not in table]
    if missing:
        raise DomainError(f"transition table is missing entries for {missing}")
    return ControlSystem(
        FiniteStates(states),
        InputSet(inputs),
        lambda x, u: table[(x, u)],
        name=cfg.get("name", "table"),
    )


def resolve_system(cfg) -> ControlSystem:
    name = cfg.get("system", "finite3")
    if name == "table":
        return _table_system(cfg)
    return builtin_system(name, **_collect_params(cfg, name))


def _out_dir(cfg) -> Path:
    out = Path(cfg.get("out") or os.environ.get(OUTPUT_DIR_ENV) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _atomic_export(path: Path, writer) -> None:
    """Run ``writer(tmp_path)`` and rename the result into place."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- plans -----------------------------------------------------------------


def _build_plan(cfg, sys_: ControlSystem) -> SamplePlan:
    """The plan of ``check``; finite systems run at tolerance 0 unless ``tol`` is given."""
    finite = isinstance(sys_.states, FiniteStates)
    if cfg.get("exact") and not finite:
        raise DomainError("--exact needs a finite state space")
    if cfg.get("exact") and "tol" in cfg:
        raise DomainError("config key 'tol': an exact run has tolerance 0; drop 'tol' or 'exact'")
    if "seed" not in cfg and not finite:
        raise DomainError("sampled checks need a seed (--seed or config)")
    if cfg.get("tol") == 0 and not finite:
        raise DomainError("config key 'tol': zero tolerance is reserved for finite systems")
    plan = (exact_plan if finite else sampled_plan)(cfg.get("seed", 0))
    given = {"points": "n_points", "functions": "n_functions", "tol": "tolerance"}
    return replace(plan, **{field: cfg[key] for key, field in given.items() if key in cfg})


# --- commands --------------------------------------------------------------


def cmd_check(args) -> int:
    cfg = _merged(args)
    sys_ = resolve_system(cfg)
    plan = _build_plan(cfg, sys_)
    only = None
    skipped = []
    if "only" in cfg:
        only = list(dict.fromkeys(tok.strip().upper() for tok in cfg["only"].split(",") if tok.strip()))
        if not only:
            raise DomainError(f"config key 'only': expected check ids, got {cfg['only']!r}")
        unknown = [cid for cid in only if cid not in check_ids()]
        if unknown:
            raise DomainError(f"unknown check ids: {', '.join(unknown)}")
        skipped = [cid for cid in only if not is_applicable(cid, sys_)]
        only = [cid for cid in only if cid not in skipped]
    summary = run_all(sys_, plan, only=only)
    out = _out_dir(cfg)
    report, table = results_to_json(summary.results), results_to_text(summary.results)
    _atomic_export(out / "check_report.json", lambda p: Path(p).write_text(report))
    _atomic_export(out / "check_report.txt", lambda p: Path(p).write_text(table))
    print(f"system {sys_.name}, seed {plan.rng_seed}, tolerance {plan.tolerance:g}")
    print(table, end="")
    for cid in skipped:
        print(f"{cid} skipped: not applicable to this state space")
    return 0 if summary.all_passed else 1


def _resolve_dictionary(cfg, sys_: ControlSystem):
    finite = isinstance(sys_.states, FiniteStates)
    spec = cfg.get("dict") or ("indicator" if finite else "monomial:2")
    try:
        return dictionary_for(sys_, spec), spec
    except (ValueError, UnsupportedError) as exc:  # a DomainError, a degree below 0, or a kind the space lacks
        raise DomainError(f"config key 'dict': {exc}") from None


def _resolve_sampler(cfg, sys_: ControlSystem):
    if isinstance(sys_.states, FiniteStates):
        return ExhaustiveFinite()
    if "seed" not in cfg:
        raise DomainError("uniform sampling needs a seed (--seed or config)")
    return UniformRandom(cfg.get("points", 500), cfg["seed"])


def cmd_fit(args) -> int:
    cfg = _merged(args)
    sys_ = resolve_system(cfg)
    dictionary, spec = _resolve_dictionary(cfg, sys_)
    sampler = _resolve_sampler(cfg, sys_)
    data = collect_data(sys_, sampler)
    model, report = fit_kcf(dictionary, data)
    out = _out_dir(cfg)
    _atomic_export(out / "model.json", lambda p: export_model_json(model, p, report))
    _atomic_export(out / "training.csv", lambda p: export_training_csv(data, p))
    print(f"fit {sys_.name} with dictionary {spec} ({dictionary.dim} observables)")
    for u in data.input_labels:
        if u in report.residuals:
            flag = "  (ill-conditioned)" if report.rank_deficient.get(u) else ""
            print(
                f"  input {u!r}: residual {report.residuals[u]:.3e} "
                f"over {report.counts[u]} samples{flag}"
            )
    print(f"wrote {out / 'model.json'} and {out / 'training.csv'}")
    return 0


def _resolve_x0(cfg, sys_: ControlSystem):
    states = sys_.states
    if "x0" not in cfg:
        if isinstance(states, FiniteStates):
            return states.labels[0]
        return (np.asarray(states.lower) + np.asarray(states.upper)) / 2
    text = cfg["x0"]
    if isinstance(states, FiniteStates):
        x0 = _parse_label(text)
    else:
        x0 = np.array([_read("x0", float, tok) for tok in text.split(",")])
        if x0.size != (dim := states.dimension):
            raise DomainError(f"config key 'x0': expected a {dim}-dimensional point, got {text!r}")
    if not states.contains(x0):
        raise DomainError(f"config key 'x0': {text!r} is not in {states!r}")
    return x0


def _resolve_sequence(cfg, sys_: ControlSystem) -> InputSequence:
    if "word" in cfg:
        word = tuple(_parse_label(tok) for tok in cfg["word"].split(","))
        bad = [u for u in word if u not in sys_.inputs.labels]
        if bad:
            raise DomainError(f"config key 'word': labels {bad} are not in {sys_.inputs!r}")
        return InputSequence((), word)
    return InputSequence((), (sys_.inputs.labels[0],))


def cmd_predict(args) -> int:
    cfg = _merged(args)
    tol = cfg.get("tol")
    sys_ = resolve_system(cfg)
    dictionary, spec = _resolve_dictionary(cfg, sys_)
    out = _out_dir(cfg)
    model_path = out / "model.json"
    if not model_path.exists():
        raise DomainError(f"no model at {model_path}; run `koopcontrol fit` first")
    try:
        model = import_model_json(model_path, dictionary, sys_)
    except DomainMismatchError:
        raise DomainError(f"config key 'dict': {spec!r} is not the stored model's dictionary") from None
    x0 = _resolve_x0(cfg, sys_)
    seq = _resolve_sequence(cfg, sys_)
    steps = cfg.get("steps", 20)
    errors = prediction_error(model, dictionary, sys_, x0, seq, steps)
    rows = zip(range(steps + 1), [""] + [repr(u) for u in seq.word(steps)], errors.tolist())
    text = "step,input,error\n" + "".join(["%d,%s,%.17g\n" % row for row in rows])
    _atomic_export(out / "prediction_errors.csv", lambda p: Path(p).write_text(text))
    worst = float(np.max(errors))
    print(f"predict {sys_.name}: dictionary {spec}, {steps} steps from x0={x0!r}")
    print(f"  max lifted prediction error {worst:.3e}")
    print(f"wrote {out / 'prediction_errors.csv'}")
    if tol is not None and not worst <= tol:
        print(f"  FAIL: error exceeds tolerance {tol:g}")
        return 1
    return 0


# --- entry point -----------------------------------------------------------


_COMMANDS = (
    ("check", "run the identity-check registry", cmd_check),
    ("fit", "sample transitions and fit one matrix per input", cmd_fit),
    ("predict", "roll a fitted model forward and score it", cmd_predict),
)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by ``main``.

    Each command takes ``--config`` and the flags that ``_OPTIONS`` gives it;
    a flag's value stays text until ``_merged`` reads it like a config value.
    """
    parser = argparse.ArgumentParser(
        prog="koopcontrol",
        description="Operator encodings of input-driven dynamics: checks and identification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, func in _COMMANDS:
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("--config", help="key = value config file; flags override it")
        for opt in _OPTIONS.values():
            if name in opt.commands:
                switch = {"action": "store_true", "default": None} if opt.kind is bool else {}
                cmd.add_argument(f"--{opt.key}", dest=opt.key, help=opt.help, **switch)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedError, OSError, ValueError) as exc:  # a DomainError is a ValueError
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
