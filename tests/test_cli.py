import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from koopcontrol import builtin_system, checks, cli, exact_plan, results_to_json, run_all
from koopcontrol.cli import _build_parser, main, parse_config_text, resolve_system


def run(*argv):
    return main(list(argv))


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    assert _build_parser() is _build_parser()
    first = _build_parser().parse_args(["check", "--system", "finite3", "--exact", "--only", "C1"])
    second = _build_parser().parse_args(["check", "--system", "finite3"])
    assert first.exact and first.only == "C1"
    assert not second.exact and second.only is None


def _subcommands():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _flags(parser):
    return {
        opt: type(action).__name__
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }


def test_cli_surface_is_pinned():
    """Each command takes ``--config`` and only the flags it reads."""
    store = lambda *keys: {f"--{key}": "_StoreAction" for key in ("config",) + keys}
    expected = {
        "check": {
            **store("system", "seed", "points", "tol", "out", "only"),
            "--exact": "_StoreTrueAction",
        },
        "fit": store("system", "seed", "points", "out", "dict"),
        "predict": store("system", "tol", "out", "dict"),
    }
    assert {name: _flags(p) for name, p in _subcommands().items()} == expected
    assert list(cli._OPTIONS) == [
        "system", "seed", "points", "tol", "out", "only", "exact", "dict",
        "functions", "steps", "x0", "word", "name", "states", "inputs",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "--exact"),
        ("predict", "--seed", "3", "--points", "9"),
        ("check", "--dict", "indicator"),
        ("fit", "--tol", "1e-8"),
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_demo_naive_is_no_command(capsys):
    """The naive-encoding walkthrough is demo 02's own code, and the table
    ``report`` printed is the ``check_report.txt`` that ``check`` writes."""
    for command in ("demo-naive", "report"):
        with pytest.raises(SystemExit) as exc:
            run(command)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and repr(command) in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_flags_sentence_names_the_parser_flags():
    sentence = README.read_text().split("Flags:", 1)[1].split(". ", 1)[0]
    named = re.findall(r"`(--[a-z-]+)`", sentence)
    assert len(named) == len(set(named))
    assert set(named) == {opt for p in _subcommands().values() for opt in _flags(p)}


def test_readme_operator_names_sentence_names_the_registry_operators():
    after = README.read_text().split("The names are", 1)[1]
    sentence = re.split(r"\.\s", after, maxsplit=1)[0]
    named = re.findall(r"`([A-Za-z_^]+)`", sentence)
    assert len(named) == len(set(named))
    sys_ = resolve_system({"system": "finite3"})
    assert set(named) == set(checks._named(sys_, {"u": sys_.inputs.labels[0]}))


def test_readme_inline_table_example_runs(tmp_path):
    example = re.search(r"```ini\n(system = table\n.*?)```", README.read_text(), re.S).group(1)
    config = tmp_path / "table.cfg"
    config.write_text(example)
    assert run("check", "--config", str(config), "--exact", "--out", str(tmp_path)) == 0


# --- config parsing --------------------------------------------------------


def test_parse_config_basics():
    cfg = parse_config_text(
        """
        # a comment
        system = finite3
        seed = 7  # trailing comment
        name = "spaced value"
        """
    )
    assert cfg == {"system": "finite3", "seed": "7", "name": "spaced value"}


def test_parse_config_rejects_bare_words():
    with pytest.raises(Exception):
        parse_config_text("nonsense\n")


def test_resolve_inline_table_system():
    cfg = parse_config_text(
        """
        system = table
        states = p,q
        inputs = go
        step.p.go = q
        step.q.go = q
        """
    )
    sys_ = resolve_system(cfg)
    assert sys_.states.labels == ("p", "q")
    assert sys_.transition("p", "go") == "q"


def test_resolve_table_rejects_missing_entries():
    cfg = parse_config_text("system = table\nstates = p\ninputs = go\n")
    with pytest.raises(Exception):
        resolve_system(cfg)


@pytest.mark.parametrize("line, message", [
    ("step.r.go = p", "config key 'step.r.go' names an undeclared state"),
    ("step.p.jump = q", "config key 'step.p.jump' names an undeclared input"),
], ids=["state", "input"])
def test_table_rejects_transitions_on_undeclared_labels(tmp_path, capsys, line, message):
    config = tmp_path / "table.cfg"
    config.write_text(
        "system = table\nstates = p,q\ninputs = go,stay\n"
        "step.p.go = q\nstep.p.stay = p\nstep.q.go = p\nstep.q.stay = q\n" + line + "\n"
    )
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    ("step.p.go = q\nstep.p.go = p\n", "config key 'step.p.go' is given twice, on lines 4 and 5"),
    ("seed = 1\nstep.p.go = q\nseed = 2\n", "config key 'seed' is given twice, on lines 4 and 6"),
    ("step.p.go = q\nstep.p.go  =  q\n", "config key 'step.p.go' is given twice, on lines 4 and 5"),
], ids=["step", "seed", "same value"])
def test_a_key_given_twice_in_a_config_exits_2(tmp_path, capsys, lines, message):
    config = tmp_path / "table.cfg"
    config.write_text("system = table\nstates = p,q\ninputs = go\n" + lines + "step.q.go = q\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()


def test_two_step_keys_for_one_pair_exit_2(tmp_path, capsys):
    config = tmp_path / "table.cfg"
    config.write_text("system = table\nstates = 0,1\ninputs = a\nstep.0.a = 1\nstep.00.a = 0\nstep.1.a = 1\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert "config keys 'step.0.a' and 'step.00.a' both give the step from 0 under 'a'" in capsys.readouterr().err


@pytest.mark.parametrize("first, second, message", [
    ("param.lambdas.a", "param.lambdas. a", "config keys 'param.lambdas.a' and 'param.lambdas. a' both give 'lambdas' of label 'a'"),
    ("param.lambdas.1", "param.lambdas.1.0", "config keys 'param.lambdas.1' and 'param.lambdas.1.0' both give 'lambdas' of label 1.0"),
], ids=["space", "int-float"])
def test_two_param_keys_for_one_label_exit_2(tmp_path, capsys, first, second, message):
    """Two keys that differ as text but parse to one label once kept the last value silently."""
    config = tmp_path / "run.cfg"
    config.write_text(f"system = scalarlinear\n{first} = 0.3\n{second} = 0.9\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "check_report.json").exists()


def test_a_flag_still_overrides_a_key_given_once(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("system = finite3\nseed = 3\n")
    assert run("check", "--config", str(config), "--seed", "5", "--out", str(tmp_path)) == 0
    assert json.loads((tmp_path / "check_report.json").read_text()) == json.loads(
        results_to_json(run_all(builtin_system("finite3"), exact_plan(seed=5)).results)
    )


def test_resolve_builtin_with_params():
    cfg = parse_config_text(
        "system = scalarlinear\nparam.lambdas.a = 0.3\nparam.lambdas.b = 0.7\n"
    )
    sys_ = resolve_system(cfg)
    assert sys_.transition(np.array([1.0]), "a") == pytest.approx(0.3)


# --- check command ---------------------------------------------------------


def test_check_exact_writes_reports_and_exits_zero(tmp_path, capsys):
    code = run("check", "--system", "finite3", "--exact", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "20/20 checks passed" in out
    payload = json.loads((tmp_path / "check_report.json").read_text())
    assert len(payload) == 20
    assert all(entry["pass"] for entry in payload)
    assert (tmp_path / "check_report.txt").exists()


def test_check_sampled_requires_seed(tmp_path, capsys):
    code = run("check", "--system", "scalarlinear", "--out", str(tmp_path))
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_check_reports_are_byte_identical(tmp_path):
    args = (
        "check", "--system", "scalarlinear", "--seed", "5",
        "--points", "60", "--tol", "1e-12",
    )
    assert run(*args, "--out", str(tmp_path / "one")) == 0
    assert run(*args, "--out", str(tmp_path / "two")) == 0
    one = (tmp_path / "one" / "check_report.json").read_bytes()
    two = (tmp_path / "two" / "check_report.json").read_bytes()
    assert one == two


def test_check_only_subset_prints_witness(tmp_path, capsys):
    code = run("check", "--system", "finite3", "--only", "C19", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "witness" in out
    assert "1/1 checks passed" in out


def test_check_only_runs_each_id_once_in_first_given_order(tmp_path, capsys):
    code = run("check", "--system", "finite3", "--only", "C2,c1,C1, c2", "--out", str(tmp_path))
    assert code == 0
    assert "2/2 checks passed" in capsys.readouterr().out
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert [r["id"] for r in report] == ["C2", "C1"]


def test_check_unknown_only_id(tmp_path, capsys):
    code = run("check", "--system", "finite3", "--only", "C77", "--out", str(tmp_path))
    assert code == 2
    assert "unknown check ids" in capsys.readouterr().err


@pytest.mark.parametrize("only", [",", " , "])
def test_check_only_naming_no_id_is_rejected(tmp_path, capsys, only):
    code = run("check", "--system", "finite3", "--only", only, "--out", str(tmp_path))
    assert code == 2
    assert f"config key 'only': expected check ids, got {only!r}" in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()


def test_check_skips_inapplicable_only_ids(tmp_path, capsys):
    code = run(
        "check", "--system", "scalarlinear", "--seed", "1",
        "--only", "C19", "--out", str(tmp_path),
    )
    assert code == 0
    assert "skipped" in capsys.readouterr().out


def test_check_rejects_nan_tolerance(tmp_path, capsys):
    code = run(
        "check", "--system", "scalarlinear", "--seed", "1",
        "--points", "20", "--tol", "nan", "--out", str(tmp_path),
    )
    assert code == 2
    assert "config key 'tol': expected a number >= 0, got 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()


@pytest.mark.parametrize(
    "key, value, field",
    [("functions", 1, "n_functions")],
)
def test_finite_check_plan_carries_its_config_key(monkeypatch, tmp_path, key, value, field):
    plans = []
    real = cli.run_all
    monkeypatch.setattr(cli, "run_all", lambda sys_, plan, only=None: plans.append(plan) or real(sys_, plan, only))
    config = tmp_path / "run.cfg"
    config.write_text(f"system = finite3\n{key} = {value}\n")
    assert run("check", "--config", str(config), "--only", "C20", "--out", str(tmp_path)) == 0
    assert getattr(plans[0], field) == value and plans[0].tolerance == 0.0
    (c20,) = json.loads((tmp_path / "check_report.json").read_text())
    assert c20["n_evaluated"] == 200 * min(plans[0].n_functions, 8)


def test_exact_check_with_a_tolerance_names_tol(tmp_path, capsys):
    code = run("check", "--system", "finite3", "--exact", "--tol", "0.5", "--out", str(tmp_path))
    assert code == 2
    assert "config key 'tol'" in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()


def test_malformed_boolean_is_rejected(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("system = scalarlinear\nseed = 1\npoints = 20\nfunctions = 2\nexact = treu\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert "'exact': expected a boolean, got 'treu'" in capsys.readouterr().err
    config.write_text("system = scalarlinear\nseed = 1\npoints = 20\nfunctions = 2\nexact = OFF\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 0


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("system = finite3\npionts = 20\n")
    assert run("check", "--config", str(config), "--only", "C1", "--out", str(tmp_path)) == 2
    assert "unknown config key 'pionts'" in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()


def test_bad_flag_value_names_its_config_key(tmp_path, capsys):
    assert run("check", "--system", "finite3", "--seed", "abc", "--out", str(tmp_path)) == 2
    assert "config key 'seed': expected an integer, got 'abc'" in capsys.readouterr().err


def test_bad_param_value_names_its_config_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("system = scalarlinear\nseed = 1\nparam.lambdas.a = oops\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert "config key 'param.lambdas.a': expected a number, got 'oops'" in capsys.readouterr().err


def test_unknown_param_key_is_named(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("system = finite3\nparam.foo = 1\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert "config key 'param.foo': system 'finite3' takes no such parameter" in capsys.readouterr().err


def test_bad_scalar_param_value_names_its_config_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("system = logistic-with-offset\nseed = 1\nparam.r = oops\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert "config key 'param.r': expected a number, got 'oops'" in capsys.readouterr().err


@pytest.mark.parametrize("system, line, message", [
    ("scalarlinear", "param.lambdas = 0.4", "config key 'param.lambdas': 'lambdas' takes per-label keys, not a number"),
    ("logistic-with-offset", "param.r = 1,2", "config key 'param.r': 'r' takes a number, not a list"),
    ("logistic-with-offset", "param.r.a = 1", "config key 'param.r.a': 'r' takes a number, not per-label keys"),
])
def test_param_of_the_wrong_shape_names_its_config_key(tmp_path, capsys, system, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"system = {system}\nseed = 1\n{line}\n")
    assert run("check", "--config", str(config), "--out", str(tmp_path)) == 2
    assert message in capsys.readouterr().err


_TABLE = "system = table\nstates = a\ninputs = u\nstep.a.u = a\n"
_LOGISTIC = "system = logistic-with-offset\nseed = 1\n"


@pytest.mark.parametrize("config, message", [
    (_TABLE.replace("states = a", "states = a,a"), "config key 'states': entries must be unique, got 'a,a'"),
    (_TABLE.replace("inputs = u", "inputs = u,u"), "config key 'inputs': entries must be unique, got 'u,u'"),
    (_TABLE.replace("states = a", "states = "), "config key 'states': expected comma-separated labels, got ''"),
    (_LOGISTIC + "param.offsets = 0.0,0.0\n", "config key 'param.offsets': entries must be unique, got '0.0,0.0'"),
    (_LOGISTIC + "param.r = nan\n", "config key 'param.r': expected a finite number, got 'nan'"),
    (_LOGISTIC + "param.r = inf\n", "config key 'param.r': expected a finite number, got 'inf'"),
    (_LOGISTIC + "param.offsets = 0.0,nan\n", "config key 'param.offsets': expected a finite number, got 'nan'"),
    (_LOGISTIC + "param.offsets = inf\n", "config key 'param.offsets': expected a finite number, got 'inf'"),
    ("system = scalarlinear\nseed = 1\nparam.lambdas.a = nan\n",
     "config key 'param.lambdas.a': expected a finite number, got 'nan'"),
    ("system = scalarlinear\nseed = 1\nparam.lambdas.a = inf\n",
     "config key 'param.lambdas.a': expected a finite number, got 'inf'"),
    (_LOGISTIC + "param.r = 9\n", "transition output array([2.23679896]) outside the declared box"),
], ids=["states-twice", "inputs-twice", "no-states", "offsets-twice", "r-nan", "r-inf", "offsets-nan",
        "offsets-inf", "lambda-nan", "lambda-inf", "r-leaves-the-box"])
def test_a_value_that_builds_a_bad_system_exits_2_naming_its_key(tmp_path, capsys, config, message):
    """Repeated or empty labels once reached the system's own check, which
    names no key; a number that is not finite was accepted and failed later
    as a transition outside the box.  A finite ``r`` that leaves the box
    still fails at its first transition."""
    (tmp_path / "run.cfg").write_text(config)
    assert run("check", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.glob("*.json"))


def test_one_offset_makes_a_one_input_system():
    cfg = {"system": "logistic-with-offset", "param.offsets": "0.05"}
    assert resolve_system(cfg).inputs.labels == (0.05,)


def test_check_unknown_system(tmp_path, capsys):
    code = run("check", "--system", "never", "--out", str(tmp_path))
    assert code == 2
    assert "unknown system" in capsys.readouterr().err


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("KOOPCONTROL_OUT", str(tmp_path / "envout"))
    assert run("check", "--system", "finite3", "--exact") == 0
    assert (tmp_path / "envout" / "check_report.json").exists()


def test_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("system = never\nseed = 3\n")
    code = run(
        "check", "--config", str(config), "--system", "finite3",
        "--exact", "--out", str(tmp_path),
    )
    assert code == 0
    assert "finite3" in capsys.readouterr().out


def test_config_file_alone_drives_a_run(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"system = scalarlinear\nseed = 2\npoints = 40\nfunctions = 4\n"
        f"tol = 1e-12\nout = {tmp_path}\n"
    )
    assert run("check", "--config", str(config)) == 0
    assert (tmp_path / "check_report.json").exists()


# --- fit / predict / report -----------------------------------------------


def test_fit_then_predict_pipeline(tmp_path, capsys):
    assert run(
        "fit", "--system", "scalarlinear", "--dict", "monomial:2",
        "--seed", "3", "--points", "200", "--out", str(tmp_path),
    ) == 0
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "training.csv").exists()
    capsys.readouterr()

    config = tmp_path / "predict.cfg"
    config.write_text("x0 = 0.8\nword = a,b\nsteps = 12\n")
    code = run(
        "predict", "--system", "scalarlinear", "--dict", "monomial:2",
        "--config", str(config), "--tol", "1e-8", "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "max lifted prediction error" in out
    rows = (tmp_path / "prediction_errors.csv").read_text().strip().splitlines()
    assert rows[0] == "step,input,error"
    assert len(rows) == 14  # header + steps 0..12


def test_fit_bad_monomial_degree_names_the_spec(tmp_path, capsys):
    code = run("fit", "--system", "scalarlinear", "--dict", "monomial:abc", "--seed", "3", "--out", str(tmp_path))
    assert code == 2
    assert "dictionary spec 'monomial:abc': degree must be an integer, got 'abc'" in capsys.readouterr().err


def test_fit_negative_monomial_degree_names_the_dict_key(tmp_path, capsys):
    code = run("fit", "--system", "scalarlinear", "--dict", "monomial:-1", "--seed", "3", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: config key 'dict': need dimension >= 1 and degree >= 0\n"
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [(("fit", "--system", "scalarlinear", "--dict", "indicator", "--seed", "1"),
      "indicator dictionaries need a finite state space"),
     (("fit", "--system", "finite3", "--dict", "monomial:3"), "monomial dictionaries need a box state space"),
     (("predict", "--system", "finite3", "--dict", "monomial:3"), "monomial dictionaries need a box state space")],
    ids=["fit-indicator-on-a-box", "fit-monomial-on-finite3", "predict-monomial-on-finite3"],
)
def test_a_dictionary_the_state_space_lacks_names_the_dict_key(tmp_path, capsys, argv, message):
    code = run(*argv, "--out", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == f"error: config key 'dict': {message}\n"
    assert not any(tmp_path.iterdir())


def test_atomic_export_deletes_its_temp_file_when_the_writer_fails(tmp_path):
    def writer(path):
        Path(path).write_text("half a model")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._atomic_export(tmp_path / "model.json", writer)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flags, lines, message",
    [
        ("check", ("--points", "0"), "", "config key 'points': expected an integer >= 1, got '0'"),
        ("check", (), "functions = 0\n", "config key 'functions': expected an integer >= 1, got '0'"),
        ("check", (), "prefix-max = 4\n", "unknown config key 'prefix-max'"),
        ("check", (), "period-max = 3\n", "unknown config key 'period-max'"),
        ("fit", ("--points", "0"), "", "config key 'points': expected an integer >= 1, got '0'"),
        ("fit", (), "resolution = 40\n", "unknown config key 'resolution'"),
        ("predict", (), "steps = -1\n", "config key 'steps': expected an integer >= 0, got '-1'"),
        ("fit", (), "sampler = grid\n", "unknown config key 'sampler'"),
        ("check", ("--tol", "0"), "", "config key 'tol': zero tolerance is reserved for finite systems"),
        ("check", ("--tol", "inf"), "", "config key 'tol': expected a finite number, got 'inf'"),
        ("predict", (), "tol = inf\n", "config key 'tol': expected a finite number, got 'inf'"),
    ],
    ids=[
        "points", "functions", "prefix-max", "period-max", "fit-points", "resolution", "steps",
        "sampler", "tol-zero-on-box", "tol-inf", "predict-tol-inf",
    ],
)
def test_bad_count_names_its_config_key(tmp_path, capsys, command, flags, lines, message):
    config = tmp_path / "run.cfg"
    config.write_text("system = scalarlinear\nseed = 1\n" + lines)
    assert run(command, "--config", str(config), *flags, "--out", str(tmp_path)) == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


_HUGE = str(10**20)


@pytest.mark.parametrize(
    "command, flags, lines, message",
    [
        ("predict", (), f"steps = {_HUGE}\n", f"config key 'steps': expected an integer <= 100000, got '{_HUGE}'"),
        ("check", ("--points", _HUGE), "", f"config key 'points': expected an integer <= 100000, got '{_HUGE}'"),
        ("check", (), f"functions = {_HUGE}\n", f"config key 'functions': expected an integer <= 1000, got '{_HUGE}'"),
        ("fit", ("--dict", f"monomial:{_HUGE}"), "", f"config key 'dict': degree must be at most 100, got {_HUGE}"),
        ("check", ("--seed", "-1"), "", "config key 'seed': expected an integer >= 0, got '-1'"),
    ],
    ids=["steps", "points", "functions", "degree", "seed"],
)
def test_a_size_beyond_its_limit_exits_2_naming_its_key(tmp_path, capsys, command, flags, lines, message):
    """Sizes are checked against their stated limits before anything is
    allocated: a huge ``steps`` or degree once overflowed with a traceback
    (exit 1), and a negative seed reached numpy's error, which names no key."""
    config = tmp_path / "run.cfg"
    config.write_text("system = scalarlinear\nseed = 1\n" + lines)
    assert run(command, "--config", str(config), *flags, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.glob("*.json"))


def test_predict_with_another_dictionary_names_the_dict_key(tmp_path, capsys):
    assert run(
        "fit", "--system", "scalarlinear", "--dict", "monomial:3",
        "--points", "50", "--seed", "1", "--out", str(tmp_path),
    ) == 0
    capsys.readouterr()
    code = run("predict", "--system", "scalarlinear", "--dict", "monomial:4", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: config key 'dict': 'monomial:4' is not the stored model's dictionary\n"
    assert not (tmp_path / "prediction_errors.csv").exists()


def test_predict_x0_of_the_wrong_dimension_names_its_config_key(tmp_path, capsys):
    assert run(
        "fit", "--system", "scalarlinear", "--seed", "3",
        "--points", "50", "--out", str(tmp_path),
    ) == 0
    capsys.readouterr()
    config = tmp_path / "predict.cfg"
    config.write_text("x0 = 0.1,0.2\n")
    code = run("predict", "--system", "scalarlinear", "--config", str(config), "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "config key 'x0': expected a 1-dimensional point, got '0.1,0.2'" in err


def test_predict_fails_impossible_tolerance(tmp_path, capsys):
    assert run(
        "fit", "--system", "scalarlinear", "--seed", "3",
        "--points", "100", "--out", str(tmp_path),
    ) == 0
    config = tmp_path / "predict.cfg"
    config.write_text("x0 = 0.8\nword = a,b\nsteps = 8\n")
    code = run(
        "predict", "--system", "scalarlinear", "--config", str(config),
        "--tol", "1e-30", "--out", str(tmp_path),
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_predict_rejects_nan_tolerance(tmp_path, capsys):
    assert run(
        "fit", "--system", "scalarlinear", "--seed", "3",
        "--points", "100", "--out", str(tmp_path),
    ) == 0
    capsys.readouterr()
    code = run("predict", "--system", "scalarlinear", "--tol", "nan", "--out", str(tmp_path))
    assert code == 2
    assert "'tol': expected a number >= 0, got 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "prediction_errors.csv").exists()


def test_predict_bad_x0_names_its_config_key(tmp_path, capsys):
    assert run(
        "fit", "--system", "scalarlinear", "--seed", "3",
        "--points", "50", "--out", str(tmp_path),
    ) == 0
    capsys.readouterr()
    config = tmp_path / "predict.cfg"
    config.write_text("x0 = abc\n")
    code = run("predict", "--system", "scalarlinear", "--config", str(config), "--out", str(tmp_path))
    assert code == 2
    assert "config key 'x0': expected a number, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "system, text, message",
    [("scalarlinear", "x0 = 5\n", "config key 'x0': '5' is not in RealBox"),
     ("finite3", "x0 = 7\n", "config key 'x0': '7' is not in FiniteStates"),
     ("scalarlinear", "word = a,zz\n", "config key 'word': labels ['zz'] are not in InputSet")],
    ids=["x0-outside-box", "x0-unknown-label", "word-unknown-label"],
)
def test_predict_values_outside_the_system_name_their_config_key(tmp_path, capsys, system, text, message):
    assert run("fit", "--system", system, "--seed", "3", "--points", "50", "--out", str(tmp_path)) == 0
    capsys.readouterr()
    config = tmp_path / "predict.cfg"
    config.write_text(text)
    assert run("predict", "--system", system, "--config", str(config), "--out", str(tmp_path)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "prediction_errors.csv").exists()


def test_predict_without_model(tmp_path, capsys):
    code = run("predict", "--system", "scalarlinear", "--out", str(tmp_path))
    assert code == 2
    assert "run `koopcontrol fit` first" in capsys.readouterr().err


def _one_entry_not_a_pair(model):
    rows = [list(row) for row in model["matrices"]["a"]]
    rows[0][0] = [1]
    return json.dumps({**model, "matrices": {**model["matrices"], "a": rows}})


@pytest.mark.parametrize("edit", [
    lambda model: "[1, 2]",
    _one_entry_not_a_pair,
    lambda model: json.dumps({**model, "matrices": {"a": 5}}),
    lambda model: json.dumps({key: value for key, value in model.items() if key != "matrices"}),
    lambda model: "not json",
    lambda model: json.dumps({**model, "matrices": {"a": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}),
    lambda model: json.dumps({**model, "matrices": {**model["matrices"], "zz": model["matrices"]["a"]}}),
    lambda model: json.dumps({**model, "matrices": {"a": [[[10**400, 0]] * 3] * 3}}),
], ids=["a-list", "an-entry-not-a-pair", "a-matrix-not-a-list", "no-matrices", "not-json", "2x2-for-3-entries",
        "an-unknown-label", "an-int-past-float-range"])
def test_a_malformed_model_json_exits_2_naming_its_path(tmp_path, capsys, edit):
    fit = ("--system", "scalarlinear", "--dict", "monomial:2", "--out", str(tmp_path))
    assert run("fit", *fit, "--points", "50", "--seed", "1") == 0
    path = tmp_path / "model.json"
    path.write_text(edit(json.loads(path.read_text())))
    capsys.readouterr()
    assert run("predict", *fit) == 2  # an exception escaping main would fail the call
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert not (tmp_path / "prediction_errors.csv").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["check"], " = 3\n", "config line 1: empty key"),
    (["check"], None, "cannot read config {path}: [Errno 2] No such file or directory: '{path}'"),
    (["check", "--exact"], "system = table\ninputs = a\n", "inline table system needs a 'states' key"),
    (["check", "--exact"], "system = table\nstates = 0\ninputs = a\nstep.0 = 0\n",
     "bad key 'step.0'; use step.<state>.<input> = <next>"),
    (["check", "--system", "scalarlinear", "--exact", "--seed", "1"], "", "--exact needs a finite state space"),
    (["fit", "--system", "scalarlinear"], "", "uniform sampling needs a seed (--seed or config)"),
], ids=["empty-key", "missing-config", "table-without-states", "step-key-without-input", "exact-on-a-box",
        "fit-without-seed"])
def test_bad_input_exits_2_with_its_message(tmp_path, capsys, argv, config, message):
    path = tmp_path / "run.cfg"
    if config is not None:
        path.write_text(config)
    assert run(*argv, "--config", str(path), "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"] * (config is not None)


def test_fit_finite_exact(tmp_path, capsys):
    assert run("fit", "--system", "finite3", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "indicator" in out
    model = json.loads((tmp_path / "model.json").read_text())
    entries = model["matrices"]["a"]
    assert len(entries) == 3
    # without x0 and word, predict starts at the first state label under the first input, held
    assert run("predict", "--system", "finite3", "--out", str(tmp_path)) == 0
    assert "20 steps from x0=0\n" in capsys.readouterr().out
    rows = (tmp_path / "prediction_errors.csv").read_text().splitlines()
    assert rows[1:4] == ["0,,0", "1,'a',0", "2,'a',0"] and len(rows) == 22


def test_fit_with_param_override(tmp_path):
    config = tmp_path / "fit.cfg"
    config.write_text("param.lambdas.a = 0.3\nparam.lambdas.b = 0.7\n")
    assert run(
        "fit", "--system", "scalarlinear", "--config", str(config),
        "--seed", "1", "--points", "150", "--out", str(tmp_path),
    ) == 0
    model = json.loads((tmp_path / "model.json").read_text())
    a = np.array([[c[0] + 1j * c[1] for c in row] for row in model["matrices"]["a"]])
    assert np.allclose(a, np.diag([1.0, 0.3, 0.09]), atol=1e-8)
