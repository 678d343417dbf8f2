"""Each narrative demo runs to completion against the installed package."""

import ast
import contextlib
import io
import runpy
from pathlib import Path

import pytest

import koopcontrol
from koopcontrol import builtin_system

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_completes(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_only_public_names(path):
    """A demo reads the package only through ``koopcontrol.__all__``."""
    used = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "koopcontrol":
            assert node.module == "koopcontrol", node.module
            used += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "koopcontrol" for alias in node.names)
    assert used and set(used) <= set(koopcontrol.__all__)


def _walkthrough(name: str) -> str:
    """Demo 02's walkthrough on the built-in system ``name``, as printed."""
    walkthrough = runpy.run_path(str(DEMO_DIR / "02_naive_pitfalls.py"))["walkthrough"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        walkthrough(builtin_system(name))
    return out.getvalue()


def test_naive_walkthrough_narrative():
    out = _walkthrough("finite3")
    assert "second application is impossible" in out
    assert "witness-found" in out
    assert "singleton-input" in out
    assert "all-restrictions-input-free" in out
    assert "not two" in out


def test_naive_walkthrough_on_input_blind_system():
    assert "no two-step gap" in _walkthrough("collapse2")


def test_naive_walkthrough_on_box():
    assert "impossible" in _walkthrough("scalarlinear")
