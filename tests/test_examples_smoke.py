"""Smoke tests for the public example scripts.

The five ``examples/*.py`` scripts are the library's public entry points —
the first code a new user runs — but nothing exercised them in CI, so an
API change could silently rot them.  Each test runs one script exactly the
way the docs say to (``PYTHONPATH=src python examples/<name>.py``) and
asserts it exits 0 and prints something; all five together take under three
seconds.  ``scripts/profile_interp.py`` is covered the same way, through its
``main``, in both its cProfile and ``--blocks`` modes.
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_every_example_is_covered():
    """New examples must be picked up by this smoke suite automatically."""
    assert [path.name for path in EXAMPLES] == [
        "garbage_collection.py",
        "idiom_survey.py",
        "packet_parser_sandbox.py",
        "porting_workflow.py",
        "quickstart.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (
        f"{script.name} exited {proc.returncode}\n"
        f"stdout:\n{proc.stdout[-2000:]}\nstderr:\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script.name} printed nothing"


def _load_profile_interp():
    path = REPO_ROOT / "scripts" / "profile_interp.py"
    spec = importlib.util.spec_from_file_location("profile_interp", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", [[], ["--blocks"]], ids=["cprofile", "blocks"])
def test_profile_interp_runs_clean(extra, capsys):
    """``scripts/profile_interp.py`` in both modes; ``--blocks`` reads the
    block-plan fields the engine records when profiling is on."""
    profile_interp = _load_profile_interp()
    assert profile_interp.main(["treeadd", "pdp11", "--top", "3", *extra]) == 0
    out = capsys.readouterr().out
    assert out.startswith("treeadd/pdp11: ")
    assert ("superinstruction residency: " in out) == bool(extra)
