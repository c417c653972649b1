"""Repository hygiene guards: bytecode, documentation links, docstrings.

The seed repository carried 51 ``src/**/__pycache__/*.pyc`` files in the git
index; a stale committed ``.pyc`` can shadow a source edit for anyone whose
interpreter version matches, which makes "I changed the file and nothing
happened" bugs possible.  The index was purged and a root ``.gitignore``
added; the bytecode tests keep it that way.

PR 5 added a ``docs/`` subsystem; the documentation tests keep it honest:
every relative link inside ``docs/*.md`` and ``README.md`` must resolve,
every ``results/<file>`` either of them cites must exist in the repository,
and every ``src/repro/*/`` package must carry a real module docstring (the
docs pages lean on them).
"""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracked_files() -> list[str]:
    try:
        proc = subprocess.run(
            ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git is not available")
    if proc.returncode != 0:
        pytest.skip("not inside a git work tree")
    return proc.stdout.splitlines()


def test_no_bytecode_is_git_tracked():
    offenders = [path for path in _tracked_files()
                 if path.endswith(".pyc") or "__pycache__" in path]
    assert not offenders, (
        "compiled bytecode is committed (run `git rm -r --cached` on these "
        f"and keep .gitignore intact): {offenders[:10]}"
    )


def test_gitignore_covers_caches():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__/", "*.pyc", ".pytest_cache/",
                    ".hypothesis/", ".benchmarks/",
                    "difftest_journal*.jsonl", "*.journal.jsonl",
                    "artifact-cache*/", "*.artifact-cache/", "*.art",
                    "*.status.json"):
        assert pattern in gitignore, f".gitignore lost the {pattern!r} entry"


def test_no_sweep_journal_scratch_is_git_tracked():
    """Write-ahead journals are per-run checkpoint state (one JSON line per
    completed program); committing one would ship a multi-megabyte scratch
    file and make ``--resume`` silently pick up a stale sweep."""
    offenders = [path for path in _tracked_files()
                 if path.endswith(".journal.jsonl")
                 or pathlib.PurePosixPath(path).name.startswith("difftest_journal")]
    assert not offenders, (
        f"sweep journal scratch is committed (git rm --cached): {offenders[:10]}"
    )


def test_no_artifact_cache_scratch_is_git_tracked():
    """Disk-tier cache entries (and their quarantine evidence) are
    content-addressed machine state — regenerable from source, specific to
    one interpreter build, and poisonous when stale; they must never ride
    along in a commit."""
    offenders = [path for path in _tracked_files()
                 if path.endswith(".art")
                 or "artifact-cache" in path
                 or "/quarantine/" in path]
    assert not offenders, (
        f"artifact-cache scratch is committed (git rm --cached): {offenders[:10]}"
    )


# ---------------------------------------------------------------------------
# Documentation
# ---------------------------------------------------------------------------

#: markdown inline links, keeping only the target: [text](target)
_MD_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
#: results files cited in prose or tables (``results/<file>`` with a suffix)
_RESULTS_REF = re.compile(r"results/([A-Za-z0-9_.-]+\.[A-Za-z0-9]+)")


def _doc_pages() -> list[pathlib.Path]:
    pages = sorted((REPO_ROOT / "docs").glob("*.md"))
    assert pages, "docs/ must contain the subsystem documentation"
    return pages + [REPO_ROOT / "README.md"]


def test_docs_exist():
    names = {page.name for page in (REPO_ROOT / "docs").glob("*.md")}
    assert {"models.md", "difftest.md", "pipeline.md"} <= names


def test_docs_internal_links_resolve():
    broken = []
    for page in _doc_pages():
        for target in _MD_LINK.findall(page.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            resolved = (page.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append(f"{page.relative_to(REPO_ROOT)} -> {target}")
    assert not broken, f"dangling documentation links: {broken}"


def test_docs_reference_existing_results_files():
    missing = []
    for page in _doc_pages():
        for name in _RESULTS_REF.findall(page.read_text(encoding="utf-8")):
            if name.startswith("difftest_journal"):
                # per-run journal scratch (gitignored by design): the docs
                # legitimately cite it in runbook commands, never as an
                # artifact that must exist in the repository
                continue
            if not (REPO_ROOT / "results" / name).exists():
                missing.append(f"{page.relative_to(REPO_ROOT)} cites results/{name}")
    assert not missing, f"documentation cites absent results files: {missing}"


def test_every_package_has_a_module_docstring():
    inits = sorted((REPO_ROOT / "src" / "repro").glob("*/__init__.py"))
    assert inits, "src/repro must contain packages"
    bare = []
    for init in inits + [REPO_ROOT / "src" / "repro" / "__init__.py"]:
        tree = ast.parse(init.read_text(encoding="utf-8"))
        docstring = ast.get_docstring(tree)
        if not docstring or not docstring.strip():
            bare.append(str(init.relative_to(REPO_ROOT)))
    assert not bare, f"packages missing module docstrings: {bare}"
