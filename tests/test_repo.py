"""Checks on the repository's files, not on the package."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_gitignored():
    # build, test and run outputs (out/, *.egg-info, caches) stay out of the history
    if shutil.which("git") is None or git("rev-parse", "--is-inside-work-tree").stdout != "true\n":
        pytest.skip("not a git work tree")
    listed = git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_feature_modes_are_spelled_only_in_features_and_config():
    # features.MODE_* name the feature modes and config maps each [run] mode
    # to a tuple of them; every other module reads those, never a literal
    owners = {"features.py", "config.py"}
    spelled = {}
    for path in sorted((ROOT / "src" / "wheatyield").rglob("*.py")):
        if path.parent.name == "wheatyield" and path.name in owners:
            continue
        found = {node.value for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant) and node.value in ("soil_only", "both")}
        if found:
            spelled[str(path.relative_to(ROOT))] = sorted(found)
    assert spelled == {}
