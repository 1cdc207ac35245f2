"""Checks on the repository's files, not on the package."""

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
