"""Smoke tests: the example and survey scripts run from a plain checkout."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "scripts")


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_run_examples():
    out = run_script("run_examples.py")
    assert out.returncode == 0, out.stderr
    assert "polar pairing:  scale 1, polar has 5 vertices" in out.stdout


def test_random_survey():
    out = run_script("random_survey.py", "--count", "40", "--seed", "0")
    assert out.returncode == 0, out.stderr
    assert "disagreements:       0" in out.stdout
