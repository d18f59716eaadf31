"""Smoke test of the standalone calibration scripts under tests/oracles.

Their printed numbers are the source of bounds frozen into other tests, and
they call the public API directly, so each runs here in a fresh interpreter
(about a second each) to catch an API change that leaves them broken.
"""

import subprocess
import sys
from pathlib import Path

from conftest import src_env

ORACLES = Path(__file__).resolve().parent / "oracles"


def run_script(name: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ORACLES / name)], env=src_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_envelope_fixtures_reproduce_both_control_verdicts():
    lines = run_script("envelope_fixtures.py")
    assert "positive passed: True" in lines
    assert "negative passed: True" in lines


def test_two_state_flow_prints_the_error_at_each_step_count():
    lines = run_script("two_state_flow.py")
    assert lines[0].startswith("u_star = array(")
    assert [line.split("err=")[0] for line in lines[1:]] == [
        f"n={n:4d}  " for n in (16, 64, 256)
    ]
