"""Every script in ``examples/`` runs to completion and reports a correct
answer on its own correctness line (no wall-clock assertion)."""

import os
import re
import subprocess
import sys

import pytest

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLES = os.path.join(REPO, "examples")

#: Example -> (its correctness line, how many times it must print it).
CORRECT_LINES = {
    "distributed_join.py": (r"\|join\|=\d+ ok$", 6),
    "matrix_chain.py": (r"bits=\s*\d+ ok$", 6),
    "quickstart.py": (r"^matches solver\s*: True$", 1),
    "sensor_network_pgm.py": (r"^matches (brute force|centralized): True$", 2),
}


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(EXAMPLES) if f.endswith(".py"))
)
def test_example_runs_and_reports_a_correct_answer(name):
    pattern, count = CORRECT_LINES[name]
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert len(re.findall(pattern, result.stdout, re.MULTILINE)) == count
