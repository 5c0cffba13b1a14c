"""Smoke tests: every shipped example runs to completion.

The examples are user-facing deliverables; each is executed as a real
subprocess (so import-time behaviour, argument handling and the
``__main__`` guard are all exercised) and checked for its key output.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"

EXPECTED_OUTPUT = {
    "quickstart.py": "Figure 1 phone-call network",
    "community_evolution.py": "first appear as one community",
    "pagerank_over_time.py": "top-3 articles by PageRank",
    "anomaly_detection.py": "top anomaly",
    "compression_tour.py": "dual representation",
    "streaming_ingest.py": "final seal",
    "advanced_analytics.py": "compressibility accounting",
}


def _run(script: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs(script):
    out = _run(script)
    assert EXPECTED_OUTPUT[script] in out


def test_every_example_file_is_covered():
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    assert scripts == set(EXPECTED_OUTPUT)
