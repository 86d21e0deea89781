"""The CI workflow runs one gate: the install, this suite and the
benchmark smoke check. A new check lands here as a test, not as a
workflow step."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"

RUN_STEPS = [
    "pip install -e '.[test]'",
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
    "--continue-on-collection-errors",
    "python3 perfbench/smoke.py",
]


def test_workflow_runs_only_install_tier1_and_smoke_check():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    runs = [step["run"].strip() for job in jobs.values() for step in job["steps"]
            if "run" in step]
    assert runs == RUN_STEPS


def test_tier1_job_has_a_time_limit():
    # a hung test fails the job instead of holding a runner for hours
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]
    assert 0 < job["timeout-minutes"] <= 30
