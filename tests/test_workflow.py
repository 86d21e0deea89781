"""The CI workflow runs one gate: the install, this suite and the
benchmark smoke check. A new check lands here as a test, not as a
workflow step."""

import tomllib
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

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


def test_ci_python_is_the_declared_floor():
    # the oldest Python the package admits is the one CI runs
    floor = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    versions = [step["with"]["python-version"] for step in steps
                if "python-version" in step.get("with", {})]
    assert [f">={v}" for v in versions] == [floor]
