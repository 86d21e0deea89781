"""Smoke check of the benchmark at toy size.

    python3 perfbench/smoke.py

Runs every workload with tiny inputs, untraced and traced, through the
same command line the full benchmark uses. It asserts that the last
line is the result object, that every metric BENCHMARK.json names is
reported with its unit (and printed by name on its own line), that no
operation failed, and that traced and untraced runs of one seed give
the same output digest. It also checks that a traced function that no
longer exists is reported as missing. Exits 1 on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, import_coopeig  # noqa: E402
from tracer import Tracer, metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def check(workload, trace, lines, spec):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        "\n".join(line for line in lines if line.startswith("FAILED"))
    assert list(result["metrics"]) == [m["name"] for m in spec], \
        f"metric names differ from BENCHMARK.json: {sorted(result['metrics'])}"
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), (m["name"], got["value"])
        assert f"{workload} {m['name']} {got['value']} {m['unit']}" in "\n".join(lines), m["name"]
    assert any(line.startswith(f"{workload} failed_frac 0 ratio") for line in lines)
    return next(line.split("=")[-1] for line in lines if "digest(" in line)


def check_missing():
    import_coopeig()
    from coopeig import simulator

    original = simulator.fit_error_bound
    del simulator.fit_error_bound
    tracer = Tracer()
    try:
        with tracer.installed():
            pass
    finally:
        simulator.fit_error_bound = original
    metrics = tracer.metrics(0.0)
    assert metrics["simulator.fit_error_bound.self_s"]["value"] == "missing"
    assert metrics["simulator.fit_error_bound.calls"]["value"] == "missing"
    assert metrics["simulator.export_csv.calls"]["value"] == 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        [(name, unit, better) for name, (unit, better) in END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == metric_specs()
    for workload in WORKLOADS:
        digests = [check(workload, trace, run(workload, trace), bench[key])
                   for trace, key in ((0, "end_to_end"), (1, "per_layer"))]
        assert digests[0] == digests[1], f"{workload}: traced digest differs"
        print(f"smoke {workload}: ok (digest {digests[0][:16]})")
    check_missing()
    print("smoke missing function: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
