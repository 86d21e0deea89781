"""coopeig benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a coopeig source tree; the package is imported from
its ``src/`` directory, never from an installed copy. Operations go
through ``coopeig.cli.main`` in this process, one at a time, with
``--jobs 1`` and ``parallel: false``. Scratch files live under
``.perfbench_work/`` at the root and are removed on exit.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics, their times host-adjusted as
``hostspeed.py`` explains; with ``--trace 1`` it holds the per-layer
metrics of ``tracer.py`` instead. Lines before it report the
environment, per-metric values with units, the output digest and the
known-defect probe.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from hostspeed import Clock
from tracer import Tracer
from workloads import WORKLOADS, Runner, Workload, probe_default_mlp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 5  # fresh interpreters timed per run; the median is reported
DIGEST_OPS = 3  # operations whose outputs make up the run's digest
MIN_OPS = 3  # operations run even if they overrun --seconds

END_TO_END = {  # name -> (unit, better)
    "op_s_p50": ("s", "lower"),
    "sims_per_s": ("1/s", "higher"),
    "rounds_per_s": ("rounds/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# A fresh interpreter importing coopeig and finishing one tiny simulate.
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from coopeig.cli import main; sys.exit(main(sys.argv[2:]))")


def import_coopeig():
    """Import coopeig from this tree's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "coopeig", "__init__.py")):
        sys.exit(f"perfbench: no coopeig sources under {SRC}")
    sys.path.insert(0, SRC)
    import coopeig
    from coopeig import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(coopeig.__file__))) != SRC:
        sys.exit(f"perfbench: imported coopeig from {coopeig.__file__}, not {SRC}")
    return coopeig, cli


def environment(coopeig, seed):
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": has_numba, "nproc": len(os.sched_getaffinity(0)),
            "coopeig": coopeig.__version__, "commit": commit, "seed": seed}


def measure_setup(workdir, seed):
    """Median host-adjusted wall time of SETUP_REPS fresh interpreters,
    after one untimed warm-up that fills the bytecode cache."""
    tiny = Workload("setup", "", n=4, config={**WORKLOADS["rounds_ring"].config,
                                              "agents": 2, "failure_p": 0.0, "tol": 1e-8})
    clock = Clock(during=False)  # the child, not this process, does the work
    _, _, argv = Runner(tiny, seed, workdir, None, clock).prepare(0)
    cmd = [sys.executable, "-c", SETUP_CHILD, SRC, *argv]
    times = []
    for rep in range(SETUP_REPS + 1):
        with clock.time() as timing:
            proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120)
        if proc.returncode != 0:
            return None, proc.stderr.decode(errors="replace").strip()[-300:]
        if rep:
            times.append(timing.seconds)
    return statistics.median(times), ""


def run_workload(wl, seed, seconds, trace, cli, workdir):
    """Run operations while the next one is expected to end within
    ``seconds`` (at least MIN_OPS). With ``trace`` each input runs twice,
    untraced and traced, in alternating order. Returns (attempted,
    failures, metrics, notes)."""
    runner = Runner(wl, seed, workdir, cli, Clock(adjust=not trace))
    tracer = Tracer() if trace else None
    plain, traced, digests, failures = [], [], [], []
    attempted = 0
    began = perf_counter()
    steps = []  # wall time of each loop step, to predict the next
    index = 0
    while index < MIN_OPS or perf_counter() - began + statistics.median(steps) <= seconds:
        step_began = perf_counter()
        prepared = runner.prepare(index)
        untraced_first = not trace or index % 2 == 0  # traced runs alternate order
        if untraced_first:
            results = [runner.run(index, prepared)]
        if trace:
            with tracer.installed():
                traced_result = runner.run(index, prepared)
            tracer.end_op(traced_result.seconds)
            if not untraced_first:
                results = [runner.run(index, prepared)]
            if not results[0].error and results[0].digest != traced_result.digest:
                traced_result.error = "traced output differs from untraced output"
            traced.append(traced_result)
            results.append(traced_result)
        plain.append(results[0])
        for r in results:
            attempted += 1
            if r.error:
                failures.append(f"op {index}: {r.error}")
        if index < DIGEST_OPS:
            digests.append(results[0].digest)
        for path in glob.glob(prepared[1] + ".*"):
            os.unlink(path)
        steps.append(perf_counter() - step_began)
        index += 1

    ok = [r for r in plain if not r.error]
    p50 = statistics.median(r.seconds for r in ok) if ok else float("nan")
    notes = {"ops": len(plain), "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
             "digest_ops": len(digests)}
    if trace:
        traced_ok = [r for r in traced if not r.error]
        t50 = statistics.median(r.seconds for r in traced_ok) if traced_ok else float("nan")
        metrics = tracer.metrics(t50 / p50 - 1.0)
        notes["missing"] = sorted(tracer.missing)
        return attempted, failures, metrics, notes

    busy = sum(r.seconds for r in plain)
    setup_s, setup_error = measure_setup(workdir, seed)
    attempted += 1
    if setup_error:
        failures.append(f"setup: {setup_error}")
    values = {
        "op_s_p50": p50,
        "sims_per_s": sum(r.sims for r in ok) / busy,
        "rounds_per_s": sum(r.rounds for r in ok) / busy,
        "setup_s": setup_s if setup_s is not None else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    notes["samples"] = len(ok)
    notes["wall_p50"] = statistics.median(r.wall for r in ok) if ok else float("nan")
    notes["host_speed"] = statistics.median(r.speed for r in plain)
    return attempted, failures, metrics, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke check")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    coopeig, cli = import_coopeig()

    print("env " + json.dumps(environment(coopeig, args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    attempted, failures, metrics = 0, [], {}
    try:
        for name in names:
            wl = WORKLOADS[name].sized(args.toy)
            print(f"workload {name}: {json.dumps(wl.config, sort_keys=True)} "
                  f"n={wl.n} sweep={list(wl.sweep)}")
            n_att, n_fail, wl_metrics, notes = run_workload(
                wl, args.seed, args.seconds, bool(args.trace), cli, workdir)
            attempted += n_att
            failures += [f"{name} {f}" for f in n_fail]
            print(f"{name} ops={notes['ops']} digest(first {notes['digest_ops']} ops)="
                  f"{notes['digest']}")
            if notes.get("missing"):
                print(f"{name} missing traced functions: {', '.join(notes['missing'])}")
            print(f"{name} failed_frac {len(n_fail) / n_att:.6g} ratio ({len(n_fail)}/{n_att})")
            if "host_speed" in notes:
                print(f"{name} unadjusted op wall p50 {notes['wall_p50']} s, host speed "
                      f"{notes['host_speed']:.4f} of reference (hostspeed.py)")
            for key, m in wl_metrics.items():
                count = f" (n={notes['samples']})" if key == "op_s_p50" else ""
                print(f"{name} {key} {m['value']} {m['unit']}{count}")
                metrics[key if len(names) == 1 else f"{name}.{key}"] = m
        for failure in failures:
            print(f"FAILED {failure}")
        if "mlp_train" in names:
            print(f"probe {probe_default_mlp(args.seed, workdir, cli)} (default mlp "
                  "estimator config; outside every workload and the failed count)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
