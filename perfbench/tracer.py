"""Outside-in per-layer tracing of coopeig.

The tracer wraps public functions of the coopeig modules from the
outside: it never edits the package, it rebinds names. Callers bind
these functions two ways (``from .matrix_core import jacobi_eigen`` and
``consensus.consensus_round``), so ``installed()`` replaces every
binding of the original function object in every loaded ``coopeig``
module, and restores them all on exit.

Each wrapped call records a span ``[name, parent, start, end]`` in
memory. A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
Probes read a call's arguments and result to count work done at the
same boundary (Jacobi sweeps, failure draws, exported bytes, ...).
"""

import contextlib
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

SYNTH = "local_estimator.synthesize_training_set"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _jacobi(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 0, "A").n
    c = tracer.counts
    c["matrix_core.jacobi_eigen.sweeps"] += result.iterations_used
    # One rotation updates two rows and two columns: 12n flops; a sweep
    # holds n(n-1)/2 rotations. Computed from the sweep count, not
    # measured, and skipped tiny rotations are still counted.
    c["matrix_core.jacobi_eigen.flops"] += 6 * n * n * (n - 1) * result.iterations_used
    if any(tracer.spans[i][0] == SYNTH for i in tracer.stack):
        c[SYNTH + ".jacobi_calls"] += 1


def _apply_failures(tracer, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    if _arg(args, kwargs, 1, "f").edge_drop_prob != 0.0:
        tracer.counts["comm_graph.apply_failures.edges_drawn"] += len(g.edges)
        tracer.counts["comm_graph.apply_failures.edges_kept"] += len(result.edges)


def _train(tracer, args, kwargs, result):
    tset = _arg(args, kwargs, 1, "tset")
    cfg = _arg(args, kwargs, 2, "cfg")
    tracer.counts["local_estimator.train.sample_epochs"] += len(tset.samples) * cfg.epochs


def _run_simulation(tracer, args, kwargs, result):
    tracer.counts["simulator.run_simulation.rounds"] += result.rounds_used


def _export_csv(tracer, args, kwargs, result):
    path = os.fspath(_arg(args, kwargs, 1, "destination"))
    tracer.counts["simulator.export_csv.bytes"] += os.path.getsize(path)


# (module, function, probe). Every entry gets a span and a call count.
SPANNED = (
    ("matrix_core", "jacobi_eigen", _jacobi),
    ("matrix_core", "generate_spd", None),
    ("comm_graph", "apply_failures", _apply_failures),
    ("comm_graph", "metropolis_weights", None),
    ("comm_graph", "slem", None),
    ("comm_graph", "build_graph", None),
    ("consensus", "consensus_round", None),
    ("consensus", "consensus_error", None),
    ("consensus", "deviation_norm", None),
    ("consensus", "estimation_error", None),
    ("consensus", "aggregate_global", None),
    ("local_estimator", "synthesize_training_set", None),
    ("local_estimator", "train", _train),
    ("local_estimator", "estimate", None),
    ("simulator", "run_simulation", _run_simulation),
    ("simulator", "export_csv", _export_csv),
    ("simulator", "load_config", None),
    ("simulator", "fit_error_bound", None),
    ("cli", "main", None),
)
# Called too often for a span to be cheap; counted only.
COUNTED = (("seeding", "keyed_uniform"),)

# The per-round work of run_simulation: the failure draw, the weight
# rebuild, the mixing step and its metrics, and the loop itself.
ROUND_LOOP = (
    "comm_graph.apply_failures",
    "comm_graph.metropolis_weights",
    "consensus.consensus_round",
    "consensus.consensus_error",
    "consensus.deviation_norm",
    "consensus.estimation_error",
    "consensus.aggregate_global",
    "simulator.run_simulation",
)

# name -> (unit, better, the traced functions it needs)
JACOBI, TRAIN = ("matrix_core.jacobi_eigen",), ("local_estimator.train",)
EXTRA_METRICS = {
    "matrix_core.jacobi_eigen.sweeps": ("count", "lower", JACOBI),
    "matrix_core.jacobi_eigen.gflops_computed": ("GFLOP/s", "higher", JACOBI),
    "matrix_core.jacobi_eigen.self_share": ("ratio", "lower", JACOBI),
    "comm_graph.apply_failures.edges_drawn": ("count", "lower", ("comm_graph.apply_failures",)),
    "comm_graph.apply_failures.edges_kept": ("count", "higher", ("comm_graph.apply_failures",)),
    "seeding.keyed_uniform.calls": ("count", "lower", ("seeding.keyed_uniform",)),
    SYNTH + ".jacobi_calls": ("count", "lower", (SYNTH,) + JACOBI),
    "local_estimator.train.sample_epochs": ("count", "lower", TRAIN),
    "local_estimator.train.self_share": ("ratio", "lower", TRAIN),
    "simulator.run_simulation.rounds": ("count", "lower", ("simulator.run_simulation",)),
    "simulator.export_csv.bytes": ("bytes", "lower", ("simulator.export_csv",)),
    "round_loop.self_share": ("ratio", "lower", ROUND_LOOP),
    "trace.overhead_frac": ("ratio", "lower", ()),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in output order."""
    specs = []
    for module, fn, _ in SPANNED:
        specs.append((f"{module}.{fn}.calls", "count", "lower"))
        specs.append((f"{module}.{fn}.self_s", "s", "lower"))
    specs.extend((name, unit, better) for name, (unit, better, _) in EXTRA_METRICS.items())
    return specs


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []  # indices of open spans
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.missing = set()
        self.ops = 0
        self.op_seconds = 0.0

    def _span_wrapper(self, name, fn, probe):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _resolve(self, module, fn_name):
        try:
            return getattr(importlib.import_module("coopeig." + module), fn_name)
        except (ImportError, AttributeError):
            self.missing.add(f"{module}.{fn_name}")
            return None

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every loaded coopeig module
        for the duration of the block. A function that no longer exists
        is recorded as missing, not traced."""
        replacements = {}
        for module, fn_name, probe in SPANNED:
            original = self._resolve(module, fn_name)
            if original is not None:
                wrapper = self._span_wrapper(f"{module}.{fn_name}", original, probe)
                replacements[id(original)] = (original, wrapper)
        for module, fn_name in COUNTED:
            original = self._resolve(module, fn_name)
            if original is not None:
                wrapper = self._count_wrapper(f"{module}.{fn_name}", original)
                replacements[id(original)] = (original, wrapper)
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "coopeig" or mod_name.startswith("coopeig.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def end_op(self, seconds):
        """Fold the spans of one finished operation into self times."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, child):
            self.counts[name + ".calls"] += 1
            self.self_s[name] += (end - start) - inner
        self.spans.clear()
        self.ops += 1
        self.op_seconds += seconds

    def metrics(self, overhead_frac):
        """Per-operation means of every per-layer metric."""
        ops = max(self.ops, 1)
        total = self.op_seconds or float("nan")
        values = {}
        for module, fn, _ in SPANNED:
            name = f"{module}.{fn}"
            values[name + ".calls"] = self.counts[name + ".calls"] / ops
            values[name + ".self_s"] = self.self_s[name] / ops
        for name in EXTRA_METRICS:
            values[name] = self.counts[name] / ops
        jacobi_s = self.self_s["matrix_core.jacobi_eigen"]
        values["matrix_core.jacobi_eigen.gflops_computed"] = (
            self.counts["matrix_core.jacobi_eigen.flops"] / jacobi_s / 1e9 if jacobi_s else 0.0
        )
        values["matrix_core.jacobi_eigen.self_share"] = jacobi_s / total
        values["local_estimator.train.self_share"] = self.self_s["local_estimator.train"] / total
        values["round_loop.self_share"] = sum(self.self_s[n] for n in ROUND_LOOP) / total
        values["trace.overhead_frac"] = overhead_frac

        out = {}
        for name, unit, _ in metric_specs():
            needs = EXTRA_METRICS[name][2] if name in EXTRA_METRICS else (name.rsplit(".", 1)[0],)
            gone = any(n in self.missing for n in needs)
            out[name] = {"value": "missing" if gone else values[name], "unit": unit}
        return out
