"""End-to-end experiment orchestration: build or load a matrix,
partition it over agents, estimate the agents' blocks one run of equal
block size at a time (training networks if needed), run consensus
rounds under a link-failure model, and record per-round metrics,
complexity counters and exportable traces. ``run_many`` runs configs
in order and reuses each stage whose config fields did not change.
"""

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

from . import comm_graph, consensus, matrix_core
from .comm_graph import FailureModel, build_graph, metropolis_weights, slem
from .consensus import ConsensusMode
from .local_estimator import (
    MlpParams,
    NoisyOracleEstimator,
    OracleEstimator,
    TrainConfig,
    estimate_stack,
    init_mlp,
    load_params,
    synthesize_training_set,
    train_stack,
)
from .matrix_core import generate_spd, load_matrix, partition_rows
from .seeding import child_seed, keyed_rng


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class MatrixSpec:
    """Matrix source: generate with a prescribed spectrum, or load from
    a file."""

    kind: str  # "generate" | "file"
    n: int = 0
    spectrum: tuple = ()
    path: str = ""

    def __post_init__(self):
        if self.kind == "generate":
            if self.n < 1 or len(self.spectrum) != self.n:
                raise ConfigError("generated matrix needs n and a spectrum of length n")
        elif self.kind == "file":
            if not self.path:
                raise ConfigError("file matrix needs a path")
        else:
            raise ConfigError(f"unknown matrix kind {self.kind!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    """The estimator section. Every value is checked, whichever ``kind``
    reads it."""

    kind: str  # "oracle" | "noisy_oracle" | "mlp"
    sigma: float = 0.0
    params_path: str = ""
    hidden: tuple = (32,)
    learning_rate: float = 0.05
    epochs: int = 200
    samples: int = 32
    spectrum_range: tuple = (0.5, 5.0)

    def __post_init__(self):
        if self.kind not in ("oracle", "noisy_oracle", "mlp"):
            raise ConfigError(f"unknown estimator kind {self.kind!r}")
        # the checks, and messages, of the objects a run builds from them
        NoisyOracleEstimator(self.sigma)
        TrainConfig(self.learning_rate, self.epochs)
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if min(self.hidden, default=1) < 1:
            raise ConfigError(f"hidden layer sizes must be >= 1, got {list(self.hidden)}")
        lo, hi = self.spectrum_range
        if not 0 < lo < hi < math.inf:
            raise ConfigError(f"spectrum_range: need 0 < lo < hi < inf, "
                              f"got {list(self.spectrum_range)}")


@dataclass(frozen=True)
class SimConfig:
    matrix: MatrixSpec
    agents: int
    topology: str
    estimator: EstimatorConfig
    mode: ConsensusMode
    failure_p: float = 0.0
    tol: float = 1e-6
    max_rounds: int = 300
    seed: int = 0
    tracked: int = 1

    def __post_init__(self):
        if self.agents < 1:
            raise ConfigError("agents must be >= 1")
        if self.matrix.kind == "generate" and self.agents > self.matrix.n:
            raise ConfigError("more agents than matrix rows")
        if not 0.0 <= self.failure_p < 1.0:
            raise ConfigError("failure probability must be in [0, 1)")
        if not 0 < self.tol < math.inf:
            raise ConfigError("tol must be positive and finite")
        if self.max_rounds < 0:
            raise ConfigError("max_rounds must be >= 0")
        if self.tracked < 1:
            raise ConfigError("tracked eigenvalue count must be >= 1")


@dataclass(frozen=True)
class Trace:
    """One run's outcome. The per-round metrics are columns indexed by
    round, round 0 (before any exchange) first."""

    config: SimConfig
    truth: np.ndarray  # tracked smallest global eigenvalues, by eigvalsh
    rho: float  # SLEM of the failure-free weight matrix
    consensus_error: np.ndarray
    deviation_norm: np.ndarray  # mean-deviation norm; contracts by the SLEM
    max_est_error: np.ndarray
    mean_est_error: np.ndarray
    scalars_sent: np.ndarray  # 2 x tracked per live edge; none in round 0
    final_estimates: np.ndarray  # agents x tracked
    stop_reason: str  # "converged" | "max_rounds" | "diverged"
    block_sizes: tuple

    @property
    def rounds_used(self) -> int:
        return len(self.consensus_error) - 1

    @property
    def final_consensus_error(self) -> float:
        return float(self.consensus_error[-1])

    @property
    def bound(self) -> np.ndarray:
        """The geometric consensus-error bound rho^k * e0 per round k, each
        value a scalar power; a vectorised power may round differently.
        rho is the failure-free SLEM, so under failure_p > 0 this is the
        failure-free prediction, not a bound: links lost slow the decay."""
        e0, rho = float(self.consensus_error[0]), self.rho
        if e0 < 0 or not 0.0 <= rho <= 1.0:
            raise ValueError("need e0 >= 0 and 0 <= rho <= 1")
        return np.array([rho**k * e0 for k in range(len(self.consensus_error))])

    @property
    def flops_local(self) -> np.ndarray:
        """Local block flops per round, sum of k^2; none in round 0."""
        flops = np.full(len(self.consensus_error), sum(k * k for k in self.block_sizes))
        flops[0] = 0
        return flops


def _resolve_matrix(spec: MatrixSpec, seed: int) -> matrix_core.DenseSymMatrix:
    """The matrix stage: generated from ``seed``, or read from its file."""
    if spec.kind == "generate":
        return generate_spd(spec.n, np.array(spec.spectrum), child_seed(seed, "matrix"))
    return load_matrix(spec.path)


def _truth(A: matrix_core.DenseSymMatrix, j: int) -> np.ndarray:
    """The truth stage: the ``j`` smallest eigenvalues of A, read-only."""
    truth = np.linalg.eigvalsh(A.a)[:j]
    truth.setflags(write=False)
    return truth


def _anchors(A: matrix_core.DenseSymMatrix, part, j: int, ecfg: EstimatorConfig,
             seed: int) -> consensus.ConsensusState:
    """The anchor stage: the round-0 state, whose read-only estimates and
    anchors are every agent's first ``j`` estimates, (m, j). Per run of
    equal block size, one estimator setup and one ``estimate_stack``
    call on a (B, k, k) stack sliced from A: slice b is agent b's
    diagonal block. A is exactly symmetric and its checks bound every
    block, so a slice needs no check of its own."""
    anchors, stop = np.empty((part.m, j)), 0
    if ecfg.kind == "oracle":
        shared = OracleEstimator()
    elif ecfg.kind == "noisy_oracle":
        shared = NoisyOracleEstimator(ecfg.sigma, child_seed(seed, "estimator-noise"))
    elif ecfg.params_path:
        shared = load_params(ecfg.params_path)
    else:
        shared, tcfg = None, TrainConfig(ecfg.learning_rate, ecfg.epochs)
    for k, run in itertools.groupby(part.block_sizes):
        start, stop = stop, stop + len(list(run))
        agents = range(start, stop)
        if shared is None:
            # One stack per run, runs in agent order: the first network to
            # diverge is the one a one-by-one loop would have met first.
            tsets = [synthesize_training_set(k, ecfg.samples, ecfg.spectrum_range,
                                             child_seed(seed, "mlp-data", i)) for i in agents]
            p0s = [init_mlp(k, ecfg.hidden, child_seed(seed, "mlp-init", i)) for i in agents]
            kinds = train_stack(p0s, tsets, tcfg)[0]
        else:
            if isinstance(shared, MlpParams) and shared.block_dim != k:
                dim = shared.block_dim
                raise ConfigError(f"pretrained network expects {dim}x{dim} blocks, "
                                  f"agent block is {k}x{k}")
            kinds = [shared] * len(agents)
        rows = part.offsets[start] + np.arange(len(agents) * k).reshape(-1, k)
        anchors[start:stop] = estimate_stack(kinds, A.a[rows[:, :, None], rows[:, None, :]],
                                             agents, round_=0, tracked=j)
    return consensus.init_states(anchors)


def _network(topology: str, m: int, seed: int):
    """The network stage: the graph, its failure-free weights W0 and
    their SLEM ρ."""
    base = build_graph(topology, m, child_seed(seed, "graph"))
    w0 = metropolis_weights(base)
    return base, w0, slem(w0)


def _rounds(cfg: SimConfig, part, truth: np.ndarray, states: consensus.ConsensusState,
            base, w0, rho: float) -> Trace:
    """The round-loop stage: failure stream, mixing and per-round metrics."""
    j, m = cfg.tracked, part.m
    live = [np.zeros(1, dtype=int)]  # live edges per round; none exchange in round 0
    columns = []
    # One scratch array for the run's hand-overs, grown only when one is
    # longer than any before: each block's |est - truth|, then, once
    # those are reduced, its deviations from the agents' mean.
    scratch = np.empty((0, m, j))

    def on_block(est, errors):
        nonlocal scratch
        if len(scratch) < len(est):
            scratch = np.empty(est.shape)
        eps = consensus.estimation_errors(est, truth, out=scratch[:len(est)])
        # add.reduce over the count: the two operations of eps.mean(axis=(1, 2))
        mean_errors = np.add.reduce(eps, axis=(1, 2)) / (m * j)
        max_errors = np.maximum.reduce(consensus.agent_major(eps), axis=0).max(axis=1)
        columns.append((errors, consensus.deviation_norms(est, out=eps), max_errors,
                        mean_errors))

    failures = FailureModel(cfg.failure_p, child_seed(cfg.seed, "failures"))
    weights = comm_graph.round_weights(base, w0, failures, cfg.max_rounds, live)
    states, rounds, stop_reason = consensus.run_rounds(states, weights, cfg.mode, cfg.tol,
                                                       cfg.max_rounds, on_block)
    errors, deviations, max_errors, mean_errors = map(np.concatenate, zip(*columns))
    return Trace(cfg, truth, rho,
                 consensus_error=errors, deviation_norm=deviations,
                 max_est_error=max_errors, mean_est_error=mean_errors,
                 # live also counts the rounds drawn past the last one mixed
                 scalars_sent=2 * j * np.concatenate(live)[:rounds + 1],
                 final_estimates=states.estimates, stop_reason=stop_reason,
                 block_sizes=part.block_sizes)


def run_many(configs):
    """Yield each config's ``Trace`` in order, bit-equal to its run
    alone. Of a run's five stages, four read only some config fields:
    the matrix (``matrix``, ``seed`` if generated), the truth (the
    matrix, ``tracked``), the anchors (the matrix, ``agents``,
    ``tracked``, ``estimator``, ``seed`` unless the oracle or a
    pretrained network) and the network (``topology``, ``agents``,
    ``seed`` if ``er:``). Each reuses the previous config's result when
    those fields are equal, so a sweep reads and solves a file matrix
    once; nothing older is held. The round loop runs for every config."""
    held = {}  # stage -> (the fields it read, its result)

    def stage(fields, build, *args):
        if build not in held or held[build][0] != fields:
            held[build] = (fields, build(*args))
        return held[build][1]

    for cfg in configs:
        est, j, seed = cfg.estimator, cfg.tracked, cfg.seed
        matrix = (cfg.matrix, seed if cfg.matrix.kind == "generate" else None)
        A = stage(matrix, _resolve_matrix, cfg.matrix, seed)
        if cfg.agents > A.n:
            raise ConfigError("more agents than matrix rows")
        part = partition_rows(A.n, cfg.agents)
        if j > min(part.block_sizes):
            raise ConfigError(f"cannot track {j} eigenvalues with smallest block size "
                              f"{min(part.block_sizes)}")
        truth = stage((matrix, j), _truth, A, j)
        seeded = est.kind == "noisy_oracle" or (est.kind == "mlp" and not est.params_path)
        states = stage((matrix, cfg.agents, j, est, seed if seeded else None),
                       _anchors, A, part, j, est, seed)
        er = cfg.topology.startswith("er:")
        network = stage((cfg.topology, cfg.agents, seed if er else None),
                        _network, cfg.topology, cfg.agents, seed)
        yield _rounds(cfg, part, truth, states, *network)


def run_simulation(cfg: SimConfig) -> Trace:
    """Execute the full protocol and return its trace: ``run_many`` of
    the one config. Deterministic: identical configs (including seed)
    give bit-identical traces."""
    return next(run_many([cfg]))


@dataclass(frozen=True)
class FitResult:
    beta_hat: float
    gamma_hat: float
    rho_used: float
    holds: bool  # max-estimation-error <= beta rho^k + 1.05 gamma at every round


def error_floor(trace: Trace) -> float:
    """The floor gamma of the error bound: the mean max-error over the
    final 10% of rounds. Needs at least 10 recorded rounds."""
    eps = trace.max_est_error
    if len(eps) < 10:
        raise ValueError(f"need at least 10 recorded rounds, have {len(eps)}")
    return float(np.mean(eps[-max(1, math.ceil(0.1 * len(eps))):]))


def fit_error_bound(trace: Trace) -> FitResult:
    """Fit the geometric-plus-floor error bound to a trace. The floor
    gamma is ``error_floor``; beta is the smallest coefficient for which
    the bound covers every round."""
    gamma_hat = error_floor(trace)
    eps = trace.max_est_error.tolist()
    rho = trace.rho
    decays = [rho**k for k in range(len(eps))]
    # 0.0 first: beta is never negative, and no NaN quotient replaces the running max
    beta_hat = max([0.0, *((e - gamma_hat) / d for e, d in zip(eps, decays) if d > 0.0)])
    floor = 1.05 * gamma_hat
    holds = all(e <= (beta_hat * d + floor) * (1 + 1e-9) for e, d in zip(eps, decays))
    return FitResult(beta_hat, gamma_hat, rho, holds)


CSV_HEADER = "round,consensus_error,max_est_error,mean_est_error,bound,scalars_sent,flops_local"
_CSV_ROW = "%d,%s,%s,%s,%.17g,%d,%d\n"
_CSV_BATCH = 1024  # rows per format call and write


def _run_texts(values, repeats) -> list:
    """The ``%.17g`` text of each of ``values``, formatted once per run of
    bit-equal neighbours: ``repeats[i]`` says that value i + 1 has the
    bits of value i. Equal bits format to equal text, and bits keep 0.0
    and -0.0 apart."""
    fresh = np.concatenate(([True], ~repeats))
    # A % call per run: one % call over all the runs, split into texts,
    # was faster, but its large transient strings grew the heap by about
    # 1 MB per 200 rounds_ring operations.
    texts = np.array(["%.17g" % v for v in values[fresh].tolist()], dtype=object)
    return texts[np.cumsum(fresh) - 1].tolist()


def export_csv(trace: Trace, destination) -> None:
    """Write the per-round metrics; all reals carry 17 significant
    digits so parsing reproduces them bit-exactly."""
    with matrix_core.replacing(destination) as f:
        f.write(CSV_HEADER + "\n")
        # The error columns hold runs of repeated values (30% of the
        # float cells of a ring losing links); the bound strictly decreases.
        errors = (trace.consensus_error, trace.max_est_error, trace.mean_est_error)
        repeats = [c.view(np.int64)[1:] == c.view(np.int64)[:-1] for c in errors]
        others = (trace.bound, trace.scalars_sent, trace.flops_local)
        # One % call and write per batch: a batch bounds the Python
        # values and the string held at once.
        rounds = len(trace.consensus_error)
        for start in range(0, rounds, _CSV_BATCH):
            stop = min(start + _CSV_BATCH, rounds)
            # Row-major, column i at i::7: strided assignment
            # interleaves the columns faster than zip and chain.
            cells = [None] * (7 * (stop - start))
            cells[0::7] = range(start, stop)
            for i, (c, r) in enumerate(zip(errors, repeats), 1):
                cells[i::7] = _run_texts(c[start:stop], r[start:stop - 1])
            for i, c in enumerate(others, 4):
                cells[i::7] = c[start:stop].tolist()
            f.write(_CSV_ROW * (stop - start) % tuple(cells))


def format_summary(truth_smallest: float, agent_values, stop_reason: str,
                   rounds_used: int, final_error: float) -> str:
    """The human-readable run report: the true smallest eigenvalue and
    the per-agent final estimates in bracketed list form."""
    vals = np.asarray(agent_values, dtype=float)
    listing = np.array2string(vals, max_line_width=48, precision=8,
                              suppress_small=False, separator=" ")
    lines = [
        f"True Smallest Eigenvalue: {truth_smallest!r}",
        "Estimated Smallest Eigenvalues by Agents:",
        listing,
        f"Stop reason: {stop_reason}",
        f"Rounds used: {rounds_used}",
        f"Final consensus error: {final_error:.17g}",
    ]
    return "\n".join(lines) + "\n"


# --- config file handling -------------------------------------------------

def _whole_number(v):
    # int() alone would run 4.9 as 4 and true as 1
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"need a whole number, got {v!r}")
    return int(v)


def _text(v) -> str:
    # str() would read 5 as the path "5" and [ring] as the topology "['ring']"
    if not isinstance(v, str):
        raise ValueError(f"need a string, got {v!r}")
    return v


def _flag(v) -> bool:
    # bool() would read .nan, 2 and "yes" as true
    if not isinstance(v, bool):
        raise ValueError(f"need true or false, got {v!r}")
    return v


def _hidden_sizes(v) -> tuple:
    # a bare string is iterable too: "32" would read as (3, 2)
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"estimator hidden must be a list of layer sizes, got {v!r}")
    return tuple(_whole_number(h) for h in v)


def _spectrum_range(v) -> tuple:
    lo, hi = v if isinstance(v, (list, tuple)) else (v,)  # not "15" as (1.0, 5.0)
    return float(lo), float(hi)


# Each config field's reader, by field name, else by field type; a
# field with none (a section, the mode) is read by config_from_dict.
_READERS = {int: _whole_number, float: float, str: _text,
            "hidden": _hidden_sizes, "spectrum_range": _spectrum_range}
# The keys each matrix kind reads, kind first: the rest are required.
_MATRIX_KEYS = {"generate": ("kind", "n", "spectrum"), "file": ("kind", "path")}


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _typed(convert, value, key):
    """``convert(value)``; a value of the wrong type or form, or an
    integer too large for a float, is a ConfigError naming ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def _read(d, cls, where, extra=()):
    """The mapping ``d`` read against ``cls``'s fields: only they and
    ``extra`` may appear, those without a default must, and each one
    present that has a reader is read by it. An absent key takes the
    dataclass default."""
    fields = dataclasses.fields(cls)
    _check_keys(d, [f.name for f in fields] + list(extra), where)
    _require(d, [f.name for f in fields if f.default is dataclasses.MISSING], where)
    prefix = "" if where == "config" else where + "."
    readers = {f.name: _READERS.get(f.name) or _READERS.get(f.type) for f in fields}
    return {k: _typed(r, d[k], prefix + k) for k, r in readers.items() if r and k in d}


def _resolve_spectrum(spec, n, seed):
    """A spectrum may be an explicit list or a 'lo:hi' range drawn
    uniformly (sorted) with a seed-derived stream."""
    if isinstance(spec, str):
        try:
            lo, hi = (float(t) for t in spec.split(":"))
        except ValueError:
            raise ValueError(f"{spec!r} is not a 'lo:hi' range") from None
        if not 0 < lo <= hi < math.inf:
            raise ConfigError(f"bad spectrum range {spec!r}")
        return tuple(np.sort(keyed_rng(seed, "spectrum-range").uniform(lo, hi, n)).tolist())
    return tuple(float(v) for v in spec)


def _require(d, keys, where):
    for key in keys:
        if key not in d:
            raise ConfigError(f"missing required {where} key {key!r}")


def config_from_dict(d: dict) -> SimConfig:
    # "parallel" must be true or false, then is ignored: training is serial
    top = _read(d, SimConfig, "config", extra=("gamma", "parallel"))
    if "parallel" in d:
        _typed(_flag, d["parallel"], "parallel")

    md = d["matrix"]
    if not isinstance(md, dict):
        raise ConfigError("matrix must be a mapping")
    kind = _typed(_text, md.get("kind", "generate"), "matrix.kind")
    if kind not in _MATRIX_KEYS:
        raise ConfigError(f"unknown matrix kind {kind!r}")
    _check_keys(md, _MATRIX_KEYS[kind], f"{kind} matrix")
    _require(md, _MATRIX_KEYS[kind][1:], "matrix")
    if kind == "generate":
        n = _typed(_whole_number, md["n"], "matrix.n")
        spectrum = _typed(lambda v: _resolve_spectrum(v, n, top.get("seed", SimConfig.seed)),
                          md["spectrum"], "matrix.spectrum")
        top["matrix"] = MatrixSpec("generate", n=n, spectrum=spectrum)
    else:
        top["matrix"] = MatrixSpec("file", path=_typed(_text, md["path"], "matrix.path"))

    top["estimator"] = EstimatorConfig(**_read(d["estimator"], EstimatorConfig, "estimator"))
    top["mode"] = ConsensusMode(_typed(_text, d["mode"], "mode"),
                                gamma=_typed(float, d.get("gamma", ConsensusMode.gamma), "gamma"))
    return SimConfig(**top)


def config_to_dict(cfg: SimConfig) -> dict:
    """The config as ``config_from_dict`` reads it, keys in field order
    and ``gamma`` right after ``mode``: the snapshot's order. A section
    holds the keys it reads, tuples as lists."""
    d = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "mode":
            d["mode"], d["gamma"] = v.kind, v.gamma
        elif f.name in ("matrix", "estimator"):
            keys = (_MATRIX_KEYS[v.kind] if f.name == "matrix"
                    else [e.name for e in dataclasses.fields(v)])
            values = {k: getattr(v, k) for k in keys}
            d[f.name] = {k: list(x) if isinstance(x, tuple) else x for k, x in values.items()}
        else:
            d[f.name] = v
    return d


# PyYAML's libyaml scanner when it ships one; both loaders share the
# safe constructor and resolver, so they build the same values.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> SimConfig:
    """The config at ``path``; an error in the file as a whole names ``path``."""
    with open(path, "rb") as f:  # bytes: PyYAML checks the encoding itself
        try:
            data = yaml.load(f, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: malformed YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return config_from_dict(data)


def snapshot(trace: Trace) -> dict:
    """The run's record: config + seed + outcome. A re-run of its config
    repeats the run only while the inputs are unchanged: a ``file``
    matrix and a ``params_path`` network are recorded by path, not by
    content, so after either file is rewritten a re-run silently
    differs. ``summary_from_snapshot`` prints its summary."""
    return {
        "config": config_to_dict(trace.config),
        "truth": trace.truth.tolist(),
        "rho": trace.rho,
        "final_estimates": trace.final_estimates.tolist(),
        "stop_reason": trace.stop_reason,
        "rounds_used": trace.rounds_used,
        "final_consensus_error": trace.final_consensus_error,
        "block_sizes": list(trace.block_sizes),
    }


def save_snapshot(snap: dict, path) -> None:
    with matrix_core.replacing(path) as f:
        json.dump(snap, f, indent=1)


def load_snapshot(path) -> dict:
    with matrix_core.naming(path), open(path) as f:
        return json.load(f)


_SNAPSHOT_KEYS = ("truth", "final_estimates", "stop_reason", "rounds_used",
                  "final_consensus_error")


def _stop_reason(v):
    if v not in ("converged", "max_rounds", "diverged"):
        raise ValueError(f"need converged, max_rounds or diverged, got {v!r}")
    return v


def _round_count(v):
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ValueError(f"need a non-negative whole number, got {v!r}")
    return v


def summary_from_snapshot(snap: dict) -> str:
    if not isinstance(snap, dict):
        raise ConfigError("snapshot must be a mapping")
    missing = [k for k in _SNAPSHOT_KEYS if k not in snap]
    if missing:
        raise ConfigError(f"snapshot lacks keys: {missing}")
    truth, finals = (_typed(lambda v: np.asarray(v, dtype=float), snap[k], k)
                     for k in ("truth", "final_estimates"))
    if truth.ndim != 1 or truth.size == 0:
        raise ConfigError("snapshot truth must be a non-empty list")
    if finals.ndim != 2 or 0 in finals.shape:
        raise ConfigError("snapshot final_estimates must be a non-empty agents x tracked table")
    return format_summary(
        float(truth[0]),
        finals[:, 0],
        _typed(_stop_reason, snap["stop_reason"], "stop_reason"),
        _typed(_round_count, snap["rounds_used"], "rounds_used"),
        _typed(float, snap["final_consensus_error"], "final_consensus_error"),
    )
