"""Distributed cooperative eigenvalue estimation.

Agents hold diagonal blocks of a large symmetric matrix, estimate the
block spectra locally (exactly, noisily, or with a small trained
network), and agree on a global estimate through doubly-stochastic
consensus over a communication graph that may drop links at random.
"""

from .comm_graph import (
    FailureModel,
    Graph,
    WeightMatrix,
    apply_failures,
    build_graph,
    is_connected,
    metropolis_weights,
    slem,
)
from .consensus import (
    ConsensusMode,
    ConsensusState,
    DivergenceError,
    GlobalWeights,
    aggregate_global,
    consensus_error,
    consensus_round,
    deviation_norm,
    estimation_error,
    init_states,
    run_to_convergence,
)
from .local_estimator import (
    MlpEstimator,
    MlpParams,
    NoisyOracleEstimator,
    OracleEstimator,
    TrainConfig,
    TrainingSet,
    estimate,
    mlp_forward,
    mlp_grad,
    mlp_loss,
    synthesize_training_set,
    train,
)
from .matrix_core import (
    DenseSymMatrix,
    JacobiConvergenceError,
    Partition,
    SpectrumResult,
    diagonal_block,
    generate_spd,
    jacobi_eigen,
    partition_rows,
    smallest_eigenvalue,
)
from .simulator import (
    EstimatorConfig,
    MatrixSpec,
    SimConfig,
    Trace,
    export_csv,
    fit_error_bound,
    run_simulation,
    summary_report,
    theoretical_bound,
)

__version__ = "0.1.0"
