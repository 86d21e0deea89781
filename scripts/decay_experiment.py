#!/usr/bin/env python3
"""Failure-free decay experiment.

Runs the consensus protocol with exact local estimators over a chosen
topology and writes the per-round trace CSV (consensus error alongside
the geometric bound), plus a short console summary with the fitted
log-linear slope. Plot round vs consensus_error/bound on a log axis to
get the familiar straight-line decay picture.
"""

import argparse

import numpy as np

from coopeig import (
    ConsensusMode,
    EstimatorConfig,
    MatrixSpec,
    SimConfig,
    export_csv,
    run_simulation,
    summary_report,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40, help="matrix dimension")
    ap.add_argument("--agents", type=int, default=10)
    ap.add_argument("--topology", default="ring",
                    help="ring | complete | path | er:<p_edge>")
    ap.add_argument("--lo", type=float, default=0.5, help="spectrum lower end")
    ap.add_argument("--hi", type=float, default=5.0, help="spectrum upper end")
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--max-rounds", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="decay_trace.csv")
    return ap.parse_args()


def main():
    args = parse_args()
    spectrum = tuple(np.linspace(args.lo, args.hi, args.n))
    cfg = SimConfig(
        matrix=MatrixSpec("generate", n=args.n, spectrum=spectrum),
        agents=args.agents,
        topology=args.topology,
        estimator=EstimatorConfig("oracle"),
        mode=ConsensusMode("matrix_form"),
        tol=args.tol,
        max_rounds=args.max_rounds,
        seed=args.seed,
    )
    trace = run_simulation(cfg)
    export_csv(trace, args.out)

    es = trace.consensus_error
    pos = es > 0
    ks = np.arange(len(es))[pos]
    slope = np.polyfit(ks, np.log10(es[pos]), 1)[0] if pos.sum() > 1 else 0.0
    print(summary_report(trace), end="")
    print(f"SLEM: {trace.rho:.6f}")
    print(f"log10-error slope per round: {slope:.4f} "
          f"(geometric prediction {np.log10(trace.rho):.4f})")
    print(f"trace written to {args.out}")


if __name__ == "__main__":
    main()
