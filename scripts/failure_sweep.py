#!/usr/bin/env python3
"""Link-failure robustness sweep: ``coopeig sweep --param p`` on a
generated matrix writes, per failure probability p, the mean/min/max
rounds-to-tolerance and final consensus errors over repeated trials.
Convergence survives heavy link loss while the union graph stays
connected often enough, at the cost of slower mixing. Exits with the
CLI's code."""

import argparse
import sys
import tempfile

import numpy as np
import yaml

from coopeig import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40)
    ap.add_argument("--agents", type=int, default=10)
    ap.add_argument("--topology", default="ring")
    ap.add_argument("--values", default="0,0.1,0.3,0.5,0.7", help="comma-separated p values")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--max-rounds", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="failure_sweep.csv")
    args = ap.parse_args()

    with tempfile.NamedTemporaryFile("w", suffix=".yaml") as config:
        yaml.safe_dump({
            "matrix": {"kind": "generate", "n": args.n,
                       "spectrum": np.linspace(0.5, 5.0, args.n).tolist()},
            "agents": args.agents, "topology": args.topology,
            "estimator": {"kind": "oracle"}, "mode": "matrix_form",
            "tol": args.tol, "max_rounds": args.max_rounds, "seed": args.seed,
        }, config)
        config.flush()
        return cli.main(["sweep", "--config", config.name, "--param", "p",
                         "--values", args.values, "--trials", str(args.trials), "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
