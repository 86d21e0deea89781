#!/usr/bin/env python3
"""Failure-free decay experiment: ``coopeig simulate`` with exact local
estimators writes the per-round trace CSV (plot consensus_error and
bound against round on a log axis for the straight-line decay) and
prints the run summary; this adds the SLEM and the fitted log-linear
slope. Exits with the CLI's code."""

import argparse
import json
import sys
import tempfile

import numpy as np
import yaml

from coopeig import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40, help="matrix dimension")
    ap.add_argument("--agents", type=int, default=10)
    ap.add_argument("--topology", default="ring", help="ring | complete | path | er:<p_edge>")
    ap.add_argument("--lo", type=float, default=0.5, help="spectrum lower end")
    ap.add_argument("--hi", type=float, default=5.0, help="spectrum upper end")
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--max-rounds", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="decay_trace.csv")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        config, snap = f"{tmp}/decay.yaml", f"{tmp}/snapshot.json"
        with open(config, "w") as f:
            yaml.safe_dump({
                "matrix": {"kind": "generate", "n": args.n,
                           "spectrum": np.linspace(args.lo, args.hi, args.n).tolist()},
                "agents": args.agents, "topology": args.topology,
                "estimator": {"kind": "oracle"}, "mode": "matrix_form",
                "tol": args.tol, "max_rounds": args.max_rounds, "seed": args.seed,
            }, f)
        code = cli.main(["simulate", "--config", config, "--out", args.out, "--snapshot", snap])
        if code not in (cli.EXIT_OK, cli.EXIT_MAX_ROUNDS):
            return code
        with open(snap) as f:
            rho = json.load(f)["rho"]

    es = np.loadtxt(args.out, delimiter=",", skiprows=1, usecols=1, ndmin=1)
    ks = np.flatnonzero(es > 0)
    slope = np.polyfit(ks, np.log10(es[ks]), 1)[0] if len(ks) > 1 else 0.0
    print(f"SLEM: {rho:.6f}")
    print(f"log10-error slope per round: {slope:.4f} "
          f"(geometric prediction {np.log10(rho):.4f})")
    print(f"trace written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
