#!/usr/bin/env python3
"""Failure-free decay experiment: ``coopeig simulate`` on a config
(default: decay_experiment.yaml beside this script, exact local
estimators on a ring) writes the per-round trace CSV (plot
consensus_error and bound against round on a log axis for the
straight-line decay) and prints the run summary; this adds the SLEM and
the fitted log-linear slope. Exits with the CLI's code."""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from coopeig import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(Path(__file__).with_suffix(".yaml")))
    ap.add_argument("--out", default="decay_trace.csv")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        snap = f"{tmp}/snapshot.json"
        code = cli.main(["simulate", "--config", args.config, "--out", args.out,
                         "--snapshot", snap])
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
