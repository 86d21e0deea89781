"""Deterministic seed derivation and counter-based random streams.

One master seed per experiment; every random consumer derives its own
child seed by hashing (master, purpose-tag, indices). Adding a new
consumer never perturbs existing streams, and draws keyed on a counter
(round, agent, ...) are reproducible independent of call order.

Link failures draw from one counter-based stream per run: a Philox4x64
bit generator keyed on ``child_seed(seed, "edge-failure")``, whose
round k starts at counter k*ceil(E/4) for E edges (four 64-bit words
per counter step, one per double). ``comm_graph.failure_stream`` builds
it once and draws each chunk of rounds from it in one call.
"""

import hashlib

import numpy as np

_U64 = float(2**64)


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return h.digest()


def child_seed(master: int, tag: str, *indices) -> int:
    """Derive a 64-bit child seed from (master, tag, indices)."""
    return int.from_bytes(_digest(master, tag, *indices)[:8], "big")


def keyed_uniform(master: int, tag: str, *indices) -> float:
    """One uniform draw in [0, 1) keyed entirely by its arguments."""
    return int.from_bytes(_digest(master, tag, *indices)[:8], "big") / _U64


def keyed_rng(master: int, tag: str, *indices) -> "np.random.Generator":
    """A fresh numpy generator keyed by its arguments."""
    return np.random.default_rng(child_seed(master, tag, *indices))
