"""Distributed cooperative eigenvalue estimation.

Agents hold diagonal blocks of a large symmetric matrix, estimate the
block spectra locally (exactly, noisily, or with a small trained
network), and agree on a global estimate through doubly-stochastic
consensus over a communication graph that may drop links at random.
"""

__version__ = "0.1.0"
