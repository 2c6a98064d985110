"""Spectral calculus, dispersive propagators, and an experiment harness on periodic lattices."""

__version__ = "0.1.0"
