"""Numerical verification of trisecant identities on Jacobian theta functions."""

__version__ = "0.1.0"
