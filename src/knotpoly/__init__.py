"""Exact skein-polynomial engine for knot diagrams and Legendrian fronts."""

__version__ = "0.1.0"
