"""Exact kernel for PBW deformation families and their semiclassical limits.

The package certifies, entirely in exact rational arithmetic, the behaviour
of a three-generator deformation family: confluence of its rewriting rules,
the Poisson bracket of its commutative limit, the centrality of the quadratic
element, and the failure of primeness for the limit image of a family of
prime ideals.  See README.md for the module map and the CLI.
"""

__version__ = "0.1.0"
