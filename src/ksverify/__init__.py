"""Exact verification toolkit for qutrit Kochen-Specker sets.

Everything except the Majorana sphere coordinates is computed in exact
cyclotomic arithmetic: orthogonality, complete bases, graph symmetry, KS
colorability, and the classical and quantum values of the associated
bipartite games.  The package namespace exports nothing; the modules
(`ksverify.cli`, `ksverify.catalog`, ...) hold the code.
"""

__version__ = "0.1.0"
