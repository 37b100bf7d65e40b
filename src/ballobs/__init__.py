"""Markov triples, Hirzebruch-Jung continued fractions, linear plumbing
calculus, and exhaustive lattice-embedding obstructions for rational homology
balls in the complex projective plane.

``import ballobs`` loads no submodule: each name is reached on the module that
defines it, as in ``from ballobs import obstruction``.
"""

__version__ = "0.1.0"
