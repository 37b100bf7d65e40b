"""Markov triples, Hirzebruch-Jung continued fractions, linear plumbing
calculus, and exhaustive lattice-embedding obstructions for rational homology
balls in the complex projective plane.

``import ballobs`` loads the arithmetic modules only.  The search modules,
``lattice`` and ``obstruction``, load on first access to one of their names
(PEP 562), so that the commands which never search do not pay for them.
"""

from .errors import (DegenerateCaseError, InternalCheckError, LimitExceeded,
                     SearchLimits, UsageError)
from .markov import (BallSpec, MarkovTriple, SymplecticVerdict, ball_params,
                     characteristic_number, classify_symplectic,
                     enumerate_triples, fibonacci_ball,
                     fibonacci_symplectic_table, is_markov, odd_fibonacci,
                     triple, vieta_neighbor)
from .contfrac import (fibonacci_identities, hj_eval, hj_expand, hj_reverse,
                       lens_plumbing)
from .plumbing import (BlowdownCertificate, blow_down, blow_up,
                       chain_determinant, rb_chain, reduce,
                       simple_embedding_certificate)

__version__ = "0.1.0"

# name -> the search module it comes from; a module's own name gives the module.
_LAZY = dict.fromkeys(
    ("lattice", "EmbeddingClass", "EmbeddingSearchResult", "GramLattice",
     "OrthogonalComplement", "SearchStats", "canonical_form", "direct_sum",
     "integer_kernel", "is_isometric_embedding", "is_positive_definite",
     "is_primitive_vector", "linear_lattice", "orthogonal_complement",
     "search_embedding_classes"), "lattice")
_LAZY.update(dict.fromkeys(
    ("obstruction", "ObstructionProblem", "ObstructionReport", "Witness",
     "ball_boundary", "ball_plumbing", "build_problem", "check_obstruction",
     "full_embedding_classes", "lemma_cemb_report", "report_from_doc",
     "report_to_doc", "theorem2_suite"), "obstruction"))
# So that ``from ballobs import *`` still gives every name, loading both.
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
