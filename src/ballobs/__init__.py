"""Markov triples, Hirzebruch-Jung continued fractions, linear plumbing
calculus, and exhaustive lattice-embedding obstructions for rational homology
balls in the complex projective plane."""

from .errors import (DegenerateCaseError, InternalCheckError, LimitExceeded,
                     UsageError)
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
from .lattice import (EmbeddingClass, EmbeddingSearchResult, GramLattice,
                      OrthogonalComplement, PairingProfile, SearchLimits,
                      SearchStats, canonical_form, direct_sum, integer_kernel,
                      is_isometric_embedding, is_positive_definite,
                      is_primitive_vector, linear_lattice,
                      orthogonal_complement, search_embedding_classes,
                      unit_pairing_profile)
from .obstruction import (ObstructionProblem, ObstructionReport, Witness,
                          ball_boundary, ball_plumbing, build_problem,
                          check_obstruction, full_embedding_classes,
                          lemma_cemb_report, report_from_doc, report_to_doc,
                          theorem2_suite)

__version__ = "0.1.0"
