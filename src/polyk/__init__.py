"""polyk: exact combinatorics and K-theory reports for rational polytopes.

Given a convex polytope with rational vertices, this package builds the cone
over its homogenization, computes the oriented cellular chain complex of the
face lattice through exact cone duality (incidence signs as determinant
signs), verifies its exactness, and reports the K-groups of the associated
Wiener-Hopf algebra and of its quotient by the compacts.  It also
reconstructs the face lattice from unsigned incidence data and decides
combinatorial-type isomorphism.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .cellular import (
    ChainComplex,
    HomologyResult,
    Trivialization,
    build_complex,
    diagonal_sign_equivalence,
    homology_pair,
    incidence_sign,
    trivialize,
)
from .comb_type import (
    AbstractLattice,
    LatticeIso,
    UnsignedIncidence,
    is_isomorphic,
    lattice_from_incidence,
    strip_signs,
)
from .cones import (
    ConeSystem,
    FaceConeData,
    LiftedCone,
    face_cone_data,
    lift,
)
from .errors import InputError, InternalInvariantError, PolykError
from .files import PolytopeFile, load_polytope, parse_polytope_file, parse_polytope_text
from .ktheory import AbelianGroup, E1Page, KReport, direct_sum, e1_page, group_from_factors, k_report
from .linalg import SNFResult, smith_normal_form
from .pipeline import PipelineResult, run_pipeline
from .polytope import (
    Face,
    FaceLattice,
    Facet,
    Polytope,
    face_lattice,
    facets,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
