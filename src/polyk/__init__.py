"""polyk: exact combinatorics and K-theory reports for rational polytopes.

Given a convex polytope with rational vertices, this package builds the cone
over its homogenization, computes the oriented cellular chain complex of the
face lattice through exact cone duality (incidence signs as determinant
signs), verifies its exactness, and reports the K-groups of the associated
Wiener-Hopf algebra and of its quotient by the compacts.  It also
reconstructs the face lattice from unsigned incidence data and decides
combinatorial-type isomorphism.  All arithmetic is exact.

The package itself holds only this docstring and ``__version__``.  Every
name is imported from the module that defines it (``polyk.polytope``,
``polyk.cones``, ``polyk.cellular``, ``polyk.ktheory``, ``polyk.comb_type``,
...), and a module imports from another module only the names that module
defines and it uses itself (``tests/test_one_owner.py``).
"""

__version__ = "0.1.0"
