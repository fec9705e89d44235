"""Spectral-sequence bookkeeping and the K-theory report.

The ideal filtration of the Wiener-Hopf algebra of the lifted cone induces a
homology spectral sequence whose first page has, in column p = 1, ..., d+2,
the group Z^{f_{p-2}} in every odd row q and 0 in every even row; the d1
differential in the odd rows is the cellular boundary map shifted by two.
Every even row vanishing forces collapse at the second page, so the K-groups
of the algebra are read off from the homology of the augmented cellular
complex, and those of its quotient by the compacts from the reduced complex
(dropping the augmentation removes the bottom filtration step).

Under the total-degree parity of the collapse, homology in degree j lands in
K_{(j+1) mod 2}; in particular an exact augmented complex gives vanishing
K-theory, and a reduced complex with a single Z in degree 0 puts Z in K_1 of
the quotient, the placement realized by the Fredholm index isomorphism.
Nonvanishing entries of the second page are never suppressed: they are
reported verbatim as a falsification of the expected result.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .cellular import ZERO_GROUP, AbelianGroup, ChainComplex, HomologyResult, homology_pair
from .errors import InternalInvariantError


def group_from_factors(free_rank: int, factors: Sequence[int]) -> AbelianGroup:
    """Normalize arbitrary cyclic orders > 1 into invariant-factor form.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b): prime by prime, the two p-power
    parts go one to each side, the smaller to the gcd.  So the sweep
    (a_i, a_j) <- (gcd, lcm) over i < j keeps the group, and it leaves
    a_i | a_j: row i ends as the gcd of itself and every later order, and
    each later order stays a multiple of it.  Dropping the 1s gives the
    invariant factors, the Smith diagonal of the orders' diagonal matrix.
    """
    orders = [int(n) for n in factors if int(n) != 1]
    if any(n < 1 for n in orders):
        raise InternalInvariantError("cyclic factors must be positive")
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            common = gcd(orders[i], orders[j])
            orders[i], orders[j] = common, orders[i] // common * orders[j]
    return AbelianGroup(free_rank=free_rank, invariant_factors=tuple(n for n in orders if n > 1))


def direct_sum(groups: Sequence[AbelianGroup]) -> AbelianGroup:
    free = sum(g.free_rank for g in groups)
    factors = [n for g in groups for n in g.invariant_factors]
    return group_from_factors(free, factors)


class E1Page(NamedTuple):
    """First page of the filtration spectral sequence.

    Entries live at (p, q) for p = 1, ..., dim + 2: rank f_{p-2} in odd rows
    q, zero in even rows.  The d1 map from column p to column p - 1 in the
    odd rows is the cellular boundary D_{p-2}, ``ChainComplex.columns[p - 2]``.
    """

    dim: int
    f_vector: tuple[int, ...]

    def odd_rank(self, p: int) -> int:
        if not 1 <= p <= self.dim + 2:
            return 0
        return self.f_vector[p - 1]

    def entry(self, p: int, q: int) -> AbelianGroup:
        if q % 2 == 0:
            return ZERO_GROUP
        return AbelianGroup(free_rank=self.odd_rank(p))


def e1_page(X: ChainComplex) -> E1Page:
    return E1Page(dim=X.dim, f_vector=X.f_vector)


class KReport(NamedTuple):
    """K-theoretic conclusions for one complex, fully exact.

    ``k_algebra`` holds (K_0, K_1) of the Wiener-Hopf algebra of the lifted
    cone, ``k_quotient`` the same for its quotient by the compacts.
    ``e2_nonzero`` lists (degree, group) for every nonvanishing entry of the
    second page of the augmented complex; it is empty exactly when the
    expected contractibility conclusion holds.  The report is the one owner
    of the two homology results it is read off; a pipeline run reaches them
    here.
    """

    augmented_homology: HomologyResult
    reduced_homology: HomologyResult
    k_algebra: tuple[AbelianGroup, AbelianGroup]
    k_quotient: tuple[AbelianGroup, AbelianGroup]
    e2_nonzero: tuple[tuple[int, AbelianGroup], ...]
    kk_conclusions: tuple[str, ...]


def _parity_sum(h: HomologyResult, parity: int) -> AbelianGroup:
    return direct_sum([g for j, g in enumerate(h.groups, h.min_degree) if (j + 1) % 2 == parity])


def _listing(groups: Sequence[tuple[int, AbelianGroup]]) -> str:
    return "; ".join(f"degree {j}: {g}" for j, g in groups)


def k_report(X: ChainComplex) -> KReport:
    """Compute the second page and the K-group descriptors.

    Each expectation is stated once: the second page is the nontrivial
    groups of the augmented homology, and the quotient's deviations are
    ``HomologyResult.deviations_from_point``, which also decides
    ``is_z_concentrated_in_degree_zero``.  Unexpected nonzero homology is a
    report outcome, never an error."""
    aug, red = homology_pair(X)
    e2_nonzero = tuple((j, g) for j, g in enumerate(aug.groups, aug.min_degree)
                       if not g.is_trivial())
    deviations = red.deviations_from_point()

    conclusions = []
    if not e2_nonzero:
        conclusions.append("second page vanishes: K_0(A_Omega) = K_1(A_Omega) = 0")
        conclusions.append("A_Omega is KK-contractible (K-theoretic verification)")
    else:
        conclusions.append(
            f"FALSIFIED: augmented homology does not vanish ({_listing(e2_nonzero)})")
    if not deviations:
        conclusions.append(
            "reduced homology is Z concentrated in degree 0: "
            "K_1(A_Omega/K) = Z, K_0(A_Omega/K) = 0")
        conclusions.append(
            "A_Omega/K is KK-equivalent to C_0(R); the Z in K_1 is realized by "
            "the Fredholm index isomorphism")
    else:
        conclusions.append(f"FALSIFIED: reduced homology deviates ({_listing(deviations)})")

    return KReport(
        augmented_homology=aug,
        reduced_homology=red,
        k_algebra=(_parity_sum(aug, 0), _parity_sum(aug, 1)),
        k_quotient=(_parity_sum(red, 0), _parity_sum(red, 1)),
        e2_nonzero=e2_nonzero,
        kk_conclusions=tuple(conclusions),
    )
