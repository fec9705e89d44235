"""First-page bookkeeping, second-page collapse, and K-group descriptors."""

import random
import sys

import pytest

import polyk.linalg as linalg
import polyk.sparse as sparse
from polyk.cellular import Z, build_complex, homology, trivialize
from polyk.cli import report_document
from polyk.cones import ConeSystem, lift
from polyk.corpus import cross_polytope, hypercube, simplex
from polyk.errors import InternalInvariantError
from polyk.ktheory import (
    ZERO_GROUP,
    AbelianGroup,
    direct_sum,
    e1_page,
    group_from_factors,
    k_report,
)
from polyk.pipeline import run_pipeline
from polyk.polytope import face_lattice

from oracles import complex_from_dense, dense_homology_pair


def full_run(poly):
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    x = build_complex(trivialize(lat), system)
    return poly, lat, x


# --- group descriptors ---

def test_group_rendering():
    assert str(ZERO_GROUP) == "0"
    assert str(Z) == "Z"
    assert str(AbelianGroup(2)) == "Z^2"
    assert str(AbelianGroup(1, (2, 4))) == "Z + Z/2 + Z/4"


def test_group_normalization_via_snf():
    # Z/2 + Z/3 = Z/6; Z/4 + Z/6 has invariant factors (2, 12)
    assert group_from_factors(0, [2, 3]) == AbelianGroup(0, (6,))
    assert group_from_factors(0, [4, 6]) == AbelianGroup(0, (2, 12))
    assert group_from_factors(3, [1, 1]) == AbelianGroup(3)


def test_group_normalization_matches_smith_normal_form():
    # the pairwise (gcd, lcm) sweep gives the Smith diagonal of the orders'
    # diagonal matrix, on a seeded sample of order lists mixing shared and
    # coprime prime powers, units included
    rng = random.Random(3801)
    orders = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 25, 27, 30, 36, 49, 60, 210)
    for _ in range(300):
        factors = [rng.choice(orders) for _ in range(rng.randint(0, 7))]
        diag = [[n if i == j else 0 for j in range(len(factors))] for i, n in enumerate(factors)]
        smith = linalg.smith_normal_form(diag).diagonal if factors else ()
        assert group_from_factors(2, factors) == AbelianGroup(2, tuple(x for x in smith if x > 1))


@pytest.mark.parametrize("factors", [[2, 0], [-3]])
def test_group_rejects_nonpositive_orders(factors):
    with pytest.raises(InternalInvariantError, match="^cyclic factors must be positive$"):
        group_from_factors(0, factors)


def test_direct_sum():
    a = AbelianGroup(1, (2,))
    b = AbelianGroup(0, (3,))
    assert direct_sum([a, b]) == AbelianGroup(1, (6,))
    assert direct_sum([]) == ZERO_GROUP


def test_group_rejects_bad_chain():
    with pytest.raises(InternalInvariantError):
        AbelianGroup(0, (4, 6))
    with pytest.raises(InternalInvariantError):
        AbelianGroup(-1)


def test_group_json_roundtrip():
    g = AbelianGroup(2, (2, 4))
    assert AbelianGroup.from_json(g.to_json()) == g


# --- first page ---

def test_e1_page_segment():
    poly, lat, x = full_run(simplex(1))
    page = e1_page(x)
    assert [page.odd_rank(p) for p in (1, 2, 3)] == [1, 2, 1]
    assert page.entry(2, 1) == AbelianGroup(2)
    assert page.entry(2, 3) == AbelianGroup(2)  # only parity of q matters
    assert page.entry(2, 0) == ZERO_GROUP
    assert page.entry(0, 1) == ZERO_GROUP and page.odd_rank(4) == 0


def test_e1_page_even_rows_vanish():
    poly, lat, x = full_run(hypercube(2))
    page = e1_page(x)
    for p in range(0, 6):
        for q in (-2, 0, 2):
            assert page.entry(p, q).is_trivial()


def test_e1_page_point():
    poly, lat, x = full_run(simplex(0, name="point"))
    page = e1_page(x)
    assert [page.odd_rank(p) for p in (1, 2)] == [1, 1]


def test_e1_ranks_equal_f_vector_shifted():
    for poly in [simplex(3), hypercube(3)]:
        _, lat, x = full_run(poly)
        page = e1_page(x)
        assert tuple(page.odd_rank(p) for p in range(1, poly.ambient_dim + 3)) == lat.f_vector


# --- reports ---

def test_cube_report():
    poly, lat, x = full_run(hypercube(3))
    rep = k_report(x)
    assert rep.k_algebra == (ZERO_GROUP, ZERO_GROUP)
    assert rep.k_quotient == (ZERO_GROUP, Z)
    assert rep.e2_nonzero == ()
    assert any("KK-contractible" in c for c in rep.kk_conclusions)
    assert any("K_1(A_Omega/K) = Z" in c for c in rep.kk_conclusions)


def test_point_report_same_shape():
    poly, lat, x = full_run(simplex(0, name="point"))
    rep = k_report(x)
    assert rep.k_algebra == (ZERO_GROUP, ZERO_GROUP)
    assert rep.k_quotient == (ZERO_GROUP, Z)


def count_calls(monkeypatch, name, home=linalg):
    """Count the calls of ``home.<name>`` made through any polyk module."""
    real = getattr(home, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("polyk") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_report_runs_no_dense_product_or_snf(monkeypatch):
    # no dense matrix, not even an all-zero leftover, unless the boundary
    # section prints the f_{j-1} x f_j matrices
    for poly in (hypercube(4), cross_polytope(4)):
        snf_calls = count_calls(monkeypatch, "smith_normal_form")
        product_calls = count_calls(monkeypatch, "int_mat_mul")
        dense_calls = count_calls(monkeypatch, "dense_matrix", home=sparse)
        result = run_pipeline(poly)
        report_document(result, {"faces", "homology", "ktheory"})
        assert snf_calls == [] and product_calls == [] and dense_calls == []
        report_document(result, {"boundary"})
        f = result.lattice.f_vector
        entries = sum(rows * len(columns) for columns, rows in dense_calls)
        assert entries == sum(f[j - 1] * f[j] for j in range(1, len(f)))
        monkeypatch.undo()
        homologies = (result.report.augmented_homology, result.report.reduced_homology)
        assert homologies == dense_homology_pair(result.complex)
        assert result.report.augmented_homology.is_trivial()


def test_torsion_complex_reaches_snf_fallback(monkeypatch):
    # the scaled-column complex of test_homology_torsion_from_scaled_column:
    # (-2, 2)^T has no unit entry, so it goes to the dense SNF whole
    snf_calls = count_calls(monkeypatch, "smith_normal_form")
    x = complex_from_dense(dim=1, boundary=(((1, 1),), ((-2,), (2,))),
                           face_order=(((),), ((0,), (1,)), ((0, 1),)))
    assert homology(x, augmented=True).group(0) == AbelianGroup(0, (2,))
    assert snf_calls == [(((-2,), (2,)),)]


def test_k_groups_iff_homology(small_corpus, pipelines):
    for name, res in pipelines.items():
        rep = res.report
        assert (rep.k_algebra == (ZERO_GROUP, ZERO_GROUP)) == res.report.augmented_homology.is_trivial()
        quotient_expected = rep.reduced_homology.is_z_concentrated_in_degree_zero()
        assert (rep.k_quotient == (ZERO_GROUP, Z)) == quotient_expected


def test_corrupted_complex_reported_not_suppressed():
    # segment complex with the top column doubled: still a complex, but the
    # second page now carries Z/2 in degree 0 (by hand: SNF of (-2,2)^T)
    corrupted = complex_from_dense(
        dim=1, boundary=(((1, 1),), ((-2,), (2,))),
        face_order=(((),), ((0,), (1,)), ((0, 1),)))
    rep = k_report(corrupted)
    assert rep.e2_nonzero == ((0, AbelianGroup(0, (2,))),)
    assert any(c.startswith("FALSIFIED") for c in rep.kk_conclusions)
    # degree 0 lands in K_1 by the parity bookkeeping
    assert rep.k_algebra == (ZERO_GROUP, AbelianGroup(0, (2,)))


# three hand-built complexes whose report deviates: (dim, boundary, face order)
DOUBLED_SEGMENT = (1, (((1, 1),), ((-2,), (2,))),
                   (((),), ((0,), (1,)), ((0, 1),)))
CIRCLE = (1, (((1, 1),), ((-1, -1), (1, 1))),
          (((),), ((0,), (1,)), ((0, 1), (0, 1))))
MIXED_TORSION = (2, (((3,),), ((0,),), ((2,),)),
                 (((),), ((0,),), ((0, 1),), ((0, 1, 2),)))


@pytest.mark.parametrize("complex_, e2, k_algebra, k_quotient, conclusions", [
    (DOUBLED_SEGMENT, ((0, AbelianGroup(0, (2,))),),
     (ZERO_GROUP, AbelianGroup(0, (2,))), (ZERO_GROUP, AbelianGroup(1, (2,))),
     ("FALSIFIED: augmented homology does not vanish (degree 0: Z/2)",
      "FALSIFIED: reduced homology deviates (degree 0: Z + Z/2)")),
    (CIRCLE, ((1, Z),), (Z, ZERO_GROUP), (Z, Z),
     ("FALSIFIED: augmented homology does not vanish (degree 1: Z)",
      "FALSIFIED: reduced homology deviates (degree 1: Z)")),
    # Z/3 in degree -1 and Z/2 in degree 1 both land in K_0, as Z/6
    (MIXED_TORSION, ((-1, AbelianGroup(0, (3,))), (1, AbelianGroup(0, (2,)))),
     (AbelianGroup(0, (6,)), ZERO_GROUP), (AbelianGroup(0, (2,)), Z),
     ("FALSIFIED: augmented homology does not vanish (degree -1: Z/3; degree 1: Z/2)",
      "FALSIFIED: reduced homology deviates (degree 1: Z/2)")),
], ids=["doubled-segment", "circle", "mixed-torsion"])
def test_deviating_report_text(complex_, e2, k_algebra, k_quotient, conclusions):
    dim, boundary, face_order = complex_
    x = complex_from_dense(dim=dim, boundary=boundary, face_order=face_order)
    rep = k_report(x)
    assert rep.e2_nonzero == e2
    assert rep.k_algebra == k_algebra
    assert rep.k_quotient == k_quotient
    assert rep.kk_conclusions == conclusions
