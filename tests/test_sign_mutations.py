"""Each sign producer of the pipeline negated in turn, against the
pipeline's own checks.

A mutation patches one producer, runs ``run_pipeline`` and compares the
report (every section of ``cli.report_document``) with the unpatched
run's.  The inputs are the three acceptance-corpus members whose lattice
has a bridge (a face the spread of tau from the top face does not reach),
the prisms over the 4- and 5-cross-polytopes and ``pyramid_prism``, whose
pairs take the general route, and the 5-cube and 5-cross-polytope, which
take none.

Boundary squared zero cannot see every defect.  On a regular CW complex,
+-1 incidences on the covers with D_{j-1} D_j = 0 are unique up to
re-orienting cells (Bjoerner 1984), so a mutation that re-orients cells
passes it.  Negating a bridge's tau or the general route's sign does that
on the corpus members.  The bridge check (``ConeSystem._check_bridge``)
compares each bridge's tau with the definition of its pair's sign, so
those mutations raise there, on the prisms too, before any boundary is
made.

Two mutations are re-orientations by construction, and the tests state the
identity instead of asking for an error:

  * ``dual_sign`` negated is a gauge: tau_F -> (-1)^(dim P - dim F) tau_F
    negates tau_E tau_F on every covering pair, so it meets every spread,
    bridge, dual-route and m = 0 relation with -dual_sign, and every sigma,
    hence the report, is unchanged;
  * every entry of D_1 negated re-orients every cell of dimension >= 1:
    D_1 has one flipped end, every D_j with j >= 2 two.

The parity of the row ``adjugate_column`` returns, flipped (to a row of F
in range), negates every m = 0 sign and reads a neighbouring column of F's
adjugate.  Where the lower face of such a pair is not a simplex, it carries
data, and the cofactor check (``adjugate_pair_fault``) names the pair.  On
a simplicial polytope every proper face is a simplex, whose check reduces
to a positive principal minor, which any row passes; the mutation then
passes every check, and since a complex with +-1 incidences on the covers
and D_{j-1} D_j = 0 is unique up to re-orienting cells (Bjoerner 1984), it
re-orients cells: the boundary changes, the homology does not.
"""

import hashlib
import json
from functools import cache

import pytest

import polyk.cellular as cellular
import polyk.cones as cones
from polyk.cellular import diagonal_sign_equivalence
from polyk.cli import report_document
from polyk.corpus import acceptance_corpus, cross_polytope, hypercube
from polyk.errors import InternalInvariantError
from polyk.pipeline import run_pipeline

from oracles import prism_over_cross, pyramid_prism

BRIDGED = ("random11_d4", "random14_d4", "random16_d3")
GENERAL = ("prism_cross4", "prism_cross5", "pyramid_prism")
INPUTS = BRIDGED + GENERAL + ("cube5", "cross5")
WITH_BRIDGE = BRIDGED + GENERAL[:2]
# the message each outcome starts with
RAISED = {"bridge": "bridge (", "raises": "boundary squared nonzero at j="}


@cache
def polytopes():
    built = [prism_over_cross(4), prism_over_cross(5), pyramid_prism(), hypercube(5),
             cross_polytope(5)]
    return {p.name: p for p in acceptance_corpus(20240) + built if p.name in INPUTS}


def polytope(name):
    return polytopes()[name]


@cache
def unpatched(name):
    return run_pipeline(polytope(name))


def digest(result) -> str:
    doc = report_document(result, {"faces", "boundary", "homology", "ktheory"})
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def negate(monkeypatch, owner, attr: str, only: int | None = None) -> list:
    """Patch ``owner.attr`` to return the negated sign, on every call or on
    call number ``only`` (from 0) alone; the list it returns counts the
    calls."""
    real, calls = getattr(owner, attr), []

    def negated(*args):
        calls.append(args)
        sign = real(*args)
        return -sign if only in (None, len(calls) - 1) else sign

    monkeypatch.setattr(owner, attr, negated)
    return calls


def patch_level(monkeypatch, j: int, change) -> list:
    """Let ``change`` rewrite the columns of D_j as build_complex makes
    them; the list it returns counts the rewrites."""
    real, calls = cellular.boundary_columns, []

    def patched(T, system, level):
        columns = real(T, system, level)
        if level != j:
            return columns
        calls.append(level)
        return change(columns)

    monkeypatch.setattr(cellular, "boundary_columns", patched)
    return calls


def negate_first_entry(columns):
    e = min(columns[0])
    columns[0][e] = -columns[0][e]
    return columns


def case(producer, name, outcome):
    return pytest.param(producer, name, outcome, id=f"{producer}-{name}")


# "bridge": the bridge check fails; "raises": boundary squared zero fails;
# "unreached": the input never calls it
CASES = [case("d2_entry", name, "raises") for name in INPUTS] + [
    case(producer, name, "bridge" if name in WITH_BRIDGE
         else "raises" if name in raising else "unreached")
    for producer, raising in (("coordinate_sign", GENERAL), ("bridge", ()))
    for name in INPUTS]


@pytest.mark.parametrize("producer, name, outcome", CASES)
def test_negated_sign_is_caught(monkeypatch, producer, name, outcome):
    base = digest(unpatched(name))
    calls = {"d2_entry": lambda: patch_level(monkeypatch, 2, negate_first_entry),
             "coordinate_sign": lambda: negate(monkeypatch, cones, "_coordinate_sign"),
             "bridge": lambda: negate(monkeypatch, cones.ConeSystem, "_bridge")}[producer]()
    try:
        result = run_pipeline(polytope(name))
    except InternalInvariantError as err:
        assert outcome in RAISED and str(err).startswith(RAISED[outcome]), str(err)
        return
    assert outcome == "unreached", f"negated {producer} on {name} passes every check"
    assert calls == [] and digest(result) == base


@pytest.mark.parametrize("name, minors", [("prism_cross4", 81), ("pyramid_prism", 4)])
def test_each_general_minor_negated_alone_is_caught(monkeypatch, name, minors):
    # the k-th general-route minor negated alone, for every k, fails: the
    # prism's bridge takes the first minor, in the constructor, and fails
    # the bridge check; every other fails boundary squared zero
    bridges = int(name in WITH_BRIDGE)
    with monkeypatch.context() as patch:
        calls = negate(patch, cones, "_coordinate_sign", only=minors)  # counts, negates none
        assert digest(run_pipeline(polytope(name))) == digest(unpatched(name))
    assert len(calls) == minors
    for k in range(minors):
        with monkeypatch.context() as patch:
            negate(patch, cones, "_coordinate_sign", only=k)
            with pytest.raises(InternalInvariantError) as err:
                run_pipeline(polytope(name))
            assert str(err.value).startswith(RAISED["bridge" if k < bridges else "raises"])


@pytest.mark.parametrize("name", INPUTS)
def test_negated_dual_sign_is_a_gauge(monkeypatch, name):
    # tau_F -> (-1)^(dim P - dim F) tau_F with -dual_sign gives every pair
    # its sigma back, so the report is byte-identical
    base = unpatched(name)
    calls = negate(monkeypatch, cones, "dual_sign")
    result = run_pipeline(polytope(name))
    assert calls
    assert digest(result) == digest(base)
    top = base.lattice.dim
    assert result.system.taus == tuple((-1) ** (top - F.dim) * tau for F, tau in
                                       zip(base.lattice.faces_by_id, base.system.taus))


@pytest.mark.parametrize("name", INPUTS)
def test_negated_first_boundary_reorients_cells(monkeypatch, name):
    # every entry of D_1 negated is the complex with every cell of
    # dimension >= 1 re-oriented: the report changes, nothing raises, and
    # the diagonal equivalence is eps = -1 exactly on those cells
    base = unpatched(name)
    patch_level(monkeypatch, 1, lambda columns: [{e: -s for e, s in col.items()}
                                                 for col in columns])
    result = run_pipeline(polytope(name))
    assert digest(result) != digest(base)
    eps = diagonal_sign_equivalence(base.complex, result.complex)
    assert eps == {(j, i): -1 if j >= 1 else 1
                   for j in range(-1, base.lattice.dim + 1)
                   for i in range(base.lattice.f_vector[j + 1])}


@pytest.mark.parametrize("name", INPUTS)
def test_pipeline_reads_no_per_pair_face_data(monkeypatch, name):
    # the batch reads only the face data it built: the upper face of a
    # general pair or of a bridge is never a simplex on a lattice of P
    # (``ConeSystem._general_sign``), so ``face_data``, the per-pair API's
    # reader, is never called
    calls = []
    real = cones.ConeSystem.face_data
    monkeypatch.setattr(cones.ConeSystem, "face_data",
                        lambda self, f: calls.append(f) or real(self, f))
    run_pipeline(polytope(name))
    assert calls == []


def flip_parity(monkeypatch) -> list:
    """Patch ``cones.adjugate_column`` to return a row of F of the other
    parity, r ^ 1, or r - 1 when r ^ 1 is past F's last row; the list it
    returns counts the calls."""
    real, calls = cones.adjugate_column, []

    def flipped(span_F, span_E):
        calls.append((span_F, span_E))
        r = real(span_F, span_E)
        return None if r is None else r ^ 1 if r ^ 1 < span_F.bit_count() else r - 1

    monkeypatch.setattr(cones, "adjugate_column", flipped)
    return calls


# every proper face a simplex: the flipped parity re-orients cells there
SIMPLICIAL = BRIDGED + ("cross5",)


@pytest.mark.parametrize("name", INPUTS)
def test_flipped_adjugate_parity_is_caught_or_reorients(monkeypatch, name):
    # caught by the cofactor check where an m = 0 pair's lower face carries
    # data; on the simplicial inputs, a re-orientation that every check
    # passes, whose boundary differs and whose homology does not
    base = unpatched(name)
    calls = flip_parity(monkeypatch)
    try:
        result = run_pipeline(polytope(name))
    except InternalInvariantError as err:
        assert name not in SIMPLICIAL and str(err).startswith("edge-ray cross-check failed for (")
        assert "is not det G_E" in str(err), str(err)
        return
    assert name in SIMPLICIAL and calls
    assert digest(result) != digest(base)
    assert diagonal_sign_equivalence(base.complex, result.complex) is not None
    sections = {"homology", "ktheory"}
    assert report_document(result, sections) == report_document(base, sections)
