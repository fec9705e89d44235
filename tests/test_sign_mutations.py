"""Each sign producer of the pipeline negated in turn, against the
pipeline's own checks.

A mutation patches one producer, runs ``run_pipeline`` and compares the
report (every section of ``cli.report_document``) with the unpatched
run's.  The inputs are the three acceptance-corpus members with a face
that has no lower cover with m = 0, whose fill starts from one
general-route sign, the prisms over the 4- and 5-cross-polytopes and
``pyramid_prism``, whose pairs the tau oracle sends down the general
route, and the 5-cube and 5-cross-polytope.

The cone system has two sources of signs, the adjugate read-off of the
pairs with m = 0 and the general route's sign det C, and fills every
other sign by the diamond rule (``ConeSystem``).  Boundary squared zero
cannot see every defect.  On a regular CW complex, +-1 incidences on the
covers with D_{j-1} D_j = 0 are unique up to re-orienting cells (Bjoerner
1984), so a mutation that flips a source wholesale re-orients cells and
passes it.  So each source has a witness, sign det([g | A_E]^T A_F), which
reads no adjugate: the first read-off of each dimension of F and every
general-route sign.  Negating the general route's sign, or flipping the
parity of the row ``adjugate_column`` returns (to a row of F in range),
raises there, before any boundary is made.

The bridges of tau (a face the spread of tau from the top face does not
reach) live in the tau oracle (``oracles.TauSystem``): the pipeline
calls none, and the oracle's bridge check catches a negated one.  Two
mutations are re-orientations by construction, and the tests state the
identity instead of asking for an error:

  * ``dual_sign`` negated in the oracle is a gauge:
    tau_F -> (-1)^(dim P - dim F) tau_F negates tau_E tau_F on every
    covering pair, so it meets every spread, bridge, dual-route and m = 0
    relation with -dual_sign, and every sigma of the oracle is unchanged;
  * every entry of D_1 negated re-orients every cell of dimension >= 1:
    D_1 has one flipped end, every D_j with j >= 2 two.
"""

import hashlib
import json
from functools import cache

import pytest

import oracles
import polyk.cellular as cellular
import polyk.cones as cones
from polyk.cellular import diagonal_sign_equivalence
from polyk.cli import report_document
from polyk.corpus import acceptance_corpus, cross_polytope, hypercube
from polyk.errors import InternalInvariantError
from polyk.pipeline import run_pipeline

from oracles import TauSystem, prism_over_cross, pyramid_prism

BRIDGED = ("random11_d4", "random14_d4", "random16_d3")
GENERAL = ("prism_cross4", "prism_cross5", "pyramid_prism")
INPUTS = BRIDGED + GENERAL + ("cube5", "cross5")
WITH_BRIDGE = BRIDGED + GENERAL[:2]  # the inputs on which the tau oracle bridges tau
# the message each outcome starts with
RAISED = {"bridge": "bridge (", "raises": "boundary squared nonzero at j=",
          "witness": "sign witness ("}


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


# "witness": the sign witness fails; "raises": boundary squared zero
# fails; "bridge": the tau oracle's bridge check fails, on the pipeline's
# system, whose report is unchanged; "unreached": the input never calls it
CASES = [case("d2_entry", name, "raises") for name in INPUTS] + [
    case("coordinate_sign", name, "witness" if name in BRIDGED else "unreached")
    for name in INPUTS] + [
    case("bridge", name, "bridge" if name in WITH_BRIDGE else "unreached") for name in INPUTS]


@pytest.mark.parametrize("producer, name, outcome", CASES)
def test_negated_sign_is_caught(monkeypatch, producer, name, outcome):
    base = digest(unpatched(name))
    calls = {"d2_entry": lambda: patch_level(monkeypatch, 2, negate_first_entry),
             "coordinate_sign": lambda: negate(monkeypatch, cones, "_coordinate_sign"),
             "bridge": lambda: negate(monkeypatch, TauSystem, "_bridge")}[producer]()
    result = None
    try:
        result = run_pipeline(polytope(name))
        if producer == "bridge":
            TauSystem(result.system)
    except InternalInvariantError as err:
        assert outcome in RAISED and str(err).startswith(RAISED[outcome]), str(err)
        assert result is None or digest(result) == base
        return
    assert outcome == "unreached", f"negated {producer} on {name} passes every check"
    assert calls == [] and digest(result) == base


@pytest.mark.parametrize("name, minors", [("random11_d4", 1), ("random16_d3", 1)])
def test_each_general_minor_negated_alone_is_caught(monkeypatch, name, minors):
    # the k-th general-route minor negated alone, for every k, fails the
    # sign witness: each starts the fill at a face with no m = 0 lower
    # cover, one such face here, and is taken in the constructor
    with monkeypatch.context() as patch:
        calls = negate(patch, cones, "_coordinate_sign", only=minors)  # counts, negates none
        assert digest(run_pipeline(polytope(name))) == digest(unpatched(name))
    assert len(calls) == minors
    for k in range(minors):
        with monkeypatch.context() as patch:
            negate(patch, cones, "_coordinate_sign", only=k)
            with pytest.raises(InternalInvariantError) as err:
                run_pipeline(polytope(name))
            assert str(err.value).startswith(RAISED["witness"])


@pytest.mark.parametrize("name", INPUTS)
def test_negated_dual_sign_is_a_gauge(monkeypatch, name):
    # in the tau oracle, tau_F -> (-1)^(dim P - dim F) tau_F with -dual_sign
    # gives every pair its sigma back, the system's; the pipeline reads no
    # dual_sign, so its report is byte-identical
    base = unpatched(name)
    taus = TauSystem(base.system).taus
    calls = negate(monkeypatch, oracles, "dual_sign")
    result = run_pipeline(polytope(name))
    assert digest(result) == digest(base)
    oracle = TauSystem(result.system)
    assert calls
    top = base.lattice.dim
    assert oracle.taus == tuple((-1) ** (top - F.dim) * tau for F, tau in
                                zip(base.lattice.faces_by_id, taus))
    assert [oracle.cover_orientations(f) for f in range(len(base.lattice.down))] == \
        [list(sigma) for sigma in base.system.orientations]


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
    # the system reads only the face data it built: the upper face of a
    # general-route sign, a face with no m = 0 lower cover, is never a
    # simplex on a lattice of P (``ConeSystem._general_sign``), so
    # ``face_data``, the per-pair API's reader, is never called
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


@pytest.mark.parametrize("name", INPUTS)
def test_flipped_adjugate_parity_is_caught_or_reorients(monkeypatch, name):
    # caught on every input by the sign witness of the adjugate read-off,
    # at its first pair, (empty face, vertex), before any boundary is made:
    # on the simplicial inputs too, whose cofactor checks all reduce to a
    # positive principal minor and pass
    calls = flip_parity(monkeypatch)
    with pytest.raises(InternalInvariantError) as err:
        run_pipeline(polytope(name))
    assert calls
    assert str(err.value) == ("sign witness ({}, {0}): F's adjugate gives -1, "
                              "sign det([g | A_E]^T A_F) = 1")


@pytest.mark.parametrize("name", ("random11_d4", "cross5", "cube5", "prism_cross4"))
def test_adjugate_parity_flipped_in_one_dimension_is_caught(monkeypatch, name):
    # the parity flipped only on the pairs into faces of one dimension j
    # would re-orient those cells, which boundary squared zero cannot see.
    # The first face F of dimension j with a pair read off its adjugate
    # fails: the cofactor check names a pair whose E carries data, and
    # otherwise the witness of dimension j names F's first such pair.
    # random11_d4's top face has no m = 0 lower cover: nothing of
    # dimension 4 is read off, and the report is unchanged
    base = unpatched(name)
    lat, spans = base.lattice, base.system.span_masks
    for j in range(1, lat.dim + 1):
        first = next(((e, f) for f in lat.ids(j) for e in lat.down[f]
                      if cones.adjugate_column(spans[f], spans[e]) is not None), None)
        real = cones.adjugate_column

        def flipped(span_F, span_E):
            r = real(span_F, span_E)
            if r is None or span_F.bit_count() != j + 1:
                return r
            return r ^ 1 if r ^ 1 < span_F.bit_count() else r - 1

        with monkeypatch.context() as patch:
            patch.setattr(cones, "adjugate_column", flipped)
            if first is None:
                assert (name, j) == ("random11_d4", 4)
                assert digest(run_pipeline(polytope(name))) == digest(base)
                continue
            with pytest.raises(InternalInvariantError) as err:
                run_pipeline(polytope(name))
        E, F = (lat.faces_by_id[i] for i in first)
        message = str(err.value)
        assert message.startswith(f"sign witness ({E}, {F}): F's adjugate gives ") or (
            message.startswith("edge-ray cross-check failed for (")
            and f", {F}): cofactor adj(G_F)" in message), (name, j, message)
