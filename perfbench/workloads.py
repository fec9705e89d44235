"""Inputs, operations and output checks of the four benchmark workloads.

Every call into polyk goes through a module attribute looked up at call time
(``pk.files.parse_polytope_text`` and so on), so the traced run sees it once
``tracing.Tracer`` has rebound the name.

The program receives only generated JSON texts.  Every fixed input is pinned
by SHA-256 in ``reference.json``, so a change to a generator (polyk's own
``acceptance_corpus`` included) fails the set-up check instead of silently
changing the workload.  Report outputs are pinned by the SHA-256 of the whole
``report --faces --boundary --homology --ktheory --json`` document; compare
and reconstruct outputs are checked against a combinatorial model of the
cross-polytope built here, without polyk.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

REPORT_SECTIONS = frozenset({"faces", "boundary", "homology", "ktheory"})

# The corpus is the acceptance corpus at its acceptance seed, whatever --seed
# says: its random hulls differ in size from seed to seed, which moved the
# corpus wall time between 5.2 and 9.9 s over seeds 2..7 and would swamp any
# bound, and only this seed has recorded reference reports.
CORPUS_SEED = 20240

WORKLOADS = ("corpus", "cross5", "cube5", "compare")


@dataclass
class Polyk:
    """The polyk modules the benchmark calls, imported from the checkout."""

    files: object
    polytope: object
    pipeline: object
    cli: object
    comb_type: object
    corpus: object


def import_polyk() -> Polyk:
    """Import polyk afresh: drop any loaded polyk module first, so that every
    call pays the whole import, as each CLI call does."""
    for name in [n for n in sys.modules if n == "polyk" or n.startswith("polyk.")]:
        del sys.modules[name]
    return Polyk(*(importlib.import_module(f"polyk.{m}") for m in
                   ("files", "polytope", "pipeline", "cli", "comb_type", "corpus")))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def polytope_text(name: str, vertices) -> str:
    """An input file in polyk's format: integers, or "p/q" strings."""
    coords = [[x.numerator if x.denominator == 1 else str(x) for x in map(Fraction, v)]
              for v in vertices]
    return json.dumps({"name": name, "dim": len(vertices[0]), "vertices": coords})


def cross_vertices(d: int) -> list[list[int]]:
    """+e_i and -e_i for each i, in the vertex order polyk's corpus uses."""
    out = []
    for i in range(d):
        for s in (1, -1):
            v = [0] * d
            v[i] = s
            out.append(v)
    return out


def cube_vertices(d: int) -> list[list[int]]:
    return [[(k >> i) & 1 for i in range(d)] for k in range(2 ** d)]


def affine_image(vertices, rng: random.Random) -> list[tuple[int, ...]]:
    """A seeded unimodular integer affine image: the matrix is a product of
    row shears by +-1, sign flips and row swaps, so it is invertible by
    construction, and vertex i of the image is the image of vertex i.
    Integer entries keep the cost of the op nearly the same for every seed;
    the corpus covers rational coordinates."""
    d = len(vertices[0])
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        kind = rng.randrange(3)
        i, j = rng.sample(range(d), 2)
        if kind == 0:
            c = rng.choice((-1, 1))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i] = [-x for x in rows[i]]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    t = [rng.randint(-4, 4) for _ in range(d)]
    return [tuple(sum(a * x for a, x in zip(row, v)) + s for row, s in zip(rows, t))
            for v in vertices]


# ---------------------------------------------------------------------------
# combinatorial model of the cross-polytope, independent of polyk
# ---------------------------------------------------------------------------

def cross_faces(d: int) -> list[list[tuple[int, ...]]]:
    """Faces of the d-cross-polytope by dimension -1..d, each level sorted.

    A proper face picks a set of axes and one sign per axis; the vertex of
    +e_i has index 2i and that of -e_i index 2i + 1.
    """
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(d + 2)]
    for signs in product((None, 0, 1), repeat=d):
        face = tuple(2 * i + s for i, s in enumerate(signs) if s is not None)
        levels[len(face)].append(face)
    levels[d + 1] = [tuple(range(2 * d))]
    return [sorted(level) for level in levels]


def cross_covering(levels) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Covering pairs as ((rank, index), (rank, index)) over sorted levels:
    a proper face covers the faces one vertex smaller, the top every facet."""
    pairs = []
    top = len(levels) - 1
    for k in range(1, top + 1):
        index = {f: i for i, f in enumerate(levels[k - 1])}
        for c, f in enumerate(levels[k]):
            lower = (range(len(index)) if k == top
                     else (index[f[:i] + f[i + 1:]] for i in range(len(f))))
            pairs.extend(((k - 2, r), (k - 1, c)) for r in lower)
    return sorted(pairs)


def compare_summary(isomorphic: bool, faces_a, faces_b) -> str:
    return json.dumps({"isomorphic": isomorphic, "faces_a": faces_a, "faces_b": faces_b},
                      sort_keys=True)


def reconstruct_summary(f_vector, covering) -> str:
    return json.dumps({"f_vector": list(f_vector),
                       "covering": [list(map(list, p)) for p in sorted(covering)]},
                      sort_keys=True)


def model_digests() -> dict[str, str]:
    """Reference digests of the compare and reconstruct ops, from the model."""
    out = {}
    for d in (6, 7):
        faces = [list(map(list, level)) for level in cross_faces(d)]
        out[f"compare/cross{d}"] = sha256(compare_summary(True, faces, faces))
    levels = cross_faces(6)
    out["reconstruct/cross6"] = sha256(reconstruct_summary(
        [len(level) for level in levels], cross_covering(levels)))
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation.  ``run`` makes the polyk calls; ``check`` looks
    at what it returned, outside the timed region, and returns None when the
    output is correct or else the reason it is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def report_op(pk: Polyk, name: str, text: str, digest: str) -> Op:
    def run() -> str:
        pf = pk.files.parse_polytope_text(text)
        P = pk.polytope.validate(pf.vertices, name=pf.name)
        result = pk.pipeline.run_pipeline(P)
        doc = pk.cli.report_document(result, set(REPORT_SECTIONS))
        return json.dumps(doc, indent=2, sort_keys=True)

    def check(out: str) -> str | None:
        return None if sha256(out) == digest else "report digest differs from the reference"

    return Op(name, run, check)


def _lattice_faces(L) -> list[list[list[int]]]:
    return [[list(f.vertex_set) for f in L.faces(j)] for j in range(-1, L.dim + 1)]


def _mapping_error(mapping, covers_a, covers_b, n_elements: int) -> str | None:
    """Checks that a returned mapping is a bijection that preserves covers in
    both directions; any valid bijection passes, not only today's."""
    if mapping is None:
        return "isomorphic verdict without a mapping"
    m = dict(mapping)
    if len(m) != n_elements or len(set(m.values())) != n_elements:
        return "mapping is not a bijection on all faces"
    if {(m[a], m[b]) for a, b in covers_a} != set(covers_b):
        return "mapping does not preserve covers in both directions"
    return None


def compare_op(pk: Polyk, name: str, text_a: str, text_b: str, digest: str) -> Op:
    def run():
        fa = pk.files.parse_polytope_text(text_a)
        fb = pk.files.parse_polytope_text(text_b)
        La = pk.polytope.face_lattice(pk.polytope.validate(fa.vertices, name=fa.name))
        Lb = pk.polytope.face_lattice(pk.polytope.validate(fb.vertices, name=fb.name))
        return La, Lb, pk.comb_type.is_isomorphic(La, Lb)

    def check(out) -> str | None:
        La, Lb, iso = out
        summary = compare_summary(iso.isomorphic, _lattice_faces(La), _lattice_faces(Lb))
        if sha256(summary) != digest:
            return "compare verdict or face lattices differ from the reference"
        return _mapping_error(iso.mapping, La.covering, Lb.covering, sum(La.f_vector))

    return Op(name, run, check)


def reconstruct_op(pk: Polyk, name: str, incidence, target, digest: str) -> Op:
    def run():
        rebuilt = pk.comb_type.lattice_from_incidence(incidence)
        return rebuilt, pk.comb_type.is_isomorphic(rebuilt, target)

    def check(out) -> str | None:
        rebuilt, iso = out
        if sha256(reconstruct_summary(rebuilt.f_vector, rebuilt.covering)) != digest:
            return "reconstructed lattice differs from the reference"
        if not iso.isomorphic:
            return "reconstructed lattice not isomorphic to the source"
        return _mapping_error(iso.mapping, rebuilt.covering, target.covering, sum(target.f_vector))

    return Op(name, run, check)


class SetupError(Exception):
    """A generated input does not match its pinned digest."""


def _pinned(ref: dict, key: str, text: str) -> str:
    if ref["inputs"].get(key) != sha256(text):
        raise SetupError(f"input {key} differs from its pinned digest: "
                         "the generator changed, so the workload would change")
    return text


def input_texts(pk: Polyk, workload: str) -> dict[str, str]:
    """The fixed input texts of a workload, keyed by op or polytope name."""
    if workload == "corpus":
        return {f"corpus/{P.name}": polytope_text(P.name, P.vertices)
                for P in pk.corpus.acceptance_corpus(CORPUS_SEED)}
    if workload == "cross5":
        return {"cross5": polytope_text("cross5", cross_vertices(5))}
    if workload == "cube5":
        return {"cube5": polytope_text("cube5", cube_vertices(5))}
    if workload == "compare":
        return {f"cross{d}": polytope_text(f"cross{d}", cross_vertices(d)) for d in (6, 7)}
    raise ValueError(f"unknown workload {workload!r}")


def make_ops(pk: Polyk, workload: str, seed: int, ref: dict) -> list[Op]:
    """Generate and pin the inputs of a workload; this is the set-up."""
    texts = {k: _pinned(ref, k, t) for k, t in input_texts(pk, workload).items()}
    rng = random.Random(seed)
    if workload == "compare":
        ops = []
        for d in (6, 7):
            image = affine_image(cross_vertices(d), rng)
            ops.append(compare_op(pk, f"compare/cross{d}", texts[f"cross{d}"],
                                  polytope_text(f"cross{d}_affine", image),
                                  ref["outputs"][f"compare/cross{d}"]))
        levels = cross_faces(6)
        covering = cross_covering(levels)
        matrices = [[[0] * len(levels[k]) for _ in levels[k - 1]] for k in range(1, len(levels))]
        for (rank, r), (_, c) in covering:
            matrices[rank + 1][r][c] = 1
        incidence = pk.comb_type.UnsignedIncidence(
            matrices=tuple(tuple(map(tuple, m)) for m in matrices))
        target = pk.comb_type.AbstractLattice(
            dim=6, f_vector=tuple(len(level) for level in levels),
            covering=tuple(covering))
        ops.append(reconstruct_op(pk, "reconstruct/cross6", incidence, target,
                                  ref["outputs"]["reconstruct/cross6"]))
        return ops
    ops = [report_op(pk, k, t, ref["outputs"][k]) for k, t in texts.items()]
    rng.shuffle(ops)  # ops are independent; the seed only fixes their order
    return ops
