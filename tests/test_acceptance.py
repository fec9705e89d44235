"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The corpus is fixed: simplices of dimension 1..5, hypercubes 1..4,
cross-polytopes 1..4, and 20 seeded random rational hulls with at most 10
points in dimension at most 4.  Everything is integer/rational equality;
there are no tolerances anywhere.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polyk.cellular as cellular
from polyk.cellular import (
    ZERO_GROUP,
    Z,
    build_complex,
    diagonal_sign_equivalence,
    homology,
    trivialize,
)
from polyk.cli import main
from polyk.comb_type import is_isomorphic, lattice_from_incidence, strip_signs
from polyk.corpus import acceptance_corpus, simplex
from polyk.linalg import int_dot, int_mat_mul, rank
from polyk.pipeline import run_pipeline

from affine import apply_affine, random_invertible_affine
from oracles import (
    barycenter_projection,
    circledast_gens,
    complex_from_dense,
    dual_face_gens,
    int_mat_is_zero,
    positive_multiple_ratio,
    q_from_columns,
    simplicial_boundary_matrices,
    span_basis,
)

REPO = Path(__file__).resolve().parent.parent
POLYTOPES = REPO / "polytopes"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def corpus_run():
    start = time.monotonic()
    members = acceptance_corpus()
    results = [run_pipeline(p) for p in members]
    elapsed = time.monotonic() - start
    return members, results, elapsed


def test_criterion_1_boundary_squared_zero(corpus_run):
    members, results, elapsed = corpus_run
    names = [p.name for p in members]
    assert [f"simplex{d}" in names for d in range(1, 6)].count(True) == 5
    assert [f"cube{d}" in names for d in range(1, 5)].count(True) == 4
    assert [f"cross{d}" in names for d in range(1, 5)].count(True) == 4
    randoms = [p for p in members if p.name and p.name.startswith("random")]
    assert len(randoms) == 20
    assert all(p.ambient_dim <= 4 and p.nvertices <= 10 for p in randoms)

    violations = 0
    for res in results:
        x = res.complex
        for j in range(1, x.dim + 1):
            if not int_mat_is_zero(int_mat_mul(x.matrix(j - 1), x.matrix(j))):
                violations += 1
    ok = violations == 0 and elapsed < 60.0
    report_line(1, ok, f"boundary squared zero on {len(results)} corpus members, "
                       f"built in {elapsed:.1f} s (< 60 s)")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_2_exactness_k_triviality(corpus_run):
    _, results, _ = corpus_run
    bad = [r.polytope.name for r in results if not r.report.augmented_homology.is_trivial()]
    k_bad = [r.polytope.name for r in results
             if r.report.k_algebra != (ZERO_GROUP, ZERO_GROUP)]
    ok = not bad and not k_bad
    report_line(2, ok, f"augmented homology vanishes and K_*(A_Omega) = 0 "
                       f"on all {len(results)} members")
    assert not bad, bad
    assert not k_bad, k_bad


def test_criterion_3_quotient_k_theory(corpus_run):
    _, results, _ = corpus_run
    bad = [r.polytope.name for r in results
           if not r.report.reduced_homology.is_z_concentrated_in_degree_zero()]
    k_bad = [r.polytope.name for r in results if r.report.k_quotient != (ZERO_GROUP, Z)]
    ok = not bad and not k_bad
    report_line(3, ok, f"reduced homology is Z in degree 0 and K_1(A_Omega/K) = Z, "
                       f"K_0 = 0 on all {len(results)} members")
    assert not bad, bad
    assert not k_bad, k_bad


def test_criterion_4_sign_formula_vs_simplicial_oracle(corpus_run):
    mismatches = []
    for d in range(1, 5):
        res = run_pipeline(simplex(d))
        oracle = complex_from_dense(
            dim=d,
            boundary=tuple(tuple(tuple(r) for r in m) for m in simplicial_boundary_matrices(d)),
            face_order=res.complex.face_order)
        if diagonal_sign_equivalence(res.complex, oracle) is None:
            mismatches.append(d)
    ok = not mismatches
    report_line(4, ok, "simplices d=1..4 match the simplicial boundary oracle up to "
                       f"diagonal +-1 maps; mismatch count {len(mismatches)}")
    assert not mismatches, mismatches


def test_criterion_5_edge_ray_crosscheck(corpus_run):
    _, results, _ = corpus_run
    pairs = 0
    for res in results:
        lat, system = res.lattice, res.system
        n = system.cone.dim
        # per face, once: the circledast generators, the span basis and the
        # dual face's generators (all integer vectors)
        ids = range(len(lat.faces_by_id))
        circledast = [circledast_gens(system.cone, F) for F in lat.faces_by_id]
        basis = [span_basis(system.cone, system.face_data(i)) for i in ids]
        dual = [dual_face_gens(system, i) for i in ids]
        for f, below in enumerate(lat.down):
            for e in below:
                ray = system.ray(e, f)
                # membership invariants, all exact
                stacked = q_from_columns(basis[f] + (ray.direction,), rows=n)
                assert rank(stacked) == len(basis[f])
                assert all(int_dot(ray.direction, col) == 0 for col in basis[e])
                assert all(int_dot(ray.direction, y) >= 0 for y in dual[e])
                assert all(int_dot(ray.direction, y) == 0 for y in dual[f])
                hits = [g for g in circledast[e] if all(int_dot(g, y) == 0 for y in dual[f])]
                assert len(hits) == 1
                system.crosscheck(e, f, ray)
                ratio = positive_multiple_ratio(barycenter_projection(system, e, f),
                                                ray.direction)
                assert ratio is not None and ratio > 0
                pairs += 1
    report_line(5, True, f"edge rays agree with barycenter projections and satisfy "
                         f"all membership invariants on {pairs} covering pairs")


def test_criterion_6_orientation_covariance(corpus_run):
    members, results, _ = corpus_run
    rng = random.Random(515)
    checked = 0
    for res in results:
        lat, system = res.lattice, res.system
        base = res.complex
        base_hom = (res.report.augmented_homology, res.report.reduced_homology)
        flippable = [f for f in lat.faces_by_id if f.dim >= 0]
        for _ in range(10):
            g = rng.choice(flippable)
            flipped = build_complex(trivialize(lat, flip_faces=[g]), system)
            g_idx = lat.faces(g.dim).index(g)
            for j in range(0, base.dim + 1):
                mb, mf = base.matrix(j), flipped.matrix(j)
                for r in range(len(mb)):
                    for c in range(len(mb[r])):
                        b, fl = mb[r][c], mf[r][c]
                        if j == g.dim and c == g_idx or j == g.dim + 1 and r == g_idx:
                            assert fl == -b
                        else:
                            assert fl == b
            assert homology(flipped, True) == base_hom[0]
            assert homology(flipped, False) == base_hom[1]
            checked += 1
    report_line(6, True, f"flipping one face's orientation negates exactly its row and "
                         f"column and preserves homology ({checked} random flips)")


def test_criterion_7_combinatorial_type(corpus_run):
    members, results, _ = corpus_run
    for res in results:
        rebuilt = lattice_from_incidence(strip_signs(res.complex))
        assert is_isomorphic(res.lattice, rebuilt).isomorphic, res.polytope.name

    assert main(["compare", str(POLYTOPES / "square.json"),
                 str(POLYTOPES / "quadrilateral.json")]) == 0
    assert main(["compare", str(POLYTOPES / "cube.json"),
                 str(POLYTOPES / "octahedron.json")]) == 3

    rng = random.Random(717)
    affine_checked = 0
    for p, res in zip(members, results):
        if p.ambient_dim == 0:
            continue
        for _ in range(5):
            A, t = random_invertible_affine(rng, p.ambient_dim)
            image = apply_affine(p, A, t)
            assert is_isomorphic(res.lattice, run_pipeline(image).lattice).isomorphic, p.name
            affine_checked += 1
    report_line(7, True, f"unsigned incidence reconstructs every lattice; square matches "
                         f"the quadrilateral, cube and octahedron differ, and {affine_checked} "
                         "affine images are isomorphic to their sources")


def test_criterion_8_euler_relation(corpus_run):
    _, results, _ = corpus_run
    for res in results:
        fv = res.lattice.f_vector
        total = sum((-1) ** j * fv[j + 1] for j in range(-1, res.lattice.dim + 1))
        assert total == 0, res.polytope.name
    report_line(8, True, f"Euler relation holds from f-vectors alone on all "
                         f"{len(results)} members")


def test_criterion_9_cli_contract(monkeypatch, capsys, tmp_path):
    flags = ["--faces", "--boundary", "--homology", "--ktheory", "--json"]
    for name in ("segment", "triangle", "square", "cube"):
        outputs = []
        for _ in range(2):
            assert main(["report", str(POLYTOPES / f"{name}.json")] + flags) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].encode() == outputs[1].encode()
        golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert outputs[0] == golden

    # exit code contract: 0 valid, 1 input error, 2 injected internal, 3 non-iso
    assert main(["validate", str(POLYTOPES / "triangle.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "b", "dim": 1, "vertices": [["1/0"], [1]]}', encoding="utf-8")
    assert main(["validate", str(bad)]) == 1

    real = cellular.incidence_sign
    state = {"flipped": False}

    def sabotage(t, sigma, e, f):  # flips the first sign, on (empty face, vertex)
        s = real(t, sigma, e, f)
        if not state["flipped"]:
            state["flipped"] = True
            return -s
        return s

    monkeypatch.setattr(cellular, "incidence_sign", sabotage)
    capsys.readouterr()
    assert main(["report", str(POLYTOPES / "square.json")]) == 2 and state["flipped"]
    assert "boundary squared nonzero at j=1" in capsys.readouterr().err
    monkeypatch.setattr(cellular, "incidence_sign", real)

    assert main(["compare", str(POLYTOPES / "cube.json"),
                 str(POLYTOPES / "octahedron.json")]) == 3
    capsys.readouterr()
    report_line(9, True, "golden JSON reports byte-identical; exit codes 0/1/2/3 exercised")


def test_run_corpus_script():
    # scripts/run_corpus.py reads the pipeline results (f-vector, covering
    # pairs, homology, K-groups) of every corpus member and prints a summary
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, str(REPO / "scripts" / "run_corpus.py")],
                         capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    assert run.returncode == 0, run.stderr
    assert any(line.startswith("33 members, 0 failures,") for line in run.stdout.splitlines())
