"""``scripts/stage_times.py`` on the 3-cross-polytope and the prism over
it: one row of stage times each, every stage timed, the reconstruction of
the lattice from the unsigned incidence last."""

import importlib.util
from pathlib import Path

import pytest

from oracles import prism_over_cross

REPO = Path(__file__).resolve().parent.parent


def load_stage_times():
    spec = importlib.util.spec_from_file_location("stage_times",
                                                  REPO / "scripts" / "stage_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_times_on_cross3(capsys):
    stage_times = load_stage_times()
    assert stage_times.polytope("cross3").nvertices == 6
    assert stage_times.polytope("cube3").nvertices == 8
    assert stage_times.polytope("hull3_7").ambient_dim == 3
    prism = stage_times.polytope("prism3")
    assert prism.vertices == prism_over_cross(3).vertices and prism.ambient_dim == 4
    stage_times.main(["cross3", "prism3", "--repeat", "1"])
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header == \
        "| input | total | validate | lattice | ConeSystem | build | report | reconstruct |"
    assert rule == "|---|---|---|---|---|---|---|---|"
    for name, row in zip(("cross3", "prism3"), rows, strict=True):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[0] == f"`{name}`" and cells[1].endswith(" s")
        assert len(cells) == 8 and all(float(c) >= 0 for c in cells[2:])


def test_reconstruct_column_times_only_the_rebuild(monkeypatch):
    # on cross3, the reconstruct column is the time of lattice_from_incidence
    # alone: strip_signs, which makes its input, runs outside the timer
    stage_times = load_stage_times()
    clock = iter(range(100))
    calls = []

    def rebuild(incidence):
        calls.append(("rebuild", incidence))

    def strip(complex_):
        calls.append(("strip", complex_))
        for _ in range(10):  # a slow strip_signs: ten ticks, outside the timer
            next(clock)
        return "incidence"

    monkeypatch.setattr(stage_times.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(stage_times, "strip_signs", strip)
    monkeypatch.setattr(stage_times, "lattice_from_incidence", rebuild)
    best = stage_times.stage_times(stage_times.polytope("cross3"), 1)
    assert [name for name, _ in calls] == ["strip", "rebuild"] and calls[1][1] == "incidence"
    # each reading of the clock is one tick: the rebuild's two readings are
    # one apart, with none of strip_signs's ticks between them
    assert best["reconstruct"] == 1 and list(best) == list(stage_times.STAGES)


def test_stage_times_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown input 'octahedron'"):
        load_stage_times().polytope("octahedron")
