"""``scripts/scale_times.py`` on small inputs: one row per input, each run
in its own process, with the lattice's sizes, every stage timed and the
process's peak memory."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from polyk.corpus import hypercube
from polyk.polytope import face_lattice

REPO = Path(__file__).resolve().parent.parent


def load_scale_times():
    spec = importlib.util.spec_from_file_location("scale_times",
                                                  REPO / "scripts" / "scale_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scale_times_on_small_inputs(capsys):
    scale_times = load_scale_times()
    scale_times.main(["cube3", "prism2"])
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header == ("| input | faces | pairs | validate | lattice | ConeSystem | build | report "
                      "| `ru_maxrss` |")
    assert rule == "|---" * 9 + "|"
    lat = face_lattice(hypercube(3))
    sizes = {"cube3": (len(lat.faces_by_id), len(lat.covering))}
    for name, row in zip(("cube3", "prism2"), rows, strict=True):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[0] == f"`{name}`" and len(cells) == 9
        assert all(float(c) >= 0 for c in cells[3:8]) and cells[8].endswith(" MB")
        assert float(cells[8].removesuffix(" MB")) > 0
        if name in sizes:
            assert (int(cells[1]), int(cells[2])) == sizes[name]


def test_scale_times_measures_in_process(monkeypatch):
    # the child's record: sizes, one time per stage, a positive peak; the
    # stages are stage_times.py's, and the dense incidence of its
    # reconstruct stage is never made
    scale_times = load_scale_times()

    def dense(*_):
        raise AssertionError("dense incidence made")

    for name in ("strip_signs", "lattice_from_incidence"):
        monkeypatch.setattr(sys.modules["stage_times"], name, dense)
    row = scale_times.measure("cross3")
    assert (row["faces"], row["pairs"]) == (28, 62)
    assert len(row["seconds"]) == 5 and row["maxrss_mb"] > 0


def test_scale_times_names_a_failed_input():
    with pytest.raises(SystemExit, match="octahedron: ValueError: unknown input 'octahedron'"):
        load_scale_times().main(["octahedron"])


def test_scale_times_names_a_child_stopped_with_no_output(monkeypatch):
    # a child stopped by a signal, such as the out-of-memory killer's
    # SIGKILL, leaves a negative return code and no stderr; no real
    # process is started or stopped
    scale_times = load_scale_times()

    def killed(args, **_):
        return subprocess.CompletedProcess(args, returncode=-9, stdout="", stderr="")

    monkeypatch.setattr(scale_times.subprocess, "run", killed)
    with pytest.raises(SystemExit, match=r"^cube10: the child process ended with return code -9 "
                                         r"and no error output$"):
        scale_times.main(["cube10"])
