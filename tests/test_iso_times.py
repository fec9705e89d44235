"""``scripts/iso_times.py`` on the 3-cross-polytope and the 3-cube: one row
each, both searches timed and isomorphic, and the exit status, 0 then, and
1 when a search says not isomorphic."""

import importlib.util
from pathlib import Path
from unittest import mock

from polyk.comb_type import LatticeIso

REPO = Path(__file__).resolve().parent.parent


def load_iso_times():
    spec = importlib.util.spec_from_file_location("iso_times", REPO / "scripts" / "iso_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_iso_times_on_cross3_and_cube3(capsys):
    iso_times = load_iso_times()
    cube = iso_times.polytope("cube3")
    assert sorted(iso_times.image_vertices(cube, True)) == \
        sorted(iso_times.image_vertices(cube, False))
    assert iso_times.image_vertices(cube, True) != iso_times.image_vertices(cube, False)
    assert iso_times.main(["cross3", "cube3", "--repeat", "1"]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header == "| input | source order | shuffled | isomorphic |"
    assert rule == "|---|---|---|---|"
    for name, row in zip(("cross3", "cube3"), rows, strict=True):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[0] == f"`{name}`" and cells[3] == "True"
        assert all(c.endswith(" s") and float(c[:-2]) >= 0 for c in cells[1:3])
    no = LatticeIso(False, certificate="exhausted search: no cover-preserving bijection")
    with mock.patch.object(iso_times, "is_isomorphic", return_value=no):
        assert iso_times.main(["cross3", "--repeat", "1"]) == 1
    *_, row = capsys.readouterr().out.splitlines()
    assert row.endswith("| False |")
