"""``scripts/import_time.py`` with one round per case: two timed cases, and
the polyk modules of the session untouched."""

import importlib.util
import sys
from pathlib import Path

import polyk.polytope

REPO = Path(__file__).resolve().parent.parent


def load_import_time():
    spec = importlib.util.spec_from_file_location("import_time",
                                                  REPO / "scripts" / "import_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_time_prints_both_cases(capsys):
    loaded = {n: m for n, m in sys.modules.items() if n.startswith("polyk")}
    path = list(sys.path)
    import_time = load_import_time()
    import_time.main(["--repeat", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["source", "bytecode"]
    for line in lines:
        assert " ms median of 2 (quartiles " in line
        assert float(line.split()[1]) > 0
    assert {n: m for n, m in sys.modules.items() if n.startswith("polyk")} == loaded
    assert sys.modules["polyk.polytope"] is polyk.polytope and sys.path == path
