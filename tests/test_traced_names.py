"""The benchmark's tracer can still find and observe what it times.

``perfbench/tracing.py`` rebinds every (module, attribute) in its
``TRACED`` table, and its observers read fields of the results (the lifted
cone's ``generators``, the lattice's ``covering`` and so on).  The
benchmark self-test fails when a name is missing, so a deletion that would
break it fails here first, and the self-test itself runs here too.  The
tracer is loaded from its source and the self-test is run without writing
bytecode, so nothing under ``perfbench/`` changes.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from polyk.cones import ConeSystem, lift
from polyk.corpus import hypercube
from polyk.pipeline import run_pipeline
from polyk.polytope import face_lattice

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def traced_names():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))


def test_every_traced_name_exists():
    missing = []
    for module_name, attr in traced_names():
        owner = importlib.import_module(f"polyk.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_traced_pipeline_runs_with_every_observer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    expected = run_pipeline(hypercube(3)).complex
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pipeline(hypercube(3)).complex
    finally:
        tracer.uninstall()
    assert not tracer.absent
    assert traced == expected
    # C(8, 3) lift subsets and 62 covering pairs for the 3-cube, with one
    # edge ray for each pair with m > 0 (a span id of E outside F's basis)
    assert tracer.lift_subsets == 56 and tracer.covering_pairs == 62
    system = ConeSystem(lift(hypercube(3)), face_lattice(hypercube(3)))
    masks = [system.face_data(f).span_mask for f in range(len(system.lattice.faces_by_id))]
    m_positive = sum(bool(masks[e] & ~masks[f])
                     for f, lower in enumerate(system.lattice.down) for e in lower)
    assert 0 < m_positive < 62
    assert tracer.totals["cones.edge_ray"][0] == m_positive
    assert not tracing.leftover_bindings()


def test_benchmark_selftest_passes():
    # goldens byte for byte, traced names, restored bindings and the
    # compare and reconstruct reference digests (see perfbench/selftest.py)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not any(line.startswith("FAIL") for line in proc.stdout.splitlines()), proc.stdout
