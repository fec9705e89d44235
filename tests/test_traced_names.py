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
from polyk.pipeline import run_pipeline
from polyk.polytope import face_lattice

from oracles import pair_route, pyramid_prism

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
    poly = pyramid_prism()
    expected = run_pipeline(poly).complex
    system = ConeSystem(lift(poly), face_lattice(poly))
    general = [(e, f) for f, lower in enumerate(system.lattice.down) for e in lower
               if pair_route(system, e, f) == "general"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pipeline(poly).complex
        piped = tracer.totals["cones.edge_ray"][0]
        system.ray(*general[0])  # the edge-ray observer runs on the per-pair API
    finally:
        tracer.uninstall()
    assert not tracer.absent
    assert traced == expected
    # C(10, 4) lift subsets and 159 covering pairs for the prism over a
    # square pyramid; the pipeline makes no edge ray, though 4 pairs are of
    # the oracle's general route (m > 0, a span id of E outside F's basis,
    # and a face that is not dual-simple): the diamond rule fills their
    # signs
    assert tracer.lift_subsets == 210 and tracer.covering_pairs == 159
    assert len(general) == 4 and piped == 0
    assert tracer.totals["cones.edge_ray"][0] == 1 and tracer.max_bits > 0
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
