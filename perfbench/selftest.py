#!/usr/bin/env python3
"""Quick self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks that the report op reproduces tests/data/golden/*.json byte for byte
(the goldens are only read), that a traced op gives the same bytes, that its
self times add up to its wall time, that tracing puts back every name it
rebound, and that the combinatorial model reproduces the compare and
reconstruct reference digests.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = ("segment", "triangle", "square", "cube")


def bindings() -> dict[tuple[str, str], object]:
    """Every traced name as currently bound, in every polyk module."""
    out = {}
    for n, module in sys.modules.items():
        if module is None or not (n == "polyk" or n.startswith("polyk.")):
            continue
        for _, attr in tracing.TRACED:
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is not None and hasattr(owner, method):
                out[(n, attr)] = getattr(owner, method)
    return out


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    pk = workloads.import_polyk()
    for name in GOLDEN:
        text = (ROOT / "polytopes" / f"{name}.json").read_text(encoding="utf-8")
        golden = (ROOT / "tests" / "data" / "golden" / f"{name}.json").read_text(encoding="utf-8")
        out = workloads.report_op(pk, name, text, "").run()
        check(out + "\n" == golden, f"report op matches golden {name}.json byte for byte")

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        check(all(getattr(v, "__perfbench_traced__", False) for v in bindings().values()),
              "install rebinds every traced name")
        start = perf_counter()
        out = workloads.report_op(pk, "cube", (ROOT / "polytopes" / "cube.json").read_text(), "").run()
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    golden = (ROOT / "tests" / "data" / "golden" / "cube.json").read_text(encoding="utf-8")
    check(out + "\n" == golden, "traced report op matches golden cube.json")
    check(not tracer.absent, "every traced name exists in this polyk")
    layer_self = sum(tracer.layer_self_s().values())
    top = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    check(abs(layer_self - top) < 1e-6 and 0 <= wall - top < wall,
          f"self times add up: layers {layer_self:.6f} s, top spans {top:.6f} s, wall {wall:.6f} s")
    check(bindings() == before and not tracing.leftover_bindings(),
          "uninstall restores every rebound name")

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    model = workloads.model_digests()
    check(all(reference["outputs"][k] == v for k, v in model.items()),
          "cross-polytope model reproduces the compare and reconstruct references")

    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as gauge:
        while len(gauge.samples) < 3:
            hostspeed.probe()
    check(signal.getsignal(signal.SIGALRM) is handler and gauge.factor(0, perf_counter()) > 0,
          "host-speed gauge samples and restores the SIGALRM handler")
    return 0


if __name__ == "__main__":
    sys.exit(main())
