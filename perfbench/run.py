#!/usr/bin/env python3
"""The polyk benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; polyk is imported from its ``src``.
Workloads (see README.md for why each was chosen):

    corpus   report ops on the 33 members of acceptance_corpus(20240)
    cross5   one report op on the 5-dimensional cross-polytope
    cube5    one report op on the 5-cube
    compare  compare cross6 and cross7 with seeded affine images of
             themselves, and reconstruct cross6 from unsigned incidence

Set-up (importing polyk afresh and generating and pinning the inputs) runs
five times and ``setup_s`` is its median.  Then the ops run back to back, with
polyk's facet cache emptied and garbage collected before each, in passes over
the workload until ``--seconds`` have passed (at least one pass; every pass
of every workload takes longer than one second).

With ``--trace 0`` it prints the end-to-end metrics: medians over passes of
the pass wall time and of the median and slowest op latency, the share of
ops that did not fail, peak RSS and set-up time.  The machine is shared and
its speed drifts by a quarter within minutes, so every time is rescaled by
the host-speed gauge (hostspeed.py) to a reference host; the detail line
keeps the measured seconds too.  With ``--trace 1`` it makes one pass with
every traced function rebound (see tracing.py) and prints the per-layer
metrics, in measured seconds, and writes the spans to ``.perfbench_out/``.

An op fails if it raises (the exception type is recorded and the run goes
on) or if its output does not match the reference; ``correct`` is false only
for the second kind.  The last stdout line is the result object; the line
before it holds per-op details and a stamp of the run conditions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def set_up(workload: str, seed: int, ref: dict, gauge: hostspeed.HostSpeed):
    """Import polyk and build the ops; returns them with the set-up time,
    leaving out time spent in probes and rescaled to the reference host."""
    spent, start = gauge.spent_s, perf_counter()
    pk = workloads.import_polyk()
    if not Path(pk.files.__file__).resolve().is_relative_to(SRC):
        raise workloads.SetupError(f"polyk imported from {pk.files.__file__}, not from {SRC}")
    ops = workloads.make_ops(pk, workload, seed, ref)
    end = perf_counter()
    return pk, ops, (end - start - (gauge.spent_s - spent)) * gauge.factor(start, end)


def run_pass(pk, ops, gauge: hostspeed.HostSpeed) -> list[dict]:
    """Run every op once; ``seconds`` leaves out time spent in probes (none
    if the gauge is not active)."""
    results = []
    for op in ops:
        cache = getattr(pk.polytope, "_FACET_CACHE", None)
        if cache is not None:  # no op may reuse another op's facets
            cache.clear()
        gc.collect()  # each op starts without the previous op's garbage
        spent, start = gauge.spent_s, perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failing op is recorded and the run goes on
            error = {"error": type(exc).__name__, "message": str(exc)[:200]}
        end = perf_counter()
        r = {"op": op.name, "start": start, "end": end,
             "seconds": end - start - (gauge.spent_s - spent)}
        if error:
            r.update(error)
        else:
            try:
                r["wrong"] = op.check(out)
            except Exception as exc:
                r["wrong"] = f"check raised {type(exc).__name__}: {exc}"
            del out
        results.append(r)
    return results


def end_to_end(passes: list[list[dict]], setup_s: float) -> dict:
    latencies = [[r["rescaled"] for r in p] for p in passes]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.get("error") or r.get("wrong"))
    return {
        "wall_s": (statistics.median(sum(x) for x in latencies), "s"),
        "op_p50_s": (statistics.median(statistics.median(x) for x in latencies), "s"),
        "op_max_s": (statistics.median(max(x) for x in latencies), "s"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer: tracing.Tracer, wall_s: float) -> dict:
    def calls(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[2]

    dual_calls, dual_s = tracer.dual_cone_outside_lift()
    layer_self = tracer.layer_self_s()
    untraced = wall_s - sum(layer_self.values())
    span_cost, kernel_cost = tracing.wrapper_cost_s()
    n_kernel = sum(calls(n) for n in tracing.AGGREGATED)
    n_span = sum(v[0] for v in tracer.totals.values()) - n_kernel
    overhead = n_span * span_cost + n_kernel * kernel_cost
    m = {
        "files.parse_s": (total_s("files.parse_polytope_text"), "s"),
        "polytope.validate_s": (total_s("polytope.validate"), "s"),
        "polytope.vertex_subsets": (tracer.vertex_subsets, "count"),
        "polytope.face_lattice_s": (total_s("polytope.face_lattice"), "s"),
        "polytope.faces": (tracer.faces, "count"),
        "polytope.covering_pairs": (tracer.covering_pairs, "count"),
        "cones.lift_s": (total_s("cones.lift"), "s"),
        "cones.lift_subsets": (tracer.lift_subsets, "count"),
        "cones.face_data_s": (total_s("cones.face_cone_data"), "s"),
        "cones.face_data_calls": (calls("cones.face_cone_data"), "count"),
        "cones.dual_cone_calls": (dual_calls, "count"),
        "cones.dual_cone_s": (dual_s, "s"),
        "cones.edge_ray_s": (total_s("cones.edge_ray"), "s"),
        "cones.edge_rays": (calls("cones.edge_ray"), "count"),
        "cones.crosscheck_s": (total_s("cones.edge_ray_crosscheck"), "s"),
        "cellular.trivialize_s": (total_s("cellular.trivialize"), "s"),
        "cellular.incidence_sign_s": (total_s("cellular.incidence_sign"), "s"),
        "cellular.incidence_signs": (calls("cellular.incidence_sign"), "count"),
        "cellular.build_complex_self_s": (self_s("cellular.build_complex"), "s"),
        "cellular.homology_s": (total_s("cellular.homology"), "s"),
        "cellular.homology_calls": (calls("cellular.homology"), "count"),
        "ktheory.k_report_self_s": (self_s("ktheory.k_report"), "s"),
        "ktheory.e1_page_s": (total_s("ktheory.e1_page"), "s"),
        "linalg.snf_s": (total_s("linalg.smith_normal_form"), "s"),
        "linalg.snf_calls": (calls("linalg.smith_normal_form"), "count"),
        "linalg.snf_max_dim": (tracer.snf_max_dim, "count"),
        "linalg.rank_calls": (calls("linalg.rank"), "count"),
        "linalg.rank_s": (total_s("linalg.rank"), "s"),
        "linalg.coords_in_basis_calls": (calls("linalg.coords_in_basis"), "count"),
        "linalg.coords_in_basis_s": (total_s("linalg.coords_in_basis"), "s"),
        "linalg.det_sign_calls": (calls("linalg.det_sign"), "count"),
        "linalg.cofactor_kernel_calls": (calls("linalg.cofactor_kernel_vector"), "count"),
        "linalg.max_bits": (tracer.max_bits, "bits"),
        "comb_type.is_isomorphic_s": (total_s("comb_type.is_isomorphic"), "s"),
        "comb_type.lattice_from_incidence_s": (total_s("comb_type.lattice_from_incidence"), "s"),
        "cli.report_document_s": (total_s("cli.report_document"), "s"),
        "pipeline.run_pipeline_s": (total_s("pipeline.run_pipeline"), "s"),
    }
    m.update({f"{layer}.self_s": (s, "s") for layer, s in layer_self.items()})
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.untraced_s"] = (untraced, "s")
    m["trace.overhead_frac"] = (overhead / (wall_s - overhead), "frac")
    return m


# Per-layer counters taken from arguments and results, not counted by polyk.
COMPUTED = ("polytope.vertex_subsets", "cones.lift_subsets", "polytope.faces",
            "polytope.covering_pairs", "linalg.snf_max_dim", "linalg.max_bits")


def stamp(seed: int) -> dict:
    commit = None
    try:
        git = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "polyk").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        with hostspeed.HostSpeed() as gauge:
            setups = [set_up(args.workload, args.seed, ref, gauge) for _ in range(SETUP_REPEATS)]
            pk, ops, _ = setups[-1]
            passes = []
            start = perf_counter()
            while not args.trace and (not passes or perf_counter() - start < args.seconds):
                passes.append(run_pass(pk, ops, gauge))
    except (ImportError, OSError, workloads.SetupError) as exc:
        print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(s for _, _, s in setups)
    del setups

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes = [run_pass(pk, ops, hostspeed.HostSpeed())]
        finally:
            tracer.uninstall()
        wall = sum(r["seconds"] for r in passes[0])
        metrics = per_layer(tracer, wall)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        with spans_file.open("w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        extra = {"computed": list(COMPUTED), "absent": tracer.absent,
                 "spans_file": str(spans_file.relative_to(ROOT))}
    else:
        for r in (r for p in passes for r in p):
            r["rescaled"] = r["seconds"] * gauge.factor(r["start"], r["end"])
        metrics = end_to_end(passes, setup_s)
        extra = {"rescaled": [[r["op"], [p[i]["rescaled"] for p in passes]]
                              for i, r in enumerate(passes[0])]}

    failures = [{k: r[k] for k in ("op", "error", "message", "wrong") if r.get(k)}
                for p in passes for r in p if r.get("error") or r.get("wrong")]
    detail = {"workload": args.workload, "trace": args.trace, "stamp": stamp(args.seed),
              "passes": len(passes), "op_count": len(ops), "failures": failures,
              "ops": [[r["op"], [p[i]["seconds"] for p in passes]]
                      for i, r in enumerate(passes[0])], **extra}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not any(r.get("wrong") for r in failures),
        "attempted": sum(len(p) for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
