#!/usr/bin/env python3
"""Benchmark two commits against each other in alternating pairs.

Run from the repository root:

    python scripts/bench_pairs.py --parent REV --change REV --workload compare \
        --seeds 4201-4210 --topic face_lattice [--seconds 1]

Each commit is exported with ``git archive`` into a fresh temporary
directory, so neither run sees untracked files, bytecode caches or the other
side's sources.  For every seed, ``perfbench/run.py --workload W --seed S
--seconds N --trace 0`` runs once in each export, with
``PYTHONDONTWRITEBYTECODE=1``; the parent runs first on even pairs and the
change first on odd ones, so a drift in host speed does not favour one side.

The pairs are appended, as one set with its summary, to the list of the
workload under ``end_to_end`` in ``BENCH_<topic>.json``, which is created if
it is missing; the file's top-level ``parent`` and ``change`` name the
commits of the set appended last.  The script exits 1, naming the seed and
the side, when any run's output was wrong (``correct`` false) or any of its ops failed
(``failed`` > 0); the pairs are written all the same.  The summary gives, for every end-to-end metric that
``BENCHMARK.json`` declares, the medians of both sides, the change in
percent, the number of pairs in which the change is better, and the
interquartile range of the parent's runs; the script prints it, one line
per metric in the declared order.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMAND = ("PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed S "
           "--seconds {seconds:g} --trace 0, parent and change each from a clean export of "
           "its commit, alternating which runs first pair by pair")


def end_to_end_metrics(benchmark: dict) -> list[tuple[str, bool]]:
    """(name, lower is better) of each end-to-end metric, in declared order."""
    return [(m["name"], m["better"] == "lower") for m in benchmark["end_to_end"]]


def summarize(pairs: list[dict], metrics: list[tuple[str, bool]]) -> dict:
    """Per metric: both medians, the change of the median in percent, the
    pairs in which the change is strictly better, and the parent's IQR
    (``statistics.quantiles``, exclusive method; 0 below two runs)."""
    out = {}
    for name, lower in metrics:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4)
        else:
            q1 = q3 = parent[0]
        better = sum(c < p if lower else c > p for p, c in zip(parent, change))
        out[name] = {
            "parent_median": round(p_med, 5),
            "change_median": round(c_med, 5),
            "change_pct": round(100 * (c_med - p_med) / p_med, 1) if p_med else 0.0,
            "change_better_pairs": better,
            "parent_iqr": round(q3 - q1, 5),
        }
    return out


def summary_lines(workload: str, summary: dict, pairs: int) -> list[str]:
    """One printed line per metric of ``summarize``'s summary, in its order."""
    return [f"{workload} {name}: parent {s['parent_median']:g}, change {s['change_median']:g} "
            f"({s['change_pct']:+.1f}%), change better in {s['change_better_pairs']}/{pairs} "
            f"pairs, parent IQR {s['parent_iqr']:g}" for name, s in summary.items()]


def run_record(result: dict, metrics: list[tuple[str, bool]]) -> dict:
    """One side of a pair, from the result line ``perfbench/run.py`` prints."""
    values = result["metrics"]
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: round(values[name]["value"], 5) for name, _ in metrics}}


def export(rev: str, into: Path) -> str:
    """Extract the tree of ``rev`` into ``into``; returns its short hash."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", required=True, help="the commit measured")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, one pair per seed")
    parser.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    metrics = end_to_end_metrics(json.loads((REPO / "BENCHMARK.json").read_text()))
    seeds = parse_seeds(args.seeds)
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        revs = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                pair[side] = run_record(run_once(trees[side], args.workload, seed, args.seconds),
                                        metrics)
            pairs.append({"seed": seed, "first": order[0],
                          "parent": pair["parent"], "change": pair["change"]})
            print(f"seed {seed}: " + ", ".join(
                f"{side} wall_s {pair[side]['wall_s']}" for side in order), file=sys.stderr)

    path = REPO / f"BENCH_{args.topic}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("topic", args.topic.replace("_", " "))
    doc["parent"], doc["change"] = revs["parent"], revs["change"]
    doc.setdefault("host", {"nproc": len(os.sched_getaffinity(0)),
                            "python": platform.python_version(),
                            "implementation": platform.python_implementation(),
                            "machine": platform.machine()})
    doc.setdefault("command", COMMAND.format(seconds=args.seconds))
    doc.setdefault("end_to_end", {}).setdefault(args.workload, []).append({
        "seeds": [seeds[0], seeds[-1]],
        "parent": revs["parent"],
        "change": revs["change"],
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
    })
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for line in summary_lines(args.workload, doc["end_to_end"][args.workload][-1]["summary"],
                              len(pairs)):
        print(line)
    bad = [(p["seed"], side, p[side]) for p in pairs for side in ("parent", "change")
           if not p[side]["correct"] or p[side]["failed"]]
    for seed, side, record in bad:
        print(f"seed {seed}: {side} run " + ("gave wrong output" if not record["correct"] else
                                              f"failed {record['failed']} ops"),
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
