"""The summary that ``scripts/bench_pairs.py`` writes, and its exit code,
on canned runs."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(wall_s, ok_frac):
    return {"correct": True, "failed": 0, "wall_s": wall_s, "ok_frac": ok_frac}


def test_summary_of_canned_pairs():
    bench = load_bench_pairs()
    metrics = [("wall_s", True), ("ok_frac", False)]
    # parent wall_s 0.10 0.12 0.14 0.16 0.18 (median 0.14; exclusive
    # quartiles 0.11 and 0.17), change 0.09 0.13 0.10 0.12 0.20 (median
    # 0.12): better in pairs 1, 3 and 4; ok_frac, parent 1 1 1 1 0.9
    # (quartiles 0.95 and 1), is better in the last pair only
    parent = [0.10, 0.12, 0.14, 0.16, 0.18]
    change = [0.09, 0.13, 0.10, 0.12, 0.20]
    pairs = [{"seed": s, "parent": run(p, 1.0), "change": run(c, 1.0 if s != 3 else 0.5)}
             for s, (p, c) in enumerate(zip(parent, change))]
    pairs[4]["parent"]["ok_frac"] = 0.9
    summary = bench.summarize(pairs, metrics)
    assert summary["wall_s"] == {"parent_median": 0.14, "change_median": 0.12,
                                 "change_pct": -14.3, "change_better_pairs": 3,
                                 "parent_iqr": 0.06}
    assert summary["ok_frac"] == {"parent_median": 1.0, "change_median": 1.0,
                                  "change_pct": 0.0, "change_better_pairs": 1,
                                  "parent_iqr": 0.05}
    assert bench.summary_lines("corpus", summary, len(pairs)) == [
        "corpus wall_s: parent 0.14, change 0.12 (-14.3%), change better in 3/5 pairs, "
        "parent IQR 0.06",
        "corpus ok_frac: parent 1, change 1 (+0.0%), change better in 1/5 pairs, "
        "parent IQR 0.05"]


def test_summary_of_one_pair_and_equal_runs():
    bench = load_bench_pairs()
    summary = bench.summarize([{"parent": run(0.2, 1.0), "change": run(0.2, 1.0)}],
                              [("wall_s", True)])
    assert summary["wall_s"] == {"parent_median": 0.2, "change_median": 0.2, "change_pct": 0.0,
                                 "change_better_pairs": 0, "parent_iqr": 0.0}


def test_metrics_and_records_follow_the_benchmark_declaration():
    bench = load_bench_pairs()
    metrics = bench.end_to_end_metrics({"end_to_end": [
        {"name": "wall_s", "better": "lower"}, {"name": "ok_frac", "better": "higher"}]})
    assert metrics == [("wall_s", True), ("ok_frac", False)]
    result = {"correct": True, "failed": 0, "metrics": {
        "wall_s": {"value": 0.1234567, "unit": "s"}, "ok_frac": {"value": 1.0, "unit": "frac"},
        "setup_s": {"value": 0.05, "unit": "s"}}}
    assert bench.run_record(result, metrics) == {"correct": True, "failed": 0,
                                                 "wall_s": 0.12346, "ok_frac": 1.0}
    assert bench.parse_seeds("4201-4204") == [4201, 4202, 4203, 4204]
    assert bench.parse_seeds("7") == [7]


@pytest.mark.parametrize("failed, correct, code, message", [
    (0, True, 0, None),
    (2, True, 1, "seed 4202: change run failed 2 ops"),
    (0, False, 1, "seed 4202: change run gave wrong output"),
], ids=["clean", "failed-ops", "wrong-output"])
def test_main_exits_1_naming_seed_and_side_of_a_failing_run(
        tmp_path, monkeypatch, capsys, failed, correct, code, message):
    # two pairs, no export and no benchmark run: the change's run at the
    # second seed reports failed ops or a wrong output, and the pairs are
    # written to BENCH_<topic>.json all the same
    bench = load_bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower"}]}))
    monkeypatch.setattr(bench, "REPO", tmp_path)
    monkeypatch.setattr(bench, "export", lambda rev, into: rev)

    def run_once(tree, workload, seed, seconds):
        bad = tree.name == "change" and seed == 4202
        return {"correct": correct or not bad, "failed": failed if bad else 0,
                "metrics": {"wall_s": {"value": 0.1, "unit": "s"}}}

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--parent", "p", "--change", "c", "--workload", "cross5",
                       "--seeds", "4201-4202", "--topic", "t"]) == code
    out, err = capsys.readouterr()
    assert out.splitlines() == ["cross5 wall_s: parent 0.1, change 0.1 (+0.0%), "
                                "change better in 0/2 pairs, parent IQR 0"]
    err = err.splitlines()
    assert [line for line in err if "run " in line] == ([message] if message else [])
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [p["seed"] for p in doc["end_to_end"]["cross5"][0]["pairs"]] == [4201, 4202]


def test_appended_set_names_its_commits_at_the_top(tmp_path, monkeypatch):
    # a second set appended to an existing BENCH_<topic>.json keeps the
    # first set and its revisions, and the file's top-level parent and
    # change name the commits of the set appended last
    bench = load_bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower"}]}))
    monkeypatch.setattr(bench, "REPO", tmp_path)
    monkeypatch.setattr(bench, "export", lambda rev, into: rev)
    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds: {
        "correct": True, "failed": 0, "metrics": {"wall_s": {"value": 0.1, "unit": "s"}}})
    for parent, change in (("p1", "c1"), ("p2", "c2")):
        assert bench.main(["--parent", parent, "--change", change, "--workload", "corpus",
                           "--seeds", "1-2", "--topic", "t"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (doc["parent"], doc["change"]) == ("p2", "c2")
    assert [(s["parent"], s["change"]) for s in doc["end_to_end"]["corpus"]] == [
        ("p1", "c1"), ("p2", "c2")]
