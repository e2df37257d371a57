import importlib.util
import json
import pathlib
import sys
import tempfile

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result(pass_s, verified, failed=0):
    return {"failed": failed, "attempted": 10,
            "metrics": {"pass_s": {"value": pass_s}, "verified_frac": {"value": verified}}}


def test_summary_of_pairs():
    runs = {"parent": [result(2.0, 1.0), result(3.0, 0.9, 1), result(4.0, 1.0), result(5.0, 1.0)],
            "change": [result(1.0, 1.0), result(3.5, 1.0), result(2.0, 0.9, 1), result(3.0, 1.0)]}
    out = bench_pairs.summarize(runs, {"pass_s": "lower", "verified_frac": "higher"},
                                {"pass_s": 0.1, "verified_frac": 0.0})
    assert out["parent"]["pass_s"] == {"median": 3.5, "q1": 2.75, "q3": 4.25,
                                       "runs": [2.0, 3.0, 4.0, 5.0]}
    assert out["change"]["failed"] == [0, 0, 1, 0]
    assert out["pair_winner"]["pass_s"] == ["change", "parent", "change", "change"]
    assert out["pair_winner"]["verified_frac"] == ["tie", "change", "parent", "tie"]
    assert out["change_wins_of_pairs"] == {"pass_s": 3, "verified_frac": 1}
    assert out["ratio"]["pass_s"] == pytest.approx(2.5 / 3.5)
    assert out["claim_holds"] == {"pass_s": False, "verified_frac": False}
    assert out["within_bound"] == {"pass_s": True, "verified_frac": True}
    # One failed call of 40 attempted on each side.
    assert out["failed_share"] == {"parent": 0.025, "change": 0.025}
    assert out["failed_share_no_larger"] is True


@pytest.mark.parametrize("parent_failed, change_failed, no_larger", [
    ([0, 0], [0, 0], True),
    ([2, 0], [1, 1], True),
    ([0, 1], [0, 0], True),
    ([0, 0], [0, 1], False),
    ([1, 0], [1, 1], False),
])
def test_failed_share_sums_failed_over_attempted(parent_failed, change_failed, no_larger):
    runs = {"parent": [result(1.0, 1.0, f) for f in parent_failed],
            "change": [result(1.0, 1.0, f) for f in change_failed]}
    out = bench_pairs.summarize(runs, {"pass_s": "lower"}, {"pass_s": 0.1})
    assert out["failed_share"] == {"parent": sum(parent_failed) / 20,
                                   "change": sum(change_failed) / 20}
    assert out["failed_share_no_larger"] is no_larger


def test_failed_share_weights_runs_by_attempted_calls():
    # 1 of 100 failed beats 1 of 10, though each side failed once.
    runs = {"parent": [dict(result(1.0, 1.0, 1), attempted=10)],
            "change": [dict(result(1.0, 1.0, 1), attempted=100)]}
    out = bench_pairs.summarize(runs, {"pass_s": "lower"}, {"pass_s": 0.1})
    assert out["failed_share"] == {"parent": 0.1, "change": 0.01}
    assert out["failed_share_no_larger"] is True


# Parent median 10.2, q1 10.1, q3 10.3: a spread of 0.2.
PARENT_RUNS = [10.0, 10.1, 10.2, 10.3, 10.4] * 2


@pytest.mark.parametrize("change_runs, holds", [
    # Nine wins and a median gap of 1.2.
    ([9.0] * 9 + [11.0], True),
    # Nine wins and a tie: a tie counts for neither side.
    ([9.0] * 9 + [10.4], True),
    # Eight wins, a tie and a loss.
    ([9.0] * 8 + [10.3, 11.0], False),
    # Nine wins, each by 0.1, and a median gap of 0.1, inside the parent's spread.
    ([v - 0.1 for v in PARENT_RUNS[:9]] + [11.4], False),
])
def test_claim_needs_nine_wins_and_a_gap_past_the_parent_spread(change_runs, holds):
    def claim(parent, change, direction):
        runs = {"parent": [result(v, 1.0) for v in parent],
                "change": [result(v, 1.0) for v in change]}
        out = bench_pairs.summarize(runs, {"pass_s": direction}, {"pass_s": 0.1})
        return out["claim_holds"]["pass_s"]

    assert claim(PARENT_RUNS, change_runs, "lower") is holds
    # A higher-is-better metric reads the negated runs the same way.
    assert claim([-v for v in PARENT_RUNS], [-v for v in change_runs], "higher") is holds


@pytest.mark.parametrize("change_runs, within", [
    # Median 10.2 against 10.2: no worse.
    (PARENT_RUNS, True),
    # Median 11.2, worse by 1.0, inside a bound of 0.1 * 10.2 = 1.02.
    ([v + 1.0 for v in PARENT_RUNS], True),
    # Median 11.3, worse by 1.1: past the bound.
    ([v + 1.1 for v in PARENT_RUNS], False),
    # Every pair lost, but the median is no worse by more than the bound.
    ([v + 0.01 for v in PARENT_RUNS], True),
])
def test_within_bound_takes_the_bound_as_a_fraction_of_the_parent_median(change_runs, within):
    def check(parent, change, direction):
        runs = {"parent": [result(v, 1.0) for v in parent],
                "change": [result(v, 1.0) for v in change]}
        out = bench_pairs.summarize(runs, {"pass_s": direction}, {"pass_s": 0.1})
        return out["within_bound"]["pass_s"]

    assert check(PARENT_RUNS, change_runs, "lower") is within
    # A higher-is-better metric reads the negated runs the same way.
    assert check([-v for v in PARENT_RUNS], [-v for v in change_runs], "higher") is within


def test_ratio_to_an_earlier_file():
    summary = {side: {"pass_s": {"median": m}} for side, m in (("parent", 2.0), ("change", 1.0))}
    earlier = {"workloads": {"w": {"change": {"pass_s": {"median": 4.0}}}}}
    assert bench_pairs.ratios_to(earlier, "w", summary, ["pass_s"]) == {
        "parent": {"pass_s": 0.5}, "change": {"pass_s": 0.25}}
    assert bench_pairs.ratios_to(earlier, "other", summary, ["pass_s"]) is None


def test_a_failed_run_leaves_no_tree_copies(tmp_path, monkeypatch):
    def export_trees(parent, into):
        (into / "parent").mkdir()
        # The change's side reads its workload table from bench/.
        return {"parent": into / "parent", "change": bench_pairs.ROOT}

    def run_bench(tree, argv):
        raise RuntimeError("exited 1")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40 + "\n")
    monkeypatch.setattr(bench_pairs, "export_trees", export_trees)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    with pytest.raises(RuntimeError, match="exited 1"):
        bench_pairs.main(["--number", "99"])
    assert not list(tmp_path.glob("bench_pairs-*"))


def test_spans_scale_by_the_kernel_time_of_their_own_run():
    # The machine ran at half its quiet speed: the kernel took twice NOMINAL_S.
    metrics = {"cli.self.s": 0.02, "spectrum.phase_diagram.s": 0.001, "spectrum.cells": 40401,
               "cli.bytes_per_s": 1e8, "machine.kernel_s": 0.026, "machine.pass_wall_s": 0.03}
    assert bench_pairs.scaled_spans(metrics, 0.013) == pytest.approx(
        {"cli.self.s": 0.01, "spectrum.phase_diagram.s": 0.0005})


def test_traces_alternate_the_side_run_first():
    calls = []

    def run_bench(tree, argv):
        calls.append((tree, argv[3]))
        kernel = 0.013 if tree == "parent-tree" else 0.026
        return {"metrics": {"cli.self.s": {"value": 0.02}, "machine.kernel_s": {"value": kernel}}}

    trees = {"parent": "parent-tree", "change": "change-tree"}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench_pairs, "run_bench", run_bench)
        trace = bench_pairs.trace_runs(trees, ["a", "b", "c"], 30, 0.013)
    assert calls == [("parent-tree", "a"), ("change-tree", "a"), ("change-tree", "b"),
                     ("parent-tree", "b"), ("parent-tree", "c"), ("change-tree", "c")]
    assert [trace[w]["first"] for w in "abc"] == ["parent", "change", "parent"]
    # Raw values as the run printed them, and the spans scaled run by run.
    assert trace["b"]["change"] == {"cli.self.s": 0.02, "machine.kernel_s": 0.026}
    assert trace["b"]["scaled_spans"] == {"parent": {"cli.self.s": pytest.approx(0.02)},
                                          "change": {"cli.self.s": pytest.approx(0.01)}}


def test_one_verdict_line_per_workload():
    runs = {"parent": [result(2.0, 1.0), result(3.0, 0.9, 1), result(4.0, 1.0), result(5.0, 1.0)],
            "change": [result(1.0, 1.0), result(3.5, 1.0), result(2.0, 0.9, 1), result(3.0, 1.0)]}
    out = bench_pairs.summarize(runs, {"pass_s": "lower", "verified_frac": "higher"},
                                {"pass_s": 0.1, "verified_frac": 0.0})
    assert bench_pairs.verdict_line("phase_grid", out) == (
        "phase_grid: pass_s ratio=0.7143 change_wins_of_pairs=3 claim_holds=False "
        "within_bound=True; verified_frac ratio=1.0000 change_wins_of_pairs=1 "
        "claim_holds=False within_bound=True; failed_share_no_larger=True")
    out["ratio"]["pass_s"] = None
    assert "pass_s ratio=- " in bench_pairs.verdict_line("w", out)


def test_a_run_ends_with_the_verdict_lines(tmp_path, monkeypatch, capsys):
    # Every run reads the same: all pairs tie, so no claim holds and every bound does.
    repo = bench_pairs.ROOT
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
    metrics["machine.kernel_s"] = {"value": 1.0}
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40 + "\n")
    # Both sides read their workload table and calibration from the repository's bench/.
    monkeypatch.setattr(bench_pairs, "export_trees", lambda parent, into: dict.fromkeys(
        bench_pairs.SIDES, repo))
    monkeypatch.setattr(bench_pairs, "run_bench", lambda tree, argv: {
        "failed": 0, "attempted": 5, "metrics": metrics})
    assert bench_pairs.main(["--number", "99"]) == 0
    doc = json.loads((tmp_path / "BENCH_99.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    lines = capsys.readouterr().err.splitlines()
    assert lines[-len(workloads):] == [bench_pairs.verdict_line(w, doc["workloads"][w])
                                       for w in workloads]
    assert all("claim_holds=False" in line and "within_bound=False" not in line
               and line.endswith("failed_share_no_larger=True") for line in lines[-3:])
