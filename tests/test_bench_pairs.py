import importlib.util
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
