import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

FIGURE = ("figure", "3a")
SWEEP = ("sweep",)
SAME = {FIGURE: (0, "", "aa"), SWEEP: (0, "", "bb")}


def test_equal_outcomes_differ_nowhere():
    assert compare_outputs.differences(SAME, dict(SAME)) == []


def test_each_differing_field_is_named():
    change = {FIGURE: (4, "ptomech: discrepancy\n", "cc"), SWEEP: (0, "", "bb")}
    (line,) = compare_outputs.differences(SAME, change)
    assert line.startswith("figure 3a: ")
    assert "exit 0 -> 4" in line and "stderr '' -> 'ptomech: discrepancy\\n'" in line
    assert "stdout sha256 'aa' -> 'cc'" in line


def test_only_the_stdout_digest_differs():
    change = {**SAME, SWEEP: (0, "", "cc")}
    assert compare_outputs.differences(SAME, change) == ["sweep: stdout sha256 'bb' -> 'cc'"]


def test_a_call_missing_on_one_side_differs():
    one = {FIGURE: SAME[FIGURE]}
    assert compare_outputs.differences(one, SAME) == ["sweep: missing on the parent side"]
    assert compare_outputs.differences(SAME, one) == ["sweep: missing on the change side"]


def test_lines_are_sorted():
    change = {FIGURE: (1, "", "aa"), SWEEP: (1, "", "bb")}
    lines = compare_outputs.differences(SAME, change)
    assert lines == sorted(lines) and len(lines) == 2


def test_calls_cover_the_workloads_once_each():
    calls = compare_outputs.calls()
    assert len(calls) == len(set(calls))
    for workload in compare_outputs.WORKLOADS.values():
        for inv in (*workload.invocations, *workload.probes):
            assert inv.argv in calls
    assert set(compare_outputs.EDGE_CALLS) <= set(calls)
