"""Tests of the benchmark itself: output checker, computed step count, tracer."""

import json
import lzma
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from checker import (  # noqa: E402
    check_against_reference, check_truncation_contract, load_reference, reference_path)
from ptomech import CoherentInit, cli, make_params, numeric  # noqa: E402

KAPPA = 6.45e6


def _reference(name, fmt):
    text = lzma.decompress(reference_path(name, fmt).read_bytes()).decode()
    return text, load_reference(name, fmt)


@pytest.fixture(scope="module")
def figure_3a():
    return _reference("figure-3a", "csv")


def test_references_pass_their_own_check(figure_3a):
    text, ref = figure_3a
    assert check_against_reference(0, text, "csv", ref).ok
    text, ref = _reference("evolve-dense-json", "json")
    verdict = check_against_reference(0, text, "json", ref)
    assert verdict.ok
    assert 0.0 < verdict.max_rel_discrepancy <= 1e-6


def test_checker_rejects_perturbed_value(figure_3a):
    text, ref = figure_3a
    lines = text.splitlines(keepends=True)
    cells = lines[50].split(",")
    assert ref.columns[3] == "n_a"
    cells[3] = f"{float(cells[3]) * (1.0 + 1e-5):.11e}"
    lines[50] = ",".join(cells)
    verdict = check_against_reference(0, "".join(lines), "csv", ref)
    assert not verdict.ok
    assert "row 49 n_a" in verdict.problems[0]


def test_checker_rejects_missing_row(figure_3a):
    text, ref = figure_3a
    lines = text.splitlines(keepends=True)
    del lines[100]
    verdict = check_against_reference(0, "".join(lines), "csv", ref)
    assert not verdict.ok
    assert "rows" in verdict.problems[0]


def test_checker_rejects_nonzero_exit(figure_3a):
    text, ref = figure_3a
    verdict = check_against_reference(2, text, "csv", ref)
    assert verdict.problems == ["exit code 2"]


def test_truncation_contract_needs_exit_0_and_footer(figure_3a):
    text, _ = figure_3a
    truncated = text + "# truncated_at_t=1.5e-06\n"
    assert check_truncation_contract(0, truncated, "csv").ok
    assert not check_truncation_contract(0, text, "csv").ok
    assert check_truncation_contract(2, truncated, "csv").problems == ["exit code 2"]


def test_computed_rk4_steps_match_stored_samples():
    params = make_params(KAPPA, 0.6 * KAPPA, 1.2 * KAPPA, 2.0 * math.pi * 23.4e6, 5e-11)
    init = CoherentInit.from_polar(2.0, math.pi / 6.0, 2.0, math.pi / 3.0)
    t_end = 0.05 / KAPPA
    spans = tracer.Tracer()
    with spans.installed():
        series = [numeric.integrate_first_moments(params, init, t_end),
                  numeric.integrate_second_moments(params, init, t_end)]
    # With no sample limit every RK4 step is stored.
    for span, s in zip(spans.spans, series):
        assert span["counts"]["rk4_steps"] == len(s.t) - 1 > 1000


def test_tracer_restores_originals_and_nests_spans(tmp_path):
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in tracer.TARGETS]
    spans = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed():
            assert all(getattr(m, a) is not fn for m, a, fn in originals)
            spans.invocation = "0/classify"
            cli.main(["classify", "--gamma", "0.6", "--G", "1.2", "--out", str(tmp_path / "c.csv")])
            raise RuntimeError("leaves the block early")
    assert all(getattr(m, a) is fn for m, a, fn in originals)
    assert [(s["name"], s["parent"], s["invocation"]) for s in spans.spans] == [
        ("cli.main", None, "0/classify"), ("cli.build_parser", 0, "0/classify")]
    main_span, parser_span = spans.spans
    own = tracer.self_times(spans.spans)
    assert own[0] == pytest.approx((main_span["end"] - main_span["start"])
                                   - (parser_span["end"] - parser_span["start"]))


def test_benchmark_json_lists_the_metrics_run_prints():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
