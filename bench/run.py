"""Benchmark for the ``ptomech`` CLI: closed-loop workloads with checked outputs.

Run from anywhere; paths are relative to this file's repository:

    python3 bench/run.py --workload trajectories --seed 1 --seconds 30 --trace 0

for each workload in ``workloads.py``. One run:

1. times ``SETUP_RUNS`` fresh interpreters that import ``ptomech.cli`` and
   build its parser, the start-up every CLI call pays; ``setup_s`` is the
   median of their wall times, each scaled to the machine's quiet speed by a
   reference interpreter started next to it (``calibration.py``);
2. starts one worker process, a single client with no extra threads (the
   reference machine has 2 cores), which calls ``ptomech.cli.main`` back to
   back for ``--seconds``. ``pass_s`` is the median over passes of a pass's
   wall time scaled to the machine's quiet speed by a calibration kernel
   timed around each call (``calibration.py``); ``peak_rss_mb`` is the
   worker's peak resident memory;
3. checks every output against the references in ``references/``
   (``checker.py``); ``verified_frac`` is the share of calls that exited 0
   and passed the check.

Contract probes (calls with no valid reference, checked against the CLI's
documented contract) run once per run, outside the timed passes, and are
reported as ``check.contract_failures``. They are not part of ``attempted``:
the long-horizon probe fails in ptomech 0.1.0 (exit 2 where exit 0 with a
``truncated_at_t`` footer is documented), and a benchmark workload must be
one on which no call fails.

With ``--trace 1`` the worker alternates untraced and traced passes and the
run prints per-layer metrics instead: self time and work counts per layer
from ``tracer.py``, medians over traced passes, plus the raw pass wall time
and kernel time. Spans are written to
``.bench_out/spans-<workload>-<seed>.json``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The seed only shuffles the order of calls within each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import START_ARGV, START_NOMINAL_S
from checker import check_against_reference, check_truncation_contract, load_reference
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "verified_frac": "fraction", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "numeric.first_moments.s": "s",
    "numeric.second_moments.s": "s",
    "numeric.split.s": "s",
    "numeric.rk4_steps": "computed-steps",
    "numeric.ns_per_step": "ns",
    "numeric.truncated_series": "count",
    "spectrum.phase_diagram.s": "s",
    "spectrum.cells": "count",
    "spectrum.ns_per_cell": "ns",
    "cli.build_parser.s": "s",
    "cli.self.s": "s",
    "cli.output_bytes": "B",
    "cli.bytes_per_s": "B/s",
    "analytic.displacement.s": "s",
    "analytic.numbers.s": "s",
    "analytic.steady.s": "s",
    "analytic.points": "count",
    "setup.numpy_import_s": "s",
    "setup.ptomech_import_s": "s",
    "check.max_rel_discrepancy": "fraction",
    "check.contract_failures": "count",
    "trace.overhead_frac": "fraction",
    "machine.pass_wall_s": "s",
    "machine.kernel_s": "s",
    "machine.setup_wall_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """Environment for child interpreters: ptomech from this tree, no PTOM_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PTOM_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(argv: list[str], timeout: float) -> str:
    """Run a child interpreter to completion; return its stdout."""
    try:
        proc = subprocess.run([sys.executable, *argv], env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _last_json(stdout: str) -> dict:
    if not stdout.strip():
        raise BenchError("child printed no result")
    return json.loads(stdout.splitlines()[-1])


def _start_seconds() -> float:
    start = time.perf_counter()
    _run_child(list(START_ARGV), SETUP_TIMEOUT_S)
    return time.perf_counter() - start


def measure_setup() -> list[dict]:
    """Fresh interpreters through build_parser(), each between two start-up references.

    ``scaled_s`` is the wall time scaled by START_NOMINAL_S over the mean of
    the two references (see calibration.py). A first, discarded start-up
    warms the file and bytecode caches.
    """
    _run_child([str(BENCH / "setup_probe.py")], SETUP_TIMEOUT_S)
    before = _start_seconds()
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        sample = _last_json(_run_child([str(BENCH / "setup_probe.py")], SETUP_TIMEOUT_S))
        sample["wall_s"] = time.perf_counter() - start
        after = _start_seconds()
        sample["scaled_s"] = sample["wall_s"] * 2.0 * START_NOMINAL_S / (before + after)
        before = after
        if not Path(sample["module"]).resolve().is_relative_to(SRC):
            raise BenchError(f"setup probe imported {sample['module']}, not this tree's src/")
        samples.append(sample)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    plan = {"src": str(SRC), "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "outdir": str(outdir),
            "spans_path": str(OUT / f"spans-{workload}-{seed}.json")}
    return _last_json(_run_child([str(BENCH / "worker.py"), json.dumps(plan)], WORKER_TIMEOUT_S))


def _output_text(outdir: Path, name: str, digest: str | None, fmt: str) -> str | None:
    return None if digest is None else (outdir / f"{name}.{digest}.{fmt}").read_text()


def check_outputs(workload, result: dict, outdir: Path) -> dict:
    """Check each distinct output once; count failed calls over all passes."""
    invocations = {inv.name: inv for inv in workload.invocations}
    refs = {name: load_reference(name, inv.fmt) for name, inv in invocations.items()}
    verdicts = {}
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    for p in result["passes"]:
        for name, code, digest, _ in p["results"]:
            key = (name, code, digest)
            if key not in verdicts:
                fmt = invocations[name].fmt
                verdicts[key] = check_against_reference(
                    code, _output_text(outdir, name, digest, fmt), fmt, refs[name])
            attempted += 1
            if not verdicts[key].ok:
                failed += 1
                problems.setdefault(name, verdicts[key].problems)
    probes = {inv.name: inv for inv in workload.probes}
    probe_verdicts = {
        name: check_truncation_contract(
            code, _output_text(outdir, name, digest, probes[name].fmt), probes[name].fmt)
        for name, code, digest, _ in result["probes"]
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "probes": probe_verdicts,
        "max_rel_discrepancy": max((v.max_rel_discrepancy for v in verdicts.values()), default=0.0),
    }


def _pass_layers(totals: dict, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass from its span totals."""

    def s(name):
        return totals.get(name + ".s", 0.0)

    numeric_s = s("numeric.first_moments") + s("numeric.second_moments")
    steps = totals.get("rk4_steps", 0)
    cells = totals.get("cells", 0)
    cli_self = s("cli.main")
    return {
        "numeric.first_moments.s": s("numeric.first_moments"),
        "numeric.second_moments.s": s("numeric.second_moments"),
        "numeric.split.s": s("numeric.split"),
        "numeric.rk4_steps": steps,
        "numeric.ns_per_step": 1e9 * numeric_s / steps if steps else 0.0,
        "numeric.truncated_series": totals.get("truncated_series", 0),
        "spectrum.phase_diagram.s": s("spectrum.phase_diagram"),
        "spectrum.cells": cells,
        "spectrum.ns_per_cell": 1e9 * s("spectrum.phase_diagram") / cells if cells else 0.0,
        "cli.build_parser.s": s("cli.build_parser"),
        "cli.self.s": cli_self,
        "cli.output_bytes": output_bytes,
        "cli.bytes_per_s": output_bytes / cli_self if cli_self else 0.0,
        "analytic.displacement.s": s("analytic.displacement"),
        "analytic.numbers.s": s("analytic.numbers"),
        "analytic.steady.s": s("analytic.steady"),
        "analytic.points": totals.get("points", 0),
    }


def _median(values) -> float:
    return statistics.median(list(values))


def layer_metrics(result: dict, setup: list[dict], checked: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    per_pass = [_pass_layers(totals, sum(r[3] for r in p["results"]))
                for totals, p in zip(result["layers"], traced)]
    metrics = {name: _median(m[name] for m in per_pass) for name in per_pass[0]}
    untraced = [p for p in result["passes"] if not p["traced"]]
    metrics.update({
        "setup.numpy_import_s": _median(s["numpy_import_s"] for s in setup),
        "setup.ptomech_import_s": _median(s["ptomech_import_s"] for s in setup),
        "check.max_rel_discrepancy": checked["max_rel_discrepancy"],
        "check.contract_failures": sum(not v.ok for v in checked["probes"].values()),
        "trace.overhead_frac": (_median(p["scaled_s"] for p in traced)
                                / _median(p["scaled_s"] for p in untraced) - 1.0),
        "machine.pass_wall_s": _median(p["seconds"] for p in untraced),
        "machine.kernel_s": _median(p["kernel_s"] for p in result["passes"]),
        "machine.setup_wall_s": _median(s["wall_s"] for s in setup),
    })
    return metrics


def print_shares(metrics: dict, traced_pass_s: float) -> None:
    layers = {
        "numeric": ("numeric.first_moments.s", "numeric.second_moments.s", "numeric.split.s"),
        "spectrum": ("spectrum.phase_diagram.s",),
        "analytic": ("analytic.displacement.s", "analytic.numbers.s", "analytic.steady.s"),
        "cli.build_parser": ("cli.build_parser.s",),
        "cli.self": ("cli.self.s",),
    }
    for layer, names in layers.items():
        share = sum(metrics[n] for n in names) / traced_pass_s
        print(f"share of traced pass  {layer:<18} {share:8.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "ptomech" / "cli.py").is_file():
        print(f"bench: no ptomech source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        setup = measure_setup()
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            result = run_worker(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
            checked = check_outputs(workload, result, Path(tmp))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in result["passes"] if not p["traced"]]
    print(f"workload {args.workload}: {len(result['passes'])} passes; untraced pass wall times "
          f"{[round(p['seconds'], 4) for p in untraced]} s, scaled "
          f"{[round(p['scaled_s'], 4) for p in untraced]} s")
    for name, problems in checked["problems"].items():
        print(f"FAILED {name}: {'; '.join(problems)}")
    for name, verdict in checked["probes"].items():
        status = "ok" if verdict.ok else "FAILED " + "; ".join(verdict.problems)
        print(f"contract probe {name}: {status}")

    if args.trace:
        metrics = layer_metrics(result, setup, checked)
        units = PER_LAYER_UNITS
        print_shares(metrics, _median(p["seconds"] for p in result["passes"] if p["traced"]))
    else:
        attempted = checked["attempted"]
        metrics = {
            "setup_s": _median(s["scaled_s"] for s in setup),
            "pass_s": _median(p["scaled_s"] for p in untraced),
            "verified_frac": (attempted - checked["failed"]) / attempted,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
