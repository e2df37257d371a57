"""Run the benchmark in alternating pairs against HEAD and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --number 16

Run it with the change uncommitted. Each side runs from a clean copy of its
tree without ``__pycache__``: the parent (HEAD) from ``git archive``, the
change from the working tree's tracked and untracked, not ignored files. For
every workload of ``BENCHMARK.json``, pair i of ten runs
``bench/run.py --workload W --seed S_i --seconds T --trace 0`` on both sides
with the same seed and the benchmark's ``run_seconds`` as T, the parent first
in odd pairs and the change first in even ones, every run with
``PYTHONDONTWRITEBYTECODE=1``. Each side then makes one ``--trace 1`` run per
workload.

The output holds, per workload and side, each end-to-end metric's runs,
median and quartiles, the failed and attempted calls of each run, and per
metric the winner of each pair (by the direction ``BENCHMARK.json`` gives),
the number of pairs the change won, the ratio of the medians, change over
parent, and ``claim_holds``: whether the change won at least nine of the ten
pairs (a tie counts for neither side) and its median beats the parent's by
more than the parent's q3 - q1; and ``within_bound``: whether the change's
median is no worse than the parent's by more than the metric's ``bound`` in
``BENCHMARK.json``, taken as a fraction of the parent median. Per workload
it also gives each side's failed share, the sum of its failed calls over the
sum of its attempted ones, and ``failed_share_no_larger``: whether the
change's share is no larger than the parent's. Each side's
medians are also divided by the change medians of the newest earlier
``BENCH_<k>.json`` in the repository root. The script only reads what
``bench/run.py`` prints; it changes nothing under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Ten pairs: a gain is claimed where the change wins nine of them.
PAIRS = 10
CLAIM_WINS = 9
TRACE_SEED = 7


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export_trees(parent: str, into: Path) -> dict[str, Path]:
    """Clean copies of the parent commit and of the working tree under ``into``."""
    trees = {side: into / side for side in SIDES}
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    trees["parent"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, files):
        source = ROOT / name
        if source.is_file():
            target = trees["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return trees


def bench_argv(workload: str, seed, seconds, trace: int) -> list[str]:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_bench(tree: Path, argv: list[str]) -> dict:
    """One benchmark run in ``tree``; the JSON object on its last stdout line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *argv[1:]], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and the runs themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict[str, list[dict]], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Per-side spreads, pair winners, wins and ratios from paired run results.

    ``runs[side][i]`` is the JSON result of pair i on that side; ``better``
    maps each end-to-end metric to "lower" or "higher", and ``bounds`` each
    metric to its bound, a fraction of the parent median.
    """
    out: dict = {"failed_share": {}}
    for side in SIDES:
        out[side] = {name: spread([r["metrics"][name]["value"] for r in runs[side]])
                     for name in better}
        failed = out[side]["failed"] = [r["failed"] for r in runs[side]]
        attempted = out[side]["attempted"] = [r["attempted"] for r in runs[side]]
        out["failed_share"][side] = sum(failed) / sum(attempted) if sum(attempted) else 0.0
    out["failed_share_no_larger"] = out["failed_share"]["change"] <= out["failed_share"]["parent"]
    out["ratio"], out["pair_winner"], out["change_wins_of_pairs"] = {}, {}, {}
    out["claim_holds"], out["within_bound"] = {}, {}
    for name, direction in better.items():
        parent, change = out["parent"][name], out["change"][name]
        base = parent["median"]
        out["ratio"][name] = change["median"] / base if base else None
        winners = []
        for old, new in zip(parent["runs"], change["runs"]):
            if new == old:
                winners.append("tie")
            else:
                winners.append("change" if (new < old) == (direction == "lower") else "parent")
        out["pair_winner"][name] = winners
        out["change_wins_of_pairs"][name] = winners.count("change")
        gap = base - change["median"] if direction == "lower" else change["median"] - base
        out["claim_holds"][name] = (winners.count("change") >= CLAIM_WINS
                                    and gap > parent["q3"] - parent["q1"])
        out["within_bound"][name] = -gap <= bounds[name] * abs(base)
    return out


def newest_earlier(number: int) -> tuple[int, dict] | None:
    """The newest ``BENCH_<k>.json`` in the repository root with k < number."""
    found = sorted((int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                   if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m.group(1)) < number)
    if not found:
        return None
    k, path = found[-1]
    return k, json.loads(path.read_text())


def ratios_to(earlier: dict, workload: str, summary: dict, names) -> dict | None:
    """Each side's medians over the earlier file's change medians, per metric."""
    try:
        ref = earlier["workloads"][workload]["change"]
    except KeyError:
        return None
    return {side: {name: summary[side][name]["median"] / ref[name]["median"]
                   for name in names if ref.get(name, {}).get("median")}
            for side in SIDES}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of the BENCH_<n>.json written")
    parser.add_argument("--first-seed", type=int, help="seed of pair 1 (default 100 n + 1)")
    parser.add_argument("--what", default="", help="one sentence on the change, stored as 'what'")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    first_seed = args.first_seed if args.first_seed is not None else 100 * args.number + 1
    seeds = list(range(first_seed, first_seed + PAIRS))
    seconds = spec["run_seconds"]
    parent_commit = _git("rev-parse", "HEAD").strip()
    earlier = newest_earlier(args.number)

    # The tree copies go with the directory, also when a run fails.
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        trees = export_trees(parent_commit, Path(workdir))
        sys.path.insert(0, str(trees["change"] / "bench"))
        from workloads import WORKLOADS  # noqa: E402  (the change's workload table)

        doc = {
            "what": args.what,
            "command": " ".join(bench_argv("W", "S", seconds, 0)),
            "parent_commit": parent_commit,
            "machine": (f"{os.cpu_count()}-core {platform.machine()}; "
                        f"Python {platform.python_version()}; PYTHONDONTWRITEBYTECODE=1, "
                        "so every run compiles the package from source"),
            "ratio": "change median / parent median",
            "workloads": {},
        }
        if earlier:
            doc[f"ratio_to_bench_{earlier[0]}"] = (
                f"this file's median / BENCH_{earlier[0]}.json's change median, per side")
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            order = []
            for i, seed in enumerate(seeds):
                sides = SIDES if i % 2 == 0 else SIDES[::-1]
                order.append(f"{sides[0]} first")
                for side in sides:
                    result = run_bench(trees[side], bench_argv(workload, seed, seconds, 0))
                    runs[side].append(result)
                    print(f"{workload} pair {i + 1} {side}: "
                          f"pass_s {result['metrics']['pass_s']['value']:.5f}", file=sys.stderr)
            entry = {
                "cli_argv": [list(inv.argv) for inv in WORKLOADS[workload].invocations],
                "bench_argv": bench_argv(workload, "S", seconds, 0),
                "seeds": seeds,
                "pairs": PAIRS,
                "order": order,
                **summarize(runs, better, bounds),
            }
            if earlier and (ratios := ratios_to(earlier[1], workload, entry, better)):
                entry[f"ratio_to_bench_{earlier[0]}"] = ratios
            doc["workloads"][workload] = entry

        trace = {"command": " ".join(bench_argv("W", TRACE_SEED, seconds, 1)),
                 "note": ("medians over traced passes of one run per side, run after the pairs; "
                          "seconds are wall time, not scaled, so compare them with "
                          "machine.kernel_s of the same run")}
        for workload in workloads:
            trace[workload] = {}
            for side in SIDES:
                result = run_bench(trees[side], bench_argv(workload, TRACE_SEED, seconds, 1))
                trace[workload][side] = {name: m["value"] for name, m in result["metrics"].items()}
        doc["per_layer_trace"] = trace
        doc["notes"] = []

        path = ROOT / f"BENCH_{args.number}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
