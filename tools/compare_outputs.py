"""Run a fixed list of CLI calls on HEAD and on the working tree and compare them.

    python3 tools/compare_outputs.py

Each side runs from a clean copy of its tree, built as ``tools/bench_pairs.py``
builds its sides: HEAD from ``git archive``, the change from the working
tree's tracked and untracked, not ignored files. Every call runs in its own
process, ``ptomech.cli.main`` from the side's ``src`` with
``PYTHONDONTWRITEBYTECODE=1``. The calls are the benchmark's workload calls
and probes (``bench/workloads.py`` of the working tree) and ``EDGE_CALLS``.
Per call the script compares the exit code, the stderr text and the sha256 of
the stdout bytes, prints each call that differs and exits 1 if any does, 0
if none does.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "bench"))

from bench_pairs import _git, export_trees  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Outputs the workloads do not reach: JSON, --precision 1, 3 and 17, the
# one-row tables (steady at a point, --show-preset), a steady curve, the
# overflow run, the exceptional point, classify and an invalid call.
EDGE_CALLS = [
    ("figure", "3a", "--format", "json"),
    ("figure", "3e", "--precision", "1"),
    ("figure", "3c", "--precision", "3", "--format", "json"),
    ("figure", "4top", "--precision", "17"),
    ("figure", "3f", "--precision", "17", "--format", "json"),
    ("figure", "6a"),
    ("figure", "3a", "--show-preset"),
    ("figure", "3e", "--show-preset", "--precision", "1", "--format", "json"),
    ("figure", "6b", "--show-preset", "--precision", "17"),
    ("evolve", "--gamma", "1.8", "--G", "1.2", "--t-end", "15", "--format", "json"),
    ("evolve", "--gamma", "1.8", "--G", "1.2", "--t-end", "400", "--samples", "2"),
    ("evolve", "--gamma", "1.8", "--G", "1.2", "--t-end", "400", "--samples", "2",
     "--format", "json", "--precision", "1"),
    ("evolve", "--gamma", "1.0", "--G", "1.0", "--t-end", "1000", "--samples", "2"),
    ("steady", "--gamma", "0.6", "--G", "1.2"),
    ("steady", "--gamma", "0.6", "--G", "1.2", "--format", "json", "--precision", "17"),
    ("steady", "--sweep", "G", "--gamma", "0.6", "--sweep-min", "0", "--sweep-max", "2"),
    ("sweep", "--format", "json"),
    ("sweep", "--precision", "1"),
    ("sweep", "--precision", "17", "--gamma-res", "21", "--G-res", "21"),
    ("classify", "--gamma", "0.6", "--G", "1.2"),
    ("classify", "--gamma", "1.0", "--G", "1.0", "--format", "json"),
    ("evolve", "--gamma", "-1", "--G", "1"),
]
MAIN = "import sys; from ptomech.cli import main; sys.exit(main(sys.argv[1:]))"


def calls() -> list[tuple[str, ...]]:
    """The workloads' calls and probes, then ``EDGE_CALLS``, each once."""
    found = [inv.argv for w in WORKLOADS.values() for inv in (*w.invocations, *w.probes)]
    return list(dict.fromkeys(found + EDGE_CALLS))


def outcome(tree: Path, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """(exit code, stderr, sha256 of stdout) of one CLI call run from ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=tree, env=env,
                          capture_output=True)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    return proc.returncode, proc.stderr.decode(errors="replace"), digest


def differences(parent: dict, change: dict) -> list[str]:
    """One line per call whose outcome differs between the two sides, naming
    what differs; both map each argv tuple to its :func:`outcome`."""
    lines = []
    for argv in parent.keys() | change.keys():
        old, new = parent.get(argv), change.get(argv)
        if old == new:
            continue
        if old is None or new is None:
            what = ["missing on the " + ("parent" if old is None else "change") + " side"]
        else:
            what = [f"{field} {a!r} -> {b!r}"
                    for field, a, b in zip(("exit", "stderr", "stdout sha256"), old, new) if a != b]
        lines.append(f"{' '.join(argv)}: " + "; ".join(what))
    return sorted(lines)


def main() -> int:
    todo = calls()
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as workdir:
        trees = export_trees(_git("rev-parse", "HEAD").strip(), Path(workdir))
        results = {side: {argv: outcome(tree, argv) for argv in todo}
                   for side, tree in trees.items()}
    lines = differences(results["parent"], results["change"])
    for line in lines:
        print(line)
    print(f"{len(todo)} calls, {len(lines)} differ", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
