"""Record the reference output of every workload invocation into ``references/``.

    python3 bench/record_references.py

Runs each workload for its minimum number of passes with the program in this
tree and stores each output of the first pass xz-compressed. The committed references were recorded from ptomech
0.1.0; re-record only when an output is meant to change.
"""

from __future__ import annotations

import lzma
import sys
import tempfile
from pathlib import Path

from checker import REFERENCE_DIR, reference_path
from run import OUT, run_worker
from workloads import WORKLOADS


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            result = run_worker(workload.name, 0, 0.0, False, Path(tmp))
            fmts = {inv.name: inv.fmt for inv in workload.invocations}
            for name, code, digest, _ in result["passes"][0]["results"]:
                if code != 0:
                    print(f"{name} exited {code}; no reference recorded", file=sys.stderr)
                    return 1
                data = (Path(tmp) / f"{name}.{digest}.{fmts[name]}").read_bytes()
                reference_path(name, fmts[name]).write_bytes(
                    lzma.compress(data, preset=9 | lzma.PRESET_EXTREME))
                print(f"recorded {name}: {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
