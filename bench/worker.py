"""Closed-loop client: one process, no extra threads, ``ptomech.cli.main`` back to back.

Usage: worker.py PLAN_JSON, where the plan names the workload, seed, seconds,
trace flag, the ``src`` directory to import ``ptomech`` from and the directory
outputs go to, which becomes the working directory so that the ``--out``
path echoed in JSON output does not depend on where the benchmark runs.
Each call writes its output with ``--out``; after each pass,
outside the timed region, every output file is renamed to
``<invocation>.<sha256 prefix>.<fmt>`` (or deleted if that content is already
kept), so the caller checks each distinct output once.

A calibration kernel runs before the first call of a pass and after each
call, outside the timed calls, so each call's time can be scaled to the
machine's quiet speed (see calibration.py).

Passes run while the next one is expected to end within ``seconds`` (at
least ``MIN_PASSES``). With tracing on, passes alternate
untraced and traced, starting untraced, so one process measures both and the
tracing overhead. Contract probes run once at the end, untimed. The last line
of stdout is a JSON result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibration import NOMINAL_S, kernel_seconds
from workloads import WORKLOADS, Invocation

# Enough for a median, and for a traced and an untraced pass with --trace 1.
MIN_PASSES = 3


def _call(cli, inv: Invocation, out: Path) -> int:
    """Exit code a user would see for this invocation."""
    try:
        return cli.main([*inv.argv, "--out", str(out)])
    except SystemExit as exc:  # argparse errors and bad PTOM_* values exit this way
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaped exception is a traceback and exit 1 for a user
        print(f"bench: {inv.name} raised {exc!r}", file=sys.stderr)
        return 1


def _keep(inv: Invocation, path: Path) -> tuple[str | None, int]:
    if not path.exists():
        return None, 0
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()[:16]
    dest = Path(f"{inv.name}.{digest}.{inv.fmt}")
    if dest.exists():
        path.unlink()
    else:
        path.rename(dest)
    return digest, len(data)


def _run(cli, invocations, tracer=None, pass_no: int = 0) -> dict:
    """Call each invocation once, between calibration kernels.

    Returns the pass's wall time (calls only), the same time scaled to the
    machine's quiet speed (see calibration.py), the median kernel time and
    [[name, exit, digest, bytes], ...] per call.
    """
    pending = [Path(f"pending.{i}.{inv.fmt}") for i, inv in enumerate(invocations)]
    codes, walls = [], []
    gc.collect()  # garbage of the previous pass is not collected inside this one
    kernels = [kernel_seconds()]
    with tracer.installed() if tracer else nullcontext():
        for inv, path in zip(invocations, pending):
            if tracer:
                tracer.invocation = f"{pass_no}/{inv.name}"
            start = time.perf_counter()
            codes.append(_call(cli, inv, path))
            walls.append(time.perf_counter() - start)
            kernels.append(kernel_seconds())
    scaled = sum(wall * 2.0 * NOMINAL_S / (before + after)
                 for wall, before, after in zip(walls, kernels, kernels[1:]))
    return {
        "traced": tracer is not None,
        "seconds": sum(walls),
        "scaled_s": scaled,
        "kernel_s": statistics.median(kernels),
        "results": [[inv.name, code, *_keep(inv, path)]
                    for inv, path, code in zip(invocations, pending, codes)],
    }


def main(plan: dict) -> dict:
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    from ptomech import cli  # noqa: E402 - imported from the plan's source tree

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: ptomech imported from {cli.__file__}, not from {src}")
    tracer = None
    if plan["trace"]:
        from tracer import Tracer, totals_by_group  # imports ptomech, so after the path is set

        tracer = Tracer()

    workload = WORKLOADS[plan["workload"]]
    os.chdir(plan["outdir"])
    rng = random.Random(plan["seed"])
    passes = []
    start = time.perf_counter()
    last = 0.0
    # Stop before a pass that would end past the deadline, once MIN_PASSES ran.
    while len(passes) < MIN_PASSES or time.perf_counter() - start + last <= plan["seconds"]:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(workload.invocations)
        rng.shuffle(order)
        begun = time.perf_counter()
        passes.append(_run(cli, order, tracer if traced else None, len(passes)))
        last = time.perf_counter() - begun
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes = _run(cli, workload.probes)["results"]

    result = {"passes": passes, "probes": probes, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        Path(plan["spans_path"]).write_text(json.dumps(tracer.spans))
        by_pass = totals_by_group(tracer.spans, lambda s: int(s["invocation"].split("/")[0]))
        result["layers"] = [by_pass.get(i, {}) for i, p in enumerate(passes) if p["traced"]]
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
