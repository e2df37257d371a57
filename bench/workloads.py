"""The benchmark's workloads: fixed CLI invocations, run as passes.

Each workload is a list of ``ptomech`` command lines whose outputs are checked
against references recorded from ptomech 0.1.0 (``references/``). A
workload may also carry contract probes: invocations with no valid reference
that are checked once per run against the documented CLI contract instead,
outside the timed passes (see ``run.py`` for why they are not timed).

The benchmark seed only shuffles the order of invocations within a pass; the
inputs themselves never change, so outputs stay comparable to the references.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call: a stable name (also its reference file stem) and its argv."""

    name: str
    argv: tuple[str, ...]

    @property
    def fmt(self) -> str:
        return "json" if "json" in self.argv else "csv"


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    probes: tuple[Invocation, ...] = ()


# One preset per distinct (gamma, G) point of figures 3-5: regions 1-6, the
# equal-gain closed form (3b, 4bot) and the f = 0 oracle fallback (3e).
TRAJECTORY_PRESETS = ("3a", "3b", "3c", "3d", "3e", "3f", "4bot", "5c")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="trajectories",
            invocations=tuple(Invocation(f"figure-{p}", ("figure", p)) for p in TRAJECTORY_PRESETS),
            # Reaches the 1e12 overflow guard; the documented contract is exit 0
            # with a truncated_at_t footer.
            probes=(Invocation("evolve-long-horizon",
                               ("evolve", "--gamma", "1.8", "--G", "1.2", "--t-end", "15")),),
        ),
        # Classification and CSV row formatting, no oracle: where vectorised
        # classification and output show, and where a faster oracle must not.
        Workload(
            name="phase_grid",
            invocations=(Invocation("sweep-csv", ("sweep",)),),
        ),
        # One stored sample per RK4 step (chunk = 1) and 3.5 MB of JSON: no steps
        # between samples to compose, so per-sample and JSON costs show.
        Workload(
            name="dense_trajectory",
            invocations=(Invocation("evolve-dense-json",
                                    ("evolve", "--gamma", "1.0", "--G", "0.8", "--t-end", "0.5",
                                     "--samples", "11400", "--format", "json")),),
        ),
    )
}
