"""Named parameter presets for the trajectory and steady-state figures.

Every preset shares the common point kappa = 6.45 MHz, m = 5e-11 kg,
omega1 = 2*pi*23.4 MHz and the initial coherent amplitudes
alpha = 2*exp(i*pi/6), beta = 2*exp(i*pi/3); rates below are in units of kappa.
"""

from __future__ import annotations

import math

from .model import Record

KAPPA_HZ_DEFAULT = 6.45e6
MASS_DEFAULT = 5e-11
OMEGA1_OVER_KAPPA_DEFAULT = 2.0 * math.pi * 23.4e6 / KAPPA_HZ_DEFAULT
ALPHA_MAG_DEFAULT = 2.0
ALPHA_PHASE_DEFAULT = math.pi / 6.0
BETA_MAG_DEFAULT = 2.0
BETA_PHASE_DEFAULT = math.pi / 3.0
T_END_DEFAULT = 10.0  # units of 1/kappa
SAMPLES_DEFAULT = 200


class FigurePreset(Record):
    """One named preset: either a time evolution or a steady-state sweep.

    ``kind`` is "evolve" or "steady_sweep"; gamma, G and the sweep range are in
    kappa units. Every field after ``description`` defaults to None.
    """

    __slots__ = ("name", "kind", "description", "gamma", "G", "sweep_param", "sweep_min",
                 "sweep_max", "sweep_points")
    _defaults = dict.fromkeys(__slots__[3:])


def _evolve(name: str, gamma: float, G: float, description: str) -> FigurePreset:
    return FigurePreset(name=name, kind="evolve", gamma=gamma, G=G, description=description)


_SQRT06 = math.sqrt(0.6)

PRESETS: dict[str, FigurePreset] = {
    p.name: p
    for p in [
        _evolve("3a", 0.6, 1.2, "displacement in the asymptotically stable PT regime (region 4)"),
        _evolve("3b", 1.0, 1.5, "displacement in the finite-time stable PT regime (region 6)"),
        _evolve("3c", 1.8, 2.1, "displacement in the unstable PT regime (region 2)"),
        _evolve("3d", 0.6, 0.798, "displacement in the asymptotically stable broken-PT regime (region 3)"),
        _evolve("3e", 0.6, _SQRT06, "displacement on the stable f=0 boundary curve (region 5)"),
        _evolve("3f", 1.8, 1.2, "displacement in the unstable broken-PT regime (region 1)"),
        _evolve("4top", 1.0, 1.5, "particle numbers at gain = loss in the PT regime (region 6)"),
        _evolve("4bot", 1.0, 0.8, "particle numbers at gain = loss in the broken-PT regime (region 1)"),
        _evolve("5a", 0.6, 1.2, "total particle numbers in the PT regime (region 4)"),
        _evolve("5b", 0.6, 0.798, "total particle numbers in the broken-PT regime (region 3)"),
        _evolve("5c", 0.6, 0.6, "total particle numbers in the unstable broken-PT regime (region 1)"),
        _evolve("5d", 0.6, 1.2, "stimulated particle numbers in the PT regime (region 4)"),
        _evolve("5e", 0.6, 0.798, "stimulated particle numbers in the broken-PT regime (region 3)"),
        _evolve("5f", 0.6, 0.6, "stimulated particle numbers in the unstable broken-PT regime (region 1)"),
        _evolve("5g", 0.6, 1.2, "spontaneous particle numbers in the PT regime (region 4)"),
        _evolve("5h", 0.6, 0.798, "spontaneous particle numbers in the broken-PT regime (region 3)"),
        _evolve("5i", 0.6, 0.6, "spontaneous particle numbers in the unstable broken-PT regime (region 1)"),
        FigurePreset(
            name="6a",
            kind="steady_sweep",
            gamma=0.6,
            sweep_param="G",
            sweep_min=0.8,
            sweep_max=20.0,
            sweep_points=193,
            description="steady numbers vs G/kappa at gamma = 0.6 kappa",
        ),
        FigurePreset(
            name="6b",
            kind="steady_sweep",
            G=0.798,
            sweep_param="gamma",
            sweep_min=0.0,
            sweep_max=0.6,
            sweep_points=61,
            description="steady numbers vs gamma/kappa at G = 0.798 kappa",
        ),
    ]
}
