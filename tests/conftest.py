import math

import pytest
from hypothesis import strategies as st

from ptomech import CoherentInit, make_params

# Common absolute scale used throughout: kappa = 6.45 MHz, omega1 = 2*pi*23.4 MHz,
# m = 5e-11 kg, initial state alpha = 2 exp(i pi/6), beta = 2 exp(i pi/3).
KAPPA = 6.45e6
OMEGA1 = 2.0 * math.pi * 23.4e6
MASS = 5e-11

# The six trajectory parameter sets (gamma/kappa, G/kappa) with their regions.
TRAJECTORY_SETS = [
    ("3a", 0.6, 1.2, 4),
    ("3b", 1.0, 1.5, 6),
    ("3c", 1.8, 2.1, 2),
    ("3d", 0.6, 0.798, 3),
    ("3e", 0.6, math.sqrt(0.6), 5),
    ("3f", 1.8, 1.2, 1),
]

# The regime rule's default tolerance, in kappa units.
TOL = 1e-9
# Offsets of -/+ tol*(1 -/+ 1e-3) from a line: just inside and just outside its band.
_OFFSETS = st.sampled_from([0.0] + [s * TOL * (1.0 + e) for s in (-1, 1) for e in (-1e-3, 1e-3)])
_PLANE = st.floats(0.0, 2.5)
# (gamma/kappa, G/kappa): open-plane points mixed with points on (or offset from)
# gamma = kappa, f = 0 (G = sqrt(gamma kappa)) and the transition line G = (gamma+kappa)/2.
RULE_POINTS = st.tuples(_PLANE, _PLANE) | st.tuples(_PLANE, _OFFSETS).flatmap(
    lambda go: st.sampled_from([
        (1.0 + go[1], go[0]),
        (go[0], math.sqrt(max(go[0] + go[1], 0.0))),
        (go[0], max(0.5 * (1.0 + go[0]) + go[1], 0.0)),
    ]))


def params_at(gamma_over_kappa: float, G_over_kappa: float):
    return make_params(
        KAPPA, gamma_over_kappa * KAPPA, G_over_kappa * KAPPA, OMEGA1, MASS
    )


@pytest.fixture
def coherent_init():
    return CoherentInit.from_polar(2.0, math.pi / 6.0, 2.0, math.pi / 3.0)
