import math

import mpmath as mp
import numpy as np
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


# Long runs on the stable f = 0 line G = sqrt(gamma kappa) near gamma = kappa,
# and at the exceptional point gamma = kappa = G, where the number system's
# drift is one 3x3 Jordan block: (id, gamma/kappa, G/kappa, t_end in 1/kappa,
# samples), each with the largest relative error of the oracle's n_a and n_b
# against the 50-digit referee (None where it is within 1e-6). With the maps
# composed in float64 the two None runs read 6.8e-5 and 6.9e-5.
# np.longdouble, the dtype the oracle composes its maps in, is float64 under
# MSVC and on macOS arm64.
LONGDOUBLE_IS_FLOAT64 = np.finfo(np.longdouble).eps == np.finfo(float).eps

F0_LONG_RUNS = [
    ("f=0,gamma=0.99,t=1000", 0.99, math.sqrt(0.99), 1000.0, 200, None),
    ("f=0,gamma=0.999,t=2000,samples=2", 0.999, math.sqrt(0.999), 2000.0, 2, 4.1e-5),
    ("f=0,gamma=0.999,t=2000", 0.999, math.sqrt(0.999), 2000.0, 200, 5.8e-6),
    ("f=0,gamma=0.999,t=5000", 0.999, math.sqrt(0.999), 5000.0, 200, 2.4e-3),
    ("f=0,gamma=0.9999,t=1000", 0.9999, math.sqrt(0.9999), 1000.0, 200, 1.6e-6),
    ("f=0,gamma=0.99999,t=1000", 0.99999, math.sqrt(0.99999), 1000.0, 200, None),
    ("EP,t=1000", 1.0, 1.0, 1000.0, 200, 1.01e-6),
    ("EP,t=5000,samples=2", 1.0, 1.0, 5000.0, 2, 1.6e-3),
    ("EP,t=5000", 1.0, 1.0, 5000.0, 200, 1.8e-3),
]


def params_at(gamma_over_kappa: float, G_over_kappa: float):
    return make_params(
        KAPPA, gamma_over_kappa * KAPPA, G_over_kappa * KAPPA, OMEGA1, MASS
    )


@pytest.fixture
def coherent_init():
    return CoherentInit.from_polar(2.0, math.pi / 6.0, 2.0, math.pi / 3.0)


def mp_reference(params, init, t_kappa) -> dict:
    """50-digit n_a, n_b and their stimulated (st) and spontaneous (sp) parts
    on a uniform grid t_kappa (units of 1/kappa), as float arrays by field name.

    One mp.expm per grid step of the oracle's augmented 8x8 real system on
    (Re<a>, Im<a>, Re<b>, Im<b>, n_a, n_b, Im<a^dag b>, 1): the first-moment
    block is built from the complex drift [[-1 - i w1, iG], [iG, g - i w1]],
    the number block carries the 2*gamma source in its last column. The
    coherent state gives the first moments, so n_st = |<a>|^2, |<b>|^2, and
    the totals; the vacuum with source weight 1 gives the spontaneous parts.
    """
    with mp.workdps(50):
        kappa = mp.mpf(params.kappa)
        g, G = mp.mpf(params.gamma) / kappa, mp.mpf(params.coupling_G) / kappa
        w = mp.mpf(params.omega1) / kappa
        drift = mp.zeros(8, 8)
        first = [[-1 - 1j * w, 1j * G], [1j * G, g - 1j * w]]
        for i in range(2):
            for j in range(2):
                c = mp.mpc(first[i][j])
                drift[2 * i, 2 * j], drift[2 * i, 2 * j + 1] = c.real, -c.imag
                drift[2 * i + 1, 2 * j], drift[2 * i + 1, 2 * j + 1] = c.imag, c.real
        numbers = [[-2, 0, -2 * G, 0], [0, 2 * g, 2 * G, 2 * g], [G, -G, g - 1, 0]]
        for i, row in enumerate(numbers):
            for j, value in enumerate(row):
                drift[4 + i, 4 + j] = value
        alpha, beta = mp.mpc(init.alpha), mp.mpc(init.beta)
        c0 = mp.conj(alpha) * beta
        coherent = mp.matrix([alpha.real, alpha.imag, beta.real, beta.imag,
                              alpha.real**2 + alpha.imag**2, beta.real**2 + beta.imag**2,
                              c0.imag, 1])
        vacuum = mp.matrix([0, 0, 0, 0, 0, 0, 0, 1])
        step = mp.expm(drift * (mp.mpf(t_kappa[1]) - mp.mpf(t_kappa[0])))
        rows = []
        for _ in t_kappa:
            st_a = coherent[0] ** 2 + coherent[1] ** 2
            st_b = coherent[2] ** 2 + coherent[3] ** 2
            rows.append([float(v) for v in (coherent[4], coherent[5], st_a, st_b,
                                            vacuum[4], vacuum[5])])
            coherent, vacuum = step * coherent, step * vacuum
    names = ("n_a", "n_b", "n_a_st", "n_b_st", "n_a_sp", "n_b_sp")
    return dict(zip(names, np.array(rows).T))
