"""Exact closed-form dynamics: displacement, finite-time amplitude, particle numbers.

Every formula is evaluated once, in complex arithmetic, for both the
PT-symmetric and broken-PT regimes: cosh/sinh of an imaginary argument turn
into sinusoids automatically, so no case split is needed. Removable
singularities at vanishing square-root arguments (the transition line) are
handled by series-regularized helpers sinh(z)/z, (cosh(z)-1)/z^2 and
(sinh(z)-z)/z^3, switching to their Taylor expansions for |z| < 1e-4.

Closed-form outputs are mathematically real; each is asserted to carry at most
a 1e-10 relative imaginary residue before being truncated to its real part,
which catches transcription errors early.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .model import CoherentInit, NumberSplit, SystemParams

__all__ = [
    "NumberSplit",
    "displacement",
    "finite_time_amplitude",
    "first_moments_closed_form",
    "numbers_equal_gain",
    "numbers_unequal_gain",
    "steady_numbers",
    "EQUAL_GAIN_TOL",
    "WARNING_BAND_TOL",
]

# |gamma-kappa|/kappa at or below this dispatches to the equal-gain forms.
EQUAL_GAIN_TOL = 1e-8
# Between EQUAL_GAIN_TOL and this, the unequal-gain forms lose precision
# (cancellation in 1/d); callers should prefer the numeric oracle there.
WARNING_BAND_TOL = 1e-4

_SERIES_CUTOFF = 1e-4
_IMAG_RESIDUE_TOL = 1e-10


def _sinhc(z: np.ndarray) -> np.ndarray:
    """sinh(z)/z, Taylor series below the cutoff; works for complex z."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    direct = np.sinh(safe) / safe
    z2 = z * z
    series = 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0)
    return np.where(small, series, direct)


def _coshm1(z: np.ndarray) -> np.ndarray:
    """(cosh(z) - 1)/z^2, Taylor series below the cutoff."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    direct = (np.cosh(safe) - 1.0) / (safe * safe)
    z2 = z * z
    series = 0.5 + z2 / 24.0 * (1.0 + z2 / 30.0)
    return np.where(small, series, direct)


def _sinhm3(z: np.ndarray) -> np.ndarray:
    """(sinh(z) - z)/z^3, Taylor series below the cutoff."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    direct = (np.sinh(safe) - safe) / (safe * safe * safe)
    z2 = z * z
    series = 1.0 / 6.0 + z2 / 120.0 * (1.0 + z2 / 42.0)
    return np.where(small, series, direct)


def _as_real(value: np.ndarray, what: str) -> np.ndarray | float:
    """Assert the imaginary residue is negligible, then truncate to real."""
    value = np.asarray(value)
    scale = np.maximum(np.abs(value), 1.0)
    residue = np.max(np.abs(value.imag) / scale)
    if residue > _IMAG_RESIDUE_TOL:
        raise AssertionError(
            f"{what}: imaginary residue {residue:.3e} exceeds {_IMAG_RESIDUE_TOL:.0e}; "
            "closed form is inconsistent"
        )
    out = value.real
    return float(out) if out.ndim == 0 else out


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        raise ValueError("t must be finite and >= 0")
    return t


def first_moments_closed_form(
    params: SystemParams, init: CoherentInit, t
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form <a>(t), <b>(t) on resonance; t in seconds (scalar or array).

    <b>(t) = exp[(gamma-kappa-2i*omega1)t/2] * [beta*cosh(Omega*t/2)
             + (beta*(gamma+kappa) + 2i*G*alpha) * (t/2) * sinhc(Omega*t/2)]
    and symmetrically for <a> with alpha <-> beta, gain <-> loss.
    """
    t = _check_time(t)
    k, g, G = params.kappa, params.gamma, params.coupling_G
    Om = params.Omega
    alpha, beta = complex(init.alpha), complex(init.beta)

    half_t = 0.5 * t
    envelope = np.exp((0.5 * (g - k) - 1j * params.omega1) * t)
    ch = np.cosh(Om * half_t)
    shc = half_t * _sinhc(Om * half_t)  # sinh(Omega*t/2)/Omega, regular at Omega=0
    a = envelope * (alpha * ch + (2j * G * beta - (g + k) * alpha) * shc)
    b = envelope * (beta * ch + (2j * G * alpha + (g + k) * beta) * shc)
    return a, b


def displacement(params: SystemParams, init: CoherentInit, t) -> float | np.ndarray:
    """Average mechanical displacement x(t) in meters; t in seconds.

    Evaluated from the closed-form <b>(t) as x = x_zpf*(<b> + <b>*); the
    removable singularity at the transition line (Omega = 0) is handled by the
    sinhc path.
    """
    _, b = first_moments_closed_form(params, init, t)
    x = params.x_zpf * 2.0 * b.real
    return float(x) if x.ndim == 0 else x


def finite_time_amplitude(
    params: SystemParams, init: CoherentInit, tol: float = 1e-9
) -> float:
    """Late-time constant oscillation amplitude on the f = 0, gamma < kappa curve, meters.

    A_s = 2/(kappa-gamma) * x_zpf * sqrt(kappa^2|beta|^2 + kappa*gamma|alpha|^2
          - i*kappa*sqrt(kappa*gamma)(alpha* beta - beta* alpha)).
    The bracket is a real nonnegative combination (it equals |kappa*beta + iG*alpha|^2).
    """
    k, g, G = params.kappa, params.gamma, params.coupling_G
    if abs(params.f) / k**2 > tol:
        raise ValueError(
            f"finite_time_amplitude requires f = G^2 - gamma*kappa = 0 "
            f"(got f/kappa^2 = {params.f / k**2:.3e})"
        )
    if g / k >= 1.0 - tol:
        raise ValueError(f"finite_time_amplitude requires gamma < kappa (got gamma/kappa = {g / k})")
    alpha, beta = complex(init.alpha), complex(init.beta)
    bracket = (
        k * k * abs(beta) ** 2
        + k * g * abs(alpha) ** 2
        - 1j * k * math.sqrt(k * g) * (alpha.conjugate() * beta - beta.conjugate() * alpha)
    )
    value = _as_real(bracket, "finite_time_amplitude bracket")
    return 2.0 / (k - g) * params.x_zpf * math.sqrt(max(value, 0.0))


def _delta(G: float, alpha: complex, beta: complex) -> complex:
    """G*(alpha* beta - beta* alpha); purely imaginary."""
    return G * (alpha.conjugate() * beta - beta.conjugate() * alpha)


def numbers_equal_gain(
    params: SystemParams, init: CoherentInit, t, tol: float = EQUAL_GAIN_TOL
) -> NumberSplit:
    """Particle numbers for gain = loss (gamma = kappa); t in seconds.

    Uses Omega_1 = sqrt(kappa^2 - G^2), C_1 = cosh(2*Omega_1*t),
    S_1 = sinh(2*Omega_1*t) and the coefficients m_1, o_1..o_4,
    delta = G(alpha* beta - beta* alpha), factored through the regular helpers
    so the exceptional point Omega_1 = 0 needs no special case:

        n_a_st = |alpha|^2 + 2 o_1 t^2 (C_1-1)/(2 Omega_1 t)^2
                 + (i delta - 2 kappa |alpha|^2) t sinhc(2 Omega_1 t)
        n_a_sp = 4 kappa G^2 t^3 * (S_1 - 2 Omega_1 t)/(2 Omega_1 t)^3
        n_b_sp = 4 kappa^3 t^3 * (...) + kappa t (1 + sinhc(2 Omega_1 t))
                 + 4 kappa^2 t^2 (C_1-1)/(2 Omega_1 t)^2
    """
    k, g, G = params.kappa, params.gamma, params.coupling_G
    if abs(g - k) / k > tol:
        raise ValueError(
            f"numbers_equal_gain requires |gamma-kappa|/kappa <= {tol:.0e} "
            f"(got {abs(g - k) / k:.3e}); use numbers_unequal_gain"
        )
    t = _check_time(t)
    alpha, beta = complex(init.alpha), complex(init.beta)
    A2, B2 = abs(alpha) ** 2, abs(beta) ** 2
    delta = _delta(G, alpha, beta)
    k2, G2 = k * k, G * G
    Om1_sq = k2 - G2  # Omega_1^2, real in either regime

    # Omega_1 itself only ever appears inside the even/odd regular combinations.
    Om1 = cmath.sqrt(Om1_sq)
    w = 2.0 * Om1 * t
    cm = _coshm1(w)  # (C_1 - 1)/w^2
    sc = _sinhc(w)  # S_1/w
    sm = _sinhm3(w)  # (S_1 - w)/w^3

    o1 = (k2 + Om1_sq) * A2 + G2 * B2 - 1j * k * delta
    o3 = (k2 + Om1_sq) * B2 + G2 * A2 - 1j * k * delta
    t2 = t * t
    na_st = A2 + 2.0 * o1 * t2 * cm + (1j * delta - 2.0 * k * A2) * t * sc
    nb_st = B2 + 2.0 * o3 * t2 * cm + (-1j * delta + 2.0 * k * B2) * t * sc
    na_sp = 4.0 * k * G2 * t2 * t * sm
    nb_sp = 4.0 * k * k2 * t2 * t * sm + k * t + 4.0 * k2 * t2 * cm + k * t * sc

    return NumberSplit(
        t=t if t.ndim else float(t),
        n_a_st=_as_real(na_st, "n_a_st (equal gain)"),
        n_b_st=_as_real(nb_st, "n_b_st (equal gain)"),
        n_a_sp=_as_real(na_sp, "n_a_sp (equal gain)"),
        n_b_sp=_as_real(nb_sp, "n_b_sp (equal gain)"),
    )


def numbers_unequal_gain(
    params: SystemParams, init: CoherentInit, t, tol: float = EQUAL_GAIN_TOL
) -> NumberSplit:
    """Particle numbers for gain != loss; t in seconds.

    Uses E_t = exp[(gamma-kappa)t], C = cosh(Omega t), S = sinh(Omega t) and the
    coefficient block d = 4(gamma-kappa)f, m_2, l_1..l_4, factored through the
    regular helpers so the transition line Omega = 0 needs no special case.
    Rejects d ~ 0: for |gamma-kappa|/kappa <= tol use :func:`numbers_equal_gain`,
    and on the f = 0 curve the closed form degenerates (secular growth), so use
    the numeric oracle there.
    """
    k, g, G = params.kappa, params.gamma, params.coupling_G
    if abs(g - k) / k <= tol:
        raise ValueError(
            f"numbers_unequal_gain requires |gamma-kappa|/kappa > {tol:.0e}; "
            "use numbers_equal_gain"
        )
    if abs(params.f) / k**2 <= tol:
        raise ValueError(
            "numbers_unequal_gain is singular on the f = 0 curve (d = 4(gamma-kappa)f ~ 0); "
            "integrate the moment ODEs instead"
        )
    t = _check_time(t)
    alpha, beta = complex(init.alpha), complex(init.beta)
    A2, B2 = abs(alpha) ** 2, abs(beta) ** 2
    delta = _delta(G, alpha, beta)
    G2 = G * G
    f = params.f
    gk = g - k
    gpk = g + k
    Om = params.Omega
    Om_sq = gpk * gpk - 4.0 * G2  # Omega^2, real in either regime

    w = Om * t
    cm = _coshm1(w)  # (C - 1)/w^2
    sc = _sinhc(w)  # S/w
    Et = np.exp(gk * t)
    t2 = t * t
    d = 4.0 * gk * f

    na_st = Et * (
        A2
        + ((Om_sq + 2.0 * G2) * A2 + 2.0 * G2 * B2 - 1j * gpk * delta) * t2 * cm
        + (1j * delta - gpk * A2) * t * sc
    )
    nb_st = Et * (
        B2
        + (2.0 * G2 * A2 + (Om_sq + 2.0 * G2) * B2 - 1j * gpk * delta) * t2 * cm
        + (gpk * B2 - 1j * delta) * t * sc
    )
    na_sp = (4.0 * g * G2 / d) * (Et * (1.0 + gk * gk * t2 * cm - gk * t * sc) - 1.0)
    a0 = gk * gk - k * Om_sq * gk / G2
    nb_sp = (4.0 * g * G2 / d) * Et * (
        a0 * t2 * cm + (f + k * k) / G2 - ((k * k - f) * gk / G2) * t * sc
    ) - 4.0 * g * (k * k + f) / d
    # The t = 0 decomposition of a coherent state is exact; pin it so the large
    # constant terms of the spontaneous parts cannot leave a cancellation residue
    # (or a negative zero).
    na_sp = np.where(t == 0.0, 0.0, na_sp)
    nb_sp = np.where(t == 0.0, 0.0, nb_sp)

    return NumberSplit(
        t=t if t.ndim else float(t),
        n_a_st=_as_real(na_st, "n_a_st (unequal gain)"),
        n_b_st=_as_real(nb_st, "n_b_st (unequal gain)"),
        n_a_sp=_as_real(na_sp, "n_a_sp (unequal gain)"),
        n_b_sp=_as_real(nb_sp, "n_b_sp (unequal gain)"),
    )


def steady_numbers(params: SystemParams, tol: float = 1e-9) -> tuple[float, float]:
    """Equilibrium particle numbers (n_a_s, n_b_s) in the asymptotically stable regime.

    n_a_s = G^2 gamma / ((kappa-gamma) f) and n_b_s = n_a_s + kappa*gamma/f,
    independent of the initial state. Requires f > 0 and gamma < kappa; no
    finite steady state exists elsewhere.
    """
    k, g = params.kappa, params.gamma
    f = params.f
    if f / k**2 <= tol:
        raise ValueError(
            f"no finite steady state: requires f = G^2 - gamma*kappa > 0 "
            f"(got f/kappa^2 = {f / k**2:.3e})"
        )
    if g / k >= 1.0 - tol:
        raise ValueError(
            f"no finite steady state: requires gamma < kappa (got gamma/kappa = {g / k})"
        )
    n_a_s = params.coupling_G**2 * g / ((k - g) * f)
    n_b_s = n_a_s + k * g / f
    return n_a_s, n_b_s
