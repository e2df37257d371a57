"""Exact closed-form dynamics: displacement, finite-time amplitude, particle numbers.

Every formula holds on the whole (gamma, G) plane with one expression: gain
above, at or below loss, the PT-symmetric and broken-PT regimes, the
transition line Omega = 0, the f = G^2 - gamma*kappa = 0 curve and the
exceptional point gamma = kappa = G. Each is evaluated once, in complex
arithmetic: Omega = sqrt((gamma+kappa)^2 - 4G^2) is real in the broken-PT
regime and imaginary in the PT-symmetric one, and exponentials of imaginary
arguments are sinusoids, so no regime needs its own branch.

No formula divides by a difference of drift eigenvalues (Omega, gamma -
kappa or gamma - kappa +- Omega), since those vanish on the transition line,
on gamma = kappa and on f = 0. The one special function is

    p(z) = (e^z - 1)/z = integral_0^1 e^(z s) ds,   p(0) = 1,

evaluated with expm1. It is entire and loses no digits near z = 0, so:

- The first moments are e^(lambda_-t), e^(lambda_+t) and
  (e^(lambda_+t) - e^(lambda_-t))/Omega = e^(lambda_+t) t p(-Omega t)
  (lambda_+- = (gamma-kappa+-Omega)/2 - i*omega1, Re Omega >= 0) times
  coefficients free of cancellation. They are regular at Omega = 0 and
  overflow only where the moment itself does.
- The spontaneous numbers are 2*gamma*integral_0^t |U(s)|^2 ds, and |U(s)|^2
  is a sum of e^((gamma-kappa)s) and e^((gamma-kappa+-Omega)s). Integrated,
  these give t p(u) and t p(u+-w) (u = (gamma-kappa)t, w = Omega t), which
  combine into p(u) and the divided differences
  S1 = [p(u+w) - p(u-w)]/(2w) and S2 = [p(u+w) + p(u-w) - 2p(u)]/(2w^2),
  regular at u = 0 (gamma = kappa) and at u = +-w (f = 0).

Only S1 and S2 lose digits, and only where |w| is small against max(1, -u).
There they are summed as Taylor series in w whose coefficients are
p^(k)(u) = integral_0^1 s^k e^(u s) ds: by Gauss-Legendre quadrature for
|u| < 10, by the forward recurrence p^(k) = (e^u - k p^(k-1))/u (stable for
|u| >= 10) beyond.

Every returned value is checked: a non-finite value, or an imaginary residue
above 1e-10 relative in a value that is mathematically real, raises
:class:`ClosedFormError` naming the quantity (and, for a non-finite value, the
first time at which it overflows).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import CoherentInit, NumberSplit, SystemParams
from .spectrum import DEFAULT_TOL, check_tol

__all__ = [
    "ClosedFormError",
    "NumberSplit",
    "displacement",
    "finite_time_amplitude",
    "first_moments_closed_form",
    "numbers",
    "steady_numbers",
]

_IMAG_RESIDUE_TOL = 1e-10
# S1 and S2 switch to their Taylor series for |w| < _TAYLOR_W * max(1, -u). Over
# the _TAYLOR_TERMS terms kept, the first term dropped is below (w/max(1, -u))^10
# ~ 6e-16 relative, and the direct forms lose at most ~eps/_TAYLOR_W^2 ~ 3e-13.
_TAYLOR_W = 0.03
_TAYLOR_TERMS = 5
_RECIPROCAL_FACTORIALS = np.array([1.0 / math.factorial(k) for k in range(2 * _TAYLOR_TERMS + 1)])
_QUAD_MAX_U = 10.0


class ClosedFormError(ValueError):
    """A closed form produced a non-finite value (overflow) or an inconsistent one."""


def _as_real(value, what: str, t=None) -> np.ndarray | float:
    """Check a closed-form value (finite, negligible imaginary part) and return its real part.

    ``t`` is the time grid ``value`` was evaluated on; a non-finite value is
    reported with the first time at which it occurs.
    """
    value = np.asarray(value)
    finite = np.isfinite(value)
    if not np.all(finite):
        if t is None:
            raise ClosedFormError(f"{what} is not finite")
        horizon = float(np.min(np.broadcast_to(t, value.shape)[~finite]))
        raise ClosedFormError(f"{what} is not finite from t = {horizon:.6e} s on (overflow horizon)")
    scale = np.maximum(np.abs(value), 1.0)
    residue = np.max(np.abs(value.imag) / scale, initial=0.0)
    # Written so that a NaN residue fails too.
    if not residue <= _IMAG_RESIDUE_TOL:
        raise ClosedFormError(
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


def _p(z) -> np.ndarray:
    """p(z) = (e^z - 1)/z, with p(0) = 1; complex z."""
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


@functools.cache
def _quadrature() -> tuple[np.ndarray, np.ndarray]:
    """20-point Gauss-Legendre nodes and weights on [0, 1], by Golub-Welsch.

    They integrate s^k e^(u s), k <= 10, to ~2e-15 relative for |u| < 10.
    """
    k = np.arange(1.0, 20.0)
    off_diagonal = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


def _p_derivatives(u: np.ndarray, order: int) -> np.ndarray:
    """p^(k)(u) = integral_0^1 s^k e^(u s) ds for k = 0..order (rows), real 1-d u."""
    out = np.empty((order + 1, len(u)))
    quad = np.abs(u) < _QUAD_MAX_U
    if np.any(quad):
        nodes, weights = _quadrature()
        powers = nodes ** np.arange(order + 1)[:, None]
        out[:, quad] = powers @ (weights[:, None] * np.exp(np.outer(nodes, u[quad])))
    rec = ~quad
    if np.any(rec):
        v = u[rec]
        e = np.exp(v)
        out[0, rec] = np.expm1(v) / v
        for k in range(1, order + 1):
            out[k, rec] = (e - k * out[k - 1, rec]) / v
    return out


def _divided_differences(u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p(u), S1 = [p(u+w) - p(u-w)]/(2w) and S2 = [p(u+w) + p(u-w) - 2p(u)]/(2w^2).

    Real 1-d u, complex w of the same length (real or imaginary). S1 and S2
    are even in w; where |w| is small they are the Taylor series
    S1 = sum_j p^(2j+1)(u) w^2j/(2j+1)!, S2 = sum_j p^(2j+2)(u) w^2j/(2j+2)!.
    """
    small = np.abs(w) < _TAYLOR_W * np.maximum(1.0, -u)
    ws = np.where(small, 1.0, w)
    p0, p_plus, p_minus = _p(u), _p(u + ws), _p(u - ws)
    s1 = (p_plus - p_minus) / (2.0 * ws)
    s2 = (p_plus + p_minus - 2.0 * p0) / (2.0 * ws * ws)
    if np.any(small):
        coeff = _p_derivatives(u[small], 2 * _TAYLOR_TERMS) * _RECIPROCAL_FACTORIALS[:, None]
        w2 = w[small] * w[small]
        t1 = np.zeros_like(w2)
        t2 = np.zeros_like(w2)
        for j in reversed(range(_TAYLOR_TERMS)):
            t1 = t1 * w2 + coeff[2 * j + 1]
            t2 = t2 * w2 + coeff[2 * j + 2]
        s1[small] = t1
        s2[small] = t2
    return p0, s1, s2


def first_moments_closed_form(
    params: SystemParams, init: CoherentInit, t
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form <a>(t), <b>(t) on resonance; t in seconds (scalar or array).

    With lambda_+- = (gamma-kappa+-Omega)/2 - i*omega1 (Re Omega >= 0) and
    h(t) = (e^(lambda_+t) - e^(lambda_-t))/Omega = e^(lambda_+t) t p(-Omega t):

        <a>(t) = alpha e^(lambda_-t) + (2iG beta - 4G^2 alpha/(gamma+kappa+Omega)) h(t)/2
        <b>(t) = beta e^(lambda_+t) + (2iG alpha + 4G^2 beta/(gamma+kappa+Omega)) h(t)/2

    This is <b> = e^((gamma-kappa)t/2 - i omega1 t) [beta cosh(Omega t/2)
    + (beta(gamma+kappa) + 2iG alpha) sinh(Omega t/2)/Omega] (and <a> with
    alpha <-> beta, gain <-> loss) regrouped so that gamma+kappa-Omega =
    4G^2/(gamma+kappa+Omega) appears without cancellation and no factor
    overflows before the moment does.
    """
    t = _check_time(t)
    k, g, G = params.kappa, params.gamma, params.coupling_G
    Om = params.Omega
    alpha, beta = complex(init.alpha), complex(init.beta)

    x = g - k
    e_plus = np.exp((0.5 * (x + Om) - 1j * params.omega1) * t)
    e_minus = np.exp((0.5 * (x - Om) - 1j * params.omega1) * t)
    half_h = e_plus * (0.5 * t) * _p(-Om * t)
    mix = 4.0 * G * G / (g + k + Om)  # = gamma + kappa - Omega
    a = alpha * e_minus + (2j * G * beta - mix * alpha) * half_h
    b = beta * e_plus + (2j * G * alpha + mix * beta) * half_h
    return a, b


def displacement(params: SystemParams, init: CoherentInit, t) -> float | np.ndarray:
    """Average mechanical displacement x(t) in meters; t in seconds.

    Evaluated from the closed-form <b>(t) as x = x_zpf*(<b> + <b>*).
    """
    _, b = first_moments_closed_form(params, init, t)
    return _as_real(params.x_zpf * 2.0 * b.real, "displacement", t)


def finite_time_amplitude(
    params: SystemParams, init: CoherentInit, tol: float = DEFAULT_TOL
) -> float:
    """Late-time constant oscillation amplitude on the f = 0, gamma < kappa curve, meters.

    A_s = 2/(kappa-gamma) * x_zpf * sqrt(kappa^2|beta|^2 + kappa*gamma|alpha|^2
          - i*kappa*sqrt(kappa*gamma)(alpha* beta - beta* alpha)).
    The bracket is a real nonnegative combination (it equals |kappa*beta + iG*alpha|^2).
    """
    check_tol(tol)
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


def numbers(params: SystemParams, init: CoherentInit, t) -> NumberSplit:
    """Stimulated and spontaneous particle numbers at any (gamma, G); t in seconds.

    The stimulated parts are n_a_st = |<a>|^2 and n_b_st = |<b>|^2 from
    :func:`first_moments_closed_form`. The spontaneous parts are
    n_sp(t) = 2 gamma integral_0^t |U(s)|^2 ds, U the first-moment solution
    started from (alpha, beta) = (0, 1), integrated in closed form. With
    u = (gamma-kappa)t, w = Omega t and S1, S2 the divided differences of p
    (module docstring):

        n_a_sp = 4 gamma G^2 t^3 S2
        n_b_sp = 2 gamma [t p(u) + (gamma+kappa) t^2 S1
                          + ((gamma+kappa)^2 - 2G^2) t^3 S2]

    (the last coefficient is (Omega^2 + (gamma+kappa)^2)/2). Valid on the
    whole plane, gamma = kappa, f = 0, Omega = 0 and the exceptional point
    included; both spontaneous parts vanish at t = 0.
    """
    t = _check_time(t)
    k, g, G = params.kappa, params.gamma, params.coupling_G
    a, b = first_moments_closed_form(params, init, t)

    ts = t.reshape(-1)
    p0, s1, s2 = _divided_differences((g - k) * ts, params.Omega * ts)
    gpk = g + k
    t3_s2 = ts**3 * s2
    na_sp = 4.0 * g * G * G * t3_s2
    nb_sp = 2.0 * g * (ts * p0 + gpk * ts * ts * s1 + (gpk * gpk - 2.0 * G * G) * t3_s2)

    return NumberSplit(
        t=t if t.ndim else float(t),
        n_a_st=_as_real(np.abs(a) ** 2, "n_a_st", t),
        n_b_st=_as_real(np.abs(b) ** 2, "n_b_st", t),
        n_a_sp=_as_real(na_sp.reshape(t.shape), "n_a_sp", t),
        n_b_sp=_as_real(nb_sp.reshape(t.shape), "n_b_sp", t),
    )


# The benchmark's tracer (bench/tracer.py) wraps the particle numbers under the
# names of the two forms this function replaced.
numbers_equal_gain = numbers_unequal_gain = numbers


def steady_numbers(params: SystemParams, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Equilibrium particle numbers (n_a_s, n_b_s) in the asymptotically stable regime.

    n_a_s = G^2 gamma / ((kappa-gamma) f) and n_b_s = n_a_s + kappa*gamma/f,
    independent of the initial state. Requires f > 0 and gamma < kappa; no
    finite steady state exists elsewhere.
    """
    check_tol(tol)
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
