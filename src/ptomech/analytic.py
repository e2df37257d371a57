"""Exact closed-form dynamics: displacement, finite-time amplitude, particle numbers.

Every formula holds on the whole (gamma, G) plane with one expression: gain
above, at or below loss, the PT-symmetric and broken-PT regimes, the
transition line Omega = 0, the f = G^2 - gamma*kappa = 0 curve and the
exceptional point gamma = kappa = G. Each is evaluated once, and each
intermediate keeps the dtype of its value: Omega = sqrt((gamma+kappa)^2 - 4G^2)
is taken as a float where it is real (the broken-PT regime, the transition
line Omega = 0 and the exceptional point) and as a complex number where it is
imaginary (the PT-symmetric regime), and u = (gamma-kappa)t is real
everywhere. Exponentials of imaginary arguments are sinusoids, so no regime
needs its own branch; numpy's dtype promotion alone decides where complex
arithmetic is needed.

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
above 1e-10 relative in a value that is mathematically real but computed in
complex arithmetic, raises :class:`ClosedFormError` naming the quantity (and,
for a non-finite value, the first time at which it overflows).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import CoherentInit, NumberSplit, SystemParams
from .spectrum import DEFAULT_TOL, check_tol

__all__ = [
    "ClosedFormError",
    "NoSteadyState",
    "NumberSplit",
    "displacement",
    "displacement_from_moments",
    "finite_time_amplitude",
    "first_moments_closed_form",
    "numbers",
    "numbers_from_moments",
    "steady_numbers",
    "steady_state",
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


class NoSteadyState(ValueError):
    """No finite steady state exists at the point (f <= 0 or gamma >= kappa, within tol)."""


def _as_real(value, what: str, t=None) -> np.ndarray | float:
    """Check a closed-form value (finite; if complex, a negligible imaginary
    part) and return its real part.

    ``t`` is the time grid ``value`` was evaluated on; a non-finite value is
    reported with the first time at which it occurs. A value computed as a
    real number has no imaginary residue to check.
    """
    value = np.asarray(value)
    finite = np.isfinite(value)
    if not np.all(finite):
        if t is None:
            raise ClosedFormError(f"{what} is not finite")
        horizon = float(np.min(np.broadcast_to(t, value.shape)[~finite]))
        raise ClosedFormError(f"{what} is not finite from t = {horizon:.6e} s on (overflow horizon)")
    if np.iscomplexobj(value):
        scale = np.maximum(np.abs(value), 1.0)
        residue = np.max(np.abs(value.imag) / scale, initial=0.0)
        # Written so that a NaN residue fails too.
        if not residue <= _IMAG_RESIDUE_TOL:
            raise ClosedFormError(
                f"{what}: imaginary residue {residue:.3e} exceeds {_IMAG_RESIDUE_TOL:.0e}; "
                "closed form is inconsistent"
            )
        value = value.real
    return float(value) if value.ndim == 0 else value


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        raise ValueError("t must be finite and >= 0")
    return t


def _omega(params: SystemParams) -> float | complex:
    """Omega as a float where it is real, else as a complex number."""
    Om = params.Omega
    return Om.real if Om.imag == 0 else Om


def _p(z) -> np.ndarray:
    """p(z) = (e^z - 1)/z, with p(0) = 1; float for real z, complex for complex z."""
    z = np.asarray(z, dtype=np.result_type(z, float))
    zero = z == 0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


@functools.cache
def _quadrature() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """20-point Gauss-Legendre nodes and weights on [0, 1], by Golub-Welsch,
    and the nodes' powers s^k, k = 0..2 _TAYLOR_TERMS (rows).

    They integrate s^k e^(u s), k <= 10, to ~2e-15 relative for |u| < 10.
    """
    k = np.arange(1.0, 20.0)
    off_diagonal = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    nodes = 0.5 * (nodes + 1.0)
    return nodes, vectors[0] ** 2, nodes ** np.arange(2 * _TAYLOR_TERMS + 1)[:, None]


def _p_derivatives(u: np.ndarray) -> np.ndarray:
    """p^(k)(u) = integral_0^1 s^k e^(u s) ds for k = 0..2 _TAYLOR_TERMS (rows), real 1-d u."""
    order = 2 * _TAYLOR_TERMS
    out = np.empty((order + 1, len(u)))
    quad = np.abs(u) < _QUAD_MAX_U
    if np.any(quad):
        nodes, weights, powers = _quadrature()
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

    Real 1-d u; w of the same length, real (float) or imaginary (complex).
    The results are float for a float w. S1 and S2 are even in w; where |w|
    is small they are the Taylor series
    S1 = sum_j p^(2j+1)(u) w^2j/(2j+1)!, S2 = sum_j p^(2j+2)(u) w^2j/(2j+2)!.
    """
    small = np.abs(w) < _TAYLOR_W * np.maximum(1.0, -u)
    ws = np.where(small, 1.0, w)
    p0, p_plus, p_minus = _p(u), _p(u + ws), _p(u - ws)
    s1 = (p_plus - p_minus) / (2.0 * ws)
    s2 = (p_plus + p_minus - 2.0 * p0) / (2.0 * ws * ws)
    if np.any(small):
        coeff = _p_derivatives(u[small]) * _RECIPROCAL_FACTORIALS[:, None]
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
    overflows before the moment does. e^(lambda_-t) is its own exp, not
    e^(lambda_+t) e^(-Omega t): that product rounds once more and saves too
    little to measure end to end.
    """
    t = _check_time(t)
    k, g, G = params.kappa, params.gamma, params.coupling_G
    Om = _omega(params)
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
    return displacement_from_moments(params, b, t)


def displacement_from_moments(params: SystemParams, b, t) -> float | np.ndarray:
    """x = 2 x_zpf Re<b> in meters, from <b> at the times ``t`` (seconds),
    checked like :func:`displacement`."""
    return _as_real(params.x_zpf * 2.0 * b.real, "displacement", t)


def finite_time_amplitude(
    params: SystemParams, init: CoherentInit, tol: float = DEFAULT_TOL
) -> float:
    """Late-time constant oscillation amplitude on the f = 0, gamma < kappa curve, meters.

    A_s = 2/(kappa-gamma) * x_zpf * sqrt(kappa^2|beta|^2 + kappa*gamma|alpha|^2
          - i*kappa*sqrt(kappa*gamma)(alpha* beta - beta* alpha)).
    The bracket is a real nonnegative combination: it equals
    |kappa*beta + i*sqrt(kappa*gamma)*alpha|^2, and A_s is computed from that
    modulus in real arithmetic.
    """
    check_tol(tol)
    k, g = params.kappa, params.gamma
    if abs(params.f) / k**2 > tol:
        raise ValueError(
            f"finite_time_amplitude requires f = G^2 - gamma*kappa = 0 "
            f"(got f/kappa^2 = {params.f / k**2:.3e})"
        )
    if g / k >= 1.0 - tol:
        raise ValueError(f"finite_time_amplitude requires gamma < kappa (got gamma/kappa = {g / k})")
    alpha, beta = complex(init.alpha), complex(init.beta)
    s = math.sqrt(k * g)
    modulus = math.hypot(k * beta.real - s * alpha.imag, k * beta.imag + s * alpha.real)
    return _as_real(2.0 / (k - g) * params.x_zpf * modulus, "finite_time_amplitude")


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
    return numbers_from_moments(params, *first_moments_closed_form(params, init, t), t)


def numbers_from_moments(params: SystemParams, a, b, t) -> NumberSplit:
    """:func:`numbers` from <a>, <b> at the times ``t`` (seconds, checked by
    :func:`first_moments_closed_form`, which gave them)."""
    t = np.asarray(t, dtype=float)
    k, g, G = params.kappa, params.gamma, params.coupling_G
    ts = t.reshape(-1)
    p0, s1, s2 = _divided_differences((g - k) * ts, _omega(params) * ts)
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


def steady_state(kappa, gamma, G, tol: float = DEFAULT_TOL):
    """Equilibrium particle numbers over arrays of rates, rad/s (``kappa`` a scalar).

    n_a_s = G^2 gamma / ((kappa-gamma) f) and n_b_s = n_a_s + kappa*gamma/f
    with f = G^2 - gamma*kappa, independent of the initial state. A finite
    steady state exists only where f/kappa^2 > tol and gamma/kappa < 1 - tol.
    Returns (n_a_s, n_b_s, missing): ``missing`` is 0 where the steady state
    exists, 1 where f/kappa^2 <= tol and else 2 where gamma/kappa >= 1 - tol;
    the numbers are NaN where it is not 0.
    """
    check_tol(tol)
    gamma, G = np.asarray(gamma, dtype=float), np.asarray(G, dtype=float)
    G2 = G * G
    f = G2 - gamma * kappa
    missing = np.select([f / kappa**2 <= tol, gamma / kappa >= 1.0 - tol], [1, 2], 0)
    # Points without a steady state may divide by zero (masked below); rates
    # near float range overflow to inf, as in scalar arithmetic.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        n_a_s = G2 * gamma / ((kappa - gamma) * f)
        n_b_s = n_a_s + kappa * gamma / f
    exists = missing == 0
    return np.where(exists, n_a_s, np.nan), np.where(exists, n_b_s, np.nan), missing


def steady_numbers(params: SystemParams, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Equilibrium particle numbers (n_a_s, n_b_s): the one-point case of :func:`steady_state`.

    Raises :class:`NoSteadyState`, naming the failed condition, where no
    finite steady state exists (f <= 0 or gamma >= kappa, within ``tol``).
    """
    k, g = params.kappa, params.gamma
    n_a_s, n_b_s, missing = steady_state(k, g, params.coupling_G, tol)
    if missing == 1:
        raise NoSteadyState(
            f"no finite steady state: requires f = G^2 - gamma*kappa > 0 "
            f"(got f/kappa^2 = {params.f / k**2:.3e})"
        )
    if missing == 2:
        raise NoSteadyState(
            f"no finite steady state: requires gamma < kappa (got gamma/kappa = {g / k})"
        )
    return float(n_a_s), float(n_b_s)
