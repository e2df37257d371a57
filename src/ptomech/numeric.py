"""Independent ground truth: fixed-step RK4 integration of the moment equations.

The integrators are classical fixed-step RK4. The moment systems are linear,
autonomous and at most affine, x' = Ax + b, so a single RK4 step reduces to
multiplication by one constant matrix: R = I + D with D = hM + (hM)^2/2 +
(hM)^3/6 + (hM)^4/24 for the augmented matrix M = [[A, b], [0, 0]] acting on
(x, 1). Both moment systems share one propagator. The second-moment state is
the closed number system (n_a, n_b, Im<a^dag b>): Re<a^dag b> feeds neither
number, so it is not carried. The map between stored samples is R^chunk.
It and its first 32 powers P_i are composed once per run as full matrices in
extended precision (``EXTENDED``) and rounded to the series dtype once: in
float64, each product of I + O(h) maps loses the low digits of the O(h) part.
The samples are filled in runs of 32: each sample of a run is P_i x of the
sample x before the run, all of them from one matrix-vector product with the
stack. It is still the discrete RK4 map, not the exact exponential, so the
oracle stays independent of the closed forms. All integration runs in
kappa-normalized time internally; times are converted to seconds at the
boundary.

A run of 32 samples costs one numpy call where one product per sample cost
32. Over 150 points (gamma, G) in [0, 3]^2 kappa drawn by default_rng(2026),
with t_end = 10/kappa, the largest discrepancy footers against the closed
forms are 3.1e-12 (x) and 5.7e-12 (numbers); over 60 points in [0, 4]^2 kappa
drawn the same way, with t_end = 200/kappa, 3.3e-11 and 1.5e-10. On the f = 0
line near gamma = kappa, ``evolve --gamma 0.99 --G 0.99498743710662 --t-end
1000 --samples 200`` reads 6.4e-9 (numbers), where maps composed in float64
read 1.3e-4. Where np.longdouble is float64 (MSVC, macOS arm64) the maps are
composed in float64 and long runs lose accuracy: the figure presets still
read <= 8e-11, but stable runs of 1000/kappa and 5000/kappa read up to 1.1e-9
where extended precision reads <= 3.5e-11, and that run exits 4 (6.8e-5).

For unstable regimes the integration halts with a flagged truncation at the
first stored sample whose largest moment magnitude exceeds 1e12 or is NaN,
kept as the series' last sample: its time is the blow-up time. The guard is
checked once per block of ``GUARD_BLOCK`` samples, over the whole block at
once (runs end at block ends); the series is cut at the first failing sample
of the block, so it truncates at the same sample as a check after every
sample, and a long run stops within one block of it.

The CLI checks the closed forms against these series on the rows both
reached: x = 2 x_zpf Re<b> relative to the local amplitude 2 x_zpf |<b>|
(x crosses zero, |<b>| does not), and n_a, n_b and the stimulated parts of
:func:`stimulated_spontaneous_split`, each relative to itself.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CoherentInit, NumberSplit, Record, SystemParams

OVERFLOW_GUARD = 1e12
# Samples between two checks of the overflow guard.
GUARD_BLOCK = 256
# Samples filled from one sample by one product with a stack of map powers.
POWER_RUN = 32
# The dtype each series dtype composes its maps in. np.longdouble is 80-bit
# extended precision on x86-64 Linux and float64 on some platforms (MSVC,
# macOS arm64).
EXTENDED = {np.dtype(float): np.dtype(np.longdouble), np.dtype(complex): np.dtype(np.clongdouble)}
# Step counts stay exact integers in float arithmetic, and the sample times
# (step index times step) in int64.
MAX_STEPS = 2**53


class FirstMomentSeries(Record):
    """Sampled trajectory of <a>, <b> (arrays); t in seconds; ``truncated`` defaults to False."""

    __slots__ = ("t", "a_mean", "b_mean", "truncated")
    _defaults = {"truncated": False}


class SecondMomentSeries(Record):
    """Sampled trajectory of n_a = <a^dag a> and n_b = <b^dag b> (arrays); t in seconds."""

    __slots__ = ("t", "n_a", "n_b", "truncated")
    _defaults = {"truncated": False}


def default_dt(params: SystemParams) -> float:
    """Default integration step 1e-3/max(kappa, gamma, G, omega1), seconds.

    Both moment series use this one step rule, limited by omega1, although the
    second-moment system has no omega1 term: the stimulated/spontaneous split
    needs both series on one time grid.
    """
    return 1e-3 / max(params.kappa, params.gamma, params.coupling_G, params.omega1)


def _check_step(params: SystemParams, t_end: float, dt: float | None) -> float:
    if dt is None:
        dt = default_dt(params)
    if t_end <= 0 or not math.isfinite(t_end):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    limit = 0.01 * min(1.0 / params.kappa, 1.0 / params.omega1)
    # Written so that a NaN dt fails too.
    if not 0 < dt <= limit:
        raise ValueError(
            f"dt must satisfy 0 < dt <= 0.01*min(1/kappa, 1/omega1) = {limit:.3e} s, got {dt}"
        )
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(f"t_end/dt = {t_end / dt:.3e} steps exceeds 2**53 (dt too small)")
    return dt


def _plan_grid(t_end_k: float, dt_k: float, n_samples: int | None) -> tuple[int, int]:
    """Return (steps per sample, number of sample intervals) for an exact grid."""
    n_steps = max(1, math.ceil(t_end_k / dt_k))
    if n_samples is None or n_samples >= n_steps + 1:
        return 1, n_steps
    intervals = max(1, n_samples - 1)
    chunk = math.ceil(n_steps / intervals)
    return chunk, intervals


def _propagate(
    A: np.ndarray, b: np.ndarray, x0: np.ndarray, t_end_k: float, dt_k: float,
    n_samples: int | None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Sample the RK4 solution of x' = Ax + b on the grid of :func:`_plan_grid`.

    Works in kappa-normalized time. Returns the sample times, one state per
    row, and whether the run stopped at the overflow guard; a truncated run
    keeps the first sample that failed the guard as its last row. The RK4 step
    I + delta, formed in extended precision, is raised to the power ``chunk``,
    and that map P to its first S = ``POWER_RUN`` powers P_i = P^i by doubling
    the stack, P_(m + j) = P_j P_m for j = 1..m; the stack is rounded to the
    series dtype once. Each run of up to S samples is filled from the sample x
    before it as P_i x by one matrix-vector product with the stack seen as one
    (S (n+1), n+1) matrix. A run uses only the leading finite powers (at least
    one), so a state that the per-sample map keeps finite, such as zero, is
    not turned into inf * 0 = NaN. Runs end at the end of each block of
    ``GUARD_BLOCK`` samples, where the guard is checked over the block; that
    truncates at the same sample as checking after each one.
    """
    chunk, intervals = _plan_grid(t_end_k, dt_k, n_samples)
    h = t_end_k / (chunk * intervals)
    n = len(x0)
    # Homogeneous coordinates (x, 1) make the affine system linear, so one
    # matrix carries both the RK4 update and its inhomogeneous term.
    hM = np.zeros((n + 1, n + 1), dtype=A.dtype)
    hM[:n, :n] = h * A
    hM[:n, n] = h * b
    term = delta = hM
    for k in (2.0, 3.0, 4.0):
        term = term @ hM / k
        delta = delta + term
    xs = np.empty((intervals + 1, n + 1), dtype=A.dtype)
    xs[0, :n] = x0
    xs[0, n] = 1.0
    kept, truncated = intervals + 1, False
    # Past the guard the state may overflow to inf or NaN; the guard reports
    # that, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        count = min(POWER_RUN, intervals)
        step = np.eye(n + 1, dtype=EXTENDED[delta.dtype]) + delta
        stack = np.linalg.matrix_power(step, chunk)[np.newaxis]
        while len(stack) < count:
            stack = np.concatenate([stack, stack @ stack[-1]])
        stack = stack[:count].astype(delta.dtype)
        run = max(1, int(np.cumprod(np.isfinite(stack).all(axis=(1, 2))).sum()))
        flat = stack[:run].reshape(run * (n + 1), n + 1)
        for start in range(1, intervals + 1, GUARD_BLOCK):
            stop = min(start + GUARD_BLOCK, intervals + 1)
            for i in range(start, stop, run):
                r = min(run, stop - i)
                np.matmul(flat[:r * (n + 1)], xs[i - 1], out=xs[i:i + r].reshape(-1))
            # Written so that NaN also fails the guard.
            failed = ~np.all(np.abs(xs[start:stop, :n]) <= OVERFLOW_GUARD, axis=1)
            if failed.any():
                kept, truncated = start + int(np.argmax(failed)) + 1, True
                break
    return np.arange(kept) * chunk * h, xs[:kept, :n], truncated


def integrate_first_moments(
    params: SystemParams,
    init: CoherentInit,
    t_end: float,
    dt: float | None = None,
    n_samples: int | None = None,
) -> FirstMomentSeries:
    """RK4 trajectory of d<a>/dt = -(i*omega1+kappa)<a> + iG<b>,
    d<b>/dt = -(i*omega1-gamma)<b> + iG<a>; t_end, dt in seconds.

    The step must resolve the fast oscillation: dt <= 0.01*min(1/kappa, 1/omega1).
    If ``n_samples`` is given, only that many evenly spaced points (including
    both endpoints) are stored; integration still proceeds at the full step.
    """
    dt = _check_step(params, t_end, dt)
    k = params.kappa
    gn = params.gamma / k
    Gn = params.coupling_G / k
    w1 = params.omega1 / k
    A = np.array(
        [[-1j * w1 - 1.0, 1j * Gn], [1j * Gn, -1j * w1 + gn]],
        dtype=complex,
    )
    z0 = np.array([init.alpha, init.beta], dtype=complex)
    t, z, truncated = _propagate(A, np.zeros(2, dtype=complex), z0, t_end * k, dt * k, n_samples)
    t = t / k
    return FirstMomentSeries(
        t=t,
        a_mean=z[:, 0],
        b_mean=z[:, 1],
        truncated=truncated,
    )


def integrate_second_moments(
    params: SystemParams,
    init: CoherentInit,
    t_end: float,
    dt: float | None = None,
    n_samples: int | None = None,
) -> SecondMomentSeries:
    """RK4 trajectory of the closed number system; t_end, dt in seconds.

    State (n_a, n_b, s) with s = Im<a^dag b> and the equations of motion
    n_a' = -2*kappa*n_a - 2G*s, n_b' = 2*gamma*n_b + 2G*s + 2*gamma,
    s' = (gamma-kappa)*s + G*(n_a - n_b), including the inhomogeneous
    2*gamma gain term. Re<a^dag b> obeys its own equation,
    d/dt Re<a^dag b> = (gamma-kappa) Re<a^dag b>, and feeds neither number, so
    it is not carried. Initial values are the coherent-state ones
    n_a = |alpha|^2, n_b = |beta|^2, s = Im(alpha* beta).
    """
    dt = _check_step(params, t_end, dt)
    k = params.kappa
    gn = params.gamma / k
    Gn = params.coupling_G / k
    A = np.array(
        [
            [-2.0, 0.0, -2.0 * Gn],
            [0.0, 2.0 * gn, 2.0 * Gn],
            [Gn, -Gn, gn - 1.0],
        ]
    )
    b = np.array([0.0, 2.0 * gn, 0.0])
    s0 = (complex(init.alpha).conjugate() * complex(init.beta)).imag
    v0 = np.array([abs(init.alpha) ** 2, abs(init.beta) ** 2, s0])
    t, v, truncated = _propagate(A, b, v0, t_end * k, dt * k, n_samples)
    t = t / k
    return SecondMomentSeries(
        t=t,
        n_a=v[:, 0],
        n_b=v[:, 1],
        truncated=truncated,
    )


def stimulated_spontaneous_split(
    first: FirstMomentSeries, second: SecondMomentSeries
) -> NumberSplit:
    """Split totals into n_st = |first moment|^2 and n_sp = total - n_st.

    Both series must share the same time grid.
    """
    if len(first.t) != len(second.t) or not np.all(
        np.abs(first.t - second.t) <= 1e-15 * max(1.0, float(first.t[-1]))
    ):
        raise ValueError("time grids of the first- and second-moment series do not match")
    n_a_st = np.abs(first.a_mean) ** 2
    n_b_st = np.abs(first.b_mean) ** 2
    return NumberSplit(
        t=first.t.copy(),
        n_a_st=n_a_st,
        n_b_st=n_b_st,
        n_a_sp=second.n_a - n_a_st,
        n_b_sp=second.n_b - n_b_st,
    )

