"""Independent ground truth: fixed-step RK4 integration of the moment equations.

The integrator is classical fixed-step RK4. The first and second moments form
one linear, autonomous, affine real system x' = Ax + b of seven states: the
real and imaginary parts of <a> and <b>, and the closed number system (n_a,
n_b, Im<a^dag b>). Re<a^dag b> feeds neither number, so it is not carried.
The drift is block-diagonal: the first moments and the numbers do not feed
each other, and a product of block-diagonal matrices adds only exact zeros to
either block. A single RK4 step reduces to multiplication by one constant
matrix: R = I + D with D = hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 for the
augmented matrix M = [[A, b], [0, 0]] acting on (x, 1). The map between
stored samples is R^chunk. It and its first 32 powers P_i are composed once
per run as full matrices in extended precision (``EXTENDED``) and rounded to
float64 once: in float64, each product of I + O(h) maps loses the low digits
of the O(h) part. The samples are filled in runs of 32: each sample of a run
is P_i x of the sample x before the run, all of them from one matrix-vector
product with the stack. It is still the discrete RK4 map, not the exact
exponential, so the oracle stays independent of the closed forms. All
integration runs in kappa-normalized time internally; times are converted to
seconds at the boundary.

A run of 32 samples costs one numpy call where one product per sample cost
32. Over 150 points (gamma, G) in [0, 3]^2 kappa drawn by default_rng(2026),
with t_end = 10/kappa, the largest discrepancy footers against the closed
forms are 3.1e-12 (x) and 5.6e-12 (numbers); over 60 points in [0, 4]^2 kappa
drawn the same way, with t_end = 200/kappa, 3.3e-11 and 1.5e-10. On the f = 0
line near gamma = kappa, ``evolve --gamma 0.99 --G 0.99498743710662 --t-end
1000 --samples 200`` reads 6.4e-9 (numbers), where maps composed in float64
read 6.8e-5 and exit 4. Where np.longdouble is float64 (MSVC, macOS arm64)
the maps are composed in float64 and long runs lose accuracy: the figure
presets still read <= 9e-11, but stable runs of 1000/kappa and 5000/kappa
read up to 2.8e-9 where extended precision reads <= 3.6e-11.

For unstable regimes the integration halts with a flagged truncation at the
first stored sample where any state's magnitude exceeds 1e12 or is NaN, kept
as the series' last sample: its time is the blow-up time. The numbers grow
at least as fast as the squared first moments, so they set it. The guard is
checked once per block of ``GUARD_BLOCK`` samples, over the whole block at
once (runs end at block ends); the series is cut at the first failing sample
of the block, so it truncates at the same sample as a check after every
sample, and a long run stops within one block of it.

The CLI checks the closed forms against this series on the rows it reached:
x = 2 x_zpf Re<b> relative to the local amplitude 2 x_zpf |<b>| (x crosses
zero, |<b>| does not), and n_a, n_b and the stimulated parts of
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
# The dtype the maps are composed in: 80-bit extended precision on x86-64
# Linux, float64 on some platforms (MSVC, macOS arm64).
EXTENDED = np.dtype(np.longdouble)
# Step counts stay exact integers in float arithmetic, and the sample times
# (step index times step) in int64.
MAX_STEPS = 2**53


class MomentSeries(Record):
    """Sampled trajectory of <a>, <b> (complex arrays), n_a = <a^dag a> and
    n_b = <b^dag b>; t in seconds; ``truncated`` defaults to False."""

    __slots__ = ("t", "a_mean", "b_mean", "n_a", "n_b", "truncated")
    _defaults = {"truncated": False}


def default_dt(params: SystemParams) -> float:
    """Default integration step 1e-3/max(kappa, gamma, G, omega1), seconds.

    The step is limited by omega1 although the number block has no omega1
    term: the first and second moments are one system on one time grid.
    """
    return 1e-3 / max(params.kappa, params.gamma, params.coupling_G, params.omega1)


def _check_step(params: SystemParams, t_end: float, dt: float | None) -> float:
    if dt is None:
        dt = default_dt(params)
    if t_end <= 0 or not math.isfinite(t_end):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    k = params.kappa
    limit = 0.01 * min(1.0 / k, 1.0 / params.omega1)
    # Written so that a NaN dt fails too.
    if not 0 < dt <= limit:
        raise ValueError(f"dt must satisfy 0 < dt <= 0.01*min(1/kappa, 1/omega1) = {limit:.3e} s "
                         f"= {limit * k:.4g}/kappa, got {dt:.3e} s = {dt * k:.4g}/kappa")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(f"t_end/dt = {t_end / dt:.3e} steps exceeds 2**53: t_end = {t_end:.3e} s "
                         f"= {t_end * k:.4g}/kappa, dt = {dt:.3e} s = {dt * k:.4g}/kappa")
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
    """Sample the RK4 solution of the real system x' = Ax + b on the grid of
    :func:`_plan_grid`.

    Works in kappa-normalized time. Returns the sample times, one state per
    row, and whether the run stopped at the overflow guard; a truncated run
    keeps the first sample that failed the guard as its last row. The RK4 step
    I + delta, formed in ``EXTENDED``, is raised to the power ``chunk``, and
    that map P to its first S = ``POWER_RUN`` powers P_i = P^i by doubling the
    stack, P_(m + j) = P_j P_m for j = 1..m; the stack is rounded to float64
    once. Each run of up to S samples is filled from the sample x before it
    as P_i x by one matrix-vector product with the stack seen as one
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
    hM = np.zeros((n + 1, n + 1))
    hM[:n, :n] = h * A
    hM[:n, n] = h * b
    term = delta = hM
    for k in (2.0, 3.0, 4.0):
        term = term @ hM / k
        delta = delta + term
    xs = np.empty((intervals + 1, n + 1))
    xs[0, :n] = x0
    xs[0, n] = 1.0
    kept, truncated = intervals + 1, False
    # Past the guard the state may overflow to inf or NaN; the guard reports
    # that, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        count = min(POWER_RUN, intervals)
        step = np.eye(n + 1, dtype=EXTENDED) + delta
        stack = np.linalg.matrix_power(step, chunk)[np.newaxis]
        while len(stack) < count:
            stack = np.concatenate([stack, stack @ stack[-1]])
        stack = stack[:count].astype(float)
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


def integrate_moments(
    params: SystemParams,
    init: CoherentInit,
    t_end: float,
    dt: float | None = None,
    n_samples: int | None = None,
) -> MomentSeries:
    """RK4 trajectory of the first and second moments; t_end, dt in seconds.

    The first moments obey d<a>/dt = -(i*omega1+kappa)<a> + iG<b> and
    d<b>/dt = -(i*omega1-gamma)<b> + iG<a>, carried as their real and
    imaginary parts. The numbers are the state (n_a, n_b, s) with
    s = Im<a^dag b> and n_a' = -2*kappa*n_a - 2G*s,
    n_b' = 2*gamma*n_b + 2G*s + 2*gamma, s' = (gamma-kappa)*s + G*(n_a - n_b),
    including the inhomogeneous 2*gamma gain term, from the coherent-state
    values n_a = |alpha|^2, n_b = |beta|^2, s = Im(alpha* beta).

    The step must resolve the fast oscillation: dt <= 0.01*min(1/kappa, 1/omega1).
    If ``n_samples`` is given, only that many evenly spaced points (including
    both endpoints) are stored; integration still proceeds at the full step.
    """
    dt = _check_step(params, t_end, dt)
    k = params.kappa
    g, G, w = params.gamma / k, params.coupling_G / k, params.omega1 / k
    A = np.zeros((7, 7))
    # (Re a, Im a, Re b, Im b): the real form of [[-1 - i w, iG], [iG, g - i w]].
    A[:4, :4] = [[-1.0, w, 0.0, -G], [-w, -1.0, G, 0.0], [0.0, -G, g, w], [G, 0.0, -w, g]]
    A[4:, 4:] = [[-2.0, 0.0, -2.0 * G], [0.0, 2.0 * g, 2.0 * G], [G, -G, g - 1.0]]
    b = np.zeros(7)
    b[5] = 2.0 * g
    alpha, beta = complex(init.alpha), complex(init.beta)
    x0 = [alpha.real, alpha.imag, beta.real, beta.imag,
          abs(alpha) ** 2, abs(beta) ** 2, (alpha.conjugate() * beta).imag]
    t, x, truncated = _propagate(A, b, np.array(x0), t_end * k, dt * k, n_samples)
    # The columns (Re a, Im a, Re b, Im b), copied contiguous, read as two
    # complex columns.
    ab = np.ascontiguousarray(x[:, :4]).view(complex)
    return MomentSeries(t=t / k, a_mean=ab[:, 0], b_mean=ab[:, 1], n_a=x[:, 4], n_b=x[:, 5],
                        truncated=truncated)


# Kept so that bench/tracer.py's TARGETS and bench/tests/test_bench.py still
# resolve the names of the two integrators this function replaced. The CLI
# calls integrate_moments, so the tracer's spans on these names no longer see
# the oracle (ROADMAP item 2).
integrate_first_moments = integrate_second_moments = integrate_moments


def stimulated_spontaneous_split(series: MomentSeries) -> NumberSplit:
    """Split the totals into n_st = |first moment|^2 and n_sp = total - n_st."""
    n_a_st = np.abs(series.a_mean) ** 2
    n_b_st = np.abs(series.b_mean) ** 2
    return NumberSplit(
        t=series.t.copy(),
        n_a_st=n_a_st,
        n_b_st=n_b_st,
        n_a_sp=series.n_a - n_a_st,
        n_b_sp=series.n_b - n_b_st,
    )
