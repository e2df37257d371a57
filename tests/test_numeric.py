import cmath
import math
import warnings

import numpy as np
import pytest

from ptomech import (
    CoherentInit,
    displacement,
    integrate_moments,
    make_params,
    numeric,
    steady_numbers,
    stimulated_spontaneous_split,
)
from ptomech.numeric import GUARD_BLOCK, OVERFLOW_GUARD, _plan_grid, _propagate, default_dt
from ptomech.spectrum import eigenvalues

from conftest import (
    F0_LONG_RUNS, KAPPA, LONGDOUBLE_IS_FLOAT64, MASS, OMEGA1, mp_reference, params_at,
)


def second_moment_matrix(g, G):
    """Drift of (n_a, n_b, Re<a^dag b>, Im<a^dag b>) in kappa units; b = (0, 2g, 0, 0)."""
    return np.array(
        [
            [-2.0, 0.0, 0.0, -2.0 * G],
            [0.0, 2.0 * g, 0.0, 2.0 * G],
            [0.0, 0.0, g - 1.0, 0.0],
            [G, -G, 0.0, g - 1.0],
        ]
    )


def stepwise_rk4(A, b, x0, t_end_k, dt_k, n_samples):
    """Reference oracle: apply the one-step RK4 map step by step, guard per sample.

    R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and the affine part
    r = (h + h^2 A/2 + h^3 A^2/6 + h^4 A^3/24) b, so x <- R x + r per step.
    """
    chunk, intervals = _plan_grid(t_end_k, dt_k, n_samples)
    h = t_end_k / (chunk * intervals)
    hA = h * A
    R = term = np.eye(len(x0), dtype=A.dtype)
    for k in (1.0, 2.0, 3.0, 4.0):
        term = term @ hA / k
        R = R + term
    r = term = h * b
    for k in (2.0, 3.0, 4.0):
        term = hA @ term / k
        r = r + term
    x = x0
    out = [x0]
    for _ in range(intervals):
        for _ in range(chunk):
            x = R @ x + r
        out.append(x)
        if not np.max(np.abs(x)) <= OVERFLOW_GUARD:
            break
    return np.array(out)


def composed_loop(A, b, x0, t_end_k, dt_k, n_samples):
    """Reference for ``_propagate``: the same composed per-sample map, applied
    one sample at a time with the guard checked after each sample.

    The step I + delta is formed in extended precision (np.longdouble) and
    raised to the power chunk bit by bit of chunk, least significant first, by
    repeated squaring; the map is rounded to float64 once, at the end."""
    chunk, intervals = _plan_grid(t_end_k, dt_k, n_samples)
    h = t_end_k / (chunk * intervals)
    n = len(x0)
    hM = np.zeros((n + 1, n + 1))
    hM[:n, :n] = h * A
    hM[:n, n] = h * b
    term = delta = hM
    for k in (2.0, 3.0, 4.0):
        term = term @ hM / k
        delta = delta + term
    factor = np.eye(n + 1, dtype=np.longdouble) + delta
    per_sample = None
    for i in range(chunk.bit_length()):
        if chunk >> i & 1:
            per_sample = factor if per_sample is None else per_sample @ factor
        factor = factor @ factor
    per_sample = per_sample.astype(float)
    xs = [np.append(x0, 1.0)]
    truncated = False
    for _ in range(intervals):
        xs.append(per_sample @ xs[-1])
        if not np.max(np.abs(xs[-1][:n])) <= OVERFLOW_GUARD:
            truncated = True
            break
    return np.arange(len(xs)) * chunk * h, np.array(xs)[:, :n], truncated


# (gamma, G) in kappa units, omega1 in kappa units, t_end in 1/kappa, n_samples.
# A small omega1 keeps the reference loop short at the largest allowed step.
PROPAGATOR_CASES = {
    "chunk1": (0.6, 1.2, 2.0, 1.0, None),
    "chunked": (1.0, 0.8, 2.0, 6.0, 20),
    "truncating": (1.8, 1.2, 2.0, 15.0, 50),
    # One sample interval of 400/kappa at gamma = 20 kappa: the composed map
    # overflows extended precision and its last row is inf - inf = NaN; at
    # gamma = 1.8 kappa, of 316/kappa and of 400/kappa: the map stays finite
    # in extended precision and the last row is infinite, not NaN.
    "nan": (20.0, 1.2, 2.0, 400.0, 2),
    "inf": (1.8, 1.2, 2.0, 316.0, 2),
    "inf_400": (1.8, 1.2, 2.0, 400.0, 2),
    # The numbers fail the guard at sample GUARD_BLOCK (the last sample of the
    # first guard block) and GUARD_BLOCK + 1 (the first of the next).
    "block_end": (1.8, 1.2, 2.0, 22.0, 513),
    "block_start": (1.8, 1.2, 2.0, 25.75, 601),
    # Region 4, where the map contracts: sample intervals of 5/kappa, and one
    # interval of 200/kappa.
    "stable_chunked": (0.6, 1.2, 2.0, 200.0, 41),
    "stable_one_interval": (0.6, 1.2, 2.0, 200.0, 2),
}

# The oracle's states among the reference's eight: all but Re<a^dag b>.
KEPT = [0, 1, 2, 3, 4, 5, 7]


def reference_system(g, G, w1, init):
    """(A, b, x0) in kappa units of the eight moments (Re<a>, Im<a>, Re<b>,
    Im<b>, n_a, n_b, Re<a^dag b>, Im<a^dag b>); b = 2g on n_b.

    The first-moment block is the real form of the complex drift
    [[-1 - i w1, iG], [iG, g - i w1]]: entry c becomes [[Re c, -Im c], [Im c, Re c]]."""
    first = np.array([[-1j * w1 - 1.0, 1j * G], [1j * G, -1j * w1 + g]])
    A = np.zeros((8, 8))
    A[:4, :4] = np.block([[np.array([[c.real, -c.imag], [c.imag, c.real]]) for c in row]
                          for row in first])
    A[4:, 4:] = second_moment_matrix(g, G)
    b = np.zeros(8)
    b[5] = 2.0 * g
    alpha, beta = init.alpha, init.beta
    c0 = alpha.conjugate() * beta
    x0 = np.array([alpha.real, alpha.imag, beta.real, beta.imag,
                   abs(alpha) ** 2, abs(beta) ** 2, c0.real, c0.imag])
    return A, b, x0


def oracle_system(g, G, w1, init):
    """The reference system without Re<a^dag b>: the oracle's seven states."""
    A, b, x0 = reference_system(g, G, w1, init)
    return A[np.ix_(KEPT, KEPT)], b[KEPT], x0[KEPT]


@pytest.fixture
def propagated(monkeypatch):
    """The states ``_propagate`` returns, one array per call, in call order.

    The state Im<a^dag b> is read here: the series keeps only the moments."""
    states = []

    def recording(*args):
        out = _propagate(*args)
        states.append(out[1])
        return out

    monkeypatch.setattr(numeric, "_propagate", recording)
    return states


def integrate_case(case, init, propagated):
    g, G, w1, t_end, n_samples = PROPAGATOR_CASES[case]
    p = make_params(KAPPA, g * KAPPA, G * KAPPA, w1 * KAPPA, MASS)
    dt = 0.005 / KAPPA
    # Past the guard nothing may warn: the truncation flag reports it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        series = integrate_moments(p, init, t_end / KAPPA, dt=dt, n_samples=n_samples)
    # One real system: one propagation, no complex dtype.
    (got,) = propagated
    assert got.dtype == np.float64
    columns = [series.a_mean.real, series.a_mean.imag, series.b_mean.real, series.b_mean.imag,
               series.n_a, series.n_b]
    assert np.array_equal(got[:, :6], np.column_stack(columns), equal_nan=True)
    return series, got


class TestPropagatorAgainstStepwiseLoop:
    @pytest.mark.parametrize("case", sorted(PROPAGATOR_CASES))
    def test_both_series_match_reference(self, case, coherent_init, propagated):
        # Both blocks of the one series, the first moments and the numbers.
        g, G, w1, t_end, n_samples = PROPAGATOR_CASES[case]
        series, got = integrate_case(case, coherent_init, propagated)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = stepwise_rk4(*reference_system(g, G, w1, coherent_init), t_end, 0.005,
                               n_samples)[:, KEPT]
        assert got.shape == ref.shape
        assert series.truncated == (not np.max(np.abs(ref[-1])) <= OVERFLOW_GUARD)
        for block in (slice(0, 4), slice(4, 7)):
            # Only a truncated run's last row can be past float range.
            finite = np.all(np.isfinite(ref[:, block]), axis=1)
            assert np.all(finite[:-1]) and np.all(np.isfinite(got[finite, block]))
            scale = np.max(np.abs(ref[finite, block]), axis=1, keepdims=True)
            assert np.max(np.abs(got[finite, block] - ref[finite, block]) / scale) <= 1e-9
        if case == "chunk1":
            assert len(series.t) == math.ceil(t_end / 0.005) + 1
        if case == "truncating":
            # The numbers grow twice as fast as the first moments and reach
            # the guard first.
            assert series.truncated and 2 < len(series.t) < n_samples
            assert np.max(np.abs(got[-1, :4])) <= OVERFLOW_GUARD < np.max(np.abs(got[-1, 4:]))
        if case == "nan":
            assert series.truncated and np.isnan(series.n_b[-1]) and len(series.t) == 2
        if case == "inf":
            assert np.isinf(series.n_b[-1]) and np.isinf(got[-1, 6])
        if case == "inf_400":
            assert series.truncated and len(series.t) == 2
            assert np.all(np.isfinite(got[:, :4]))
            assert np.array_equal(got[-1, 4:], [np.inf, np.inf, -np.inf])
        if case.startswith("block"):
            assert len(series.t) - 1 == GUARD_BLOCK + (case == "block_start")

    @pytest.mark.parametrize("case", sorted(PROPAGATOR_CASES))
    def test_same_arithmetic_as_a_per_sample_loop(self, case, coherent_init):
        g, G, w1, t_end, n_samples = PROPAGATOR_CASES[case]
        A, b, x0 = oracle_system(g, G, w1, coherent_init)
        t, xs, truncated = _propagate(A, b, x0, t_end, 0.005, n_samples)
        with np.errstate(over="ignore", invalid="ignore"):
            t_ref, xs_ref, truncated_ref = composed_loop(A, b, x0, t_end, 0.005, n_samples)
        assert truncated == truncated_ref
        assert np.array_equal(t, t_ref)
        # Runs filled from a stack of map powers round differently from one
        # product per sample: the same non-finite entries, and the finite rows
        # of each block agree to 1e-12 of their largest entry.
        finite = np.isfinite(xs_ref)
        assert np.array_equal(np.isfinite(xs), finite)
        assert np.array_equal(xs[~finite], xs_ref[~finite], equal_nan=True)
        for block in (slice(0, 4), slice(4, 7)):
            rows = np.all(finite[:, block], axis=1)
            scale = np.max(np.abs(xs_ref[rows, block]), axis=1, keepdims=True)
            assert np.max(np.abs(xs[rows, block] - xs_ref[rows, block]) / scale) <= 1e-12

    @pytest.mark.parametrize("case", ["chunk1", "chunked", "stable_chunked"])
    def test_numbers_do_not_see_re_ab_corr(self, case, coherent_init):
        # Row and column 6 of the eight-state matrix are zero off the diagonal:
        # Re<a^dag b> feeds no other moment, which is why the oracle drops it.
        g, G, w1, t_end, n_samples = PROPAGATOR_CASES[case]
        A, b, x0 = reference_system(g, G, w1, coherent_init)
        base = stepwise_rk4(A, b, x0, t_end, 0.005, n_samples)
        for re_c in (0.0, -3.5, 1e3):
            ref = stepwise_rk4(A, b, np.concatenate([x0[:6], [re_c], x0[7:]]), t_end, 0.005,
                               n_samples)
            assert not np.array_equal(ref[:, 6], base[:, 6])
            assert np.array_equal(ref[:, KEPT], base[:, KEPT])

    @pytest.mark.parametrize("k", [1, GUARD_BLOCK - 1, GUARD_BLOCK, GUARD_BLOCK + 1,
                                   2 * GUARD_BLOCK, 2 * GUARD_BLOCK + 1])
    def test_truncates_at_the_first_failing_sample(self, k):
        # x' = x from x0 = guard / R^(k - 1/2): sample k - 1 is below the guard
        # by a factor R^(1/2), sample k above it, wherever k falls in a block.
        h = 0.01
        R = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
        x0 = np.array([OVERFLOW_GUARD * R ** -(k - 0.5)])
        t, xs, truncated = _propagate(np.array([[1.0]]), np.zeros(1), x0, 4 * GUARD_BLOCK * h,
                                      h, None)
        assert truncated and len(t) == len(xs) == k + 1
        assert xs[-2, 0] <= OVERFLOW_GUARD < xs[-1, 0]

    def test_contracting_runs_keep_relative_accuracy(self):
        # x' = -2x over sample intervals of 127 steps: the squared factors of
        # up to 64 steps stay near I, but each sample shrinks x by e^-1.27 and
        # a run of 32 by e^-40, so every row must keep its own relative error.
        A, b, x0 = np.array([[-2.0]]), np.zeros(1), np.ones(1)
        t, xs, truncated = _propagate(A, b, x0, 25.4, 0.005, 41)
        ref = stepwise_rk4(A, b, x0, 25.4, 0.005, 41)
        assert not truncated and xs.shape == ref.shape == (41, 1)
        assert np.max(np.abs(xs - ref) / np.abs(ref)) <= 1e-12

    def test_runs_use_only_finite_powers(self):
        # x' = x over sample intervals of 300/kappa: (I + D)^2 ~ e^600 is past
        # float range, so each sample comes from the one before, and a zero
        # state stays zero instead of turning into inf * 0 = NaN.
        t, xs, truncated = _propagate(np.array([[1.0]]), np.zeros(1), np.zeros(1), 1200.0,
                                      0.005, 5)
        assert not truncated and len(t) == len(xs) == 5
        assert not np.any(xs)

    def test_zero_state_in_unstable_regime_stays_zero(self):
        # gamma = 1.8, G = 1.2 is region 1. With no initial amplitude and no
        # drive term the first moments stay exactly zero on every row, while
        # the vacuum-fed numbers reach the guard and truncate the series.
        p = make_params(KAPPA, 1.8 * KAPPA, 1.2 * KAPPA, 2.0 * KAPPA, MASS)
        zero = CoherentInit(alpha=0j, beta=0j)
        series = integrate_moments(p, zero, 400.0 / KAPPA, dt=0.005 / KAPPA, n_samples=2000)
        assert series.truncated and 2 < len(series.t) < 2000
        assert series.n_b[-2] <= OVERFLOW_GUARD < series.n_b[-1]
        assert not np.any(series.a_mean) and not np.any(series.b_mean)


class TestFirstMoments:
    def test_decoupled_decay(self):
        p = make_params(KAPPA, 0.0, 0.0, OMEGA1, MASS)
        init = CoherentInit(alpha=1.0 + 0j)
        series = integrate_moments(p, init, 5.0 / KAPPA, n_samples=50)
        expected = np.exp(-(1j * OMEGA1 + KAPPA) * series.t)
        assert np.max(np.abs(series.a_mean - expected)) < 1e-10
        assert np.max(np.abs(series.b_mean)) == 0.0

    def test_eigenvector_initialization_evolves_as_pure_mode(self):
        p = params_at(0.6, 1.2)
        # (a, b) block eigenvalue: tau = +1, s = -1 branch of the closed form.
        lam = KAPPA * eigenvalues(0.6, 1.2, OMEGA1 / KAPPA)[3]
        v = np.array([1j * p.coupling_G, lam + 1j * p.omega1 + p.kappa])
        v = v / np.max(np.abs(v))
        init = CoherentInit(alpha=complex(v[0]), beta=complex(v[1]))
        series = integrate_moments(p, init, 5.0 / KAPPA, n_samples=40)
        phase = np.exp(lam * series.t)
        expected_a = v[0] * phase
        expected_b = v[1] * phase
        scale = np.max(np.abs(expected_b))
        assert np.max(np.abs(series.a_mean - expected_a)) <= 1e-8 * scale
        assert np.max(np.abs(series.b_mean - expected_b)) <= 1e-8 * scale

    def test_envelope_beat_period_matches_supermode_splitting(self, coherent_init):
        # Finite-time stable point: |<b>| envelope repeats with period 2*pi/|Omega|.
        p = params_at(1.0, 1.5)
        series = integrate_moments(p, coherent_init, 12.0 / KAPPA, n_samples=4000)
        env = np.abs(series.b_mean)
        peaks = [
            i for i in range(1, len(env) - 1) if env[i] >= env[i - 1] and env[i] >= env[i + 1]
        ]
        spacings = np.diff(series.t[peaks])
        expected = 2.0 * math.pi / abs(p.Omega)
        assert np.mean(spacings) == pytest.approx(expected, rel=0.02)

    def test_rk4_fourth_order_convergence(self, coherent_init):
        # Halving dt must reduce the max error vs the closed form by >= 12x.
        # Steps sit just under the precondition ceiling so truncation error
        # dominates floating-point noise.
        p = params_at(0.6, 1.2)
        t_end = 2.0 / KAPPA
        errors = []
        for dt in (0.009 / OMEGA1, 0.0045 / OMEGA1):
            series = integrate_moments(p, coherent_init, t_end, dt=dt, n_samples=40)
            x_num = 2.0 * series.b_mean.real
            x_ref = np.asarray(displacement(p, coherent_init, series.t)) / p.x_zpf
            errors.append(np.max(np.abs(x_num - x_ref)))
        assert errors[0] / errors[1] >= 12.0

    def test_linearity_superposition(self):
        p = params_at(0.6, 1.2)
        a = CoherentInit(alpha=1.0 + 0.5j, beta=-0.25 + 1j)
        b = CoherentInit(alpha=-0.75 + 0.1j, beta=0.5 - 0.3j)
        both = CoherentInit(alpha=a.alpha + b.alpha, beta=a.beta + b.beta)
        kw = dict(t_end=5.0 / KAPPA, n_samples=60)
        s_a = integrate_moments(p, a, **kw)
        s_b = integrate_moments(p, b, **kw)
        s_ab = integrate_moments(p, both, **kw)
        assert np.max(np.abs(s_ab.a_mean - (s_a.a_mean + s_b.a_mean))) < 1e-10
        assert np.max(np.abs(s_ab.b_mean - (s_a.b_mean + s_b.b_mean))) < 1e-10

    def test_step_size_precondition(self, coherent_init):
        p = params_at(0.6, 1.2)
        with pytest.raises(ValueError):
            integrate_moments(p, coherent_init, 1.0 / KAPPA, dt=0.5 / OMEGA1)
        with pytest.raises(ValueError):
            integrate_moments(p, coherent_init, -1.0)
        with pytest.raises(ValueError, match="exceeds 2"):
            integrate_moments(p, coherent_init, 1.0 / KAPPA, dt=1e-300)


class TestSecondMoments:
    def test_decoupled_loss_no_gain(self, coherent_init):
        p = make_params(KAPPA, 0.0, 0.0, OMEGA1, MASS)
        series = integrate_moments(p, coherent_init, 5.0 / KAPPA, n_samples=50)
        expected_a = abs(coherent_init.alpha) ** 2 * np.exp(-2.0 * KAPPA * series.t)
        assert np.max(np.abs(series.n_a - expected_a)) < 1e-10
        assert np.max(np.abs(series.n_b - abs(coherent_init.beta) ** 2)) < 1e-12

    def test_vacuum_gain_slopes(self):
        p = params_at(0.5, 0.9)
        series = integrate_moments(p, CoherentInit(), 0.01 / KAPPA, n_samples=10)
        dt = series.t[1] - series.t[0]
        # n_b grows from zero with initial slope 2*gamma; n_a stays second order.
        assert series.n_b[1] / dt == pytest.approx(2.0 * p.gamma, rel=1e-3)
        assert series.n_a[0] == 0.0
        assert series.n_a[1] / dt < 1e-3 * p.gamma

    def test_long_time_matches_steady_formula(self, coherent_init):
        p = params_at(0.6, 1.2)
        series = integrate_moments(p, coherent_init, 50.0 / KAPPA, n_samples=20)
        n_a_s, n_b_s = steady_numbers(p)
        assert series.n_a[-1] == pytest.approx(n_a_s, rel=1e-4)
        assert series.n_b[-1] == pytest.approx(n_b_s, rel=1e-4)

    def test_homogeneous_spectrum_is_pairwise_sums(self):
        # Eigenvalues of the closed second-moment system must be pairwise sums
        # lambda_i + lambda_j* of first-moment (a, b)-block eigenvalues.
        rng = np.random.default_rng(31)
        for _ in range(50):
            g, G = rng.uniform(0.0, 2.0, size=2)
            second_eigs = np.linalg.eigvals(second_moment_matrix(g, G))
            _, _, _, lam_p, _, lam_m = eigenvalues(g, G, 10.0)
            expected = np.array(
                [
                    lam_p + lam_p.conjugate(),
                    lam_m + lam_m.conjugate(),
                    lam_p + lam_m.conjugate(),
                    lam_m + lam_p.conjugate(),
                ]
            )
            d = np.abs(second_eigs[:, None] - expected[None, :])
            assert max(np.max(np.min(d, axis=0)), np.max(np.min(d, axis=1))) < 1e-9

    def test_region4_number_beat_period(self, coherent_init):
        # Beat period of n_a equals 2*pi / (2 * Im sqrt(G^2 - (kappa+gamma)^2/4)).
        p = params_at(0.6, 1.2)
        series = integrate_moments(p, coherent_init, 15.0 / KAPPA, n_samples=3000)
        n = series.n_a
        peaks = [i for i in range(1, len(n) - 1) if n[i] >= n[i - 1] and n[i] >= n[i + 1]]
        spacings = np.diff(series.t[peaks])
        expected = 2.0 * math.pi / abs(p.Omega)  # |Omega| = 2 Im sqrt(G^2 - (k+g)^2/4)
        assert np.mean(spacings) == pytest.approx(expected, rel=0.02)

    def test_overflow_truncation_in_unstable_regime(self, coherent_init):
        p = params_at(1.8, 1.2)
        series = integrate_moments(p, coherent_init, 40.0 / KAPPA, n_samples=400)
        assert series.truncated
        assert series.t[-1] < 40.0 / KAPPA
        assert np.max(series.n_b) > 1e12

    def test_nan_state_counts_as_overflow(self, coherent_init):
        # One 6000/kappa sample interval: the composed map overflows extended
        # precision and inf - inf gives NaN.
        p = params_at(1.8, 1.2)
        with np.errstate(over="ignore", invalid="ignore"):
            series = integrate_moments(p, coherent_init, 6000.0 / KAPPA, n_samples=2)
        assert np.isnan(series.n_a[-1]) and np.isnan(series.n_b[-1])
        assert series.truncated


class TestSplit:
    def test_initial_spontaneous_exactly_zero(self, coherent_init):
        p = params_at(1.0, 1.5)
        split = stimulated_spontaneous_split(integrate_moments(p, coherent_init, 1.0 / KAPPA,
                                                               n_samples=10))
        assert split.n_a_sp[0] == 0.0
        assert split.n_b_sp[0] == 0.0

    def test_vacuum_run_is_all_spontaneous(self):
        p = params_at(1.0, 1.5)
        series = integrate_moments(p, CoherentInit(), 5.0 / KAPPA, n_samples=50)
        split = stimulated_spontaneous_split(series)
        assert np.all(split.n_a_st == 0.0)
        assert np.all(split.n_b_st == 0.0)
        assert np.array_equal(split.n_a_sp, series.n_a)

    def test_spontaneous_dominates_at_late_times_for_equal_gain(self, coherent_init):
        p = params_at(1.0, 1.5)
        split = stimulated_spontaneous_split(integrate_moments(p, coherent_init, 30.0 / KAPPA,
                                                               n_samples=300))
        late = split.t * KAPPA >= 25.0
        assert np.mean(split.n_a_sp[late]) > np.mean(split.n_a_st[late])
        assert np.mean(split.n_b_sp[late]) > np.mean(split.n_b_st[late])

    def test_moment_state_accessor(self, coherent_init, propagated):
        # The moments of one sample: coherent at t = 0.
        p = params_at(0.6, 1.2)
        series = integrate_moments(p, coherent_init, 1.0 / KAPPA, n_samples=10)
        assert series.t[0] == 0.0
        assert series.a_mean[0] == coherent_init.alpha
        assert series.b_mean[0] == coherent_init.beta
        assert series.n_a[0] == abs(coherent_init.alpha) ** 2
        assert series.n_b[0] == abs(coherent_init.beta) ** 2
        # Im(alpha* beta) starts the last state, as in the eight-state reference.
        _, _, x0 = reference_system(0.6, 1.2, OMEGA1 / KAPPA, coherent_init)
        s0 = (coherent_init.alpha.conjugate() * coherent_init.beta).imag
        assert propagated[-1][0, 6] == x0[7] == s0
        # Total number dominates the stimulated part along the trajectory.
        assert np.all(series.n_a >= np.abs(series.a_mean) ** 2 - 1e-9)
        assert np.all(series.n_b >= np.abs(series.b_mean) ** 2 - 1e-9)

    def test_default_dt_resolves_fast_scale(self):
        p = params_at(0.6, 1.2)
        assert default_dt(p) == pytest.approx(1e-3 / OMEGA1)


def _referee_cases():
    for name, g, G, t_end, samples, miss in F0_LONG_RUNS:
        if miss is None:
            marks = pytest.mark.xfail(
                LONGDOUBLE_IS_FLOAT64, strict=True,
                reason="maps composed in float64 put n_a and n_b off by 6.8e-5 to 6.9e-5")
        else:
            marks = pytest.mark.xfail(
                strict=True, reason=f"the oracle's n_a and n_b are off by {miss:.1e}: its composed "
                                    "RK4 maps lose accuracy near the exceptional point")
        yield pytest.param(g, G, t_end, samples, id=name, marks=marks)


class TestOracleAgainstMpmath:
    @pytest.mark.parametrize("g,G,t_end,samples", _referee_cases())
    def test_long_runs_on_the_f0_line_and_at_the_ep(self, g, G, t_end, samples, coherent_init):
        # The oracle against the 50-digit referee, at evolve's default gate.
        p = params_at(g, G)
        series = integrate_moments(p, coherent_init, t_end / KAPPA, n_samples=samples)
        split = stimulated_spontaneous_split(series)
        ref = mp_reference(p, coherent_init, np.linspace(0.0, t_end, samples))
        for field, got in (("n_a", series.n_a), ("n_b", series.n_b),
                           ("n_a_st", split.n_a_st), ("n_b_st", split.n_b_st)):
            assert np.max(np.abs(got - ref[field]) / np.abs(ref[field])) <= 1e-6, field

