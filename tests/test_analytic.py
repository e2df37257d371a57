import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptomech import (
    ClosedFormError,
    CoherentInit,
    NoSteadyState,
    displacement,
    finite_time_amplitude,
    first_moments_closed_form,
    integrate_moments,
    make_params,
    numbers,
    steady_numbers,
    stimulated_spontaneous_split,
)
from ptomech.analytic import steady_state
from ptomech import analytic, presets
from ptomech.presets import PRESETS

from conftest import F0_LONG_RUNS, KAPPA, TRAJECTORY_SETS, mp_reference, params_at


def relmax(a, b, floor=1e-12):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


def oracle_split(params, init, t_end, n_samples=200, dt=None):
    series = integrate_moments(params, init, t_end, dt=dt, n_samples=n_samples)
    return series, stimulated_spontaneous_split(series)


class TestDisplacement:
    def test_initial_value(self, coherent_init):
        p = params_at(0.6, 1.2)
        x0 = displacement(p, coherent_init, 0.0)
        assert x0 == pytest.approx(2.0 * p.x_zpf * coherent_init.beta.real, rel=1e-14)

    @pytest.mark.parametrize("name,g,G,region", TRAJECTORY_SETS)
    def test_matches_first_moment_oracle(self, name, g, G, region, coherent_init):
        p = params_at(g, G)
        first = integrate_moments(p, coherent_init, 10.0 / KAPPA, n_samples=200)
        x_analytic = displacement(p, coherent_init, first.t) / p.x_zpf
        x_numeric = 2.0 * first.b_mean.real
        # Pointwise relative error (absolute floor near zeros) and a tighter
        # bound relative to the trajectory scale, which is immune to samples
        # landing next to zero crossings.
        assert relmax(x_analytic, x_numeric) <= 1e-6
        scale = np.max(np.abs(x_numeric))
        assert np.max(np.abs(x_analytic - x_numeric)) <= 1e-8 * scale

    def test_region4_envelope_decays_to_zero(self, coherent_init):
        p = params_at(0.6, 1.2)
        t = np.linspace(0.0, 30.0 / KAPPA, 6001)
        x = np.abs(displacement(p, coherent_init, t)) / p.x_zpf
        early = np.max(x[t * KAPPA <= 2.0])
        late = np.max(x[t * KAPPA >= 28.0])
        assert late < 1e-2 * early

    def test_ep_continuity_against_nearby_point(self, coherent_init):
        # |Omega| = 0 (series path) vs |Omega| = 1e-6 kappa: < 1e-6 relative.
        g = 0.6
        G_ep = 0.5 * (1.0 + g)
        G_near = 0.5 * math.sqrt((1.0 + g) ** 2 - 1e-12)
        t = np.linspace(0.0, 10.0 / KAPPA, 101)
        x_ep = displacement(params_at(g, G_ep), coherent_init, t) / params_at(g, G_ep).x_zpf
        x_near = displacement(params_at(g, G_near), coherent_init, t) / params_at(g, G_near).x_zpf
        scale = np.max(np.abs(x_ep))
        assert np.max(np.abs(x_ep - x_near)) / scale < 1e-6

    def test_rejects_negative_time(self, coherent_init):
        with pytest.raises(ValueError):
            displacement(params_at(0.6, 1.2), coherent_init, -1.0)


class TestFiniteTimeAmplitude:
    def test_vacuum_gives_zero(self):
        p = params_at(0.6, math.sqrt(0.6))
        assert finite_time_amplitude(p, CoherentInit()) == 0.0

    def test_homogeneous_of_degree_one(self, coherent_init):
        p = params_at(0.6, math.sqrt(0.6))
        a1 = finite_time_amplitude(p, coherent_init)
        doubled = CoherentInit(alpha=2 * coherent_init.alpha, beta=2 * coherent_init.beta)
        assert finite_time_amplitude(p, doubled) == pytest.approx(2.0 * a1, rel=1e-12)

    def test_equals_late_time_numeric_amplitude(self, coherent_init):
        p = params_at(0.6, math.sqrt(0.6))
        a_s = finite_time_amplitude(p, coherent_init)
        first = integrate_moments(p, coherent_init, 30.0 / KAPPA, n_samples=3000)
        sel = first.t * KAPPA >= 20.0
        # |x| envelope equals 2*x_zpf*|<b>| since the fast phase factor has unit modulus.
        envelope = 2.0 * p.x_zpf * np.abs(first.b_mean[sel])
        assert np.max(envelope) == pytest.approx(a_s, rel=1e-3)

    def test_rejects_points_off_the_boundary_curve(self, coherent_init):
        with pytest.raises(ValueError):
            finite_time_amplitude(params_at(0.6, 1.2), coherent_init)
        with pytest.raises(ValueError):
            finite_time_amplitude(params_at(1.5, math.sqrt(1.5)), coherent_init)

    @pytest.mark.parametrize("tol", [math.nan, 0.5, 0.0])
    def test_rejects_bad_tol(self, coherent_init, tol):
        with pytest.raises(ValueError, match="tol must be in"):
            finite_time_amplitude(params_at(0.6, math.sqrt(0.6)), coherent_init, tol=tol)


class TestNumbersEqualGain:
    def test_initial_decomposition(self, coherent_init):
        p = params_at(1.0, 1.5)
        split = numbers(p, coherent_init, 0.0)
        assert split.n_a_st == pytest.approx(abs(coherent_init.alpha) ** 2, rel=1e-14)
        assert split.n_b_st == pytest.approx(abs(coherent_init.beta) ** 2, rel=1e-14)
        assert split.n_a_sp == 0.0
        assert split.n_b_sp == 0.0

    @pytest.mark.parametrize("G", [1.5, 0.8])
    def test_matches_moment_oracle(self, G, coherent_init):
        p = params_at(1.0, G)
        series, split = oracle_split(p, coherent_init, 10.0 / KAPPA)
        closed = numbers(p, coherent_init, series.t)
        assert relmax(closed.n_a_st, split.n_a_st) <= 1e-6
        assert relmax(closed.n_b_st, split.n_b_st) <= 1e-6
        assert relmax(closed.n_a_sp, split.n_a_sp) <= 1e-6
        assert relmax(closed.n_b_sp, split.n_b_sp) <= 1e-6
        assert relmax(closed.n_a, series.n_a) <= 1e-6

    def test_region6_oscillates_with_rising_equilibrium(self, coherent_init):
        p = params_at(1.0, 1.5)
        t = np.linspace(0.0, 30.0 / KAPPA, 3001)
        n_a = numbers(p, coherent_init, t).n_a
        # Rising long-run trend: window means increase monotonically.
        means = [np.mean(n_a[(t * KAPPA >= lo) & (t * KAPPA < lo + 7.5)]) for lo in (0, 7.5, 15, 22.5)]
        assert all(b > a for a, b in zip(means, means[1:]))
        # Superimposed oscillation: the signal dips below each window mean.
        assert np.min(n_a[t * KAPPA >= 22.5]) < means[-1]


class TestNumbersUnequalGain:
    def test_initial_decomposition(self, coherent_init):
        p = params_at(0.6, 0.798)
        split = numbers(p, coherent_init, 0.0)
        assert split.n_a_st == pytest.approx(abs(coherent_init.alpha) ** 2, rel=1e-14)
        assert split.n_b_st == pytest.approx(abs(coherent_init.beta) ** 2, rel=1e-14)
        assert split.n_a_sp == 0.0
        assert split.n_b_sp == 0.0

    @pytest.mark.parametrize("g,G", [(0.6, 1.2), (0.6, 0.798), (0.6, 0.6), (1.8, 2.1), (1.8, 1.2)])
    def test_matches_moment_oracle(self, g, G, coherent_init):
        p = params_at(g, G)
        series, split = oracle_split(p, coherent_init, 10.0 / KAPPA)
        closed = numbers(p, coherent_init, series.t)
        assert relmax(closed.n_a_st, split.n_a_st) <= 1e-6
        assert relmax(closed.n_b_st, split.n_b_st) <= 1e-6
        assert relmax(closed.n_a_sp, split.n_a_sp) <= 1e-6
        assert relmax(closed.n_b_sp, split.n_b_sp) <= 1e-6

    def test_long_time_reaches_steady_values(self, coherent_init):
        p = params_at(0.6, 0.798)
        n_a_s, n_b_s = steady_numbers(p)
        split = numbers(p, coherent_init, 60.0 / KAPPA)
        assert split.n_a == pytest.approx(n_a_s, rel=1e-5)
        assert split.n_b == pytest.approx(n_b_s, rel=1e-5)

    def test_gain_dominated_growth_signatures(self, coherent_init):
        # gamma > kappa: exponential growth, oscillating for G > (kappa+gamma)/2
        # and monotone (after an initial transient) otherwise.
        t = np.linspace(0.0, 10.0 / KAPPA, 2001)
        osc = numbers(params_at(1.8, 2.1), coherent_init, t).n_a
        mono = numbers(params_at(1.8, 1.2), coherent_init, t).n_a
        assert osc[-1] > 1e3 and mono[-1] > 1e3
        late = t * KAPPA >= 5.0
        assert np.all(np.diff(mono[late]) > 0)
        assert np.any(np.diff(osc[late]) < 0)

    def test_limit_to_equal_gain(self, coherent_init):
        # gamma -> kappa at fixed G = 1.5 kappa, t = 2/kappa: converges to the
        # equal-gain values within 1e-4 relative at |gamma-kappa| = 1e-6 kappa.
        t = 2.0 / KAPPA
        eq = numbers(params_at(1.0, 1.5), coherent_init, t)
        near = numbers(params_at(1.0 + 1e-6, 1.5), coherent_init, t)
        for field in ("n_a_st", "n_b_st", "n_a_sp", "n_b_sp"):
            assert getattr(near, field) == pytest.approx(getattr(eq, field), rel=1e-4)

    def test_ep_continuity_on_transition_line(self, coherent_init):
        # Omega = 0 with gamma != kappa exercises the series path of Eq-type forms.
        g = 0.6
        G_ep = 0.5 * (1.0 + g)
        G_near = 0.5 * math.sqrt((1.0 + g) ** 2 - 1e-12)  # |Omega| = 1e-6 kappa
        t = np.linspace(0.0, 10.0 / KAPPA, 101)
        at_ep = numbers(params_at(g, G_ep), coherent_init, t)
        near = numbers(params_at(g, G_near), coherent_init, t)
        for field in ("n_a_st", "n_b_st", "n_a_sp", "n_b_sp"):
            a = np.asarray(getattr(at_ep, field))
            b = np.asarray(getattr(near, field))
            assert np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a))) < 1e-6


def steady_loop(kappa, gammas, Gs, tol=1e-9):
    """Reference: the steady numbers point by point in Python float arithmetic."""
    out = []
    for g, G in zip(gammas.tolist(), Gs.tolist()):
        f = G * G - g * kappa
        if f / kappa**2 <= tol:
            out.append((math.nan, math.nan, 1))
        elif g / kappa >= 1.0 - tol:
            out.append((math.nan, math.nan, 2))
        else:
            n_a_s = G * G * g / ((kappa - g) * f)
            out.append((n_a_s, n_a_s + kappa * g / f, 0))
    return [np.array(column) for column in zip(*out)]


class TestSteadyNumbers:
    @pytest.mark.parametrize("sweep,fixed,missing", [("G", 0.6, {0, 1}), ("gamma", 1.5, {0, 1, 2})])
    def test_array_rule_matches_a_point_loop(self, sweep, fixed, missing):
        # Across f = 0 and gamma = kappa, exactly on both, and through the tol bands.
        values = np.concatenate([np.linspace(0.0, 3.0, 301), [math.sqrt(0.6), 1.0, 1.0 - 1e-9]])
        other = np.full_like(values, fixed)
        gammas, Gs = (other, values) if sweep == "G" else (values, other)
        got = steady_state(KAPPA, gammas * KAPPA, Gs * KAPPA)
        ref = steady_loop(KAPPA, gammas * KAPPA, Gs * KAPPA)
        for x, y in zip(got, ref):
            assert np.array_equal(x, y, equal_nan=True)
        assert set(got[2].tolist()) == missing

    @pytest.mark.parametrize("tol", [math.nan, 0.5, 0.0])
    def test_rejects_bad_tol(self, tol):
        # NaN would otherwise pass both "no steady state" comparisons.
        with pytest.raises(ValueError, match="tol must be in"):
            steady_numbers(params_at(1.5, 0.5), tol=tol)

    def test_reference_point(self):
        # Exact fractions: n_a_s = 159201/6134, n_b_s = 259201/6134.
        n_a_s, n_b_s = steady_numbers(params_at(0.6, 0.798))
        assert n_a_s == pytest.approx(25.953863710466255, rel=1e-12)
        assert n_b_s == pytest.approx(42.25643951744376, rel=1e-12)

    def test_zero_gain_vacuum(self):
        n_a_s, n_b_s = steady_numbers(params_at(0.0, 0.798))
        assert n_a_s == 0.0 and n_b_s == 0.0

    def test_large_coupling_limit(self):
        # Both approach gamma/(kappa-gamma) = 1.5 from above as G grows.
        values = [steady_numbers(params_at(0.6, G)) for G in (2.0, 5.0, 20.0, 100.0)]
        n_a = [v[0] for v in values]
        n_b = [v[1] for v in values]
        assert all(x > 1.5 for x in n_a + n_b)
        assert n_a == sorted(n_a, reverse=True)
        assert n_b == sorted(n_b, reverse=True)
        assert n_a[-1] == pytest.approx(1.5, rel=1e-4)

    def test_no_steady_state_is_typed(self):
        for point in ((1.8, 1.2), (1.0, 1.5), (0.6, math.sqrt(0.6))):
            with pytest.raises(NoSteadyState, match="no finite steady state"):
                steady_numbers(params_at(*point))
        # A bad tolerance is not a missing steady state.
        with pytest.raises(ValueError, match="tol must be in") as info:
            steady_numbers(params_at(1.8, 1.2), tol=0.0)
        assert not isinstance(info.value, NoSteadyState)

    def test_rejects_points_without_steady_state(self):
        with pytest.raises(ValueError):
            steady_numbers(params_at(1.8, 1.2))  # unstable
        with pytest.raises(ValueError):
            steady_numbers(params_at(1.0, 1.5))  # finite-time stable boundary
        with pytest.raises(ValueError):
            steady_numbers(params_at(0.6, math.sqrt(0.6)))  # f = 0 curve


_PLANE = st.floats(0.0, 2.5)
# Points of the open plane mixed with points hit exactly on gamma = kappa, on
# f = 0 (G = sqrt(gamma kappa)) and on the transition line G = (gamma+kappa)/2.
_POINTS = st.tuples(_PLANE, _PLANE) | _PLANE.flatmap(
    lambda g: st.sampled_from([(1.0, g), (g, math.sqrt(g)), (g, 0.5 * (1.0 + g))]))
_AMPLITUDES = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


class TestDecompositionProperties:
    def test_steady_values_independent_of_initial_state(self):
        p = params_at(0.6, 0.798)
        n_a_s, n_b_s = steady_numbers(p)
        rng = np.random.default_rng(99)
        t = 60.0 / KAPPA
        for _ in range(20):
            init = CoherentInit(
                alpha=rng.uniform(0, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                beta=rng.uniform(0, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            )
            split = numbers(p, init, t)
            assert split.n_a == pytest.approx(n_a_s, rel=1e-4)
            assert split.n_b == pytest.approx(n_b_s, rel=1e-4)

    def test_stimulated_identity_against_first_moments(self, coherent_init):
        # n_st(t) must equal |<a>(t)|^2, |<b>(t)|^2 with the means solving the
        # first-moment equations (checked against the RK4 path pointwise).
        for g, G in [(0.6, 1.2), (1.8, 2.1)]:
            p = params_at(g, G)
            first = integrate_moments(p, coherent_init, 8.0 / KAPPA, n_samples=100)
            closed = numbers(p, coherent_init, first.t)
            assert relmax(closed.n_a_st, np.abs(first.a_mean) ** 2) <= 1e-7
            assert relmax(closed.n_b_st, np.abs(first.b_mean) ** 2) <= 1e-7

    def test_spontaneous_parts_nonnegative(self, coherent_init):
        t = np.linspace(0.0, 10.0 / KAPPA, 501)
        for g, G in [(0.6, 1.2), (0.6, 0.798), (1.8, 2.1), (1.8, 1.2)]:
            split = numbers(params_at(g, G), coherent_init, t)
            for sp, tot in ((split.n_a_sp, split.n_a), (split.n_b_sp, split.n_b)):
                assert np.all(sp >= -1e-9 * np.maximum(1.0, tot))
        eq = numbers(params_at(1.0, 1.5), coherent_init, t)
        assert np.all(eq.n_a_sp >= -1e-9 * np.maximum(1.0, eq.n_a))
        assert np.all(eq.n_b_sp >= -1e-9 * np.maximum(1.0, eq.n_b))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(point=_POINTS, alpha=_AMPLITUDES, beta=_AMPLITUDES)
    def test_spontaneous_part_independent_of_initial_state(self, point, alpha, beta):
        # The spontaneous parts are the vacuum response: the same bits for any (alpha, beta).
        p = params_at(*point)
        t = np.linspace(0.0, 6.0 / KAPPA, 13)
        got = numbers(p, CoherentInit(alpha=alpha, beta=beta), t)
        vacuum = numbers(p, CoherentInit(), t)
        assert np.array_equal(got.n_a_sp, vacuum.n_a_sp)
        assert np.array_equal(got.n_b_sp, vacuum.n_b_sp)


def _pointwise_rel(got, ref):
    # Both sides are exactly 0 for the spontaneous parts at t = 0.
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))


MP_GRID = np.linspace(0.0, 10.0, 11)


def _near_line_points():
    for k in range(2, 13):
        e = 10.0**-k
        for s, sign in ((1, "+"), (-1, "-")):
            yield f"gamma=kappa(1{sign}1e-{k})", 1.0 + s * e, 1.5
            yield f"f={sign}1e-{k}", 0.6, math.sqrt(0.6 + s * e)
            yield f"Omega^2={sign}1e-{k}", 0.6, 0.5 * math.sqrt(1.6**2 - s * e)


EXACT_LINE_POINTS = [
    ("gamma=kappa,PT", 1.0, 1.5),
    ("gamma=kappa,broken", 1.0, 0.8),
    ("f=0,gain<loss", 0.6, math.sqrt(0.6)),
    ("f=0,gain>loss", 1.8, math.sqrt(1.8)),
    ("Omega=0,gain<loss", 0.6, 0.8),
    ("Omega=0,gain>loss", 1.8, 1.4),
    ("EP", 1.0, 1.0),
    ("decoupled", 2.5, 0.0),
    # Regression point: a form with a 1/((gamma-kappa) f) prefactor is off by 2.1e-7 here.
    ("regression,near-EP", 0.6, 0.8 * (1.0 - 1e-8)),
]


class TestNumbersAgainstMpmath:
    @pytest.mark.parametrize("g,G", [pytest.param(g, G, id=name) for name, g, G
                                     in [*_near_line_points(), *EXACT_LINE_POINTS]])
    def test_matches_50_digit_reference(self, g, G, coherent_init):
        p = params_at(g, G)
        ref = mp_reference(p, coherent_init, MP_GRID)
        got = numbers(p, coherent_init, MP_GRID / KAPPA)
        for field in ("n_a_st", "n_b_st", "n_a_sp", "n_b_sp"):
            assert _pointwise_rel(getattr(got, field), ref[field]) <= 1e-10, field

    # The dense benchmark's window: S2's direct form cancels near the Taylor
    # switch here, which is where evaluating in real arithmetic moves digits.
    @pytest.mark.parametrize("g,G", [pytest.param(g, G, id=name) for name, g, G in [
        ("broken", 0.6, 0.5), ("PT", 0.6, 1.2), ("f=0", 0.6, math.sqrt(0.6)),
        ("Omega~0", 0.6, 0.5 * math.sqrt(1.6**2 - 1e-8)), ("EP", 1.0, 1.0)]])
    def test_short_time_window(self, g, G, coherent_init):
        p, grid = params_at(g, G), np.linspace(0.0, 0.5, 41)
        ref = mp_reference(p, coherent_init, grid)
        got = numbers(p, coherent_init, grid / KAPPA)
        for field in ("n_a_st", "n_b_st", "n_a_sp", "n_b_sp"):
            assert _pointwise_rel(getattr(got, field), ref[field]) <= 1e-11, field

    @pytest.mark.parametrize("g,G,t_end,samples", [pytest.param(*run, id=name)
                                                    for name, *run, _ in F0_LONG_RUNS])
    def test_long_runs_on_the_f0_line_and_at_the_ep(self, g, G, t_end, samples, coherent_init):
        # Where the oracle fails its gate, the closed forms stay within 2.8e-10.
        p, grid = params_at(g, G), np.linspace(0.0, t_end, samples)
        ref = mp_reference(p, coherent_init, grid)
        got = numbers(p, coherent_init, grid / KAPPA)
        for field in ("n_a", "n_b", "n_a_st", "n_b_st"):
            assert _pointwise_rel(getattr(got, field), ref[field]) <= 1e-9, field

    def test_cavity_only_state_at_weak_coupling(self):
        # With beta = 0 the growing mode of <a> is fed only through
        # gamma + kappa - Omega ~ 2G^2/(gamma+kappa), which must not be formed
        # by cancellation.
        p, init = params_at(2.5, 1e-5), CoherentInit(alpha=2.0, beta=0.0)
        ref = mp_reference(p, init, MP_GRID)
        got = numbers(p, init, MP_GRID / KAPPA)
        for field in ("n_a_st", "n_b_st", "n_a_sp", "n_b_sp"):
            assert _pointwise_rel(getattr(got, field), ref[field]) <= 1e-10, field


_BROKEN_PT_POINTS = st.one_of(
    # The open broken-PT region G < (gamma + kappa)/2 and its lines gamma = kappa
    # and f = 0 (G = sqrt(gamma kappa), below the line except at the EP).
    st.tuples(_PLANE, st.floats(0.0, 1.0, exclude_max=True)).map(
        lambda p: (p[0], 0.5 * (1.0 + p[0]) * p[1])),
    st.floats(0.0, 1.0, exclude_max=True).map(lambda s: (1.0, s)),
    _PLANE.map(lambda g: (g, math.sqrt(g))),
    # Omega -> 0+: Omega = (gamma + kappa) sqrt(e).
    st.tuples(_PLANE, st.integers(2, 16)).map(
        lambda p: (p[0], 0.5 * (1.0 + p[0]) * math.sqrt(1.0 - 10.0 ** -p[1]))),
)


class TestRealOmega:
    """Where Omega is real the closed forms run in real arithmetic; forced
    complex, the same formulas give the same values."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(point=_BROKEN_PT_POINTS)
    def test_real_and_complex_arithmetic_agree(self, point):
        p = params_at(*point)
        assert p.Omega.imag == 0 and isinstance(analytic._omega(p), float)
        init = CoherentInit.from_polar(2.0, math.pi / 6.0, 2.0, math.pi / 3.0)
        t = np.linspace(0.0, 4.0, 41) / KAPPA
        u, w = (p.gamma - p.kappa) * t, p.Omega.real * t
        real = analytic._divided_differences(u, w)
        assert all(x.dtype == np.float64 for x in real)
        for x, y in zip(real, analytic._divided_differences(u, complex(p.Omega) * t)):
            assert _pointwise_rel(x, y) <= 1e-12
        moments = first_moments_closed_form(p, init, t)
        got = numbers(p, init, t)
        with mock.patch.object(analytic, "_omega", lambda params: params.Omega):
            forced_moments = first_moments_closed_form(p, init, t)
            forced = numbers(p, init, t)
        for x, y in zip(moments, forced_moments):
            assert _pointwise_rel(x, y) <= 1e-12
        for field in ("n_a_st", "n_b_st", "n_a_sp", "n_b_sp"):
            assert _pointwise_rel(getattr(got, field), getattr(forced, field)) <= 1e-12, field


class TestNumbersAgainstOracleProperty:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(point=_POINTS)
    def test_agrees_with_oracle_and_sp_nonnegative(self, point):
        g, G = point
        p = params_at(g, G)
        init = CoherentInit.from_polar(2.0, math.pi / 6.0, 2.0, math.pi / 3.0)
        series, _ = oracle_split(p, init, 4.0 / KAPPA, n_samples=41)
        closed = numbers(p, init, series.t)
        assert relmax(closed.n_a, series.n_a) <= 1e-6
        assert relmax(closed.n_b, series.n_b) <= 1e-6
        assert np.all(closed.n_a_sp >= 0.0) and np.all(closed.n_b_sp >= 0.0)


class TestClosedFormChecks:
    def test_no_floating_point_exceptions_at_the_paper_points(self, coherent_init):
        for name, preset in sorted(PRESETS.items()):
            if preset.kind != "evolve":
                continue
            p = params_at(preset.gamma, preset.G)
            t = integrate_moments(
                p, coherent_init, presets.T_END_DEFAULT / KAPPA, n_samples=presets.SAMPLES_DEFAULT
            ).t
            with np.errstate(all="raise"):
                numbers(p, coherent_init, t)
                displacement(p, coherent_init, t)

    def test_overflow_raises_with_horizon(self, coherent_init):
        p = params_at(3.0, 0.5)
        t = np.linspace(0.0, 400.0, 401) / KAPPA
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ClosedFormError, match="displacement is not finite") as info:
                displacement(p, coherent_init, t)
            horizon = float(info.value.args[0].split("t = ")[1].split(" s")[0])
            i = int(np.argmin(np.abs(t - horizon)))
            assert t[i] == pytest.approx(horizon, rel=1e-6) and i > 0
            displacement(p, coherent_init, t[:i])  # finite up to the horizon
            with pytest.raises(ClosedFormError, match="not finite"):
                numbers(p, coherent_init, t)

    def test_imaginary_residue_above_the_gate_names_the_quantity(self):
        # The residue is |Im| relative to max(|value|, 1): 2e-10 of 1e6 here.
        value = np.array([3.0, 1e6 * (1.0 + 2e-10j)])
        with pytest.raises(ClosedFormError) as info:
            analytic._as_real(value, "n_b_sp")
        assert str(info.value) == ("n_b_sp: imaginary residue 2.000e-10 exceeds 1e-10; "
                                   "closed form is inconsistent")

    def test_imaginary_residue_below_the_gate_gives_the_real_part(self):
        got = analytic._as_real(np.array([3.0 - 1e-11j, 1e6 * (1.0 + 5e-11j)]), "n_b_sp")
        assert got.dtype == np.float64 and np.array_equal(got, [3.0, 1e6])

    def test_long_horizon_in_the_stable_regime_stays_finite(self, coherent_init):
        # Real Omega and gamma < kappa: cosh(Omega t/2) overflows long before the
        # decaying envelope underflows to 0, so an unregrouped form gives 0 * inf.
        p = params_at(0.1, 0.4)
        n_a_s, n_b_s = steady_numbers(p)
        split = numbers(p, coherent_init, 2000.0 / KAPPA)
        assert split.n_a == pytest.approx(n_a_s, rel=1e-9)
        assert split.n_b == pytest.approx(n_b_s, rel=1e-9)
        assert abs(displacement(p, coherent_init, 2000.0 / KAPPA)) < 1e-50 * p.x_zpf
