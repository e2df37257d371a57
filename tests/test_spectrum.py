import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptomech import (
    CoherentInit,
    PTPhase,
    Stability,
    classify,
    drift_eigenvalues_dense,
    drift_matrix,
    make_params,
    numbers,
    phase_diagram,
    steady_numbers,
)
from ptomech.presets import PRESETS
from ptomech.spectrum import REGIME_LABELS, _codes_and_rmax, eigenvalues, regime_codes

from conftest import (
    KAPPA, MASS, OMEGA1, RULE_POINTS, TOL, TRAJECTORY_SETS, params_at, reference_codes_and_rmax,
    rule_points,
)

# Labels whose defining property is a vanishing maximal eigenvalue real part.
MARGINAL_STABILITIES = frozenset(
    {Stability.FINITE_TIME_STABLE, Stability.STABLE_BOUNDARY, Stability.UNSTABLE_DEGENERATE}
)


def sorted_lambdas(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def eig_set_distance(a, b) -> float:
    """Hausdorff distance between two eigenvalue multisets (robust to ordering)."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    d = np.abs(a[:, None] - b[None, :])
    return max(float(np.max(np.min(d, axis=1))), float(np.max(np.min(d, axis=0))))


def lambdas_at(g, G, w1=OMEGA1 / KAPPA):
    """The four closed-form drift eigenvalues in (tau, s) order, kappa units."""
    return eigenvalues(g, G, w1)[2:]


def max_re_lambda(g, G):
    """Largest closed-form drift-eigenvalue real part, kappa units."""
    return max(lam.real for lam in lambdas_at(g, G))


class TestSupermodes:
    def test_pt_regime_split_frequencies_common_linewidth(self):
        g, w1 = 0.6, OMEGA1 / KAPPA
        wp, wm = eigenvalues(g, 1.2, w1)[:2]  # G > (kappa+gamma)/2
        assert wp.real != pytest.approx(wm.real)
        assert wp.imag == pytest.approx(wm.imag)
        assert wp.imag == pytest.approx(-(1.0 - g) / 2.0)

    def test_broken_pt_common_frequency_split_linewidths(self):
        w1 = OMEGA1 / KAPPA
        wp, wm = eigenvalues(0.6, 0.5, w1)[:2]  # G < (kappa+gamma)/2
        assert wp.real == pytest.approx(w1)
        assert wm.real == pytest.approx(w1)
        assert wp.imag != pytest.approx(wm.imag)

    def test_exact_coalescence_at_ep(self):
        wp, wm = eigenvalues(0.6, 0.8, OMEGA1 / KAPPA)[:2]  # G = (kappa+gamma)/2 exactly
        assert wp == wm


class TestDriftEigenvalues:
    def test_decoupled_modes_at_zero_coupling(self):
        g, w1 = 0.7, OMEGA1 / KAPPA
        expected = [-1.0 + 1j * w1, -1.0 - 1j * w1, g + 1j * w1, g - 1j * w1]
        got = sorted_lambdas(lambdas_at(g, 0.0))
        for a, b in zip(got, sorted_lambdas(expected)):
            assert a == pytest.approx(b, rel=1e-12)

    def test_equal_gain_case_pure_imaginary(self):
        # gamma = kappa with f > 0: lambda = tau*sqrt(kappa^2 - G^2) + i*s*omega1,
        # and the radicand is negative, so all real parts vanish.
        G, w1 = 1.5, OMEGA1 / KAPPA
        root = math.sqrt(G * G - 1.0)
        for lam in lambdas_at(1.0, G):
            assert abs(lam.real) <= 1e-9
            assert abs(lam.imag) == pytest.approx(abs(w1 + root), rel=1e-12) or abs(
                lam.imag
            ) == pytest.approx(abs(w1 - root), rel=1e-12)

    def test_region4_all_decaying_and_dense_crosscheck(self):
        lambdas = lambdas_at(0.6, 1.2)
        assert all(lam.real < 0 for lam in lambdas)
        dense = drift_eigenvalues_dense(params_at(0.6, 1.2)) / KAPPA
        assert eig_set_distance(lambdas, dense) <= 1e-10 * max(abs(z) for z in dense)

    def test_closed_form_matches_dense_on_random_points(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            g = rng.uniform(0.0, 3.0)
            G = rng.uniform(0.0, 3.0)
            w1 = rng.uniform(1.0, 30.0)
            dense = drift_eigenvalues_dense(make_params(1.0, g, G, w1, 1.0))
            assert eig_set_distance(lambdas_at(g, G, w1), dense) < 1e-10

    def test_supermodes_are_i_times_the_s_minus_eigenvalues(self):
        # The (a, b) block evolves as exp(lambda_{tau,-} t) = exp(-i omega t).
        rng = np.random.default_rng(5)
        for _ in range(100):
            g, G, w1 = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(1, 20)
            wp, wm, _, lpm, _, lmm = eigenvalues(g, G, w1)
            assert eig_set_distance([wp, wm], [1j * lpm, 1j * lmm]) < 1e-12

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g, G, w1 = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(1, 20)
            total = sum(lambdas_at(g, G, w1))
            assert total.real == pytest.approx(2.0 * (g - 1.0), abs=1e-12)
            assert total.imag == pytest.approx(0.0, abs=1e-12)
            assert np.trace(drift_matrix(make_params(1.0, g, G, w1, 1.0))) == pytest.approx(
                total, abs=1e-9)


class TestClassify:
    @pytest.mark.parametrize("name,g,G,region", TRAJECTORY_SETS)
    def test_trajectory_parameter_sets(self, name, g, G, region):
        assert classify(params_at(g, G)).region_id == region

    @pytest.mark.parametrize("name", sorted(n for n, p in PRESETS.items() if p.kind == "evolve"))
    def test_preset_descriptions_name_their_region(self, name):
        # Each trajectory preset's description ends in "(region k)": the rule
        # gives region k at the preset's point.
        preset = PRESETS[name]
        region = int(re.fullmatch(r".*\(region (\d)\)", preset.description).group(1))
        assert classify(params_at(preset.gamma, preset.G)).region_id == region
        assert REGIME_LABELS[int(regime_codes(preset.gamma, preset.G))].region_id == region

    def test_blue_point_is_degenerate(self):
        label = classify(params_at(1.0, 1.0))
        assert label.pt is PTPhase.EXCEPTIONAL_POINT
        assert label.stability is Stability.UNSTABLE_DEGENERATE
        assert label.region_id == "EP"

    def test_transition_line_off_blue_point(self):
        lo = classify(params_at(0.5, 0.75))
        hi = classify(params_at(1.5, 1.25))
        assert lo.pt is PTPhase.EXCEPTIONAL_POINT
        assert lo.stability is Stability.ASYMPTOTICALLY_STABLE
        assert hi.stability is Stability.UNSTABLE
        assert lo.region_id == hi.region_id == "EP"

    def test_transition_band_stability_from_eigenvalues(self):
        # Within tol of the line at gamma = kappa (f = -2e-9 is off the f = 0
        # band): max Re lambda = +4.47e-5 kappa, so the point is unstable,
        # whatever the sign of gamma - kappa says.
        label = classify(params_at(1.0, 0.999999999001))
        assert label.region_id == "EP"
        assert max_re_lambda(1.0, 0.999999999001) == pytest.approx(4.47e-5, rel=1e-3)
        assert label.stability is Stability.UNSTABLE
        # Past G = kappa Omega is imaginary and max Re lambda is 0: degenerate.
        assert classify(params_at(1.0, 1.0 + 0.999e-9)).stability is Stability.UNSTABLE_DEGENERATE

    def test_pt_flip_exactly_at_discriminant_sign_change(self):
        g = 0.4
        ep = 0.5 * (1.0 + g)
        assert classify(params_at(g, ep + 1e-6)).pt is PTPhase.PT_SYMMETRIC
        assert classify(params_at(g, ep - 1e-6)).pt is PTPhase.BROKEN_PT
        assert classify(params_at(g, ep)).pt is PTPhase.EXCEPTIONAL_POINT

    def test_tolerance_bounds_rejected(self):
        with pytest.raises(ValueError):
            classify(params_at(0.5, 0.5), tol=0.0)
        with pytest.raises(ValueError):
            classify(params_at(0.5, 0.5), tol=1e-2)
        with pytest.raises(ValueError):
            classify(params_at(0.5, 0.5), tol=math.nan)
        with pytest.raises(ValueError):
            phase_diagram((0.0, 1.0), (0.0, 1.0), 3, tol=math.nan)

    def test_one_point_per_code(self):
        # Each code is the index of its label; regions 1..6 have codes 1..6.
        points = [(1.0, 1.0), (1.5, 0.5), (1.5, 1.5), (0.1, 0.4), (0.6, 1.2), (0.25, 0.5),
                  (1.0, 1.2), (1.5, 1.25), (0.5, 0.75)]
        for code, (g, G) in enumerate(points):
            assert regime_codes(g, G) == code
            assert classify(make_params(1.0, g, G, 10.0, 1.0)) is REGIME_LABELS[code]
        assert all(REGIME_LABELS[k].region_id == k for k in range(1, 7))
        assert len(set(REGIME_LABELS)) == 9

    def test_stability_matches_eigenvalue_signs_on_random_points(self):
        # Unstable <=> max Re lambda > tol; asymptotically stable <=> < -tol;
        # marginal labels <=> |max Re lambda| <= tol (in kappa units).
        rng = np.random.default_rng(202)
        tol = 1e-9
        for _ in range(2000):
            g = rng.uniform(0.0, 2.5)
            G = rng.uniform(0.0, 2.5)
            label = classify(make_params(1.0, g, G, 10.0, 1.0), tol=tol)
            rmax = max_re_lambda(g, G)
            if label.stability is Stability.UNSTABLE:
                assert rmax > tol
            elif label.stability is Stability.ASYMPTOTICALLY_STABLE:
                assert rmax < -tol
            else:
                assert label.stability in MARGINAL_STABILITIES
                assert abs(rmax) <= tol

    def test_gamma_equals_kappa_line(self):
        assert classify(params_at(1.0, 1.5)).region_id == 6
        assert classify(params_at(1.0, 0.5)).region_id == 1


class TestPhaseDiagram:
    def test_two_by_two_grid(self):
        grid = phase_diagram((0.5, 1.5), (0.5, 1.5), 2)
        regions = [[REGIME_LABELS[c].region_id for c in row] for row in grid.codes]
        assert regions == [[1, 4], [1, 2]]
        # Cross-check each cell against the eigenvalue real parts.
        for i, g in enumerate(grid.gamma_over_kappa):
            for j, G in enumerate(grid.G_over_kappa):
                rmax = grid.max_re_lambda[i, j]
                dense = drift_eigenvalues_dense(make_params(1.0, g, G, 10.0, 1.0))
                assert rmax == pytest.approx(float(np.max(dense.real)), abs=1e-10)
                if REGIME_LABELS[grid.codes[i, j]].stability is Stability.UNSTABLE:
                    assert rmax > 0
                else:
                    assert rmax < 0

    def test_far_pt_stable_corner(self):
        grid = phase_diagram((0.0, 0.5), (10.0, 20.0), 3)
        assert np.all(grid.codes == 4)

    def test_gamma_equals_kappa_row_splits_at_G_equals_kappa(self):
        grid = phase_diagram((1.0, 1.0), (0.0, 2.0), (1, 21))
        ids = [REGIME_LABELS[c].region_id for c in grid.codes.ravel()]
        assert set(ids) == {1, 6, "EP"}
        assert ids[10] == "EP"  # G = kappa cell
        assert all(r == 1 for r in ids[:10])
        assert all(r == 6 for r in ids[11:])

    def test_row_major_ordering(self):
        # codes[i, j] belongs to gamma_over_kappa[i] and G_over_kappa[j].
        grid = phase_diagram((0.0, 1.0), (0.0, 2.0), (3, 5))
        assert grid.codes.shape == grid.max_re_lambda.shape == (3, 5)
        assert list(grid.gamma_over_kappa) == [0.0, 0.5, 1.0]
        assert grid.G_over_kappa[1] == pytest.approx(0.5)
        assert grid.codes[2, 0] == regime_codes(1.0, 0.0) == 1
        assert grid.codes[0, 4] == regime_codes(0.0, 2.0) == 4

    def test_non_square_grid_matches_classify(self):
        grid = phase_diagram((0.0, 2.0), (0.0, 3.0), (3, 7))
        assert grid.codes.shape == grid.max_re_lambda.shape == (3, 7)
        assert grid.codes.dtype == np.int8
        for i, g in enumerate(grid.gamma_over_kappa):
            for j, G in enumerate(grid.G_over_kappa):
                p = make_params(1.0, g, G, 10.0, 1.0)
                assert REGIME_LABELS[grid.codes[i, j]] == classify(p)
                assert grid.max_re_lambda[i, j] == pytest.approx(max_re_lambda(g, G), abs=1e-15)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            phase_diagram((1.0, 0.0), (0.0, 1.0), 5)
        with pytest.raises(ValueError):
            phase_diagram((0.0, 1.0), (-1.0, 1.0), 5)
        with pytest.raises(ValueError):
            phase_diagram((0.0, 1.0), (0.0, 1.0), 1)
        # The squares of the axis values would overflow.
        with pytest.raises(ValueError, match="floating-point range"):
            phase_diagram((0.0, 1.0), (0.0, 1e300), 5)


class TestRegimeRuleProperty:
    """The array rule against quantities it does not compute itself."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(point=RULE_POINTS)
    def test_stability_and_pt_fields(self, point):
        g, G = point
        p = make_params(1.0, g, G, 10.0, 1.0)
        label = REGIME_LABELS[regime_codes(g, G, TOL)]
        assert label == classify(p, tol=TOL)

        # The strict labels follow the sign of max Re lambda. The marginal ones
        # fix it only to O(sqrt(tol)): within tol of the transition line
        # |Omega| ~ sqrt(tol (1 + gamma)).
        rmax = float(np.max(drift_eigenvalues_dense(p).real))
        band = 2.0 * math.sqrt(TOL)
        if label.stability is Stability.UNSTABLE:
            assert rmax > -TOL
        elif label.stability is Stability.ASYMPTOTICALLY_STABLE:
            assert rmax < TOL
        else:
            assert label.stability in MARGINAL_STABILITIES
            assert abs(rmax) <= band

        disc = (1.0 + g) ** 2 - 4.0 * G * G
        if label.pt is PTPhase.EXCEPTIONAL_POINT:
            assert abs(G - 0.5 * (1.0 + g)) <= TOL
        elif label.pt is PTPhase.PT_SYMMETRIC:
            assert disc < 0.0
        else:
            assert disc > 0.0


# Open-region points (kappa units) keep MARGIN from gamma = kappa, and in G
# from f = 0 (G = sqrt(gamma)) and the transition line G = (1 + gamma)/2.
# Each region's parts, as (gamma range, G range at gamma):
MARGIN = 0.05
_OPEN_PARTS = {
    1: [((0.01, 1.0 - MARGIN), lambda g: (0.0, math.sqrt(g) - MARGIN)),
        ((1.0 + MARGIN, 2.5), lambda g: (0.0, 0.5 * (1.0 + g) - MARGIN))],
    2: [((1.0 + MARGIN, 2.5), lambda g: (0.5 * (1.0 + g) + MARGIN, 2.5))],
    3: [((0.0, 0.3), lambda g: (math.sqrt(g) + MARGIN, 0.5 * (1.0 + g) - MARGIN))],
    4: [((0.0, 1.0 - MARGIN), lambda g: (0.5 * (1.0 + g) + MARGIN, 2.5))],
}
_INIT = CoherentInit.from_polar(2.0, math.pi / 6.0, 2.0, math.pi / 3.0)


def open_points(code):
    """(gamma/kappa, G/kappa) in region ``code`` (1-4), MARGIN from every line."""
    parts = [st.floats(*g_range).flatmap(
                 lambda g, G_range=G_range: st.tuples(st.just(g), st.floats(*G_range(g))))
             for g_range, G_range in _OPEN_PARTS[code]]
    return st.one_of(parts).filter(lambda point: abs(point[1] - math.sqrt(point[0])) >= MARGIN)


def region_params(point, codes):
    """gamma/kappa, the params and Omega/kappa at a point labelled one of ``codes``."""
    g, G = point
    assert regime_codes(g, G) in codes
    p = params_at(g, G)
    return g, p, p.Omega / KAPPA


def total_number(p, t_kappa):
    """n_a + n_b from the closed forms at t_kappa/kappa."""
    n = numbers(p, _INIT, t_kappa / KAPPA)
    return n.n_a_st + n.n_a_sp + n.n_b_st + n.n_b_sp


class TestOpenRegionSignatures:
    """Each open region's label against the late-time closed forms: n_a + n_b
    grows or decays at the rate (gamma - kappa) + Re Omega (kappa units), the
    largest eigenvalue of the number system."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(point=open_points(3) | open_points(4))
    def test_stable_regions_settle_at_the_steady_numbers(self, point):
        g, p, omega = region_params(point, (3, 4))
        n = numbers(p, _INIT, 40.0 / (1.0 - g - omega.real) / KAPPA)
        for got, steady in zip((n.n_a_st + n.n_a_sp, n.n_b_st + n.n_b_sp), steady_numbers(p)):
            # Without gain the steady numbers are 0.
            assert got == pytest.approx(steady, rel=1e-9, abs=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(point=open_points(1))
    def test_broken_pt_growth_has_the_largest_rate(self, point):
        # The modes of rate (gamma - kappa) and (gamma - kappa) - Omega fall
        # behind by e^(-Omega T) and more over [T, 2T].
        g, p, omega = region_params(point, (1,))
        rate = g - 1.0 + omega.real
        T = 20.0 / rate
        slope = math.log(total_number(p, 2.0 * T) / total_number(p, T)) / T
        assert abs(slope - rate) <= 1e-3

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(point=open_points(2))
    def test_pt_symmetric_growth_over_whole_periods(self, point):
        # n_a + n_b is e^((gamma - kappa) t) times a function of period
        # 2 pi/|Omega|, plus a constant: over T, a whole number of periods, the
        # oscillation cancels from the log-slope.
        g, p, omega = region_params(point, (2,))
        rate, period = g - 1.0, 2.0 * math.pi / abs(omega)
        T = period * math.ceil(20.0 / rate / period)
        slope = math.log(total_number(p, 2.0 * T) / total_number(p, T)) / T
        assert abs(slope - rate) <= 1e-8


_NAN = math.nan
# Points where the sign tests see NaN: in gamma, in G, or in both, on and off gamma = kappa.
_NAN_POINTS = st.sampled_from([(_NAN, 1.0), (1.0, _NAN), (_NAN, _NAN), (0.5, _NAN), (1.5, _NAN),
                               (1.0 + 1e-10, _NAN)])


@st.composite
def _rule_calls(draw):
    """A tol and (g, G) for the rule: two floats (0-d), two 1-d arrays of
    points, or a column of gammas against a row of Gs."""
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    points = draw(st.lists(rule_points(tol) | RULE_POINTS | _NAN_POINTS, min_size=1, max_size=12))
    g, G = (np.array(axis) for axis in zip(*points))
    shape = draw(st.sampled_from(["0-d", "1-d", "grid"]))
    if shape == "0-d":
        return tol, float(g[0]), float(G[0])
    if shape == "1-d":
        return tol, g, G
    return tol, g[:, None], G[None, :]


class TestSignTestsAgainstFirstMatch:
    """The sign tests and the first-match rule on boundary cells give the codes
    and max Re lambda of the first-match rule over every cell."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(call=_rule_calls())
    @example(call=(1e-9, 1.0, 1.0))
    @example(call=(1e-3, np.array([1.0, 1.0 + 1e-3, 1.0 - 0.999e-3, 1.0 + 1.001e-3]),
                   np.array([1.0, 1.0 + 0.999e-3, 1.0, 1.0 - 1.001e-3])))
    @example(call=(1e-6, np.linspace(0.0, 2.0, 41)[:, None], np.linspace(0.0, 2.0, 41)[None, :]))
    def test_codes_and_rmax_match_the_reference(self, call):
        tol, g, G = call
        codes, rmax = _codes_and_rmax(g, G, tol)
        expected_codes, expected_rmax = reference_codes_and_rmax(g, G, tol)
        assert codes.dtype == np.int8
        assert codes.shape == expected_codes.shape
        assert np.array_equal(codes, expected_codes)
        assert type(rmax) is type(expected_rmax)
        assert np.shape(rmax) == np.shape(expected_rmax)
        assert np.asarray(rmax).tobytes() == np.asarray(expected_rmax).tobytes()
