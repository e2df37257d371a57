import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptomech import (
    PTPhase,
    Stability,
    classify,
    drift_eigenvalues,
    drift_eigenvalues_dense,
    drift_matrix,
    make_params,
    max_re_lambda,
    phase_diagram,
    supermode_frequencies,
)
from ptomech.model import MARGINAL_STABILITIES
from ptomech.spectrum import REGIME_LABELS, regime_codes

from conftest import KAPPA, MASS, OMEGA1, TRAJECTORY_SETS, params_at


def sorted_lambdas(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def eig_set_distance(a, b) -> float:
    """Hausdorff distance between two eigenvalue multisets (robust to ordering)."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    d = np.abs(a[:, None] - b[None, :])
    return max(float(np.max(np.min(d, axis=1))), float(np.max(np.min(d, axis=0))))


class TestSupermodes:
    def test_pt_regime_split_frequencies_common_linewidth(self):
        p = params_at(0.6, 1.2)  # G > (kappa+gamma)/2
        wp, wm = supermode_frequencies(p)
        assert wp.real != pytest.approx(wm.real)
        assert wp.imag == pytest.approx(wm.imag)
        assert wp.imag == pytest.approx(-(p.kappa - p.gamma) / 2.0)

    def test_broken_pt_common_frequency_split_linewidths(self):
        p = params_at(0.6, 0.5)  # G < (kappa+gamma)/2
        wp, wm = supermode_frequencies(p)
        assert wp.real == pytest.approx(p.omega1)
        assert wm.real == pytest.approx(p.omega1)
        assert wp.imag != pytest.approx(wm.imag)

    def test_exact_coalescence_at_ep(self):
        p = params_at(0.6, 0.8)  # G = (kappa+gamma)/2 exactly
        wp, wm = supermode_frequencies(p)
        assert wp == wm


class TestDriftEigenvalues:
    def test_decoupled_modes_at_zero_coupling(self):
        p = params_at(0.7, 0.0)
        spec = drift_eigenvalues(p)
        expected = [
            -p.kappa + 1j * p.omega1,
            -p.kappa - 1j * p.omega1,
            p.gamma + 1j * p.omega1,
            p.gamma - 1j * p.omega1,
        ]
        got = sorted_lambdas(spec.lambdas)
        for a, b in zip(got, sorted_lambdas(expected)):
            assert a == pytest.approx(b, rel=1e-12)

    def test_equal_gain_case_pure_imaginary(self):
        # gamma = kappa with f > 0: lambda = tau*sqrt(kappa^2 - G^2) + i*s*omega1,
        # and the radicand is negative, so all real parts vanish.
        p = params_at(1.0, 1.5)
        spec = drift_eigenvalues(p)
        root = math.sqrt(p.coupling_G**2 - p.kappa**2)
        for lam in spec.lambdas:
            assert abs(lam.real) <= 1e-9 * p.kappa
            assert abs(lam.imag) == pytest.approx(abs(p.omega1 + root), rel=1e-12) or abs(
                lam.imag
            ) == pytest.approx(abs(p.omega1 - root), rel=1e-12)
        assert not spec.degenerate_drift

    def test_region4_all_decaying_and_dense_crosscheck(self):
        p = params_at(0.6, 1.2)
        spec = drift_eigenvalues(p)
        assert all(lam.real < 0 for lam in spec.lambdas)
        dense = drift_eigenvalues_dense(p)
        assert eig_set_distance(spec.lambdas, dense) <= 1e-10 * max(abs(z) for z in dense)

    def test_closed_form_matches_dense_on_random_points(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            g = rng.uniform(0.0, 3.0)
            G = rng.uniform(0.0, 3.0)
            w1 = rng.uniform(1.0, 30.0)
            p = make_params(1.0, g, G, w1, 1.0)
            dense = drift_eigenvalues_dense(p)
            assert eig_set_distance(drift_eigenvalues(p).lambdas, dense) < 1e-10

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = make_params(1.0, rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(1, 20), 1.0)
            total = sum(drift_eigenvalues(p).lambdas)
            assert total.real == pytest.approx(2.0 * (p.gamma - p.kappa), abs=1e-12)
            assert total.imag == pytest.approx(0.0, abs=1e-12)
            assert np.trace(drift_matrix(p)) == pytest.approx(total, abs=1e-9)

    def test_degenerate_flag_on_transition_line(self):
        assert drift_eigenvalues(params_at(1.0, 1.0)).degenerate_drift
        assert drift_eigenvalues(params_at(0.6, 0.8)).degenerate_drift
        assert not drift_eigenvalues(params_at(0.6, 1.2)).degenerate_drift


class TestClassify:
    @pytest.mark.parametrize("name,g,G,region", TRAJECTORY_SETS)
    def test_trajectory_parameter_sets(self, name, g, G, region):
        assert classify(params_at(g, G)).region_id == region

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
            p = make_params(1.0, g, G, 10.0, 1.0)
            label = classify(p, tol=tol)
            rmax = max_re_lambda(p)
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
        regions = [[lbl.region_id for lbl in row] for row in grid.labels]
        assert regions == [[1, 4], [1, 2]]
        # Cross-check each cell against the eigenvalue real parts.
        for g, G, label, rmax in grid.rows():
            p = make_params(1.0, g, G, 10.0, 1.0)
            dense = drift_eigenvalues_dense(p)
            assert rmax == pytest.approx(float(np.max(dense.real)), abs=1e-10)
            if label.stability is Stability.UNSTABLE:
                assert rmax > 0
            else:
                assert rmax < 0

    def test_far_pt_stable_corner(self):
        grid = phase_diagram((0.0, 0.5), (10.0, 20.0), 3)
        for _, _, label, _ in grid.rows():
            assert label.region_id == 4

    def test_gamma_equals_kappa_row_splits_at_G_equals_kappa(self):
        grid = phase_diagram((1.0, 1.0), (0.0, 2.0), (1, 21))
        ids = [label.region_id for _, _, label, _ in grid.rows()]
        assert set(ids) == {1, 6, "EP"}
        assert ids[10] == "EP"  # G = kappa cell
        assert all(r == 1 for r in ids[:10])
        assert all(r == 6 for r in ids[11:])

    def test_row_major_ordering(self):
        grid = phase_diagram((0.0, 1.0), (0.0, 2.0), (3, 5))
        rows = list(grid.rows())
        assert len(rows) == 15
        assert [r[0] for r in rows[:5]] == [0.0] * 5
        assert rows[1][1] == pytest.approx(0.5)

    def test_non_square_grid_matches_classify(self):
        grid = phase_diagram((0.0, 2.0), (0.0, 3.0), (3, 7))
        assert grid.codes.shape == grid.max_re_lambda.shape == (3, 7)
        assert grid.codes.dtype == np.int8
        for i, g in enumerate(grid.gamma_over_kappa):
            for j, G in enumerate(grid.G_over_kappa):
                p = make_params(1.0, g, G, 10.0, 1.0)
                assert grid.labels[i][j] == classify(p)
                assert grid.max_re_lambda[i, j] == pytest.approx(max_re_lambda(p), abs=1e-15)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            phase_diagram((1.0, 0.0), (0.0, 1.0), 5)
        with pytest.raises(ValueError):
            phase_diagram((0.0, 1.0), (-1.0, 1.0), 5)
        with pytest.raises(ValueError):
            phase_diagram((0.0, 1.0), (0.0, 1.0), 1)


TOL = 1e-9
# Offsets of -/+ tol*(1 -/+ 1e-3) from a line: just inside and just outside its band.
_OFFSETS = st.sampled_from([0.0] + [s * TOL * (1.0 + e) for s in (-1, 1) for e in (-1e-3, 1e-3)])
_PLANE = st.floats(0.0, 2.5)
# Open-plane points mixed with points on (or offset from) gamma = kappa, f = 0
# (G = sqrt(gamma kappa)) and the transition line G = (gamma+kappa)/2.
_POINTS = st.tuples(_PLANE, _PLANE) | st.tuples(_PLANE, _OFFSETS).flatmap(
    lambda go: st.sampled_from([
        (1.0 + go[1], go[0]),
        (go[0], math.sqrt(max(go[0] + go[1], 0.0))),
        (go[0], max(0.5 * (1.0 + go[0]) + go[1], 0.0)),
    ]))


class TestRegimeRuleProperty:
    """The array rule against quantities it does not compute itself."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(point=_POINTS)
    def test_stability_and_pt_fields(self, point):
        g, G = point
        p = make_params(1.0, g, G, 10.0, 1.0)
        label = REGIME_LABELS[regime_codes(g, G, TOL)]
        assert label == classify(p, tol=TOL)

        # Within tol of the transition line |Omega| ~ sqrt(tol (1 + gamma)), so
        # the rule fixes max Re lambda only to O(sqrt(tol)) there; elsewhere
        # its sign decides.
        rmax = float(np.max(drift_eigenvalues_dense(p).real))
        band = 2.0 * math.sqrt(TOL)
        if label.stability is Stability.UNSTABLE:
            assert rmax > -band
        elif label.stability is Stability.ASYMPTOTICALLY_STABLE:
            assert rmax < band
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
