import dataclasses
import math

import numpy as np
import pytest

from ptomech import CoherentInit, NumberSplit, PTPhase, RegimeLabel, Stability, make_params

from conftest import KAPPA, MASS, OMEGA1, params_at


class TestSystemParams:
    def test_paper_point_is_valid(self):
        p = make_params(KAPPA, 0.6 * KAPPA, 1.2 * KAPPA, OMEGA1, MASS)
        assert p.kappa == KAPPA
        assert p.gamma == 0.6 * KAPPA

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappa=0.0),
            dict(kappa=-1.0),
            dict(gamma=-1.0),
            dict(G=-0.1),
            dict(omega1=0.0),
            dict(omega1=-5.0),
            dict(mass=0.0),
            dict(kappa=math.inf),
            dict(gamma=math.nan),
            # Finite, but a square, a square in kappa units or x_zpf leaves float range.
            dict(G=1e300),
            dict(kappa=1e-300),
            dict(gamma=1e-150 * KAPPA, kappa=1e-150),
            dict(mass=1e300),
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        base = dict(kappa=KAPPA, gamma=0.5 * KAPPA, G=KAPPA, omega1=OMEGA1, mass=MASS)
        base.update(kwargs)
        with pytest.raises(ValueError):
            make_params(**base)

    def test_x_zpf_paper_value(self):
        # Independently computed with 40-digit mpmath:
        # sqrt(1.054571817e-34 / (2 * 5e-11 * 2*pi*23.4e6))
        p = params_at(0.6, 1.2)
        assert p.x_zpf == pytest.approx(8.469157657005218e-17, rel=1e-12)

    def test_f_is_exact_for_representable_inputs(self):
        p = make_params(2.0, 0.5, 1.5, 4.0, 1.0)
        assert p.f == 1.5 * 1.5 - 0.5 * 2.0

    def test_omega_branch_broken_pt(self):
        # G < (kappa+gamma)/2: purely real, nonnegative.
        p = make_params(1.0, 0.5, 0.25, 4.0, 1.0)
        assert p.Omega.imag == 0.0
        assert p.Omega.real == pytest.approx(math.sqrt(1.5**2 - 4 * 0.25**2))

    def test_omega_branch_pt(self):
        # G > (kappa+gamma)/2: purely imaginary with positive imaginary part.
        p = make_params(1.0, 0.5, 2.0, 4.0, 1.0)
        assert p.Omega.real == 0.0
        assert p.Omega.imag == pytest.approx(math.sqrt(16.0 - 1.5**2))

    def test_omega_zero_at_exceptional_point(self):
        p = make_params(1.0, 0.5, 0.75, 4.0, 1.0)
        assert p.Omega == 0.0

    def test_immutable(self):
        p = params_at(0.6, 1.2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.kappa = 2.0


class TestCoherentInit:
    def test_from_polar(self):
        init = CoherentInit.from_polar(2.0, math.pi / 6.0, 2.0, math.pi / 3.0)
        assert init.alpha == pytest.approx(2.0 * complex(math.cos(math.pi / 6), math.sin(math.pi / 6)))
        assert init.beta == pytest.approx(2.0 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))

    def test_vacuum_allowed(self):
        init = CoherentInit()
        assert init.alpha == 0 and init.beta == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CoherentInit(alpha=complex(math.inf, 0.0))
        with pytest.raises(ValueError, match=r"\|beta\|\^2 must be finite"):
            CoherentInit.from_polar(1.0, 0.0, 1e300, 0.0)


class TestLabelsAndRecords:
    def test_regime_label_validates_region(self):
        RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.UNSTABLE, 2)
        RegimeLabel(PTPhase.EXCEPTIONAL_POINT, Stability.UNSTABLE_DEGENERATE, "EP")
        with pytest.raises(ValueError):
            RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.UNSTABLE, 7)
        with pytest.raises(ValueError):
            RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.UNSTABLE, "boundary")

    def test_number_split_totals_exact(self):
        t = np.array([0.0, 1.0])
        split = NumberSplit(
            t=t,
            n_a_st=np.array([4.0, 3.0]),
            n_b_st=np.array([4.0, 2.0]),
            n_a_sp=np.array([0.0, 0.5]),
            n_b_sp=np.array([0.0, 1.5]),
        )
        assert np.array_equal(split.n_a, split.n_a_st + split.n_a_sp)
        assert np.array_equal(split.n_b, np.array([4.0, 3.5]))
