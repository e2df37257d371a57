import math
import pickle

import numpy as np
import pytest

from ptomech import (
    CoherentInit,
    FirstMomentSeries,
    NumberSplit,
    PhaseDiagramGrid,
    PTPhase,
    RegimeLabel,
    SecondMomentSeries,
    Stability,
    SystemParams,
    make_params,
)
from ptomech.presets import PRESETS, FigurePreset
from ptomech.spectrum import REGIME_LABELS

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
        with pytest.raises(AttributeError):
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


def one_of_each() -> list:
    """One record of each of the eight types, all fields scalars, and the
    value its last argument takes in a second, unequal record."""
    cases = [
        (SystemParams(1.0, 0.5, 0.75, 4.0, 1.0), 2.0),
        (CoherentInit(1 + 2j, 3j), 0j),
        (RegimeLabel(PTPhase.BROKEN_PT, Stability.UNSTABLE, 1), "EP"),
        (NumberSplit(0.0, 1.0, 2.0, 0.5, 0.25), 0.5),
        (FirstMomentSeries(0.0, 1j, 2j), True),
        (SecondMomentSeries(0.0, 1.0, 2.0, truncated=True), False),
        (PhaseDiagramGrid(0.5, 0.75, 3, -0.1), 0.1),
        (FigurePreset("x", "evolve", "a preset", gamma=0.6, G=1.2), 5),
    ]
    return [pytest.param(record, changed, id=type(record).__name__) for record, changed in cases]


class TestRecords:
    @pytest.mark.parametrize("record,_", one_of_each())
    def test_assignment_and_deletion_raise(self, record, _):
        name = type(record).__slots__[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1.0
        assert getattr(record, name) == before

    @pytest.mark.parametrize("record,changed", one_of_each())
    def test_fieldwise_equality_hash_repr_and_pickle(self, record, changed):
        cls = type(record)
        twin = cls(*(getattr(record, name) for name in cls._fields))
        assert twin == record and hash(twin) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record
        other = cls(*(getattr(record, name) for name in cls._fields[:-1]), changed)
        assert other != record
        assert repr(record).startswith(f"{cls.__name__}({cls.__slots__[0]}=")
        assert all(f"{name}={getattr(record, name)!r}" in repr(record) for name in cls.__slots__)

    def test_equality_needs_the_same_type(self):
        first = FirstMomentSeries(0.0, 1.0, 2.0)
        assert first != SecondMomentSeries(0.0, 1.0, 2.0)
        assert first != (0.0, 1.0, 2.0, False)

    def test_keywords_and_positions_fill_the_same_fields(self):
        assert SystemParams(1.0, 0.5, 0.75, 4.0, 1.0) == make_params(1.0, 0.5, 0.75, 4.0, 1.0)
        assert CoherentInit(1j, beta=2j) == CoherentInit(alpha=1j, beta=2j)

    def test_defaults(self):
        assert CoherentInit() == CoherentInit(0j, 0j)
        assert CoherentInit(beta=1j).alpha == 0j
        preset = FigurePreset(name="x", kind="evolve", description="d")
        assert [getattr(preset, name) for name in FigurePreset.__slots__[3:]] == [None] * 6
        t = np.zeros(2)
        assert FirstMomentSeries(t, t, t).truncated is False
        assert SecondMomentSeries(t=t, n_a=t, n_b=t).truncated is False

    def test_bad_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            SystemParams(1.0, 0.5, 0.75, 4.0)
        with pytest.raises(TypeError):
            CoherentInit(1j, 2j, 3j)
        with pytest.raises(TypeError):
            CoherentInit(1j, alpha=2j)
        with pytest.raises(TypeError):
            FirstMomentSeries(t=0.0, a_mean=0.0, b_mean=0.0, n_a=0.0)
        # The totals are computed, not given.
        with pytest.raises(TypeError):
            NumberSplit(0.0, 1.0, 2.0, 0.5, 0.25, n_a=1.5)

    def test_validation_messages_unchanged(self):
        with pytest.raises(ValueError, match=r"^kappa must be > 0, got 0.0$"):
            make_params(0.0, 0.5, 0.75, 4.0, 1.0)
        with pytest.raises(ValueError, match=r"^gamma must be finite, got nan$"):
            make_params(1.0, math.nan, 0.75, 4.0, 1.0)
        with pytest.raises(ValueError, match=r"^coupling_G must be >= 0, got -1.0$"):
            make_params(1.0, 0.5, -1.0, 4.0, 1.0)
        with pytest.raises(ValueError, match=r"^rates out of floating-point range"):
            make_params(1.0, 0.5, 1e300, 4.0, 1.0)
        with pytest.raises(ValueError, match=r"^alpha must have finite components, got \(inf\+0j\)$"):
            CoherentInit(alpha=complex(math.inf, 0.0))
        with pytest.raises(ValueError, match=r"^region_id must be in 1..6 or 'EP', got 0$"):
            RegimeLabel(PTPhase.BROKEN_PT, Stability.UNSTABLE, 0)
        with pytest.raises(ValueError, match=r"^region_id must be in 1..6 or 'EP', got 'ep'$"):
            RegimeLabel(PTPhase.BROKEN_PT, Stability.UNSTABLE, "ep")

    def test_number_split_totals_are_fields(self):
        split = NumberSplit(0.0, 1.0, 2.0, 0.5, 0.25)
        assert (split.n_a, split.n_b) == (1.5, 2.25)
        assert "n_a=1.5, n_b=2.25)" in repr(split)
        assert split != NumberSplit(0.0, 1.0, 2.0, 0.5, 0.5)

    def test_labels_and_presets_are_distinct_values(self):
        assert len(set(REGIME_LABELS)) == 9
        assert len(set(PRESETS.values())) == len(PRESETS)
