"""Domain types and unit conventions shared by all modules.

All rates are angular rates in rad/s. The resonance condition
Delta = omega_m = omega_1 is built in by construction: SystemParams carries a
single common frequency ``omega1`` used for both the effective cavity detuning
and the mechanical frequency, which is exactly the regime in which the
closed-form solutions hold.

Every type here is an immutable value after construction and safe to share
between concurrent workers.

The package's records (here and in ``numeric``, ``spectrum`` and ``presets``)
derive from :class:`Record`, a class whose ``__slots__`` are its fields. Its
``__init__`` takes them by position or keyword, with per-class defaults, then
runs the class's ``_check``; assignment and deletion raise ``AttributeError``;
equality, hashing and ``repr`` go field by field.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

HBAR = 1.054571817e-34  # J*s, CODATA 2018


class PTPhase(Enum):
    """Symmetry phase of the effective non-Hermitian two-mode Hamiltonian."""

    PT_SYMMETRIC = "PTSymmetric"
    BROKEN_PT = "BrokenPT"
    EXCEPTIONAL_POINT = "ExceptionalPoint"


class Stability(Enum):
    """Stability class from the sign pattern of the drift-matrix eigenvalues."""

    UNSTABLE = "Unstable"
    ASYMPTOTICALLY_STABLE = "AsymptoticallyStable"
    FINITE_TIME_STABLE = "FiniteTimeStable"
    STABLE_BOUNDARY = "StableBoundary"
    UNSTABLE_DEGENERATE = "UnstableDegenerate"


_set = object.__setattr__


class Record:
    """Immutable record: ``_fields`` (default: every slot) are the arguments,
    ``_defaults`` gives some of them a default, and a subclass's ``_check``, if
    any, validates the record and may fill the slots that are not arguments."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # One straight-line __init__ per class, as fast to call as one written out.
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in cls._defaults else name
                           for name in fields)
        lines = [f"_set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "_check"):
            lines.append("self._check()")
        namespace = {"_set": _set, "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}):\n    " + "\n    ".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({pairs})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


class SystemParams(Record):
    """Physical constants and rates defining one simulation point.

    Parameters
    ----------
    kappa : float
        Cavity loss rate, rad/s. Must be > 0.
    gamma : float
        Mechanical gain rate, rad/s. Must be >= 0.
    coupling_G : float
        Effective optomechanical strength, rad/s. Must be >= 0.
    omega1 : float
        Common frequency (effective detuning = mechanical frequency), rad/s.
        Must be > 0.
    mass : float
        Mechanical effective mass, kg. Only used for displacement scaling.
    """

    __slots__ = ("kappa", "gamma", "coupling_G", "omega1", "mass")

    def _check(self):
        for name in self.__slots__:
            _require_finite(name, getattr(self, name))
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.coupling_G < 0:
            raise ValueError(f"coupling_G must be >= 0, got {self.coupling_G}")
        if self.omega1 <= 0:
            raise ValueError(f"omega1 must be > 0, got {self.omega1}")
        if self.mass <= 0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        # Omega, f and f/kappa^2 square the rates, in rad/s and in kappa units,
        # and the displacement divides by x_zpf: all must stay in float range.
        span = self.kappa + self.gamma + 2.0 * self.coupling_G
        ratio = span / self.kappa
        zpf_sq = HBAR / (2.0 * self.mass * self.omega1)
        if not (span * span < math.inf and ratio * ratio < math.inf
                and self.kappa * self.kappa > 0.0 and 0.0 < zpf_sq < math.inf):
            raise ValueError(
                f"rates out of floating-point range: (kappa + gamma + 2G)^2 with "
                f"kappa + gamma + 2G = {span:.3e} rad/s = {ratio:.3e} kappa, kappa^2 and "
                f"hbar/(2 m omega1) = {zpf_sq:.3e} m^2 must be finite and nonzero"
            )

    @property
    def f(self) -> float:
        """Stability discriminant G^2 - gamma*kappa, (rad/s)^2."""
        return self.coupling_G * self.coupling_G - self.gamma * self.kappa

    @property
    def Omega(self) -> complex:
        """sqrt((gamma+kappa)^2 - 4 G^2) with branch Re >= 0, and Im >= 0 on the cut.

        Real in the broken-PT regime (G < (kappa+gamma)/2), purely imaginary in
        the PT-symmetric regime, zero at the exceptional point.
        """
        return cmath.sqrt((self.gamma + self.kappa) ** 2 - 4.0 * self.coupling_G**2)

    @property
    def x_zpf(self) -> float:
        """Zero-point displacement sqrt(hbar/(2 m omega1)), meters."""
        return math.sqrt(HBAR / (2.0 * self.mass * self.omega1))


def make_params(kappa: float, gamma: float, G: float, omega1: float, mass: float) -> SystemParams:
    """Validated constructor for :class:`SystemParams` (all rates rad/s, mass kg)."""
    return SystemParams(kappa=float(kappa), gamma=float(gamma), coupling_G=float(G),
                        omega1=float(omega1), mass=float(mass))


class CoherentInit(Record):
    """Initial coherent amplitudes of the cavity (alpha) and mechanics (beta); default vacuum."""

    __slots__ = ("alpha", "beta")
    _defaults = {"alpha": 0j, "beta": 0j}

    def _check(self):
        for name in self.__slots__:
            z = complex(getattr(self, name))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"{name} must have finite components, got {z!r}")
            # The second moments start from |alpha|^2, |beta|^2 and alpha* beta.
            if not abs(z) * abs(z) < math.inf:
                raise ValueError(f"|{name}|^2 must be finite, got |{name}| = {abs(z):.3e}")

    @classmethod
    def from_polar(
        cls, alpha_mag: float, alpha_phase: float, beta_mag: float, beta_phase: float
    ) -> "CoherentInit":
        """Build from (magnitude, phase) pairs; phases in radians."""
        return cls(
            alpha=alpha_mag * cmath.exp(1j * alpha_phase),
            beta=beta_mag * cmath.exp(1j * beta_phase),
        )


class RegimeLabel(Record):
    """One cell of the phase diagram: symmetry phase, stability class, region id.

    ``region_id`` is one of the integers 1..6 for the open regions and
    boundary curves of the phase diagram, or the string "EP" for points on the
    symmetry-transition line G = (kappa+gamma)/2 (the stability field then
    distinguishes the degenerate gain-equals-loss point from the rest of the
    line).
    """

    __slots__ = ("pt", "stability", "region_id")

    def _check(self):
        if isinstance(self.region_id, int):
            if not 1 <= self.region_id <= 6:
                raise ValueError(f"region_id must be in 1..6 or 'EP', got {self.region_id}")
        elif self.region_id != "EP":
            raise ValueError(f"region_id must be in 1..6 or 'EP', got {self.region_id!r}")


class NumberSplit(Record):
    """Stimulated/spontaneous decomposition of the average particle numbers.

    Fields are scalars or equally shaped numpy arrays: the arguments t, n_a_st,
    n_b_st, n_a_sp and n_b_sp, and the totals n_i = n_i_st + n_i_sp, exact by
    construction.
    """

    __slots__ = ("t", "n_a_st", "n_b_st", "n_a_sp", "n_b_sp", "n_a", "n_b")
    _fields = __slots__[:5]

    def _check(self):
        _set(self, "n_a", self.n_a_st + self.n_a_sp)
        _set(self, "n_b", self.n_b_st + self.n_b_sp)
