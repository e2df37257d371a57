"""Domain types and unit conventions shared by all modules.

All rates are angular rates in rad/s. The resonance condition
Delta = omega_m = omega_1 is built in by construction: SystemParams carries a
single common frequency ``omega1`` used for both the effective cavity detuning
and the mechanical frequency, which is exactly the regime in which the
closed-form solutions hold.

Every type here is an immutable value after construction and safe to share
between concurrent workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

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


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
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

    kappa: float
    gamma: float
    coupling_G: float
    omega1: float
    mass: float

    def __post_init__(self):
        for name in ("kappa", "gamma", "coupling_G", "omega1", "mass"):
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


@dataclass(frozen=True)
class CoherentInit:
    """Initial coherent amplitudes of the cavity (alpha) and mechanics (beta)."""

    alpha: complex = 0j
    beta: complex = 0j

    def __post_init__(self):
        for name in ("alpha", "beta"):
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


@dataclass(frozen=True)
class RegimeLabel:
    """One cell of the phase diagram: symmetry phase, stability class, region id.

    ``region_id`` is one of the integers 1..6 for the open regions and
    boundary curves of the phase diagram, or the string "EP" for points on the
    symmetry-transition line G = (kappa+gamma)/2 (the stability field then
    distinguishes the degenerate gain-equals-loss point from the rest of the
    line).
    """

    pt: PTPhase
    stability: Stability
    region_id: int | str

    def __post_init__(self):
        if isinstance(self.region_id, int):
            if not 1 <= self.region_id <= 6:
                raise ValueError(f"region_id must be in 1..6 or 'EP', got {self.region_id}")
        elif self.region_id != "EP":
            raise ValueError(f"region_id must be in 1..6 or 'EP', got {self.region_id!r}")


@dataclass(frozen=True)
class NumberSplit:
    """Stimulated/spontaneous decomposition of the average particle numbers.

    Fields are scalars or equally shaped numpy arrays; totals satisfy
    n_i = n_i_st + n_i_sp exactly by construction.
    """

    t: float | np.ndarray
    n_a_st: float | np.ndarray
    n_b_st: float | np.ndarray
    n_a_sp: float | np.ndarray
    n_b_sp: float | np.ndarray
    n_a: float | np.ndarray = field(init=False)
    n_b: float | np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_a", self.n_a_st + self.n_a_sp)
        object.__setattr__(self, "n_b", self.n_b_st + self.n_b_sp)
