"""Eigenanalysis of the linearized two-mode system and regime classification.

Two routes to the same spectrum are kept deliberately separate: the closed
forms for the supermode frequencies and the drift eigenvalues, and a dense
eigensolve of the explicitly materialized 4x4 drift matrix. The dense route is
a redundant cross-check, not the primary formula.

Classification compares f = G^2 - gamma*kappa, gamma vs kappa and
G vs (kappa+gamma)/2 in kappa-normalized units with an absolute tolerance
(default 1e-9), because the case analysis uses exact equalities that never
hold in floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import PTPhase, RegimeLabel, Stability, SystemParams

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Supermode frequencies and the four drift eigenvalues of one parameter point.

    ``lambdas`` is ordered (tau, s) = (+1,+1), (+1,-1), (-1,+1), (-1,-1).
    ``degenerate_drift`` is True when the drift matrix has fewer than four
    linearly independent eigenvectors, i.e. on the symmetry-transition line
    G = (kappa+gamma)/2 where the eigenvalues coalesce pairwise.
    """

    omega_plus: complex
    omega_minus: complex
    lambdas: tuple[complex, complex, complex, complex]
    degenerate_drift: bool


def supermode_frequencies(params: SystemParams) -> tuple[complex, complex]:
    """Eigenfrequencies of the symmetric/antisymmetric supermodes, rad/s.

    omega_pm = omega1 - (i/2)(kappa - gamma) +- sqrt(G^2 - (kappa+gamma)^2/4);
    omega_plus carries the + branch of the square root.
    """
    root = cmath.sqrt(params.coupling_G**2 - 0.25 * (params.kappa + params.gamma) ** 2)
    base = params.omega1 - 0.5j * (params.kappa - params.gamma)
    return base + root, base - root


def drift_matrix(params: SystemParams) -> np.ndarray:
    """Explicit 4x4 drift matrix for the mode vector (a, a^dag, b, b^dag), rad/s."""
    w1 = params.omega1
    k = params.kappa
    g = params.gamma
    G = params.coupling_G
    return np.array(
        [
            [-1j * w1 - k, 0.0, 1j * G, 0.0],
            [0.0, 1j * w1 - k, 0.0, -1j * G],
            [1j * G, 0.0, -1j * w1 + g, 0.0],
            [0.0, -1j * G, 0.0, 1j * w1 + g],
        ],
        dtype=complex,
    )


def drift_eigenvalues(params: SystemParams, tol: float = DEFAULT_TOL) -> Spectrum:
    """Closed-form drift eigenvalues lambda_{tau,s} and supermode frequencies.

    lambda_{tau,s} = [gamma - kappa + tau*sqrt((gamma+kappa)^2 - 4G^2) + 2i*s*omega1]/2.
    """
    Om = params.Omega
    gk = params.gamma - params.kappa
    w1 = params.omega1
    lambdas = tuple(
        0.5 * (gk + tau * Om + 2j * s * w1) for tau in (1.0, -1.0) for s in (1.0, -1.0)
    )
    # Eigenvectors coalesce exactly when the square root vanishes.
    degenerate = abs(Om) / params.kappa <= tol
    op, om = supermode_frequencies(params)
    return Spectrum(omega_plus=op, omega_minus=om, lambdas=lambdas, degenerate_drift=degenerate)


def drift_eigenvalues_dense(params: SystemParams) -> np.ndarray:
    """Eigenvalues of the materialized drift matrix via a generic dense solver.

    Independent cross-check path for :func:`drift_eigenvalues`; returns the four
    eigenvalues sorted by (real, imag).
    """
    lam = np.linalg.eigvals(drift_matrix(params))
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]


def max_re_lambda(params: SystemParams) -> float:
    """Largest eigenvalue real part of the drift matrix, rad/s (closed form)."""
    return 0.5 * (params.gamma - params.kappa + params.Omega.real)


def _classify_normalized(g: float, G: float, tol: float) -> RegimeLabel:
    """Classify a (gamma/kappa, G/kappa) point; comparisons use absolute tol."""
    f = G * G - g
    dgam = g - 1.0
    dep = G - 0.5 * (1.0 + g)

    if abs(f) <= tol and abs(dgam) <= tol:
        # Gain equals loss on the transition line: only two independent
        # eigenvectors remain and the marginal modes grow secularly.
        return RegimeLabel(PTPhase.EXCEPTIONAL_POINT, Stability.UNSTABLE_DEGENERATE, "EP")
    if abs(dep) <= tol:
        stab = Stability.UNSTABLE if dgam > 0 else Stability.ASYMPTOTICALLY_STABLE
        return RegimeLabel(PTPhase.EXCEPTIONAL_POINT, stab, "EP")
    if abs(dgam) <= tol:
        if f > tol:
            return RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.FINITE_TIME_STABLE, 6)
        return RegimeLabel(PTPhase.BROKEN_PT, Stability.UNSTABLE, 1)
    if abs(f) <= tol:
        if dgam < 0:
            return RegimeLabel(PTPhase.BROKEN_PT, Stability.STABLE_BOUNDARY, 5)
        return RegimeLabel(PTPhase.BROKEN_PT, Stability.UNSTABLE, 1)
    if dgam > 0:
        if dep > 0:
            return RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.UNSTABLE, 2)
        return RegimeLabel(PTPhase.BROKEN_PT, Stability.UNSTABLE, 1)
    # gamma < kappa from here on
    if f < 0:
        return RegimeLabel(PTPhase.BROKEN_PT, Stability.UNSTABLE, 1)
    if dep > 0:
        return RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.ASYMPTOTICALLY_STABLE, 4)
    return RegimeLabel(PTPhase.BROKEN_PT, Stability.ASYMPTOTICALLY_STABLE, 3)


def classify(params: SystemParams, tol: float = DEFAULT_TOL) -> RegimeLabel:
    """Assign the phase-diagram regime of one parameter point.

    Region mapping: (1) f<0, or gamma>kappa with G<(kappa+gamma)/2 -> broken-PT
    unstable; (2) gamma>kappa with G>(kappa+gamma)/2 -> PT unstable; (3)/(4)
    f>0, gamma<kappa below/above the transition line -> asymptotically stable;
    (5) f=0, gamma<kappa -> stable boundary; (6) f>0, gamma=kappa ->
    finite-time stable; f=0 and gamma=kappa -> degenerate point. Points on the
    transition line G=(kappa+gamma)/2 carry region_id "EP".
    """
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    return _classify_normalized(params.gamma / params.kappa, params.coupling_G / params.kappa, tol)


@dataclass(frozen=True)
class PhaseDiagramGrid:
    """Row-major grid of regime labels over (gamma/kappa, G/kappa).

    ``labels[i][j]`` and ``max_re_lambda[i, j]`` correspond to
    ``gamma_over_kappa[i]``, ``G_over_kappa[j]``; ``max_re_lambda`` is in units
    of kappa.
    """

    gamma_over_kappa: np.ndarray
    G_over_kappa: np.ndarray
    labels: tuple[tuple[RegimeLabel, ...], ...]
    max_re_lambda: np.ndarray

    def rows(self):
        """Yield (gamma/kappa, G/kappa, label, max_re_lambda) row-major."""
        for i, g in enumerate(self.gamma_over_kappa):
            for j, G in enumerate(self.G_over_kappa):
                yield float(g), float(G), self.labels[i][j], float(self.max_re_lambda[i, j])


def _axis(name: str, lo: float, hi: float, n: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} range must be finite, got [{lo}, {hi}]")
    if lo < 0 or hi < 0:
        raise ValueError(f"{name} range must be nonnegative, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError(f"{name} range is inverted: [{lo}, {hi}]")
    if n < 2:
        # A degenerate axis (single value) is allowed for line scans.
        if n == 1 and hi == lo:
            return np.array([lo])
        raise ValueError(f"{name} resolution must be >= 2 (or 1 with lo == hi), got {n}")
    return np.linspace(lo, hi, n)


def phase_diagram(
    gamma_range: tuple[float, float],
    G_range: tuple[float, float],
    resolution: int | tuple[int, int],
    tol: float = DEFAULT_TOL,
) -> PhaseDiagramGrid:
    """Classify every cell of a (gamma/kappa, G/kappa) grid.

    ``resolution`` is the number of points per axis (a single int applies to
    both axes). Cells within ``tol`` of the boundary curves receive the
    boundary regime label, so the measure-zero curves remain recoverable from
    grid output.
    """
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    if isinstance(resolution, int):
        n_gamma = n_G = resolution
    else:
        n_gamma, n_G = resolution
    gammas = _axis("gamma", gamma_range[0], gamma_range[1], n_gamma)
    Gs = _axis("G", G_range[0], G_range[1], n_G)

    labels = []
    re_max = np.empty((len(gammas), len(Gs)))
    for i, g in enumerate(gammas):
        row = []
        for j, G in enumerate(Gs):
            row.append(_classify_normalized(float(g), float(G), tol))
            radicand = (g + 1.0) ** 2 - 4.0 * G * G
            re_root = math.sqrt(radicand) if radicand > 0.0 else 0.0
            re_max[i, j] = 0.5 * (g - 1.0 + re_root)
        labels.append(tuple(row))
    return PhaseDiagramGrid(
        gamma_over_kappa=gammas,
        G_over_kappa=Gs,
        labels=tuple(labels),
        max_re_lambda=re_max,
    )
