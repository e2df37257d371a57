"""Eigenanalysis of the linearized two-mode system and regime classification.

The spectrum has one closed form, :func:`eigenvalues`: the supermode
frequencies and the four drift eigenvalues in units of kappa. A dense
eigensolve of the explicitly materialized 4x4 drift matrix
(:func:`drift_eigenvalues_dense`, rad/s) is the independent cross-check, not
a second formula.

Classification is one rule over arrays, :func:`regime_codes`: it compares
f = G^2 - gamma*kappa, gamma vs kappa and G vs (kappa+gamma)/2 in
kappa-normalized units with an absolute tolerance (default 1e-9), because the
case analysis uses exact equalities that never hold in floating point, and
returns an int8 code per point that indexes the nine labels of
:data:`REGIME_LABELS`. On the transition line the stability class is the
sign of the largest eigenvalue real part, within the same tolerance.
:func:`classify` is its 1x1 case and :func:`phase_diagram` applies it to a
whole grid at once. ``ptomech classify`` prints the 1x1 case of the grid
rule (the row of a one-cell sweep), then the real and imaginary parts from
:func:`eigenvalues`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .model import PTPhase, Record, RegimeLabel, Stability, SystemParams

DEFAULT_TOL = 1e-9


def eigenvalues(g: float, G: float, w1: float) -> tuple[complex, ...]:
    """Supermode frequencies and drift eigenvalues at gamma/kappa = g, G/kappa = G
    and omega1/kappa = w1, in kappa units.

    Returns (omega_+, omega_-, lambda_{+,+}, lambda_{+,-}, lambda_{-,+}, lambda_{-,-}):
    omega_pm = w1 - (i/2)(1 - g) +- sqrt(G^2 - (1+g)^2/4), and
    lambda_{tau,s} = [g - 1 + tau*sqrt((g+1)^2 - 4G^2) + 2i*s*w1]/2.
    The squares are products: ``**`` raises OverflowError where ``*`` gives inf.
    """
    root = cmath.sqrt(G * G - 0.25 * ((1.0 + g) * (1.0 + g)))
    base = w1 - 0.5j * (1.0 - g)
    Om = cmath.sqrt((g + 1.0) * (g + 1.0) - 4.0 * G * G)
    lambdas = [0.5 * (g - 1.0 + tau * Om + 2j * s * w1) for tau in (1.0, -1.0) for s in (1.0, -1.0)]
    return (base + root, base - root, *lambdas)


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


def drift_eigenvalues_dense(params: SystemParams) -> np.ndarray:
    """Eigenvalues of the materialized drift matrix via a generic dense solver.

    Independent cross-check of :func:`eigenvalues`, in rad/s; returns the four
    eigenvalues sorted by (real, imag).
    """
    lam = np.linalg.eigvals(drift_matrix(params))
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]


# Code k of regime_codes is REGIME_LABELS[k]; codes 1..6 are the regions of that
# number: (1) f < 0, or gamma > kappa below the transition line G = (kappa+gamma)/2;
# (2) gamma > kappa above it; (3)/(4) f > 0, gamma < kappa below/above it;
# (5) f = 0, gamma < kappa; (6) f > 0, gamma = kappa. Codes 0, 7, 8 lie on the line:
# f = 0 = gamma - kappa (two eigenvectors left, secular growth), or max Re lambda
# within tol of 0; max Re lambda > 0; max Re lambda < 0.
REGIME_LABELS = (
    RegimeLabel(PTPhase.EXCEPTIONAL_POINT, Stability.UNSTABLE_DEGENERATE, "EP"),
    RegimeLabel(PTPhase.BROKEN_PT, Stability.UNSTABLE, 1),
    RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.UNSTABLE, 2),
    RegimeLabel(PTPhase.BROKEN_PT, Stability.ASYMPTOTICALLY_STABLE, 3),
    RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.ASYMPTOTICALLY_STABLE, 4),
    RegimeLabel(PTPhase.BROKEN_PT, Stability.STABLE_BOUNDARY, 5),
    RegimeLabel(PTPhase.PT_SYMMETRIC, Stability.FINITE_TIME_STABLE, 6),
    RegimeLabel(PTPhase.EXCEPTIONAL_POINT, Stability.UNSTABLE, "EP"),
    RegimeLabel(PTPhase.EXCEPTIONAL_POINT, Stability.ASYMPTOTICALLY_STABLE, "EP"),
)


def check_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol <= 1e-3 (NaN included)."""
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")


def _max_re_lambda(g, G):
    """Largest drift-eigenvalue real part in kappa units at gamma/kappa = g, G/kappa = G."""
    return 0.5 * (g - 1.0 + np.sqrt(np.maximum((g + 1.0) * (g + 1.0) - 4.0 * G * G, 0.0)))


def regime_codes(g, G, tol: float = DEFAULT_TOL) -> np.ndarray:
    """int8 regime code of each (gamma/kappa, G/kappa) pair; ``g`` and ``G`` broadcast."""
    return _codes_and_rmax(g, G, tol)[0]


def _codes_and_rmax(g, G, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The regime codes of :func:`regime_codes` and the max Re lambda they use.

    The first case that holds decides: f = 0 and gamma = kappa; the transition
    line; gamma = kappa; f = 0; gamma > kappa; f < 0; above or below the line.
    "=" means within the absolute ``tol``, and so does "f > 0" for gamma = kappa.
    On the transition line the stability comes from max Re lambda (kappa
    units): above tol unstable, below -tol asymptotically stable, in between
    degenerate. Within tol of the line |Omega| is O(sqrt(tol)), so near
    gamma = kappa the sign of gamma - kappa alone can disagree with it.

    A cell within tol of none of the three lines (NaN included) reaches one
    of the last three cases, so its code comes from int8 sign tests alone;
    only the cells within tol of a line go through the whole first-match rule.
    """
    check_tol(tol)
    g, G = np.asarray(g), np.asarray(G)
    f = G * G - g
    dgam = g - 1.0
    dep = G - 0.5 * (1.0 + g)
    rmax = _max_re_lambda(g, G)
    above = (dep > 0).view(np.int8)
    codes = np.where(dgam > 0, 1 + above, np.where(f < 0, 1, 3 + above))
    near = (abs(f) <= tol) | (abs(dgam) <= tol) | (abs(dep) <= tol)
    if near.any():
        f, dgam, dep, r = (np.broadcast_to(x, codes.shape)[near] for x in (f, dgam, dep, rmax))
        on_f = abs(f) <= tol
        on_gk = abs(dgam) <= tol
        codes[near] = np.select(
            [on_f & on_gk, abs(dep) <= tol, on_gk, on_f, dgam > 0, f < 0],
            [0, np.where(r > tol, 7, np.where(r < -tol, 8, 0)), np.where(f > tol, 6, 1),
             np.where(dgam < 0, 5, 1), np.where(dep > 0, 2, 1), 1],
            np.where(dep > 0, 4, 3),
        )
    return codes, rmax


def classify(params: SystemParams, tol: float = DEFAULT_TOL) -> RegimeLabel:
    """Phase-diagram regime of one parameter point: the 1x1 case of :func:`regime_codes`."""
    code = regime_codes(params.gamma / params.kappa, params.coupling_G / params.kappa, tol)
    return REGIME_LABELS[code]


class PhaseDiagramGrid(Record):
    """Row-major grid of regime codes over (gamma/kappa, G/kappa).

    ``codes[i, j]`` (int8, an index into :data:`REGIME_LABELS`) and
    ``max_re_lambda[i, j]`` correspond to ``gamma_over_kappa[i]``,
    ``G_over_kappa[j]``; ``max_re_lambda`` is in units of kappa.
    """

    __slots__ = ("gamma_over_kappa", "G_over_kappa", "codes", "max_re_lambda")


def _axis(name: str, lo: float, hi: float, n: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} range must be finite, got [{lo}, {hi}]")
    if lo < 0 or hi < 0:
        raise ValueError(f"{name} range must be nonnegative, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError(f"{name} range is inverted: [{lo}, {hi}]")
    # _codes_and_rmax squares gamma + 1 and 2G.
    if not (2.0 * hi + 1.0) * (2.0 * hi + 1.0) < math.inf:
        raise ValueError(f"{name} range is out of floating-point range: [{lo}, {hi}]")
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
    if isinstance(resolution, int):
        n_gamma = n_G = resolution
    else:
        n_gamma, n_G = resolution
    gammas = _axis("gamma", gamma_range[0], gamma_range[1], n_gamma)
    Gs = _axis("G", G_range[0], G_range[1], n_G)
    codes, rmax = _codes_and_rmax(gammas[:, None], Gs[None, :], tol)
    return PhaseDiagramGrid(gamma_over_kappa=gammas, G_over_kappa=Gs, codes=codes,
                            max_re_lambda=rmax)
