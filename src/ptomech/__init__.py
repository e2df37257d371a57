"""Two-mode gain/loss optomechanical dynamics: spectra, regimes, closed forms, oracle."""

from .model import (
    HBAR,
    CoherentInit,
    NumberSplit,
    PTPhase,
    RegimeLabel,
    Stability,
    SystemParams,
    make_params,
)
from .spectrum import (
    PhaseDiagramGrid,
    Spectrum,
    classify,
    drift_eigenvalues,
    drift_eigenvalues_dense,
    drift_matrix,
    max_re_lambda,
    phase_diagram,
    supermode_frequencies,
)
from .analytic import (
    ClosedFormError,
    NoSteadyState,
    displacement,
    finite_time_amplitude,
    first_moments_closed_form,
    numbers,
    steady_numbers,
)
from .numeric import (
    FirstMomentSeries,
    SecondMomentSeries,
    integrate_first_moments,
    integrate_second_moments,
    stimulated_spontaneous_split,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "ClosedFormError",
    "CoherentInit",
    "FirstMomentSeries",
    "NoSteadyState",
    "NumberSplit",
    "PTPhase",
    "PhaseDiagramGrid",
    "RegimeLabel",
    "SecondMomentSeries",
    "Spectrum",
    "Stability",
    "SystemParams",
    "classify",
    "displacement",
    "drift_eigenvalues",
    "drift_eigenvalues_dense",
    "drift_matrix",
    "finite_time_amplitude",
    "first_moments_closed_form",
    "integrate_first_moments",
    "integrate_second_moments",
    "make_params",
    "max_re_lambda",
    "numbers",
    "phase_diagram",
    "steady_numbers",
    "stimulated_spontaneous_split",
    "supermode_frequencies",
]
