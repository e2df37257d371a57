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
    classify,
    drift_eigenvalues_dense,
    drift_matrix,
    phase_diagram,
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
    "Stability",
    "SystemParams",
    "classify",
    "displacement",
    "drift_eigenvalues_dense",
    "drift_matrix",
    "finite_time_amplitude",
    "first_moments_closed_form",
    "integrate_first_moments",
    "integrate_second_moments",
    "make_params",
    "numbers",
    "phase_diagram",
    "steady_numbers",
    "stimulated_spontaneous_split",
]
