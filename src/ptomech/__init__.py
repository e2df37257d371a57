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
from .numeric import MomentSeries, integrate_moments, stimulated_spontaneous_split

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "ClosedFormError",
    "CoherentInit",
    "MomentSeries",
    "NoSteadyState",
    "NumberSplit",
    "PTPhase",
    "PhaseDiagramGrid",
    "RegimeLabel",
    "Stability",
    "SystemParams",
    "classify",
    "displacement",
    "drift_eigenvalues_dense",
    "drift_matrix",
    "finite_time_amplitude",
    "first_moments_closed_form",
    "integrate_moments",
    "make_params",
    "numbers",
    "phase_diagram",
    "steady_numbers",
    "stimulated_spontaneous_split",
]
