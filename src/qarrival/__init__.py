"""Free wave-packet emission, detector-entry probabilities, two-state
detector dynamics, and arrival-time statistics (natural units, hbar = 1)."""

from .errors import GeometryError, IntegrationError, NormalizationError, ScenarioError
from .geometry import (EmissionEvent, DetectorGeometry, sphere_detector,
                       cap_detector, solid_angle, ray_hits_detector)
from .quadrature import (QuadratureSpec, SemiInfiniteResult, integrate_volume,
                         differentiate_sampled)
from .wavepacket import (MomentumAmplitude, AngularComponentRequest,
                         isotropic_gaussian, separable_gaussian, tabulated,
                         normalize, momentum_norm_squared,
                         eval_angular_component, eval_detector_wavefunction)
from .probability import (EntryProbabilityCurve, TimeGridSpec,
                          direction_probability, conditional_entry_probability,
                          entry_probability, build_entry_curve,
                          point_detector_curve)
from .detector import (DetectorState, CouplingSchedule, coupling_schedule,
                       evolve_closed_form, evolve_ode, evolve_ode_trajectory,
                       registration_probability, ode_consistency)
from .arrival import ArrivalTimeStats, arrival_density, mean_arrival_time, \
    stats_from_samples
from .scenario import (Scenario, SweepSpec, parse_scenario, parse_scenario_text,
                       emit_scenario, parse_sweep, run_scenario, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "GeometryError", "IntegrationError", "NormalizationError", "ScenarioError",
    "EmissionEvent", "DetectorGeometry", "sphere_detector", "cap_detector",
    "solid_angle", "ray_hits_detector",
    "QuadratureSpec", "SemiInfiniteResult", "integrate_volume",
    "differentiate_sampled",
    "MomentumAmplitude", "AngularComponentRequest", "isotropic_gaussian",
    "separable_gaussian", "tabulated", "normalize", "momentum_norm_squared",
    "eval_angular_component", "eval_detector_wavefunction",
    "EntryProbabilityCurve", "TimeGridSpec", "direction_probability",
    "conditional_entry_probability", "entry_probability", "build_entry_curve",
    "point_detector_curve",
    "DetectorState", "CouplingSchedule", "coupling_schedule",
    "evolve_closed_form", "evolve_ode", "evolve_ode_trajectory",
    "registration_probability", "ode_consistency",
    "ArrivalTimeStats", "arrival_density", "mean_arrival_time",
    "stats_from_samples",
    "Scenario", "SweepSpec", "parse_scenario", "parse_scenario_text",
    "emit_scenario", "parse_sweep", "run_scenario", "run_sweep",
    "__version__",
]
