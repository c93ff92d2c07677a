"""Free wave-packet emission, detector-entry probabilities, two-state
detector dynamics, and arrival-time statistics (natural units, hbar = 1).
A public name's module is imported on the name's first use (PEP 562)."""

from importlib import import_module

_PUBLIC = {
    "errors": ("GeometryError", "IntegrationError", "NormalizationError", "ScenarioError"),
    "geometry": ("EmissionEvent", "DetectorGeometry", "sphere_detector", "cap_detector",
                 "solid_angle", "ray_hits_detector"),
    "quadrature": ("QuadratureSpec", "SemiInfiniteResult", "integrate_volume",
                   "differentiate_sampled"),
    "wavepacket": ("MomentumAmplitude", "AngularComponentRequest", "isotropic_gaussian",
                   "separable_gaussian", "tabulated", "normalize", "momentum_norm_squared",
                   "eval_angular_component", "eval_detector_wavefunction"),
    "probability": ("EntryProbabilityCurve", "TimeGridSpec", "direction_probability",
                    "conditional_entry_probability", "entry_probability",
                    "build_entry_curve", "point_detector_curve"),
    "detector": ("DetectorState", "CouplingSchedule", "coupling_schedule",
                 "evolve_closed_form", "evolve_ode", "evolve_ode_trajectory",
                 "registration_probability", "ode_consistency"),
    "arrival": ("ArrivalTimeStats", "arrival_density", "mean_arrival_time",
                "stats_from_samples"),
    "scenario": ("Scenario", "SweepSpec", "parse_scenario", "parse_scenario_text",
                 "emit_scenario", "parse_sweep", "run_scenario", "run_sweep"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
