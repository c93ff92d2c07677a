"""Scenario files: parsing, validation, emission, and pipeline runs.

The format is a flat, diffable, human-editable text file of
`section.key = value` lines (natural units: hbar = 1, energies p^2/2m).
Floats are emitted with 17 significant digits so parse(emit(s)) round-trips
exactly.  A run produces deterministic CSV curves plus a schema-versioned
JSON summary.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import arrival as arrival_mod
from . import detector as detector_mod
from . import probability as prob_mod
from . import wavepacket as wp
from .errors import IntegrationError, ScenarioError
from .geometry import EmissionEvent, DetectorGeometry, sphere_detector, cap_detector
from .quadrature import QuadratureSpec

SCHEMA_VERSION = 1

_HEADER = ("# scenario file (flat keys; units: hbar = 1, kinetic energy p^2 / 2m)\n")


@dataclass(frozen=True)
class ScenarioEmission:
    x0: tuple = (0.0, 0.0, 0.0)
    t0: float = 0.0
    mass: float = 1.0


@dataclass(frozen=True)
class ScenarioAmplitude:
    kind: str = "isotropic-gaussian"
    p0: float = 5.0
    sigma_p: float = 0.5
    axis: tuple | None = None
    angular_sigma: float | None = None
    radial_file: str | None = None
    angular_file: str | None = None


@dataclass(frozen=True)
class ScenarioDetector:
    kind: str = "sphere"
    center: tuple | None = None
    radius: float | None = None
    axis: tuple | None = None
    half_angle: float | None = None
    r_inner: float | None = None
    r_outer: float | None = None
    position: tuple | None = None
    reference_solid_angle: float | None = None


@dataclass(frozen=True)
class Scenario:
    emission: ScenarioEmission = ScenarioEmission()
    amplitude: ScenarioAmplitude = ScenarioAmplitude()
    detector: ScenarioDetector = ScenarioDetector()
    coupling_k: float = 0.5
    quadrature: QuadratureSpec = QuadratureSpec()
    grid: prob_mod.TimeGridSpec = prob_mod.TimeGridSpec()
    output_dir: str | None = None
    base_dir: str = field(default=".", compare=False)

    @property
    def is_point(self) -> bool:
        return self.detector.kind == "point"


# --- key registry -----------------------------------------------------------

_VEC = "vec3"
_FLOAT = "float"
_INT = "int"
_STR = "str"

_KEYS = {
    "emission.x0": _VEC,
    "emission.t0": _FLOAT,
    "emission.mass": _FLOAT,
    "amplitude.kind": _STR,
    "amplitude.p0": _FLOAT,
    "amplitude.sigma_p": _FLOAT,
    "amplitude.axis": _VEC,
    "amplitude.angular_sigma": _FLOAT,
    "amplitude.radial_file": _STR,
    "amplitude.angular_file": _STR,
    "detector.kind": _STR,
    "detector.center": _VEC,
    "detector.radius": _FLOAT,
    "detector.axis": _VEC,
    "detector.half_angle": _FLOAT,
    "detector.r_inner": _FLOAT,
    "detector.r_outer": _FLOAT,
    "detector.position": _VEC,
    "detector.reference_solid_angle": _FLOAT,
    "coupling.k": _FLOAT,
    "quadrature.radial_nodes": _INT,
    "quadrature.radial_panels": _INT,
    "quadrature.polar_nodes": _INT,
    "quadrature.azimuth_nodes": _INT,
    "quadrature.dt": _FLOAT,
    "quadrature.eps_tail": _FLOAT,
    "quadrature.t_cap": _FLOAT,
    "quadrature.rtol": _FLOAT,
    "quadrature.p_max": _FLOAT,
    "grid.dt": _FLOAT,
    "grid.t_end": _FLOAT,
    "output.dir": _STR,
}

_DETECTOR_KIND_KEYS = {
    "sphere": {"detector.center", "detector.radius"},
    "cap": {"detector.axis", "detector.half_angle", "detector.r_inner",
            "detector.r_outer"},
    "point": {"detector.position", "detector.reference_solid_angle"},
}

_AMPLITUDE_KIND_KEYS = {
    "isotropic-gaussian": {"amplitude.p0", "amplitude.sigma_p"},
    "separable": {"amplitude.p0", "amplitude.sigma_p", "amplitude.axis",
                  "amplitude.angular_sigma"},
    "tabulated": {"amplitude.radial_file", "amplitude.angular_file",
                  "amplitude.axis"},
}


def _parse_value(key: str, raw: str):
    kind = _KEYS[key]
    try:
        if kind == _VEC:
            parts = raw.split()
            if len(parts) != 3:
                raise ValueError("expected 3 numbers")
            value = tuple(float(p) for p in parts)
        elif kind == _FLOAT:
            value = float(raw)
        elif kind == _INT:
            return int(raw)
        else:
            return raw
    except ValueError as exc:
        raise ScenarioError(key, f"cannot parse value {raw!r} ({exc})") from None
    if not np.all(np.isfinite(value)):
        raise ScenarioError(key, f"must be finite, got {raw!r}")
    return value


def parse_scenario_text(text: str, base_dir: str = ".") -> Scenario:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ScenarioError(key, "unknown key")
        if key in values:
            raise ScenarioError(key, "duplicate key")
        values[key] = _parse_value(key, raw)
    return _assemble(values, base_dir)


def parse_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _assemble(values: dict, base_dir: str) -> Scenario:
    def take(key, default=None):
        return values.get(key, default)

    mass = take("emission.mass", 1.0)
    if not mass > 0.0:
        raise ScenarioError("emission.mass", f"must be positive, got {mass}")
    emission = ScenarioEmission(x0=take("emission.x0", (0.0, 0.0, 0.0)),
                                t0=take("emission.t0", 0.0), mass=mass)

    amp_kind = take("amplitude.kind", "isotropic-gaussian")
    if amp_kind not in _AMPLITUDE_KIND_KEYS:
        raise ScenarioError("amplitude.kind",
                            f"must be one of {sorted(_AMPLITUDE_KIND_KEYS)}, got {amp_kind!r}")
    for key in values:
        if key.startswith("amplitude.") and key != "amplitude.kind":
            if key not in _AMPLITUDE_KIND_KEYS[amp_kind]:
                raise ScenarioError(key, f"not a key of amplitude.kind = {amp_kind}")
    if amp_kind in ("isotropic-gaussian", "separable"):
        p0 = take("amplitude.p0", 5.0)
        sigma_p = take("amplitude.sigma_p", 0.5)
        if not p0 > 0.0:
            raise ScenarioError("amplitude.p0", f"must be positive, got {p0}")
        if not sigma_p > 0.0:
            raise ScenarioError("amplitude.sigma_p", f"must be positive, got {sigma_p}")
        amplitude = ScenarioAmplitude(kind=amp_kind, p0=p0, sigma_p=sigma_p,
                                      axis=take("amplitude.axis"),
                                      angular_sigma=take("amplitude.angular_sigma"))
        if amp_kind == "separable":
            if amplitude.axis is None:
                raise ScenarioError("amplitude.axis", "required for separable amplitudes")
            if amplitude.angular_sigma is None or not amplitude.angular_sigma > 0.0:
                raise ScenarioError("amplitude.angular_sigma",
                                    "required positive for separable amplitudes")
    else:
        radial_file = take("amplitude.radial_file")
        if radial_file is None:
            raise ScenarioError("amplitude.radial_file", "required for tabulated amplitudes")
        angular_file = take("amplitude.angular_file")
        axis = take("amplitude.axis")
        if angular_file is not None and axis is None:
            raise ScenarioError("amplitude.axis", "required with an angular table")
        amplitude = ScenarioAmplitude(kind="tabulated", p0=None, sigma_p=None,
                                      axis=axis, radial_file=radial_file,
                                      angular_file=angular_file)

    det_kind = take("detector.kind", "sphere" if "detector.position" not in values
                    else "point")
    if det_kind not in _DETECTOR_KIND_KEYS:
        raise ScenarioError("detector.kind",
                            f"must be one of {sorted(_DETECTOR_KIND_KEYS)}, got {det_kind!r}")
    allowed = _DETECTOR_KIND_KEYS[det_kind]
    for key in values:
        if key.startswith("detector.") and key != "detector.kind" and key not in allowed:
            raise ScenarioError(
                key, f"conflicts with detector.kind = {det_kind}; a scenario "
                     "holds exactly one of a volume detector or a point detector")
    if det_kind == "sphere":
        center = take("detector.center")
        radius = take("detector.radius")
        if center is None:
            raise ScenarioError("detector.center", "required for sphere detectors")
        if radius is None or not radius > 0.0:
            raise ScenarioError("detector.radius", f"must be positive, got {radius}")
        det = ScenarioDetector(kind="sphere", center=center, radius=radius)
    elif det_kind == "cap":
        axis = take("detector.axis")
        half_angle = take("detector.half_angle")
        r_inner, r_outer = take("detector.r_inner"), take("detector.r_outer")
        if axis is None:
            raise ScenarioError("detector.axis", "required for cap detectors")
        if half_angle is None or not 0.0 < half_angle <= np.pi:
            raise ScenarioError("detector.half_angle",
                                f"must lie in (0, pi], got {half_angle}")
        if r_inner is None or r_outer is None or not 0.0 < r_inner < r_outer:
            raise ScenarioError("detector.r_inner",
                                f"need 0 < r_inner < r_outer, got [{r_inner}, {r_outer}]")
        det = ScenarioDetector(kind="cap", axis=axis, half_angle=half_angle,
                               r_inner=r_inner, r_outer=r_outer)
    else:
        position = take("detector.position")
        if position is None:
            raise ScenarioError("detector.position", "required for point detectors")
        ref = take("detector.reference_solid_angle")
        if ref is not None and not 0.0 < ref <= 4.0 * np.pi:
            raise ScenarioError("detector.reference_solid_angle",
                                f"must lie in (0, 4 pi], got {ref}")
        det = ScenarioDetector(kind="point", position=position,
                               reference_solid_angle=ref)

    k = take("coupling.k", 0.5)
    if not 0.0 < k < 1.0:
        raise ScenarioError("coupling.k", f"must lie in (0, 1), got {k}")

    quad_kwargs = {}
    for key in values:
        if key.startswith("quadrature."):
            quad_kwargs[key.split(".", 1)[1]] = values[key]
    try:
        quad = QuadratureSpec(**quad_kwargs)
    except ValueError as exc:
        raise ScenarioError("quadrature", str(exc)) from None

    try:
        grid = prob_mod.TimeGridSpec(dt=take("grid.dt"), t_end=take("grid.t_end"))
    except ValueError as exc:
        raise ScenarioError("grid.dt", str(exc)) from None

    return Scenario(emission=emission, amplitude=amplitude, detector=det,
                    coupling_k=k, quadrature=quad, grid=grid,
                    output_dir=take("output.dir"), base_dir=base_dir)


# --- emission ---------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_scenario(s: Scenario) -> str:
    lines = [_HEADER]

    def put(key, value):
        if value is None:
            return
        if isinstance(value, tuple):
            value = " ".join(_fmt(float(v)) for v in value)
        else:
            value = _fmt(value)
        lines.append(f"{key} = {value}\n")

    put("emission.x0", tuple(float(v) for v in s.emission.x0))
    put("emission.t0", float(s.emission.t0))
    put("emission.mass", float(s.emission.mass))
    put("amplitude.kind", s.amplitude.kind)
    put("amplitude.p0", s.amplitude.p0)
    put("amplitude.sigma_p", s.amplitude.sigma_p)
    put("amplitude.axis", s.amplitude.axis)
    put("amplitude.angular_sigma", s.amplitude.angular_sigma)
    put("amplitude.radial_file", s.amplitude.radial_file)
    put("amplitude.angular_file", s.amplitude.angular_file)
    put("detector.kind", s.detector.kind)
    put("detector.center", s.detector.center)
    put("detector.radius", s.detector.radius)
    put("detector.axis", s.detector.axis)
    put("detector.half_angle", s.detector.half_angle)
    put("detector.r_inner", s.detector.r_inner)
    put("detector.r_outer", s.detector.r_outer)
    put("detector.position", s.detector.position)
    put("detector.reference_solid_angle", s.detector.reference_solid_angle)
    put("coupling.k", float(s.coupling_k))
    q = s.quadrature
    defaults = QuadratureSpec()
    for name in ("radial_nodes", "radial_panels", "polar_nodes", "azimuth_nodes",
                 "dt", "eps_tail", "t_cap", "rtol", "p_max"):
        value = getattr(q, name)
        if value != getattr(defaults, name):
            put(f"quadrature.{name}", value)
    put("grid.dt", s.grid.dt)
    put("grid.t_end", s.grid.t_end)
    put("output.dir", s.output_dir)
    return "".join(lines)


def write_scenario(s: Scenario, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(emit_scenario(s))


# --- building the physics objects -------------------------------------------

def load_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column table: grid value and amplitude (re or 're,im') per line."""
    grid, vals = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'grid amplitude'")
            grid.append(float(parts[0]))
            if "," in parts[1]:
                re, im = parts[1].split(",")
                vals.append(complex(float(re), float(im)))
            else:
                vals.append(complex(float(parts[1]), 0.0))
    return np.asarray(grid), np.asarray(vals)


def make_source(s: Scenario) -> EmissionEvent:
    return EmissionEvent(x0=np.asarray(s.emission.x0, dtype=float),
                         t0=s.emission.t0, mass=s.emission.mass)


def make_amplitude(s: Scenario) -> wp.MomentumAmplitude:
    a = s.amplitude
    if a.kind == "isotropic-gaussian":
        return wp.isotropic_gaussian(a.p0, a.sigma_p)
    if a.kind == "separable":
        return wp.separable_gaussian(a.p0, a.sigma_p, np.asarray(a.axis), a.angular_sigma)
    radial_path = os.path.join(s.base_dir, a.radial_file)
    try:
        p_grid, radial = load_table(radial_path)
    except (OSError, ValueError) as exc:
        raise ScenarioError("amplitude.radial_file", str(exc)) from None
    cos_grid = angular = axis = None
    if a.angular_file is not None:
        try:
            cos_grid, angular = load_table(os.path.join(s.base_dir, a.angular_file))
        except (OSError, ValueError) as exc:
            raise ScenarioError("amplitude.angular_file", str(exc)) from None
        axis = np.asarray(a.axis)
    try:
        return wp.tabulated(p_grid, radial, cos_grid, angular, axis)
    except ValueError as exc:
        raise ScenarioError("amplitude.radial_file", str(exc)) from None


def make_detector(s: Scenario, source: EmissionEvent) -> DetectorGeometry | None:
    d = s.detector
    if d.kind == "sphere":
        return sphere_detector(np.asarray(d.center), d.radius, source)
    if d.kind == "cap":
        return cap_detector(np.asarray(d.axis), d.half_angle, d.r_inner,
                            d.r_outer, source)
    return None


# --- running -----------------------------------------------------------------

def run_scenario(s: Scenario, out_dir) -> dict:
    """Execute the full pipeline and write curve CSVs plus summary.json.

    Identical scenarios produce byte-identical outputs.  Non-converged
    normalizers are recorded in the summary rather than raised; callers
    that want them fatal check summary["converged"].
    """
    os.makedirs(out_dir, exist_ok=True)
    source = make_source(s)
    amp = make_amplitude(s)
    det = make_detector(s, source)

    arrival_stats = None
    arrival_converged = True
    if det is not None:
        distance = det.distance
        curve = prob_mod.build_entry_curve(amp, det, source, s.quadrature,
                                           s.grid, allow_unconverged=True)
        omega = det.omega
        volume = det.volume
    else:
        position = np.asarray(s.detector.position, dtype=float)
        distance = float(np.linalg.norm(position - source.x0))
        curve = prob_mod.point_detector_curve(
            amp, position, source, s.quadrature, s.grid,
            reference_solid_angle=s.detector.reference_solid_angle,
            allow_unconverged=True)
        omega = s.detector.reference_solid_angle
        volume = None
        try:
            arrival_stats = arrival_mod.mean_arrival_time(amp, position, source,
                                                          s.quadrature)
        except IntegrationError:
            arrival_converged = False

    sched = detector_mod.coupling_schedule(curve, s.coupling_k)
    closure = detector_mod.ode_consistency(sched)

    curve.write_csv(os.path.join(out_dir, "entry_curve.csv"))
    sched.write_csv(os.path.join(out_dir, "schedule.csv"))
    if arrival_stats is not None:
        arrival_stats.write_csv(os.path.join(out_dir, "arrival.csv"))

    classical = None
    if amp.exposed_p0 is not None:
        classical = source.mass * distance / amp.exposed_p0

    summary = {
        "schema_version": SCHEMA_VERSION,
        "point_detector": s.is_point,
        "k": s.coupling_k,
        "mass": source.mass,
        "t0": source.t0,
        "distance": distance,
        "omega": omega,
        "volume": volume,
        "p_direction": curve.p_direction,
        "p_conditional_final": float(curve.p_conditional[-1]),
        "p_entry_final": float(curve.p_entry[-1]),
        "p_registered_final": float(np.sin(sched.angle[-1]) ** 2),
        "mean_arrival": None if arrival_stats is None else arrival_stats.mean_time,
        "classical_flight": classical,
        "dt": curve.dt,
        "t_max": curve.denominator.t_max + source.t0,
        "denominator": curve.denominator.as_dict(),
        "normalizer": None if arrival_stats is None
        else arrival_stats.normalizer.as_dict(),
        "quad_error": curve.quad_error,
        "consistency_residual_max": closure["consistency_residual_max"],
        "unitarity_residual_max": closure["unitarity_residual_max"],
        "converged": bool(curve.denominator.converged and arrival_converged),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


# --- sweeps -------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    scenario_path: str
    parameter: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ScenarioError("sweep.values", "value list must not be empty")


_SWEEPABLE = {
    "coupling.k": lambda s, v: replace(s, coupling_k=v),
    "emission.mass": lambda s, v: replace(s, emission=replace(s.emission, mass=v)),
    "emission.t0": lambda s, v: replace(s, emission=replace(s.emission, t0=v)),
    "amplitude.p0": lambda s, v: replace(s, amplitude=replace(s.amplitude, p0=v)),
    "amplitude.sigma_p": lambda s, v: replace(s, amplitude=replace(s.amplitude, sigma_p=v)),
    "amplitude.angular_sigma": lambda s, v: replace(
        s, amplitude=replace(s.amplitude, angular_sigma=v)),
    "detector.radius": lambda s, v: replace(s, detector=replace(s.detector, radius=v)),
    "detector.half_angle": lambda s, v: replace(
        s, detector=replace(s.detector, half_angle=v)),
    "quadrature.dt": lambda s, v: replace(s, quadrature=replace(s.quadrature, dt=v)),
    "quadrature.t_cap": lambda s, v: replace(s, quadrature=replace(s.quadrature, t_cap=v)),
    "quadrature.eps_tail": lambda s, v: replace(
        s, quadrature=replace(s.quadrature, eps_tail=v)),
    "grid.dt": lambda s, v: replace(s, grid=replace(s.grid, dt=v)),
    "grid.t_end": lambda s, v: replace(s, grid=replace(s.grid, t_end=v)),
}


def _apply_distance(s: Scenario, value: float) -> Scenario:
    x0 = np.asarray(s.emission.x0, dtype=float)
    if s.detector.kind == "point":
        anchor = np.asarray(s.detector.position, dtype=float)
    elif s.detector.kind == "sphere":
        anchor = np.asarray(s.detector.center, dtype=float)
    else:
        raise ScenarioError("sweep.parameter",
                            "detector.distance sweeps need a sphere or point detector")
    offset = anchor - x0
    length = float(np.linalg.norm(offset))
    if length == 0.0:
        raise ScenarioError("sweep.parameter",
                            "detector coincides with the source; no direction to scale")
    moved = tuple(float(c) for c in (x0 + offset * (value / length)))
    if s.detector.kind == "point":
        return replace(s, detector=replace(s.detector, position=moved))
    return replace(s, detector=replace(s.detector, center=moved))


def apply_parameter(s: Scenario, parameter: str, value: float) -> Scenario:
    if parameter == "detector.distance":
        return _apply_distance(s, value)
    setter = _SWEEPABLE.get(parameter)
    if setter is None:
        raise ScenarioError("sweep.parameter",
                            f"{parameter!r} is not a sweepable scalar parameter")
    return setter(s, value)


def parse_sweep(path) -> SweepSpec:
    base = os.path.dirname(os.path.abspath(path))
    entries: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ScenarioError(f"line {lineno}",
                                    f"expected 'key = value', got {stripped!r}")
            key, _, raw = stripped.partition("=")
            entries[key.strip()] = raw.strip()
    unknown = set(entries) - {"sweep.scenario", "sweep.parameter", "sweep.values"}
    if unknown:
        raise ScenarioError(sorted(unknown)[0], "unknown key")
    for required in ("sweep.scenario", "sweep.parameter", "sweep.values"):
        if required not in entries:
            raise ScenarioError(required, "missing key")
    try:
        values = tuple(float(v) for v in entries["sweep.values"].split())
    except ValueError as exc:
        raise ScenarioError("sweep.values", str(exc)) from None
    parameter = entries["sweep.parameter"]
    if parameter != "detector.distance" and parameter not in _SWEEPABLE:
        raise ScenarioError("sweep.parameter",
                            f"{parameter!r} is not a sweepable scalar parameter")
    return SweepSpec(scenario_path=os.path.join(base, entries["sweep.scenario"]),
                     parameter=parameter, values=values)


_SWEEP_COLUMNS = ("parameter", "value", "status", "error", "p_direction",
                  "p_entry_final", "p_registered_final", "mean_arrival",
                  "classical_flight", "t_max", "converged")


def run_sweep(spec: SweepSpec, out_dir, jobs: int = 1) -> list[dict]:
    """One scenario run per value; rows are independent and sorted by value.

    Per-row failures are recorded in the row and the sweep continues.
    """
    template = parse_scenario(spec.scenario_path)
    values = sorted(spec.values)
    os.makedirs(out_dir, exist_ok=True)

    def run_one(value: float) -> dict:
        row = {"parameter": spec.parameter, "value": value, "status": "ok",
               "error": ""}
        try:
            scn = apply_parameter(template, spec.parameter, value)
            row_dir = os.path.join(out_dir, f"{spec.parameter}={_fmt(value)}")
            summary = run_scenario(scn, row_dir)
            for name in ("p_direction", "p_entry_final", "p_registered_final",
                         "mean_arrival", "classical_flight", "t_max", "converged",
                         "consistency_residual_max"):
                row[name] = summary[name]
        except Exception as exc:  # noqa: BLE001 - rows must not kill the sweep
            row["status"] = "error"
            row["error"] = str(exc)
        return row

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_one, values))
    else:
        rows = [run_one(v) for v in values]

    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for name in _SWEEP_COLUMNS:
                value = row.get(name, "")
                if isinstance(value, float):
                    cells.append(f"{value:.17g}")
                elif value is None:
                    cells.append("")
                else:
                    cells.append(str(value))
            fh.write(",".join(cells) + "\n")
    return rows
