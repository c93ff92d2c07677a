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
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import arrival as arrival_mod
from . import detector as detector_mod
from . import probability as prob_mod
from . import wavepacket as wp
from .errors import IntegrationError, ScenarioError
from .geometry import EmissionEvent, DetectorGeometry, sphere_detector, cap_detector, \
    point_detector
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
    "quadrature.polar_nodes": _INT,
    "quadrature.azimuth_nodes": _INT,
    "quadrature.dt": _FLOAT,
    "quadrature.eps_tail": _FLOAT,
    "quadrature.t_cap": _FLOAT,
    "quadrature.rtol": _FLOAT,
    "grid.dt": _FLOAT,
    "grid.t_end": _FLOAT,
    "output.dir": _STR,
}

# sections whose keys are fields of Scenario itself (coupling.k -> coupling_k)
_TOP_LEVEL = ("coupling", "output")


def _get(s: Scenario, key: str):
    section, name = key.split(".")
    if section in _TOP_LEVEL:
        return getattr(s, f"{section}_{name}")
    return getattr(getattr(s, section), name)


@contextmanager
def _named(key: str):
    """Re-raise a reader's or builder's error as a ScenarioError naming `key`."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ScenarioError(key, str(exc)) from None


def _set(s: Scenario, key: str, value) -> Scenario:
    """`s` with `key` set to `value`.  QuadratureSpec and TimeGridSpec check
    each field on its own, so an error they raise is an error of `key`."""
    section, name = key.split(".")
    if section in _TOP_LEVEL:
        return replace(s, **{f"{section}_{name}": value})
    with _named(key):
        return replace(s, **{section: replace(getattr(s, section), **{name: value})})


# keys of each kind: those it requires, then those it may leave unset
_AMPLITUDE_KINDS = {
    "isotropic-gaussian": ((), ("amplitude.p0", "amplitude.sigma_p")),
    "separable": (("amplitude.axis", "amplitude.angular_sigma"),
                  ("amplitude.p0", "amplitude.sigma_p")),
    "tabulated": (("amplitude.radial_file",), ("amplitude.angular_file",
                                               "amplitude.axis")),
}
_DETECTOR_KINDS = {
    "sphere": (("detector.center", "detector.radius"), ()),
    "cap": (("detector.axis", "detector.half_angle", "detector.r_inner",
             "detector.r_outer"), ()),
    "point": (("detector.position",), ("detector.reference_solid_angle",)),
}

# ranged keys: an excluded lower bound of 0, the upper bound, and whether the
# upper bound is included
_RANGES = {
    "emission.mass": (np.inf, False),
    "amplitude.p0": (np.inf, False),
    "amplitude.sigma_p": (np.inf, False),
    "amplitude.angular_sigma": (np.inf, False),
    "detector.radius": (np.inf, False),
    "detector.half_angle": (np.pi, True),
    "detector.reference_solid_angle": (4.0 * np.pi, True),
    "coupling.k": (1.0, False),
}


def _check(s: Scenario):
    """Raise ScenarioError naming the first key, in `_KEYS` order, that the
    kinds of `s` require but is unset, that a kind does not own but is set,
    or that lies outside its range; then check the relations between keys."""
    kinds = {"amplitude": _AMPLITUDE_KINDS[s.amplitude.kind],
             "detector": _DETECTOR_KINDS[s.detector.kind]}
    for key in _KEYS:
        section = key.split(".")[0]
        required, optional = kinds.get(section, ((), ()))
        value = _get(s, key)
        if value is None:
            if key in required:
                raise ScenarioError(key, f"required for {section}.kind = "
                                         f"{_get(s, section + '.kind')}")
        elif section in kinds and key not in (f"{section}.kind", *required, *optional):
            raise ScenarioError(key, f"conflicts with {section}.kind = "
                                     f"{_get(s, section + '.kind')}; a scenario "
                                     f"holds exactly one {section} kind")
        elif key in _RANGES:
            hi, closed = _RANGES[key]
            if not (0.0 < value < hi or (closed and value == hi)):
                bounds = "be positive" if hi == np.inf \
                    else f"lie in (0, {hi:.17g}{']' if closed else ')'}"
                raise ScenarioError(key, f"must {bounds}, got {value}")
    d = s.detector
    if d.kind == "cap" and not 0.0 < d.r_inner < d.r_outer:
        raise ScenarioError("detector.r_inner",
                            f"need 0 < r_inner < r_outer, got [{d.r_inner}, {d.r_outer}]")
    if s.amplitude.angular_file is not None and s.amplitude.axis is None:
        raise ScenarioError("amplitude.axis", "required with an angular table")


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


def _read_pairs(text: str, allowed) -> dict:
    """Raw `key = value` pairs of a flat key file, checked in file order: a
    line without '=', a key not in `allowed` or a repeated key is an error.
    Blank lines and '#' comments are skipped."""
    pairs: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = stripped.partition("=")
        if not eq:
            raise ScenarioError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key = key.strip()
        if key not in allowed:
            raise ScenarioError(key, "unknown key")
        if key in pairs:
            raise ScenarioError(key, "duplicate key")
        pairs[key] = raw.strip()
    return pairs


def parse_scenario_text(text: str, base_dir: str = ".") -> Scenario:
    """Scenario of a file's text: its values set on a default Scenario of
    the file's (known) amplitude and detector kinds, then checked."""
    values = {key: _parse_value(key, raw) for key, raw in _read_pairs(text, _KEYS).items()}
    kinds = {}
    for section, table, default in (
            ("amplitude", _AMPLITUDE_KINDS, "isotropic-gaussian"),
            ("detector", _DETECTOR_KINDS,
             "point" if "detector.position" in values else "sphere")):
        kind = kinds[section] = values.get(f"{section}.kind", default)
        if kind not in table:
            raise ScenarioError(f"{section}.kind",
                                f"must be one of {sorted(table)}, got {kind!r}")
    amplitude = ScenarioAmplitude(kind=kinds["amplitude"])
    if amplitude.kind == "tabulated":
        amplitude = replace(amplitude, p0=None, sigma_p=None)
    s = Scenario(amplitude=amplitude, detector=ScenarioDetector(kind=kinds["detector"]),
                 base_dir=base_dir)
    for key, value in values.items():
        s = _set(s, key, value)
    _check(s)
    return s


def parse_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


# --- emission ---------------------------------------------------------------

def _fmt(kind: str, value) -> str:
    if kind == _VEC:
        return " ".join(_fmt(_FLOAT, v) for v in value)
    if kind == _FLOAT:
        return f"{float(value):.17g}"
    return str(value)


_DEFAULTS = Scenario()


def emit_scenario(s: Scenario) -> str:
    """Scenario text in `_KEYS` order; unset keys and quadrature keys at
    their defaults are left out."""
    lines = [_HEADER]
    for key, kind in _KEYS.items():
        value = _get(s, key)
        if value is None or (key.startswith("quadrature.")
                             and value == _get(_DEFAULTS, key)):
            continue
        lines.append(f"{key} = {_fmt(kind, value)}\n")
    return "".join(lines)


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


_WIDTH_MAX = float(np.sqrt(np.finfo(float).max / 4.0))   # a gaussian's 4 width^2 is finite
_RADIUS_MAX = 1e102    # a detector volume, at most 4 pi r^3 / 3 < 4.2e306, is finite
_PLACED_AT = {"sphere": "detector.center", "point": "detector.position"}


def make_amplitude(s: Scenario) -> wp.MomentumAmplitude:
    a = s.amplitude
    for key in ("amplitude.sigma_p", "amplitude.angular_sigma"):
        if not (_get(s, key) or 0.0) < _WIDTH_MAX:
            raise ScenarioError(key, f"must be below {_WIDTH_MAX:.6g}, got {_get(s, key)}")
    if a.p0 is not None and a.p0 + wp.GAUSSIAN_SUPPORT_SIGMAS * a.sigma_p == a.p0:
        raise ScenarioError("amplitude.sigma_p", f"p0 + 8 sigma_p rounds to p0 = {a.p0}")
    if a.kind == "isotropic-gaussian":
        return wp.isotropic_gaussian(a.p0, a.sigma_p)
    axis = None
    if a.kind == "separable" or a.angular_file is not None:
        axis = np.asarray(a.axis, dtype=float)
        if float(np.linalg.norm(axis)) == 0.0:
            raise ScenarioError("amplitude.axis", "must be nonzero")
    if a.kind == "separable":
        return wp.separable_gaussian(a.p0, a.sigma_p, axis, a.angular_sigma)
    with _named("amplitude.radial_file"):
        tables = load_table(os.path.join(s.base_dir, a.radial_file))
    if a.angular_file is not None:
        with _named("amplitude.angular_file"):
            tables += load_table(os.path.join(s.base_dir, a.angular_file))
    try:
        return wp.tabulated(*tables, axis=axis)
    except ValueError as exc:  # its messages open with the table they reject
        key = "amplitude.angular_file" if str(exc).startswith("angular") \
            else "amplitude.radial_file"
        raise ScenarioError(key, str(exc)) from None


def make_detector(s: Scenario, source: EmissionEvent) -> DetectorGeometry | None:
    """The detector volume, or None for a point.  An overflowing distance to
    the source is an error of the farther point's key, a size at or above
    _RADIUS_MAX one of its own; the builders reject only a source inside the
    ball (an error of the sphere's center) and a zero cap axis.  A direction
    cone whose cosine rounds to 1 is an error of its size's key."""
    d = s.detector
    key = _PLACED_AT.get(d.kind)
    with np.errstate(over="ignore"):
        if key and not np.isfinite(np.linalg.norm(np.subtract(_get(s, key), source.x0))):
            raise ScenarioError(key if np.abs(_get(s, key)).max() >= np.abs(source.x0).max()
                                else "emission.x0", "the distance to the source overflows")
    key = {"sphere": "detector.radius", "cap": "detector.r_outer"}.get(d.kind)
    if key and not _get(s, key) < _RADIUS_MAX:
        raise ScenarioError(key, f"must be below {_RADIUS_MAX:g}, got {_get(s, key)}")
    if d.kind == "point":
        return None
    if d.kind == "sphere":
        with _named("detector.center"):
            det = sphere_detector(np.asarray(d.center), d.radius, source)
    else:
        with _named("detector.axis"):
            det = cap_detector(np.asarray(d.axis), d.half_angle, d.r_inner,
                               d.r_outer, source)
    if det.cos_cone == 1.0:
        raise ScenarioError("detector.radius" if d.kind == "sphere" else "detector.half_angle",
                            f"the direction cone of half-angle {det.half_angle:.3g} "
                            "has a cosine that rounds to 1")
    return det


# --- running -----------------------------------------------------------------

# the stages of a run in order; each reads the scenario and the stages before it
_STAGES = ("amplitude", "detector", "controls", "profile", "arrival", "curve", "schedule")
# each output CSV with the stage whose result writes it and its header, in
# the order of `detector._run_blocks`
_FILES = (("entry_curve.csv", "curve", prob_mod.EntryProbabilityCurve.header),
          ("schedule.csv", "schedule", detector_mod.CouplingSchedule.header),
          ("arrival.csv", "arrival", arrival_mod.ArrivalTimeStats.header))


def _check_grid(s: Scenario, source: EmissionEvent, quad: QuadratureSpec):
    """Refuse an output grid that cannot hold the 3 samples a run needs, or
    holds more than the row budget, on the run's own time controls `quad`: the
    end is grid.t_end when set, else the time cap (t_max <= t_cap), and the step
    grid.dt, else quad.dt.  `_curve_rows` repeats it on the exact end.
    A step within the float spacing of the grid's times is an error of
    grid.dt when set, else of emission.t0."""
    dt, n = prob_mod._grid_steps(s.grid, source.t0, quad.dt, quad.t_cap, min_samples=3,
                                 quad=s.quadrature)
    if not dt > np.spacing(max(abs(source.t0), abs(source.t0 + n * dt))):
        raise ScenarioError("grid.dt" if s.grid.dt is not None else "emission.t0",
                            f"the step {dt:.6g} is lost in the times from {source.t0!r}")


def _prepare(s: Scenario, until: str = "schedule", shared: dict | None = None) -> dict:
    """The results of the stages of a run of `s` before stage `until`, by
    name: those in `shared` as they are, the others computed in order (the
    curve before the arrival statistics; both read only the profile).

    amplitude: source and amplitude; detector: its geometry (a point's too);
    controls: direction factor and resolved time controls; profile: the
    occupation profile on those controls; curve: the entry curve's rows;
    arrival: the statistics of a point and the rows of its density, None for
    a volume or when they did not converge.
    When the curve is computed here, `_check_grid` runs on the controls
    first, before any profile, so a sweep row whose profile is shared is
    checked against its own grid.
    """
    r = dict(shared or {})
    todo = [stage for stage in _STAGES[:_STAGES.index(until)] if stage not in r]
    if "amplitude" in todo:
        r["amplitude"] = make_source(s), make_amplitude(s)
    if "detector" in todo:
        source = r["amplitude"][0]
        r["detector"] = make_detector(s, source)
        if r["detector"] is None:
            with _named("detector.position"):
                r["detector"] = point_detector(s.detector.position, source,
                                               s.detector.reference_solid_angle)
    if "controls" in todo:
        (source, amp), det = r["amplitude"], r["detector"]
        r["controls"] = prob_mod._controls(amp, det, source, s.quadrature)
    if "curve" in todo:
        _check_grid(s, r["amplitude"][0], r["controls"][1])
    if "profile" in todo:
        (source, amp), det, (_, quad) = r["amplitude"], r["detector"], r["controls"]
        r["profile"] = prob_mod._occupation_profile(
            wp.detector_occupation(amp, det, source, quad), source, quad)
    if "curve" in todo:
        r["curve"] = prob_mod._curve_rows(r["profile"], r["controls"][0], s.grid,
                                          allow_unconverged=True, min_samples=3,
                                          quad=s.quadrature)
    if "arrival" in todo:
        r["arrival"] = None
        if s.is_point:
            try:
                r["arrival"] = arrival_mod._arrival_rows(
                    r["profile"], arrival_mod._classical_flight(*r["amplitude"], r["detector"]))
            except IntegrationError:
                pass
    return r


def check_scenario(s: Scenario) -> tuple:
    """Source, amplitude and detector geometry (a point's too) of a scenario
    whose output grid can hold the 3 samples a run needs (`_check_grid` on
    its resolved time controls), checked before any occupation profile."""
    r = _prepare(s, "profile")
    (source, amp), det = r["amplitude"], r["detector"]
    _check_grid(s, source, r["controls"][1])
    return source, amp, det


def run_scenario(s: Scenario, out_dir) -> dict:
    """Execute the full pipeline and write curve CSVs plus summary.json.

    Identical scenarios produce byte-identical outputs.  Non-converged
    normalizers are recorded in the summary rather than raised; callers
    that want them fatal check summary["converged"].
    """
    return _run(s, out_dir)


def _run(s: Scenario, out_dir, prepared: dict | None = None) -> dict:
    """`run_scenario`, from the stages a sweep shares in `prepared`: `_prepare`
    results, plus a function that writes each file (by name) that they write
    to a path and, under "columns", one giving the texts of columns every row
    writes (`sweepfiles.share`).  The files a run writes itself are computed
    and written a block of rows at a time, so it holds its occupation profile
    and one block."""
    os.makedirs(out_dir, exist_ok=True)
    r = _prepare(s, shared=prepared)
    (source, amp), det = r["amplitude"], r["detector"]
    curve, arrival = r["curve"], r["arrival"]
    closure = detector_mod._Closure(s.coupling_k, curve.dt,
                                    lambda i: curve.rows(i, i + 1)[0][0])
    # the files the run writes itself, by their place in _FILES; on an error
    # they are removed, and the shared ones not written
    tables = [(j, os.path.join(out_dir, name), header)
              for j, (name, stage, header) in enumerate(_FILES)
              if name not in r and (stage == "schedule" or r[stage] is not None)]
    columns = r.get("columns", lambda i, schedule: {})
    with ExitStack() as stack:
        sinks = prob_mod._open_tables(stack, [table[1:] for table in tables])
        for i, blocks in enumerate(detector_mod._run_blocks(
                curve, s.coupling_k, prob_mod._CSV_BLOCK, closure,
                None if "arrival.csv" in r else arrival)):
            prob_mod._write_rows(sinks, [blocks[j] for j, _, _ in tables],
                                 columns(i, blocks[1]))
            if blocks[0]:   # the curve's last block gives the final values
                (_, conditional, p_entry), angle = blocks[0], blocks[1][2]
        residuals = closure.finish()
    for name, _, _ in _FILES:
        if name in r:
            r[name](os.path.join(out_dir, name))

    summary = {
        "schema_version": SCHEMA_VERSION,
        "point_detector": s.is_point,
        "k": s.coupling_k,
        "mass": source.mass,
        "t0": source.t0,
        "distance": det.distance,
        "omega": det.omega,
        "volume": det.volume,
        "p_direction": curve.p_direction,
        "p_conditional_final": float(conditional[-1]),
        "p_entry_final": float(p_entry[-1]),
        "p_registered_final": float(np.sin(angle[-1]) ** 2),
        "mean_arrival": None if arrival is None else arrival.mean_time,
        "classical_flight": arrival_mod._classical_flight(source, amp, det),
        "dt": curve.dt,
        "t_max": curve.denominator.t_max,
        "denominator": curve.denominator.as_dict(),
        "normalizer": None if arrival is None else arrival.normalizer.as_dict(),
        "quad_error": curve.profile.quad_error,
        **residuals,
        "converged": bool(curve.denominator.converged
                          and (arrival is not None or not s.is_point)),
    }
    with open(os.path.join(out_dir, "summary.json"), "wb") as fh:
        fh.write((json.dumps(summary, indent=2) + "\n").encode())
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
        # a repeat (float ==, so -0 repeats 0) would run twice into one directory
        repeated = [v for i, v in enumerate(self.values) if v in self.values[:i]]
        if repeated:
            raise ScenarioError("sweep.values", f"repeats {repeated[0]!r}; each "
                                                "row needs its own value")


# every scalar key a sweep may set, plus detector.distance (the source-detector
# separation, moving a sphere's center or a point along the line of sight),
# with the first stage of a run it changes; a sweep computes the stages
# before that one once, from its template
_SWEEPABLE = {
    "emission.mass": "amplitude", "emission.t0": "amplitude",
    "amplitude.p0": "amplitude", "amplitude.sigma_p": "amplitude",
    "amplitude.angular_sigma": "amplitude",
    "detector.radius": "detector", "detector.half_angle": "detector",
    "detector.distance": "detector",
    "quadrature.dt": "controls", "quadrature.t_cap": "controls",
    "quadrature.eps_tail": "controls",
    "grid.dt": "curve", "grid.t_end": "curve",
    "coupling.k": "schedule",
}
_SWEEP_KEYS = ("sweep.scenario", "sweep.parameter", "sweep.values")


def _check_sweepable(parameter: str):
    if parameter not in _SWEEPABLE:
        raise ScenarioError("sweep.parameter",
                            f"{parameter!r} is not a sweepable scalar parameter")


def _apply_distance(s: Scenario, value: float) -> Scenario:
    key = _PLACED_AT.get(s.detector.kind)
    if key is None:
        raise ScenarioError("sweep.parameter",
                            "detector.distance sweeps need a sphere or point detector")
    if not value > 0.0:
        raise ScenarioError("detector.distance", f"must be positive, got {value}")
    x0 = np.asarray(s.emission.x0, dtype=float)
    offset = np.asarray(_get(s, key), dtype=float) - x0
    length = float(np.linalg.norm(offset))
    if length == 0.0:
        raise ScenarioError("sweep.parameter",
                            f"{key} is the source position; no direction to scale")
    return _set(s, key, tuple(float(c) for c in (x0 + offset * (value / length))))


def apply_parameter(s: Scenario, parameter: str, value: float) -> Scenario:
    """`s` with a sweep row's value set, checked as a parsed file is."""
    _check_sweepable(parameter)
    if parameter == "detector.distance":
        s = _apply_distance(s, value)
    else:
        s = _set(s, parameter, value)
    _check(s)
    return s


def parse_sweep(path) -> SweepSpec:
    base = os.path.dirname(os.path.abspath(path))
    with open(path, encoding="utf-8") as fh:
        entries = _read_pairs(fh.read(), _SWEEP_KEYS)
    for required in _SWEEP_KEYS:
        if required not in entries:
            raise ScenarioError(required, "missing key")
    try:
        values = tuple(float(v) for v in entries["sweep.values"].split())
    except ValueError as exc:
        raise ScenarioError("sweep.values", str(exc)) from None
    if not np.all(np.isfinite(values)):
        raise ScenarioError("sweep.values",
                            f"must be finite, got {entries['sweep.values']!r}")
    parameter = entries["sweep.parameter"]
    _check_sweepable(parameter)
    return SweepSpec(scenario_path=os.path.join(base, entries["sweep.scenario"]),
                     parameter=parameter, values=values)


_SWEEP_COLUMNS = ("parameter", "value", "status", "error", "p_direction",
                  "p_entry_final", "p_registered_final", "mean_arrival",
                  "classical_flight", "t_max", "converged")


def _sweep_row(template: Scenario, parameter: str, out_dir, value: float,
               prepared: dict | None, failure: Exception | None) -> dict:
    """Run one sweep row, from `prepared` if given, or fail with `failure`
    once its own value is checked; failures are recorded."""
    row = {"parameter": parameter, "value": value, "status": "ok", "error": ""}
    try:
        scn = apply_parameter(template, parameter, value)
        row_dir = os.path.join(out_dir, f"{parameter}={_fmt(_FLOAT, value)}")
        if failure is not None:
            os.makedirs(row_dir, exist_ok=True)
            raise failure
        summary = _run(scn, row_dir, prepared)
        for name in ("p_direction", "p_entry_final", "p_registered_final",
                     "mean_arrival", "classical_flight", "t_max", "converged",
                     "consistency_residual_max"):
            row[name] = summary[name]
    except Exception as exc:  # noqa: BLE001 - rows must not kill the sweep
        row["status"] = "error"
        row["error"] = str(exc)
    return row


def run_sweep(spec: SweepSpec, out_dir, jobs: int = 1) -> list[dict]:
    """One scenario run per value, one after another in this process; rows
    are independent and sorted by value.  `jobs` is accepted and ignored.

    Per-row failures are recorded in the row and the sweep continues.  The
    stages of a run before the first one the swept key changes (`_SWEEPABLE`)
    are computed once here from the template, with the text of the files they
    write (streamed to temporary files), and every row reads them.  If that
    fails, every row whose own value passes records the template's error.  A
    `grid.*` sweep's template stops before the entry curve, so only each
    row's own grid is checked.
    """
    import csv      # imported here, so a single run loads and compiles neither
    from . import sweepfiles
    template = parse_scenario(spec.scenario_path)
    if spec.parameter == "detector.distance":
        _apply_distance(template, 1.0)     # refuses a template without a line of sight
    os.makedirs(out_dir, exist_ok=True)
    prepared = failure = None
    with ExitStack() as stack:
        try:
            prepared = sweepfiles.share(_prepare(template, _SWEEPABLE[spec.parameter]),
                                        _FILES, template.coupling_k, out_dir, stack)
        except Exception as exc:  # noqa: BLE001 - the rows record it
            failure = exc
            stack.close()
        rows = [_sweep_row(template, spec.parameter, out_dir, v, prepared, failure)
                for v in sorted(spec.values)]

    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in map(row.get, _SWEEP_COLUMNS)])
    return rows
