"""Detector-entry probability pipeline.

Factorizes the probability that the particle entered the detector during
[t0, t] into the direction factor (momentum points through the detector)
times the conditional occupation ratio

    truncated / full time integral of  Integral_V |psi_D(x, t')|^2 d^3x,

and exposes both as sampled curves over a uniform time grid.  A point
detector replaces the volume integral by the single-point density
|psi_nD(x_D, t')|^2 and carries the direction factor separately (default 1).

`write_tables` writes the bytes of "%.17g" % v: 17 digits exact from a double-double
scaling by a power of ten, and Python's dtoa for what that product cannot decide.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import IntegrationError, ScenarioError
from .geometry import EmissionEvent, DetectorGeometry, point_detector
from .quadrature import QuadratureSpec, SemiInfiniteResult, semiinfinite_profile
from .wavepacket import MomentumAmplitude, OccupationCurve, _cone_angular_mass, \
    angular_weight_integral, detector_occupation, normalize, radial_density_integral, \
    radial_moments

_NORM_TOL = 1e-6
_CSV_BLOCK = 2048      # rows per write in write_tables: a run holds one block a column
_CSV_WIDTH = 24        # bytes of the longest %.17g text, -2.2250738585072014e-308
_E0 = 284              # the kernel's tables hold E in [-_E0, _E0]; 10^(16 + _E0) * 2^27 is finite
_MAX_GRID_ROWS = 2 ** 22   # output samples; default time controls need <= 2,000,001
_VANISHES = "detector occupation vanishes; the entry ratio is undefined"


@dataclass(frozen=True)
class TimeGridSpec:
    """Output grid for sampled curves: step and absolute end time.

    With both fields unset the grid runs on the quadrature step and ends
    at the first step past which at most float64 eps of the occupation
    mass remains.  With either set, an unset `dt` falls back to the
    quadrature step and an unset `t_end` to the effective upper
    integration limit found by the tail control.
    """

    dt: float | None = None
    t_end: float | None = None

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"grid dt must be positive, got {self.dt}")


@dataclass(frozen=True, eq=False)
class EntryProbabilityCurve:
    """Sampled entry probabilities on a uniform time grid from t0.

    `dt` is the grid's step: t = t0 + dt k, so t[1] - t[0] carries the
    rounding of t0 and is not the step.  `denominator` is the occupation
    normalizer; its `t_max` is absolute, as in `ArrivalTimeStats.normalizer`.
    p_entry = p_direction * p_conditional is nondecreasing, starts at 0, and
    stays within [0, 1].  A curve that breaks these invariants comes from a
    failed integration, so the checks raise IntegrationError.
    """

    t: np.ndarray
    p_direction: float
    p_conditional: np.ndarray
    denominator: SemiInfiniteResult
    dt: float = 0.0
    quad_error: float = 0.0

    def __post_init__(self):
        if np.any(self.p_conditional < -1e-12) or np.any(self.p_conditional > 1.0 + 1e-12):
            raise IntegrationError("conditional probabilities leave [0, 1]")
        p_entry = self.p_entry
        if np.any(np.diff(p_entry) < -1e-10):
            raise IntegrationError("entry probability is not nondecreasing")
        if abs(p_entry[0]) > 1e-300:
            raise IntegrationError("entry probability must start at 0")

    @property
    def p_entry(self) -> np.ndarray:
        return self.p_direction * self.p_conditional

    def csv_table(self) -> tuple:
        """Header and float columns of entry_curve.csv."""
        return "t,p_conditional,p_entry", (self.t, self.p_conditional, self.p_entry)

    def write_csv(self, path):
        # through the class, so any object with the curve's columns writes
        write_tables([(path, *EntryProbabilityCurve.csv_table(self))])


def _two_product(x, hi, lo):
    """x (hi + lo) as p + s with p = fl(x hi): Dekker's error-free product of
    x and hi, plus x lo, so p + s errs by ~2^-104 of the product."""
    c, d = x * 134217729.0, hi * 134217729.0
    xh, hh = c - (c - x), d - (d - hi)
    p = x * hi
    return p, (((xh * hh - p) + xh * (hi - hh)) + (x - xh) * hh) + (x - xh) * (hi - hh) + x * lo


@cache
def _csv_tables() -> tuple:
    """The tables of `_format_block`, built by the first write: 10^(16 - E) as
    a double-double hi + lo, by E + _E0; the ASCII of 0000..9999 as uint32;
    for digit group j of 4 and its value, 4 j + the digits up to its last
    nonzero one (0 for 0); by E + _E0, the exponent text and the first key of
    E's notation; and the templates, by key."""
    big = []
    for j in range(-18, 19):    # 10^(16 j) = a / b as hi + lo, each rounded from the exact value
        a, b = (10 ** (16 * j), 1) if j >= 0 else (1, 10 ** (-16 * j))
        num, den = (a / b).as_integer_ratio()
        big.append((a / b, (a * den - num * b) / (den * b)))
    e = np.arange(-_E0, _E0 + 1)
    p, s = _two_product((10 ** ((16 - e) % 16)).astype(float),
                        *np.take(big, (16 - e) // 16 + 18, axis=0).T)
    digit = np.arange(10, dtype=np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)     # the ASCII of 0000..9999
    for j in range(4):
        groups[..., j] = digit.reshape((10,) + (1,) * (3 - j)) + 48
    last = np.where(digit > 0, 4, np.where(digit[:, None] > 0, 3, np.where(
        digit[:, None, None] > 0, 2, digit[:, None, None, None] > 0))).astype(np.uint8).ravel()
    # key (mode, nd, sign): mode E + 4 is fixed notation (E in [-4, 16]), 21 and 22
    # exponential with 2 and 3 exponent digits; a text is a sign, a lead ("0." and
    # -E - 1 zeros), the whole digits, a point, the other digits and the exponent,
    # read from source bytes 0 ".", 1 "-", 2 "0", 3-19 the digits, 20-24 "e+ddd", 27 zero
    m, nd, at = np.arange(23)[:, None, None], np.arange(1, 18)[:, None], np.arange(_CSV_WIDTH)
    lead = np.where(m < 4, 5 - m, 0)
    whole = np.where(m > 20, 1, np.maximum(m - 3, 0))
    point = lead + whole + ((nd > whole) & (lead == 0))
    digits = point + np.maximum(nd - whole, 0)
    exp = np.where(m > 20, m - 17, 0)
    text = np.select([at < lead, at < lead + whole, at < point, at < digits, at < digits + exp],
                     [2 - 2 * (at == 1), 3 + at - lead, 0, 3 + whole + at - point,
                      20 + at - digits + ((exp == 4) & (at - digits >= 2))], 27)
    signed = np.concatenate([np.ones_like(text[..., :1]), text[..., :-1]], -1)
    return (
        p + s, s - ((p + s) - p), groups.view(np.uint32).ravel(),
        ((last + 4 * digit[:4, None]) * (last > 0)).ravel(),
        np.frombuffer(b"".join(b"e%+04d\0\0\0" % v for v in e.tolist()), np.uint32).reshape(-1, 2),
        34 * np.where((e >= -4) & (e <= 16), e + 4, 21 + (abs(e) >= 100)),
        np.stack([text, signed], 2).reshape(-1, _CSV_WIDTH))


def _digits(x, i, hi, lo):
    """floor(x 10^(16 - E)) and the fraction it drops, for E = i - _E0."""
    p, s = _two_product(x, hi.take(i), lo.take(i))
    whole = np.floor(p)
    s += p - whole
    part = np.floor(s)
    return whole.astype(np.int64) + part.astype(np.int64), s - part


def _format_block(block: np.ndarray) -> np.ndarray:
    """The block's values at %.17g (the bytes of f"{v:.17g}"), one row of
    _CSV_WIDTH bytes each, padded with zero bytes.

    The 17 digits D of x are x 10^(16 - E) as a double-double, with E from
    log10 |x| (moved by one where D falls outside [10^16, 10^17)), rounded to
    nearest (10^17 carries to 10^16 and E + 1) and laid out by a template per
    (notation, digits kept, sign).  What the product cannot decide (a fraction
    within 1e-9 of a half, as in exact 18-digit ties, or |x| outside [1e-280,
    1e280]) gets Python's own dtoa, in one `%` call a block."""
    hi, lo, quad, lens, exps, modes, templates = _csv_tables()
    n, x = block.size, np.abs(block)
    decided = (x >= 1e-280) & (x <= 1e280)
    x = np.where(decided, x, 1.0)
    i = np.floor(np.log10(x)).astype(np.int64) + _E0
    D, frac = _digits(x, i, hi, lo)
    off = (D >= 10 ** 17).astype(np.int64) - (D < 10 ** 16)
    if off.any():       # log10 missed E by one
        j = np.flatnonzero(off)
        i[j] += off[j]
        D[j], frac[j] = _digits(x[j], i[j], hi, lo)
    undecided = np.flatnonzero(~decided & (block != 0) | (np.abs(frac - 0.5) < 1e-9))
    D += frac > 0.5
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    i += carry
    D[block == 0] = 0       # with E = 0: "0" and "-0"
    first, rest = np.divmod(D, 10 ** 16)
    groups = np.stack(np.divmod(np.stack(np.divmod(rest, 10 ** 8)), 10000), 1).reshape(4, n)
    src = np.empty((n, 7), np.uint32)   # ".-0", the 17 digits, the exponent, 3 zero bytes
    src[:, 0] = (first << 24) + 0x30302D2E
    src[:, 1:5] = quad.take(groups).T
    src[:, 5:] = exps.take(i, axis=0)
    groups += 10000 * np.arange(4)[:, None]
    key = modes.take(i) + 2 * np.maximum.reduce(lens.take(groups)) + np.signbit(block)
    index = templates.take(key, axis=0)
    index += np.arange(0, 28 * n, 28)[:, None]
    text = src.view(np.uint8).ravel().take(index)
    if undecided.size:
        held = ("%.17g\n" * undecided.size)[:-1] % tuple(block[undecided].tolist())
        text[undecided] = np.array(held.split("\n"), f"S{_CSV_WIDTH}").view(np.uint8) \
            .reshape(-1, _CSV_WIDTH)
    return text


def format_columns(*columns: np.ndarray) -> dict:
    """The texts of each _CSV_BLOCK block of float `columns`, by the block's
    bits: columns every row of a sweep writes, for `write_tables` to read."""
    return {column[lo:lo + _CSV_BLOCK].tobytes(): _format_block(column[lo:lo + _CSV_BLOCK])
            for column in columns for lo in range(0, len(column), _CSV_BLOCK)}


def write_tables(tables, shared: dict | None = None):
    """Write CSV tables, (sink, header, float columns) triples whose sink is a
    path or an open binary stream, in step, _CSV_BLOCK rows at a time.

    In each block of rows, every distinct column block (by its bits) is
    formatted once, whichever tables hold it, or read from `shared`
    (`format_columns`): the text held is one block per distinct column.  Rows
    are a table's cells side by side, each with its separator, unpadded."""
    shared = shared or {}
    with ExitStack() as stack:
        sinks = [stack.enter_context(open(sink, "wb"))
                 if isinstance(sink, (str, os.PathLike)) else sink for sink, _, _ in tables]
        for fh, (_, header, _) in zip(sinks, tables):
            fh.write(header.encode() + b"\n")
        for lo in range(0, max((len(c[0]) for _, _, c in tables), default=0), _CSV_BLOCK):
            texts = {}      # this block's value texts, by the block's bits
            for fh, (_, _, columns) in zip(sinks, tables):
                if lo >= len(columns[0]):
                    continue
                rows = np.full((min(len(columns[0]) - lo, _CSV_BLOCK), len(columns),
                                _CSV_WIDTH + 1), ord(","), np.uint8)
                rows[:, -1, -1] = ord("\n")
                for j, block in enumerate(c[lo:lo + _CSV_BLOCK] for c in columns):
                    key = block.tobytes()
                    if key not in texts:
                        texts[key] = shared[key] if key in shared else _format_block(block)
                    rows[:, j, :-1] = texts[key]
                fh.write(rows[rows != 0].tobytes())


def resolve_time_controls(amp: MomentumAmplitude, source: EmissionEvent,
                          distance: float, extent: float,
                          quad: QuadratureSpec,
                          direction_bound: float = 1.0) -> QuadratureSpec:
    """Fill dt and t_cap from the packet and geometry scales when unset.

    The step resolves the arrival feature, whose width combines the
    momentum-spread travel-time dispersion with the transit time of the
    packet's initial extent and the detector depth.  `direction_bound`
    bounds the entry probability the curve can reach: large coupling angles
    arcsin(sqrt(k p_entry)) need a finer step for the downstream dynamics
    closure, which scales as (dt/width)^2 * angle.  The cap defaults to 50
    classical flight times.
    """
    if quad.dt is not None and quad.t_cap is not None:
        return quad
    p_char, sigma_char = radial_moments(amp)
    mass = source.mass
    flight = mass * distance / p_char
    width = (mass * distance * sigma_char / p_char ** 2
             + (extent + 0.5 / sigma_char) * mass / p_char)
    dt = quad.dt
    if dt is None:
        # the closure residual scales like sin(2B) dB; its sensitivity peaks
        # at B = pi/4, so refining past that angle buys nothing
        angle_cap = float(np.arcsin(np.sqrt(np.clip(direction_bound, 0.0, 1.0))))
        refine = max(1.0, min(angle_cap, np.pi / 4.0) / 0.125)
        dt = float(np.clip(width / (64.0 * refine), flight / 40000.0, flight / 8.0))
    t_cap = quad.t_cap
    if t_cap is None:
        t_cap = 50.0 * flight
    return replace(quad, dt=dt, t_cap=float(max(t_cap, 4.0 * dt)))


@dataclass
class OccupationProfile:
    """Internal: sampled occupation integrand with its running integral and
    the resolved quadrature step `dt`."""

    t0: float
    dt: float
    tau: np.ndarray
    values: np.ndarray
    cumulative: np.ndarray
    result: SemiInfiniteResult
    quad_error: float


def _occupation_profile(evaluator: OccupationCurve, source: EmissionEvent,
                        quad: QuadratureSpec) -> OccupationProfile:
    """Profile of `evaluator`, certified by its Plancherel mass; an error
    before any window when that mass is within its own error of 0."""
    if evaluator.full_mass <= evaluator.mass_error(0.0):
        raise IntegrationError(_VANISHES, estimate=evaluator.full_mass)
    tau, vals, cum, res = semiinfinite_profile(
        evaluator, quad, full_mass=evaluator.full_mass, band=evaluator.band,
        mass_error=evaluator.mass_error)
    return OccupationProfile(t0=source.t0, dt=quad.dt, tau=tau, values=vals,
                             cumulative=cum, result=res,
                             quad_error=evaluator.error_rel)


def _checked_denominator(profile: OccupationProfile, allow_unconverged: bool):
    if profile.result.value <= 0.0:
        raise IntegrationError(_VANISHES, estimate=profile.result.error_estimate)
    if not profile.result.converged and not allow_unconverged:
        raise IntegrationError(
            "occupation normalizer did not reach its tail criterion before "
            f"the time cap {profile.result.t_max + profile.t0:.6g}",
            estimate=profile.result.error_estimate,
            value=profile.result.value)


def direction_probability(amp: MomentumAmplitude, det: DetectorGeometry,
                          source: EmissionEvent,
                          quad: QuadratureSpec | None = None) -> float:
    """Probability that the momentum direction points through the detector:
    the momentum-density mass over the detector's direction cone.  A point
    without a reference cone has none; its factor is 1."""
    if det.omega is None:
        return 1.0
    quad = quad or QuadratureSpec()
    radial = amp.scale ** 2 * radial_density_integral(amp)
    n2 = radial * angular_weight_integral(amp)
    if abs(n2 - 1.0) > _NORM_TOL:
        raise ValueError(f"amplitude must be normalized (momentum-space norm^2 = {n2:.6g})")
    angular = det.omega if amp.is_isotropic else \
        _cone_angular_mass(amp, det.axis, det.half_angle, quad.rtol)
    return float(min(max(radial * angular, 0.0), 1.0))


def _entry_terms(amp: MomentumAmplitude, det: DetectorGeometry,
                 source: EmissionEvent, t: float,
                 quad: QuadratureSpec | None) -> tuple[float, float]:
    """Direction factor and conditional entry probability at time t, from
    one occupation profile."""
    tau = float(t) - source.t0
    if tau < 0.0:
        raise ValueError(f"time {t} precedes the emission time {source.t0}")
    p_direction, profile = _occupation(amp, det, source, quad)
    _checked_denominator(profile, allow_unconverged=False)
    head = float(np.interp(tau, profile.tau, profile.cumulative))
    return p_direction, head / profile.result.value


def conditional_entry_probability(amp: MomentumAmplitude, det: DetectorGeometry,
                                  source: EmissionEvent, t: float,
                                  quad: QuadratureSpec | None = None) -> float:
    """Ratio of the occupation integral over [t0, t] to its full value.

    Indifferent to any rescaling of the amplitude: the ratio cancels it,
    and it is computed on a normalized copy.
    """
    return _entry_terms(normalize(amp), det, source, t, quad)[1]


def entry_probability(amp: MomentumAmplitude, det: DetectorGeometry,
                      source: EmissionEvent, t: float,
                      quad: QuadratureSpec | None = None) -> float:
    """Probability that the particle entered the detector during [t0, t]."""
    p_direction, conditional = _entry_terms(amp, det, source, t, quad)
    return p_direction * conditional


def _mass_end(profile: OccupationProfile, min_samples: int) -> int:
    """Last index of the default output grid (step `profile.dt`): the first
    step at or after the profile node past which at most float64 eps of the
    occupation mass remains, clamped to [min_samples - 1, round(t_max / dt)].

    The remaining mass sums the profile's own trapezoid increments from the
    end, so the rule is scale invariant; `cumulative` has no significant
    digits left to difference in the tail."""
    tau, v = profile.tau, profile.values
    increments = 0.5 * np.diff(tau) * (v[1:] + v[:-1])
    remaining = np.append(np.cumsum(increments[::-1])[::-1], 0.0)
    node = int(np.argmax(remaining <= np.finfo(float).eps * remaining[0]))
    n_max = int(round(profile.result.t_max / profile.dt))
    return min(max(int(np.ceil(tau[node] / profile.dt)), min_samples - 1), n_max)


def _grid_steps(grid: TimeGridSpec, t0: float, dt: float, tau_end: float,
                min_samples: int, quad: QuadratureSpec | None = None) -> tuple[float, int]:
    """Step and last index of the output grid, with `dt` and the elapsed
    `tau_end` standing in for unset fields.  A grid that starts before the
    emission time t0 or holds fewer than `min_samples` samples is an error
    naming `grid.t_end` when it is set, else `grid.dt`.  One over
    _MAX_GRID_ROWS names the step's key if set (`grid.dt`, else `quadrature.dt`
    of the given `quad`), else the end's (`grid.t_end`, else `quadrature.t_cap`)."""
    key = "grid.t_end" if grid.t_end is not None else "grid.dt"
    dt = grid.dt if grid.dt is not None else dt
    tau_end = (grid.t_end - t0) if grid.t_end is not None else tau_end
    if tau_end < 0.0:
        raise ScenarioError(key, f"t_end {grid.t_end!r} precedes the emission "
                                 f"time {t0!r}")
    steps = tau_end / dt if tau_end > 0.0 else 0.0
    n = int(round(steps)) if steps < _MAX_GRID_ROWS else _MAX_GRID_ROWS   # NaN: over
    if n + 1 > _MAX_GRID_ROWS:
        key = ("grid.dt" if grid.dt is not None
               else "quadrature.dt" if quad is not None and quad.dt is not None
               else "grid.t_end" if grid.t_end is not None else "quadrature.t_cap")
        bound = f"lays out at most {_MAX_GRID_ROWS}"
    elif n + 1 < min_samples:
        bound = f"needs at least {min_samples}"
    else:
        return dt, n
    raise ScenarioError(key, f"the output grid of step {dt:.6g} over [{t0:.6g}, "
                             f"{t0 + tau_end:.6g}] holds {steps + 1:.0f} samples; "
                             f"a run {bound}")


def _curve_from_profile(profile: OccupationProfile, p_direction: float,
                        grid: TimeGridSpec | None, *,
                        allow_unconverged: bool = False, min_samples: int = 1,
                        quad: QuadratureSpec | None = None) -> EntryProbabilityCurve:
    """Entry curve on the output grid (see `_grid_steps` for its errors; `quad`
    is the spec the profile's time controls were resolved from).  A grid
    with neither field set ends where the occupation mass is in
    (`_mass_end`); one with either set keeps t_max as its default end."""
    _checked_denominator(profile, allow_unconverged)
    grid = grid or TimeGridSpec()
    dt, n = _grid_steps(grid, profile.t0, profile.dt, profile.result.t_max,
                        min_samples, quad)
    if grid.dt is None and grid.t_end is None:
        n = _mass_end(profile, min_samples)
    tau_out = dt * np.arange(n + 1)
    conditional = np.interp(tau_out, profile.tau, profile.cumulative) \
        / profile.result.value
    return EntryProbabilityCurve(
        t=profile.t0 + tau_out, p_direction=p_direction,
        p_conditional=conditional,
        denominator=replace(profile.result, t_max=profile.t0 + profile.result.t_max),
        dt=dt, quad_error=profile.quad_error)


def _controls(amp: MomentumAmplitude, det: DetectorGeometry,
              source: EmissionEvent, quad: QuadratureSpec | None = None
              ) -> tuple[float, QuadratureSpec]:
    """Direction factor of `det` and the resolved time controls of its profile:
    a volume's are resolved against its direction factor; a point's keep the
    bound 1, so its entry curve and its arrival statistics read one profile."""
    quad = quad or QuadratureSpec()
    p_direction = direction_probability(amp, det, source, quad)
    return p_direction, resolve_time_controls(amp, source, det.distance,
                                              det.extent_along_axis, quad,
                                              1.0 if det.kind == "point" else p_direction)


def _occupation(amp: MomentumAmplitude, det: DetectorGeometry,
                source: EmissionEvent, quad: QuadratureSpec | None = None
                ) -> tuple[float, OccupationProfile]:
    """Direction factor and occupation profile of `det` (`_controls`)."""
    p_direction, quad = _controls(amp, det, source, quad)
    return p_direction, _occupation_profile(detector_occupation(amp, det, source, quad),
                                            source, quad)


def build_entry_curve(amp: MomentumAmplitude, det: DetectorGeometry,
                      source: EmissionEvent,
                      quad: QuadratureSpec | None = None,
                      grid: TimeGridSpec | None = None, *,
                      allow_unconverged: bool = False) -> EntryProbabilityCurve:
    """Sampled entry probabilities for a detector of any kind.

    The occupation normalizer is computed once and shared by every sample.
    """
    p_direction, profile = _occupation(amp, det, source, quad)
    return _curve_from_profile(profile, p_direction, grid,
                               allow_unconverged=allow_unconverged, quad=quad)


def point_detector_curve(amp: MomentumAmplitude, x_detector,
                         source: EmissionEvent,
                         quad: QuadratureSpec | None = None,
                         grid: TimeGridSpec | None = None,
                         reference_solid_angle: float | None = None, *,
                         allow_unconverged: bool = False) -> EntryProbabilityCurve:
    """Entry curve for a detector reduced to the single point x_detector.

    The volume integral degenerates to |psi_nD(x_D, t)|^2, which the ratio
    normalizes away; no direction factor exists for a point, so it defaults
    to 1 (pure conditional curve).  Passing `reference_solid_angle` instead
    derives the factor from a direction cone of that size around the line
    of sight.
    """
    return build_entry_curve(amp, point_detector(x_detector, source,
                                                 reference_solid_angle),
                             source, quad, grid, allow_unconverged=allow_unconverged)
