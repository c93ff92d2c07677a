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
_CSV_BLOCK = 1024      # rows a run and write_tables write at a time, in one _format_block call
_CSV_WIDTH = 24        # bytes of the longest %.17g text, -2.2250738585072014e-308
_GATHER = 512          # values per byte gather in _format_block; bounds its index array
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
    header = "t,p_conditional,p_entry"

    def __post_init__(self):
        _check_entry_rows(self.p_conditional, self.p_entry, starts=True)

    @property
    def p_entry(self) -> np.ndarray:
        return self.p_direction * self.p_conditional

    def csv_table(self) -> tuple:
        """Header and float columns of entry_curve.csv."""
        return EntryProbabilityCurve.header, (self.t, self.p_conditional, self.p_entry)

    def write_csv(self, path):
        # through the class, so any object with the curve's columns writes
        write_tables([(path, *EntryProbabilityCurve.csv_table(self))])


def _check_entry_rows(p_conditional: np.ndarray, p_entry: np.ndarray, starts: bool):
    """Raise IntegrationError where consecutive rows of an entry curve break
    its invariants: p_conditional within [0, 1], p_entry nondecreasing and,
    when the rows `start` the curve, from 0."""
    if np.any(p_conditional < -1e-12) or np.any(p_conditional > 1.0 + 1e-12):
        raise IntegrationError("conditional probabilities leave [0, 1]")
    if np.any(np.diff(p_entry) < -1e-10):
        raise IntegrationError("entry probability is not nondecreasing")
    if starts and abs(p_entry[0]) > 1e-300:
        raise IntegrationError("entry probability must start at 0")


@dataclass(frozen=True, eq=False)
class _CurveRows:
    """An entry curve's rows, t = t0 + dt k for k < `size`, read off its
    occupation profile a block at a time.  `checked` when a pass has
    checked every block (`_check_entry_rows`): a sweep's template, whose
    rows read the same blocks."""

    profile: OccupationProfile
    p_direction: float
    dt: float
    size: int
    checked: bool = False

    @property
    def denominator(self) -> SemiInfiniteResult:
        result = self.profile.result
        return replace(result, t_max=self.profile.t0 + result.t_max)

    def rows(self, lo: int, hi: int) -> tuple:
        """t, p_conditional and p_entry at rows [lo, hi), unchecked."""
        tau, p = self.dt * np.arange(lo, hi), self.profile
        conditional = np.interp(tau, p.tau, p.cumulative) / p.result.value
        return p.t0 + tau, conditional, self.p_direction * conditional

    def whole(self) -> EntryProbabilityCurve:
        t, conditional, _ = self.rows(0, self.size)
        return EntryProbabilityCurve(t=t, p_direction=self.p_direction,
                                     p_conditional=conditional, denominator=self.denominator,
                                     dt=self.dt, quad_error=self.profile.quad_error)


def _two_product(x, hi, lo):
    """x (hi + lo) as p + s with p = fl(x hi): Dekker's error-free product of
    x and hi, plus x lo, so p + s errs by ~2^-104 of the product."""
    xh, hh = x * 134217729.0, hi * 134217729.0
    xh, hh = xh - (xh - x), hh - (hh - hi)
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
        np.stack([text, signed], 2).reshape(-1, _CSV_WIDTH).astype(np.uint8))


def _digits(x, i, hi, lo):
    """floor(x 10^(16 - E)) and the fraction it drops, for E = i - _E0."""
    p, s = _two_product(x, hi.take(i), lo.take(i))
    whole = np.floor(p)
    s += p - whole
    part = np.floor(s)
    return whole.astype(np.int64) + part.astype(np.int64), s - part


def _decimal(block: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> tuple:
    """The 17 digits D of each value of `block` (0 for a zero), its exponent
    E as E + _E0, and the values the double-double product cannot decide."""
    x = np.abs(block)
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
    return D, i, undecided


def _format_block(block: np.ndarray) -> np.ndarray:
    """The block's values at %.17g (the bytes of f"{v:.17g}"), one row of
    _CSV_WIDTH bytes each, padded with zero bytes.

    The 17 digits D of x are x 10^(16 - E) as a double-double, with E from
    log10 |x| (moved by one where D falls outside [10^16, 10^17)), rounded to
    nearest (10^17 carries to 10^16 and E + 1) and laid out by a template per
    (notation, digits kept, sign).  What the product cannot decide (a fraction
    within 1e-9 of a half, as in exact 18-digit ties, or |x| outside [1e-280,
    1e280]) gets Python's own dtoa, in one `%` call a block.  Each array is
    dropped once read, so a call peaks near 100 bytes a value."""
    hi, lo, quad, lens, exps, modes, templates = _csv_tables()
    n = block.size
    D, i, undecided = _decimal(block, hi, lo)
    src = np.empty((n, 7), np.uint32)   # ".-0", the 17 digits, the exponent, 3 zero bytes
    first, D = np.divmod(D, 10 ** 16)
    src[:, 0] = (first << 24) + 0x30302D2E
    src[:, 5:] = exps.take(i, axis=0)
    key = modes.take(i) + np.signbit(block)
    del first, i
    kept = np.zeros(n, np.uint8)    # digits up to the last nonzero one, after the first
    for j in range(4):      # the other 16 digits, 4 a group
        group = D // 10 ** (12 - 4 * j) % 10000
        src[:, 1 + j] = quad.take(group)
        np.maximum(kept, lens.take(group + 10000 * j), out=kept)
    del D, group
    key += 2 * kept
    text, src = np.empty((n, _CSV_WIDTH), np.uint8), src.view(np.uint8).ravel()
    for lo in range(0, n, _GATHER):     # the byte indices of _GATHER values at a time
        src.take(templates.take(key[lo:lo + _GATHER], axis=0)
                 + np.arange(28 * lo, 28 * min(n, lo + _GATHER), 28)[:, None],
                 out=text[lo:lo + _GATHER])
    if undecided.size:
        held = ("%.17g\n" * undecided.size)[:-1] % tuple(block[undecided].tolist())
        text[undecided] = np.array(held.split("\n"), f"S{_CSV_WIDTH}").view(np.uint8) \
            .reshape(-1, _CSV_WIDTH)
    return text


def _format_columns(blocks: list) -> list:
    """The texts of column blocks, formatted in one _format_block call."""
    cells = _format_block(np.concatenate(blocks))
    return np.split(cells, np.cumsum([len(block) for block in blocks[:-1]]))


def _open_tables(stack: ExitStack, tables) -> list:
    """The binary streams of (sink, header) pairs, whose sink is a path or an
    open binary stream, each with its header written.  The files opened
    here are removed if `stack` unwinds on an error."""
    paths = [sink for sink, _ in tables if isinstance(sink, (str, os.PathLike))]

    def remove(error, *_):
        for path in paths if error else ():
            if os.path.exists(path):
                os.remove(path)

    stack.push(remove)
    sinks = [stack.enter_context(open(sink, "wb"))
             if isinstance(sink, (str, os.PathLike)) else sink for sink, _ in tables]
    for fh, (_, header) in zip(sinks, tables):
        fh.write(header.encode() + b"\n")
    return sinks


def _write_rows(sinks: list, blocks: list, shared: dict):
    """Write a block of rows to each sink from its float column blocks
    (none once its table has ended).  Every distinct column block (by its
    bits) that `shared` does not hold is formatted, in one `_format_columns`
    call.  Rows are a table's cells side by side, each with its separator,
    unpadded."""
    keys = [[block.tobytes() for block in columns] for columns in blocks]
    todo = {}
    for columns, names in zip(blocks, keys):
        for block, key in zip(columns, names):
            if key not in shared:
                todo.setdefault(key, block)
    texts = dict(zip(todo, _format_columns(list(todo.values())))) if todo else {}
    for fh, columns, names in zip(sinks, blocks, keys):
        if not columns:
            continue
        rows = np.full((len(columns[0]), len(columns), _CSV_WIDTH + 1), ord(","), np.uint8)
        rows[:, -1, -1] = ord("\n")
        for j, key in enumerate(names):
            rows[:, j, :-1] = shared[key] if key in shared else texts[key]
        fh.write(rows[rows != 0])


def write_tables(tables):
    """Write CSV tables, (sink, header, float columns) triples whose sink is a
    path or an open binary stream, in step, _CSV_BLOCK rows at a time
    (`_write_rows`)."""
    with ExitStack() as stack:
        sinks = _open_tables(stack, [(sink, header) for sink, header, _ in tables])
        for lo in range(0, max((len(c[0]) for _, _, c in tables), default=0), _CSV_BLOCK):
            _write_rows(sinks, [tuple(c[lo:lo + _CSV_BLOCK] for c in columns)
                                if lo < len(columns[0]) else () for _, _, columns in tables],
                        {})


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
    naming `grid.t_end` when it is set, else the step's key (`grid.dt` unless
    `quadrature.dt` of the given `quad` set the step).  One over
    _MAX_GRID_ROWS names the step's key if either is set, else the end's
    (`grid.t_end`, else `quadrature.t_cap`)."""
    step_key = ("grid.dt" if grid.dt is not None
                else "quadrature.dt" if quad is not None and quad.dt is not None else None)
    key = "grid.t_end" if grid.t_end is not None else step_key or "grid.dt"
    dt = grid.dt if grid.dt is not None else dt
    tau_end = (grid.t_end - t0) if grid.t_end is not None else tau_end
    if tau_end < 0.0:
        raise ScenarioError(key, f"t_end {grid.t_end!r} precedes the emission "
                                 f"time {t0!r}")
    steps = tau_end / dt if tau_end > 0.0 else 0.0
    n = int(round(steps)) if steps < _MAX_GRID_ROWS else _MAX_GRID_ROWS   # NaN: over
    if n + 1 > _MAX_GRID_ROWS:
        key = step_key or ("grid.t_end" if grid.t_end is not None else "quadrature.t_cap")
        bound = f"lays out at most {_MAX_GRID_ROWS}"
    elif n + 1 < min_samples:
        bound = f"needs at least {min_samples}"
    else:
        return dt, n
    raise ScenarioError(key, f"the output grid of step {dt:.6g} over [{t0:.6g}, "
                             f"{t0 + tau_end:.6g}] holds {steps + 1:.0f} samples; "
                             f"a run {bound}")


def _curve_rows(profile: OccupationProfile, p_direction: float,
                grid: TimeGridSpec | None, *, allow_unconverged: bool = False,
                min_samples: int = 1, quad: QuadratureSpec | None = None) -> _CurveRows:
    """Rows of the entry curve on the output grid (see `_grid_steps` for its
    errors; `quad` is the spec the profile's time controls were resolved
    from).  A grid with neither field set ends where the occupation mass is
    in (`_mass_end`); one with either set keeps t_max as its default end."""
    _checked_denominator(profile, allow_unconverged)
    grid = grid or TimeGridSpec()
    dt, n = _grid_steps(grid, profile.t0, profile.dt, profile.result.t_max,
                        min_samples, quad)
    if grid.dt is None and grid.t_end is None:
        n = _mass_end(profile, min_samples)
    return _CurveRows(profile=profile, p_direction=p_direction, dt=dt, size=n + 1)


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
    return _curve_rows(profile, p_direction, grid, allow_unconverged=allow_unconverged,
                       quad=quad).whole()


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
