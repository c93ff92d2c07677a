"""Arrival-time density and mean for a point detector.

The density is |psi_nD(x_D, t)|^2 normalized to unit mass over
[t0, infinity); the mean arrival time is its first moment.  The density is
read off the scenario's occupation profile (the integrand whose running
integral gives the point entry curve) and interpolated onto the default
entry-curve grid, which ends where the occupation mass is in, so a point
run integrates it only once.
Moments are computed on the same node set as the normalizer so the
quadrature bias cancels in the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .geometry import DetectorGeometry, EmissionEvent, point_detector
from .quadrature import QuadratureSpec, SemiInfiniteResult
from .probability import OccupationProfile, write_tables, _mass_end, _occupation
from .wavepacket import MomentumAmplitude


@dataclass(frozen=True, eq=False)
class ArrivalTimeStats:
    """Normalized arrival-time density on a uniform grid with its moments.

    `mean_time` and `spread` are elapsed quantities (measured from the
    emission time); `classical_time` is mass * distance / p0 when the
    amplitude exposes a central momentum, else None.
    """

    mean_time: float
    t: np.ndarray
    density: np.ndarray
    normalizer: SemiInfiniteResult
    classical_time: float | None = None
    spread: float | None = None
    header = "t,density"

    def csv_table(self) -> tuple:
        """Header and float columns of arrival.csv."""
        return ArrivalTimeStats.header, (self.t, self.density)

    def write_csv(self, path):
        # through the class, so any object with the statistics' columns writes
        write_tables([(path, *ArrivalTimeStats.csv_table(self))])


def stats_from_samples(taus, values, t0: float = 0.0,
                       classical_time: float | None = None,
                       normalizer: SemiInfiniteResult | None = None) -> ArrivalTimeStats:
    """Normalize sampled density values on their own grid and take moments.

    This is the single moment path; tests may inject synthetic samples here.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values < 0.0):
        raise ValueError("density samples must be nonnegative")
    mass = float(np.trapezoid(values, taus))
    if not mass > 0.0:
        raise IntegrationError("arrival density has zero mass", estimate=0.0)
    density = values / mass
    mean = float(np.trapezoid(taus * density, taus))
    # centred and scaled by a power of two, exact, so squares of huge times stay finite
    scale = np.ldexp(1.0, -int(np.frexp(np.max(np.abs(taus - mean)))[1]))
    var = float(np.trapezoid(((taus - mean) * scale) ** 2 * density, taus))
    if normalizer is None:
        normalizer = SemiInfiniteResult(value=mass, error_estimate=0.0,
                                        t_max=t0 + float(taus[-1]), converged=True)
    return ArrivalTimeStats(mean_time=mean, t=t0 + taus, density=density,
                            normalizer=normalizer, classical_time=classical_time,
                            spread=float(np.sqrt(max(var, 0.0)) / scale))


@dataclass(frozen=True, eq=False)
class _ArrivalRows:
    """A point's arrival statistics on `size` rows of the default output
    grid, t = t0 + dt k, with the density read off the occupation profile a
    block of rows at a time."""

    profile: OccupationProfile
    size: int
    mean_time: float
    spread: float
    normalizer: SemiInfiniteResult
    classical_time: float | None

    def rows(self, lo: int, hi: int) -> tuple:
        """t and density at rows [lo, hi)."""
        taus, p = self.profile.dt * np.arange(lo, hi), self.profile
        return p.t0 + taus, np.interp(taus, p.tau, p.values) / self.normalizer.value

    def whole(self) -> ArrivalTimeStats:
        t, density = self.rows(0, self.size)
        return ArrivalTimeStats(mean_time=self.mean_time, t=t, density=density,
                                normalizer=self.normalizer,
                                classical_time=self.classical_time, spread=self.spread)


def _arrival_rows(profile: OccupationProfile,
                  classical_time: float | None = None) -> _ArrivalRows:
    """Arrival statistics read off a point occupation profile, sampled on
    the default output grid: the quadrature step out to where at most
    float64 eps of the mass remains (`_mass_end`).  The moments are taken
    over the whole grid, which the profile bounds; the density is read off
    the profile again a block of rows at a time (`_ArrivalRows.rows`)."""
    tail = profile.result
    if not tail.converged:
        raise IntegrationError(
            "arrival normalizer did not reach its tail criterion before the "
            f"time cap {profile.t0 + tail.t_max:.6g}",
            estimate=tail.error_estimate, value=tail.value)
    n = _mass_end(profile, min_samples=3)   # a run's entry curve ends here too
    taus = profile.dt * np.arange(n + 1)
    values = np.interp(taus, profile.tau, profile.values)
    try:
        stats = stats_from_samples(taus, values)
    except IntegrationError:    # raised only for samples of zero mass
        raise IntegrationError("arrival density vanishes along the line of sight",
                               estimate=tail.error_estimate) from None
    mass = stats.normalizer.value
    normalizer = SemiInfiniteResult(
        value=mass,
        error_estimate=max(tail.error_estimate, abs(tail.value - mass)),
        t_max=profile.t0 + tail.t_max, converged=True)
    return _ArrivalRows(profile=profile, size=n + 1, mean_time=stats.mean_time,
                        spread=stats.spread, normalizer=normalizer,
                        classical_time=classical_time)


def _classical_flight(source: EmissionEvent, amp: MomentumAmplitude,
                      det: DetectorGeometry) -> float | None:
    return None if amp.exposed_p0 is None else source.mass * det.distance / amp.exposed_p0


def arrival_density(amp: MomentumAmplitude, x_detector, source: EmissionEvent,
                    quad: QuadratureSpec | None = None):
    """Sampled unit-mass arrival density: (absolute times, density values)."""
    stats = mean_arrival_time(amp, x_detector, source, quad)
    return stats.t, stats.density


def mean_arrival_time(amp: MomentumAmplitude, x_detector, source: EmissionEvent,
                      quad: QuadratureSpec | None = None) -> ArrivalTimeStats:
    """Mean elapsed arrival time with the full sampled density attached."""
    det = point_detector(x_detector, source)
    _, profile = _occupation(amp, det, source, quad)
    return _arrival_rows(profile, _classical_flight(source, amp, det)).whole()
