"""Two-state detector driven by the sampled entry probability.

The detector starts in the idle state and rotates toward the triggered
state under the off-diagonal Hamiltonian H = rate(t) * sigma_x, where the
rotation angle is pinned to the entry curve:

    angle(t) = arcsin(sqrt(k * p_entry(t))),   rate = d(angle)/dt,

so the triggered-state population sin^2(angle) equals k * p_entry by
construction.  `evolve_ode` re-integrates the postulated equation of motion
numerically and exists purely as an independent check of the closed form.

The angle is differentiated directly rather than assembled from
d(p_entry)/dt through the chain rule: the chain rule carries a removable
1/sqrt(p_entry) singularity at p_entry = 0, while the angle itself stays
smooth there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .probability import EntryProbabilityCurve, write_tables
from .quadrature import differentiate_sampled


@dataclass(frozen=True)
class DetectorState:
    """Complex amplitudes on the (idle, triggered) basis; unit norm."""

    c0: complex
    c1: complex

    def __post_init__(self):
        norm = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"detector state is not normalized (norm^2 = {norm!r})")

    @property
    def p_triggered(self) -> float:
        return abs(self.c1) ** 2


IDLE_STATE = DetectorState(1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True, eq=False)
class CouplingSchedule:
    """Sampled coupling derived from an entry curve.

    angle(t_i) = arcsin(sqrt(k * p_entry(t_i))) is nondecreasing, starts at
    0, and stays within [0, arcsin(sqrt(k))]; `rate` is its sampled
    derivative and `entry_rate` the derivative of the entry probability
    itself (emitted for inspection only).
    """

    k: float
    angle: np.ndarray
    rate: np.ndarray
    entry_rate: np.ndarray
    curve: EntryProbabilityCurve

    @property
    def t(self) -> np.ndarray:
        return self.curve.t

    @property
    def tau(self) -> np.ndarray:
        """The grid's elapsed times dt k, whose steps carry no rounding of t0."""
        return self.curve.dt * np.arange(self.t.size)

    @property
    def angle_max(self) -> float:
        return float(np.arcsin(np.sqrt(self.k)))

    def _on_grid(self, t: float) -> float:
        """t as a float; ValueError when it lies off the grid by more than
        1e-12 of its span."""
        t, span = float(t), self.t[-1] - self.t[0]
        if t < self.t[0] - 1e-12 * span or t > self.t[-1] + 1e-12 * span:
            raise ValueError(f"time {t} lies outside the schedule grid "
                             f"[{self.t[0]}, {self.t[-1]}]")
        return t

    def angle_at(self, t: float) -> float:
        return float(np.interp(self._on_grid(t), self.t, self.angle))

    def csv_table(self) -> tuple:
        """Header and float columns of schedule.csv."""
        return "t,rate,angle,p_registered,entry_rate", (
            self.t, self.rate, self.angle, np.sin(self.angle) ** 2, self.entry_rate)

    def write_csv(self, path):
        # through the class, so any object with the schedule's columns writes
        write_tables([(path, *CouplingSchedule.csv_table(self))])


def coupling_schedule(curve: EntryProbabilityCurve, k: float) -> CouplingSchedule:
    """Build the coupling schedule pinned to k * p_entry on the curve grid."""
    k = float(k)
    if not 0.0 < k < 1.0:
        raise ValueError(f"coupling fraction k must lie in (0, 1), got {k}")
    if curve.t.size < 3:
        raise ValueError("coupling schedule needs a curve of at least 3 samples")
    p_entry, dt = curve.p_entry, curve.dt
    angle = np.arcsin(np.sqrt(np.clip(k * p_entry, 0.0, 1.0)))
    return CouplingSchedule(k=k, angle=angle, rate=differentiate_sampled(angle, dt),
                            entry_rate=differentiate_sampled(p_entry, dt), curve=curve)


def evolve_closed_form(sched: CouplingSchedule, t: float) -> DetectorState:
    """chi(t) = idle * cos(angle) - i * triggered * sin(angle)."""
    angle = sched.angle_at(t)
    return DetectorState(complex(np.cos(angle)), -1j * np.sin(angle))


def registration_probability(sched: CouplingSchedule, t: float) -> float:
    """Probability of finding the detector triggered: sin^2(angle(t))."""
    return float(np.sin(sched.angle_at(t)) ** 2)


_BLOCK = 4096           # intervals per running product; bounds the temporaries
_MAX_SUBSTEPS = 64      # the last step-doubling test: 64 against 128 substeps
_LOCAL_TOL = 1e-9       # per-interval agreement of n and 2n substeps, |dc0| + |dc1|


def _rk4_growth(a_lo: np.ndarray, slope: np.ndarray, h: np.ndarray,
                n: np.ndarray) -> np.ndarray:
    """Growth factor of RK4 on y' = -i a(t) y over [0, h], a = a_lo + slope t,
    taken in n substeps (per interval)."""
    g = np.empty(h.size, dtype=complex)
    for level in sorted(set(n.tolist())):    # not np.unique: it imports numpy.ma
        sel = n == level
        hs = h[sel, None] / level
        ta = np.arange(level) * hs
        a_lo_s, slope_s = a_lo[sel, None], slope[sel, None]
        a_mid = a_lo_s + slope_s * (ta + 0.5 * hs)
        k1 = -1j * (a_lo_s + slope_s * ta)
        k2 = -1j * a_mid * (1.0 + 0.5 * hs * k1)
        k3 = -1j * a_mid * (1.0 + 0.5 * hs * k2)
        k4 = -1j * (a_lo_s + slope_s * (ta + hs)) * (1.0 + hs * k3)
        g[sel] = np.prod(1.0 + (hs / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), axis=1)
    return g


def _integrate_from_idle(sched: CouplingSchedule, h: np.ndarray,
                         steps: np.ndarray) -> np.ndarray:
    """u = c0 + c1 at the end of the intervals [t_i, t_i + h_i], from idle.

    H = rate * sigma_x is diagonal in the fixed basis c0 +- c1, and RK4
    commutes with that change of basis, so every RK4 step multiplies
    u = c0 + c1 by a scalar growth factor and c0 - c1 by its conjugate; from
    idle, c0 = Re(u) and c1 = i Im(u).  The rate is linear on each grid
    interval, of width `steps`.  Each interval takes n = 1, 2, ..., 64
    substeps until n and 2n agree to _LOCAL_TOL in |dc0| + |dc1| from its
    actual start state.
    """
    m = h.size
    a_lo = sched.rate[:m]
    slope = np.diff(sched.rate[:m + 1]) / steps
    out = np.empty(m, dtype=complex)
    u = 1.0 + 0.0j
    for lo in range(0, m, _BLOCK):
        args = a_lo[lo:lo + _BLOCK], slope[lo:lo + _BLOCK], h[lo:lo + _BLOCK]
        n = np.ones(args[2].size, dtype=int)
        coarse, fine = _rk4_growth(*args, n), _rk4_growth(*args, 2 * n)
        while True:
            ends = u * np.cumprod(fine)
            delta = np.concatenate(([u], ends[:-1])) * (fine - coarse)
            err = np.abs(delta.real) + np.abs(delta.imag)
            bad = np.flatnonzero(~(err <= _LOCAL_TOL))
            if bad.size == 0:
                break
            if n[bad[0]] == _MAX_SUBSTEPS:
                raise IntegrationError(
                    "detector propagation step size underflow at t = "
                    f"{sched.t[lo + bad[0]]:.6g}", estimate=float(np.max(err[bad])))
            bad = bad[n[bad] < _MAX_SUBSTEPS]
            n[bad] *= 2
            coarse[bad] = fine[bad]
            fine[bad] = _rk4_growth(*(a[bad] for a in args), 2 * n[bad])
        out[lo:lo + _BLOCK] = ends
        u = ends[-1]
    return out


def evolve_ode_trajectory(sched: CouplingSchedule) -> np.ndarray:
    """States at every schedule node from numerically integrating
    i d(chi)/dt = rate(t) sigma_x chi with the rate interpolated linearly."""
    steps = np.diff(sched.tau)
    u = _integrate_from_idle(sched, steps, steps)
    out = np.empty((sched.t.size, 2), dtype=complex)
    out[0] = (1.0, 0.0)
    out[1:, 0] = u.real
    out[1:, 1] = 1j * u.imag
    return out


def evolve_ode(sched: CouplingSchedule, t: float) -> DetectorState:
    """Numerical integration of the detector equation of motion up to t."""
    t, grid = sched._on_grid(t) - sched.t[0], sched.tau
    m = int(np.searchsorted(grid[:-1], t))
    if m == 0:
        return IDLE_STATE
    h = np.minimum(grid[1:m + 1], t) - grid[:m]
    u = complex(_integrate_from_idle(sched, h, np.diff(grid[:m + 1]))[-1])
    return DetectorState(complex(u.real), 1j * u.imag)


def ode_consistency(sched: CouplingSchedule) -> dict:
    """Close the loop: re-integrate the equation of motion and compare the
    triggered population against k * p_entry on the whole grid."""
    states = evolve_ode_trajectory(sched)
    populations = np.abs(states[:, 1]) ** 2
    norms = np.abs(states[:, 0]) ** 2 + populations
    residual = float(np.max(np.abs(populations - sched.k * sched.curve.p_entry)))
    unitarity = float(np.max(np.abs(norms - 1.0)))
    return {"consistency_residual_max": residual,
            "unitarity_residual_max": unitarity}
