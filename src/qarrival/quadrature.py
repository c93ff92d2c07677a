"""Shared numerical integration engine.

Provides Gauss-Legendre panel rules for radial integrals, product grids over
direction caps and detector volumes, a semi-infinite time integrator that
stops on a Plancherel certificate, and second-order finite differences on
uniform grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrationError
from .geometry import DetectorGeometry, orthonormal_frame

#: window sizing of the semi-infinite integrator: the first window holds
#: WINDOW_NODES samples of step dt; later (doubled) windows keep step dt
#: until they would exceed WINDOW_NODES_MAX samples, after which the step
#: grows with the window, up to STEP_BAND_MAX / band: the largest step
#: times band, 2 pi (where the certificate stops holding) less a margin
WINDOW_NODES = 1024
WINDOW_NODES_MAX = 8192
STEP_BAND_MAX = 0.875 * 2.0 * np.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization controls shared by every integral in the pipeline.

    `dt` and `t_cap` may be left as None at the library boundary; the
    probability/arrival pipelines derive them from the scenario scales
    (classical flight time and packet width).  Direct calls to
    `semiinfinite_profile` require both to be set.
    """

    polar_nodes: int = 8         # volume grid and direction channels of a volume
    azimuth_nodes: int = 8       # detector's occupation (not the direction factor)
    dt: float | None = None      # time step of the sampled grids
    eps_tail: float = 1e-6       # relative bound on the mass past the profile's end
    t_cap: float | None = None   # end of an uncertified profile
    rtol: float = 1e-6           # target relative tolerance of error estimates

    def __post_init__(self):
        if self.polar_nodes < 1 or self.azimuth_nodes < 1:
            raise ValueError("polar_nodes and azimuth_nodes must be >= 1")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 < self.eps_tail < 1.0:
            raise ValueError(f"eps_tail must be in (0, 1), got {self.eps_tail}")
        if self.t_cap is not None and not self.t_cap > 0.0:
            raise ValueError(f"t_cap must be positive, got {self.t_cap}")
        if not self.rtol > 0.0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")


@dataclass(frozen=True)
class SemiInfiniteResult:
    """Outcome of a tail-controlled integral over [t0, infinity).

    `error_estimate` is the Plancherel bound on the mass past `t_max` (see
    `semiinfinite_profile`), also when the integral ended unconverged at its
    time cap; when `converged` it is at most eps_tail * value.  `t_max` is
    the effective upper limit actually integrated to.
    """

    value: float
    error_estimate: float
    t_max: float
    converged: bool

    def as_dict(self) -> dict:
        return {"value": self.value, "error_estimate": self.error_estimate,
                "t_max": self.t_max, "converged": self.converged}


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (p0 - x * p1) / ((1 - x) * (1 + x))


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on the recurrence of P_n from the cosine guess (Hale &
    Townsend, SIAM J. Sci. Comput. 35 (2013) A652), weights 2 / ((1 - x^2)
    P_n'(x)^2) normalized to sum 2, as numpy's leggauss.  The guess is
    symmetrized, and every step keeps the nodes mirrored to the bit.  It runs
    in long double, so the nodes round correctly and the weights are those of
    the roots, not of their rounding."""
    x = np.cos(np.pi * (4.0 * np.arange(n, 0, -1) - 1.0) / (4.0 * n + 2.0))
    x = (x - x[::-1]).astype(np.longdouble) / 2
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-12:    # quadratic: the next step is below 1e-20
            break
    dp = _legendre(n, x)[1]
    w = (2 / ((1 - x) * (1 + x) * dp * dp)).astype(float)
    return x.astype(float), w * (2.0 / w.sum())


def panel_pieces(a: float, b: float, panels: int, nodes_per_panel: int,
                 breaks=()) -> tuple[np.ndarray, np.ndarray]:
    """Edges and node counts of the pieces of `gauss_legendre_panels`:
    `panels` equal panels on [a, b], also split at the `breaks` inside
    (a, b).  A split piece keeps the panel's node density, with at least 4
    nodes (or the panel's, when fewer)."""
    if not b > a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    breaks = np.asarray(breaks, dtype=float)
    edges = np.sort(np.concatenate((np.linspace(a, b, panels + 1),
                                    breaks[(breaks > a) & (breaks < b)])))
    edges = edges[np.append(True, np.diff(edges) > 0.0)]
    counts = np.minimum(np.maximum(np.ceil(
        nodes_per_panel * panels * np.diff(edges) / (b - a)), 4), nodes_per_panel)
    return edges, counts


def gauss_legendre_panels(a: float, b: float, panels: int, nodes_per_panel: int,
                          breaks=()) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on the pieces of `panel_pieces`."""
    edges, counts = panel_pieces(a, b, panels, nodes_per_panel, breaks)
    nodes, weights = [], []
    for m in sorted(set(counts.tolist())):    # not np.unique: it imports numpy.ma
        x, w = _leggauss(int(m))
        lo, hi = edges[:-1][counts == m], edges[1:][counts == m]
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        nodes.append((mid[:, None] + half[:, None] * x[None, :]).ravel())
        weights.append((half[:, None] * w[None, :]).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def refine_by_doubling(level, n0: int, doublings: int, rtol: float, what: str):
    """(value, n, err) of the first of the levels n = n0 * 2^k, k = 1..doublings,
    that agrees with the level before it: err = max|cur - prev| <= rtol *
    max(max|cur|, floor), where `level(n)` returns (value, floor) and a value
    may be an array.  IntegrationError naming `what` when the last doubling
    still disagrees."""
    prev, _ = level(n0)
    for k in range(1, doublings + 1):
        cur, floor = level(n0 * 2 ** k)
        err = float(np.max(np.abs(cur - prev), initial=0.0))
        if err <= rtol * max(float(np.max(np.abs(cur), initial=0.0)), floor):
            return cur, n0 * 2 ** k, err
        prev = cur
    raise IntegrationError(f"{what} did not converge (residual {err:.3e})",
                           estimate=err)


def cap_directions(axis: np.ndarray, cos_half: float, n_polar: int,
                   n_azimuth: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule over the direction cap {n : n.axis >= cos_half}.

    Gauss-Legendre in cos(theta), uniform (trapezoid-on-periodic) in azimuth.
    Weights sum to the cap solid angle exactly.
    """
    u, wu = gauss_legendre_panels(cos_half, 1.0, 1, n_polar)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    wphi = 2.0 * np.pi / n_azimuth
    e1, e2 = orthonormal_frame(axis)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    ring = np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2
    dirs = sin_t[:, None, None] * ring + u[:, None, None] * axis
    weights = np.repeat(wu * wphi, n_azimuth)
    return dirs.reshape(-1, 3), weights


def volume_grid(det: DetectorGeometry,
                spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Product grid over the detector volume in detector-local spherical
    coordinates.  Weights include the r^2 Jacobian and sum exactly to V_D."""
    n_r = max(4, spec.polar_nodes)
    if det.kind == "sphere":
        r, wr = gauss_legendre_panels(0.0, det.radius, 1, n_r)
        cos_lo = -1.0
        origin = det.center
    elif det.kind == "cap":
        r, wr = gauss_legendre_panels(det.r_inner, det.r_outer, 1, n_r)
        cos_lo = np.cos(det.half_angle)
        origin = det.apex
    else:
        raise ValueError(f"unsupported detector kind {det.kind!r}")
    dirs, ang_w = cap_directions(det.axis, cos_lo, spec.polar_nodes, spec.azimuth_nodes)
    points = origin[None, None, :] + r[:, None, None] * dirs[None, :, :]
    weights = (wr * r * r)[:, None] * ang_w[None, :]
    return points.reshape(-1, 3), weights.ravel()


def integrate_volume(g, det: DetectorGeometry, spec: QuadratureSpec) -> float:
    """Integral of g(x) over the detector volume.

    `g` must accept an (N, 3) array of points and return N values.
    """
    points, weights = volume_grid(det, spec)
    values = np.asarray(g(points), dtype=float)
    return float(weights @ values)


def differentiate_sampled(values, dt: float) -> np.ndarray:
    """Second-order derivative of uniformly sampled values.

    Central differences in the interior, one-sided second-order stencils at
    the two ends; exact for quadratics.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise ValueError("differentiate_sampled needs a 1-d series of at least 3 samples")
    dt = float(dt)
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


def semiinfinite_profile(f, spec: QuadratureSpec, *, full_mass: float, band: float,
                         mass_error=lambda length: 0.0):
    """Integrate f(tau) >= 0 over [0, infinity) in doubling windows, for f
    band-limited to |xi| < `band` with known integral `full_mass` over the
    whole line, of error `mass_error(length)` for sums over that length.

    Every window's step h keeps h * band <= STEP_BAND_MAX < 2 pi: `dt` is
    divided by the least integer that brings it within, and later windows
    grow their step past WINDOW_NODES_MAX samples only up to that bound.
    The trapezoid sum of such an f over the whole line is its integral
    (Poisson summation), so full_mass minus the running sums bounds the
    mass still to come.  Once a forward window adds at most eps_tail of the
    forward sum while that bound fails, the windows are also summed
    mirrored at -tau, never past the forward extent.  The profile stops
    after the first window where |full_mass - forward - backward| plus
    mass_error and the rounding of the sums is at most eps_tail of the
    forward sum (converged), or at t_cap.  f sees ascending arrays of at
    most WINDOW_NODES_MAX taus.

    Returns (tau_grid, f_values, cumulative, SemiInfiniteResult) of the
    forward windows; `cumulative` is the running integral at the nodes.
    """
    if spec.dt is None or spec.t_cap is None:
        raise ValueError("semi-infinite integration requires dt and t_cap to be set")
    # an integer fraction of dt keeps its multiples nodes of the first windows
    dt = spec.dt / max(1, int(np.ceil(spec.dt * band / STEP_BAND_MAX)))

    def window(lo: float, hi: float, n: int, edge: float, mirror: bool = False):
        """Grid, samples and trapezoid increments over [lo, hi] (or [-hi, -lo]),
        outward from `edge`, the value at the end nearer tau = 0."""
        h = (hi - lo) / n
        grid = lo + h * np.arange(1, n + 1)
        grid[-1] = hi
        at = -grid[::-1] if mirror else grid
        vals = np.concatenate([np.asarray(f(at[i:i + WINDOW_NODES_MAX]), dtype=float)
                               for i in range(0, n, WINDOW_NODES_MAX)])
        vals = vals[::-1] if mirror else vals
        return grid, vals, 0.5 * h * (np.concatenate(([edge], vals[:-1])) + vals)

    taus = [np.array([0.0])]
    values = [np.asarray(f(np.array([0.0])), dtype=float)]
    cumulative = [np.zeros(1)]
    windows = []                    # (lo, hi, steps) of every forward window
    total = backward = back_end = 0.0
    samples, mirrored = 1, 0
    edge = back_edge = float(values[0][0])
    t_lo, t_hi = 0.0, min(spec.t_cap, WINDOW_NODES * dt)

    def bound() -> float:
        return float(abs(full_mass - total - backward) + mass_error(t_hi + back_end)
                     + np.finfo(float).eps * samples * (total + backward))

    while True:
        length = t_hi - t_lo
        n = max(min(int(round(length / dt)), WINDOW_NODES_MAX),
                int(np.ceil(length * band / STEP_BAND_MAX)), 1)
        windows.append((t_lo, t_hi, n))
        grid, vals, incr = window(t_lo, t_hi, n, edge)
        # summed in order from the running total, so `total` is the
        # cumulative's last entry to the bit
        cumulative.append(np.cumsum(np.concatenate(([total], incr)))[1:])
        total, contribution = float(cumulative[-1][-1]), float(incr.sum())
        samples += n
        taus.append(grid)
        values.append(vals)
        edge = float(vals[-1])

        error = bound()
        if error > spec.eps_tail * total and full_mass < np.inf \
                and (mirrored or contribution <= spec.eps_tail * total):
            for lo, hi, m in windows[mirrored:]:
                _, back_vals, back_incr = window(lo, hi, m, back_edge, mirror=True)
                backward += float(back_incr.sum())
                back_edge, back_end = float(back_vals[-1]), hi
                samples += m
            mirrored = len(windows)
            error = bound()
        converged = error <= spec.eps_tail * total
        if converged or t_hi >= spec.t_cap:
            break
        t_lo, t_hi = t_hi, min(spec.t_cap, 2.0 * t_hi)

    tau_grid = np.concatenate(taus)
    # report the cumulative's own endpoint so downstream ratios reach 1 exactly
    result = SemiInfiniteResult(value=total, error_estimate=error,
                                t_max=float(tau_grid[-1]), converged=converged)
    return tau_grid, np.concatenate(values), np.concatenate(cumulative), result
