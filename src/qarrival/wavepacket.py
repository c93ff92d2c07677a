"""Momentum-space amplitudes and evaluation of the emitted wave packet.

The packet is defined at the emission time directly in momentum space by a
separable amplitude C(p n) = scale * R(p) * G(n . axis).  Everything
downstream consumes the single-direction component

    psi_n(x, t) = (2 pi)^(-3/2) * Integral_0^inf p^2 dp C(p n)
                  * exp(-i p^2 (t - t0) / (2 m) + i p n.(x - x0))

and its superposition over the detector's direction cone (hbar = 1).

The radial rule is a composite Gauss-Legendre panel rule whose panel count
is driven by the local phase rate |n.(x - x0) - p (t - t0) / m| (at least 8
nodes per oscillation period); halving the panel width supplies the error
estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError, IntegrationError, NormalizationError
from .geometry import EmissionEvent, DetectorGeometry, unit_vector, _as_vec3
from .quadrature import QuadratureSpec, gauss_legendre_panels, cap_directions, \
    volume_grid, _leggauss

TWO_PI_32 = (2.0 * np.pi) ** 1.5
GAUSSIAN_SUPPORT_SIGMAS = 8.0
_MAX_DOUBLINGS = 6


@dataclass(frozen=True, eq=False)
class MomentumAmplitude:
    """Separable momentum-space amplitude C(p n) = scale * R(p) * G(n . axis).

    kinds:
      "isotropic-gaussian"  R(p) = exp(-(p - p0)^2 / (4 sigma_p^2)), G = 1
      "separable"           gaussian radial part times an axially symmetric
                            gaussian angular weight G = exp(-alpha^2 /
                            (4 angular_sigma^2)), alpha the angle to `axis`
      "tabulated"            R (and optionally G) linearly interpolated from
                            sampled grids; zero outside the grids

    sigma_p is the standard deviation of the radial probability density
    |R(p)|^2, so the gaussian support window of 8 sigma carries a tail mass
    below 1e-14.
    """

    kind: str
    p0: float | None = None
    sigma_p: float | None = None
    axis: np.ndarray | None = None
    angular_sigma: float | None = None
    p_grid: np.ndarray | None = None
    radial_values: np.ndarray | None = None
    cos_grid: np.ndarray | None = None
    angular_values: np.ndarray | None = None
    scale: float = 1.0

    # -- profiles -------------------------------------------------------

    def radial_profile(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.kind in ("isotropic-gaussian", "separable"):
            return np.exp(-((p - self.p0) ** 2) / (4.0 * self.sigma_p ** 2))
        re = np.interp(p, self.p_grid, self.radial_values.real, left=0.0, right=0.0)
        im = np.interp(p, self.p_grid, self.radial_values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def angular_profile(self, cos_alpha: np.ndarray) -> np.ndarray:
        c = np.clip(np.asarray(cos_alpha, dtype=float), -1.0, 1.0)
        if self.kind == "separable":
            alpha = np.arccos(c)
            return np.exp(-(alpha ** 2) / (4.0 * self.angular_sigma ** 2))
        if self.kind == "tabulated" and self.cos_grid is not None:
            re = np.interp(c, self.cos_grid, self.angular_values.real, left=0.0, right=0.0)
            im = np.interp(c, self.cos_grid, self.angular_values.imag, left=0.0, right=0.0)
            return re + 1j * im
        return np.ones_like(c)

    # -- structure ------------------------------------------------------

    @property
    def is_isotropic(self) -> bool:
        return self.kind == "isotropic-gaussian" or (
            self.kind == "tabulated" and self.cos_grid is None)

    @property
    def exposed_p0(self) -> float | None:
        """Central momentum, for kinds that carry one explicitly."""
        return self.p0

    @property
    def p_support(self) -> tuple[float, float]:
        if self.kind in ("isotropic-gaussian", "separable"):
            lo = max(0.0, self.p0 - GAUSSIAN_SUPPORT_SIGMAS * self.sigma_p)
            return lo, self.p0 + GAUSSIAN_SUPPORT_SIGMAS * self.sigma_p
        return max(0.0, float(self.p_grid[0])), float(self.p_grid[-1])

    @property
    def radial_node_floor(self) -> int:
        """Minimum node count needed to resolve the radial profile itself."""
        lo, hi = self.p_support
        if self.kind in ("isotropic-gaussian", "separable"):
            return max(32, int(np.ceil(6.0 * (hi - lo) / self.sigma_p)))
        return max(32, 3 * (self.p_grid.size - 1))


def _gaussian_kind_checks(p0: float, sigma_p: float):
    if not p0 > 0.0:
        raise ValueError(f"p0 must be positive, got {p0}")
    if not sigma_p > 0.0:
        raise ValueError(f"sigma_p must be positive, got {sigma_p}")
    if p0 - GAUSSIAN_SUPPORT_SIGMAS * sigma_p < 0.0:
        warnings.warn(
            f"sigma_p = {sigma_p} is not small against p0 = {p0}; the radial "
            "support is clipped at p = 0 and the gaussian tail mass there is "
            "not negligible", stacklevel=3)


def isotropic_gaussian(p0: float, sigma_p: float, *, normalized: bool = True) -> MomentumAmplitude:
    _gaussian_kind_checks(p0, sigma_p)
    amp = MomentumAmplitude(kind="isotropic-gaussian", p0=float(p0), sigma_p=float(sigma_p))
    return normalize(amp) if normalized else amp


def separable_gaussian(p0: float, sigma_p: float, axis, angular_sigma: float, *,
                       normalized: bool = True) -> MomentumAmplitude:
    _gaussian_kind_checks(p0, sigma_p)
    if not angular_sigma > 0.0:
        raise ValueError(f"angular_sigma must be positive, got {angular_sigma}")
    axis = _as_vec3(axis, "axis")
    norm = float(np.linalg.norm(axis))
    if norm == 0.0:
        raise ValueError("axis must be nonzero")
    amp = MomentumAmplitude(kind="separable", p0=float(p0), sigma_p=float(sigma_p),
                            axis=axis / norm, angular_sigma=float(angular_sigma))
    return normalize(amp) if normalized else amp


def tabulated(p_grid, radial_values, cos_grid=None, angular_values=None,
              axis=None, *, normalized: bool = True) -> MomentumAmplitude:
    p_grid = np.asarray(p_grid, dtype=float)
    radial_values = np.asarray(radial_values, dtype=complex)
    if p_grid.ndim != 1 or p_grid.size < 2 or radial_values.shape != p_grid.shape:
        raise ValueError("radial table needs matching 1-d grids of >= 2 points")
    if np.any(np.diff(p_grid) <= 0.0) or p_grid[0] < 0.0:
        raise ValueError("radial grid must be strictly increasing and nonnegative")
    if not np.all(np.isfinite(radial_values)):
        raise ValueError("radial values must be finite")
    if cos_grid is not None:
        cos_grid = np.asarray(cos_grid, dtype=float)
        angular_values = np.asarray(angular_values, dtype=complex)
        if cos_grid.ndim != 1 or cos_grid.size < 2 or angular_values.shape != cos_grid.shape:
            raise ValueError("angular table needs matching 1-d grids of >= 2 points")
        if np.any(np.diff(cos_grid) <= 0.0) or cos_grid[0] < -1.0 or cos_grid[-1] > 1.0:
            raise ValueError("angular grid must be strictly increasing within [-1, 1]")
        if not np.all(np.isfinite(angular_values)):
            raise ValueError("angular values must be finite")
        if axis is None:
            raise ValueError("an angular table requires a symmetry axis")
        axis = _as_vec3(axis, "axis")
        norm = float(np.linalg.norm(axis))
        if norm == 0.0:
            raise ValueError("axis must be nonzero")
        axis = axis / norm
    amp = MomentumAmplitude(kind="tabulated", p_grid=p_grid, radial_values=radial_values,
                            cos_grid=cos_grid, angular_values=angular_values, axis=axis)
    return normalize(amp) if normalized else amp


@dataclass(frozen=True, eq=False)
class AngularComponentRequest:
    """Evaluation request for a single direction component of the packet."""

    direction: np.ndarray
    position: np.ndarray
    time: float

    def __post_init__(self):
        object.__setattr__(self, "direction", unit_vector(self.direction))
        object.__setattr__(self, "position", _as_vec3(self.position, "position"))
        object.__setattr__(self, "time", float(self.time))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _piecewise_sq_integral(grid: np.ndarray, values: np.ndarray, jacobian_power: int) -> float:
    """Integral of x^jac |v(x)|^2 dx for a piecewise-linear table (exact)."""
    x, w = _leggauss(4)
    a, b = grid[:-1], grid[1:]
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b)[:, None] + half[:, None] * x[None, :]
    re = np.interp(nodes.ravel(), grid, values.real).reshape(nodes.shape)
    im = np.interp(nodes.ravel(), grid, values.imag).reshape(nodes.shape)
    dens = (re * re + im * im) * nodes ** jacobian_power
    return float(np.sum(half[:, None] * w[None, :] * dens))


def _gl_converged(fn, a: float, b: float, panels0: int, nodes: int = 32,
                  rtol: float = 1e-12) -> float:
    """Gauss-Legendre panel integral refined by panel doubling."""
    prev = None
    panels = panels0
    for _ in range(12):
        x, w = gauss_legendre_panels(a, b, panels, nodes)
        val = float(w @ fn(x))
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1e-300):
            return val
        prev = val
        panels *= 2
    return prev


def radial_density_integral(amp: MomentumAmplitude, lo: float | None = None,
                            hi: float | None = None) -> float:
    """Integral of p^2 |R(p)|^2 over [lo, hi] (scale excluded)."""
    s_lo, s_hi = amp.p_support
    lo = s_lo if lo is None else max(lo, s_lo)
    hi = s_hi if hi is None else min(hi, s_hi)
    if hi <= lo:
        return 0.0
    if amp.kind == "tabulated":
        keep = (amp.p_grid >= lo) & (amp.p_grid <= hi)
        grid = np.unique(np.concatenate(([lo], amp.p_grid[keep], [hi])))
        vals = amp.radial_profile(grid)
        return _piecewise_sq_integral(grid, vals, 2)
    panels = max(4, amp.radial_node_floor // 32)
    return _gl_converged(lambda p: p * p * np.abs(amp.radial_profile(p)) ** 2,
                         lo, hi, panels)


def angular_weight_integral(amp: MomentumAmplitude) -> float:
    """Integral of |G|^2 over the full sphere of directions [sr]."""
    if amp.is_isotropic:
        return 4.0 * np.pi
    if amp.kind == "tabulated":
        return 2.0 * np.pi * _piecewise_sq_integral(amp.cos_grid, amp.angular_values, 0)
    return 2.0 * np.pi * _gl_converged(
        lambda c: np.abs(amp.angular_profile(c)) ** 2, -1.0, 1.0, 8)


def momentum_norm_squared(amp: MomentumAmplitude) -> float:
    """Full momentum-space norm Integral dOmega Integral p^2 dp |C|^2."""
    return amp.scale ** 2 * radial_density_integral(amp) * angular_weight_integral(amp)


def normalize(amp: MomentumAmplitude) -> MomentumAmplitude:
    """Rescale so the momentum-space norm is exactly 1.  Idempotent."""
    n2 = momentum_norm_squared(amp)
    if not np.isfinite(n2) or n2 <= 0.0:
        raise NormalizationError(f"amplitude has no finite positive norm (norm^2 = {n2})")
    if abs(n2 - 1.0) < 1e-13:
        return amp
    return replace(amp, scale=amp.scale / np.sqrt(n2))


def characteristic_momentum(amp: MomentumAmplitude) -> float:
    """Mean momentum under the radial density p^2 |R|^2 (auto-scale helper)."""
    lo, hi = amp.p_support
    p = np.linspace(lo, hi, 4097)
    dens = p * p * np.abs(amp.radial_profile(p)) ** 2
    mass = np.trapezoid(dens, p)
    if mass <= 0.0:
        raise NormalizationError("amplitude has zero radial mass")
    return float(np.trapezoid(p * dens, p) / mass)


def characteristic_spread(amp: MomentumAmplitude) -> float:
    """Standard deviation of the radial density p^2 |R|^2."""
    lo, hi = amp.p_support
    p = np.linspace(lo, hi, 4097)
    dens = p * p * np.abs(amp.radial_profile(p)) ** 2
    mass = np.trapezoid(dens, p)
    mean = np.trapezoid(p * dens, p) / mass
    var = np.trapezoid((p - mean) ** 2 * dens, p) / mass
    return float(np.sqrt(max(var, 0.0)))


# ---------------------------------------------------------------------------
# radial rule sizing
# ---------------------------------------------------------------------------

def _effective_p_range(amp: MomentumAmplitude, quad: QuadratureSpec) -> tuple[float, float]:
    lo, hi = amp.p_support
    if hi <= lo:
        raise NormalizationError("amplitude has an empty momentum support")
    if quad.p_max is not None and quad.p_max < hi:
        hi_eff = quad.p_max
        if hi_eff <= lo:
            raise IntegrationError(
                f"momentum truncation p_max = {quad.p_max} excludes the amplitude "
                f"support [{lo}, {hi}]", estimate=1.0)
        full = radial_density_integral(amp)
        missing = 1.0 - radial_density_integral(amp, lo, hi_eff) / full
        if missing > 1e-10:
            raise IntegrationError(
                f"momentum truncation p_max = {quad.p_max} discards a fraction "
                f"{missing:.3e} of the amplitude support", estimate=missing)
        hi = hi_eff
    return lo, hi


def _max_phase_rate(r_lo: float, r_hi: float, p_lo: float, p_hi: float,
                    tau_max: float, mass: float) -> float:
    rates = [abs(r_lo), abs(r_hi)]
    for r in (r_lo, r_hi):
        for p in (p_lo, p_hi):
            rates.append(abs(r - p * tau_max / mass))
    return max(rates)


def _radial_panels(amp: MomentumAmplitude, quad: QuadratureSpec, rate: float,
                   p_lo: float, p_hi: float) -> int:
    periods = rate * (p_hi - p_lo) / (2.0 * np.pi)
    n_target = max(quad.radial_nodes * quad.radial_panels, 8.0 * periods,
                   float(amp.radial_node_floor))
    return max(quad.radial_panels, int(np.ceil(n_target / quad.radial_nodes)))


# ---------------------------------------------------------------------------
# single-point evaluation
# ---------------------------------------------------------------------------

def _radial_sum_converged(amp: MomentumAmplitude, quad: QuadratureSpec,
                          rs: np.ndarray, gains: np.ndarray, tau: float,
                          mass: float) -> complex:
    """Sum_a gains[a] (2 pi)^(-3/2) Integral p^2 dp scale R(p)
    exp(i p rs[a] - i p^2 tau / 2m), refined by radial panel doubling."""
    p_lo, p_hi = _effective_p_range(amp, quad)
    rate = _max_phase_rate(float(rs.min()), float(rs.max()), p_lo, p_hi, tau, mass)
    panels = _radial_panels(amp, quad, rate, p_lo, p_hi)
    gain_bound = float(np.sum(np.abs(gains)))

    def at(n_panels: int) -> tuple[complex, float]:
        p, w = gauss_legendre_panels(p_lo, p_hi, n_panels, quad.radial_nodes)
        base = w * p * p * amp.scale * amp.radial_profile(p) / TWO_PI_32
        phases = np.exp(1j * (np.outer(rs, p) - (p * p * tau / (2.0 * mass))[None, :]))
        return (complex(gains @ (phases * base).sum(axis=1)),
                float(np.sum(np.abs(base))) * gain_bound)

    prev, bound = at(panels)
    err = np.inf
    for k in range(1, _MAX_DOUBLINGS + 1):
        cur, bound = at(panels * 2 ** k)
        err = abs(cur - prev)
        if err <= quad.rtol * max(abs(cur), 1e-3 * bound):
            return cur
        prev = cur
    raise IntegrationError(
        f"radial quadrature did not converge (residual {err:.3e})", estimate=err)


def eval_angular_component(amp: MomentumAmplitude, request: AngularComponentRequest,
                           source: EmissionEvent, quad: QuadratureSpec) -> complex:
    """Single-direction component psi_n(x, t) of the packet."""
    tau = request.time - source.t0
    if tau < 0.0:
        raise ValueError(f"time {request.time} precedes the emission time {source.t0}")
    rel = request.position - source.x0
    r = float(request.direction @ rel)
    g = 1.0 + 0.0j
    if not amp.is_isotropic:
        g = complex(amp.angular_profile(float(request.direction @ amp.axis)))
    return g * _radial_sum_converged(amp, quad, np.array([r]), np.ones(1), tau,
                                     source.mass)


def eval_detector_wavefunction(amp: MomentumAmplitude, position, time: float,
                               det: DetectorGeometry, source: EmissionEvent,
                               quad: QuadratureSpec) -> complex:
    """psi_D(x, t): superposition of psi_n over the detector's direction cone,
    on the cap's polar-azimuth product grid."""
    position = _as_vec3(position, "position")
    tau = float(time) - source.t0
    if tau < 0.0:
        raise ValueError(f"time {time} precedes the emission time {source.t0}")
    dirs, dw = cap_directions(det.axis, det.cos_cone, quad.polar_nodes, quad.azimuth_nodes)
    g = dw.astype(complex)
    if not amp.is_isotropic:
        g = g * amp.angular_profile(dirs @ amp.axis)
    return _radial_sum_converged(amp, quad, dirs @ (position - source.x0), g, tau,
                                 source.mass)


# ---------------------------------------------------------------------------
# curve evaluators (vectorized over time)
# ---------------------------------------------------------------------------

_ERR_SUBSAMPLE = 4
_FORCE_DIRECT = False  # test hook: disable the Chebyshev channel compression
_P_BLOCK = 1024         # momentum columns per block of the phase-sum kernel
_DIRECT_ROWS = 256      # samples per block of the kernel's direct branch
_PANEL_PHASE = 16.0     # phase half-width [rad] of one Chebyshev tau-panel
_PANEL_NODES = 44       # its Chebyshev nodes: interpolates exp(i k x), |k x| <= 16,
                        # to ~3e-15 (the 1.4 * 16 + 16 = 39 rule leaves 3.5e-12)


def _cheb_points(lo: float, hi: float, n: int) -> np.ndarray:
    k = np.arange(n)
    x = np.cos((2.0 * k + 1.0) * np.pi / (2.0 * n))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x


def _cheb_interp_matrix(lo: float, hi: float, n: int, targets: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix from Chebyshev nodes to `targets`."""
    nodes = _cheb_points(lo, hi, n)
    k = np.arange(n)
    bw = (-1.0) ** k * np.sin((2.0 * k + 1.0) * np.pi / (2.0 * n))
    diff = targets[:, None] - nodes[None, :]
    hit = np.isclose(diff, 0.0, atol=1e-300)
    diff = np.where(hit, 1.0, diff)
    c = bw[None, :] / diff
    mat = c / c.sum(axis=1, keepdims=True)
    exact_rows = hit.any(axis=1)
    if np.any(exact_rows):
        mat[exact_rows] = hit[exact_rows].astype(float)
    return mat


def _uniform_step(taus: np.ndarray) -> float | None:
    """The spacing of a uniform grid of at least 16 samples, or None.

    The step is the mean spacing: a single difference carries the rounding
    of the grid's offset, which would drift the phases along the grid.
    """
    if taus.size < 16:
        return None
    h = (taus[-1] - taus[0]) / (taus.size - 1)
    if h > 0.0 and np.all(np.abs(np.diff(taus) - h) <= 1e-9 * h):
        return float(h)
    return None


def _phase_sums(omega: np.ndarray, taus: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sum_p exp(-i omega_p tau_i) coeffs[p, ...] for every tau_i.

    The sum is band-limited in tau.  On a uniform grid the samples are split
    into panels over which the band-centred sum turns by at most
    _PANEL_PHASE radians either way from the panel centre; it is evaluated
    exactly on the panel's Chebyshev nodes and mapped onto the samples by one
    barycentric matrix shared by all panels (the band-limited compression
    behind NUFFTs).  Short, non-uniform or undersampled grids are summed
    directly.  Both branches walk the momentum axis in blocks of _P_BLOCK
    columns, so no time-by-momentum matrix is ever held.
    """
    taus = np.asarray(taus, dtype=float)
    n_t = taus.size
    h = _uniform_step(taus)
    w_mid = 0.5 * (omega.max() + omega.min())
    half_band = 0.5 * (omega.max() - omega.min())
    per_panel = 0
    if h is not None:
        span = 2.0 * _PANEL_PHASE / max(half_band * h, 1e-300)
        per_panel = int(min(span, n_t - 1)) + 1
    # with fewer samples per panel than half its node count, the node sums
    # cost more than summing the samples directly
    if per_panel < _PANEL_NODES // 2:
        out = np.zeros((n_t,) + coeffs.shape[1:], dtype=complex)
        for p0 in range(0, omega.size, _P_BLOCK):
            cols = slice(p0, p0 + _P_BLOCK)
            for t0 in range(0, n_t, _DIRECT_ROWS):
                rows = slice(t0, t0 + _DIRECT_ROWS)
                out[rows] += np.exp(np.outer(taus[rows], -1j * omega[cols])) @ coeffs[cols]
        return out
    n_panels = -(-n_t // per_panel)
    half_span = 0.5 * (per_panel - 1) * h
    nodes = _cheb_points(-half_span, half_span, _PANEL_NODES)
    interp = _cheb_interp_matrix(-half_span, half_span, _PANEL_NODES,
                                 h * np.arange(per_panel) - half_span)
    centres = taus[0] + half_span + h * per_panel * np.arange(n_panels)
    flat = coeffs.reshape(omega.size, -1)
    node_sums = np.zeros((n_panels, _PANEL_NODES, flat.shape[1]), dtype=complex)
    for p0 in range(0, omega.size, _P_BLOCK):
        cols = slice(p0, p0 + _P_BLOCK)
        shifted = -1j * (omega[cols] - w_mid)
        table = np.exp(np.outer(nodes, shifted))        # (nodes, P_block)
        anchors = np.exp(np.outer(centres, shifted))    # (panels, P_block)
        for k in range(n_panels):
            node_sums[k] += table @ (anchors[k, :, None] * flat[cols])
    samples = np.matmul(interp, node_sums).reshape(n_panels * per_panel, -1)[:n_t]
    samples *= np.exp(-1j * w_mid * taus)[:, None]
    return samples.reshape((n_t,) + coeffs.shape[1:])


class _CurveEvaluatorBase:
    """Shared plumbing: lazy radial sizing, paired-resolution evaluation,
    running scale and error tracking, escalation on failed estimates."""

    def __init__(self, amp: MomentumAmplitude, source: EmissionEvent,
                 quad: QuadratureSpec, r_lo: float, r_hi: float):
        self.amp = amp
        self.source = source
        self.quad = quad
        self._r_lo = r_lo
        self._r_hi = r_hi
        self._p_lo, self._p_hi = _effective_p_range(amp, quad)
        self._tau_sized = -1.0
        self._panel_boost = 1
        self._seeded = False
        self.scale = 0.0
        self.abs_error = 0.0

    # subclasses fill these in _build(panels) -> state, and
    # _field_square(state, taus) -> sampled curve values
    def _build(self, panels: int):
        raise NotImplementedError

    def _field_square(self, state, taus: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _ensure(self, tau_max: float):
        if tau_max <= self._tau_sized:
            return
        sized = max(tau_max * 1.25, 1e-300)
        rate = _max_phase_rate(self._r_lo, self._r_hi, self._p_lo, self._p_hi,
                               sized, self.source.mass)
        panels = _radial_panels(self.amp, self.quad, rate, self._p_lo, self._p_hi)
        panels *= self._panel_boost
        self._coarse = self._build(panels)
        self._fine = self._build(2 * panels)
        self._panels = panels
        self._tau_sized = sized

    def _escalate(self):
        self._panel_boost *= 2
        self._tau_sized = -1.0

    def _seed_scale(self):
        """Anchor the relative-error scale at the arrival peak before any
        batch is judged: early batches are typically ~0 and meaningless as
        a convergence reference."""
        self._seeded = True
        flight = self.source.mass * 0.5 * (self._r_lo + self._r_hi) \
            / characteristic_momentum(self.amp)
        probes = flight * np.array([0.7, 0.85, 1.0, 1.2, 1.5])
        self._ensure(float(probes.max()))
        values = self._field_square(self._fine, probes)
        self.scale = max(self.scale, float(values.max()))

    def __call__(self, taus: np.ndarray) -> np.ndarray:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        if not self._seeded:
            self._seed_scale()
        self._ensure(float(taus.max()) if taus.size else 0.0)
        for attempt in range(4):
            out = self._field_square(self._fine, taus)
            coarse = self._field_square(self._coarse, taus[::_ERR_SUBSAMPLE])
            worst = float(np.max(np.abs(out[::_ERR_SUBSAMPLE] - coarse), initial=0.0))
            batch_scale = max(self.scale, float(out.max(initial=0.0)))
            if worst <= self.quad.rtol * max(batch_scale, 1e-300) or attempt == 3:
                if worst > self.quad.rtol * max(batch_scale, 1e-300):
                    raise IntegrationError(
                        f"time-curve radial quadrature did not converge "
                        f"(residual {worst:.3e} at scale {batch_scale:.3e})",
                        estimate=worst)
                self.scale = batch_scale
                self.abs_error = max(self.abs_error, worst)
                return out
            self._escalate()
            self._ensure(float(taus.max()))
        raise AssertionError("unreachable")

    @property
    def error_rel(self) -> float:
        return self.abs_error / max(self.scale, 1e-300)


class PointDensityCurve(_CurveEvaluatorBase):
    """|psi_nD(x_D, t)|^2 sampled over arrays of elapsed times."""

    def __init__(self, amp: MomentumAmplitude, x_detector, source: EmissionEvent,
                 quad: QuadratureSpec):
        x_detector = _as_vec3(x_detector, "x_detector")
        rel = x_detector - source.x0
        distance = float(np.linalg.norm(rel))
        if distance == 0.0:
            raise GeometryError("point detector coincides with the source")
        self.direction = rel / distance
        self.distance = distance
        super().__init__(amp, source, quad, distance, distance)
        self._g2 = 1.0
        if not amp.is_isotropic:
            self._g2 = float(np.abs(amp.angular_profile(self.direction @ amp.axis)) ** 2)

    def _build(self, panels: int):
        p, w = gauss_legendre_panels(self._p_lo, self._p_hi, panels, self.quad.radial_nodes)
        base = (w * p * p * self.amp.scale * self.amp.radial_profile(p) / TWO_PI_32
                * np.exp(1j * p * self.distance))
        omega = p * p / (2.0 * self.source.mass)
        return omega, base

    def _field_square(self, state, taus: np.ndarray) -> np.ndarray:
        omega, base = state
        fields = _phase_sums(omega, taus, base)
        return self._g2 * (fields.real ** 2 + fields.imag ** 2)


class VolumeOccupationCurve(_CurveEvaluatorBase):
    """Integral over the detector volume of |psi_D(x, t)|^2, sampled over
    arrays of elapsed times.

    The direction-cap superposition and the volume sum reduce to a matrix
    product; the per-channel position phases exp(i p n.(x - x0)) are
    compressed onto a Chebyshev basis in the scalar distance r = n.(x - x0)
    (the radial integral depends on the channel only through r), which keeps
    the time-by-momentum product small.
    """

    def __init__(self, amp: MomentumAmplitude, det: DetectorGeometry,
                 source: EmissionEvent, quad: QuadratureSpec):
        dirs, dw = cap_directions(det.axis, det.cos_cone, quad.polar_nodes,
                                  quad.azimuth_nodes)
        points, vol_w = volume_grid(det, quad)
        gw = dw.astype(complex)
        if not amp.is_isotropic:
            gw = gw * amp.angular_profile(dirs @ amp.axis)
        rel = points - source.x0
        r_chan = rel @ dirs.T                      # (points, directions)
        self._gw = gw
        self._r_chan = r_chan
        self._vol_w = vol_w
        super().__init__(amp, source, quad,
                         float(r_chan.min()), float(r_chan.max()))
        n_points, n_dirs = r_chan.shape
        halfband = 0.5 * (self._p_hi - self._p_lo)
        half_len = 0.5 * max(self._r_hi - self._r_lo, 1e-12)
        order = int(np.ceil(1.4 * halfband * half_len)) + 16
        self._mix = None
        if not (_FORCE_DIRECT or order >= n_points):
            # exact values on Chebyshev r-nodes, barycentric map to the
            # channels; the map depends on the geometry, not on the radial
            # rule, so every _build shares it
            self._p_mid = 0.5 * (self._p_lo + self._p_hi)
            self._r_nodes = _cheb_points(self._r_lo, self._r_hi, order)
            interp = _cheb_interp_matrix(self._r_lo, self._r_hi, order,
                                         r_chan.ravel())                  # (X*A, C)
            carrier = (gw[None, :] * np.exp(1j * self._p_mid * r_chan)).ravel()
            weighted = interp * carrier[:, None]
            self._mix = weighted.reshape(n_points, n_dirs, order).sum(axis=1).T  # (C, X)
            # sum_x w_x |(s M)_x|^2 = |R s|^2 with (M diag(sqrt w))^T = Q R,
            # so the density costs C^2 per sample instead of C X
            self._mix_r = np.linalg.qr((self._mix * np.sqrt(vol_w)).T, mode="r").T  # (C, C)

    def _build(self, panels: int):
        p, w = gauss_legendre_panels(self._p_lo, self._p_hi, panels, self.quad.radial_nodes)
        base = w * p * p * self.amp.scale * self.amp.radial_profile(p) / TWO_PI_32
        omega = p * p / (2.0 * self.source.mass)
        if self._mix is None:
            # compression would not pay off; fold directions in directly
            n_points, n_dirs = self._r_chan.shape
            chan = np.zeros((p.size, n_points), dtype=complex)
            for a0 in range(0, n_dirs, 8):
                block = slice(a0, min(a0 + 8, n_dirs))
                phases = np.exp(1j * self._r_chan[:, block, None] * p[None, None, :])
                chan += np.einsum("xap,a->px", phases, self._gw[block])
            chan *= base[:, None]
            return omega, chan, None
        basis = base[:, None] * np.exp(1j * np.outer(p - self._p_mid, self._r_nodes))  # (P, C)
        return omega, basis, self._mix

    def _field_square(self, state, taus: np.ndarray) -> np.ndarray:
        omega, coeffs, mix = state
        sums = _phase_sums(omega, taus, coeffs)           # (T, C), or (T, X) direct
        if mix is None:
            return (sums.real ** 2 + sums.imag ** 2) @ self._vol_w
        fields = sums @ self._mix_r                       # (T, C) @ (C, C)
        return (fields.real ** 2 + fields.imag ** 2).sum(axis=1)
