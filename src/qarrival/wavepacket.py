"""Momentum-space amplitudes and evaluation of the emitted wave packet.

The packet is defined at the emission time directly in momentum space by a
separable amplitude C(p n) = scale * R(p) * G(n . axis).  Everything
downstream consumes the single-direction component

    psi_n(x, t) = (2 pi)^(-3/2) * Integral_0^inf p^2 dp C(p n)
                  * exp(-i p^2 (t - t0) / (2 m) + i p n.(x - x0))

and its superposition over the detector's direction cone (hbar = 1).

psi at a point and every occupation curve take one path: a composite
Gauss-Legendre radial rule of 32 nodes per panel, sized by the phase rate
|n.(x - x0) - p (t - t0) / m| (at least 8 nodes per period) and refined by
doubling, one channel fold onto Chebyshev nodes in r (over a volume's rings
of points and their azimuthal frequencies), and one phase-sum kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError, NormalizationError
from .geometry import EmissionEvent, DetectorGeometry, _unit_axis, unit_vector, _as_vec3
from .quadrature import QuadratureSpec, gauss_legendre_panels, cap_directions, \
    panel_pieces, refine_by_doubling, volume_grid

TWO_PI_32 = (2.0 * np.pi) ** 1.5
GAUSSIAN_SUPPORT_SIGMAS = 8.0
_RADIAL_NODES = 32          # Gauss-Legendre nodes per panel of every radial rule
_RADIAL_DOUBLINGS = 3       # panel doublings of every radial rule of psi
_RADIAL_BUDGET = 2 ** 18    # nodes of the largest radial rule of psi


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
            return self._polar_profile(np.arccos(c))
        if self.kind == "tabulated" and self.cos_grid is not None:
            re = np.interp(c, self.cos_grid, self.angular_values.real, left=0.0, right=0.0)
            im = np.interp(c, self.cos_grid, self.angular_values.imag, left=0.0, right=0.0)
            return re + 1j * im
        return np.ones_like(c)

    def _polar_profile(self, alpha: np.ndarray) -> np.ndarray:
        """G at the polar angle alpha, exact where cos alpha rounds to 1."""
        if self.kind == "separable":
            return np.exp(-(alpha ** 2) / (4.0 * self.angular_sigma ** 2))
        return self.angular_profile(np.cos(alpha))

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
    def knots(self) -> np.ndarray:
        """Momenta where the radial profile kinks: radial rules break there."""
        return self.p_grid if self.kind == "tabulated" else np.empty(0)

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


def isotropic_gaussian(p0: float, sigma_p: float) -> MomentumAmplitude:
    _gaussian_kind_checks(p0, sigma_p)
    amp = MomentumAmplitude(kind="isotropic-gaussian", p0=float(p0), sigma_p=float(sigma_p))
    return normalize(amp)


def separable_gaussian(p0: float, sigma_p: float, axis, angular_sigma: float) -> MomentumAmplitude:
    _gaussian_kind_checks(p0, sigma_p)
    if not angular_sigma > 0.0:
        raise ValueError(f"angular_sigma must be positive, got {angular_sigma}")
    amp = MomentumAmplitude(kind="separable", p0=float(p0), sigma_p=float(sigma_p),
                            axis=_unit_axis(axis), angular_sigma=float(angular_sigma))
    return normalize(amp)


def tabulated(p_grid, radial_values, cos_grid=None, angular_values=None,
              axis=None) -> MomentumAmplitude:
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
        axis = _unit_axis(axis)
    amp = MomentumAmplitude(kind="tabulated", p_grid=p_grid, radial_values=radial_values,
                            cos_grid=cos_grid, angular_values=angular_values, axis=axis)
    return normalize(amp)


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

def _gl_converged(fn, a: float, b: float, panels0: int, breaks=(),
                  rtol: float = 1e-12) -> float:
    """Gauss-Legendre panel integral, split at `breaks`, refined by doubling."""
    def level(panels: int) -> tuple[float, float]:
        x, w = gauss_legendre_panels(a, b, panels, _RADIAL_NODES, breaks)
        return float(w @ fn(x)), 1e-300

    return refine_by_doubling(level, panels0, 11, rtol, "panel integral")[0]


def radial_density_integral(amp: MomentumAmplitude) -> float:
    """Integral of p^2 |R(p)|^2 over the support (scale excluded)."""
    lo, hi = amp.p_support
    return _gl_converged(lambda p: p * p * np.abs(amp.radial_profile(p)) ** 2,
                         lo, hi, max(4, amp.radial_node_floor // _RADIAL_NODES),
                         amp.knots)


def _cone_angular_mass(amp: MomentumAmplitude, axis: np.ndarray, theta: float,
                       rtol: float = 1e-12) -> float:
    """Integral of |G|^2 [sr] over the cone of `axis` and half-angle `theta`: one panel
    rule in alpha about `amp.axis`, cut at the arc's edges, widths sigma 2^k and table
    knots."""
    cos_b, sin_b = float(axis @ amp.axis), float(np.linalg.norm(np.cross(axis, amp.axis)))
    beta = float(np.arctan2(sin_b, cos_b))
    lo, hi = max(beta - theta, 0.0), min(beta + theta, np.pi)
    cuts = [abs(beta - theta), 2.0 * np.pi - beta - theta, *(
        np.arccos(amp.cos_grid) if amp.kind == "tabulated" else
        amp.angular_sigma * 2.0 ** np.arange(np.log2(np.pi / amp.angular_sigma)))]
    edges = np.array(sorted({lo, hi, *(c for c in cuts if lo < c < hi)}))

    def mass(u: np.ndarray) -> np.ndarray:
        # piece k holds u in [k, k + 1]: alpha = e_k + (e_k+1 - e_k)(1 - cos pi s) / 2
        k = np.minimum(u.astype(int), edges.size - 2)
        half, s = 0.5 * (edges[k + 1] - edges[k]), np.pi * (u - k)
        alpha = edges[k] + half * (1.0 - np.cos(s))
        sin_a = np.sin(alpha)
        # 2 arccos((cos theta - cos alpha cos beta) / (sin alpha sin beta)), without
        # the cancellation of cos theta - cos alpha cos beta in a small cone
        ratio = np.sin(0.5 * (theta + alpha - beta)) * np.sin(0.5 * (theta - alpha + beta)) \
            / np.maximum(sin_a * sin_b, 1e-300)
        arc = 4.0 * np.arcsin(np.sqrt(np.clip(ratio, 0.0, 1.0)))
        return np.abs(amp._polar_profile(alpha)) ** 2 * sin_a * arc * half * np.pi * np.sin(s)

    n = edges.size - 1
    return _gl_converged(mass, 0.0, float(n), n, np.arange(1, n), rtol)


def angular_weight_integral(amp: MomentumAmplitude) -> float:
    """Integral of |G|^2 over the full sphere of directions [sr]."""
    return 4.0 * np.pi if amp.is_isotropic else _cone_angular_mass(amp, amp.axis, np.pi)


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


def radial_moments(amp: MomentumAmplitude) -> tuple[float, float]:
    """Mean and standard deviation of the radial density p^2 |R|^2, on 4097
    trapezoid nodes over the support (auto-scale helper).  The moments are
    taken of p scaled into [0, 1) by a power of two, which is exact, so a
    huge support does not overflow them."""
    lo, hi = amp.p_support
    p = np.linspace(lo, hi, 4097)
    scale = np.ldexp(1.0, -max(int(np.frexp(hi)[1]), 0))
    q = p * scale
    dens = q * q * np.abs(amp.radial_profile(p)) ** 2
    mass = np.trapezoid(dens, q)
    if mass <= 0.0:
        raise NormalizationError("amplitude has zero radial mass")
    mean = np.trapezoid(q * dens, q) / mass
    var = np.trapezoid((q - mean) ** 2 * dens, q) / mass
    return float(mean / scale), float(np.sqrt(max(var, 0.0)) / scale)


# ---------------------------------------------------------------------------
# radial rule sizing
# ---------------------------------------------------------------------------

def _radial_panels(amp: MomentumAmplitude, r_lo: float, r_hi: float, tau: float,
                   mass: float, at_least: int = 1) -> int:
    """Panel count of the first radial rule of psi at distances [r_lo, r_hi]
    and elapsed time tau: 8 nodes per period of the fastest phase
    p r - p^2 tau / 2m, at least `amp.radial_node_floor` nodes and
    `at_least` panels.  IntegrationError when the rule after its
    _RADIAL_DOUBLINGS doublings would pass _RADIAL_BUDGET nodes, as
    `_radial_rule` lays them out between the table's knots."""
    p_lo, p_hi = amp.p_support
    # |d/dp (p r - p^2 tau / 2m)| = |r - p tau / m| at the support's corners, and |r|
    corners = np.subtract.outer([r_lo, r_hi], np.array([0.0, p_lo, p_hi]) * tau / mass)
    rate = float(np.max(np.abs(corners)))
    periods = rate * (p_hi - p_lo) / (2.0 * np.pi)
    n_target = max(8.0 * periods, float(amp.radial_node_floor))
    panels = max(at_least, int(np.ceil(n_target / _RADIAL_NODES)))
    # full panels alone bound the count from below; pieces split at knots add
    # nodes, so the pieces are counted only when that bound fits
    nodes = panels * 2 ** _RADIAL_DOUBLINGS * _RADIAL_NODES
    if nodes <= _RADIAL_BUDGET:
        nodes = int(panel_pieces(p_lo, p_hi, panels * 2 ** _RADIAL_DOUBLINGS,
                                 _RADIAL_NODES, amp.knots)[1].sum())
    if nodes > _RADIAL_BUDGET:
        raise IntegrationError(
            f"the radial rule at tau = {tau:.6g} would pass the budget of "
            f"{_RADIAL_BUDGET} nodes: after its {_RADIAL_DOUBLINGS} doublings "
            f"it holds at least {nodes}", estimate=float(nodes))
    return panels


def _radial_rule(amp: MomentumAmplitude, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Momentum nodes p and weights w p^2 scale R(p) / (2 pi)^(3/2) of the
    radial rule of `panels` panels over the support, split at the knots."""
    p_lo, p_hi = amp.p_support
    p, w = gauss_legendre_panels(p_lo, p_hi, panels, _RADIAL_NODES, amp.knots)
    return p, w * p * p * amp.scale * amp.radial_profile(p) / TWO_PI_32


# ---------------------------------------------------------------------------
# psi and the occupation curves: one channel fold, one phase-sum kernel
# ---------------------------------------------------------------------------

_P_BLOCK = 256          # momentum columns per block of the phase-sum kernel
_CELLS = 2 ** 14        # cells per block of a channel fold and sums per block of
                        # the kernel's reduction: a point's window of at most
                        # 8192 samples is one block
_ROW_BLOCK = 256        # samples per block of the kernel's direct sums and
                        # of its panel interpolation
_RING_DROP = 1e-12      # a ring frequency whose every gain is at most this
                        # much of the sum of their magnitudes is dropped
_PANEL_PHASE = 16.0     # phase half-width [rad] of one Chebyshev tau-panel
_PANEL_NODES = 44       # its Chebyshev nodes: interpolates exp(i k x), |k x| <= 16,
                        # to ~3e-15 (the 1.4 * 16 + 16 = 39 rule leaves 3.5e-12)


def _cheb_points(lo: float, hi: float, n: int) -> np.ndarray:
    """The n Chebyshev points of the first kind on [lo, hi], decreasing:
    cos((2k + 1) pi / 2n) written as sin(m pi / 2n), m = n-1, n-3, ..., 1-n,
    with the sign taken from m, so on [-s, s] x_(n-1-k) = -x_k to the bit."""
    m = np.arange(n - 1, -n, -2)
    x = np.copysign(np.sin(np.abs(m) * np.pi / (2.0 * n)), m)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x


def _cheb_interp_matrix(lo: float, hi: float, n: int, targets: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix from Chebyshev nodes to `targets`,
    built in place in one (targets, n) array; a target within 1e-300 of a
    node takes that node's value."""
    k = np.arange(n)
    bw = (-1.0) ** k * np.sin((2.0 * k + 1.0) * np.pi / (2.0 * n))
    mat = np.subtract.outer(targets, _cheb_points(lo, hi, n))
    hit = mat <= 1e-300
    hit &= mat >= -1e-300
    mat[hit] = 1.0
    np.divide(bw, mat, out=mat)
    mat /= mat.sum(axis=1, keepdims=True)
    exact_rows = hit.any(axis=1)
    if np.any(exact_rows):
        mat[exact_rows] = hit[exact_rows]
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


def _panel_node_sums(detuning: np.ndarray, half_span: float, centres: np.ndarray,
                     coeffs) -> np.ndarray:
    """(panels, nodes, columns) sums Sum_p exp(-i d_p (c_k + x_j)) coeffs[p, :]
    over the detunings d_p, on the Chebyshev nodes x_j of [-half_span,
    half_span] about every panel centre c_k, in blocks of _P_BLOCK momenta,
    each block of coefficients read once (`coeffs(cols)`) and dropped before
    the next is read.  The nodes are mirrored, so each block evaluates half
    the node table and takes the other half by conjugation, exact in IEEE
    arithmetic.  The table's buffer is freed on return, before the kernel
    allocates its samples."""
    nodes = _cheb_points(-half_span, half_span, _PANEL_NODES)
    half = _PANEL_NODES // 2
    node_sums = np.zeros((centres.size, _PANEL_NODES, coeffs(slice(0)).shape[1]),
                         dtype=complex)
    buffer = np.empty(_PANEL_NODES * min(detuning.size, _P_BLOCK), dtype=complex)
    for p0 in range(0, detuning.size, _P_BLOCK):
        cols = slice(p0, p0 + _P_BLOCK)
        block, shifted = coeffs(cols), -1j * detuning[cols]
        table = buffer[:_PANEL_NODES * shifted.size].reshape(_PANEL_NODES, -1)
        top = np.multiply.outer(nodes[:half], shifted, out=table[:half])
        np.exp(top, out=top)
        np.conjugate(table[half - 1::-1], out=table[half:])
        for k in range(centres.size):
            node_sums[k] += table @ (np.exp(centres[k] * shifted)[:, None] * block)
        del block
    return node_sums


def _phase_sums(omega: np.ndarray, taus: np.ndarray, coeffs,
                reduce=lambda sums: sums) -> np.ndarray:
    """reduce(S) of the (taus, columns) sums S_i = Sum_p exp(-i omega_p tau_i)
    coeffs[p, :] for every tau_i, the coefficients read through `coeffs`, a
    function of a slice of momenta that returns those rows as a (rows,
    columns) array.  `reduce` maps a block of rows of S to those rows of the
    output (the sums themselves by default); it sees blocks of at most
    _CELLS sums, so no (taus, columns) array is held unless it keeps one.

    The sum is band-limited in tau.  On a uniform grid the samples are split
    into panels over which the band-centred sum turns by at most
    _PANEL_PHASE radians either way from the panel centre; it is evaluated
    exactly on the panel's Chebyshev nodes and mapped onto the samples by one
    barycentric matrix shared by the panels of a block (the band-limited
    compression behind NUFFTs), built and applied _ROW_BLOCK sample offsets
    at a time.  Short, non-uniform or undersampled grids are summed directly.
    Both branches walk the momentum axis in blocks of _P_BLOCK columns and the
    samples in blocks of _ROW_BLOCK, so no time-by-momentum or time-by-node
    matrix is ever held.  The panel branch reads each block of coefficients
    once; the direct branch once per block of the reduction, so once when
    the samples times the columns fit _CELLS (a point's window), and
    otherwise its C P cosines and sines again per block of _CELLS / C
    samples, beside the block's _CELLS P / C exponentials.
    """
    taus = np.asarray(taus, dtype=float)
    n_t, n_cols = taus.size, coeffs(slice(0)).shape[1]
    rows = max(1, _CELLS // n_cols)         # samples per block of the reduction
    empty = reduce(np.zeros((0, n_cols), dtype=complex))
    out = np.empty((n_t, *empty.shape[1:]), dtype=empty.dtype)
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
        for b0 in range(0, n_t, rows):
            at = taus[b0:b0 + rows]
            sums = np.zeros((at.size, n_cols), dtype=complex)
            for p0 in range(0, omega.size, _P_BLOCK):
                cols = slice(p0, p0 + _P_BLOCK)
                block = coeffs(cols)
                for t0 in range(0, at.size, _ROW_BLOCK):
                    phases = np.outer(at[t0:t0 + _ROW_BLOCK], -1j * omega[cols])
                    sums[t0:t0 + _ROW_BLOCK] += np.exp(phases, out=phases) @ block
                    del phases      # each temporary before the next is built
                del block
            out[b0:b0 + at.size] = reduce(sums)
            del sums
        return out
    n_panels = -(-n_t // per_panel)
    half_span = 0.5 * (per_panel - 1) * h
    centres = taus[0] + half_span + h * per_panel * np.arange(n_panels)
    node_sums = _panel_node_sums(omega - w_mid, half_span, centres, coeffs)
    # a block of the reduction holds whole panels, or a run of one panel's samples
    panels, run = max(1, rows // per_panel), min(rows, per_panel)
    for k0 in range(0, n_panels, panels):
        for j0 in range(0, per_panel, run):
            b0 = k0 * per_panel + j0
            if b0 >= n_t:
                break
            sums = np.empty((min(panels, n_panels - k0), min(run, per_panel - j0), n_cols),
                            dtype=complex)
            # the interpolation matrix depends on the sample's offset in its
            # panel only, so each block of offsets serves every panel
            for r0 in range(0, sums.shape[1], _ROW_BLOCK):
                offsets = h * np.arange(j0 + r0, j0 + min(r0 + _ROW_BLOCK, sums.shape[1])) \
                    - half_span
                np.matmul(_cheb_interp_matrix(-half_span, half_span, _PANEL_NODES, offsets),
                          node_sums[k0:k0 + panels], out=sums[:, r0:r0 + _ROW_BLOCK])
            sums = sums.reshape(-1, n_cols)[:n_t - b0]
            at = taus[b0:b0 + sums.shape[0]]
            for t0 in range(0, at.size, _ROW_BLOCK):
                sums[t0:t0 + _ROW_BLOCK] *= np.exp(-1j * w_mid * at[t0:t0 + _ROW_BLOCK])[:, None]
            out[b0:b0 + sums.shape[0]] = reduce(sums)
            del sums
    return out


def _fold_nodes(amp: MomentumAmplitude, r_lo: float, r_hi: float) -> np.ndarray:
    """The Chebyshev r-nodes of the channel fold on [r_lo, r_hi]: as many as
    the band needs, 1.4 (p_max - p_min)/2 (r_hi - r_lo)/2 + 16, or a single
    node, which is exact at a single distance, when those points are not
    distinct doubles (one distance, or distances a few ulps apart)."""
    p_lo, p_hi = amp.p_support
    halfband, half_len = 0.5 * (p_hi - p_lo), 0.5 * max(r_hi - r_lo, 1e-12)
    nodes = _cheb_points(r_lo, r_hi, int(np.ceil(1.4 * halfband * half_len)) + 16)
    return nodes if np.all(nodes[1:] < nodes[:-1]) else _cheb_points(r_lo, r_hi, 1)


def _channel_map(r_chan: np.ndarray, gains: np.ndarray, r_lo: float, r_hi: float,
                 order: int, p_mid: float) -> np.ndarray:
    """The channel fold's (points, F, order) map from the Chebyshev r-nodes
    of [r_lo, r_hi] to the points: Sum_a gains[a, f] exp(i p_mid r[x, a])
    times the barycentric row of r[x, a], for each column f of the (channels,
    F) `gains`.  Each barycentric row depends on its own distance only, so it
    is built once per point and channel, a block of points and of channels
    at a time, at most _CELLS cells per block, and contracted with all
    F columns of gains by one product per point, summed over the blocks."""
    n_points, n_chan = r_chan.shape
    mix = np.zeros((n_points, gains.shape[1], order), dtype=complex)
    chans = max(1, min(n_chan, _CELLS // order))
    step = max(1, _CELLS // (chans * order))
    for x0 in range(0, n_points, step):
        for a0 in range(0, n_chan, chans):
            r = r_chan[x0:x0 + step, a0:a0 + chans]                       # (x, a)
            terms = _cheb_interp_matrix(r_lo, r_hi, order, r.ravel()).reshape(*r.shape, order) \
                * np.exp(1j * p_mid * r)[:, :, None]
            mix[x0:x0 + step] += gains[a0:a0 + chans].T @ terms
    return mix


def _ring_gains(gains: np.ndarray, n_az: int) -> np.ndarray:
    """The (channels, F) gains of a volume's ring fold, from the gains of its
    cap channels (polar-major, `n_az` azimuths each).

    `volume_grid` and `cap_directions` share `det.axis`'s frame and azimuth
    nodes, and the grid's origin lies on the axis through the source, so the
    distance from point k of a ring to channel (theta, m) depends on m - k
    only.  The field at point k is then the cyclic correlation
    F_k = Sum_theta,m g_theta,m h_theta(m - k), and by Parseval
    Sum_k |F_k|^2 = (1 / n_az) Sum_f |Phi_f|^2 with
    Phi_f = Sum_theta,m ghat_theta,f exp(2 pi i f m / n_az) h_theta(m), where
    ghat_theta,f = Sum_m g_theta,m exp(-2 pi i f m / n_az) and h_theta(m) is
    the channel's term at the ring's k = 0 point.  So a ring folds as its
    k = 0 point, one row per frequency f with the gains
    ghat_theta,f exp(2 pi i f m / n_az) returned here, of weight w_ring / n_az.

    A frequency whose every |ghat_theta,f| is at most _RING_DROP Sum|ghat| is
    dropped: the field it leaves out at any point is at most
    _RING_DROP Sum|ghat| Sum_a |h_a| <= _RING_DROP n_az Sum|g| Sum_a |h_a|,
    the h_a the channels' terms.  Isotropic and axis-aligned beams keep
    f = 0 alone: one point per ring."""
    m = np.arange(n_az)
    dft = np.exp(-2j * np.pi * (np.outer(m, m) % n_az) / n_az)          # (m, f)
    g_hat = gains.reshape(-1, n_az) @ dft                               # (theta, f)
    size = np.abs(g_hat)
    kept = np.flatnonzero(np.any(size > _RING_DROP * size.sum(), axis=0))
    return (g_hat[:, None, kept] * dft[:, kept].conj()).reshape(gains.size, kept.size)


def _fold_coefficients(amp: MomentumAmplitude, mass: float, panels: int,
                       p_mid: float, r_nodes: np.ndarray):
    """omega_p = p^2 / 2m on the radial rule of `panels` panels, and its
    channel-fold coefficients as a function of a slice of momenta:
    base_p exp(i (p - p_mid) r_k) at the r-nodes r_k, for that slice only."""
    p, base = _radial_rule(amp, panels)

    def rows(cols: slice) -> np.ndarray:
        phase = np.multiply.outer(p[cols] - p_mid, r_nodes)
        block = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=block.real)
        np.sin(phase, out=block.imag)
        block *= base[cols, None]
        return block

    return p * p / (2.0 * mass), rows


def _psi(amp: MomentumAmplitude, source: EmissionEvent, quad: QuadratureSpec,
         dirs: np.ndarray, gains: np.ndarray, position: np.ndarray,
         time: float) -> complex:
    """Sum_a gains[a] psi_n_a(position, time): the channel fold at the one
    point and the phase sum at the one time, refined by doubling above the
    floor 1e-3 Sum_p |c_p Sum_a g_a exp(i p r_a)|, the fold's own bound (deep
    in the tail the value is rounding, which no relative test can pass)."""
    tau = float(time) - source.t0
    if tau < 0.0:
        raise ValueError(f"time {time} precedes the emission time {source.t0}")
    r = (dirs @ (position - source.x0))[None, :]                  # (1, A)
    r_lo, r_hi = float(r.min()), float(r.max())
    # the rule's budget bounds the band, so the nodes, before they are laid out
    panels = _radial_panels(amp, r_lo, r_hi, tau, source.mass)
    p_mid, r_nodes = 0.5 * sum(amp.p_support), _fold_nodes(amp, r_lo, r_hi)
    mix = _channel_map(r, gains[:, None], r_lo, r_hi, r_nodes.size, p_mid)[0, 0]

    def at(panels: int) -> tuple[complex, float]:
        omega, rows = _fold_coefficients(amp, source.mass, panels, p_mid, r_nodes)
        floor = sum(np.abs(rows(slice(p0, p0 + _P_BLOCK)) @ mix).sum()
                    for p0 in range(0, omega.size, _P_BLOCK))
        return complex(_phase_sums(omega, [tau], rows, lambda sums: sums @ mix)[0]), \
            1e-3 * floor

    return refine_by_doubling(at, panels, _RADIAL_DOUBLINGS, quad.rtol,
                              "radial quadrature")[0]


def _cap_channels(amp: MomentumAmplitude, det: DetectorGeometry,
                  quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The cap rule's directions n_a about `det.axis`, gains dOmega_a G(n_a.axis)."""
    dirs, dw = cap_directions(det.axis, det.cos_cone, quad.polar_nodes, quad.azimuth_nodes)
    gains = dw.astype(complex)
    return dirs, gains if amp.is_isotropic else gains * amp.angular_profile(dirs @ amp.axis)


def eval_angular_component(amp: MomentumAmplitude, request: AngularComponentRequest,
                           source: EmissionEvent, quad: QuadratureSpec) -> complex:
    """Single-direction component psi_n(x, t) of the packet."""
    g = 1.0 if amp.is_isotropic else amp.angular_profile(float(request.direction @ amp.axis))
    return _psi(amp, source, quad, request.direction[None, :], np.full(1, g, dtype=complex),
                request.position, request.time)


def eval_detector_wavefunction(amp: MomentumAmplitude, position, time: float,
                               det: DetectorGeometry, source: EmissionEvent,
                               quad: QuadratureSpec) -> complex:
    """psi_D(x, t): superposition of psi_n over the detector's direction cone,
    on the cap's polar-azimuth product grid."""
    return _psi(amp, source, quad, *_cap_channels(amp, det, quad),
                _as_vec3(position, "position"), time)


class OccupationCurve:
    """Sum_x w_x Sum_f |Sum_a g_af psi(r[x, a], tau)|^2 over arrays of elapsed
    times tau: points x of weight w_x, direction channels a at distance
    r[x, a] = n_a.(x - x0) with gains g_af, one column per row f of a point
    (a volume's ring frequencies, `_ring_gains`).  `distances` is a function
    that returns r, called once.  Every batch is one `refine_by_doubling` of
    its radial rule, judged against the running scale; the next batch starts
    from no fewer panels than the coarser rule that agreed.  The channel
    phases exp(i p r) are folded onto Chebyshev nodes in r (`_fold_nodes`),
    which keeps the time-by-momentum product small.  The curve keeps
    neither the distances nor the map, only the map's C x C Gram over its
    C nodes, so a density costs C^2 per sample whatever the rows; its
    coefficients are computed one block of momenta at a time, and its
    samples reduced a block of _CELLS sums at a time.

    `full_mass` is the curve's integral over all tau, known without
    sampling: psi is Sum_p c_p exp(-i omega_p tau) with omega_p = p^2 / 2m,
    so by Plancherel the integral of |psi|^2 over the real line is
    2 pi m Integral |c(p)|^2 / p dp.  `band` is the width omega_max -
    omega_min of that spectrum, the frequency bound of the curve.
    """

    def __init__(self, amp: MomentumAmplitude, source: EmissionEvent,
                 quad: QuadratureSpec, distances, gains: np.ndarray, weights: np.ndarray):
        self.amp, self.source, self.quad = amp, source, quad
        r_chan = distances()                    # (points, channels)
        self._r_lo, self._r_hi = float(r_chan.min()), float(r_chan.max())
        self._panels = 0            # panels of the last batch's accepted rule
        self.scale = self.abs_error = 0.0
        p_lo, p_hi = amp.p_support
        # the tau = 0 rule's budget bounds the band, so the nodes, before they are laid out
        mass_panels = _radial_panels(amp, self._r_lo, self._r_hi, 0.0, source.mass)
        # exact values s on Chebyshev r-nodes, mapped to the points by M: Sum_x w_x |(M s)_x|^2
        # = Re s^T G conj(s), and every _build shares the map's Gram G = M^T W conj(M)
        self._p_mid, self._r_nodes = 0.5 * (p_lo + p_hi), _fold_nodes(amp, self._r_lo, self._r_hi)
        order, rows = self._r_nodes.size, gains.shape[1]
        self._gram = np.zeros((order, order), dtype=complex)
        step = max(1, _CELLS // max(1, rows * order))       # points of a block of the map
        for x0 in range(0, r_chan.shape[0], step):
            mix = _channel_map(r_chan[x0:x0 + step], gains, self._r_lo, self._r_hi, order,
                               self._p_mid).reshape(-1, order)
            self._gram += mix.T @ (weights[x0 * rows:(x0 + step) * rows, None] * mix.conj())
        del r_chan
        # anchor the relative-error scale at the arrival peak: this probe batch
        # is judged against its own maximum, and later batches, typically ~0
        # early on, against the scale it leaves
        flight = source.mass * 0.5 * (self._r_lo + self._r_hi) / radial_moments(amp)[0]
        self(flight * np.array([0.7, 0.85, 1.0, 1.2, 1.5]))
        self.band = (p_hi * p_hi - p_lo * p_lo) / (2.0 * source.mass)
        self.full_mass, _, self._full_mass_residual = refine_by_doubling(
            self._full_mass, mass_panels, _RADIAL_DOUBLINGS, quad.rtol, "Plancherel mass")

    def _build(self, panels: int):
        return _fold_coefficients(self.amp, self.source.mass, panels, self._p_mid, self._r_nodes)

    def _density(self, sums: np.ndarray) -> np.ndarray:
        """Sum_x w_x |field_x|^2 of rows of Chebyshev-node sums."""
        fields = sums @ self._gram
        return (fields.real * sums.real + fields.imag * sums.imag).sum(axis=1)

    def _field_square(self, state, taus: np.ndarray) -> np.ndarray:
        omega, coeffs = state
        return _phase_sums(omega, taus, coeffs, self._density)

    def _full_mass(self, panels: int) -> tuple[float, float]:
        """The Plancherel sum 2 pi m Sum_p |c_p|^2 / (w_p p) of the radial
        rule of `panels` panels (w_p its Gauss-Legendre weights), reduced
        over the points like a sample, a block of momenta at a time."""
        p_lo, p_hi = self.amp.p_support
        p, w = gauss_legendre_panels(p_lo, p_hi, panels, _RADIAL_NODES, self.amp.knots)
        _, coeffs = self._build(panels)
        density = np.empty(p.size)
        for p0 in range(0, p.size, _P_BLOCK):
            cols = slice(p0, p0 + _P_BLOCK)
            density[cols] = self._density(coeffs(cols))
        return 2.0 * np.pi * self.source.mass * float(np.sum(density / (w * p))), 0.0

    def mass_error(self, length: float) -> float:
        """Error of `full_mass` minus the running integrals of the curve over
        intervals of total length `length`: the Plancherel sum's doubling
        residual plus `abs_error` for every unit of length."""
        return self._full_mass_residual + self.abs_error * length

    def __call__(self, taus: np.ndarray) -> np.ndarray:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        # sized at the tau of largest magnitude: before the emission the
        # phase p r + p^2 |tau| / 2m turns fastest
        farthest = max(taus.max(initial=0.0), taus.min(initial=0.0), key=abs)
        panels = _radial_panels(self.amp, self._r_lo, self._r_hi,
                                1.25 * float(farthest), self.source.mass,
                                self._panels // 2)
        out, self._panels, err = refine_by_doubling(
            lambda n: (self._field_square(self._build(n), taus), self.scale),
            panels, _RADIAL_DOUBLINGS, self.quad.rtol, "time-curve radial quadrature")
        self.scale = max(self.scale, float(out.max(initial=0.0)))
        self.abs_error = max(self.abs_error, err)
        return out

    @property
    def error_rel(self) -> float:
        return self.abs_error / max(self.scale, 1e-300)


def detector_occupation(amp: MomentumAmplitude, det: DetectorGeometry,
                        source: EmissionEvent, quad: QuadratureSpec) -> OccupationCurve:
    """The occupation integrand of `det`.  A volume integrates |psi_D(x, t)|^2
    over its grid points, each a superposition of the cap directions, ring
    by ring: the k = 0 point of each ring of `azimuth_nodes` points, one row
    per kept azimuthal frequency of the gains, of weight w_ring / n_az
    (`_ring_gains`).  A point is |psi_nD(x_D, t)|^2: one channel at the
    detector distance, weighted by the angular density |G(n.axis)|^2 of the
    line of sight n."""
    if det.kind == "point":
        g2 = 1.0 if amp.is_isotropic else \
            float(np.abs(amp.angular_profile(det.axis @ amp.axis)) ** 2)
        return OccupationCurve(amp, source, quad, lambda: np.array([[det.distance]]),
                               np.ones((1, 1), dtype=complex), np.array([g2]))
    dirs, gains = _cap_channels(amp, det, quad)
    points, vol_w = volume_grid(det, quad)
    n_az = quad.azimuth_nodes
    gains = _ring_gains(gains, n_az)
    return OccupationCurve(amp, source, quad, lambda: (points[::n_az] - source.x0) @ dirs.T,
                           gains, np.repeat(vol_w[::n_az] / n_az, gains.shape[1]))
