"""Independent brute-force reference implementations.

Everything here integrates with plain dense trapezoid / midpoint rules on
uniform grids and estimates its own error by doubling the resolution.  None
of the panel, cap, or window machinery of the main engine is used, so the
two paths share no quadrature code; agreement between them is the evidence
the test suite leans on.  These routines may be orders of magnitude slower
than the main path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import EmissionEvent, DetectorGeometry, _as_vec3
from .wavepacket import MomentumAmplitude, TWO_PI_32

_DEFAULT_NODES = 200_000


@dataclass(frozen=True)
class OracleReport:
    """A reference value with its resolution and a doubling-based error bar."""

    name: str
    value: complex | float
    resolution: dict = field(default_factory=dict)
    error_estimate: float = 0.0

    def as_dict(self) -> dict:
        value = self.value
        if isinstance(value, complex):
            value = [value.real, value.imag]
        return {"name": self.name, "value": value,
                "resolution": self.resolution,
                "error_estimate": self.error_estimate}


def write_reports(reports, path):
    """Dump a list of OracleReport to a JSON fixtures file."""
    payload = [r.as_dict() for r in reports]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_reports(path) -> dict:
    """Read a fixtures file back as {name: (value, error_estimate)}."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    out = {}
    for row in payload:
        value = row["value"]
        if isinstance(value, list):
            value = complex(value[0], value[1])
        out[row["name"]] = (value, row["error_estimate"])
    return out


def _component_at(amp: MomentumAmplitude, r: float, g: complex, taus: np.ndarray,
                  mass: float, nodes: int) -> np.ndarray:
    """Trapezoid evaluation of the single-direction component for many times."""
    lo, hi = amp.p_support
    p = np.linspace(lo, hi, nodes)
    w = np.full(nodes, p[1] - p[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    core = w * p * p * amp.scale * amp.radial_profile(p) * np.exp(1j * p * r) / TWO_PI_32
    out = np.empty(taus.size, dtype=complex)
    chunk = max(1, 8_000_000 // nodes)
    for start in range(0, taus.size, chunk):
        block = taus[start:start + chunk]
        phases = np.exp(-1j * np.outer(block, p * p) / (2.0 * mass))
        out[start:start + chunk] = phases @ (g * core)
    return out


def _angular_factor(amp: MomentumAmplitude, direction: np.ndarray) -> complex:
    if amp.is_isotropic:
        return 1.0 + 0.0j
    return complex(amp.angular_profile(float(direction @ amp.axis)))


def oracle_angular_component(amp: MomentumAmplitude, direction, position,
                             time: float, source: EmissionEvent,
                             nodes: int = _DEFAULT_NODES) -> OracleReport:
    """Brute-force psi_n(x, t): dense trapezoid over the momentum support."""
    direction = _as_vec3(direction, "direction")
    position = _as_vec3(position, "position")
    tau = float(time) - source.t0
    r = float(direction @ (position - source.x0))
    g = _angular_factor(amp, direction)
    coarse = _component_at(amp, r, g, np.array([tau]), source.mass, nodes)[0]
    fine = _component_at(amp, r, g, np.array([tau]), source.mass, 2 * nodes)[0]
    return OracleReport(name="angular_component", value=complex(fine),
                        resolution={"nodes": 2 * nodes},
                        error_estimate=float(abs(fine - coarse)))


def oracle_classical_flight(amp: MomentumAmplitude, distance: float,
                            mass: float) -> float:
    """Stationary-phase flight time m L / p0 for kinds that expose p0."""
    if amp.exposed_p0 is None:
        raise ValueError(f"amplitude kind {amp.kind!r} does not expose a central momentum")
    return mass * float(distance) / amp.exposed_p0


def oracle_point_density(amp: MomentumAmplitude, x_detector, source: EmissionEvent,
                         taus, nodes: int = _DEFAULT_NODES) -> np.ndarray:
    """|psi_nD(x_D, t)|^2 on a grid of elapsed times, dense trapezoid rule."""
    x_detector = _as_vec3(x_detector, "x_detector")
    rel = x_detector - source.x0
    distance = float(np.linalg.norm(rel))
    direction = rel / distance
    g = _angular_factor(amp, direction)
    vals = _component_at(amp, distance, g, np.asarray(taus, dtype=float),
                         source.mass, nodes)
    return np.abs(vals) ** 2


def oracle_mean_arrival(amp: MomentumAmplitude, x_detector, source: EmissionEvent,
                        t_span: float, n_time: int = 20_000,
                        nodes: int = 50_000) -> OracleReport:
    """First moment of |psi_nD(x_D, t)|^2 over [0, t_span] elapsed time."""
    taus = np.linspace(0.0, t_span, n_time + 1)

    def moment(n_t: int, n_p: int) -> float:
        tt = np.linspace(0.0, t_span, n_t + 1)
        dens = oracle_point_density(amp, x_detector, source, tt, n_p)
        return float(np.trapezoid(tt * dens, tt) / np.trapezoid(dens, tt))

    coarse = moment(n_time // 2, nodes // 2)
    fine = moment(n_time, nodes)
    return OracleReport(name="mean_arrival", value=fine,
                        resolution={"n_time": n_time, "nodes": nodes,
                                    "t_span": t_span},
                        error_estimate=abs(fine - coarse))


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:]), (hi - lo) / n


def _frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing `axis` to an orthonormal triad."""
    pick = int(np.argmin(np.abs(axis)))
    seed = np.zeros(3)
    seed[pick] = 1.0
    e1 = np.cross(axis, seed)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(axis, e1)


def _cap_grid_midpoint(axis: np.ndarray, cos_half: float, n_u: int,
                       n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    u, du = _midpoints(cos_half, 1.0, n_u)
    phi, dphi = _midpoints(0.0, 2.0 * np.pi, n_phi)
    e1, e2 = _frame(axis)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    dirs = (sin_t[:, None, None] * (np.cos(phi)[None, :, None] * e1
                                    + np.sin(phi)[None, :, None] * e2)
            + u[:, None, None] * axis).reshape(-1, 3)
    weights = np.full(len(dirs), du * dphi)
    return dirs, weights


def oracle_prob_direction_in_cone(amp: MomentumAmplitude, det: DetectorGeometry,
                                  source: EmissionEvent, n_u: int = 400,
                                  n_phi: int = 400,
                                  nodes: int = 100_000) -> OracleReport:
    """Probability that the momentum direction points through the detector,
    by dense midpoint sums over the direction cone and the radial density."""
    def at(nu: int, nphi: int, n_p: int) -> float:
        dirs, w = _cap_grid_midpoint(det.axis, det.cos_cone, nu, nphi)
        gsq = np.abs(amp.angular_profile(dirs @ amp.axis)) ** 2 \
            if not amp.is_isotropic else np.ones(len(dirs))
        lo, hi = amp.p_support
        p = np.linspace(lo, hi, n_p)
        radial = np.trapezoid(p * p * np.abs(amp.scale * amp.radial_profile(p)) ** 2, p)
        return float((w @ gsq) * radial)

    coarse = at(n_u // 2, n_phi // 2, nodes // 2)
    fine = at(n_u, n_phi, nodes)
    return OracleReport(name="prob_direction_in_cone", value=fine,
                        resolution={"n_u": n_u, "n_phi": n_phi, "nodes": nodes},
                        error_estimate=abs(fine - coarse))


def oracle_prob_direction_beam(amp: MomentumAmplitude, det: DetectorGeometry,
                               source: EmissionEvent, n_alpha: int = 1000,
                               n_phi: int = 1000,
                               nodes: int = 100_000) -> OracleReport:
    """Probability that the momentum direction points through the detector,
    by dense midpoint sums in the polar angle alpha about the amplitude axis
    and in its azimuth phi, with a plain hit indicator of the detector's cone.

    Alpha covers [0, min(pi, 16 angular_sigma)] for a separable beam and
    [0, pi] for a table, so a beam too narrow for the cos-theta grid of
    `oracle_prob_direction_in_cone` is still resolved.  Both grids cover only
    the box that can hold the cone: alpha within its half-angle theta of the
    angle beta between the axes, and phi within arcsin(sin theta / sin beta)
    of the detector axis's azimuth."""
    if amp.is_isotropic:
        raise ValueError("the beam oracle needs an amplitude with an axis")
    e1, e2 = _frame(amp.axis)
    beta = float(np.arccos(np.clip(det.axis @ amp.axis, -1.0, 1.0)))
    theta = float(np.arccos(det.cos_cone))
    top = np.pi if amp.kind == "tabulated" else min(np.pi, 16.0 * amp.angular_sigma)
    a_lo, a_hi = max(0.0, beta - theta), min(top, beta + theta)
    centre = float(np.arctan2(det.axis @ e2, det.axis @ e1))
    spread = np.pi if theta >= beta or beta + theta >= np.pi else \
        float(np.arcsin(min(1.0, np.sin(theta) / np.sin(beta))))

    def at(n_a: int, n_f: int, n_p: int) -> float:
        if a_hi <= a_lo:
            return 0.0
        alpha, da = _midpoints(a_lo, a_hi, n_a)
        phi, dphi = _midpoints(centre - spread, centre + spread, n_f)
        ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2     # (n_f, 3)
        mass = 0.0
        for rows in np.array_split(np.arange(n_a), max(1, n_a * n_f // 1_000_000)):
            a = alpha[rows]
            dirs = (np.sin(a)[:, None, None] * ring[None, :, :]
                    + np.cos(a)[:, None, None] * amp.axis)
            arc = np.count_nonzero(dirs @ det.axis >= det.cos_cone, axis=1) * dphi
            gsq = np.abs(amp.angular_profile(np.cos(a))) ** 2
            mass += float(np.sum(gsq * np.sin(a) * arc)) * da
        lo, hi = amp.p_support
        p = np.linspace(lo, hi, n_p)
        radial = np.trapezoid(p * p * np.abs(amp.scale * amp.radial_profile(p)) ** 2, p)
        return mass * radial

    coarse = at(n_alpha // 2, n_phi // 2, nodes // 2)
    fine = at(n_alpha, n_phi, nodes)
    return OracleReport(name="prob_direction_beam", value=fine,
                        resolution={"n_alpha": n_alpha, "n_phi": n_phi,
                                    "nodes": nodes},
                        error_estimate=abs(fine - coarse))


def oracle_detector_occupation(amp: MomentumAmplitude, det: DetectorGeometry,
                               source: EmissionEvent, taus,
                               n_vol: tuple[int, int, int] = (8, 8, 8),
                               n_cap: tuple[int, int] = (16, 16),
                               nodes: int = 4_000) -> np.ndarray:
    """Integral over the detector volume of |psi_D|^2 at each elapsed time,
    via midpoint product grids everywhere."""
    taus = np.asarray(taus, dtype=float)
    n_r, n_u, n_phi = n_vol
    if det.kind == "sphere":
        r, dr = _midpoints(0.0, det.radius, n_r)
        u, du = _midpoints(-1.0, 1.0, n_u)
        origin = det.center
    else:
        r, dr = _midpoints(det.r_inner, det.r_outer, n_r)
        u, du = _midpoints(np.cos(det.half_angle), 1.0, n_u)
        origin = det.apex
    phi, dphi = _midpoints(0.0, 2.0 * np.pi, n_phi)
    e1, e2 = _frame(det.axis)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    local_dirs = (sin_t[:, None, None] * (np.cos(phi)[None, :, None] * e1
                                          + np.sin(phi)[None, :, None] * e2)
                  + u[:, None, None] * det.axis).reshape(-1, 3)
    points = (origin[None, None, :]
              + r[:, None, None] * local_dirs[None, :, :]).reshape(-1, 3)
    vol_w = np.repeat(r * r * dr, len(local_dirs)) * du * dphi

    dirs, dw = _cap_grid_midpoint(det.axis, det.cos_cone, *n_cap)
    g = dw.astype(complex)
    if not amp.is_isotropic:
        g = g * amp.angular_profile(dirs @ amp.axis)

    lo, hi = amp.p_support
    p = np.linspace(lo, hi, nodes)
    wp = np.full(nodes, p[1] - p[0])
    wp[0] *= 0.5
    wp[-1] *= 0.5
    core = wp * p * p * amp.scale * amp.radial_profile(p) / TWO_PI_32

    rel = points - source.x0
    chan = np.zeros((nodes, len(points)), dtype=complex)
    for a in range(len(dirs)):
        chan += g[a] * np.exp(1j * np.outer(p, rel @ dirs[a]))
    chan *= core[:, None]

    out = np.empty(taus.size)
    chunk = max(1, 4_000_000 // nodes)
    for start in range(0, taus.size, chunk):
        block = taus[start:start + chunk]
        fields = np.exp(-1j * np.outer(block, p * p) / (2.0 * source.mass)) @ chan
        out[start:start + chunk] = (fields.real ** 2 + fields.imag ** 2) @ vol_w
    return out


def oracle_entry_ratio(amp: MomentumAmplitude, det: DetectorGeometry,
                       source: EmissionEvent, elapsed: float, t_span: float,
                       n_time: int = 1600, n_vol: tuple[int, int, int] = (8, 8, 8),
                       n_cap: tuple[int, int] = (16, 16),
                       nodes: int = 4_000) -> OracleReport:
    """Conditional entry probability at `elapsed`, with the normalizer
    integrated over [0, t_span] (t_span must cover the occupation support)."""
    def at(n_t: int, nv, nc, n_p: int) -> float:
        taus = np.linspace(0.0, t_span, n_t + 1)
        occ = oracle_detector_occupation(amp, det, source, taus, nv, nc, n_p)
        total = np.trapezoid(occ, taus)
        keep = taus <= elapsed
        head = np.trapezoid(occ[keep], taus[keep])
        # the partial interval from the last node before `elapsed` to it
        k = int(np.count_nonzero(keep)) - 1
        if elapsed > taus[k] and k + 1 < taus.size:
            edge = np.interp(elapsed, taus[k:k + 2], occ[k:k + 2])
            head += 0.5 * (elapsed - taus[k]) * (occ[k] + edge)
        return float(head / total)

    coarse = at(n_time // 2, tuple(v // 2 for v in n_vol),
                tuple(v // 2 for v in n_cap), nodes // 2)
    fine = at(n_time, n_vol, n_cap, nodes)
    return OracleReport(name="entry_ratio", value=fine,
                        resolution={"n_time": n_time, "n_vol": list(n_vol),
                                    "n_cap": list(n_cap), "nodes": nodes,
                                    "t_span": t_span},
                        error_estimate=abs(fine - coarse))
