"""Detector placement, solid angles, and the line-of-sight hit predicate.

Two detector volumes are supported, both with closed-form solid angle and
volume: a ball ("sphere") and a source-centered spherical sector ("cap",
all points within `half_angle` of an axis and radial range
[r_inner, r_outer] from the source).  The source must lie strictly outside
the detector volume.  A detector of vanishing size ("point") has no volume;
its direction cone is a reference cone of a given solid angle around the
line of sight, or none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

UNIT_TOL = 1e-12


def _as_vec3(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _unit_axis(value, name: str = "axis") -> np.ndarray:
    """`value` as a 3-vector scaled to unit length; ValueError when it is 0."""
    v = _as_vec3(value, name)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError(f"{name} must be nonzero")
    return v / norm


def unit_vector(value, name: str = "direction") -> np.ndarray:
    """Validate that `value` is a unit 3-vector to within 1e-12."""
    v = _as_vec3(value, name)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector (|{name}| = {norm!r})")
    return v


@dataclass(frozen=True, eq=False)
class EmissionEvent:
    """Point emission: source position, emission time, particle mass (hbar = 1)."""

    x0: np.ndarray
    t0: float = 0.0
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x0", _as_vec3(self.x0, "x0"))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "mass", float(self.mass))
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")


@dataclass(frozen=True, eq=False)
class DetectorGeometry:
    """A detector volume plus quantities derived relative to the source.

    Derived fields: `axis` is the unit vector from the source to the detector
    center, `distance` the source-center separation, `omega` the solid angle
    subtended at the source [sr], `half_angle` the half-angle of that cone,
    and `volume` the detector volume.
    """

    kind: str                      # "sphere", "cap" or "point"
    center: np.ndarray             # x_D
    axis: np.ndarray               # n_D = (x_D - x0) / |x_D - x0|
    distance: float                # L = |x_D - x0|
    omega: float | None            # Omega_D (a point's reference cone, or None)
    volume: float | None           # V_D (None for a point)
    radius: float | None = None            # sphere only
    half_angle: float | None = None        # None for a point without a cone
    r_inner: float | None = None           # cap only
    r_outer: float | None = None           # cap only

    @property
    def apex(self) -> np.ndarray:
        """Source position the geometry was derived for."""
        return self.center - self.distance * self.axis

    @property
    def cos_cone(self) -> float:
        """Cosine of the half-angle of the direction cone that hits the detector."""
        if self.kind == "sphere":
            ratio = self.radius / self.distance
            return float(np.sqrt(1.0 - ratio * ratio))
        if self.half_angle is None:
            raise GeometryError("point detector has no direction cone")
        return float(np.cos(self.half_angle))

    @property
    def extent_along_axis(self) -> float:
        """Detector depth along the line of sight (0 for a point)."""
        if self.kind == "sphere":
            return 2.0 * self.radius
        if self.kind == "point":
            return 0.0
        return self.r_outer - self.r_inner


def _sphere_cone(ratio: float) -> tuple[float, float]:
    """Solid angle [sr] and half-angle of the cone of a ball of radius
    `ratio` at unit distance, free of cancellation for small balls."""
    omega = 2.0 * np.pi * ratio * ratio / (1.0 + np.sqrt(1.0 - ratio * ratio))
    return float(omega), float(np.arcsin(ratio))


def sphere_detector(center, radius: float, source: EmissionEvent) -> DetectorGeometry:
    """Ball of `radius` around `center`, placed relative to `source`."""
    center = _as_vec3(center, "center")
    radius = float(radius)
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    offset = center - source.x0
    distance = float(np.linalg.norm(offset))
    if distance <= radius:
        raise GeometryError(
            f"source lies inside or on the detector (distance {distance} <= radius {radius})"
        )
    omega, half_angle = _sphere_cone(radius / distance)
    volume = 4.0 / 3.0 * np.pi * radius**3
    return DetectorGeometry(kind="sphere", center=center, axis=offset / distance,
                            distance=distance, omega=omega, volume=float(volume),
                            radius=radius, half_angle=half_angle)


def cap_detector(axis, half_angle: float, r_inner: float, r_outer: float,
                 source: EmissionEvent) -> DetectorGeometry:
    """Source-centered sector: directions within `half_angle` of `axis`,
    radii in [r_inner, r_outer] from the source."""
    axis = _unit_axis(axis)
    half_angle = float(half_angle)
    r_inner, r_outer = float(r_inner), float(r_outer)
    if not 0.0 < half_angle <= np.pi:
        raise ValueError(f"half_angle must be in (0, pi], got {half_angle}")
    if not 0.0 < r_inner < r_outer:
        raise GeometryError(
            f"cap radial extent must satisfy 0 < r_inner < r_outer, got [{r_inner}, {r_outer}]"
        )
    omega = 4.0 * np.pi * np.sin(0.5 * half_angle) ** 2
    volume = omega * (r_outer**3 - r_inner**3) / 3.0
    distance = 0.5 * (r_inner + r_outer)
    center = source.x0 + distance * axis
    return DetectorGeometry(kind="cap", center=center, axis=axis,
                            distance=distance, omega=float(omega),
                            volume=float(volume), half_angle=half_angle,
                            r_inner=r_inner, r_outer=r_outer)


def point_detector(position, source: EmissionEvent,
                   reference_solid_angle: float | None = None) -> DetectorGeometry:
    """Detector of vanishing size at `position`.  Its direction cone is the
    cone of `reference_solid_angle` [sr] around the line of sight, or none
    (`omega` None) when that is unset."""
    center = _as_vec3(position, "position")
    offset = center - source.x0
    distance = float(np.linalg.norm(offset))
    if distance == 0.0:
        raise GeometryError("point detector coincides with the source")
    omega = half_angle = None
    if reference_solid_angle is not None:
        omega = float(reference_solid_angle)
        if not 0.0 < omega <= 4.0 * np.pi:
            raise ValueError(f"reference_solid_angle must lie in (0, 4 pi], got {omega}")
        half_angle = 2.0 * float(np.arcsin(min(np.sqrt(omega / (4.0 * np.pi)), 1.0)))
    return DetectorGeometry(kind="point", center=center, axis=offset / distance,
                            distance=distance, omega=omega, volume=None,
                            half_angle=half_angle)


def solid_angle(det: DetectorGeometry, source: EmissionEvent) -> float:
    """Solid angle [sr] the detector subtends at the source position."""
    if det.kind == "sphere":
        return sphere_detector(det.center, det.radius, source).omega
    scale = max(1.0, float(np.linalg.norm(det.center)))
    if float(np.linalg.norm(det.apex - source.x0)) > 1e-9 * scale:
        raise GeometryError(f"{det.kind} detector was built for a different source position")
    if det.omega is None:
        raise GeometryError("point detector has no direction cone")
    return det.omega


def ray_hits_many(source: EmissionEvent, directions: np.ndarray,
                  det: DetectorGeometry) -> np.ndarray:
    """Vectorized hit test for an (N, 3) array of unit directions."""
    directions = np.asarray(directions, dtype=float)
    if det.kind == "sphere":
        offset = det.center - source.x0
        proj = directions @ offset
        miss_sq = float(offset @ offset) - proj * proj
        return (proj > 0.0) & (miss_sq <= det.radius * det.radius)
    return directions @ det.axis >= det.cos_cone


def ray_hits_detector(source: EmissionEvent, direction, det: DetectorGeometry) -> bool:
    """True iff the half-line {x0 + s*direction : s > 0} meets the detector volume."""
    n = unit_vector(direction)
    return bool(ray_hits_many(source, n[None, :], det)[0])


def orthonormal_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing `axis` to a right-handed orthonormal triad.

    Deterministic: picks the cardinal direction least aligned with `axis`.
    """
    pick = int(np.argmin(np.abs(axis)))
    seed = np.zeros(3)
    seed[pick] = 1.0
    e1 = np.cross(axis, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2
