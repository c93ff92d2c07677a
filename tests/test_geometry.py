import numpy as np
import pytest

from qarrival import EmissionEvent, GeometryError, sphere_detector, cap_detector, \
    solid_angle, ray_hits_detector
from qarrival.geometry import point_detector, ray_hits_many


def test_sphere_solid_angle_closed_form(source):
    det = sphere_detector([0.0, 0.0, 10.0], 0.1, source)
    # independent route: cone half-angle arcsin(R/L)
    expected = 2.0 * np.pi * (1.0 - np.cos(np.arcsin(0.1 / 10.0)))
    assert solid_angle(det, source) == pytest.approx(expected, rel=1e-14)
    assert solid_angle(det, source) == pytest.approx(3.1417e-4, rel=1e-4)


def test_source_on_surface_limit(source):
    # R -> L from below: half of the full sphere
    det = sphere_detector([0.0, 0.0, 1.0], 1.0 - 1e-12, source)
    assert solid_angle(det, source) == pytest.approx(2.0 * np.pi, rel=1e-5)


def test_full_cap_solid_angle(source):
    det = cap_detector([0.0, 0.0, 1.0], np.pi, 1.0, 2.0, source)
    assert solid_angle(det, source) == 4.0 * np.pi


def test_solid_angle_monotone_in_distance(source):
    omegas = [sphere_detector([0.0, 0.0, L], 0.3, source).omega
              for L in (1.0, 2.0, 5.0, 10.0, 50.0)]
    assert all(a > b for a, b in zip(omegas, omegas[1:]))


def test_ray_hits_along_axis(source, standard_det):
    assert ray_hits_detector(source, standard_det.axis, standard_det)
    assert not ray_hits_detector(source, -standard_det.axis, standard_det)


def test_ray_cone_exactness_for_sphere(source):
    det = sphere_detector([0.0, 0.0, 10.0], 1.0, source)
    half = np.arcsin(det.radius / det.distance)
    for eps, expect in ((-1e-6, True), (1e-6, False)):
        angle = half + eps
        n = np.array([np.sin(angle), 0.0, np.cos(angle)])
        n /= np.linalg.norm(n)
        assert ray_hits_detector(source, n, det) is expect


def test_cap_cone_predicate(source):
    det = cap_detector([0.0, 0.0, 1.0], 0.2, 1.0, 2.0, source)
    inside = np.array([np.sin(0.19), 0.0, np.cos(0.19)])
    outside = np.array([np.sin(0.21), 0.0, np.cos(0.21)])
    assert ray_hits_detector(source, inside, det)
    assert not ray_hits_detector(source, outside, det)


def test_hit_fraction_matches_solid_angle(source):
    det = sphere_detector([0.0, 0.0, 10.0], 0.1, source)
    rng = np.random.default_rng(20240817)
    n = 1_000_000
    u = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(1.0 - u * u)
    dirs = np.column_stack([s * np.cos(phi), s * np.sin(phi), u])
    hits = int(np.count_nonzero(ray_hits_many(source, dirs, det)))
    p = det.omega / (4.0 * np.pi)
    sigma = np.sqrt(n * p * (1.0 - p))
    assert abs(hits - n * p) <= 3.0 * sigma


def test_source_inside_sphere_rejected(source):
    with pytest.raises(GeometryError):
        sphere_detector([0.0, 0.0, 0.5], 1.0, source)
    with pytest.raises(GeometryError):
        sphere_detector([0.0, 0.0, 1.0], 1.0, source)  # on the surface


def test_cap_extent_validation(source):
    with pytest.raises(GeometryError):
        cap_detector([0.0, 0.0, 1.0], 0.3, 0.0, 2.0, source)
    with pytest.raises(GeometryError):
        cap_detector([0.0, 0.0, 1.0], 0.3, 2.0, 1.0, source)
    with pytest.raises(ValueError):
        cap_detector([0.0, 0.0, 1.0], 0.0, 1.0, 2.0, source)
    with pytest.raises(ValueError):
        cap_detector([0.0, 0.0, 1.0], 3.5, 1.0, 2.0, source)


def test_non_unit_direction_rejected(source, standard_det):
    with pytest.raises(ValueError):
        ray_hits_detector(source, [0.0, 0.0, 1.0 + 1e-9], standard_det)
    # within the unit tolerance is fine
    assert ray_hits_detector(source, [0.0, 0.0, 1.0 + 1e-13], standard_det)


def test_emission_event_validation():
    with pytest.raises(ValueError):
        EmissionEvent(x0=[0.0, 0.0, 0.0], mass=0.0)
    with pytest.raises(ValueError):
        EmissionEvent(x0=[0.0, 0.0, 0.0], mass=-1.0)
    with pytest.raises(ValueError):
        EmissionEvent(x0=[0.0, 0.0])


def test_cap_center_and_distance(source):
    det = cap_detector([0.0, 1.0, 0.0], 0.1, 19.0, 21.0, source)
    assert det.distance == pytest.approx(20.0)
    np.testing.assert_allclose(det.center, [0.0, 20.0, 0.0])
    expected_vol = det.omega * (21.0 ** 3 - 19.0 ** 3) / 3.0
    assert det.volume == pytest.approx(expected_vol, rel=1e-14)


def test_small_cones_keep_their_digits(source):
    # closed forms without the cancellation of 1 - cos: a sphere's omega is
    # 2 pi q^2 / (1 + sqrt(1 - q^2)) = pi q^2 (1 + q^2 / 4 + ...), a cap's
    # 4 pi sin^2(h / 2) = pi h^2 (1 - h^2 / 12 + ...)
    q = 1e-6 / 20.0
    sphere = sphere_detector([0.0, 0.0, 20.0], 1e-6, source)
    assert sphere.omega == pytest.approx(np.pi * q * q * (1.0 + q * q / 4.0), rel=1e-15)
    assert solid_angle(sphere, source) == sphere.omega
    assert sphere.half_angle == np.arcsin(q)
    cap = cap_detector([0.0, 0.0, 1.0], 1e-6, 19.0, 21.0, source)
    assert cap.omega == pytest.approx(np.pi * 1e-12 * (1.0 - 1e-12 / 12.0), rel=1e-15)
    point = point_detector([0.0, 0.0, 20.0], source, 1e-20)
    assert point.half_angle == pytest.approx(np.sqrt(1e-20 / np.pi), rel=1e-15)


def test_point_without_cone_has_no_solid_angle(source):
    det = point_detector([0.0, 0.0, 20.0], source)
    for query in (lambda: det.cos_cone, lambda: solid_angle(det, source),
                  lambda: ray_hits_detector(source, det.axis, det)):
        with pytest.raises(GeometryError, match="point detector has no direction cone"):
            query()


def test_point_reference_cone_solid_angle_and_hits(source):
    # the reference cone's own solid angle, not 2 pi (1 - cos(half_angle)),
    # which reads 0.010000000000000247
    det = point_detector([0.0, 0.0, 20.0], source, 0.01)
    assert solid_angle(det, source) == 0.01
    inside = det.half_angle - 1e-6
    outside = det.half_angle + 1e-6
    assert ray_hits_detector(source, [np.sin(inside), 0.0, np.cos(inside)], det)
    assert not ray_hits_detector(source, [np.sin(outside), 0.0, np.cos(outside)], det)
    with pytest.raises(GeometryError, match="different source position"):
        solid_angle(det, EmissionEvent(x0=[1.0, 0.0, 0.0]))
