import dataclasses

import numpy as np
import pytest

import qarrival as qa
from qarrival import GeometryError, IntegrationError, QuadratureSpec, TimeGridSpec
from qarrival import probability as prob
from qarrival import wavepacket as wp
from qarrival.geometry import point_detector
from qarrival.quadrature import semiinfinite_profile

from conftest import tabulated_gaussian_amplitude


def test_direction_probability_full_sphere(iso_amp, sep_amp, source):
    det = qa.cap_detector([0.0, 0.0, 1.0], np.pi, 19.0, 21.0, source)
    assert qa.direction_probability(iso_amp, det, source) == pytest.approx(1.0, abs=1e-10)
    assert qa.direction_probability(sep_amp, det, source) == pytest.approx(1.0, abs=1e-8)


def test_direction_probability_isotropic_cap(iso_amp, standard_det, source):
    expected = standard_det.omega / (4.0 * np.pi)
    assert qa.direction_probability(iso_amp, standard_det, source) == \
        pytest.approx(expected, rel=1e-12)


def test_direction_probability_concentrated(sep_amp, source):
    # angular spread 0.0375 rad, cone half-angle 0.15 rad: 4 sigma inside.
    # frozen reference minted by tests/mint_fixtures.py
    det = qa.sphere_detector([0.0, 0.0, 20.0], 20.0 * np.sin(0.15), source)
    value = qa.direction_probability(sep_amp, det, source)
    assert value >= 0.99
    assert value == pytest.approx(0.99965841356581531, abs=3 * 2.214e-05)


@pytest.mark.parametrize("angular_sigma, radius", [(0.002, 18.0), (0.003, 15.0)])
def test_direction_probability_narrow_beam_inside_sphere(source, angular_sigma, radius):
    # the whole beam lies deep inside the cone; a rule in cos theta about the
    # detector axis puts no node inside a beam that spans ~sigma^2 of cos theta
    amp = qa.separable_gaussian(5.0, 0.5, [0.0, 0.0, 1.0], angular_sigma)
    det = qa.sphere_detector([0.0, 0.0, 20.0], radius, source)
    assert abs(qa.direction_probability(amp, det, source) - 1.0) <= 1e-9


@pytest.mark.parametrize("beam_axis", [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
def test_direction_probability_small_sphere(iso_amp, source, beam_axis):
    # a cone of half-angle 5e-8: omega / 4 pi for an isotropic packet, and
    # omega times the beam's angular density along the line of sight
    det = qa.sphere_detector([0.0, 0.0, 20.0], 1e-6, source)
    assert qa.direction_probability(iso_amp, det, source) == \
        pytest.approx(6.25e-16, rel=1e-14)
    amp = qa.separable_gaussian(5.0, 0.5, beam_axis, 0.04)
    density = float(np.abs(amp.angular_profile(beam_axis[2])) ** 2) \
        / wp.angular_weight_integral(amp)
    assert qa.direction_probability(amp, det, source) == \
        pytest.approx(det.omega * density, rel=1e-9)


def test_direction_probability_requires_normalized(source, standard_det):
    raw = dataclasses.replace(wp.isotropic_gaussian(5.0, 0.5), scale=1.0)
    with pytest.raises(ValueError):
        qa.direction_probability(raw, standard_det, source)


def test_conditional_trivia(iso_amp, standard_det, source):
    assert qa.conditional_entry_probability(iso_amp, standard_det, source, 0.0) == 0.0
    curve = qa.build_entry_curve(iso_amp, standard_det, source)
    t_max = curve.denominator.t_max
    end = qa.conditional_entry_probability(iso_amp, standard_det, source, t_max)
    assert abs(end - 1.0) <= QuadratureSpec().eps_tail


def test_conditional_matches_minted_oracle(iso_amp, standard_det, source):
    # frozen by tests/mint_fixtures.py; the oracle bar gets a 3x allowance
    # because its four resolution axes are doubled together
    value = qa.conditional_entry_probability(iso_amp, standard_det, source, 4.0)
    assert value == pytest.approx(0.60454989802590176, abs=3 * 1.568e-05)
    assert 0.0 < value < 1.0


def test_conditional_crosses_half_near_classical_flight(iso_amp, standard_det, source):
    curve = qa.build_entry_curve(iso_amp, standard_det, source)
    crossing = float(np.interp(0.5, curve.p_conditional, curve.t))
    assert abs(crossing - 4.0) <= 0.5


def test_entry_probability_product(iso_amp, standard_det, source):
    assert qa.entry_probability(iso_amp, standard_det, source, 0.0) == 0.0
    p_dir = qa.direction_probability(iso_amp, standard_det, source)
    cond = qa.conditional_entry_probability(iso_amp, standard_det, source, 4.0)
    combined = qa.entry_probability(iso_amp, standard_det, source, 4.0)
    assert combined == pytest.approx(p_dir * cond, rel=1e-14)


def test_isotropic_limit(iso_amp, standard_det, source):
    curve = qa.build_entry_curve(iso_amp, standard_det, source)
    target = standard_det.omega / (4.0 * np.pi)
    spec = QuadratureSpec()
    allowance = max(spec.eps_tail * target, spec.rtol * target)
    assert abs(curve.p_entry[-1] - target) <= allowance


def test_single_sample_grid(iso_amp, standard_det, source):
    curve = qa.build_entry_curve(iso_amp, standard_det, source,
                                 grid=TimeGridSpec(t_end=0.0))
    assert curve.t.shape == (1,)
    assert curve.p_entry[0] == 0.0


def test_refined_grid_agrees_at_shared_nodes(iso_amp, standard_det, source):
    quad = QuadratureSpec(dt=0.01)
    coarse = qa.build_entry_curve(iso_amp, standard_det, source, quad,
                                  TimeGridSpec(dt=0.08, t_end=12.0))
    fine = qa.build_entry_curve(iso_amp, standard_det, source, quad,
                                TimeGridSpec(dt=0.04, t_end=12.0))
    np.testing.assert_allclose(fine.p_entry[::2], coarse.p_entry,
                               rtol=0.0, atol=1e-9)


def test_curve_monotone_reaches_direction_factor(iso_amp, standard_det, source):
    curve = qa.build_entry_curve(iso_amp, standard_det, source)
    assert np.all(np.diff(curve.p_entry) >= 0.0)
    spec = QuadratureSpec()
    assert curve.p_entry[-1] >= curve.p_direction * (1.0 - spec.eps_tail)
    assert np.all((curve.p_entry >= 0.0) & (curve.p_entry <= 1.0))


def test_factorization_pointwise(standard_curve):
    np.testing.assert_allclose(
        standard_curve.p_entry,
        standard_curve.p_direction * standard_curve.p_conditional,
        rtol=0.0, atol=1e-12)


def test_conditional_scale_invariance(standard_det, source):
    base = tabulated_gaussian_amplitude()
    scaled = dataclasses.replace(base, scale=base.scale * 2.0)
    a = qa.conditional_entry_probability(base, standard_det, source, 4.0)
    b = qa.conditional_entry_probability(scaled, standard_det, source, 4.0)
    assert b == pytest.approx(a, rel=1e-12)
    # a non-unimodular rescale breaks normalization, so the direction factor
    # refuses it; a pure phase leaves it untouched
    with pytest.raises(ValueError):
        qa.direction_probability(scaled, standard_det, source)
    rotated = dataclasses.replace(
        base, radial_values=base.radial_values * np.exp(0.7j))
    assert qa.direction_probability(rotated, standard_det, source) == \
        pytest.approx(qa.direction_probability(base, standard_det, source), rel=1e-12)


def test_point_curve_basics(narrow_curve):
    assert narrow_curve.p_direction == 1.0
    assert narrow_curve.p_entry[0] == 0.0
    assert abs(narrow_curve.p_conditional[-1] - 1.0) <= QuadratureSpec().eps_tail
    assert np.all(np.diff(narrow_curve.p_conditional) >= 0.0)


def test_point_curve_window_matches_reference(narrow_curve):
    # frozen by tests/mint_fixtures.py: the conditional curve rises through
    # 10/50/90 percent at 17.42 / 19.995 / 22.575
    dt = narrow_curve.dt
    for q, expected in ((0.1, 17.42), (0.5, 19.995), (0.9, 22.575)):
        crossing = float(np.interp(q, narrow_curve.p_conditional, narrow_curve.t))
        assert abs(crossing - expected) <= max(2.0 * dt, 1e-2)


def test_point_curve_reference_solid_angle(iso_amp, source):
    # the reference cone's own solid angle, not one recomputed from its
    # half-angle through cos(arccos(.)), which is off by up to 1.2e-13
    for omega in (0.002, 0.01, 0.3):
        curve = qa.point_detector_curve(iso_amp, [0.0, 0.0, 20.0], source,
                                        reference_solid_angle=omega)
        assert curve.p_direction == pytest.approx(omega / (4.0 * np.pi), rel=1e-15)


@pytest.mark.parametrize("omega", [None, 0.01])
def test_point_curve_is_entry_curve_of_point_geometry(sep_amp, source, omega):
    x = [0.0, 3.0, 20.0]
    built = qa.build_entry_curve(sep_amp, point_detector(x, source, omega), source)
    point = qa.point_detector_curve(sep_amp, x, source, reference_solid_angle=omega)
    assert built.p_direction == point.p_direction
    if omega is None:
        assert built.p_direction == 1.0
    assert built.denominator == point.denominator
    for name in ("t", "p_conditional", "p_entry"):
        np.testing.assert_array_equal(getattr(built, name), getattr(point, name))


def test_point_detector_at_source_rejected(iso_amp, source):
    with pytest.raises(GeometryError, match="coincides with the source"):
        point_detector([0.0, 0.0, 0.0], source)
    with pytest.raises(GeometryError):
        qa.point_detector_curve(iso_amp, [0.0, 0.0, 0.0], source)
    with pytest.raises(GeometryError):
        qa.point_detector_curve(iso_amp, [0.0, 0.0, 0.0], source,
                                reference_solid_angle=0.01)


@pytest.mark.parametrize("omega", [0.0, -0.1, 4.0 * np.pi + 1e-9, np.inf])
def test_point_reference_solid_angle_range(source, omega):
    with pytest.raises(ValueError, match="reference_solid_angle"):
        point_detector([0.0, 0.0, 20.0], source, omega)


def test_unconverged_denominator_surfaces(iso_amp, standard_det, source):
    tight = QuadratureSpec(dt=0.01, t_cap=1.0)
    with pytest.raises(IntegrationError):
        qa.build_entry_curve(iso_amp, standard_det, source, tight)
    curve = qa.build_entry_curve(iso_amp, standard_det, source, tight,
                                 allow_unconverged=True)
    assert not curve.denominator.converged


def stopped_profiles(amp, det, source, quad=QuadratureSpec()):
    """A run's occupation profile, the same windows run on a fresh curve
    with the Plancherel certificate off (`full_mass` unknown) to a time cap
    of 4 times the run's end, and the full mass: (profile, (tau, values,
    cumulative, result), full_mass)."""
    p_direction = qa.direction_probability(amp, det, source, quad)
    quad = prob.resolve_time_controls(amp, source, det.distance, det.extent_along_axis,
                                      quad, 1.0 if det.kind == "point" else p_direction)
    on = prob._occupation_profile(wp.detector_occupation(amp, det, source, quad),
                                  source, quad)
    curve = wp.detector_occupation(amp, det, source, quad)
    off = semiinfinite_profile(curve, dataclasses.replace(quad, t_cap=4.0 * on.result.t_max),
                               full_mass=np.inf, band=curve.band, mass_error=curve.mass_error)
    assert off[3].t_max == 4.0 * on.result.t_max
    np.testing.assert_array_equal(on.cumulative, off[2][:on.cumulative.size])
    return on, off, curve.full_mass


@pytest.mark.parametrize("case", ["iso", "sep", "tab", "narrow"])
def test_profile_stops_on_plancherel_certificate(iso_amp, sep_amp, narrow_amp,
                                                 standard_det, source, case):
    # the benchmark's scenarios: the certificate fires within the first
    # windows, and its bound holds the forward mass of the next two windows
    amp, det = {"iso": (iso_amp, standard_det), "sep": (sep_amp, standard_det),
                "tab": (tabulated_gaussian_amplitude(),
                        point_detector([0.0, 0.0, 30.0], source)),
                "narrow": (narrow_amp, point_detector([0.0, 0.0, 100.0], source))}[case]
    on, (_, _, _, off), _ = stopped_profiles(amp, det, source)
    assert on.result.converged and not off.converged
    assert off.value - on.result.value <= on.result.error_estimate \
        <= QuadratureSpec().eps_tail * on.result.value


def test_profile_certifies_mass_before_emission(iso_amp, source):
    # two widths of the emitted packet from the source, the occupation holds
    # mass before the emission, which the full mass counts too: the profile
    # integrates mirrored windows as well and certifies its forward sum,
    # which is the uncertified run's (`stopped_profiles` compares them)
    on, (_, _, _, off), full_mass = stopped_profiles(
        iso_amp, point_detector([0.0, 0.0, 2.0], source), source)
    assert full_mass > 1.01 * on.result.value
    assert on.result.converged and on.result.t_max < 9.0
    # the bound holds the forward mass past the stop
    assert off.value - on.result.value <= on.result.error_estimate \
        <= QuadratureSpec().eps_tail * on.result.value


def test_vanishing_full_mass_raises_before_any_window(source):
    calls = []

    class Vanishing:
        full_mass, band, error_rel = 0.0, 1.0, 0.0

        def mass_error(self, length):
            return 0.0

        def __call__(self, taus):
            calls.append(taus)
            return np.ones_like(taus)

    with pytest.raises(IntegrationError, match="detector occupation vanishes"):
        prob._occupation_profile(Vanishing(), source, QuadratureSpec(dt=0.01, t_cap=10.0))
    assert calls == []


def test_coarse_step_is_refined_within_band(iso_amp, source):
    # h * band = 12 at dt = 0.3: the profile steps at dt / 3 and certifies,
    # and the arrival statistics, read on the dt grid, keep the default run's
    x_det = [0.0, 0.0, 20.0]
    coarse = qa.mean_arrival_time(iso_amp, x_det, source, QuadratureSpec(dt=0.3))
    fine = qa.mean_arrival_time(iso_amp, x_det, source)
    assert coarse.normalizer.converged
    assert fine.mean_time == pytest.approx(3.92233, rel=1e-6)
    assert coarse.mean_time == pytest.approx(fine.mean_time, rel=1e-5)


def test_time_before_emission_rejected(iso_amp, standard_det, source):
    with pytest.raises(ValueError):
        qa.conditional_entry_probability(iso_amp, standard_det, source, -1.0)


@pytest.mark.parametrize("conditional, p_direction, t0", [
    ([0.0, 0.6, 0.4, 1.0], 1.0, 0.0),     # decreasing
    ([0.0, 0.5, 1.2, 1.2], 1.0, 0.0),     # leaves [0, 1]
    ([0.1, 0.5, 0.8, 1.0], 1.0, 0.0),     # nonzero start
])
def test_curve_invariant_failures_are_numerical(conditional, p_direction, t0):
    with pytest.raises(IntegrationError):
        qa.EntryProbabilityCurve(
            t=t0 + np.arange(4.0), p_direction=p_direction,
            p_conditional=np.array(conditional),
            denominator=qa.SemiInfiniteResult(1.0, 0.0, t0 + 3.0, True))
