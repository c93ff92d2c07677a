"""The Plancherel tail certificate of the occupation profile, judged by the
profile itself run without it.

`OccupationCurve.full_mass` is the integral of the occupation over all
elapsed times, known from the momentum coefficients alone.  A profile that
stops on it claims that the mass it has not integrated is at most its
`error_estimate`.  Hypothesis draws point and volume detectors (spheres and
source-centred caps) with gaussian, separable and kinked tabulated
amplitudes, the latter with and without an angular table, and runs each
profile twice on fresh curves: once as a run does, and once with the
certificate off (`full_mass=inf`), which continues to a time cap of 4 times
the first one's end.  Both lay out the same windows, so the second measures
the forward mass the first left out.  Where the second cannot finish (its
radial rule outgrows the node budget), only the first check is made.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import qarrival as qa  # noqa: E402
from qarrival.errors import IntegrationError  # noqa: E402
from qarrival import probability as prob  # noqa: E402
from qarrival import wavepacket as wp  # noqa: E402
from qarrival.geometry import point_detector  # noqa: E402
from qarrival.quadrature import QuadratureSpec, semiinfinite_profile  # noqa: E402
from test_oracle_properties import _unit_vector, gaussian_kinds, kinked_tables  # noqa: E402

unit = st.floats(min_value=0.0, max_value=1.0)
coord = st.floats(min_value=-10.0, max_value=10.0)


@st.composite
def angular_tables(draw, sight: np.ndarray):
    """A kinked radial table with a piecewise-linear angular table about an
    axis within 0.3 rad of the line of sight."""
    radial = draw(kinked_tables())
    knots = draw(st.integers(2, 6))
    cos_grid = np.linspace(-1.0, 1.0, knots)
    values = np.array(draw(st.lists(unit, min_size=knots, max_size=knots)))
    values[-1] = max(values[-1], 0.2)
    other = _unit_vector(draw)
    perp = np.cross(sight, other)
    hypothesis.assume(np.linalg.norm(perp) > 0.1)
    alpha = 0.3 * draw(unit)
    axis = np.cos(alpha) * sight + np.sin(alpha) * perp / np.linalg.norm(perp)
    return wp.tabulated(radial.p_grid, radial.radial_values, cos_grid, values, axis)


@st.composite
def cases(draw, volume: bool):
    sight = _unit_vector(draw)
    amp = draw(st.one_of(gaussian_kinds(sight), kinked_tables(), angular_tables(sight)))
    source = qa.EmissionEvent(x0=[draw(coord) for _ in range(3)],
                              t0=draw(st.floats(-5.0, 5.0)),
                              mass=draw(st.floats(min_value=0.5, max_value=4.0)))
    distance = draw(st.floats(min_value=5.0, max_value=40.0))
    quad = QuadratureSpec(polar_nodes=draw(st.integers(2, 6)),
                          azimuth_nodes=draw(st.integers(2, 6)))
    if not volume:
        return amp, point_detector(source.x0 + distance * sight, source), source, quad
    if draw(st.booleans()):
        radius = distance * draw(st.floats(min_value=0.005, max_value=0.3))
        return amp, qa.sphere_detector(source.x0 + distance * sight, radius, source), \
            source, quad
    det = qa.cap_detector(sight, draw(st.floats(min_value=0.01, max_value=0.5)),
                          distance, distance + draw(st.floats(min_value=0.2, max_value=5.0)),
                          source)
    return amp, det, source, quad


def check_certificate(amp, det, source, quad):
    point = det.kind == "point"
    p_direction = qa.direction_probability(amp, det, source, quad)
    quad = prob.resolve_time_controls(amp, source, det.distance, det.extent_along_axis,
                                      quad, 1.0 if point else p_direction)
    on = prob._occupation_profile(wp.detector_occupation(amp, det, source, quad),
                                  source, quad)
    curve = wp.detector_occupation(amp, det, source, quad)
    # the mass over all times holds the forward mass
    assert curve.full_mass >= on.result.value * (1.0 - 1e-12), (curve.full_mass, on.result)
    try:
        _, _, cumulative, off = semiinfinite_profile(
            curve, replace(quad, t_cap=min(quad.t_cap, 4.0 * on.result.t_max)),
            full_mass=np.inf, band=curve.band, mass_error=curve.mass_error)
    except IntegrationError:
        # the later windows can take the radial rule past the node budget:
        # no judge then
        hypothesis.event("uncertified run past its radial budget")
        return
    hypothesis.assume(off.value > 0.0)
    assert curve.full_mass >= off.value * (1.0 - 1e-12), (curve.full_mass, off)
    # both runs sample the same windows up to the earlier stop
    np.testing.assert_array_equal(on.cumulative, cumulative[:on.cumulative.size])
    if on.result.converged:
        assert on.result.error_estimate <= quad.eps_tail * on.result.value
    if on.result.t_max < off.t_max:
        hypothesis.event("certified stop")
        assert on.result.converged
        # the certified bound holds the forward mass it left out
        assert on.result.error_estimate >= off.value - on.result.value, (on.result, off)
        assert abs(on.result.value / off.value - 1.0) <= quad.eps_tail
    if on.result.converged:
        entry = prob._curve_rows(on, p_direction, None, min_samples=3).whole()
        assert abs(entry.p_conditional[-1] - 1.0) <= quad.eps_tail


@settings(max_examples=12, deadline=None, database=None)
@given(cases(volume=False))
def test_point_certificate_is_sound(case):
    check_certificate(*case)


@settings(max_examples=8, deadline=None, database=None)
@given(cases(volume=True))
def test_volume_certificate_is_sound(case):
    check_certificate(*case)
