"""Property tests of the scenario text format: emit/parse round-trips every
valid scenario exactly, and a non-finite value is rejected by its key."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import qarrival as qa  # noqa: E402
from qarrival import ScenarioError  # noqa: E402
from qarrival.probability import TimeGridSpec  # noqa: E402
from qarrival.quadrature import QuadratureSpec  # noqa: E402
from qarrival.scenario import (Scenario, ScenarioAmplitude,  # noqa: E402
                               ScenarioDetector, ScenarioEmission, _KEYS)

EXAMPLES = settings(max_examples=100, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)
vec3 = st.tuples(finite, finite, finite)
name = st.from_regex(r"[A-Za-z0-9_./-]{1,16}", fullmatch=True)
open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def optional(strategy):
    return st.none() | strategy


emissions = st.builds(ScenarioEmission, x0=vec3, t0=finite, mass=positive)

amplitudes = st.one_of(
    st.builds(ScenarioAmplitude, kind=st.just("isotropic-gaussian"), p0=positive,
              sigma_p=positive),
    st.builds(ScenarioAmplitude, kind=st.just("separable"), p0=positive,
              sigma_p=positive, axis=vec3, angular_sigma=positive),
    st.builds(ScenarioAmplitude, kind=st.just("tabulated"), p0=st.none(),
              sigma_p=st.none(), radial_file=name, angular_file=st.none(),
              axis=optional(vec3)),
    st.builds(ScenarioAmplitude, kind=st.just("tabulated"), p0=st.none(),
              sigma_p=st.none(), radial_file=name, angular_file=name, axis=vec3),
)


@st.composite
def caps(draw):
    r_inner = draw(st.floats(min_value=1e-6, max_value=1e6))
    r_outer = draw(st.floats(min_value=r_inner, max_value=2e6, exclude_min=True))
    return ScenarioDetector(kind="cap", axis=draw(vec3),
                            half_angle=draw(st.floats(min_value=0.0, max_value=np.pi,
                                                      exclude_min=True)),
                            r_inner=r_inner, r_outer=r_outer)


detectors = st.one_of(
    st.builds(ScenarioDetector, kind=st.just("sphere"), center=vec3, radius=positive),
    caps(),
    st.builds(ScenarioDetector, kind=st.just("point"), position=vec3,
              reference_solid_angle=optional(st.floats(
                  min_value=0.0, max_value=4.0 * np.pi, exclude_min=True))),
)

quadratures = st.builds(
    QuadratureSpec,
    radial_nodes=st.integers(4, 256), radial_panels=st.integers(1, 64),
    polar_nodes=st.integers(1, 64), azimuth_nodes=st.integers(1, 64),
    dt=optional(positive), eps_tail=open_unit, t_cap=optional(positive),
    rtol=positive, p_max=optional(finite))

scenarios = st.builds(
    Scenario, emission=emissions, amplitude=amplitudes, detector=detectors,
    coupling_k=open_unit, quadrature=quadratures,
    grid=st.builds(TimeGridSpec, dt=optional(positive), t_end=optional(finite)),
    output_dir=optional(name))


@EXAMPLES
@given(scenarios)
def test_emit_parse_round_trip(s):
    assert qa.parse_scenario_text(qa.emit_scenario(s)) == s


NUMERIC_KEYS = sorted(key for key, kind in _KEYS.items() if kind in ("float", "vec3"))
non_finite = st.sampled_from(["nan", "inf", "-inf", "NaN", "+Infinity", "1e999"])


@EXAMPLES
@given(scenarios, st.sampled_from(NUMERIC_KEYS), non_finite, finite,
       st.integers(0, 2))
def test_non_finite_value_names_key(s, key, bad, filler, slot):
    if _KEYS[key] == "vec3":
        parts = [repr(filler)] * 3
        parts[slot] = bad
        bad = " ".join(parts)
    lines = [line for line in qa.emit_scenario(s).splitlines()
             if line.partition(" = ")[0] != key]
    lines.append(f"{key} = {bad}")
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text("\n".join(lines))
    assert err.value.field == key
    assert "finite" in str(err.value)
