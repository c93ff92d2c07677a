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
from qarrival.scenario import (_KEYS, _SWEEPABLE, Scenario,  # noqa: E402
                               ScenarioAmplitude, ScenarioDetector,
                               ScenarioEmission, apply_parameter)

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
    polar_nodes=st.integers(1, 64), azimuth_nodes=st.integers(1, 64),
    dt=optional(positive), eps_tail=open_unit, t_cap=optional(positive),
    rtol=positive)

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


# a valid scenario of each kind a ranged key belongs to
TEMPLATES = {
    "sphere": "detector.center = 0 0 20\ndetector.radius = 0.5\n",
    "separable": "amplitude.kind = separable\namplitude.axis = 0 0 1\n"
                 "amplitude.angular_sigma = 0.1\ndetector.position = 0 0 20\n",
    "cap": "detector.kind = cap\ndetector.axis = 0 0 1\ndetector.half_angle = 0.1\n"
           "detector.r_inner = 19\ndetector.r_outer = 21\n",
    "point": "detector.position = 0 0 20\ndetector.reference_solid_angle = 0.01\n",
}


def real(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


nonpositive = real(max_value=0.0)


# every ranged key: its template and the values outside its range
OUT_OF_RANGE = {
    "emission.mass": ("sphere", nonpositive),
    "amplitude.p0": ("sphere", nonpositive),
    "amplitude.sigma_p": ("sphere", nonpositive),
    "amplitude.angular_sigma": ("separable", nonpositive),
    "detector.radius": ("sphere", nonpositive),
    "detector.half_angle": ("cap", nonpositive | real(min_value=np.pi, exclude_min=True)),
    "detector.reference_solid_angle": ("point", nonpositive
                                       | real(min_value=4.0 * np.pi, exclude_min=True)),
    "coupling.k": ("sphere", nonpositive | real(min_value=1.0)),
    "quadrature.polar_nodes": ("sphere", st.integers(max_value=0)),
    "quadrature.azimuth_nodes": ("sphere", st.integers(max_value=0)),
    "quadrature.dt": ("sphere", nonpositive),
    "quadrature.eps_tail": ("sphere", nonpositive | real(min_value=1.0)),
    "quadrature.t_cap": ("sphere", nonpositive),
    "quadrature.rtol": ("sphere", nonpositive),
    "grid.dt": ("sphere", nonpositive),
}


def out_of_range(keys):
    return st.sampled_from(sorted(keys)).flatmap(
        lambda key: st.tuples(st.just(key), OUT_OF_RANGE[key][1]))


def with_value(template: str, key: str, value) -> str:
    lines = [line for line in TEMPLATES[template].splitlines()
             if line.partition(" = ")[0] != key]
    return "\n".join(lines + [f"{key} = {value!r}"]) + "\n"


@EXAMPLES
@given(out_of_range(OUT_OF_RANGE))
def test_out_of_range_value_names_key(case):
    key, value = case
    with pytest.raises(ScenarioError) as err:
        qa.parse_scenario_text(with_value(OUT_OF_RANGE[key][0], key, value))
    assert err.value.field == key



@EXAMPLES
@given(out_of_range(set(OUT_OF_RANGE) & _SWEEPABLE.keys()))
def test_out_of_range_sweep_value_names_key(case):
    key, value = case
    template = qa.parse_scenario_text(TEMPLATES[OUT_OF_RANGE[key][0]])
    with pytest.raises(ScenarioError) as err:
        apply_parameter(template, key, float(value))
    assert err.value.field == key
