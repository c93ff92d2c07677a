"""Where the default output grid ends: at the first quadrature step past
which at most float64 eps of the occupation mass remains."""

import dataclasses
import os

import numpy as np
import pytest

import qarrival as qa
from qarrival import arrival as arrival_mod
from qarrival import probability as prob
from qarrival import quadrature as quad_mod
from qarrival import scenario as scenario_mod
from qarrival import wavepacket as wp
from qarrival.cli import main as cli_main
from qarrival.geometry import point_detector
from qarrival.quadrature import SemiInfiniteResult


@pytest.fixture(scope="module")
def iso_occupation(iso_amp, source):
    det = qa.sphere_detector([0.0, 0.0, 20.0], 0.5, source)
    return prob._occupation(iso_amp, det, source)


@pytest.fixture(scope="module")
def narrow_occupation(narrow_amp, source):
    return prob._occupation(narrow_amp, point_detector([0.0, 0.0, 100.0], source), source)


@pytest.mark.parametrize("occupation, point", [("iso_occupation", False),
                                               ("narrow_occupation", True)])
def test_default_curve_is_prefix_of_full_grid(request, occupation, point):
    p_direction, profile = request.getfixturevalue(occupation)
    assert (p_direction == 1.0) == point     # a point without a cone has no direction factor
    # past the profile's end: a certified stop can leave the mass end at t_max
    full_grid = qa.TimeGridSpec(t_end=profile.t0 + 2.0 * profile.result.t_max)
    short = prob._curve_rows(profile, p_direction, None, min_samples=3).whole()
    full = prob._curve_rows(profile, p_direction, full_grid, min_samples=3).whole()
    n = short.t.size
    assert 3 <= n < full.t.size
    for name in ("t", "p_conditional", "p_entry"):
        np.testing.assert_array_equal(getattr(short, name), getattr(full, name)[:n])
    assert abs(short.p_conditional[-1] - full.p_conditional[-1]) <= qa.QuadratureSpec().eps_tail
    # the schedule's last row takes the one-sided end stencil instead
    s_short, s_full = qa.coupling_schedule(short, 0.5), qa.coupling_schedule(full, 0.5)
    for name in ("t", "angle", "rate", "entry_rate"):
        np.testing.assert_array_equal(getattr(s_short, name)[:-1],
                                      getattr(s_full, name)[:n - 1])
    np.testing.assert_array_equal(s_short.angle, s_full.angle[:n])


def synthetic_profile(values, dt=0.5, t0=2.0) -> prob.OccupationProfile:
    values = np.asarray(values, dtype=float)
    tau = dt * np.arange(values.size)
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * dt * (values[1:] + values[:-1]))))
    result = SemiInfiniteResult(value=float(cumulative[-1]), error_estimate=0.0,
                                t_max=float(tau[-1]), converged=True)
    return prob.OccupationProfile(t0=t0, dt=dt, tau=tau, values=values,
                                  cumulative=cumulative, result=result, quad_error=0.0)


def test_mass_at_first_node_keeps_three_samples():
    profile = synthetic_profile(np.r_[1.0, np.zeros(200)])
    curve = prob._curve_rows(profile, 1.0, None, min_samples=3).whole()
    assert curve.t.size == 3
    assert curve.p_conditional[-1] == 1.0


def test_slow_tail_keeps_full_grid():
    profile = synthetic_profile(1.0 / (1.0 + 0.5 * np.arange(401)))
    curve = prob._curve_rows(profile, 1.0, None, min_samples=3).whole()
    assert curve.t.size == round(profile.result.t_max / profile.dt) + 1


def test_massless_arrival_keeps_its_messages():
    # one integral of the mass serves both checks; each keeps its message
    profile = synthetic_profile(np.zeros(20))
    with pytest.raises(qa.IntegrationError, match="vanishes along the line of sight"):
        arrival_mod._arrival_rows(profile)
    with pytest.raises(qa.IntegrationError, match="has zero mass"):
        arrival_mod.stats_from_samples(profile.tau, profile.values)


@pytest.mark.parametrize("grid", [qa.TimeGridSpec(dt=0.5), qa.TimeGridSpec(t_end=102.0)])
def test_explicit_grid_keeps_integration_limit(grid):
    profile = synthetic_profile(np.r_[1.0, np.zeros(200)])
    curve = prob._curve_rows(profile, 1.0, grid, min_samples=3).whole()
    assert curve.t.size == 201
    assert curve.t[-1] == profile.t0 + profile.result.t_max


def test_volume_curve_end_is_scale_invariant(iso_amp, source):
    # the volume twin of test_arrival.py::test_scale_invariance; the
    # direction factor needs a normalized amplitude, so the profiles are
    # taken directly on the base amplitude's time controls; a sphere near
    # the source certifies its profile (tau 7.8) past the node where the
    # mass is in (5.8)
    det = qa.sphere_detector([0.0, 0.0, 5.0], 0.5, source)
    bound = qa.direction_probability(iso_amp, det, source)
    quad = prob.resolve_time_controls(iso_amp, source, det.distance, det.extent_along_axis,
                                      qa.QuadratureSpec(), bound)
    scaled = dataclasses.replace(iso_amp, scale=iso_amp.scale * 3.0)
    profiles = [prob._occupation_profile(wp.detector_occupation(amp, det, source, quad),
                                         source, quad)
                for amp in (iso_amp, scaled)]
    curves = [prob._curve_rows(profile, bound, None, min_samples=3).whole()
              for profile in profiles]
    assert curves[0].t.size < round(curves[0].denominator.t_max / quad.dt) + 1
    assert curves[1].t.size == curves[0].t.size
    np.testing.assert_allclose(curves[1].p_conditional, curves[0].p_conditional,
                               rtol=1e-12, atol=1e-15)


def test_validate_rejects_grid_before_profile(tmp_path, capsys, monkeypatch):
    calls = []
    real = quad_mod.semiinfinite_profile

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quad_mod, "semiinfinite_profile", counting)
    monkeypatch.setattr(prob, "semiinfinite_profile", counting)
    path = tmp_path / "scn.txt"
    path.write_text("amplitude.sigma_p = 0.05\ndetector.kind = point\n"
                    "detector.position = 0 0 100\ngrid.dt = 1000\n")
    assert cli_main(["validate", str(path)]) == 2
    assert "validation error: grid.dt: " in capsys.readouterr().err
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "validation error: grid.dt: " in capsys.readouterr().err
    assert calls == []


NARROW = "amplitude.sigma_p = 0.05\ndetector.kind = point\ndetector.position = 0 0 100\n"


@pytest.mark.parametrize("lines, key", [
    ("grid.dt = 1e-9\n", "grid.dt"),
    ("quadrature.dt = 1e-9\n", "quadrature.dt"),
    ("quadrature.dt = 1e-9\ngrid.dt = 1e-9\n", "grid.dt"),
    ("grid.t_end = 1e9\n", "grid.t_end"),
    ("quadrature.t_cap = 1e9\n", "quadrature.t_cap"),
    ("grid.t_end = 1e300\ngrid.dt = 1e-300\n", "grid.dt"),
])
def test_row_budget_rejects_grid_before_profile(tmp_path, capsys, monkeypatch, lines, key):
    # 1e-9 steps over the narrow scenario's t_max of 179 would lay out
    # ~1.8e11 rows: the bound check refuses them before any allocation
    calls = []
    monkeypatch.setattr(quad_mod, "semiinfinite_profile", lambda *a, **k: calls.append(1))
    monkeypatch.setattr(prob, "semiinfinite_profile", lambda *a, **k: calls.append(1))
    path = tmp_path / "scn.txt"
    path.write_text(NARROW + lines)
    assert cli_main(["validate", str(path)]) == 2
    assert f"validation error: {key}: " in capsys.readouterr().err
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"validation error: {key}: " in capsys.readouterr().err
    assert calls == []


ISO_SPHERE = "detector.kind = sphere\ndetector.center = 0 0 20\ndetector.radius = 0.5\n"


def test_row_budget_reads_the_runs_own_step(tmp_path, capsys, monkeypatch):
    # the sphere's direction factor resolves the step 0.0121098 (a direction
    # bound of 1 would give 0.00192734): an end of 20000 lays out 1,651,549
    # rows, inside the budget, and 60000 lays out 4,954,646, past it
    path = tmp_path / "scn.txt"
    path.write_text(ISO_SPHERE + "grid.t_end = 20000\n")
    assert cli_main(["validate", str(path)]) == 0
    assert scenario_mod._prepare(qa.parse_scenario(path))["curve"].size == 1651549
    assert os.listdir(tmp_path) == ["scn.txt"]
    calls = []
    monkeypatch.setattr(quad_mod, "semiinfinite_profile", lambda *a, **k: calls.append(1))
    monkeypatch.setattr(prob, "semiinfinite_profile", lambda *a, **k: calls.append(1))
    path.write_text(ISO_SPHERE + "grid.t_end = 60000\n")
    capsys.readouterr()
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: grid.t_end: the output grid of step "
                              "0.0121098 over [0, 60000] holds 4954646 samples")
    assert calls == []


@pytest.mark.parametrize("grid, quad, key", [
    (qa.TimeGridSpec(dt=1e-6), None, "grid.dt"),
    (qa.TimeGridSpec(dt=1e-6, t_end=1e9), qa.QuadratureSpec(dt=1e-6), "grid.dt"),
    (None, qa.QuadratureSpec(), "quadrature.t_cap"),
    (qa.TimeGridSpec(t_end=1e9), qa.QuadratureSpec(dt=0.5), "quadrature.dt"),
    (qa.TimeGridSpec(t_end=1e9), None, "grid.t_end"),
])
def test_row_budget_after_profile_names_key(grid, quad, key):
    # the exact check after the profile: t_max = 0.5 * 2^22 at step 0.5 is 2^22 + 1 samples
    values = np.r_[1.0, np.zeros(200)]
    profile = synthetic_profile(values)
    profile = dataclasses.replace(profile, result=dataclasses.replace(
        profile.result, t_max=0.5 * prob._MAX_GRID_ROWS))
    with pytest.raises(qa.ScenarioError) as err:
        prob._curve_rows(profile, 1.0, grid, min_samples=3, quad=quad).whole()
    assert err.value.field == key


def test_library_path_refuses_tiny_step_after_profile(iso_amp, source):
    # build_entry_curve runs no bound check before its profile; the exact
    # check after it refuses the 2^33 + 1 rows a step of 1e-9 would lay out
    with pytest.raises(qa.ScenarioError) as err:
        qa.build_entry_curve(iso_amp, point_detector([0.0, 0.0, 20.0], source), source,
                             qa.QuadratureSpec(dt=1e-9))
    assert err.value.field == "quadrature.dt"
