import numpy as np
import pytest

import qarrival as qa
from qarrival import DetectorState, SemiInfiniteResult
from qarrival.probability import EntryProbabilityCurve
from qarrival.detector import CouplingSchedule


def synthetic_curve(t, conditional, p_direction=1.0):
    conditional = np.asarray(conditional, dtype=float)
    return EntryProbabilityCurve(
        t=np.asarray(t, dtype=float), p_direction=p_direction,
        p_conditional=conditional,
        denominator=SemiInfiniteResult(1.0, 0.0, float(t[-1]), True),
        dt=float(t[1] - t[0]))


def synthetic_schedule(t, angle, k=0.9):
    t = np.asarray(t, dtype=float)
    angle = np.asarray(angle, dtype=float)
    rate = qa.differentiate_sampled(angle, t[1] - t[0])
    curve = synthetic_curve(t, np.clip(np.sin(angle) ** 2 / k, 0.0, 1.0))
    return CouplingSchedule(k=k, angle=angle, rate=rate,
                            entry_rate=np.zeros_like(t), curve=curve)


def reference_rk4_step(c0, c1, a0, a_mid, a1, h):
    k1_0 = -1j * a0 * c1
    k1_1 = -1j * a0 * c0
    y0 = c0 + 0.5 * h * k1_0
    y1 = c1 + 0.5 * h * k1_1
    k2_0 = -1j * a_mid * y1
    k2_1 = -1j * a_mid * y0
    y0 = c0 + 0.5 * h * k2_0
    y1 = c1 + 0.5 * h * k2_1
    k3_0 = -1j * a_mid * y1
    k3_1 = -1j * a_mid * y0
    y0 = c0 + h * k3_0
    y1 = c1 + h * k3_1
    k4_0 = -1j * a1 * y1
    k4_1 = -1j * a1 * y0
    return (c0 + (h / 6.0) * (k1_0 + 2.0 * (k2_0 + k3_0) + k4_0),
            c1 + (h / 6.0) * (k1_1 + 2.0 * (k2_1 + k3_1) + k4_1))


def reference_integrate_interval(c0, c1, a_lo, slope, h, local_tol):
    """Scalar step doubling on one interval: (c0, c1, substeps accepted)."""
    substeps = 1
    prev = None
    for _ in range(8):
        u0, u1 = c0, c1
        hs = h / substeps
        for j in range(substeps):
            ta = j * hs
            u0, u1 = reference_rk4_step(u0, u1, a_lo + slope * ta,
                                        a_lo + slope * (ta + 0.5 * hs),
                                        a_lo + slope * (ta + hs), hs)
        if prev is not None and abs(u0 - prev[0]) + abs(u1 - prev[1]) <= local_tol:
            return u0, u1, substeps
        prev = (u0, u1)
        substeps *= 2
    raise RuntimeError("detector propagation step size underflow")


def reference_states(sched, t_end=None, local_tol=1e-9):
    """The per-interval scalar RK4 loop on (c0, c1) that the vectorized
    closure replaces: states at the nodes up to t_end (the last interval cut
    at t_end with the full interval's slope) and the substeps each took."""
    grid, rate = sched.t.tolist(), sched.rate.tolist()
    t_end = grid[-1] if t_end is None else t_end
    c0, c1 = 1.0 + 0.0j, 0.0 + 0.0j
    states, substeps = [(c0, c1)], []
    for i in range(len(grid) - 1):
        if grid[i] >= t_end:
            break
        slope = (rate[i + 1] - rate[i]) / (grid[i + 1] - grid[i])
        c0, c1, n = reference_integrate_interval(
            c0, c1, rate[i], slope, min(grid[i + 1], t_end) - grid[i], local_tol)
        states.append((c0, c1))
        substeps.append(n)
    return np.array(states), np.array(substeps)


def steep_schedule():
    """5000 intervals; the angle rises in two tanh steps about 12 intervals
    wide, one on each side of node 4096."""
    t = np.linspace(0.0, 10.0, 5001)
    steps = np.tanh((t - 4.0) / 0.01) + np.tanh((t - 9.0) / 0.01)
    return synthetic_schedule(t, 0.3 * (2.0 + steps))


def test_zero_entry_gives_zero_coupling():
    t = np.linspace(0.0, 1.0, 11)
    sched = qa.coupling_schedule(synthetic_curve(t, np.zeros(11)), 0.5)
    np.testing.assert_array_equal(sched.angle, 0.0)
    np.testing.assert_array_equal(sched.rate, 0.0)


def test_half_entry_angle():
    t = np.linspace(0.0, 1.0, 101)
    ramp = np.clip(t, 0.0, 1.0)
    sched = qa.coupling_schedule(synthetic_curve(t, ramp), 0.5)
    i = 50
    assert ramp[i] == 0.5
    assert sched.angle[i] == pytest.approx(np.pi / 6.0, rel=1e-14)


def test_angle_pins_registration_to_entry(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    np.testing.assert_allclose(np.sin(sched.angle) ** 2,
                               0.5 * standard_curve.p_entry,
                               rtol=0.0, atol=1e-10)
    assert sched.angle[0] == 0.0
    assert np.all(np.diff(sched.angle) >= 0.0)
    assert sched.angle.max() <= np.arcsin(np.sqrt(0.5))


def test_rate_peaks_near_classical_flight(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    t_peak = sched.t[np.argmax(sched.rate)]
    assert 2.0 <= t_peak <= 6.0
    assert abs(sched.rate[0]) <= 1e-6 * sched.rate.max()
    assert abs(sched.rate[-1]) <= 1e-6 * sched.rate.max()


def test_closed_form_initial_state():
    t = np.linspace(0.0, 1.0, 11)
    sched = qa.coupling_schedule(synthetic_curve(t, np.zeros(11)), 0.5)
    state = qa.evolve_closed_form(sched, 0.0)
    assert state.c0 == 1.0
    assert state.c1 == 0.0


def test_closed_form_quarter_rotation():
    sched = synthetic_schedule(np.linspace(0.0, 1.0, 5),
                               [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2],
                               k=1.0 - 1e-12)
    state = qa.evolve_closed_form(sched, 1.0)
    assert abs(state.c0) <= 1e-12
    assert state.c1 == pytest.approx(-1j, abs=1e-12)


def test_closed_form_sixth_rotation():
    sched = synthetic_schedule(np.linspace(0.0, 1.0, 5),
                               [0.0, np.pi / 24, np.pi / 12, np.pi / 8, np.pi / 6])
    state = qa.evolve_closed_form(sched, 1.0)
    assert state.c0 == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-14)
    assert state.c1 == pytest.approx(-0.5j, abs=1e-14)


def test_ode_zero_rate_stays_idle():
    t = np.linspace(0.0, 2.0, 21)
    sched = qa.coupling_schedule(synthetic_curve(t, np.zeros(21)), 0.5)
    state = qa.evolve_ode(sched, 2.0)
    assert state.c0 == 1.0 + 0.0j
    assert state.c1 == 0.0 + 0.0j


def test_ode_constant_rate_rabi_rotation():
    a = 0.45
    t = np.linspace(0.0, 2.0, 201)
    sched = synthetic_schedule(t, a * t, k=1.0 - 1e-12)
    state = qa.evolve_ode(sched, 2.0)
    assert state.c0 == pytest.approx(np.cos(2.0 * a), abs=1e-9)
    assert state.c1 == pytest.approx(-1j * np.sin(2.0 * a), abs=1e-9)


def test_ode_trajectory_matches_scalar_reference(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    reference, _ = reference_states(sched)
    assert np.max(np.abs(qa.evolve_ode_trajectory(sched) - reference)) <= 1e-12


def test_ode_trajectory_matches_reference_across_blocks():
    sched = steep_schedule()
    reference, substeps = reference_states(sched)
    assert sched.t.size - 1 > 4096
    assert substeps.min() == 2 and substeps.max() >= 4
    assert np.max(np.abs(qa.evolve_ode_trajectory(sched) - reference)) <= 1e-12
    t_mid = 0.3 * sched.t[4499] + 0.7 * sched.t[4500]
    state = qa.evolve_ode(sched, t_mid)
    expected = reference_states(sched, t_mid)[0][-1]
    assert abs(state.c0 - expected[0]) + abs(state.c1 - expected[1]) <= 1e-12


def test_ode_matches_closed_form_on_standard_scenario(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    states = qa.evolve_ode_trajectory(sched)
    closed = np.column_stack([np.cos(sched.angle), -1j * np.sin(sched.angle)])
    distance = np.max(np.linalg.norm(states - closed, axis=1))
    assert distance <= 1e-7


def test_unitarity(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    closed_norms = np.cos(sched.angle) ** 2 + np.sin(sched.angle) ** 2
    assert np.max(np.abs(closed_norms - 1.0)) <= 1e-15
    states = qa.evolve_ode_trajectory(sched)
    norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_registration_probability_values(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    assert qa.registration_probability(sched, 0.0) == 0.0
    quarter = synthetic_schedule(np.linspace(0.0, 1.0, 5),
                                 [0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4])
    assert qa.registration_probability(quarter, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_registration_isotropic_limit(standard_curve, standard_det):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    target = 0.5 * standard_det.omega / (4.0 * np.pi)
    spec = qa.QuadratureSpec()
    assert qa.registration_probability(sched, sched.t[-1]) == \
        pytest.approx(target, rel=10 * spec.eps_tail)


def test_irreversibility_surrogate(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    p_reg = np.sin(sched.angle) ** 2
    assert np.all(np.diff(p_reg) >= 0.0)
    assert np.all(p_reg <= np.maximum.accumulate(p_reg) + 1e-300)
    assert np.all((sched.angle >= 0.0) & (sched.angle <= sched.angle_max))


def test_registration_bounded_by_entry(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    assert np.all(np.sin(sched.angle) ** 2 <= standard_curve.p_entry + 1e-15)


def test_consistency_loop(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    closure = qa.ode_consistency(sched)
    assert closure["consistency_residual_max"] <= 1e-6
    assert closure["unitarity_residual_max"] <= 1e-9


def test_coupling_validation(standard_curve):
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            qa.coupling_schedule(standard_curve, bad)


def test_state_validation():
    with pytest.raises(ValueError):
        DetectorState(1.0, 0.5)
    state = DetectorState(np.sqrt(0.5), -1j * np.sqrt(0.5))
    assert state.p_triggered == pytest.approx(0.5)


def test_time_outside_grid_rejected(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    with pytest.raises(ValueError):
        qa.evolve_closed_form(sched, -1.0)
    with pytest.raises(ValueError):
        qa.evolve_ode(sched, sched.t[-1] + 1.0)


def test_schedule_csv(tmp_path, standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    path = tmp_path / "schedule.csv"
    sched.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,rate,angle,p_registered,entry_rate"
