"""Acceptance suite.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible under
`pytest -s`) and then asserts the same condition, so the suite both reports
and gates.  Frozen reference numbers come from tests/fixtures/
oracle_reports.json, minted by the brute-force reference implementations in
tests/mint_fixtures.py.
"""

import json
import time

import numpy as np
import pytest

import qarrival as qa
from qarrival import QuadratureSpec
from qarrival import wavepacket as wp

from conftest import bimodal_amplitude, tabulated_gaussian_amplitude


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} - {detail}")


@pytest.fixture(scope="module")
def source():
    return qa.EmissionEvent(x0=[0.0, 0.0, 0.0], t0=0.0, mass=1.0)


@pytest.fixture(scope="module")
def iso_amp():
    return qa.isotropic_gaussian(5.0, 0.5)


@pytest.fixture(scope="module")
def standard_det(source):
    return qa.sphere_detector([0.0, 0.0, 20.0], 0.5, source)


@pytest.fixture(scope="module")
def standard_curve(iso_amp, standard_det, source):
    # default (auto-resolved) quadrature controls; computes its own
    # occupation profile, as every public builder call does
    return qa.build_entry_curve(iso_amp, standard_det, source)


def test_criterion_1_isotropic_limit(iso_amp, standard_det, source):
    start = time.perf_counter()
    curve = qa.build_entry_curve(iso_amp, standard_det, source)
    elapsed = time.perf_counter() - start
    target = standard_det.omega / (4.0 * np.pi)
    final = curve.p_entry[-1]
    reported_error = max(curve.quad_error * target,
                         curve.denominator.error_estimate
                         / curve.denominator.value * target)
    allowance = max(1e-3 * target, reported_error)
    gap = abs(final - target)
    passed = gap <= allowance and elapsed < 60.0
    report(1, "isotropic limit", passed,
           f"entry(t_max) = {final:.9e}, cone fraction = {target:.9e}, "
           f"|gap| = {gap:.2e} <= {allowance:.2e}, {elapsed:.1f}s")
    assert gap <= allowance
    assert elapsed < 60.0


def test_criterion_2_classical_flight_time(source):
    start = time.perf_counter()
    narrow = qa.isotropic_gaussian(5.0, 0.05)
    stats = qa.mean_arrival_time(narrow, [0.0, 0.0, 100.0], source)
    elapsed = time.perf_counter() - start
    gap = abs(stats.mean_time - 20.0)
    # tight residual frozen from the brute-force reference: 19.996001199640119
    frozen_gap = abs(stats.mean_time - 19.996001199640119)
    passed = gap <= 0.2 and frozen_gap <= 1e-6 and elapsed < 60.0
    report(2, "classical flight time", passed,
           f"mean = {stats.mean_time:.6f} vs classical 20 (1% budget), "
           f"vs frozen reference gap {frozen_gap:.2e}, {elapsed:.1f}s")
    assert gap <= 0.2
    assert frozen_gap <= 1e-6
    assert elapsed < 60.0


def test_criterion_3_dynamics_closure(standard_curve):
    sched = qa.coupling_schedule(standard_curve, 0.5)
    closure = qa.ode_consistency(sched)
    residual = closure["consistency_residual_max"]
    unitarity = closure["unitarity_residual_max"]
    passed = residual <= 1e-6 and unitarity <= 1e-9
    report(3, "two-state closure", passed,
           f"max |population - k*entry| = {residual:.2e} <= 1e-6, "
           f"unitarity drift = {unitarity:.2e} <= 1e-9")
    assert residual <= 1e-6
    assert unitarity <= 1e-9


def _fixture_scenarios(source):
    z = [0.0, 0.0, 1.0]
    heavy = qa.EmissionEvent(x0=[0.0, 0.0, 0.0], t0=0.0, mass=2.0)
    iso = qa.isotropic_gaussian(5.0, 0.5)
    narrow = qa.isotropic_gaussian(5.0, 0.05)
    sep = qa.separable_gaussian(5.0, 0.5, z, 0.0375)
    entries = [
        ("iso sphere", iso, qa.sphere_detector([0, 0, 20], 0.5, source), source),
        ("iso cap", iso, qa.cap_detector(z, 0.05, 19.0, 21.0, source), source),
        ("separable sphere", sep, qa.sphere_detector([0, 0, 20], 1.0, source), source),
        ("narrow point", narrow, np.array([0.0, 0.0, 100.0]), source),
        ("bimodal point", bimodal_amplitude(), np.array([0.0, 0.0, 100.0]), source),
        ("tabulated point", tabulated_gaussian_amplitude(),
         np.array([0.0, 0.0, 30.0]), source),
        ("heavy-mass point", narrow, np.array([0.0, 0.0, 50.0]), heavy),
        ("slow iso sphere", qa.isotropic_gaussian(3.0, 0.3),
         qa.sphere_detector([0, 0, 15], 0.5, source), source),
    ]
    return entries


def test_criterion_4_monotonicity_and_bounds(source):
    spec = QuadratureSpec()
    k = 0.5
    failures = []
    for name, amp, target, src in _fixture_scenarios(source):
        if isinstance(target, qa.DetectorGeometry):
            curve = qa.build_entry_curve(amp, target, src)
        else:
            curve = qa.point_detector_curve(amp, target, src)
        sched = qa.coupling_schedule(curve, k)
        checks = {
            "range": bool(np.all((curve.p_entry >= 0.0) & (curve.p_entry <= 1.0))),
            "monotone": bool(np.all(np.diff(curve.p_entry) >= -1e-300)),
            "tail": abs(curve.p_conditional[-1] - 1.0) <= spec.eps_tail,
            "reg<=entry": bool(np.all(np.sin(sched.angle) ** 2
                                      <= curve.p_entry + 1e-15)),
            "angle range": bool(np.all((sched.angle >= 0.0)
                                       & (sched.angle <= sched.angle_max))),
        }
        bad = [label for label, ok in checks.items() if not ok]
        if bad:
            failures.append(f"{name}: {bad}")
    passed = not failures
    report(4, "monotonicity and bounds", passed,
           f"{len(_fixture_scenarios(source))} scenarios clean"
           if passed else "; ".join(failures))
    assert not failures


def test_criterion_5_oracle_equivalence(source, oracle_reports):
    """Main-path values against the frozen brute-force references."""
    z = np.array([0.0, 0.0, 1.0])
    off = np.array([np.sin(0.05), 0.0, np.cos(0.05)])
    heavy = qa.EmissionEvent(x0=[0.0, 0.0, 0.0], t0=0.0, mass=2.0)
    iso = qa.isotropic_gaussian(5.0, 0.5)
    sep = qa.separable_gaussian(5.0, 0.5, z, 0.0375)
    probes = [
        ("psi_iso_peak", iso, z, 20.0 * z, 4.0, source),
        ("psi_iso_early", iso, z, 20.0 * z, 2.0, source),
        ("psi_narrow_peak", qa.isotropic_gaussian(5.0, 0.05), z, 100.0 * z, 20.0, source),
        ("psi_sep_axis", sep, z, 20.0 * z, 4.0, source),
        ("psi_sep_off", sep, off, 20.0 * off, 4.0, source),
        ("psi_tab_iso", tabulated_gaussian_amplitude(), z, 20.0 * z, 4.0, source),
        ("psi_bimodal_fast", bimodal_amplitude(), z, 100.0 * z, 100.0 / 6.0, source),
        ("psi_bimodal_slow", bimodal_amplitude(), z, 100.0 * z, 100.0 / 3.0, source),
        ("psi_iso_heavy", iso, z, 20.0 * z, 8.0, heavy),
        ("psi_iso_slow", qa.isotropic_gaussian(3.0, 0.3), z, 15.0 * z, 5.0, source),
    ]
    quad = QuadratureSpec()
    failures = []
    worst = 0.0
    for name, amp, n, x, t, src in probes:
        frozen, err = oracle_reports[name]
        main = qa.eval_angular_component(
            amp, wp.AngularComponentRequest(n, x, t), src, quad)
        # combined bars: frozen doubling estimate + main acceptance tolerance
        allowance = err + quad.rtol * abs(frozen) + 1e-14
        gap = abs(main - frozen)
        worst = max(worst, gap / max(allowance, 1e-300))
        if gap > allowance:
            failures.append(name)

    det = qa.sphere_detector([0.0, 0.0, 20.0], 0.5, source)
    frozen, err = oracle_reports["entry_ratio_standard_t4"]
    ratio = qa.conditional_entry_probability(iso, det, source, 4.0)
    # the volume oracle doubles four resolution axes together, so its
    # doubling bar gets a 3x allowance
    if abs(ratio - frozen) > 3.0 * err + 1e-6:
        failures.append("entry_ratio_standard_t4")

    frozen, err = oracle_reports["mean_arrival_narrow"]
    stats = qa.mean_arrival_time(qa.isotropic_gaussian(5.0, 0.05),
                                 [0.0, 0.0, 100.0], source)
    if abs(stats.mean_time - frozen) > err + 1e-6:
        failures.append("mean_arrival_narrow")

    frozen, err = oracle_reports["mean_arrival_bimodal"]
    stats = qa.mean_arrival_time(bimodal_amplitude(), [0.0, 0.0, 100.0], source)
    if abs(stats.mean_time - frozen) > err + 2e-3:
        failures.append("mean_arrival_bimodal")

    frozen, err = oracle_reports["p_direction_concentrated"]
    cone = qa.sphere_detector([0.0, 0.0, 20.0], 20.0 * np.sin(0.15), source)
    if abs(qa.direction_probability(sep, cone, source) - frozen) > 3.0 * err:
        failures.append("p_direction_concentrated")

    passed = not failures
    report(5, "oracle equivalence", passed,
           f"{len(probes) + 4} comparisons, worst probe at "
           f"{worst:.3f} of its allowance"
           if passed else f"failed: {failures}")
    assert not failures


def test_criterion_6_trivial_cases(source, iso_amp, standard_det):
    """Consolidated re-run of the analytically forced cases."""
    checks = []

    def check(label, ok):
        checks.append((label, bool(ok)))

    # geometry
    cap = qa.cap_detector([0, 0, 1], np.pi, 1.0, 2.0, source)
    check("full cap = 4pi", cap.omega == 4.0 * np.pi)
    near = qa.sphere_detector([0, 0, 1], 1.0 - 1e-12, source)
    check("surface limit -> 2pi", abs(near.omega - 2 * np.pi) <= 1e-4)
    check("ray along axis hits", qa.ray_hits_detector(source, standard_det.axis,
                                                      standard_det))
    check("ray away misses", not qa.ray_hits_detector(source, -standard_det.axis,
                                                      standard_det))
    # quadrature
    vol = qa.integrate_volume(lambda x: np.ones(len(x)), standard_det,
                              QuadratureSpec())
    check("volume identity", abs(vol - standard_det.volume)
          <= 1e-10 * standard_det.volume)
    d = qa.differentiate_sampled(np.arange(10) * 0.7, 1.0)
    check("linear derivative exact", np.allclose(d, 0.7, atol=1e-13))
    # amplitudes
    check("normalize idempotent", qa.normalize(iso_amp) is iso_amp)
    req = wp.AngularComponentRequest([0, 0, 1], [0, 0, 0], 0.0)
    v0 = qa.eval_angular_component(iso_amp, req, source, QuadratureSpec())
    check("emission-point value real positive",
          v0.real > 0 and abs(v0.imag) <= 1e-15)
    # probabilities
    check("conditional 0 at start",
          qa.conditional_entry_probability(iso_amp, standard_det, source, 0.0) == 0.0)
    check("full-sphere direction factor",
          abs(qa.direction_probability(
              iso_amp, qa.cap_detector([0, 0, 1], np.pi, 1, 2, source), source)
              - 1.0) <= 1e-10)
    # detector dynamics
    t = np.linspace(0.0, 1.0, 101)
    from test_detector import synthetic_curve, synthetic_schedule
    zero_sched = qa.coupling_schedule(synthetic_curve(t, np.zeros(101)), 0.5)
    state0 = qa.evolve_closed_form(zero_sched, 0.0)
    check("initial state idle", state0.c0 == 1.0 and state0.c1 == 0.0)
    half = qa.coupling_schedule(synthetic_curve(t, np.clip(t, 0, 1)), 0.5)
    check("half entry -> pi/6 angle",
          abs(half.angle[50] - np.pi / 6) <= 1e-14)
    quarter = synthetic_schedule(np.linspace(0, 1, 5),
                                 [0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4])
    check("sin^2(pi/4) = 1/2",
          abs(qa.registration_probability(quarter, 1.0) - 0.5) <= 1e-14)
    ode_idle = qa.evolve_ode(zero_sched, 1.0)
    check("zero rate stays idle", ode_idle.c0 == 1.0 and ode_idle.c1 == 0.0)
    # arrival
    taus = np.linspace(0.0, 10.0, 101)
    vals = np.zeros(101)
    vals[41] = 2.0
    stats = qa.stats_from_samples(taus, vals)
    check("delta moment", abs(stats.mean_time - taus[41]) <= 1e-12)
    # scenario defaulting
    scn = qa.parse_scenario_text(
        "detector.kind = sphere\ndetector.center = 0 0 20\ndetector.radius = 0.5\n")
    check("scenario defaults", scn.coupling_k == 0.5 and scn.emission.mass == 1.0)

    failures = [label for label, ok in checks if not ok]
    passed = not failures
    report(6, "trivial-case exactness", passed,
           f"{len(checks)} checks clean" if passed else f"failed: {failures}")
    assert not failures


def test_criterion_7_determinism_and_round_trip(tmp_path, source):
    scenario_text = ("amplitude.p0 = 5\namplitude.sigma_p = 0.05\n"
                     "detector.kind = point\ndetector.position = 0 0 100\n")
    scn = qa.parse_scenario_text(scenario_text)
    round_trip = qa.parse_scenario_text(qa.emit_scenario(scn)) == scn

    a = qa.run_scenario(scn, tmp_path / "a")
    b = qa.run_scenario(scn, tmp_path / "b")
    files_identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("entry_curve.csv", "schedule.csv", "arrival.csv",
                     "summary.json"))

    (tmp_path / "scn.txt").write_text(scenario_text)
    (tmp_path / "sweep.txt").write_text(
        "sweep.scenario = scn.txt\nsweep.parameter = coupling.k\n"
        "sweep.values = 0.5\n")
    rows = qa.run_sweep(qa.parse_sweep(tmp_path / "sweep.txt"), tmp_path / "sw")
    row_identical = (tmp_path / "sw" / "coupling.k=0.5" / "summary.json").read_bytes() \
        == (tmp_path / "a" / "summary.json").read_bytes()

    passed = round_trip and files_identical and a == b and row_identical \
        and rows[0]["status"] == "ok"
    report(7, "determinism and round-trip", passed,
           "emit/parse round-trips; repeated runs and sweep rows byte-identical"
           if passed else f"round_trip={round_trip} files={files_identical} "
                          f"row={row_identical}")
    assert round_trip
    assert files_identical
    assert a == b
    assert row_identical
