import dataclasses
import os

import numpy as np
import pytest

import qarrival as qa
from qarrival import QuadratureSpec
from qarrival import oracle as orc
from qarrival import wavepacket as wp

from conftest import FIXTURES_DIR, bimodal_amplitude, tabulated_gaussian_amplitude


def probe_cases():
    z = np.array([0.0, 0.0, 1.0])
    off = np.array([np.sin(0.05), 0.0, np.cos(0.05)])
    src = qa.EmissionEvent(x0=[0.0, 0.0, 0.0], t0=0.0, mass=1.0)
    src_m2 = qa.EmissionEvent(x0=[0.0, 0.0, 0.0], t0=0.0, mass=2.0)
    iso = qa.isotropic_gaussian(5.0, 0.5)
    return [
        ("psi_iso_peak", iso, z, 20.0 * z, 4.0, src),
        ("psi_iso_early", iso, z, 20.0 * z, 2.0, src),
        ("psi_narrow_peak", qa.isotropic_gaussian(5.0, 0.05), z, 100.0 * z, 20.0, src),
        ("psi_sep_axis", qa.separable_gaussian(5.0, 0.5, z, 0.0375), z, 20.0 * z, 4.0, src),
        ("psi_sep_off", qa.separable_gaussian(5.0, 0.5, z, 0.0375), off, 20.0 * off, 4.0, src),
        ("psi_tab_iso", tabulated_gaussian_amplitude(), z, 20.0 * z, 4.0, src),
        ("psi_bimodal_fast", bimodal_amplitude(), z, 100.0 * z, 100.0 / 6.0, src),
        ("psi_bimodal_slow", bimodal_amplitude(), z, 100.0 * z, 100.0 / 3.0, src),
        ("psi_iso_heavy", iso, z, 20.0 * z, 8.0, src_m2),
        ("psi_iso_slow", qa.isotropic_gaussian(3.0, 0.3), z, 15.0 * z, 5.0, src),
    ]


@pytest.mark.parametrize("case", probe_cases(), ids=lambda c: c[0])
def test_main_path_matches_frozen_oracle(case, oracle_reports):
    name, amp, n, x, t, src = case
    frozen, err = oracle_reports[name]
    req = wp.AngularComponentRequest(n, x, t)
    quad = QuadratureSpec()
    main = qa.eval_angular_component(amp, req, src, quad)
    # combined bars: the frozen oracle's doubling estimate plus the main
    # path's acceptance tolerance
    allowance = err + quad.rtol * abs(frozen) + 1e-14
    assert abs(main - frozen) <= allowance


def test_oracle_agrees_with_live_main(iso_amp, source):
    report = orc.oracle_angular_component(iso_amp, [0.0, 0.0, 1.0],
                                          [0.0, 0.0, 20.0], 4.0, source)
    req = wp.AngularComponentRequest([0.0, 0.0, 1.0], [0.0, 0.0, 20.0], 4.0)
    main = qa.eval_angular_component(iso_amp, req, source, QuadratureSpec())
    assert abs(main - report.value) <= report.error_estimate + 1e-10 * abs(main)


def test_oracle_emission_point_trivial(iso_amp, source):
    report = orc.oracle_angular_component(iso_amp, [0.0, 0.0, 1.0],
                                          [0.0, 0.0, 0.0], 0.0, source)
    req = wp.AngularComponentRequest([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.0)
    main = qa.eval_angular_component(iso_amp, req, source, QuadratureSpec())
    assert report.value.imag == pytest.approx(0.0, abs=1e-15)
    assert abs(main - report.value) <= report.error_estimate + 1e-12 * abs(main)


def test_oracle_linear_in_scale(iso_amp, source):
    scaled = dataclasses.replace(iso_amp, scale=iso_amp.scale * 1.7)
    base = orc.oracle_angular_component(iso_amp, [0.0, 0.0, 1.0],
                                        [0.0, 0.0, 20.0], 4.0, source)
    bigger = orc.oracle_angular_component(scaled, [0.0, 0.0, 1.0],
                                          [0.0, 0.0, 20.0], 4.0, source)
    assert bigger.value == pytest.approx(1.7 * base.value, rel=1e-12)


def test_classical_flight():
    amp = qa.isotropic_gaussian(5.0, 0.05)
    assert orc.oracle_classical_flight(amp, 100.0, 1.0) == 20.0
    assert orc.oracle_classical_flight(amp, 100.0, 2.0) == 40.0
    with pytest.raises(ValueError):
        orc.oracle_classical_flight(bimodal_amplitude(), 100.0, 1.0)


def test_report_roundtrip(tmp_path):
    reports = [
        orc.OracleReport(name="a", value=1.5, resolution={"n": 3},
                         error_estimate=1e-9),
        orc.OracleReport(name="b", value=1.0 - 2.0j, error_estimate=1e-7),
    ]
    path = tmp_path / "reports.json"
    orc.write_reports(reports, path)
    loaded = orc.load_reports(path)
    assert loaded["a"] == (1.5, 1e-9)
    assert loaded["b"] == (1.0 - 2.0j, 1e-7)


def test_fixture_file_exists():
    assert os.path.exists(os.path.join(FIXTURES_DIR, "oracle_reports.json"))


def test_entry_ratio_between_grid_nodes(iso_amp, standard_det, source):
    # elapsed 4.0 falls between the nodes of both levels (steps 0.015 and
    # 0.03): the head must integrate its last partial interval, or it reads
    # 0.5958 +- 8e-5 against the engine's 0.6045
    report = orc.oracle_entry_ratio(iso_amp, standard_det, source, elapsed=4.0,
                                    t_span=12.0, n_time=800, n_vol=(4, 4, 4),
                                    n_cap=(8, 8), nodes=2000)
    engine = qa.conditional_entry_probability(iso_amp, standard_det, source, 4.0)
    assert abs(engine - report.value) <= report.error_estimate + QuadratureSpec().rtol
