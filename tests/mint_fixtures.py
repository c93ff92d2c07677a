"""Regenerate tests/fixtures/oracle_reports.json.

Every frozen expected value in the test suite that is not analytic comes
from the brute-force oracle implementations, computed by this script before
the values were pinned.  Run from the repository root:

    python tests/mint_fixtures.py

A re-mint is bit-identical only on the BLAS build that minted the fixtures:
the oracle's dense sums go through BLAS matrix products, whose summation
order depends on the build.  Under numpy 2.4.6 with OpenBLAS, 13 of the 21
values move in their trailing digits, each within its error estimate.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import bimodal_amplitude, tabulated_gaussian_amplitude  # noqa: E402

from qarrival import EmissionEvent, sphere_detector  # noqa: E402
from qarrival import oracle as orc  # noqa: E402
from qarrival import wavepacket as wp  # noqa: E402


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out_path = os.path.join(here, "fixtures", "oracle_reports.json")
    src = EmissionEvent(x0=[0.0, 0.0, 0.0], t0=0.0, mass=1.0)
    src_m2 = EmissionEvent(x0=[0.0, 0.0, 0.0], t0=0.0, mass=2.0)
    z = np.array([0.0, 0.0, 1.0])

    reports = []

    def add(name, report):
        reports.append(orc.OracleReport(name=name, value=report.value,
                                        resolution=report.resolution,
                                        error_estimate=report.error_estimate))
        value = report.value
        shown = f"{value:.17g}" if not isinstance(value, complex) \
            else f"{value.real:.17g} {value.imag:+.17g}j"
        print(f"{name}: {shown}  (err {report.error_estimate:.3e})")

    # --- single-direction component probes for the equivalence suite -----
    iso = wp.isotropic_gaussian(5.0, 0.5)
    narrow = wp.isotropic_gaussian(5.0, 0.05)
    sep = wp.separable_gaussian(5.0, 0.5, z, 0.0375)
    tab_iso = tabulated_gaussian_amplitude()
    bimodal = bimodal_amplitude()
    iso_slow = wp.isotropic_gaussian(3.0, 0.3)
    off_dir = np.array([np.sin(0.05), 0.0, np.cos(0.05)])

    probes = [
        ("psi_iso_peak", iso, z, 20.0 * z, 4.0, src),
        ("psi_iso_early", iso, z, 20.0 * z, 2.0, src),
        ("psi_narrow_peak", narrow, z, 100.0 * z, 20.0, src),
        ("psi_sep_axis", sep, z, 20.0 * z, 4.0, src),
        ("psi_sep_off", sep, off_dir, 20.0 * off_dir, 4.0, src),
        ("psi_tab_iso", tab_iso, z, 20.0 * z, 4.0, src),
        ("psi_bimodal_fast", bimodal, z, 100.0 * z, 100.0 / 6.0, src),
        ("psi_bimodal_slow", bimodal, z, 100.0 * z, 100.0 / 3.0, src),
        ("psi_iso_heavy", iso, z, 20.0 * z, 8.0, src_m2),
        ("psi_iso_slow", iso_slow, z, 15.0 * z, 5.0, src),
    ]
    for name, amp, n, x, t, source in probes:
        add(name, orc.oracle_angular_component(amp, n, x, t, source))

    # --- time-scan landmarks ---------------------------------------------
    taus = np.arange(3.0, 5.0, 1e-3)
    dens = orc.oracle_point_density(iso, 20.0 * z, src, taus, nodes=100_000)
    i_max = int(np.argmax(dens))
    add("argmax_iso_sigma0.5", orc.OracleReport(
        name="", value=float(taus[i_max]),
        resolution={"scan": [3.0, 5.0, 1e-3], "nodes": 100_000},
        error_estimate=1e-3))
    at4 = float(dens[np.argmin(np.abs(taus - 4.0))] / dens[i_max])
    add("density_at_classical_over_peak", orc.OracleReport(
        name="", value=at4, resolution={"scan": [3.0, 5.0, 1e-3]},
        error_estimate=1e-3))

    # narrow-packet conditional curve landmarks: 10/50/90 percent times
    taus2 = np.arange(0.0, 60.0, 5e-3)
    dens2 = orc.oracle_point_density(narrow, 100.0 * z, src, taus2, nodes=100_000)
    cum = np.cumsum(dens2)
    cum /= cum[-1]
    landmarks = {q: float(taus2[int(np.searchsorted(cum, q))])
                 for q in (0.1, 0.5, 0.9)}
    for q, value in landmarks.items():
        add(f"narrow_ratio_t{int(q * 100)}", orc.OracleReport(
            name="", value=value, resolution={"scan": [0.0, 60.0, 5e-3]},
            error_estimate=5e-3))

    # bimodal arrival peaks
    taus3 = np.arange(10.0, 45.0, 2e-3)
    dens3 = orc.oracle_point_density(bimodal, 100.0 * z, src, taus3, nodes=100_000)
    third = np.argmin(np.abs(taus3 - 25.0))
    fast_peak = float(taus3[np.argmax(dens3[:third])])
    slow_peak = float(taus3[third + np.argmax(dens3[third:])])
    add("bimodal_fast_peak", orc.OracleReport(
        name="", value=fast_peak, resolution={"scan": [10.0, 45.0, 2e-3]},
        error_estimate=2e-3))
    add("bimodal_slow_peak", orc.OracleReport(
        name="", value=slow_peak, resolution={"scan": [10.0, 45.0, 2e-3]},
        error_estimate=2e-3))

    # --- means -------------------------------------------------------------
    add("mean_arrival_narrow", orc.oracle_mean_arrival(
        narrow, 100.0 * z, src, t_span=123.0, n_time=24_000, nodes=60_000))
    add("mean_arrival_bimodal", orc.oracle_mean_arrival(
        bimodal, 100.0 * z, src, t_span=80.0, n_time=24_000, nodes=60_000))

    # --- direction factor for the concentrated separable amplitude ---------
    det_cap_like = sphere_detector(20.0 * z, 20.0 * np.sin(0.15), src)
    add("p_direction_concentrated", orc.oracle_prob_direction_in_cone(
        sep, det_cap_like, src, n_u=600, n_phi=200, nodes=100_000))

    # --- volume entry ratio at the classical flight time --------------------
    det = sphere_detector(20.0 * z, 0.5, src)
    add("entry_ratio_standard_t4", orc.oracle_entry_ratio(
        iso, det, src, elapsed=4.0, t_span=16.0, n_time=1600,
        n_vol=(8, 8, 8), n_cap=(16, 16), nodes=4000))

    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    orc.write_reports(reports, out_path)
    print(f"\nwrote {out_path} ({len(reports)} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
