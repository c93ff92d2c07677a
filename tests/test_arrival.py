import dataclasses

import numpy as np
import pytest

import qarrival as qa
from qarrival import GeometryError, IntegrationError, QuadratureSpec

from conftest import bimodal_amplitude


@pytest.fixture(scope="module")
def narrow_stats(narrow_amp, source):
    return qa.mean_arrival_time(narrow_amp, [0.0, 0.0, 100.0], source)


@pytest.fixture(scope="module")
def bimodal_stats(bimodal_amp, source):
    return qa.mean_arrival_time(bimodal_amp, [0.0, 0.0, 100.0], source)


def test_density_unit_mass(narrow_stats):
    t = narrow_stats.t
    assert np.trapezoid(narrow_stats.density, t) == pytest.approx(1.0, abs=1e-12)
    dt = t[1] - t[0]
    assert dt * np.sum(narrow_stats.density) == pytest.approx(1.0, abs=1e-6)
    assert np.all(narrow_stats.density >= 0.0)


def test_narrow_peak_near_classical(narrow_amp, source):
    # scanned at the feature's natural resolution: the physical peak offset
    # (~0.01 toward early arrival) is below this step
    dt = 0.02
    stats = qa.mean_arrival_time(narrow_amp, [0.0, 0.0, 100.0], source,
                                 QuadratureSpec(dt=dt))
    peak = stats.t[np.argmax(stats.density)]
    assert abs(peak - 20.0) <= 2.0 * dt


def test_narrow_mean(narrow_stats):
    # classical flight within 1 percent; the tight value was frozen from the
    # brute-force reference in tests/mint_fixtures.py
    assert abs(narrow_stats.mean_time - 20.0) <= 0.2
    assert narrow_stats.mean_time == pytest.approx(19.996001199640119, abs=1e-6)
    assert narrow_stats.classical_time == pytest.approx(20.0)


def test_bimodal_density(bimodal_stats):
    t = bimodal_stats.t
    dens = bimodal_stats.density
    dt = t[1] - t[0]
    split = np.searchsorted(t, 25.0)
    fast_peak = t[np.argmax(dens[:split])]
    slow_peak = t[split + np.argmax(dens[split:])]
    # frozen by tests/mint_fixtures.py: 16.614 and 32.926
    assert abs(fast_peak - 16.614) <= 2.0 * dt
    assert abs(slow_peak - 32.926) <= 2.0 * dt
    assert fast_peak < slow_peak
    assert dens[:split].max() > 0.0 and dens[split:].max() > 0.0
    assert bimodal_stats.mean_time == pytest.approx(18.490807453424683, abs=2e-3)
    assert bimodal_stats.classical_time is None


def test_delta_injection_moment():
    taus = np.linspace(0.0, 10.0, 101)
    values = np.zeros(101)
    values[37] = 1.0
    stats = qa.stats_from_samples(taus, values, t0=2.0)
    assert stats.mean_time == pytest.approx(taus[37], rel=1e-12)
    assert stats.t[0] == 2.0


def test_time_shift_covariance(narrow_amp, narrow_stats):
    shifted_src = qa.EmissionEvent(x0=[0.0, 0.0, 0.0], t0=7.25, mass=1.0)
    shifted = qa.mean_arrival_time(narrow_amp, [0.0, 0.0, 100.0], shifted_src)
    assert abs(shifted.mean_time - narrow_stats.mean_time) <= 1e-9
    assert shifted.t[0] == pytest.approx(7.25)


def test_scale_invariance(source):
    base = bimodal_amplitude()
    scaled = dataclasses.replace(base, scale=base.scale * (3.0))
    a = qa.mean_arrival_time(base, [0.0, 0.0, 100.0], source)
    b = qa.mean_arrival_time(scaled, [0.0, 0.0, 100.0], source)
    assert b.mean_time == pytest.approx(a.mean_time, rel=1e-12)
    # deep-tail samples sit at the quadrature noise floor, so the density
    # comparison is anchored to its peak
    np.testing.assert_allclose(b.density, a.density, rtol=1e-12,
                               atol=1e-12 * a.density.max())


def test_mean_grows_with_distance(narrow_amp, source):
    means = [qa.mean_arrival_time(narrow_amp, [0.0, 0.0, L], source).mean_time
             for L in (50.0, 100.0, 200.0)]
    assert means[0] < means[1] < means[2]


def test_moment_density_consistency(narrow_stats):
    t = narrow_stats.t
    recomputed = np.trapezoid((t - t[0]) * narrow_stats.density, t)
    assert recomputed == pytest.approx(narrow_stats.mean_time, rel=1e-6)


def test_density_function_matches_stats(narrow_amp, source, narrow_stats):
    t, density = qa.arrival_density(narrow_amp, [0.0, 0.0, 100.0], source)
    np.testing.assert_allclose(density, narrow_stats.density, rtol=1e-12)
    np.testing.assert_allclose(t, narrow_stats.t, rtol=0.0, atol=1e-12)


def test_detector_at_source_rejected(narrow_amp, source):
    with pytest.raises(GeometryError, match="coincides with the source"):
        qa.mean_arrival_time(narrow_amp, [0.0, 0.0, 0.0], source)


def test_unconverged_normalizer_raises(narrow_amp, source):
    with pytest.raises(IntegrationError):
        qa.mean_arrival_time(narrow_amp, [0.0, 0.0, 100.0], source,
                             QuadratureSpec(dt=0.05, t_cap=5.0))


def test_arrival_csv(tmp_path, narrow_stats):
    path = tmp_path / "arrival.csv"
    narrow_stats.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,density"
    assert len(lines) == narrow_stats.t.size + 1


def test_spread_of_huge_times_is_finite():
    # elapsed times near 1e301 (emission.mass = 1e300 at distance 10) overflowed
    # the variance's squares; centred times are scaled by a power of two, which
    # is exact: the moments scale with the times, and those of ordinary times
    # keep the bits of the unscaled formula
    taus = np.linspace(0.0, 40.0, 801)
    values = np.exp(-((taus - 20.0) / 3.0) ** 2)
    ref = qa.stats_from_samples(taus, values)
    assert ref.spread == float(np.sqrt(np.trapezoid((taus - ref.mean_time) ** 2
                                                    * ref.density, taus)))
    with np.errstate(all="raise"):
        huge = qa.stats_from_samples(taus * 2.0 ** 900, values)
    assert huge.mean_time == ref.mean_time * 2.0 ** 900
    assert huge.spread == ref.spread * 2.0 ** 900
