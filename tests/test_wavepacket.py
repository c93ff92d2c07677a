from dataclasses import replace
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import qarrival as qa
from qarrival import NormalizationError, QuadratureSpec
from qarrival import oracle as orc
from qarrival import wavepacket as wp
from qarrival import probability as prob
from qarrival.errors import IntegrationError
from qarrival.geometry import point_detector
from qarrival.quadrature import cap_directions, gauss_legendre_panels, panel_pieces, \
    semiinfinite_profile, volume_grid

from conftest import tabulated_gaussian_amplitude

TWO_PI_32 = (2.0 * np.pi) ** 1.5


def simpson(y, x):
    n = len(x) - 1
    assert n % 2 == 0
    h = x[1] - x[0]
    return h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))


def riemann_norm_squared(amp, n_p=400_001, n_a=400_001):
    lo, hi = amp.p_support
    p = np.linspace(lo, hi, n_p)
    radial = simpson(p * p * np.abs(amp.scale * amp.radial_profile(p)) ** 2, p)
    # integrate the angular weight in the angle itself: sharp axial weights
    # are badly resolved on a uniform cos grid
    alpha = np.linspace(0.0, np.pi, n_a)
    angular = 2.0 * np.pi * simpson(
        np.abs(amp.angular_profile(np.cos(alpha))) ** 2 * np.sin(alpha), alpha)
    return radial * angular


def test_normalized_gaussian_unit_norm(iso_amp):
    assert abs(riemann_norm_squared(iso_amp) - 1.0) <= 1e-10


def test_normalized_separable_unit_norm(sep_amp):
    assert abs(riemann_norm_squared(sep_amp) - 1.0) <= 1e-10


def test_normalize_idempotent(iso_amp):
    again = qa.normalize(iso_amp)
    assert again is iso_amp


def test_zero_table_rejected():
    grid = np.linspace(1.0, 2.0, 32)
    with pytest.raises(NormalizationError):
        wp.tabulated(grid, np.zeros(32))


def test_wide_spread_warns():
    with pytest.warns(UserWarning):
        qa.isotropic_gaussian(1.0, 0.5)


def test_emission_point_value(iso_amp, source):
    # at the emission point and time every phase collapses
    req = wp.AngularComponentRequest([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.0)
    value = qa.eval_angular_component(iso_amp, req, source, QuadratureSpec())
    assert value.imag == pytest.approx(0.0, abs=1e-15)
    assert value.real > 0.0
    lo, hi = iso_amp.p_support
    p = np.linspace(lo, hi, 400_001)
    expected = np.trapezoid(p * p * iso_amp.scale * iso_amp.radial_profile(p),
                            p) / TWO_PI_32
    assert value.real == pytest.approx(expected, rel=1e-10)


def test_scan_argmax_matches_reference(iso_amp, source):
    # frozen by tests/mint_fixtures.py: dense scan of the density over
    # [3, 5] at step 1e-3 peaks at 3.817, slightly before the classical 4.0
    curve = wp.detector_occupation(iso_amp, point_detector([0.0, 0.0, 20.0], source),
                                   source, QuadratureSpec())
    taus = np.arange(3.0, 5.0, 1e-3)
    dens = curve(taus)
    peak = float(taus[np.argmax(dens)])
    assert abs(peak - 3.81699999999991) <= 1e-3
    at_classical = dens[np.argmin(np.abs(taus - 4.0))] / dens.max()
    assert at_classical == pytest.approx(0.90958009803360296, abs=1e-3)


def test_stationary_phase_peak_narrow(narrow_amp, source):
    dt = 0.02
    curve = wp.detector_occupation(narrow_amp, point_detector([0.0, 0.0, 100.0], source),
                                   source, QuadratureSpec())
    taus = np.arange(18.0, 22.0, dt)
    dens = curve(taus)
    peak = taus[np.argmax(dens)]
    assert abs(peak - 20.0) <= 2 * dt


def test_one_point_angular_rule(iso_amp, standard_det, source):
    quad = QuadratureSpec(polar_nodes=1, azimuth_nodes=1)
    dirs, weights = cap_directions(standard_det.axis, standard_det.cos_cone, 1, 1)
    assert weights[0] == pytest.approx(standard_det.omega, rel=1e-14)
    x = np.array([0.1, -0.2, 20.3])
    whole = qa.eval_detector_wavefunction(iso_amp, x, 4.0, standard_det, source, quad)
    req = wp.AngularComponentRequest(dirs[0], x, 4.0)
    single = qa.eval_angular_component(iso_amp, req, source, quad)
    assert whole == pytest.approx(single * standard_det.omega, rel=1e-12)


def test_mirrored_caps_agree(iso_amp, source):
    quad = QuadratureSpec()
    det_z = qa.cap_detector([0.0, 0.0, 1.0], 0.05, 19.0, 21.0, source)
    det_x = qa.cap_detector([1.0, 0.0, 0.0], 0.05, 19.0, 21.0, source)
    val_z = qa.eval_detector_wavefunction(iso_amp, [0.0, 0.0, 20.0], 4.0,
                                          det_z, source, quad)
    val_x = qa.eval_detector_wavefunction(iso_amp, [20.0, 0.0, 0.0], 4.0,
                                          det_x, source, quad)
    assert abs(val_z) ** 2 == pytest.approx(abs(val_x) ** 2, rel=1e-9)


def test_cap_angular_self_convergence(iso_amp, source):
    det = qa.cap_detector([0.0, 0.0, 1.0], 0.05, 19.0, 21.0, source)
    x = np.array([0.0, 0.05, 20.0])
    coarse = qa.eval_detector_wavefunction(iso_amp, x, 4.0, det, source,
                                           QuadratureSpec())
    fine = qa.eval_detector_wavefunction(iso_amp, x, 4.0, det, source,
                                         QuadratureSpec(polar_nodes=16,
                                                        azimuth_nodes=16))
    assert abs(coarse - fine) <= 1e-6 * abs(fine)


def _brute_phase_sums(omega, taus, coeffs):
    return np.exp(-1j * np.outer(taus, omega)) @ coeffs


def _rows(coeffs):
    """The kernel's coefficient function of a slice of momenta, over an array."""
    return lambda cols: coeffs.reshape(len(coeffs), -1)[cols]


def _per_point(amp, det, source, quad):
    """A volume's occupation folded point by point: the distances r[x, a] of
    every grid point to every channel, the channels' gains and the points'
    weights, from its geometry."""
    dirs, gains = wp._cap_channels(amp, det, quad)
    points, weights = volume_grid(det, quad)
    return (points - source.x0) @ dirs.T, gains, weights


def _per_point_density(curve, sums, r, gains, weights):
    """Sum_x w_x |field_x|^2 of rows of node sums through the per-point map."""
    fields = sums @ wp._channel_map(r, gains[:, None], curve._r_lo, curve._r_hi,
                                    curve._r_nodes.size, curve._p_mid)[:, 0].T
    return (np.abs(fields) ** 2) @ weights


def _panel_samples(omega, h):
    """Samples per tau-panel of the kernel's Chebyshev branch."""
    half_band = 0.5 * (omega.max() - omega.min())
    return int(2.0 * wp._PANEL_PHASE / (half_band * h)) + 1


@pytest.mark.parametrize("n_t, h, t0, columns, panels", [
    (3001, 0.004, -38.8, None, True),  # before the emission, as a mirrored window's
    (3001, 0.004, 26.8, 3, True),      # several panels, partial last one; 2-d coefficients
    (3001, 0.004, 26.8, 1, True),      # one column; 401 samples per panel
    (2000, 0.0025, 26.8, 19, True),    # 641 per panel: two row blocks and a part
    (700, 0.03, 0.0, 2, True),         # short panels near the branch threshold
    (40, 0.004, 5.0, None, True),      # one panel holding every sample
    (400, 2.5, 3.0, None, False),      # undersampled: summed directly
    (15, 0.004, 5.0, 2, False),        # fewer than 16 samples: summed directly
])
def test_phase_sums_match_brute_force(n_t, h, t0, columns, panels):
    rng = np.random.default_rng(n_t)
    p = np.sort(rng.uniform(1.0, 9.0, 2 * wp._P_BLOCK + 37))   # three blocks
    omega = p * p / 2.0
    per_panel = min(_panel_samples(omega, h), n_t)
    assert (n_t >= 16 and per_panel >= wp._PANEL_NODES // 2) == panels
    if per_panel > wp._ROW_BLOCK:
        # a partial block of rows in every panel, a partial last panel
        assert per_panel % wp._ROW_BLOCK and n_t % per_panel and n_t > 2 * per_panel
    shape = (p.size,) if columns is None else (p.size, columns)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    taus = t0 + h * np.arange(n_t)
    got = wp._phase_sums(omega, taus, _rows(coeffs))
    assert got.shape == (n_t, columns or 1)
    bound = 1e-12 * np.sum(np.abs(coeffs), axis=0)
    assert np.all(np.abs(got - _brute_phase_sums(omega, taus, coeffs).reshape(n_t, -1))
                  <= bound)


@pytest.mark.parametrize("columns", [1, 19])
def test_phase_sums_memory_is_bounded(columns):
    # one 8192-sample window held by a single tau-panel (the per-panel cap)
    # over 2085 momenta: beyond its output the kernel's traced peak stays
    # under two complex (44, 1024) node tables, 1,441,792 bytes, and under
    # 640 KiB in blocks of _P_BLOCK = 256 momenta (400 and 537 KiB; 999 and
    # 1,201 KiB in blocks of 1024); built as one (8192, 44) interpolation
    # matrix with whole temporaries it peaked at 8.8 MiB (C = 1) and 10.7 MiB
    # (C = 19)
    rng = np.random.default_rng(columns)
    p = np.sort(rng.uniform(4.0, 6.0, 2085))
    omega = p * p / 2.0
    n_t = 8192
    h = 2.0 * wp._PANEL_PHASE / (0.5 * (omega.max() - omega.min()) * n_t)
    taus = 50.0 + h * np.arange(n_t)
    assert _panel_samples(omega, h) >= n_t
    coeffs = rng.normal(size=(p.size, columns)) + 1j * rng.normal(size=(p.size, columns))
    tracemalloc.start()
    try:
        out = wp._phase_sums(omega, taus, _rows(coeffs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n_t, columns)
    assert peak <= out.nbytes + 1_441_792
    assert peak <= out.nbytes + 640 * 2 ** 10


def test_panel_node_sums_hold_one_coefficient_block():
    # each (_P_BLOCK, C) block of coefficients is dropped before the next is
    # read; two alive at once held a block more, 2.4 MB in blocks of 1024
    # momenta at wide16's C = 148
    rng = np.random.default_rng(148)
    detuning = rng.uniform(-2.0, 2.0, 2085)
    whole = rng.normal(size=(detuning.size, 148)) + 1j * rng.normal(size=(detuning.size, 148))
    blocks, alive = [], []

    def coeffs(cols):
        alive.append(sum(ref() is not None for ref in blocks))
        block = whole[cols].copy()
        blocks.append(weakref.ref(block))
        return block

    centres = np.array([-3.0, 0.5, 4.0])
    got = wp._panel_node_sums(detuning, 0.7, centres, coeffs)
    assert len(blocks) == 1 + -(-detuning.size // wp._P_BLOCK) >= 4
    assert alive == [0] * len(blocks)
    nodes = wp._cheb_points(-0.7, 0.7, wp._PANEL_NODES)
    expected = np.exp(-1j * np.add.outer(centres, nodes)[:, :, None] * detuning) @ whole
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class _ExpCounter:
    """numpy, with a count of the values passed to exp."""

    def __init__(self):
        self.values = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.values += np.size(x)
        return np.exp(x, *args, **kwargs)


def test_panel_nodes_are_mirrored_and_halve_the_exponentials(monkeypatch):
    for half_span in (0.37, 1.0 / 3.0, 1234.5):
        nodes = wp._cheb_points(-half_span, half_span, wp._PANEL_NODES)
        assert np.array_equal(nodes, -nodes[::-1])
    # per block of P momenta: 22 node and K panel-centre exponentials per
    # momentum, then one carrier per sample
    rng = np.random.default_rng(3)
    p = np.sort(rng.uniform(1.0, 9.0, 2 * wp._P_BLOCK + 37))
    omega = p * p / 2.0
    taus = 26.8 + 0.004 * np.arange(3001)
    n_panels = -(-taus.size // _panel_samples(omega, 0.004))
    counter = _ExpCounter()
    monkeypatch.setattr(wp, "np", counter)
    wp._phase_sums(omega, taus, _rows(rng.normal(size=p.size) + 0j))
    assert n_panels == 8
    assert counter.values == (wp._PANEL_NODES // 2 + n_panels) * p.size + taus.size


def test_phase_sums_band_edges_and_non_uniform_grid():
    # single frequencies at the band edges are the worst case for the panels
    omega = np.linspace(0.5, 40.5, 9)
    taus = 30.0 + 0.003 * np.arange(2600)
    for j in (0, omega.size - 1):
        unit = np.zeros(omega.size, dtype=complex)
        unit[j] = 1.0
        assert np.max(np.abs(wp._phase_sums(omega, taus, _rows(unit))[:, 0]
                             - np.exp(-1j * omega[j] * taus))) <= 1e-12
    rng = np.random.default_rng(7)
    jittered = np.sort(rng.uniform(0.0, 40.0, 300))
    coeffs = rng.normal(size=(omega.size, 2)) + 0j
    assert wp._uniform_step(jittered) is None
    np.testing.assert_allclose(wp._phase_sums(omega, jittered, _rows(coeffs)),
                               _brute_phase_sums(omega, jittered, coeffs),
                               rtol=0.0, atol=1e-12 * np.abs(coeffs).sum())


def test_curve_evaluators_match_exact_phases(iso_amp, narrow_amp, standard_det,
                                             source):
    # both evaluators against their own momentum state summed with exact
    # phases and folded point by point, on a uniform tail window long enough
    # for the panel branch
    quad = QuadratureSpec(polar_nodes=4, azimuth_nodes=4)
    point = wp.detector_occupation(narrow_amp, point_detector([0.0, 0.0, 100.0], source),
                                   source, quad)
    volume = wp.detector_occupation(iso_amp, standard_det, source, quad)
    for curve, fold, taus in ((point, (np.array([[100.0]]), np.ones(1), np.ones(1)),
                               np.linspace(14.0, 26.0, 3001)),
                              (volume, _per_point(iso_amp, standard_det, source, quad),
                               np.linspace(2.0, 8.0, 3001))):
        values = curve(taus)
        omega, coeffs = curve._build(curve._panels)
        ref = _per_point_density(curve, _brute_phase_sums(omega, taus, coeffs(slice(None))),
                                 *fold)
        assert np.max(np.abs(values - ref)) <= 1e-11 * ref.max()


@pytest.mark.parametrize("case", ["tilted sphere", "rotated aligned sphere", "cap"])
def test_ring_fold_matches_the_per_point_sum(source, case):
    # the ring fold (each ring's k = 0 point, one row per kept azimuthal
    # frequency, weight w_ring / n_az) against the full per-point map summed
    # over every grid point and channel, on the same node sums: a tilted beam
    # keeps every frequency, one aligned with a rotated detector axis f = 0
    # alone, and a cap's grid has its origin at the apex, on the source
    quad = QuadratureSpec(polar_nodes=6, azimuth_nodes=8)
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    tilted = wp.separable_gaussian(5.0, 0.5, [0.6, 0.0, 0.8], 0.2)
    amp, det = {
        "tilted sphere": (tilted, qa.sphere_detector([0.0, 0.0, 20.0], 6.0, source)),
        "rotated aligned sphere": (wp.separable_gaussian(5.0, 0.5, axis, 0.1),
                                   qa.sphere_detector(20.0 * axis, 6.0, source)),
        "cap": (tilted, qa.cap_detector([0.0, 0.0, 1.0], 0.3, 17.0, 23.0, source)),
    }[case]
    r, gains, weights = _per_point(amp, det, source, quad)
    kept = wp._ring_gains(gains, quad.azimuth_nodes).shape[1]
    assert kept == (1 if case == "rotated aligned sphere" else quad.azimuth_nodes)
    curve = wp.detector_occupation(amp, det, source, quad)
    omega, coeffs = curve._build(curve._panels)
    sums = _brute_phase_sums(omega, np.linspace(2.0, 6.0, 41), coeffs(slice(None)))
    ref = _per_point_density(curve, sums, r, gains, weights)
    assert np.max(np.abs(curve._density(sums) - ref)) <= 1e-14 * ref.max()


def test_ring_gains_keep_a_1e_10_frequency_and_drop_a_1e_16_one():
    # three polar rings of 16 azimuths: f = 3 (and its mirror 13) planted at
    # 1e-10 of the gains' scale is kept, f = 5 at 1e-16 dropped with the
    # rounding of the transform
    n_az, phi = 16, 2.0 * np.pi * np.arange(16) / 16
    rings = np.array([1.0 + 1e-10 * np.cos(3.0 * phi), 0.5 + 0.0 * phi,
                      1e-16 * np.cos(5.0 * phi)])
    ring_gains = wp._ring_gains(rings.ravel().astype(complex), n_az)
    # column j is ghat_f exp(2 pi i f m / n_az): f from its step in m
    steps = ring_gains[1] / ring_gains[0]
    assert sorted(np.round(np.angle(steps) * n_az / (2.0 * np.pi)).astype(int) % n_az) \
        == [0, 3, 13]
    # the kept rows give back the gains but the dropped 1e-16 ring
    np.testing.assert_allclose(ring_gains.sum(axis=1).reshape(3, n_az) / n_az,
                               rings * [[1.0], [1.0], [0.0]], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("step", [7.3e-4, 0.3])     # tau-panels; undersampled, summed directly
def test_occupation_window_memory_is_bounded(iso_amp, source, step):
    # one 8192-sample window of the radius-12 sphere at 4 x 4 nodes, C = 86
    # r-nodes: the kernel reduces each block of at most _CELLS node sums to
    # its densities, so beyond the float output the traced peak stays within
    # 2 MiB (1.2 over tau-panels; 1.6 summed directly, with its 1 MiB phase
    # table; 3.8 and 4.8 in blocks of 1024 momenta); with the (T, C) sums and
    # fields held whole it was 27.5 MiB (tau-panels) and 26.7 MiB (direct)
    det = qa.sphere_detector([0.0, 0.0, 20.0], 12.0, source)
    curve = wp.detector_occupation(iso_amp, det, source,
                                   QuadratureSpec(polar_nodes=4, azimuth_nodes=4))
    assert curve._r_nodes.size >= 19
    state = curve._build(curve._panels)
    taus = 2.0 + step * np.arange(8192)
    tracemalloc.start()
    try:
        out = curve._field_square(state, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == taus.shape and out.dtype == float
    assert peak <= out.nbytes + 2 * 2 ** 20


def test_linearity(source):
    grid = np.linspace(3.0, 7.0, 801)
    r1 = np.exp(-((grid - 4.5) ** 2) / (4 * 0.09))
    r2 = np.exp(-((grid - 5.5) ** 2) / (4 * 0.09)) * (0.2 + 0.7j)
    a, b = 0.7 - 0.2j, 0.3 + 0.5j
    amp1 = replace(wp.tabulated(grid, r1), scale=1.0)
    amp2 = replace(wp.tabulated(grid, r2), scale=1.0)
    amp3 = replace(wp.tabulated(grid, a * r1 + b * r2), scale=1.0)
    req = wp.AngularComponentRequest([0.0, 0.0, 1.0], [0.0, 0.0, 12.0], 2.0)
    quad = QuadratureSpec()
    v1 = qa.eval_angular_component(amp1, req, source, quad)
    v2 = qa.eval_angular_component(amp2, req, source, quad)
    v3 = qa.eval_angular_component(amp3, req, source, quad)
    assert v3 == pytest.approx(a * v1 + b * v2, rel=1e-12)


def test_large_time_decay(narrow_amp, source):
    curve = wp.detector_occupation(narrow_amp, point_detector([0.0, 0.0, 100.0], source),
                                   source, QuadratureSpec())
    taus = np.linspace(0.0, 80.0, 1601)
    dens = curve(taus)
    peak = dens.max()
    assert taus[np.argmax(dens)] < 40.0
    assert dens[taus >= 72.0].max() <= 1e-6 * peak


def test_request_validation(iso_amp, source):
    with pytest.raises(ValueError):
        wp.AngularComponentRequest([0.0, 0.0, 1.1], [0.0, 0.0, 1.0], 0.0)
    req = wp.AngularComponentRequest([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], -0.5)
    with pytest.raises(ValueError):
        qa.eval_angular_component(iso_amp, req, source, QuadratureSpec())


def test_volume_curve_matches_pointwise_field(iso_amp, standard_det, source):
    # the time-curve fold against a brute sum: the 64-panel radial rule
    # times exp(i p r_xa - i p^2 tau / 2m), one outer product summed over the
    # channels.  2 x 2 directions give 16 volume points, fewer than the
    # Chebyshev nodes; 4 x 4 give 64
    taus = np.array([3.0, 4.0, 5.0])
    p, base = wp._radial_rule(iso_amp, 64)
    for nodes in (2, 4):
        quad = QuadratureSpec(polar_nodes=nodes, azimuth_nodes=nodes)
        curve = wp.detector_occupation(iso_amp, standard_det, source, quad)
        points, weights = volume_grid(standard_det, quad)
        dirs, gains = cap_directions(standard_det.axis, standard_det.cos_cone, nodes, nodes)
        r = (points - source.x0) @ dirs.T                               # (X, A)
        total = []
        for tau in taus:
            phases = np.exp(1j * (r[:, :, None] * p - p * p * tau / (2.0 * source.mass)))
            total.append(weights @ np.abs((phases * base).sum(axis=2) @ gains) ** 2)
        np.testing.assert_allclose(curve(taus), total, rtol=1e-13)


@pytest.mark.parametrize("z, tau", [(20.0, 40.0), (0.0, 50.0)])
def test_psi_deep_in_the_tail(iso_amp, source, z, tau):
    # |psi| ~ 1e-10 here, against Sum_p |c_p| ~ 0.14: the doubling residual is
    # rounding (~6e-16), which only the absolute floor of the fold accepts
    req = wp.AngularComponentRequest([0.0, 0.0, 1.0], [0.0, 0.0, z], tau)
    value = qa.eval_angular_component(iso_amp, req, source, QuadratureSpec())
    report = orc.oracle_angular_component(iso_amp, req.direction, req.position, tau, source)
    assert np.isfinite(value) and 1e-11 <= abs(value) <= 1e-9
    assert abs(value - report.value) <= report.error_estimate + 1e-14


def test_cap_wavefunction_memory_is_bounded(iso_amp, source):
    # 256 x 256 cap channels: one phase matrix over all channels and momenta
    # is a (65536, 448) complex array of 448 MiB.  The blocked fold runs
    # under a 1 GiB address space (one BLAS thread, whose buffers are not the
    # fold's) and gives the 32 x 32 value
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
        "import qarrival as qa\n"
        "src = qa.EmissionEvent(x0=[0, 0, 0], t0=0.0, mass=1.0)\n"
        "det = qa.cap_detector([0, 0, 1], 0.05, 19.0, 21.0, src)\n"
        "quad = qa.QuadratureSpec(polar_nodes=256, azimuth_nodes=256)\n"
        "print(repr(qa.eval_detector_wavefunction(qa.isotropic_gaussian(5.0, 0.5),\n"
        "      [0.0, 0.05, 20.0], 4.0, det, src, quad)))\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(qa.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    det = qa.cap_detector([0, 0, 1], 0.05, 19.0, 21.0, source)
    coarse = qa.eval_detector_wavefunction(iso_amp, [0.0, 0.05, 20.0], 4.0, det, source,
                                           QuadratureSpec(polar_nodes=32, azimuth_nodes=32))
    assert complex(result.stdout.split()[-1]) == pytest.approx(coarse, rel=1e-12)


def _reference_interp(nodes, targets):
    """The barycentric matrix from Chebyshev `nodes` to `targets` built from
    whole temporaries, with isclose for its exact hits."""
    k = np.arange(nodes.size)
    bw = (-1.0) ** k * np.sin((2.0 * k + 1.0) * np.pi / (2.0 * nodes.size))
    diff = targets[:, None] - nodes[None, :]
    hit = np.isclose(diff, 0.0, atol=1e-300)
    c = bw[None, :] / np.where(hit, 1.0, diff)
    interp = c / c.sum(axis=1, keepdims=True)
    interp[hit.any(axis=1)] = hit[hit.any(axis=1)].astype(float)
    return interp


@pytest.mark.parametrize("lo, hi, n", [(-0.37, 0.37, wp._PANEL_NODES), (19.5, 20.5, 19),
                                       (19.5, 20.5, 44), (-1e-295, 1e-295, 17)])
@pytest.mark.filterwarnings("error")    # an exact hit must not divide by zero
def test_interp_matrix_in_place_matches_reference_bits(lo, hi, n):
    rng = np.random.default_rng(n)
    nodes = wp._cheb_points(lo, hi, n)
    # random targets, every node exactly, and (on the tiny interval) targets
    # within 1e-300 of a node but not on it
    targets = np.concatenate([rng.uniform(lo, hi, 500), nodes, [lo, hi],
                              nodes[::3] + 4e-301, nodes[1::3] - 4e-301])
    rng.shuffle(targets)
    got = wp._cheb_interp_matrix(lo, hi, n, targets)
    ref = _reference_interp(nodes, targets)
    assert np.array_equal(got, ref)
    assert np.count_nonzero(np.all((ref == 0.0) | (ref == 1.0), axis=1)) >= n


def _one_shot_mix(curve, r, gains):
    """The fold's map built whole: the (X*A, C) barycentric map times the
    carriers, contracted with the (A, F) gains point by point."""
    order = curve._r_nodes.size
    interp = _reference_interp(wp._cheb_points(curve._r_lo, curve._r_hi, order), r.ravel())
    return gains.T @ (interp.reshape(*r.shape, order)
                      * np.exp(1j * curve._p_mid * r)[:, :, None])


def test_blocked_folds_match_one_shot_bits(iso_amp, standard_det, source):
    # 12 x 12 nodes: X = 1,728 points of A = 144 channels, many point blocks,
    # whose distances the curve does not keep; three columns of gains
    quad = QuadratureSpec(polar_nodes=12, azimuth_nodes=12)
    curve = wp.detector_occupation(iso_amp, standard_det, source, quad)
    r, gains, _ = _per_point(iso_amp, standard_det, source, quad)
    gains = gains[:, None] * np.array([1.0, 0.5j, -2.0 + 1.0j])
    assert r.size * curve._r_nodes.size > 32 * wp._CELLS
    assert np.array_equal(wp._channel_map(r, gains, curve._r_lo, curve._r_hi,
                                          curve._r_nodes.size, curve._p_mid),
                          _one_shot_mix(curve, r, gains))


def test_channel_map_of_one_point_is_blocked_by_channels(iso_amp, source):
    # psi_D's point over the 256 x 256 cap channels: the map's temporaries
    # are blocked over the channels too (one block of points over all of them
    # peaked at 26.8 MiB), and the blocks sum to the map built whole
    det = qa.cap_detector([0, 0, 1], 0.05, 19.0, 21.0, source)
    dirs, gains = wp._cap_channels(iso_amp, det, QuadratureSpec(polar_nodes=256,
                                                                azimuth_nodes=256))
    r = (dirs @ np.array([0.0, 0.05, 20.0]))[None, :]                   # (1, 65536)
    lo, hi, p_mid = float(r.min()), float(r.max()), 0.5 * sum(iso_amp.p_support)
    nodes = wp._fold_nodes(iso_amp, lo, hi)
    tracemalloc.start()
    try:
        got = wp._channel_map(r, gains[:, None], lo, hi, nodes.size, p_mid)[:, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.size * nodes.size > 64 * wp._CELLS
    assert peak <= 4 * 2 ** 20
    # the whole map's channel sums, taken pairwise along contiguous rows
    terms = _reference_interp(nodes, r.ravel()) * (gains * np.exp(1j * p_mid * r.ravel()))[:, None]
    whole = np.ascontiguousarray(terms.T).sum(axis=1)
    assert np.max(np.abs(got[0] - whole)) <= 1e-14 * np.max(np.abs(whole))


@pytest.mark.parametrize("half_angle", [2.2e-8, 3e-8, 5e-8, 1e-7])
def test_thin_cap_psi_is_the_sum_of_its_directions(iso_amp, source, half_angle):
    # the channel distances at 20 z span 1 to 28 ulps, too few for distinct
    # Chebyshev nodes: the fold takes one node, and psi_D is Sum_a g_a psi_n_a
    det = qa.cap_detector([0, 0, 1], half_angle, 19.0, 21.0, source)
    quad = QuadratureSpec()
    x = np.array([0.0, 0.0, 20.0])
    dirs, gains = wp._cap_channels(iso_amp, det, quad)
    r = dirs @ x
    assert 1.0 <= (r.max() - r.min()) / np.spacing(20.0) <= 28.0
    assert wp._fold_nodes(iso_amp, r.min(), r.max()).size == 1
    value = qa.eval_detector_wavefunction(iso_amp, x, 4.0, det, source, quad)
    ref = sum(g * qa.eval_angular_component(
        iso_amp, wp.AngularComponentRequest(n, x, 4.0), source, quad)
        for n, g in zip(dirs, gains))
    assert abs(value - ref) <= 1e-12 * abs(ref)


def test_point_fold_has_one_node_at_its_distance(narrow_amp, source):
    det = point_detector([3.0, -4.0, 99.7], source)
    curve = wp.detector_occupation(narrow_amp, det, source, QuadratureSpec())
    assert curve._r_nodes.tolist() == [det.distance]
    assert curve._gram.shape == (1, 1)


def test_compressed_fold_blocks_match_whole_coefficients(iso_amp, source):
    # the radius-12 sphere at 8 x 8 nodes folds compressed: its coefficients,
    # computed one block of momenta at a time, are the whole (P, C) matrix
    # base_p exp(i (p - p_mid) r_k) to the bit, and so are the phase sums and
    # the Plancherel sum the kernel reads through them; one panel more than
    # twice the accepted rule leaves a partial last block
    det = qa.sphere_detector([0.0, 0.0, 20.0], 12.0, source)
    curve = wp.detector_occupation(iso_amp, det, source, QuadratureSpec())
    panels = 2 * curve._panels + 1
    omega, rows = curve._build(panels)
    p, base = wp._radial_rule(iso_amp, panels)
    whole = base[:, None] * np.exp(1j * np.outer(p - curve._p_mid, curve._r_nodes))
    assert p.size % wp._P_BLOCK and p.size > 2 * wp._P_BLOCK
    blocks = [rows(slice(p0, p0 + wp._P_BLOCK)) for p0 in range(0, p.size, wp._P_BLOCK)]
    assert np.array_equal(np.concatenate(blocks), whole)
    for taus in (np.linspace(3.0, 5.0, 2001), np.array([3.0, 4.0, 5.0])):
        assert np.array_equal(wp._phase_sums(omega, taus, rows),
                              wp._phase_sums(omega, taus, _rows(whole)))
    w = gauss_legendre_panels(*iso_amp.p_support, panels, wp._RADIAL_NODES)[1]
    assert curve._full_mass(panels)[0] == 2.0 * np.pi * source.mass * float(
        np.sum(curve._density(whole) / (w * p)))


@pytest.mark.parametrize("radius, nodes, bound_mib", [(0.5, 8, 8), (0.5, 12, 16),
                                                      (12.0, 4, 8), (12.0, 8, 10)])
def test_occupation_memory_is_bounded(iso_amp, source, radius, nodes, bound_mib):
    # traced peaks of the whole folds were 15.9, 116.6 and 183.0 MiB: the
    # (X*A, C) map of the r = 0.5 spheres and the (X, 8, P) phases of the
    # radius-12 sphere's direct profile; its compressed profile at 8 x 8 nodes
    # peaked at 22.7 MiB with whole (P, C) coefficients.  The radius-12
    # sphere at 4 x 4 nodes folds onto Chebyshev nodes in blocks and peaks at
    # 2.5 MiB (5.7 in blocks of 1024 momenta, 10.5 with the direct fold)
    det = qa.sphere_detector([0.0, 0.0, 20.0], radius, source)
    quad = QuadratureSpec(polar_nodes=nodes, azimuth_nodes=nodes)
    tracemalloc.start()
    try:
        if radius < 1.0:
            wp.detector_occupation(iso_amp, det, source, quad)
        else:
            prob._occupation(iso_amp, det, source, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


def test_tabulated_angular_requires_axis():
    grid = np.linspace(3.0, 7.0, 65)
    vals = np.exp(-((grid - 5.0) ** 2))
    cos_grid = np.linspace(-1.0, 1.0, 33)
    with pytest.raises(ValueError):
        wp.tabulated(grid, vals, cos_grid, np.ones(33))


def test_radial_estimator_self_consistency(iso_amp, source):
    # a rule refined to a 1e-10 estimate, and a fixed rule of 64 panels,
    # move the value by less than the acceptance tolerance the default
    # estimator reports against
    req = wp.AngularComponentRequest([0.0, 0.0, 1.0], [0.0, 0.0, 20.0], 4.0)
    base = qa.eval_angular_component(iso_amp, req, source, QuadratureSpec())
    finer = qa.eval_angular_component(iso_amp, req, source,
                                      QuadratureSpec(rtol=1e-10))
    p, weights = wp._radial_rule(iso_amp, 64)
    fixed = weights @ np.exp(1j * (20.0 * p - 2.0 * p * p))
    for other in (finer, fixed):
        assert abs(base - other) <= 2.0 * QuadratureSpec().rtol * abs(base)


@pytest.mark.parametrize("kind, nodes", [("point", 8), ("volume", 2), ("volume", 8)])
def test_full_mass_is_the_profile_total(iso_amp, narrow_amp, standard_det, source,
                                        kind, nodes):
    # Plancherel: far from the source the occupation holds no mass before
    # emission, so the integral over all times is the forward profile's,
    # run uncertified to tau = 130, past its mass; the volume with fewer
    # points than nodes (2 x 2) and with more (8 x 8)
    amp, det = ((narrow_amp, point_detector([0.0, 0.0, 100.0], source)) if kind == "point"
                else (iso_amp, standard_det))
    quad = prob.resolve_time_controls(amp, source, det.distance, det.extent_along_axis,
                                      QuadratureSpec(polar_nodes=nodes,
                                                     azimuth_nodes=nodes))
    curve = wp.detector_occupation(amp, det, source, quad)
    res = semiinfinite_profile(curve, replace(quad, t_cap=130.0), full_mass=np.inf,
                               band=curve.band)[3]
    assert res.t_max == 130.0
    assert curve.full_mass == pytest.approx(res.value, rel=1e-12)


def test_radial_budget_counts_nodes_between_knots(source):
    # the 1,601-knot table at r = 20, tau = 4: 150 panels, whose rule holds
    # 6,840 nodes and 39,872 after three doublings, not 150 * 32 * 8
    amp = tabulated_gaussian_amplitude()
    panels = wp._radial_panels(amp, 20.0, 20.0, 4.0, source.mass)
    assert panels == 150
    assert wp._radial_rule(amp, panels)[0].size == 6840
    assert wp._radial_rule(amp, 8 * panels)[0].size == 39872
    # 10,923 knots ask for 1,024 panels: 262,144 nodes after three doublings
    # in full panels, but every knot splits one, so the rule would hold more
    grid = np.linspace(1.0, 9.0, 10923)
    dense = replace(wp.tabulated(grid, np.exp(-((grid - 5.0) ** 2))), scale=1.0)
    assert 32 * 8 * -(-dense.radial_node_floor // 32) == 2 ** 18
    with pytest.raises(IntegrationError, match="budget of 262144 nodes"):
        wp._radial_panels(dense, 20.0, 20.0, 0.0, source.mass)


@pytest.mark.parametrize("case", ["gaussian", "knotted table", "budget edge"])
def test_radial_panels_count_is_the_rule_size(source, case):
    # the budget counts the pieces' nodes without laying the rule out; the
    # edge is a gaussian held at 1,024 panels: 2^18 nodes after three doublings
    amp = tabulated_gaussian_amplitude() if case == "knotted table" \
        else wp.isotropic_gaussian(5.0, 0.5)
    at_least = 1024 if case == "budget edge" else 1
    panels = wp._radial_panels(amp, 20.0, 20.0, 4.0, source.mass, at_least)
    args = (*amp.p_support, 8 * panels, wp._RADIAL_NODES, amp.knots)
    count = int(panel_pieces(*args)[1].sum())
    assert count == gauss_legendre_panels(*args)[0].size
    assert count == {"gaussian": 256 * panels, "knotted table": 39872,
                     "budget edge": 2 ** 18}[case]


def test_radial_moments_of_a_huge_support():
    # sigma_p ~ 1.9e81: p^3 |R|^2 and (p - mean)^2 p^2 |R|^2 over its support
    # overflowed, and the NaN spread became a NaN step; the moments are taken
    # of p scaled by a power of two, which is exact, so they are those of the
    # same packet 2^270 times smaller, scaled back
    huge = wp.MomentumAmplitude(kind="isotropic-gaussian", p0=5.0, sigma_p=2.0 ** 270)
    small = wp.MomentumAmplitude(kind="isotropic-gaussian", p0=5.0 * 2.0 ** -270,
                                 sigma_p=1.0)
    with np.errstate(all="raise"):
        mean, spread = wp.radial_moments(huge)
    assert np.isfinite(spread) and spread > 0.0
    assert (mean, spread) == tuple(v * 2.0 ** 270 for v in wp.radial_moments(small))
