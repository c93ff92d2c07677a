import numpy as np
import pytest

from qarrival import IntegrationError, QuadratureSpec, cap_detector, sphere_detector, \
    integrate_volume, differentiate_sampled
from qarrival.quadrature import STEP_BAND_MAX, WINDOW_NODES_MAX, _leggauss, \
    gauss_legendre_panels, refine_by_doubling, semiinfinite_profile


def test_constant_never_converges():
    # no certificate holds a constant: the profile ends unconverged at t_cap,
    # and its error estimate is still the certificate's bound
    spec = QuadratureSpec(dt=0.01, t_cap=50.0)
    _, _, _, res = semiinfinite_profile(lambda t: np.ones_like(t), spec,
                                        full_mass=1.0, band=0.0)
    assert not res.converged
    assert res.t_max == pytest.approx(50.0)
    assert res.value == pytest.approx(50.0, rel=1e-12)
    assert res.error_estimate == pytest.approx(49.0, rel=1e-9)


def test_refine_by_doubling_array_levels():
    # entry 2 disagrees up to n = 8: it alone forces two doublings, and the
    # loop returns the level it reached with the residual it accepted
    seen = []

    def level(n):
        seen.append(n)
        values = np.ones(4)
        values[2] += 1.0 / n if n < 8 else 0.0
        return values, 0.0

    value, n, err = refine_by_doubling(level, 2, 3, 1e-12, "toy rule")
    assert seen == [2, 4, 8, 16]
    assert (n, err) == (16, 0.0)
    np.testing.assert_array_equal(value, np.ones(4))


def test_refine_by_doubling_floor_and_failure():
    # the floor stands in for a small value: the first doubling is accepted
    value, n, err = refine_by_doubling(lambda n: (np.array([1e-3 / n]), 1.0),
                                       4, 3, 1e-3, "toy rule")
    assert n == 8 and err == pytest.approx(1e-3 / 8)
    # an entry that never settles raises after the last doubling, naming the rule
    with pytest.raises(IntegrationError, match="toy rule did not converge") as exc:
        refine_by_doubling(lambda n: (np.array([0.0, 1.0 / n]), 0.0), 1, 3, 1e-6,
                           "toy rule")
    assert exc.value.estimate == pytest.approx(1.0 / 8)


def test_profile_cumulative_endpoint_matches_value():
    spec = QuadratureSpec(dt=1e-3, t_cap=100.0)
    _, _, cumulative, res = semiinfinite_profile(lambda t: np.exp(-t), spec,
                                                 full_mass=np.inf, band=0.0)
    assert cumulative[-1] == res.value


def forward_exp(t):
    return np.exp(-np.abs(t)) * (t >= 0.0)


def test_profile_stops_on_known_full_mass():
    # the trapezoid sum of exp(-t) at step h over [0, inf) is (h/2) coth(h/2):
    # known, it stops the profile after the second window; the judge is the
    # same windows run uncertified to tau = 81.92
    spec = QuadratureSpec(dt=0.01, t_cap=81.92)
    full = 0.005 / np.tanh(0.005)
    _, _, ref_cumulative, ref = semiinfinite_profile(forward_exp, spec,
                                                     full_mass=np.inf, band=0.0)
    _, _, cumulative, res = semiinfinite_profile(forward_exp, spec,
                                                 full_mass=full, band=0.0)
    assert not ref.converged and ref.t_max == pytest.approx(81.92)
    assert res.converged and res.t_max == pytest.approx(20.48)
    assert res.value == cumulative[-1]
    np.testing.assert_array_equal(cumulative, ref_cumulative[:cumulative.size])
    assert ref.value - res.value <= full - res.value <= res.error_estimate
    assert res.error_estimate <= spec.eps_tail * res.value
    # an error above eps_tail never certifies: the profile ends at t_cap on
    # the same windows, with that error in its estimate
    _, _, _, loose = semiinfinite_profile(forward_exp, spec, full_mass=full, band=0.0,
                                          mass_error=lambda length: 1e-3)
    assert not loose.converged and loose.value == ref.value
    assert loose.error_estimate >= 1e-3


def test_profile_step_stays_within_band():
    # a step of h * band = 2 pi is divided by 2, so every multiple of dt stays
    # a node, and the profile certifies on the trapezoid mass at h / 2
    spec = QuadratureSpec(dt=0.01, t_cap=81.92)
    tau, _, _, res = semiinfinite_profile(forward_exp, spec,
                                          full_mass=0.0025 / np.tanh(0.0025),
                                          band=2.0 * np.pi / 0.01)
    assert res.converged and res.t_max == pytest.approx(20.48)
    np.testing.assert_allclose(tau[:1025], 0.005 * np.arange(1025), rtol=1e-12, atol=0.0)
    # windows past WINDOW_NODES_MAX samples grow their step only up to the
    # band's bound, and f sees at most WINDOW_NODES_MAX taus at a time
    sizes = []

    def recorded(t):
        sizes.append(t.size)
        return np.exp(-t / 4096.0)

    band = 0.99 * STEP_BAND_MAX
    tau, _, _, res = semiinfinite_profile(recorded, QuadratureSpec(dt=1.0, t_cap=32768.0),
                                          full_mass=np.inf, band=band)
    assert not res.converged and res.t_max == 32768.0
    assert max(np.diff(tau)) * band <= STEP_BAND_MAX
    assert max(sizes) == WINDOW_NODES_MAX
    assert np.count_nonzero(tau > 16384.0) > WINDOW_NODES_MAX


def test_profile_certifies_two_sided_mass():
    # exp(-|t|) holds half its mass before t = 0: the forward sum alone
    # never certifies, so once a window goes quiet (at 40.96) the windows
    # are mirrored at -t and the whole line's trapezoid sum h coth(h/2)
    # certifies the forward profile there, with the uncertified run's values
    spec = QuadratureSpec(dt=0.01, t_cap=81.92)
    seen = []

    def two_sided(t):
        seen.append(t)
        return np.exp(-np.abs(t))

    _, _, ref_cumulative, ref = semiinfinite_profile(two_sided, spec,
                                                     full_mass=np.inf, band=0.0)
    assert all(t.min() >= 0.0 for t in seen)
    seen.clear()
    _, _, cumulative, res = semiinfinite_profile(two_sided, spec,
                                                 full_mass=0.01 / np.tanh(0.005), band=0.0)
    assert res.converged and res.t_max == pytest.approx(40.96)
    np.testing.assert_array_equal(cumulative, ref_cumulative[:cumulative.size])
    assert ref.value - res.value <= res.error_estimate <= spec.eps_tail * res.value
    # mirrored windows go in ascending taus, never past the forward extent
    backward = [t for t in seen if t.max() < 0.0]
    assert backward and all(np.all(np.diff(t) > 0.0) for t in backward)
    assert min(t.min() for t in backward) == -res.t_max


def test_volume_identity(source):
    spec = QuadratureSpec()
    sphere = sphere_detector([0.0, 0.0, 20.0], 0.5, source)
    cap = cap_detector([0.0, 0.0, 1.0], 0.3, 19.0, 21.0, source)
    for det in (sphere, cap):
        vol = integrate_volume(lambda x: np.ones(len(x)), det, spec)
        assert vol == pytest.approx(det.volume, rel=1e-10)


def test_volume_half_space_split(source):
    det = sphere_detector([0.0, 0.0, 20.0], 0.5, source)
    half = integrate_volume(lambda x: (x[:, 2] > 20.0).astype(float), det,
                            QuadratureSpec())
    assert half == pytest.approx(det.volume / 2.0, rel=1e-12)


def test_volume_gaussian_bump_refined(source):
    det = sphere_detector([0.0, 0.0, 20.0], 0.5, source)
    center = det.center

    def bump(x):
        return np.exp(-4.0 * np.sum((x - center) ** 2, axis=1))

    coarse = integrate_volume(bump, det, QuadratureSpec())
    fine = integrate_volume(bump, det, QuadratureSpec(polar_nodes=24, azimuth_nodes=24))
    assert coarse == pytest.approx(fine, rel=1e-6)


def test_differentiate_linear_exact():
    t = np.arange(0.0, 1.0, 0.01)
    d = differentiate_sampled(3.5 * t, 0.01)
    np.testing.assert_allclose(d, 3.5, rtol=0, atol=1e-12)


def test_differentiate_quadratic_interior_exact():
    dt = 0.1
    t = np.arange(0.0, 2.0, dt)
    d = differentiate_sampled(t * t, dt)
    np.testing.assert_allclose(d[1:-1], 2.0 * t[1:-1], rtol=0, atol=1e-12)
    # one-sided ends are second order, exact on quadratics too
    np.testing.assert_allclose(d[[0, -1]], 2.0 * t[[0, -1]], rtol=0, atol=1e-12)


def test_differentiate_sine():
    dt = 1e-3
    t = np.arange(0.0, 1.0, dt)
    d = differentiate_sampled(np.sin(t), dt)
    assert np.max(np.abs(d - np.cos(t))) <= 1e-6


def test_differentiate_contract():
    with pytest.raises(ValueError):
        differentiate_sampled([1.0, 2.0], 0.1)
    with pytest.raises(ValueError):
        differentiate_sampled([1.0, 2.0, 3.0], 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(dt=-0.1)
    with pytest.raises(ValueError):
        QuadratureSpec(eps_tail=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(eps_tail=1.5)
    with pytest.raises(ValueError):
        QuadratureSpec(rtol=0.0)
    with pytest.raises(ValueError):
        semiinfinite_profile(lambda t: t, QuadratureSpec(), full_mass=1.0, band=0.0)


def test_panel_breaks():
    # without breaks: equal panels of the full node count
    x, w = gauss_legendre_panels(1.0, 4.0, 3, 8)
    ref, ref_w = _leggauss(8)
    np.testing.assert_array_equal(x[:8], 1.5 + 0.5 * ref)
    np.testing.assert_array_equal(w[:8], 0.5 * ref_w)
    assert x.size == 24
    # a break inside a panel splits it; each piece keeps the node density,
    # with at least 4 nodes, and a kink at the break integrates exactly
    x, w = gauss_legendre_panels(1.0, 4.0, 3, 8, breaks=[0.5, 2.9, 4.0, 9.0])
    assert x.size == 8 + 8 + 4 + 8
    assert np.all((x > 1.0) & (x < 4.0))
    kinked = np.abs(x - 2.9) * (x - 1.0)
    exact = 1.9 ** 3 / 3 + 9.0 - 4.5 * 1.9      # Integral_0^3 |u - 1.9| u du
    assert float(w @ kinked) == pytest.approx(exact, rel=1e-14)
    x0, w0 = gauss_legendre_panels(1.0, 4.0, 3, 8)
    assert abs(float(w0 @ (np.abs(x0 - 2.9) * (x0 - 1.0))) - exact) > 1e-6


@pytest.mark.parametrize("n", [*range(1, 65), 100, 200])
def test_leggauss_rule(n):
    # the rule integrates x^k, k <= 2n - 1, to 1e-14 of Integral |x|^k; its
    # nodes ascend and mirror to the bit; it agrees with numpy's leggauss,
    # whose weights are the less exact (2e-11 relative at n = 200)
    from numpy.polynomial.legendre import leggauss
    x, w = _leggauss(n)
    assert np.all(np.diff(x) > 0.0) and np.array_equal(x, -x[::-1])
    k = np.arange(2 * n)
    exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    moments = np.array([w @ x ** j for j in k])
    assert np.all(np.abs(moments - exact) <= 1e-14 * 2.0 / (k + 1))
    ref, ref_w = leggauss(n)
    assert np.max(np.abs(x - ref)) <= 1e-12 and np.max(np.abs(w - ref_w)) <= 1e-12
