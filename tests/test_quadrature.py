import numpy as np
import pytest

from bnls._quadrature import collocation_osc_weights, oscillatory_integral


def test_simpson_exact_on_cubics():
    # the rate-0 case of the Filon rule is composite Simpson
    h = 0.1
    t = np.arange(5) * h
    samples = 2.0 * t**3 - t + 1.0
    exact = 2.0 * t[-1] ** 4 / 4 - t[-1] ** 2 / 2 + t[-1]
    got = oscillatory_integral(np.zeros(1), samples[:, None], h)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(exact, rel=1e-14)
    assert got[0].imag == 0.0


def test_panel_weights_reduce_to_simpson():
    # the Filon panel weights of oscillatory_integral on [0, 2h] at rate 0: Simpson (1, 4, 1) h/3
    w0, w1, w2 = collocation_osc_weights(np.array([0.0]), 2.0 * 0.05, 1.0, 3)
    assert w0[0].real == pytest.approx(0.05 / 3, rel=1e-12)
    assert w1[0].real == pytest.approx(4 * 0.05 / 3, rel=1e-12)
    assert w2[0].real == pytest.approx(0.05 / 3, rel=1e-12)
    assert max(abs(w0[0].imag), abs(w1[0].imag), abs(w2[0].imag)) <= 1e-15


def test_collocation_weights_reduce_to_newton_cotes():
    # 5 equispaced nodes at rate 0: Boole weights (7, 32, 12, 32, 7) h/90 with h the node gap
    weights = collocation_osc_weights(np.array([0.0]), 1.0, 1.0, n_nodes=5)
    expected = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) * (0.25 / 22.5)
    assert len(weights) == 5
    for w, e in zip(weights, expected):
        assert w[0].real == pytest.approx(e, rel=1e-12)
        assert abs(w[0].imag) <= 1e-15


def test_half_interval_weights():
    # integrating the quadratic interpolant only to width/2
    w0, w1, w2 = collocation_osc_weights(np.array([0.0]), 1.0, 0.5, 3)
    assert w0[0].real == pytest.approx(5.0 / 24.0)
    assert w1[0].real == pytest.approx(8.0 / 24.0)
    assert w2[0].real == pytest.approx(-1.0 / 24.0)


@pytest.mark.parametrize("rate", [0.0, 0.01, 3.0, 500.0, -12345.0])
def test_oscillatory_weights_exact_for_quadratic_times_phase(rate):
    # int_0^w e^{-i rate t} (a + b t + c t^2) dt via dense quadrature oracle
    width = 0.02
    a, b, c = 0.7, -1.3, 2.9
    tt = np.linspace(0.0, width, 200_001)
    g = a + b * tt + c * tt**2
    oracle = np.trapezoid(np.exp(-1j * rate * tt) * g, tt)
    w = collocation_osc_weights(np.array([float(rate)]), width, 1.0, n_nodes=3)
    nodes = np.array([0.0, width / 2, width])
    got = sum(wk[0] * (a + b * tn + c * tn**2) for wk, tn in zip(w, nodes))
    assert got == pytest.approx(oracle, abs=5e-11)


def test_composite_oscillatory_integral_against_quadrature():
    rates = np.array([0.0, 7.0, 400.0, -1500.0])
    h = 1e-3
    n = 41
    t = np.arange(n) * h

    def g(t):
        return np.cos(3.0 * t) + 0.5 * t

    samples = np.tile(g(t)[:, None], (1, rates.shape[0]))
    got = oscillatory_integral(rates, samples, h)
    tt = np.linspace(0.0, t[-1], 400_001)
    for k, rate in enumerate(rates):
        oracle = np.trapezoid(np.exp(-1j * rate * tt) * g(tt), tt)
        assert got[k] == pytest.approx(oracle, abs=1e-10)


def test_oscillatory_integral_requires_even_panels():
    with pytest.raises(ValueError):
        oscillatory_integral(np.array([1.0]), np.zeros((4, 1)), 0.1)
