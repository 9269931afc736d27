"""Composite quadrature on uniformly sampled data.

One scheme, ``oscillatory_integral``: Filon-Simpson for integrals of the
form int_0^T e^{-i phi t} g(t) dt with integer rates phi and smooth g.
On each two-step panel the phase factor is integrated exactly against the
quadratic interpolant of g, so the error involves derivatives of g only,
not of the oscillation.  At phi = 0 the panel weights are Simpson's
(1, 4, 1) h/3, so the rate-0 case is the composite Simpson rule for
smooth integrands.

It assumes samples at 0, h, 2h, ..., T with an even number of intervals.
"""

from __future__ import annotations

import numpy as np

__all__ = ["oscillatory_integral"]


def _power_moments(theta: np.ndarray, c: float, jmax: int):
    """A_j = int_0^c u^j e^{-i theta u} du for j = 0..jmax.

    Closed forms for |theta| >= 0.3, truncated power series below (the
    closed forms lose accuracy to cancellation as theta -> 0).
    """
    theta = np.asarray(theta, dtype=np.float64)
    small = np.abs(theta) < 0.3
    th = np.where(small, 1.0, theta)
    it = 1j * th
    E = np.exp(-it * c)
    closed = [(1.0 - E) / it]
    for j in range(1, jmax + 1):
        closed.append((j * closed[j - 1] - c**j * E) / it)
    series = [np.zeros_like(theta, dtype=np.complex128) for _ in range(jmax + 1)]
    term = np.ones_like(series[0])  # (-i theta)^m / m!
    for m in range(18):
        for j in range(jmax + 1):
            series[j] = series[j] + term * c ** (j + m + 1) / (j + m + 1)
        term = term * (-1j * theta) / (m + 1)
    return [np.where(small, series[j], closed[j]) for j in range(jmax + 1)]


def _lagrange_coeffs(n_nodes: int) -> np.ndarray:
    """Monomial coefficients of the Lagrange basis on equispaced [0, 1]."""
    u = np.linspace(0.0, 1.0, n_nodes)
    V = np.vander(u, n_nodes, increasing=True)
    return np.linalg.inv(V).T  # row k: coefficients of basis poly k


def collocation_osc_weights(
    rates: np.ndarray, width: float, fraction: float = 1.0, n_nodes: int = 3
):
    """Weights for int_0^{fraction*width} e^{-i rate t} g(t) dt.

    g is replaced by its degree-(n_nodes-1) interpolant on the equispaced
    nodes {0, ..., width}; the oscillation is integrated exactly.  At
    rate -> 0 with fraction = 1 these reduce to closed Newton-Cotes
    weights (Simpson for 3 nodes, Boole for 5).
    """
    theta = np.asarray(rates, dtype=np.float64) * width
    moments = _power_moments(theta, fraction, n_nodes - 1)
    coeffs = _lagrange_coeffs(n_nodes)
    return [width * sum(coeffs[k, m] * moments[m] for m in range(n_nodes)) for k in range(n_nodes)]


def oscillatory_integral(rates: np.ndarray, samples: np.ndarray, h: float) -> np.ndarray:
    """int_0^{T} e^{-i rate t} g(t) dt per rate, from samples g(k h).

    ``samples`` has time on axis 0 and one column per rate; the sample
    count must be odd (even interval count).
    """
    n = samples.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("oscillatory integral needs an odd sample count")
    rates = np.asarray(rates, dtype=np.float64)
    # Filon weights on a panel [0, 2h], exact in the oscillation
    w0, w1, w2 = collocation_osc_weights(rates, 2.0 * h, 1.0, 3)
    advance = np.exp(-2j * rates * h)  # phase prefactor step per panel
    prefactor = np.ones_like(advance, dtype=np.complex128)
    acc = np.zeros(np.broadcast_shapes(rates.shape, samples.shape[1:]), dtype=np.complex128)
    for p in range(0, n - 2, 2):
        acc += prefactor * (w0 * samples[p] + w1 * samples[p + 1] + w2 * samples[p + 2])
        prefactor = prefactor * advance
    return acc
