"""Duhamel splitting and normal-form reduction diagnostics.

In integral form the interaction-picture flow reads

    v_n(t) = v_n(0) + Nosc_n(t) + Res_n(t),

with Nosc the time integral of the nonresonant (oscillatory) sum and Res
the integral of the pointwise resonant term.  Integrating the oscillation
by parts in time converts Nosc into two boundary terms weighted by the
inverse phase plus two higher-degree time integrals; the decomposition
gains two derivatives on the boundary terms and is checked here as an
exact identity up to quadrature error.

All time integrals over the oscillatory kernels are evaluated with the
Filon-Simpson scheme of ``_quadrature`` so that the quadrature error is
governed by the smooth factors, not the integer phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import oscillatory_integral, simpson
from .dynamics import (
    _STEPPERS,
    INTERACTION_VARIANTS,
    FlowSpec,
    Trajectory,
    _drive,
    _embed,
    linearized_rhs_array,
    rhs_array,
)
from .fields import SpectralField, bracket, sobolev_norm
from .resonance import grid_triples

__all__ = [
    "DuhamelSplit",
    "NormalFormTerms",
    "duhamel_split",
    "normal_form_terms",
    "smoothing_report",
    "linearized_evolve",
    "linearized_final",
    "dk_hs_diagnostics",
    "ramer_exponents",
]


@dataclass(frozen=True)
class DuhamelSplit:
    nonresonant: SpectralField
    resonant: SpectralField
    t: float
    quadrature_error_estimate: float


@dataclass(frozen=True)
class NormalFormTerms:
    boundary_t: SpectralField
    boundary_0: SpectralField
    integral_cubic_a: SpectralField
    integral_cubic_b: SpectralField
    t: float

    def total(self) -> SpectralField:
        return (
            self.boundary_t + self.boundary_0 + self.integral_cubic_a + self.integral_cubic_b
        )


def _require_quadrature_ready(traj: Trajectory) -> None:
    if traj.spec.variant not in INTERACTION_VARIANTS:
        raise ValueError("time quadrature requires an interaction-type trajectory")
    if len(traj) < 3:
        raise ValueError("need at least 3 stored states")
    if not traj.is_uniform():
        raise ValueError("stored trajectory must have uniform steps")
    if (len(traj) - 1) % 2 != 0:
        raise ValueError("need an even number of steps for the composite panels")


def _table_for(traj: Trajectory):
    trunc = traj.spec.trunc_n if traj.spec.variant != "interaction" else traj.n_grid
    if trunc is None:
        trunc = traj.n_grid
    return grid_triples(trunc), trunc


def _low_block(coeffs: np.ndarray, trunc: int, n_grid: int) -> np.ndarray:
    if trunc == n_grid:
        return coeffs
    return coeffs[..., n_grid - trunc : n_grid + trunc + 1]


def _nonres_filon(traj: Trajectory, samples_factory, coarsen: int = 1) -> np.ndarray:
    """Filon-integrated, phase-weighted scatter over the triple table.

    ``samples_factory(sample_idx)`` maps stored-state indices (coarsened)
    to per-quad smooth samples (T, nq).  Returns the accumulated vector
    over output modes (low block).
    """
    table, trunc = _table_for(traj)
    dim_low = 2 * trunc + 1
    idx = np.arange(0, len(traj), coarsen)
    h = traj.step_size() * coarsen
    t_start = float(traj.times[0])
    g = samples_factory(idx)
    phi = table.phi.astype(np.float64)
    integrals = oscillatory_integral(phi, g, h)
    integrals = integrals * np.exp(-1j * phi * t_start)
    return table.scatter(integrals, dim_low)


def duhamel_split(traj: Trajectory) -> DuhamelSplit:
    """Split v(t) - v(0) into oscillatory and resonant time integrals."""
    _require_quadrature_ready(traj)
    table, trunc = _table_for(traj)
    sign = traj.spec.sign
    n_grid = traj.n_grid
    h = traj.step_size()
    t_len = float(traj.times[-1] - traj.times[0])

    Vlow_all = _low_block(traj.coeffs, trunc, n_grid)

    def cubic_samples(idx):
        Vlow = Vlow_all[idx]
        return Vlow[:, table.i1] * np.conj(Vlow[:, table.i2]) * Vlow[:, table.i3]

    def compute(coarsen: int):
        nonres_low = -1j * sign * _nonres_filon(traj, cubic_samples, coarsen)
        Vlow = Vlow_all[::coarsen]
        res_low = 1j * sign * simpson(np.abs(Vlow) ** 2 * Vlow, h * coarsen, axis=0)
        return nonres_low, res_low

    nonres_low, res_low = compute(1)
    if (len(traj) - 1) % 4 == 0 and len(traj) >= 5:
        nonres_c, res_c = compute(2)
        err = (np.linalg.norm(nonres_low - nonres_c) + np.linalg.norm(res_low - res_c)) / 15.0
    else:
        err = float("nan")
    nonres = SpectralField(_embed(nonres_low, trunc, n_grid), n_grid)
    res = SpectralField(_embed(res_low, trunc, n_grid), n_grid)
    return DuhamelSplit(
        nonresonant=nonres, resonant=res, t=t_len, quadrature_error_estimate=float(err)
    )


def normal_form_terms(traj: Trajectory) -> NormalFormTerms:
    """Boundary and higher-degree integral terms of the reduction.

    boundary_t + boundary_0 + integral_cubic_a + integral_cubic_b equals
    the oscillatory Duhamel component up to quadrature error.
    """
    _require_quadrature_ready(traj)
    table, trunc = _table_for(traj)
    sign = traj.spec.sign
    n_grid = traj.n_grid
    dim_low = 2 * trunc + 1
    phi = table.phi.astype(np.float64)
    t0 = float(traj.times[0])
    t1 = float(traj.times[-1])

    Vlow_t = _low_block(traj.coeffs[-1], trunc, n_grid)
    Vlow_0 = _low_block(traj.coeffs[0], trunc, n_grid)
    cubic_t = Vlow_t[table.i1] * np.conj(Vlow_t[table.i2]) * Vlow_t[table.i3]
    cubic_0 = Vlow_0[table.i1] * np.conj(Vlow_0[table.i2]) * Vlow_0[table.i3]
    bt = sign * table.scatter(np.exp(-1j * phi * t1) * table.inv_phi * cubic_t, dim_low)
    b0 = -sign * table.scatter(np.exp(-1j * phi * t0) * table.inv_phi * cubic_0, dim_low)

    # full vector field sampled along the stored states, used in the
    # one-slot insertions of the integral terms
    deriv = np.stack(
        [
            rhs_array(traj.spec, traj.coeffs[k], float(traj.times[k]), n_grid)
            for k in range(len(traj))
        ],
        axis=0,
    )
    Dlow_all = _low_block(deriv, trunc, n_grid)
    Vlow_all = _low_block(traj.coeffs, trunc, n_grid)

    def samples_a(idx):
        D, Vlow = Dlow_all[idx], Vlow_all[idx]
        return table.inv_phi * (D[:, table.i1] * np.conj(Vlow[:, table.i2]) * Vlow[:, table.i3])

    def samples_b(idx):
        D, Vlow = Dlow_all[idx], Vlow_all[idx]
        return table.inv_phi * (Vlow[:, table.i1] * np.conj(D[:, table.i2]) * Vlow[:, table.i3])

    int_a = -2.0 * sign * _nonres_filon(traj, samples_a)
    int_b = -1.0 * sign * _nonres_filon(traj, samples_b)

    return NormalFormTerms(
        boundary_t=SpectralField(_embed(bt, trunc, n_grid), n_grid),
        boundary_0=SpectralField(_embed(b0, trunc, n_grid), n_grid),
        integral_cubic_a=SpectralField(_embed(int_a, trunc, n_grid), n_grid),
        integral_cubic_b=SpectralField(_embed(int_b, trunc, n_grid), n_grid),
        t=t1 - t0,
    )


def smoothing_report(traj: Trajectory, s: float) -> dict:
    """Measured smoothing of the split against its expected upper bounds.

    Reports the gained-regularity norms of the two Duhamel components and
    the cubic/quintic right-hand-side surrogates built from H^s norms of
    the trajectory, plus their ratios (0 when the surrogate vanishes).
    """
    split = duhamel_split(traj)
    t_len = split.t
    hs_norms = np.array([sobolev_norm(traj.state(i), s) for i in range(len(traj))])
    sup_hs = float(np.max(hs_norms))
    lhs_nonres = sobolev_norm(split.nonresonant, s + 2.0)
    lhs_res = sobolev_norm(split.resonant, 3.0 * s)
    rhs_nonres = hs_norms[0] ** 3 + hs_norms[-1] ** 3 + t_len * sup_hs**5
    rhs_res = t_len * sup_hs**3
    return {
        "t": t_len,
        "s": s,
        "nonresonant_hs2": lhs_nonres,
        "nonresonant_bound": float(rhs_nonres),
        "nonresonant_ratio": lhs_nonres / rhs_nonres if rhs_nonres > 0 else 0.0,
        "resonant_h3s": lhs_res,
        "resonant_bound": float(rhs_res),
        "resonant_ratio": lhs_res / rhs_res if rhs_res > 0 else 0.0,
        "quadrature_error": split.quadrature_error_estimate,
    }


# -- linearized flow ----------------------------------------------------------


def linearized_final(
    spec: FlowSpec,
    v0: np.ndarray,
    w0: np.ndarray,
    t0: float,
    t1: float,
    n_grid: int,
    store: bool = False,
):
    """Jointly integrate the flow and its first variation.

    ``w0`` may carry leading batch axes (columns) with modes on the last
    axis; ``v0`` is one state of shape (dim,), or ``w0.shape[:-2] + (1, dim)``
    for one base state per leading index.  The scheme's ordinary step runs
    on Y = [V; W], stacked along axis -2, with the joint field of
    ``rhs_array`` and ``linearized_rhs_array``, so the variational stages
    see stage-consistent base values.  Runge-Kutta steps commute with
    linearization, so the result is the exact derivative of the discrete
    flow map; with the Gauss scheme that map is symplectic and the
    variational determinant is structurally unity.  Returns (times, V, W).
    """
    scheme = spec.resolved_integrator(n_grid)
    if scheme not in _STEPPERS:
        raise ValueError("linearized flow supports the rk4 and gauss schemes")
    W0 = np.asarray(w0, dtype=np.complex128)
    cols = W0 if W0.ndim > 1 else W0[None]
    base = np.asarray(v0, dtype=np.complex128).reshape(cols.shape[:-2] + (1, cols.shape[-1]))
    Y0 = np.concatenate([base, cols], axis=-2)

    def joint(t, Y):
        V = Y[..., :1, :]
        dV = rhs_array(spec, V, t, n_grid)
        dW = linearized_rhs_array(spec, V, Y[..., 1:, :], t, n_grid)
        return np.concatenate([dV, dW], axis=-2)

    times, Y = _drive(_STEPPERS[scheme](joint), Y0, t0, t1, spec.dt, store)
    lead = Y.shape[: Y.ndim - cols.ndim]
    V = Y[..., :1, :].reshape(lead + np.shape(v0))
    W = Y[..., 1:, :].reshape(lead + W0.shape)
    return times, V, W


def linearized_evolve(base: Trajectory, w0: SpectralField) -> Trajectory:
    """Evolve a tangent vector along a stored interaction-type trajectory."""
    if w0.n_grid != base.n_grid:
        raise ValueError("tangent vector grid must match the base trajectory")
    times, Vs, Ws = linearized_final(
        base.spec,
        base.coeffs[0],
        w0.coeffs,
        float(base.times[0]),
        float(base.times[-1]),
        base.n_grid,
        store=True,
    )
    if not np.allclose(Vs[-1], base.coeffs[-1], rtol=0, atol=1e-10 * (1 + np.max(np.abs(base.coeffs[-1])))):
        raise RuntimeError("re-integrated base trajectory deviates from the stored one")
    return Trajectory(times=times, coeffs=Ws, spec=base.spec, n_grid=base.n_grid)


# -- Hilbert-Schmidt diagnostics ----------------------------------------------


def ramer_exponents(s: float):
    """Default inner/outer regularity splits and their feasibility.

    The three constraints are s - sig1 > 1/2, (s + sig2)/3 <= s - sig1 and
    s + sig2 - 2 <= s - sig1 with sig1, sig2 > 1/2; they admit a solution
    only for s > 1.
    """
    sigma = 0.51 + (s - 1.0) / 3.0
    if s > 1.0:
        upper = min(s - 0.5, s / 2.0, 1.0) - 1e-9
        sigma = min(max(sigma, 0.5 + 1e-9), upper) if upper > 0.5 else sigma
    sig1 = sig2 = sigma
    feasible = (
        s - sig1 > 0.5
        and (s + sig2) / 3.0 <= s - sig1 + 1e-12
        and s + sig2 - 2.0 <= s - sig1 + 1e-12
        and sig1 > 0.5
        and sig2 > 0.5
    )
    return sig1, sig2, bool(feasible)


def dk_hs_diagnostics(
    u0: SpectralField,
    t: float,
    s: float,
    m_modes: int,
    dt: float = 1e-3,
    sign: int = +1,
) -> dict:
    """Hilbert-Schmidt profile of the nonlinear part of the flow derivative.

    Columns of D(flow - identity) at u0 are assembled on the real H^s-
    orthonormal basis of the span of |n| <= m_modes (one real and one
    imaginary direction per mode) by the variational flow.  Reports the
    H^s Hilbert-Schmidt norm and a power-law fit of the per-mode column
    norms against <n>.
    """
    if m_modes > u0.n_grid:
        raise ValueError("m_modes exceeds the field grid")
    n_grid = u0.n_grid
    dim = 2 * n_grid + 1
    spec = FlowSpec(variant="interaction", sign=sign, dt=dt)
    ns = np.arange(-m_modes, m_modes + 1)
    scale = bracket(ns, -s)
    k = ns.shape[0]
    basis = np.zeros((2 * k, dim), dtype=np.complex128)
    for j, n in enumerate(ns):
        basis[j, n + n_grid] = scale[j]
        basis[k + j, n + n_grid] = 1j * scale[j]
    _, _, W = linearized_final(spec, u0.coeffs, basis, 0.0, t, n_grid, store=False)
    cols = W - basis  # derivative of the nonlinear part only
    wgt = bracket(np.arange(-n_grid, n_grid + 1), s)
    col_norms = np.sqrt(np.sum(np.abs(cols * wgt) ** 2, axis=-1))
    hs_norm = float(np.sqrt(np.sum(col_norms**2)))
    per_mode = np.sqrt(col_norms[:k] ** 2 + col_norms[k:] ** 2)
    sig1, sig2, feasible = ramer_exponents(s)
    # decay of the column norms against <n> on the outer half of the modes
    sel = np.abs(ns) >= max(2, m_modes // 2)
    decay = float("nan")
    if np.any(sel) and np.all(per_mode[sel] > 0):
        x = np.log(bracket(ns[sel], 1.0))
        y = np.log(per_mode[sel])
        slope = np.polyfit(x, y, 1)[0]
        decay = float(-slope)
    return {
        "t": t,
        "s": s,
        "m_modes": m_modes,
        "hs_norm": hs_norm,
        "column_modes": ns.tolist(),
        "column_norms": per_mode.tolist(),
        "decay_exponent": decay,
        "sigma1": sig1,
        "sigma2": sig2,
        "exponents_feasible": feasible,
        "short_time_window": t <= 0.05 + 1e-12,
    }
