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
from .dynamics import INTERACTION_VARIANTS, FlowSpec, Trajectory, linearized_final, rhs_array
from .fields import SpectralField, bracket, sobolev_norm
from .resonance import grid_triples

__all__ = [
    "DuhamelSplit",
    "NormalFormTerms",
    "duhamel_split",
    "normal_form_terms",
    "smoothing_report",
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


def _nonres_filon(traj: Trajectory, g: np.ndarray, coarsen: int = 1) -> np.ndarray:
    """Filon-integrated, phase-weighted scatter over the triple table.

    ``g`` holds the per-quad smooth samples (T, nq) at the stored states;
    every ``coarsen``-th state is used.  Returns the accumulated vector over
    the output modes |n| <= limit.
    """
    limit = traj.spec.interaction_limit(traj.n_grid)
    table = grid_triples(limit)
    phi = table.phi.astype(np.float64)
    integrals = oscillatory_integral(phi, g[::coarsen], traj.step_size() * coarsen)
    integrals = integrals * np.exp(-1j * phi * float(traj.times[0]))
    return table.scatter(integrals, 2 * limit + 1)


def duhamel_split(traj: Trajectory) -> DuhamelSplit:
    """Split v(t) - v(0) into oscillatory and resonant time integrals."""
    _require_quadrature_ready(traj)
    n_grid = traj.n_grid
    limit = traj.spec.interaction_limit(n_grid)
    table = grid_triples(limit)
    sign = traj.spec.sign
    h = traj.step_size()
    t_len = float(traj.times[-1] - traj.times[0])

    V = traj.coeffs[:, n_grid - limit : n_grid + limit + 1]
    cubic = V[:, table.i1] * np.conj(V[:, table.i2]) * V[:, table.i3]

    def compute(coarsen: int):
        nonres_low = -1j * sign * _nonres_filon(traj, cubic, coarsen)
        Vc = V[::coarsen]
        res_low = 1j * sign * simpson(np.abs(Vc) ** 2 * Vc, h * coarsen, axis=0)
        return nonres_low, res_low

    nonres_low, res_low = compute(1)
    if (len(traj) - 1) % 4 == 0 and len(traj) >= 5:
        nonres_c, res_c = compute(2)
        err = (np.linalg.norm(nonres_low - nonres_c) + np.linalg.norm(res_low - res_c)) / 15.0
    else:
        err = float("nan")
    nonres = SpectralField(nonres_low, limit).on_grid(n_grid)
    res = SpectralField(res_low, limit).on_grid(n_grid)
    return DuhamelSplit(
        nonresonant=nonres, resonant=res, t=t_len, quadrature_error_estimate=float(err)
    )


def normal_form_terms(traj: Trajectory) -> NormalFormTerms:
    """Boundary and higher-degree integral terms of the reduction.

    boundary_t + boundary_0 + integral_cubic_a + integral_cubic_b equals
    the oscillatory Duhamel component up to quadrature error.
    """
    _require_quadrature_ready(traj)
    n_grid = traj.n_grid
    limit = traj.spec.interaction_limit(n_grid)
    table = grid_triples(limit)
    sign = traj.spec.sign
    dim_low = 2 * limit + 1
    phi = table.phi.astype(np.float64)
    t0 = float(traj.times[0])
    t1 = float(traj.times[-1])

    low = slice(n_grid - limit, n_grid + limit + 1)
    V = traj.coeffs[:, low]
    cubic_t = V[-1, table.i1] * np.conj(V[-1, table.i2]) * V[-1, table.i3]
    cubic_0 = V[0, table.i1] * np.conj(V[0, table.i2]) * V[0, table.i3]
    bt = sign * table.scatter(np.exp(-1j * phi * t1) * table.inv_phi * cubic_t, dim_low)
    b0 = -sign * table.scatter(np.exp(-1j * phi * t0) * table.inv_phi * cubic_0, dim_low)

    # full vector field at every stored state, used in the one-slot
    # insertions of the integral terms
    D = rhs_array(traj.spec, traj.coeffs, traj.times[:, None], n_grid)[:, low]
    # each (T, nq) sample array is built inside the call that consumes it,
    # so only one of them is alive at a time
    int_a = -2.0 * sign * _nonres_filon(
        traj, table.inv_phi * (D[:, table.i1] * np.conj(V[:, table.i2]) * V[:, table.i3])
    )
    int_b = -1.0 * sign * _nonres_filon(
        traj, table.inv_phi * (V[:, table.i1] * np.conj(D[:, table.i2]) * V[:, table.i3])
    )

    return NormalFormTerms(
        boundary_t=SpectralField(bt, limit).on_grid(n_grid),
        boundary_0=SpectralField(b0, limit).on_grid(n_grid),
        integral_cubic_a=SpectralField(int_a, limit).on_grid(n_grid),
        integral_cubic_b=SpectralField(int_b, limit).on_grid(n_grid),
        t=t1 - t0,
    )


# Largest resonant ratio (H^{3s} norm of the resonant integral over t sup ||v||_{H^s}^3)
# that counts as within the smoothing bound.
RESONANT_BOUND_SLACK = 1.0 + 1e-6


def smoothing_report(traj: Trajectory, s: float) -> dict:
    """Measured smoothing of the split against its expected upper bounds.

    Reports the gained-regularity norms of the two Duhamel components and
    the cubic/quintic right-hand-side surrogates built from H^s norms of
    the trajectory, plus their ratios (0 when the surrogate vanishes).
    """
    split = duhamel_split(traj)
    t_len = split.t
    w = bracket(np.arange(-traj.n_grid, traj.n_grid + 1), s)
    hs_norms = np.sqrt(np.sum((w * np.abs(traj.coeffs)) ** 2, axis=-1))
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
