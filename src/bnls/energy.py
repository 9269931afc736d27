"""Modified energy for the truncated interaction flow.

The H^s square of a truncated solution is not monotone under the flow;
adding a phase-weighted quartic correction cancels its worst derivative
term.  With the correction

    corr_t(v) = -2 Re sum_n sum_{triples(n)} e^{-i phi t} / phi
                 * <n>^{2s} v_{n1} conj(v_{n2}) v_{n3} conj(v_n),

the modified energy E_t(v) = |v|_{H^s}^2 + corr_t(v) differentiates along
the truncated flow into six sextic terms (three with a second nonresonant
convolution, three with a resonant insertion), each evaluated here exactly
by reusing the single-convolution form of the inner sums.  The
finite-difference derivative of E_t along a stored trajectory provides the
independent check of that identity.

Batched table sums (``correction_array``, ``_sextic_terms``) group
the quads by the pair sum m = n1 + n3 = n2 + n and fold them by the two
symmetries of the phase, n1 <-> n3 and n2 <-> n.  Over the pairs
(i, m - i) with i <= m - i, at most F = limit+1 per m, the quartic sum
of a form a_{n1} conj(b_{n2}) c_{n3} conj(d_n) is sum_m p_m^T S_m
conj(r_m):

* S_m is an (F, F) block of e^{-i phi t} / phi, halved once per centre
  pair (i = m - i); it does not depend on s;
* p_m[k] = a_i c_{m-i} + a_{m-i} c_i;
* r_m[k] = <m-j>^{2s} b_j d_{m-j} + <j>^{2s} b_{m-j} d_j carries the one
  factor that is not symmetric, <n>^{2s}.

The quad set is closed under both swaps, so this is exact for any four
arrays.  With M = 4*limit+1 pair sums, a row costs M F^2 complex
multiply-adds in gemms whose M dimension is the rows, (4N+1)(N+1)^2
against (4N+1)(2N+1)^2 for dense (D, D) blocks: 18 785 against 70 785
at N = 16.  A row's result does not depend on the other rows of its
batch when BLAS runs on one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import FlowSpec, Trajectory, evolve_array, gamma_sum
from .fields import SpectralField, bracket, project_low, sobolev_norm, sobolev_norm_array
from .resonance import grid_triples

__all__ = [
    "ModifiedEnergyReport",
    "DerivativeTerms",
    "correction",
    "correction_array",
    "modified_energy",
    "derivative_terms",
    "energy_bound_scan",
]

_PAIR_BYTES = 1 << 19  # bytes of one row block's pair products, per array; 1 MB blocks measured slower


@dataclass(frozen=True)
class ModifiedEnergyReport:
    sobolev_sq: float
    correction: float
    total: float
    t: float
    s: float
    trunc_n: int


@dataclass(frozen=True)
class DerivativeTerms:
    n1: float
    r1: float
    n2: float
    r2: float
    n3: float
    r3: float
    sum: float
    fd_derivative: float
    fd_refined: float
    bound_rhs: float


def _rows(V: np.ndarray, limit: int) -> np.ndarray:
    """Coefficient arrays (..., 2*limit+1) as rows of a (B, 2*limit+1) array."""
    dim = 2 * limit + 1
    if V.shape[-1:] != (dim,):
        raise ValueError(f"coefficient arrays must have last axis {dim} for limit {limit}, got shape {V.shape}")
    return V.reshape(-1, dim)


@lru_cache(maxsize=32)
def _fold(limit: int) -> tuple[np.ndarray, ...]:
    """The folded pairs of every pair sum, and the slots of the quads' weights.

    Pair sum m = 0 .. 4*limit of two mode indices holds the pairs
    (i, m - i) with lo(m) <= i <= m - i, lo(m) = max(0, m - 2*limit); its
    k-th pair is i = lo(m) + k, k <= limit.  Returns (I, J, slots, phi,
    scale), read-only:

    * I, J (4*limit+1, limit+1): i and m - i, with mode 0 past the last
      pair of m (those slots carry no weight);
    * slots: the flat [m, k1, k2] slot of each table quad with i1 <= i3
      and i2 <= iout, one of the (up to) four quads that the two swaps
      i1 <-> i3 and i2 <-> iout relate, which share phi;
    * phi and scale = 1/phi, halved once for each centre pair (i = m - i)
      of the quad, whose product the pair sum counts twice.
    """
    table = grid_triples(limit)
    m = np.arange(4 * limit + 1)[:, None]
    first = np.maximum(m - 2 * limit, 0) + np.arange(limit + 1)
    inside = first <= m - first
    I, J = np.where(inside, first, 0), np.where(inside, m - first, 0)
    keep = (table.i1 <= table.i3) & (table.i2 <= table.iout)
    i1, i2, i3, iout = (i[keep] for i in (table.i1, table.i2, table.i3, table.iout))
    mq = i1 + i3
    lo = np.maximum(mq - 2 * limit, 0)
    slots = (mq * (limit + 1) + i1 - lo) * (limit + 1) + i2 - lo
    scale = table.inv_phi[keep] * 0.5 ** ((i1 == i3).astype(np.int64) + (i2 == iout))
    fold = (I, J, slots, table.phi[keep].astype(np.float64), scale)
    for a in fold:
        a.flags.writeable = False
    return fold


def _fold_weights(limit: int, t: float) -> np.ndarray:
    """S[m, k1, k2] = e^{-i phi t} / phi of quad (I[m, k1], I[m, k2], J[m, k1], J[m, k2]), halved per centre pair."""
    I, _, slots, phi, scale = _fold(limit)
    S = np.zeros(I.shape + I.shape[-1:], dtype=np.complex128)
    S.reshape(-1)[slots] = np.exp(-1j * phi * t) * scale
    return S


def _block_rows(limit: int) -> int:
    """Rows of one block of ``_pair_sums``: its pair products take at most ``_PAIR_BYTES`` per array."""
    return max(2, _PAIR_BYTES // (16 * (4 * limit + 1) * (limit + 1)))


def _products(
    x: np.ndarray, y: np.ndarray, I: np.ndarray, J: np.ndarray, u: np.ndarray, swapped: np.ndarray, spare: np.ndarray
) -> None:
    """u = x_i y_{m-i} and swapped = x_{m-i} y_i at the folded pairs (i, m - i) of rows x, y.

    I and J are the pairs of ``_fold``; u, swapped and spare are
    (rows, M, F) buffers, written in place.  When x is y the two products
    are equal, and the caller passes u as swapped.
    """
    np.take(x, I, axis=1, out=u, mode="clip")
    if swapped is u:
        u *= np.take(x, J, axis=1, out=spare, mode="clip")
        return
    np.take(x, J, axis=1, out=swapped, mode="clip")
    u *= np.take(y, J, axis=1, out=spare, mode="clip")
    swapped *= np.take(y, I, axis=1, out=spare, mode="clip")


def _row_pairs(u: np.ndarray, swapped: np.ndarray, w_i: np.ndarray, w_j: np.ndarray, out: np.ndarray) -> None:
    """Conjugated row-side pair products <m-j>^{2s} b_j d_{m-j} + <j>^{2s} b_{m-j} d_j, into out.

    u = b_j d_{m-j} and swapped = b_{m-j} d_j come from ``_products``;
    w_i = <j>^{2s} and w_j = <m-j>^{2s} at the folded pairs (j, m - j).
    """
    if swapped is u:
        np.multiply(u, w_i + w_j, out=out)
    else:
        np.multiply(u, w_j, out=out)
        out += w_i * swapped
    np.conjugate(out, out=out)


def _pair_sums(limit: int, t: float, s: float, pairs: list, forms: list) -> np.ndarray:
    """Per form and row, sum over the quads of E a_{i1} conj(b_{i2}) c_{i3} conj(<n>^{2s} d_{iout}).

    E = e^{-i phi t} / phi.  ``pairs`` holds (x, y) pairs of (rows,
    2*limit+1) arrays.  Form (lhs, rhs, swap) takes (a, c) = pairs[lhs]
    and (b, d) = pairs[rhs], reversed when swap is true.  Grouped by the
    pair sum m = i1 + i3 = i2 + iout and folded by the phase's symmetries
    i1 <-> i3 and i2 <-> iout, the sum is sum_m p_m^T S_m conj(r_m), with
    the blocks S of ``_fold_weights``, p_m = a_i c_{m-i} + a_{m-i} c_i and
    r_m of ``_row_pairs``.

    Each p_m^T S_m is one gemm per m with the rows as its M dimension, and
    a row's sum over (m, k) is one contiguous reduction, so with one BLAS
    thread a row's result does not depend on the other rows.  A one-row
    block is duplicated: the one-row product takes another BLAS path, which
    rounds differently.  Rows go in blocks whose pair products take at most
    ``_PAIR_BYTES`` per array, and every block reuses the same buffers.
    """
    I, J = _fold(limit)[:2]
    S = _fold_weights(limit, t)
    w = bracket(np.arange(-limit, limit + 1), 2.0 * s)
    w_i, w_j = w[I], w[J]
    rows = pairs[0][0].shape[0]
    step = _block_rows(limit)
    size = max(2, min(step, rows))

    def buffer(shape=(size,) + I.shape):
        return np.empty(shape, dtype=np.complex128)

    products = [(buffer(), None if x is y else buffer()) for x, y in pairs]
    lefts = [buffer((I.shape[0], size, I.shape[1])) for _ in pairs]
    spare = buffer()
    out = np.empty((len(forms), rows), dtype=np.complex128)
    for start in range(0, rows, step):
        n = min(step, rows - start)
        take = np.arange(start, start + n) if n > 1 else np.array([start, start])
        k, terms = take.size, spare[: take.size]
        block = []
        for (x, y), (u, swapped) in zip(pairs, products):
            xs = x[take]
            u = u[:k]
            swapped = u if swapped is None else swapped[:k]
            _products(xs, xs if y is x else y[take], I, J, u, swapped, terms)
            block.append((u, swapped))
        ps = [
            np.matmul(np.add(u, swapped, out=terms).transpose(1, 0, 2), S, out=p[:, :k]).transpose(1, 0, 2)
            for (u, swapped), p in zip(block, lefts)
        ]
        for f, (lhs, rhs, swap) in enumerate(forms):
            u, swapped = block[rhs][::-1] if swap else block[rhs]
            _row_pairs(u, swapped, w_i, w_j, terms)
            terms *= ps[lhs]
            out[f, start : start + n] = terms.reshape(k, -1).sum(axis=1)[:n]
    return out


def correction_array(V: np.ndarray, t: float, s: float, limit: int) -> np.ndarray:
    """Correction term for coefficient arrays (..., 2*limit+1), batched.

    Raises ValueError when the last axis is not 2*limit+1 wide.
    """
    v = _rows(V, limit)
    if _fold(limit)[2].size == 0:  # no nonresonant quad
        return np.zeros(V.shape[:-1])
    sums = _pair_sums(limit, t, s, [(v, v)], [(0, 0, False)])
    return (-2.0 * sums[0].real).reshape(V.shape[:-1])


def correction(v: SpectralField, t: float, s: float) -> float:
    """Phase-weighted quartic correction of the H^s energy (s > 1/2 regime)."""
    return float(correction_array(v.coeffs, t, s, v.n_grid))


def modified_energy(v: SpectralField, t: float, s: float, trunc_n: int) -> ModifiedEnergyReport:
    """E_t of the low-mode projection: H^s square plus correction."""
    if trunc_n > v.n_grid:
        raise ValueError("trunc_n exceeds field grid")
    low = project_low(v, trunc_n)
    low_block = low.coeffs[v.n_grid - trunc_n : v.n_grid + trunc_n + 1]
    sob = sobolev_norm(low, s) ** 2
    corr = float(correction_array(low_block, t, s, trunc_n))
    return ModifiedEnergyReport(
        sobolev_sq=float(sob), correction=corr, total=float(sob + corr), t=t, s=s, trunc_n=trunc_n
    )


def _modified_energy_series(coeffs: np.ndarray, times: np.ndarray, s: float, trunc_n: int, n_grid: int):
    """E_t along stored states; coeffs (T, dim) or (T, B, dim)."""
    low = coeffs[..., n_grid - trunc_n : n_grid + trunc_n + 1]
    sob = sobolev_norm_array(low, s) ** 2
    corr = np.empty(sob.shape)
    for k, t in enumerate(times):
        corr[k] = correction_array(low[k], float(t), s, trunc_n)
    return sob + corr


def _sextic_terms(V: np.ndarray, t: float, s: float, trunc_n: int) -> np.ndarray:
    """The six sextic terms (n1, r1, n2, r2, n3, r3) of dE_t/dt at states (..., 2*trunc_n+1).

    With the inner nonresonant sums g at every output mode (one batched
    ``gamma_sum``) and the resonant insertion c = |v|^2 v, each term is
    Re(i k Q) = -k Im Q for one pair-sum form
    Q(a, b, c, d) = sum_q w a_{n1} conj(b_{n2}) c_{n3} conj(d_n) with g (a
    nonresonant term) or c (its resonant insertion) in one slot.  Returns
    an array of shape (6,) + V.shape[:-1], one row per term.
    """
    v = _rows(V, trunc_n)
    g = gamma_sum(v, t, trunc_n)
    c = (np.abs(v) ** 2) * v
    # (a, b, c, d) = (g, v, v, v), (c, v, v, v), (v, g, v, v), (v, c, v, v), (v, v, v, g), (v, v, v, c)
    forms = [(0, 2, False), (1, 2, False), (2, 0, False), (2, 1, False), (2, 0, True), (2, 1, True)]
    sums = _pair_sums(trunc_n, t, s, [(g, v), (c, v), (v, v)], forms)
    terms = -np.array([4.0, -4.0, -2.0, 2.0, -2.0, 2.0])[:, None] * sums.imag
    return terms.reshape((6,) + V.shape[:-1])


def derivative_terms(
    traj: Trajectory,
    t_index: int,
    s: float,
    trunc_n: int,
) -> DerivativeTerms:
    """Exact sextic derivative terms of E_t at a stored time, with oracle.

    The analytic sum is compared against the centered finite difference of
    the modified energy along the trajectory, and the scale-invariant
    bound surrogate |v|_{l2}^{4+theta} |v|_{H^{s-1/2-eps}}^{2-theta}, with
    theta = 0.1 and eps = 0.05, is reported alongside.
    """
    if traj.spec.variant not in ("truncated_embedded", "truncated_finite"):
        raise ValueError("derivative terms are defined along the truncated flow")
    if traj.spec.trunc_n != trunc_n:
        raise ValueError("trajectory truncation differs from requested trunc_n")
    if traj.spec.sign != +1:
        raise ValueError("the modified-energy identity is defocusing-only")
    if not 0 < t_index < len(traj) - 1:
        raise IndexError("t_index must be an interior stored index")
    n_grid = traj.n_grid
    t = float(traj.times[t_index])
    v = traj.coeffs[t_index][None, n_grid - trunc_n : n_grid + trunc_n + 1]
    terms = _sextic_terms(v, t, s, trunc_n)[:, 0]
    total = float(sum(terms))

    h = traj.step_size()
    e_local = _modified_energy_series(
        traj.coeffs[t_index - 1 : t_index + 2], traj.times[t_index - 1 : t_index + 2], s, trunc_n, n_grid
    )
    fd = float((e_local[2] - e_local[0]) / (2.0 * h))
    fd_ref = _fd_derivative_refined(traj, t_index, s, trunc_n)

    return DerivativeTerms(
        *map(float, terms),
        sum=total,
        fd_derivative=fd,
        fd_refined=fd_ref,
        bound_rhs=float(_bound_surrogate(traj.coeffs[t_index], s)),
    )


def _bound_surrogate(V: np.ndarray, s: float, theta: float = 0.1, epsilon: float = 0.05) -> np.ndarray:
    """|v|_{l2}^{4+theta} |v|_{H^{s-1/2-eps}}^{2-theta} of each row of V (modes on the last axis)."""
    l2 = sobolev_norm_array(V, 0.0)
    return l2 ** (4.0 + theta) * sobolev_norm_array(V, s - 0.5 - epsilon) ** (2.0 - theta)


def _fd_derivative_refined(traj: Trajectory, t_index: int, s: float, trunc_n: int) -> float:
    """Independent derivative oracle with a short-stencil refinement.

    The modified energy itself carries fast oscillation at the interaction
    phases, so a centered difference over the stored step (the contracted
    ``fd_derivative``) is limited by that oscillation rather than by the
    identity being tested.  This oracle evolves the stored state over a
    +/- 1e-6 window with fine channel-exact substeps and differences there;
    it still uses only the flow and the energy evaluation, never the
    analytic derivative terms.
    """
    t_star = float(traj.times[t_index])
    v_star = traj.coeffs[t_index]

    def centered(delta: float) -> float:
        fine = replace(traj.spec, dt=delta / 4.0, integrator="filon")
        _, vp = evolve_array(fine, v_star, t_star, t_star + delta, traj.n_grid, store=False)
        _, vm = evolve_array(fine, v_star, t_star, t_star - delta, traj.n_grid, store=False)
        pair = np.stack([vp, vm])
        times = np.array([t_star + delta, t_star - delta])
        e_pair = _modified_energy_series(pair, times, s, trunc_n, traj.n_grid)
        return float((e_pair[0] - e_pair[1]) / (2.0 * delta))

    coarse, fine_fd = centered(1e-6), centered(0.5e-6)
    return (4.0 * fine_fd - coarse) / 3.0


def energy_bound_scan(
    ensemble_size: int,
    s: float,
    n_list: list[int],
    t_end: float = 0.1,
    dt: float = 1e-3,
    theta: float = 0.1,
    epsilon: float = 0.05,
    seed: int = 0,
) -> dict:
    """Distribution of |dE/dt| / bound over Gaussian draws and truncations.

    For each truncation the modified energy derivative is evaluated by the
    exact six-term sum at every tenth step of an ensemble of truncated-flow
    trajectories (a coarse-grid finite difference would be dominated by the
    fast phase oscillation of the correction term at larger truncations)
    and normalized by the bound surrogate.  Reports max and p99 per truncation
    and the doubling-stability flags.
    """
    from .measures import GaussianSpec, sample  # measures imports energy at its top

    per_n_max, per_n_p99 = {}, {}
    for trunc in n_list if ensemble_size else ():
        gspec = GaussianSpec(s=s, sample_cutoff=trunc, seed=seed)
        ens = sample(gspec, ensemble_size)
        fspec = FlowSpec(variant="truncated_embedded", trunc_n=trunc, dt=dt)
        times, states = evolve_array(fspec, ens.coeffs, 0.0, t_end, trunc, store=True)
        sel = np.arange(0, times.shape[0], 10)
        ratios = []
        for k in sel:
            dE = _sextic_terms(states[k], float(times[k]), s, trunc).sum(axis=0)
            ratios.append(np.abs(dE) / _bound_surrogate(states[k], s, theta, epsilon))
        ratio = np.concatenate(ratios)
        per_n_max[trunc] = float(np.max(ratio))
        per_n_p99[trunc] = float(np.quantile(ratio, 0.99))
    ordered = sorted(per_n_max)
    stable = all(
        per_n_max[big] <= 2.0 * per_n_max[small] + 1e-12  # NaN fails
        for small, big in zip(ordered, ordered[1:])
        if big == 2 * small
    )
    return {
        "empty": ensemble_size == 0,
        "s": s,
        "theta": theta,
        "epsilon": epsilon,
        "n_list": list(n_list),
        "ratio_max": {str(k): v for k, v in per_n_max.items()},
        "ratio_p99": {str(k): v for k, v in per_n_p99.items()},
        "finite": bool(all(np.isfinite(v) for v in per_n_p99.values())),
        "stable": stable,
    }
