"""Time integration for the quartic-dispersion cubic NLS family.

Variants (all posed on Fourier coefficients, see ``fields`` for
conventions; sign = +1 is defocusing):

* ``physical``           i u_t = u_xxxx + sign |u|^2 u
* ``renormalized``       i w_t = w_xxxx + sign (|w|^2 - 2 avg|w|^2) w
* ``interaction``        v_n' = -i sign sum_{nonres} e^{-i phi t} v v~ v
                                 + i sign |v_n|^2 v_n
* ``truncated_embedded`` interaction right-hand side restricted to the
                         triples and outputs with |n| <= trunc_n; higher
                         modes are frozen
* ``truncated_finite``   same vector field, state supported in |n| <= trunc_n
* ``approx_physical``    i u_t = u_xxxx + sign P_N(|P_N u|^2 P_N u)

The interaction-picture change of variables v_n = e^{i t n^4} w_n removes
the stiff linear part exactly; physical-space variants are integrated with
an integrating-factor RK4 (exact quartic phases, classical RK4 on the
rest), interaction-type variants with plain RK4.

The single-mode family: substituting u = c(t) e^{iNx} into the physical
equation gives c(t) = c(0) e^{-i(N^4 + sign |c(0)|^2) t}; no 2*pi enters
because the equation itself is pointwise.  ``single_mode_solution``
evaluates these phases in extended precision since N^4 t can exceed the
resolution of double-precision argument reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import mpmath
import numpy as np

from ._quadrature import collocation_osc_weights
from .fields import SpectralField, sobolev_norm

__all__ = [
    "FlowSpec",
    "Trajectory",
    "FlowDivergence",
    "VARIANTS",
    "rhs",
    "rhs_split",
    "evolve",
    "gauge_forward",
    "gauge_inverse",
    "truncated_gauge_forward",
    "to_interaction",
    "from_interaction",
    "free_evolve",
    "single_mode_solution",
    "separation_time",
    "residual",
]

PHYSICAL_VARIANTS = ("physical", "renormalized", "approx_physical")
INTERACTION_VARIANTS = ("interaction", "truncated_embedded", "truncated_finite")
VARIANTS = PHYSICAL_VARIANTS + INTERACTION_VARIANTS

# Largest interaction-table half-width for the channel-exact integrator,
# and its per-step collocation node count (equispaced, endpoints included).
FILON_GRID_LIMIT = 32
FILON_NODES = 6


class FlowDivergence(RuntimeError):
    """Raised when an integration produces non-finite coefficients."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class FlowSpec:
    """Which equation to integrate and how."""

    variant: str
    sign: int = +1
    trunc_n: int | None = None
    dt: float = 1e-3
    integrator: str = "auto"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.integrator not in ("auto", "if_rk4", "rk4", "filon", "gauss"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        needs_trunc = self.variant in ("truncated_embedded", "truncated_finite", "approx_physical")
        if needs_trunc and (self.trunc_n is None or self.trunc_n < 0):
            raise ValueError(f"variant {self.variant!r} requires trunc_n >= 0")

    def interaction_limit(self, n_grid: int) -> int:
        """Half-width of the active nonresonant triple table."""
        if self.variant in ("truncated_embedded", "truncated_finite", "approx_physical"):
            return int(self.trunc_n)
        return int(n_grid)

    def resolved_integrator(self, n_grid: int | None = None) -> str:
        """Scheme selection; 'auto' resolves to the Gauss collocation.

        Classical RK4 samples the nonresonant oscillation pointwise; on
        grids where the phases reach O(1) per step both its mass drift and
        its per-channel accuracy are set by the fast channels rather than
        the slow dynamics.  The Gauss stepper conserves mass exactly at
        any step size; the per-channel Filon stepper ('filon') additionally
        integrates every oscillation exactly and is the choice for
        identity-grade trajectory accuracy on small interaction tables.
        """
        if self.integrator != "auto":
            if self.integrator == "if_rk4" and self.variant in INTERACTION_VARIANTS:
                raise ValueError("if_rk4 applies to physical-space variants only")
            return self.integrator
        return "gauss"


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states of one flow; states at every integrator step."""

    times: np.ndarray
    coeffs: np.ndarray  # (n_times, 2*n_grid+1)
    spec: FlowSpec
    n_grid: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if t.ndim != 1 or c.shape != (t.shape[0], 2 * self.n_grid + 1):
            raise ValueError("inconsistent trajectory shapes")
        if t.shape[0] >= 2:
            dts = np.diff(t)
            if not (np.all(dts > 0) or np.all(dts < 0)):
                raise ValueError("times must be strictly monotonic")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.coeffs[i], self.n_grid)

    @property
    def states(self) -> list[SpectralField]:
        return [self.state(i) for i in range(len(self))]

    @property
    def initial(self) -> SpectralField:
        return self.state(0)

    @property
    def final(self) -> SpectralField:
        return self.state(len(self) - 1)

    def step_size(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        if len(self) < 3:
            return True
        dts = np.diff(self.times)
        return bool(np.all(np.abs(dts - dts[0]) <= rtol * abs(dts[0])))


# -- cubic convolution -------------------------------------------------------
#
# Products of coefficient sums are pointwise in physical space.  Each
# distinct input is zero-padded to 2 * (2 * n_grid + 1) points, which is
# alias-free for a cubic product on |n| <= n_grid (Orszag 1971), and
# transformed once; the product is transformed back once.


def _to_grid(a: np.ndarray, n_grid: int) -> np.ndarray:
    """Values on the dealiased grid of the coefficients a_n, |n| <= n_grid."""
    pad = 4 * n_grid + 2
    spec = np.zeros(a.shape[:-1] + (pad,), dtype=np.complex128)
    spec[..., : n_grid + 1] = a[..., n_grid:]
    spec[..., pad - n_grid :] = a[..., :n_grid]
    return np.fft.ifft(spec, axis=-1, norm="forward", out=spec)


def _from_grid(p: np.ndarray, n_grid: int) -> np.ndarray:
    """Coefficients on |n| <= n_grid of the grid values ``p`` (overwrites p)."""
    spec = np.fft.fft(p, axis=-1, norm="forward", out=p)
    return np.concatenate([spec[..., spec.shape[-1] - n_grid :], spec[..., : n_grid + 1]], axis=-1)


def conv3(a: np.ndarray, b: np.ndarray, c: np.ndarray, n_grid: int) -> np.ndarray:
    """sum_{n1-n2+n3=n} a_{n1} conj(b_{n2}) c_{n3}, output on |n| <= n_grid.

    Evaluates F[a conj(b) c] with one forward transform per distinct
    input (arguments that are the same object are transformed once, so
    the cubic F[|a|^2 a] costs one forward and one backward transform)
    and one backward transform.  Leading axes broadcast.
    """
    pa = _to_grid(a, n_grid)
    if b is a and c is a:
        pa *= pa.real**2 + pa.imag**2
        return _from_grid(pa, n_grid)
    pb = pa if b is a else _to_grid(b, n_grid)
    pc = pa if c is a else pb if c is b else _to_grid(c, n_grid)
    return _from_grid(pa * np.conj(pb) * pc, n_grid)


# -- right-hand sides --------------------------------------------------------


@lru_cache(maxsize=None)
def _quartic_freqs(n_grid: int) -> np.ndarray:
    n4 = np.arange(-n_grid, n_grid + 1, dtype=np.float64) ** 4
    n4.flags.writeable = False
    return n4


@lru_cache(maxsize=None)
def _low_mask(n_grid: int, trunc: int) -> np.ndarray:
    mask = (np.abs(np.arange(-n_grid, n_grid + 1)) <= trunc).astype(np.float64)
    mask.flags.writeable = False
    return mask


def gamma_sum(V: np.ndarray, t: float, n_grid: int, trunc: int | None = None) -> np.ndarray:
    """Nonresonant interaction sum sum_{Gamma(n)} e^{-i phi t} v v~ v.

    ``trunc`` restricts input triples and outputs to |n| <= trunc (the
    grid itself when None).  With w = e^{-i t n^4} v restricted to
    |n| <= trunc, the sum is e^{+i t n^4} F[|w|^2 w]_n (one ``conv3`` of a
    single input: one forward and one backward transform) minus the
    diagonal terms (2 sum_k |v_k|^2 - |v_n|^2) v_n, which reproduces the
    triple sum identically.
    """
    mask = _low_mask(n_grid, n_grid if trunc is None else int(trunc))
    VL = V * mask
    rot = np.exp(-1j * t * _quartic_freqs(n_grid))
    w = VL * rot
    full = conv3(w, w, w, n_grid)
    full *= np.conj(rot)
    a2 = VL.real**2 + VL.imag**2
    full -= (2.0 * a2.sum(axis=-1, keepdims=True) - a2) * VL
    full *= mask
    return full


def gamma_sum_linearized(
    V: np.ndarray,
    W: np.ndarray,
    t: float,
    n_grid: int,
    trunc: int | None = None,
) -> np.ndarray:
    """One-slot-replacement derivative of ``gamma_sum`` in the direction W.

    Sum over the three replacements of one argument by W (with the middle
    slot conjugated), restricted exactly like ``gamma_sum``.  With v, w the
    de-rotated restrictions of V, W, the three replacements together are
    e^{+i t n^4} F[2|v|^2 w + v^2 conj(w)]_n: two forward transforms (v and
    w; v broadcasts against the batch axes of w) and one backward.  The
    diagonal terms are corrected by the same one-slot derivative of
    ``gamma_sum``'s diagonal correction.
    """
    mask = _low_mask(n_grid, n_grid if trunc is None else int(trunc))
    VL = V * mask
    WL = W * mask
    rot = np.exp(-1j * t * _quartic_freqs(n_grid))
    pv = _to_grid(VL * rot, n_grid)
    pw = _to_grid(WL * rot, n_grid)
    full = _from_grid((2.0 * (pv.real**2 + pv.imag**2)) * pw + (pv * pv) * np.conj(pw), n_grid)
    full *= np.conj(rot)
    a2 = VL.real**2 + VL.imag**2
    inner = (np.conj(VL) * WL).sum(axis=-1, keepdims=True)  # sum conj(v) w
    full -= (2.0 * (a2.sum(axis=-1, keepdims=True) - a2)) * WL + (4.0 * inner.real) * VL
    full += (VL * VL) * np.conj(WL)
    full *= mask
    return full


def _interaction_rhs_split(spec: FlowSpec, V: np.ndarray, t: float, n_grid: int):
    trunc = spec.trunc_n if spec.variant in ("truncated_embedded", "truncated_finite") else None
    mask = _low_mask(n_grid, n_grid if trunc is None else trunc)
    nonres = -1j * spec.sign * gamma_sum(V, t, n_grid, trunc)
    res = 1j * spec.sign * (np.abs(V) ** 2) * V * mask
    return nonres, res


def _interaction_rhs(spec: FlowSpec, V: np.ndarray, t: float, n_grid: int) -> np.ndarray:
    nonres, res = _interaction_rhs_split(spec, V, t, n_grid)
    return nonres + res


def _physical_nonlinear(spec: FlowSpec, V: np.ndarray, n_grid: int) -> np.ndarray:
    """Nonlinear part of the physical-space variants (linear part excluded)."""
    if spec.variant == "physical":
        return -1j * spec.sign * conv3(V, V, V, n_grid)
    if spec.variant == "renormalized":
        cubic = conv3(V, V, V, n_grid)
        m0 = np.sum(np.abs(V) ** 2, axis=-1, keepdims=True)
        return -1j * spec.sign * (cubic - 2.0 * m0 * V)
    if spec.variant == "approx_physical":
        mask = _low_mask(n_grid, spec.trunc_n)
        VL = V * mask
        return -1j * spec.sign * mask * conv3(VL, VL, VL, n_grid)
    raise ValueError(f"variant {spec.variant!r} has no physical-space splitting")


def rhs_array(spec: FlowSpec, V: np.ndarray, t: float, n_grid: int) -> np.ndarray:
    """Full vector field of the chosen variant on raw coefficient arrays."""
    if spec.variant in PHYSICAL_VARIANTS:
        return -1j * _quartic_freqs(n_grid) * V + _physical_nonlinear(spec, V, n_grid)
    return _interaction_rhs(spec, V, t, n_grid)


def linearized_rhs_array(spec: FlowSpec, V: np.ndarray, W: np.ndarray, t: float, n_grid: int) -> np.ndarray:
    """First variation of the interaction-type vector field along the flow."""
    if spec.variant not in INTERACTION_VARIANTS:
        raise ValueError("linearized flow implemented for interaction-type variants")
    trunc = spec.trunc_n if spec.variant in ("truncated_embedded", "truncated_finite") else None
    mask = _low_mask(n_grid, n_grid if trunc is None else trunc)
    nonres = -1j * spec.sign * gamma_sum_linearized(V, W, t, n_grid, trunc)
    VL = V * mask
    WL = W * mask
    res = 1j * spec.sign * (2.0 * (np.abs(VL) ** 2) * WL + (VL**2) * np.conj(WL))
    return nonres + res * mask


def rhs(spec: FlowSpec, f: SpectralField, t: float = 0.0) -> SpectralField:
    _check_grid(spec, f)
    return SpectralField(rhs_array(spec, f.coeffs, t, f.n_grid), f.n_grid)


def rhs_split(spec: FlowSpec, f: SpectralField, t: float = 0.0):
    """(nonresonant, resonant) parts for interaction-type variants."""
    if spec.variant not in INTERACTION_VARIANTS:
        raise ValueError("rhs_split applies to interaction-type variants")
    _check_grid(spec, f)
    nonres, res = _interaction_rhs_split(spec, f.coeffs, t, f.n_grid)
    return SpectralField(nonres, f.n_grid), SpectralField(res, f.n_grid)


def _check_grid(spec: FlowSpec, f: SpectralField) -> None:
    if spec.trunc_n is not None and spec.trunc_n > f.n_grid:
        raise ValueError(f"trunc_n={spec.trunc_n} exceeds field grid n_grid={f.n_grid}")
    if spec.variant == "truncated_finite":
        tail = np.abs(f.coeffs[np.abs(np.arange(-f.n_grid, f.n_grid + 1)) > spec.trunc_n])
        if tail.size and np.any(tail != 0.0):
            raise ValueError("truncated_finite state must be supported in |n| <= trunc_n")


# -- integrators -------------------------------------------------------------


def _step_plan(t0: float, t1: float, dt: float):
    span = t1 - t0
    if span == 0.0:
        return []
    h = dt if span > 0 else -dt
    n_full = int(np.floor(abs(span) / dt * (1.0 + 1e-12)))
    steps = [h] * n_full
    rem = span - n_full * h
    if abs(rem) > dt * 1e-9:
        steps.append(rem)
    return steps


def _rk4_step(f: Callable, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ifrk4_step(fnl: Callable, t: float, y: np.ndarray, h: float, n4: np.ndarray) -> np.ndarray:
    """One integrating-factor RK4 step for y' = -i n^4 y + fnl(t, y)."""
    e_half = np.exp(-1j * (0.5 * h) * n4)
    e_full = e_half * e_half
    k1 = fnl(t, y)
    k2 = np.conj(e_half) * fnl(t + 0.5 * h, e_half * (y + (0.5 * h) * k1))
    k3 = np.conj(e_half) * fnl(t + 0.5 * h, e_half * (y + (0.5 * h) * k2))
    k4 = np.conj(e_full) * fnl(t + h, e_full * (y + h * k3))
    return e_full * (y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def _slow_part(spec: FlowSpec, W: np.ndarray, n_grid: int) -> np.ndarray:
    """Non-oscillatory remainder of the interaction-picture vector field."""
    sg = spec.sign
    limit = spec.interaction_limit(n_grid)
    if spec.variant in ("interaction", "renormalized"):
        return 1j * sg * (np.abs(W) ** 2) * W
    if spec.variant in ("truncated_embedded", "truncated_finite"):
        mask = _low_mask(n_grid, limit)
        return 1j * sg * (np.abs(W) ** 2) * W * mask
    if spec.variant == "physical":
        m0 = np.sum(np.abs(W) ** 2, axis=-1, keepdims=True)
        return -1j * sg * (2.0 * m0 * W - (np.abs(W) ** 2) * W)
    if spec.variant == "approx_physical":
        mask = _low_mask(n_grid, limit)
        WL = W * mask
        m0 = np.sum(np.abs(WL) ** 2, axis=-1, keepdims=True)
        return -1j * sg * (2.0 * m0 * WL - (np.abs(WL) ** 2) * WL) * mask
    raise ValueError(spec.variant)


def _w_rhs(spec: FlowSpec, W: np.ndarray, t: float, n_grid: int) -> np.ndarray:
    """Full interaction-picture vector field for any variant."""
    limit = spec.interaction_limit(n_grid)
    return -1j * spec.sign * gamma_sum(W, t, n_grid, limit) + _slow_part(
        spec, W, n_grid
    )


def _filon_evolve(
    spec: FlowSpec,
    V0: np.ndarray,
    t0: float,
    t1: float,
    n_grid: int,
    store: bool,
    monitor: Callable | None,
    picard_tol: float = 1e-13,
    picard_max: int = 8,
):
    """Channel-exact stepping: exact oscillation, Picard-corrected samples.

    Works in interaction-picture variables for every variant (physical-
    space states are conjugated through the exact quartic phases on entry
    and exit).  Each step integrates the nonresonant term per quad with
    quadratic-in-time smooth factors and exact e^{-i phi t}, and the slow
    remainder with matching Simpson weights; the two off-node samples are
    obtained from an RK4 predictor and tightened by fixed-point sweeps.
    """
    from .resonance import grid_triples

    limit = spec.interaction_limit(n_grid)
    if limit > FILON_GRID_LIMIT:
        raise ValueError(
            f"filon integrator limited to interaction tables |n| <= {FILON_GRID_LIMIT}"
        )
    table = grid_triples(limit)
    dim = 2 * n_grid + 1
    dim_low = 2 * limit + 1
    phi = table.phi.astype(np.float64)
    is_phys = spec.variant in PHYSICAL_VARIANTS
    n4 = _quartic_freqs(n_grid)
    sg = spec.sign

    def to_w(V, t):
        return V * np.exp(1j * t * n4) if is_phys else V

    def from_w(W, t):
        return W * np.exp(-1j * t * n4) if is_phys else W

    lo, hi = n_grid - limit, n_grid + limit + 1
    nq = len(table)
    idx_fused = np.concatenate([table.i1, table.i2, table.i3])

    def gather(W):
        pulled = W[..., lo:hi][..., idx_fused]
        return pulled[..., :nq] * np.conj(pulled[..., nq : 2 * nq]) * pulled[..., 2 * nq :]

    def embed(low):
        if limit == n_grid:
            return low
        out = np.zeros(low.shape[:-1] + (dim,), dtype=np.complex128)
        out[..., lo:hi] = low
        return out

    n_nodes = FILON_NODES
    fractions = [j / (n_nodes - 1) for j in range(1, n_nodes)]
    W = to_w(np.array(V0, dtype=np.complex128, copy=True), t0)
    t = t0
    times = [t0]
    stored = [from_w(W, t0).copy()] if store else None
    if monitor is not None:
        monitor(0, t0, from_w(W, t0))
    steps = _step_plan(t0, t1, spec.dt)
    pref = np.exp(-1j * phi * t0)
    cached_h = None
    wosc = wslow = advance = None
    zero_rate = np.zeros(1)
    for k, h in enumerate(steps, start=1):
        if cached_h != h:
            wosc = np.stack(
                [
                    np.stack(collocation_osc_weights(phi, h, f, n_nodes), axis=0)
                    for f in fractions
                ],
                axis=0,
            )  # (n_fracs, n_nodes, nq)
            wslow = np.array(
                [
                    [float(w.real[0]) for w in collocation_osc_weights(zero_rate, h, f, n_nodes)]
                    for f in fractions
                ]
            )  # (n_fracs, n_nodes)
            advance = np.exp(-1j * phi * h)
            cached_h = h
        # predictor: chained classical sub-steps fill the interior nodes
        nodes = [W]
        for j, f in enumerate(fractions):
            tau = t + (fractions[j - 1] if j else 0.0) * h
            nodes.append(
                _rk4_step(
                    lambda tt, yy: _w_rhs(spec, yy, tt, n_grid), tau, nodes[-1], h / (n_nodes - 1)
                )
            )
        g_nodes = [gather(W)] + [None] * (n_nodes - 1)
        s_nodes = [_slow_part(spec, W, n_grid)] + [None] * (n_nodes - 1)
        scale = 1.0 + float(np.max(np.abs(nodes[-1])))
        for _ in range(picard_max):
            for j in range(1, n_nodes):
                g_nodes[j] = gather(nodes[j])
                s_nodes[j] = _slow_part(spec, nodes[j], n_grid)
            end_prev = nodes[-1]
            G = np.stack([pref * g for g in g_nodes], axis=0)  # (n_nodes, ..., nq)
            osc_all = np.einsum("jmq,m...q->j...q", wosc, G)
            S = np.stack(s_nodes, axis=0)
            slow_all = np.tensordot(wslow, S, axes=(1, 0))
            for j in range(len(fractions)):
                nonres = -1j * sg * embed(table.scatter(osc_all[j], dim_low))
                nodes[j + 1] = W + nonres + slow_all[j]
            delta = float(np.max(np.abs(nodes[-1] - end_prev)))
            if delta <= picard_tol * scale:
                break
        W = nodes[-1]
        pref = pref * advance
        t = t0 + (k * steps[0] if k < len(steps) else sum(steps))
        if not np.all(np.isfinite(W.view(np.float64))):
            raise FlowDivergence(f"non-finite state at t={t}", t)
        times.append(t)
        out_state = from_w(W, t)
        if store:
            stored.append(out_state.copy())
        if monitor is not None:
            monitor(k, t, out_state)
    times = np.asarray(times)
    if store:
        return times, np.stack(stored, axis=0)
    return times, from_w(W, t)


_GAUSS_C = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_GAUSS_A = (
    (0.25, 0.25 - np.sqrt(3.0) / 6.0),
    (0.25 + np.sqrt(3.0) / 6.0, 0.25),
)


def _gauss_evolve(
    spec: FlowSpec,
    V0: np.ndarray,
    t0: float,
    t1: float,
    n_grid: int,
    store: bool,
    monitor: Callable | None,
    fp_tol: float = 1e-15,
    fp_max: int = 30,
):
    """Two-stage Gauss collocation in interaction-picture variables.

    The coefficient matrix of the Gauss method satisfies the algebraic
    condition that makes every Runge-Kutta step conserve quadratic first
    integrals exactly, so the l2 mass is preserved to the fixed-point
    tolerance regardless of step size.  The stiff quartic phases are
    removed by exact conjugation before stepping, leaving a non-stiff
    stage system solved by warm-started fixed-point iteration.
    """
    is_phys = spec.variant in PHYSICAL_VARIANTS
    n4 = _quartic_freqs(n_grid)

    def to_w(V, t):
        return V * np.exp(1j * t * n4) if is_phys else V

    def from_w(W, t):
        return W * np.exp(-1j * t * n4) if is_phys else W

    (c1, c2) = _GAUSS_C
    ((a11, a12), (a21, a22)) = _GAUSS_A
    W = to_w(np.array(V0, dtype=np.complex128, copy=True), t0)
    t = t0
    times = [t0]
    stored = [from_w(W, t0).copy()] if store else None
    if monitor is not None:
        monitor(0, t0, from_w(W, t0))
    steps = _step_plan(t0, t1, spec.dt)
    k1 = k2 = None
    for k, h in enumerate(steps, start=1):
        if k1 is None:
            k1 = _w_rhs(spec, W, t + c1 * h, n_grid)
            k2 = k1.copy()
        scale = 1.0 + float(np.max(np.abs(W)))
        for _ in range(fp_max):
            k1_new = _w_rhs(spec, W + h * (a11 * k1 + a12 * k2), t + c1 * h, n_grid)
            k2_new = _w_rhs(spec, W + h * (a21 * k1_new + a22 * k2), t + c2 * h, n_grid)
            delta = max(float(np.max(np.abs(k1_new - k1))), float(np.max(np.abs(k2_new - k2))))
            k1, k2 = k1_new, k2_new
            if abs(h) * delta <= fp_tol * scale:
                break
        W = W + (0.5 * h) * (k1 + k2)
        t = t0 + (k * steps[0] if k < len(steps) else sum(steps))
        if not np.all(np.isfinite(W.view(np.float64))):
            raise FlowDivergence(f"non-finite state at t={t}", t)
        times.append(t)
        out_state = from_w(W, t)
        if store:
            stored.append(out_state.copy())
        if monitor is not None:
            monitor(k, t, out_state)
    times = np.asarray(times)
    if store:
        return times, np.stack(stored, axis=0)
    return times, from_w(W, t)


def evolve_array(
    spec: FlowSpec,
    V0: np.ndarray,
    t0: float,
    t1: float,
    n_grid: int,
    store: bool = True,
    monitor: Callable | None = None,
):
    """Integrate raw coefficient arrays (leading axes are batch axes).

    Returns (times, states) with states stacked along a new first axis when
    ``store``, else (times, final_state).  Deterministic for fixed inputs.
    """
    scheme = spec.resolved_integrator(n_grid)
    if scheme == "filon":
        return _filon_evolve(spec, V0, t0, t1, n_grid, store, monitor)
    if scheme == "gauss":
        return _gauss_evolve(spec, V0, t0, t1, n_grid, store, monitor)
    steps = _step_plan(t0, t1, spec.dt)
    V = np.array(V0, dtype=np.complex128, copy=True)
    t = t0
    times = [t0]
    stored = [V.copy()] if store else None
    if monitor is not None:
        monitor(0, t0, V)
    if scheme == "if_rk4":
        n4 = _quartic_freqs(n_grid)
        fnl = lambda tt, yy: _physical_nonlinear(spec, yy, n_grid)
    else:
        frhs = lambda tt, yy: _interaction_rhs(spec, yy, tt, n_grid)
    for k, h in enumerate(steps, start=1):
        if scheme == "if_rk4":
            V = _ifrk4_step(fnl, t, V, h, n4)
        else:
            V = _rk4_step(frhs, t, V, h)
        t = t0 + (k * steps[0] if k < len(steps) else sum(steps))
        if not np.all(np.isfinite(V.view(np.float64))):
            raise FlowDivergence(f"non-finite state at t={t}", t)
        times.append(t)
        if store:
            stored.append(V.copy())
        if monitor is not None:
            monitor(k, t, V)
    times = np.asarray(times)
    if store:
        return times, np.stack(stored, axis=0)
    return times, V


def evolve(spec: FlowSpec, f0: SpectralField, t0: float, t1: float) -> Trajectory:
    """Integrate the chosen variant, storing the state at every step."""
    _check_grid(spec, f0)
    times, states = evolve_array(spec, f0.coeffs, t0, t1, f0.n_grid, store=True)
    return Trajectory(times=times, coeffs=states, spec=spec, n_grid=f0.n_grid)


# -- gauge and interaction-picture maps --------------------------------------


def gauge_forward(f: SpectralField, t: float) -> SpectralField:
    """Multiply by e^{2 i t avg|f|^2}; avg|f|^2 = sum |f_n|^2."""
    m0 = float(np.sum(np.abs(f.coeffs) ** 2))
    return SpectralField(np.exp(2j * t * m0) * f.coeffs, f.n_grid)


def gauge_inverse(f: SpectralField, t: float) -> SpectralField:
    return gauge_forward(f, -t)


def truncated_gauge_forward(f: SpectralField, t: float, trunc_n: int) -> SpectralField:
    """Gauge driven by the low-mode mass only: e^{2 i t sum_{|k|<=N} |f_k|^2} f."""
    mask = np.abs(f.frequencies()) <= trunc_n
    m0 = float(np.sum(np.abs(f.coeffs[mask]) ** 2))
    return SpectralField(np.exp(2j * t * m0) * f.coeffs, f.n_grid)


def to_interaction(f: SpectralField, t: float) -> SpectralField:
    """Coefficient-wise e^{+i t n^4}: undoes the free quartic flow."""
    return SpectralField(np.exp(1j * t * _quartic_freqs(f.n_grid)) * f.coeffs, f.n_grid)


def from_interaction(f: SpectralField, t: float) -> SpectralField:
    """Coefficient-wise e^{-i t n^4}: the free flow S(t) applied to f."""
    return SpectralField(np.exp(-1j * t * _quartic_freqs(f.n_grid)) * f.coeffs, f.n_grid)


free_evolve = from_interaction


# -- exact single-mode solutions ---------------------------------------------


def single_mode_solution(
    mode: int,
    amplitude: complex,
    sign: int,
    t: float,
    s: float,
    n_grid: int | None = None,
) -> SpectralField:
    """Exact single-mode solution mode^{-s} a e^{i(mode x - mode^4 t - sign mode^{-2s}|a|^2 t)}.

    The two phase contributions are combined and reduced mod 2*pi in
    extended precision; for large modes, mode^4 * t overflows the exact
    range of double-precision trigonometric argument reduction.
    """
    if mode < 1:
        raise ValueError("mode must be >= 1")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if n_grid is None:
        n_grid = mode
    with mpmath.workdps(40):
        amp2 = mpmath.mpf(abs(amplitude)) ** 2
        theta = -(mpmath.mpf(mode) ** 4 + sign * mpmath.mpf(mode) ** (-2 * mpmath.mpf(s)) * amp2)
        theta = theta * mpmath.mpf(t)
        theta = mpmath.fmod(theta, 2 * mpmath.pi)
        phase_factor = complex(mpmath.cos(theta), mpmath.sin(theta))
    coeff = float(mode) ** (-s) * complex(amplitude) * phase_factor
    return SpectralField.from_modes({mode: coeff}, n_grid)


def separation_time(mode: int, s: float, n: int) -> float:
    """Time at which the n-indexed pair of single-mode solutions separates.

    For amplitudes 1 and 1 + 1/n the relative nonlinear phase reaches pi at
    t = pi * mode^{2s} / ((1 + 1/n)^2 - 1).
    """
    return float(np.pi * float(mode) ** (2 * s) / ((1.0 + 1.0 / n) ** 2 - 1.0))


# -- residual verification ----------------------------------------------------


def residual(traj: Trajectory) -> float:
    """Max centered-difference PDE residual over interior times, L2-relative.

    Quantifies how well the stored trajectory solves its own equation;
    second order in the sampling step.
    """
    if len(traj) < 3:
        raise ValueError("residual needs at least 3 states")
    worst = 0.0
    for i in range(1, len(traj) - 1):
        h_left = traj.times[i] - traj.times[i - 1]
        h_right = traj.times[i + 1] - traj.times[i]
        if abs(h_left - h_right) > 1e-12 * max(abs(h_left), abs(h_right)):
            continue
        fd = (traj.coeffs[i + 1] - traj.coeffs[i - 1]) / (traj.times[i + 1] - traj.times[i - 1])
        vf = rhs_array(traj.spec, traj.coeffs[i], float(traj.times[i]), traj.n_grid)
        denom = float(np.linalg.norm(traj.coeffs[i]))
        num = float(np.linalg.norm(fd - vf))
        worst = max(worst, num / denom if denom > 0 else 0.0)
    return worst
