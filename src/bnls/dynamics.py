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
the stiff linear part exactly.  Every integrator (Gauss collocation by
default, Filon, classical RK4) steps the interaction-picture field;
physical-space states are conjugated through the exact quartic phases on
entry and exit, so ``rk4`` on a physical variant is the integrating-factor
(Lawson) method.

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
        if self.integrator not in ("auto", "rk4", "filon", "gauss"):
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
        return "gauss" if self.integrator == "auto" else self.integrator


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
    """Full interaction-picture vector field for any variant.

    For interaction-type variants this is the variant's own vector field.
    """
    limit = spec.interaction_limit(n_grid)
    return -1j * spec.sign * gamma_sum(W, t, n_grid, limit) + _slow_part(spec, W, n_grid)


def rhs_array(spec: FlowSpec, V: np.ndarray, t: float, n_grid: int) -> np.ndarray:
    """Full vector field of the chosen variant on raw coefficient arrays.

    A physical-space field is autonomous: it is the free part -i n^4 V plus
    the interaction-picture field at t = 0, where the two pictures agree.
    """
    if spec.variant in PHYSICAL_VARIANTS:
        return -1j * _quartic_freqs(n_grid) * V + _w_rhs(spec, V, 0.0, n_grid)
    return _w_rhs(spec, V, t, n_grid)


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
    limit = spec.interaction_limit(f.n_grid)
    nonres = -1j * spec.sign * gamma_sum(f.coeffs, t, f.n_grid, limit)
    res = _slow_part(spec, f.coeffs, f.n_grid)
    return SpectralField(nonres, f.n_grid), SpectralField(res, f.n_grid)


def _check_grid(spec: FlowSpec, f: SpectralField) -> None:
    if spec.trunc_n is not None and spec.trunc_n > f.n_grid:
        raise ValueError(f"trunc_n={spec.trunc_n} exceeds field grid n_grid={f.n_grid}")
    if spec.variant == "truncated_finite":
        tail = np.abs(f.coeffs[np.abs(np.arange(-f.n_grid, f.n_grid + 1)) > spec.trunc_n])
        if tail.size and np.any(tail != 0.0):
            raise ValueError("truncated_finite state must be supported in |n| <= trunc_n")


# -- integrators -------------------------------------------------------------
#
# A scheme is a factory returning ``step(t, y, h) -> y_next`` for a vector
# field f(t, y); what a scheme carries from one step to the next (Gauss
# warm-start stages, Filon weights and phases) lives in its closure.
# ``_drive`` is the one loop over the step plan.


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


def _drive(
    step: Callable,
    y0: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
    store: bool,
    monitor: Callable | None = None,
    out: Callable | None = None,
):
    """Advance y0 from t0 to t1 by ``step`` over the plan of step size dt.

    ``out(y, t)`` maps the stepped variable to the reported state (the
    identity when None); reported states are stored when ``store`` and
    passed to ``monitor(k, t, state)``.  Returns (times, states stacked
    along a new first axis) when ``store``, else (times, final state).
    Raises ``FlowDivergence`` at the first step that leaves y non-finite.
    """
    if out is None:
        out = lambda y, t: y
    steps = _step_plan(t0, t1, dt)
    y, t = y0, t0
    times = [t0]
    stored = [out(y, t0).copy()] if store else None
    if monitor is not None:
        monitor(0, t0, out(y, t0))
    for k, h in enumerate(steps, start=1):
        y = step(t, y, h)
        t = t0 + (k * steps[0] if k < len(steps) else sum(steps))
        if not np.all(np.isfinite(y.view(np.float64))):
            raise FlowDivergence(f"non-finite state at t={t}", t)
        times.append(t)
        state = out(y, t)
        if store:
            stored.append(state.copy())
        if monitor is not None:
            monitor(k, t, state)
    times = np.asarray(times)
    if store:
        return times, np.stack(stored, axis=0)
    return times, out(y, t)


def _rk4(f: Callable) -> Callable:
    """Classical RK4 step for y' = f(t, y)."""

    def step(t, y, h):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = f(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _gauss(f: Callable, fp_tol: float = 1e-15, fp_max: int = 30) -> Callable:
    """Two-stage Gauss collocation step for y' = f(t, y).

    The coefficient matrix of the Gauss method satisfies the algebraic
    condition that makes every Runge-Kutta step conserve quadratic first
    integrals exactly, so the l2 mass is preserved to the fixed-point
    tolerance regardless of step size.  The stage system is solved by
    fixed-point iteration, warm-started from the previous step's stages.
    """
    r = np.sqrt(3.0) / 6.0
    c1, c2 = 0.5 - r, 0.5 + r
    a11, a12, a21, a22 = 0.25, 0.25 - r, 0.25 + r, 0.25
    k1 = k2 = None

    def step(t, y, h):
        nonlocal k1, k2
        if k1 is None:
            k1 = f(t + c1 * h, y)
            k2 = k1.copy()
        scale = 1.0 + float(np.max(np.abs(y)))
        for _ in range(fp_max):
            k1_new = f(t + c1 * h, y + h * (a11 * k1 + a12 * k2))
            k2_new = f(t + c2 * h, y + h * (a21 * k1_new + a22 * k2))
            delta = max(float(np.max(np.abs(k1_new - k1))), float(np.max(np.abs(k2_new - k2))))
            k1, k2 = k1_new, k2_new
            if abs(h) * delta <= fp_tol * scale:
                break
        return y + (0.5 * h) * (k1 + k2)

    return step


_STEPPERS = {"rk4": _rk4, "gauss": _gauss}


def _embed(low: np.ndarray, limit: int, n_grid: int) -> np.ndarray:
    """Coefficients on |n| <= n_grid of ``low`` given on |n| <= limit, zero outside."""
    if limit == n_grid:
        return low
    out = np.zeros(low.shape[:-1] + (2 * n_grid + 1,), dtype=np.complex128)
    out[..., n_grid - limit : n_grid + limit + 1] = low
    return out


def _filon(spec: FlowSpec, n_grid: int, picard_tol: float = 1e-13, picard_max: int = 8) -> Callable:
    """Channel-exact step of the interaction-picture field of ``spec``.

    Each step integrates the nonresonant term per quad with
    quadratic-in-time smooth factors and exact e^{-i phi t}, and the slow
    remainder with matching Simpson weights; the interior node samples are
    obtained from an RK4 predictor and tightened by fixed-point sweeps.

    The summand v_{n1} conj(v_{n2}) v_{n3} and the phase are symmetric in
    n1 <-> n3, so the step runs over the folded table (the quads with
    n1 <= n3, about half of them) with the multiplicity, 2 off the
    diagonal n1 = n3 and 1 on it, folded into the weights.  The weights
    are cached per step size, and the phases e^{-i phi t} are advanced by
    one factor per step.  Each node's weighted, phase-rotated samples are
    added into a running sum over the nodes; node 0's term is fixed for
    the step and computed once, before the sweeps.
    """
    from .resonance import folded_triples

    limit = spec.interaction_limit(n_grid)
    if limit > FILON_GRID_LIMIT:
        raise ValueError(
            f"filon integrator limited to interaction tables |n| <= {FILON_GRID_LIMIT}"
        )
    table = folded_triples(limit)
    dim_low = 2 * limit + 1
    phi = table.phi.astype(np.float64)
    mult = np.where(table.n1 == table.n3, 1.0, 2.0)
    sg = spec.sign
    lo, hi = n_grid - limit, n_grid + limit + 1
    i1, i2, i3 = table.i1, table.i2, table.i3

    def rotated(W):
        """pref * v_{n1} conj(v_{n2}) v_{n3} on the folded rows (three takes)."""
        L = W[..., lo:hi]
        g = L[..., i1] * np.conj(L)[..., i2] * L[..., i3]
        g *= pref
        return g

    n_nodes = FILON_NODES
    fractions = [j / (n_nodes - 1) for j in range(1, n_nodes)]
    predictor = _rk4(lambda tt, yy: _w_rhs(spec, yy, tt, n_grid))
    zero_rate = np.zeros(1)
    pref = cached_h = wosc = wslow = advance = None

    def step(t, W, h):
        nonlocal pref, cached_h, wosc, wslow, advance
        if pref is None:
            pref = np.exp(-1j * phi * t)
        if cached_h != h:
            wosc = np.stack(
                [
                    np.stack(collocation_osc_weights(phi, h, f, n_nodes), axis=0)
                    for f in fractions
                ],
                axis=0,
            ) * mult  # (n_fracs, n_nodes, nq)
            # one broadcast axis per batch axis of the state
            wosc = wosc.reshape(wosc.shape[:2] + (1,) * (W.ndim - 1) + wosc.shape[2:])
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
            nodes.append(predictor(tau, nodes[-1], h / (n_nodes - 1)))
        osc0 = wosc[:, 0] * rotated(W)  # (n_fracs, ..., nq)
        s_nodes = [_slow_part(spec, W, n_grid)] + [None] * (n_nodes - 1)
        scale = 1.0 + float(np.max(np.abs(nodes[-1])))
        for _ in range(picard_max):
            osc = osc0.copy()
            for m in range(1, n_nodes):
                osc += wosc[:, m] * rotated(nodes[m])
                s_nodes[m] = _slow_part(spec, nodes[m], n_grid)
            end_prev = nodes[-1]
            slow_all = np.tensordot(wslow, np.stack(s_nodes, axis=0), axes=(1, 0))
            for j in range(len(fractions)):
                nonres = -1j * sg * _embed(table.scatter(osc[j], dim_low), limit, n_grid)
                nodes[j + 1] = W + nonres + slow_all[j]
            delta = float(np.max(np.abs(nodes[-1] - end_prev)))
            if delta <= picard_tol * scale:
                break
        pref = pref * advance
        return nodes[-1]

    return step


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

    Every scheme steps the interaction-picture field ``_w_rhs``;
    physical-space states are conjugated through the exact quartic phases
    on entry and on exit.  Returns (times, states) with states stacked
    along a new first axis when ``store``, else (times, final_state).
    Deterministic for fixed inputs.
    """
    scheme = spec.resolved_integrator(n_grid)
    if scheme == "filon":
        step = _filon(spec, n_grid)
    else:
        step = _STEPPERS[scheme](lambda t, W: _w_rhs(spec, W, t, n_grid))
    W0 = np.array(V0, dtype=np.complex128, copy=True)
    out = None
    if spec.variant in PHYSICAL_VARIANTS:
        n4 = _quartic_freqs(n_grid)
        W0 = W0 * np.exp(1j * t0 * n4)
        out = lambda W, t: W * np.exp(-1j * t * n4)
    return _drive(step, W0, t0, t1, spec.dt, store, monitor, out)


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
