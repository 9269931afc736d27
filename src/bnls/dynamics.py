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

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import mpmath
import numpy as np

from ._quadrature import collocation_osc_weights
from .fields import SpectralField
from .resonance import folded_triples

__all__ = [
    "FlowSpec",
    "Trajectory",
    "FlowDivergence",
    "VARIANTS",
    "rhs",
    "evolve",
    "gauge_forward",
    "gauge_inverse",
    "to_interaction",
    "from_interaction",
    "single_mode_solution",
    "separation_time",
    "residual",
    "linearized_final",
]

PHYSICAL_VARIANTS = ("physical", "renormalized", "approx_physical")
INTERACTION_VARIANTS = ("interaction", "truncated_embedded", "truncated_finite")
VARIANTS = PHYSICAL_VARIANTS + INTERACTION_VARIANTS
# variants whose active modes are |n| <= trunc_n, with the modes above it frozen
TRUNCATED_VARIANTS = ("truncated_embedded", "truncated_finite", "approx_physical")

# Largest interaction-table half-width for the channel-exact integrator,
# and its per-step collocation node count (equispaced, endpoints included).
FILON_GRID_LIMIT = 32
FILON_NODES = 6

# Largest grid half-width whose cubic sums use the dense DFT matrices; a
# zero-padded pocketfft pair is faster above it (crossover measured between
# 32 and 40 with one BLAS thread).
DENSE_GRID_LIMIT = 32

# Most rows one Gauss or RK4 step of ``evolve_array`` works on at once;
# larger batches are stepped in blocks of this many rows, so a block's
# grid temporaries stay near 1 MB or below at N <= 16.  Of blocks of 256
# to 4096 rows at N = 4, 8 and 16 with one BLAS thread, 1024 was fastest
# at N = 4 and 8 and 512 at N = 16 (BENCH_row_block.json).
ROW_BLOCK = 1024

# Stop rules of the Gauss fixed point and the Filon Picard sweeps: a step
# stops sweeping when its largest update (times |h| for Gauss) is at most the
# tolerance times 1 + max|y|, or after the most sweeps.
FP_TOL, FP_MAX = 1e-15, 30
PICARD_TOL, PICARD_MAX = 1e-13, 8


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
        if self.variant in TRUNCATED_VARIANTS and (self.trunc_n is None or self.trunc_n < 0):
            raise ValueError(f"variant {self.variant!r} requires trunc_n >= 0")

    def interaction_limit(self, n_grid: int) -> int:
        """Half-width of the active nonresonant triple table."""
        if self.variant in TRUNCATED_VARIANTS:
            return min(int(self.trunc_n), n_grid)
        return int(n_grid)

    def check_states(self, V: np.ndarray, n_grid: int) -> None:
        """Reject states on |n| <= n_grid (modes on the last axis) this flow would not run as given.

        A ``trunc_n`` above the grid would silently run untruncated, and a
        ``truncated_finite`` state with a nonzero coefficient above
        ``trunc_n`` lies outside that flow's phase space.
        """
        if self.trunc_n is not None and self.trunc_n > n_grid:
            raise ValueError(f"trunc_n={self.trunc_n} exceeds field grid n_grid={n_grid}")
        if self.variant == "truncated_finite":
            tail = np.abs(np.arange(-n_grid, n_grid + 1)) > self.trunc_n
            if np.any(np.asarray(V)[..., tail] != 0.0):
                raise ValueError("truncated_finite state must be supported in |n| <= trunc_n")

    def resolved_integrator(self, n_grid: int | None = None) -> str:
        """The scheme to step with: ``integrator``, with 'auto' the Gauss collocation.

        No grid selects a scheme: ``n_grid`` is unused, and kept only because
        the benchmark's tracer (``perfbench/tracing.py``) passes it.  The
        Gauss stepper conserves mass to its fixed-point tolerance at any step
        size, on steps whose fixed point converged; classical RK4 samples the
        nonresonant oscillation pointwise, so where the phases reach O(1) per
        step its mass drift and accuracy are set by the fast channels; the
        Filon stepper ('filon') integrates every oscillation exactly and is
        the choice for identity-grade accuracy on small interaction tables.
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
    def initial(self) -> SpectralField:
        return self.state(0)

    @property
    def final(self) -> SpectralField:
        return self.state(len(self) - 1)

    def step_size(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def is_uniform(self) -> bool:
        if len(self) < 3:
            return True
        dts = np.diff(self.times)
        return bool(np.all(np.abs(dts - dts[0]) <= 1e-9 * abs(dts[0])))


# -- cubic convolution -------------------------------------------------------
#
# Products of coefficient sums are pointwise in physical space.  Each
# distinct input is taken to 2 * (2 * n_grid + 1) grid points, which is
# alias-free for a cubic product on |n| <= n_grid (Orszag 1971), and the
# product is taken back once.  Up to n_grid = DENSE_GRID_LIMIT both
# transforms are products with two cached DFT matrices, which carry the
# zero padding, the mode order and the 1 / (4 n_grid + 2) scaling; above it
# a zero-padded pocketfft pair is faster.  Each matrix product is one gemm
# on the rows flattened from the leading axes, so a row comes out bitwise
# the same whatever else is in the batch.  OpenBLAS rounds a lone row
# (gemv) differently from a row of a gemm, so a lone row is doubled.  This
# holds with one BLAS thread; with two, OpenBLAS splits blocks of 100 or
# more rows at n_grid 32 differently.  The interaction sums restricted to
# |n| <= trunc run on the grid of half-width trunc and are embedded with
# zeros above it.


@lru_cache(maxsize=None)
def _dft_matrices(n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(to_grid, from_grid) matrices of shapes (2N+1, 4N+2) and (4N+2, 2N+1)."""
    m = 4 * n_grid + 2
    # reduce n * j mod m in integers, so every entry is a root of unity to rounding
    turns = np.outer(np.arange(-n_grid, n_grid + 1), np.arange(m)) % m
    to_grid = np.exp((2j * np.pi / m) * turns)
    from_grid = np.ascontiguousarray(np.conj(to_grid).T / m)
    to_grid.flags.writeable = False
    from_grid.flags.writeable = False
    return to_grid, from_grid


@lru_cache(maxsize=None)
def _wide_from_grid(n_grid: int) -> np.ndarray:
    """(4N+2, 4N+1) matrix: coefficients on |k| <= 2N of values on the dealiased grid.

    A product of two fields on |n| <= N has its modes in |k| <= 2N, all
    distinct modulo the 4N+2 grid points, so this transform is exact.
    """
    m = 4 * n_grid + 2
    turns = np.outer(np.arange(m), np.arange(-2 * n_grid, 2 * n_grid + 1)) % m
    wide = np.exp((-2j * np.pi / m) * turns) / m
    wide.flags.writeable = False
    return wide


def _rows_matmul(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x @ mat over the last axis of x, as one gemm on the flattened rows."""
    rows = x.reshape(-1, x.shape[-1])
    if rows.shape[0] == 1:
        out = (np.concatenate((rows, rows)) @ mat)[:1]
    else:
        out = rows @ mat
    return out.reshape(x.shape[:-1] + mat.shape[1:])


def _to_grid(a: np.ndarray, n_grid: int) -> np.ndarray:
    """Values on the dealiased grid of the coefficients a_n, |n| <= n_grid."""
    if n_grid <= DENSE_GRID_LIMIT:
        return _rows_matmul(a, _dft_matrices(n_grid)[0])
    pad = 4 * n_grid + 2
    spec = np.zeros(a.shape[:-1] + (pad,), dtype=np.complex128)
    spec[..., : n_grid + 1] = a[..., n_grid:]
    spec[..., pad - n_grid :] = a[..., :n_grid]
    return np.fft.ifft(spec, axis=-1, norm="forward", out=spec)


def _from_grid(p: np.ndarray, n_grid: int) -> np.ndarray:
    """Coefficients on |n| <= n_grid of the grid values ``p`` (may overwrite p)."""
    if n_grid <= DENSE_GRID_LIMIT:
        return _rows_matmul(p, _dft_matrices(n_grid)[1])
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


def _embed(low: np.ndarray, limit: int, n_grid: int) -> np.ndarray:
    """Coefficients on |n| <= n_grid of ``low`` given on |n| <= limit, zero outside."""
    if limit == n_grid:
        return low
    out = np.zeros(low.shape[:-1] + (2 * n_grid + 1,), dtype=np.complex128)
    out[..., n_grid - limit : n_grid + limit + 1] = low
    return out


def gamma_sum(V: np.ndarray, t, n_grid: int, trunc: int | None = None) -> np.ndarray:
    """Nonresonant interaction sum sum_{Gamma(n)} e^{-i phi t} v v~ v.

    ``trunc`` restricts input triples and outputs to |n| <= trunc (the
    grid itself when None).  With w = e^{-i t n^4} v restricted to
    |n| <= trunc, the sum is e^{+i t n^4} F[|w|^2 w]_n (one ``conv3`` of a
    single input on the grid of half-width trunc, which is exact there)
    minus the diagonal terms (2 sum_k |v_k|^2 - |v_n|^2) v_n, which
    reproduces the triple sum identically; modes above trunc are zero.
    ``t`` may be an array that broadcasts against the leading axes of V,
    with a unit mode axis: a (T, 1) column of times for T stacked states.
    """
    limit = n_grid if trunc is None else min(int(trunc), n_grid)
    VL = V[..., n_grid - limit : n_grid + limit + 1]
    rot = np.exp(-1j * t * _quartic_freqs(limit))
    w = VL * rot
    low = conv3(w, w, w, limit)
    low *= np.conj(rot)
    a2 = VL.real**2 + VL.imag**2
    low -= (2.0 * a2.sum(axis=-1, keepdims=True) - a2) * VL
    return _embed(low, limit, n_grid)


def gamma_sum_linearized(
    V: np.ndarray,
    W: np.ndarray,
    t: float,
    n_grid: int,
    trunc: int | None = None,
) -> np.ndarray:
    """One-slot-replacement derivative of ``gamma_sum`` in the direction W.

    A test oracle, with ``linearized_rhs_array``: the library's tangent
    flow uses ``tangent_matrices``, and the two are kept because the tests
    check ``tangent_matrices`` against them and the benchmark's tracer
    patches them by name.

    Sum over the three replacements of one argument by W (with the middle
    slot conjugated), restricted exactly like ``gamma_sum``.  With v, w the
    de-rotated restrictions of V, W, the three replacements together are
    e^{+i t n^4} F[2|v|^2 w + v^2 conj(w)]_n: two forward transforms (v and
    w; v broadcasts against the batch axes of w) and one backward, on the
    grid of half-width trunc.  The diagonal terms are corrected by the same
    one-slot derivative of ``gamma_sum``'s diagonal correction.
    """
    limit = n_grid if trunc is None else min(int(trunc), n_grid)
    VL = V[..., n_grid - limit : n_grid + limit + 1]
    WL = W[..., n_grid - limit : n_grid + limit + 1]
    rot = np.exp(-1j * t * _quartic_freqs(limit))
    pv = _to_grid(VL * rot, limit)
    pw = _to_grid(WL * rot, limit)
    grid = (pv * pv) * np.conj(pw)
    grid += (2.0 * (pv.real**2 + pv.imag**2)) * pw
    low = _from_grid(grid, limit)
    low *= np.conj(rot)
    a2 = VL.real**2 + VL.imag**2
    inner = (np.conj(VL) * WL).sum(axis=-1, keepdims=True)  # sum conj(v) w
    low -= (2.0 * (a2.sum(axis=-1, keepdims=True) - a2)) * WL
    low -= (4.0 * inner.real) * VL
    low += (VL * VL) * np.conj(WL)
    return _embed(low, limit, n_grid)


def _slow_part(spec: FlowSpec, W: np.ndarray, n_grid: int) -> np.ndarray:
    """Non-oscillatory remainder of the interaction-picture vector field.

    i sign (|v_n|^2 - 2 sum_k |v_k|^2) v_n on the active modes |n| <= L,
    L the interaction limit, and zero above.  The mean term 2 sum_k |v_k|^2
    (over the active modes) belongs to the variants whose cubic keeps it,
    ``physical`` and ``approx_physical``; the renormalized cubic and the
    interaction variants built on it have none.
    """
    limit = spec.interaction_limit(n_grid)
    WL = W * _low_mask(n_grid, limit) if limit < n_grid else W
    a2 = np.abs(WL) ** 2
    out = a2 * WL
    if spec.variant in ("physical", "approx_physical"):
        out -= 2.0 * np.sum(a2, axis=-1, keepdims=True) * WL
    return 1j * spec.sign * out


def _w_rhs(spec: FlowSpec, W: np.ndarray, t: float, n_grid: int) -> np.ndarray:
    """Full interaction-picture vector field for any variant.

    For interaction-type variants this is the variant's own vector field.
    """
    limit = spec.interaction_limit(n_grid)
    return -1j * spec.sign * gamma_sum(W, t, n_grid, limit) + _slow_part(spec, W, n_grid)


def rhs_array(spec: FlowSpec, V: np.ndarray, t, n_grid: int) -> np.ndarray:
    """Full vector field of the chosen variant on raw coefficient arrays.

    A physical-space field is autonomous: it is the free part -i n^4 V plus
    the interaction-picture field at t = 0, where the two pictures agree.
    ``t`` may be an array that broadcasts against the leading axes of V,
    as in ``gamma_sum``.
    """
    if spec.variant in PHYSICAL_VARIANTS:
        return -1j * _quartic_freqs(n_grid) * V + _w_rhs(spec, V, 0.0, n_grid)
    return _w_rhs(spec, V, t, n_grid)


def linearized_rhs_array(spec: FlowSpec, V: np.ndarray, W: np.ndarray, t: float, n_grid: int) -> np.ndarray:
    """First variation of the interaction-type vector field along the flow.

    A test oracle for ``tangent_matrices`` (see ``gamma_sum_linearized``).
    """
    if spec.variant not in INTERACTION_VARIANTS:
        raise ValueError("linearized flow implemented for interaction-type variants")
    limit = spec.interaction_limit(n_grid)
    VL = V[..., n_grid - limit : n_grid + limit + 1]
    WL = W[..., n_grid - limit : n_grid + limit + 1]
    res = (2.0 * (VL.real**2 + VL.imag**2)) * WL
    res += (VL * VL) * np.conj(WL)
    res *= 1j * spec.sign
    out = gamma_sum_linearized(V, W, t, n_grid, limit)
    out *= -1j * spec.sign
    out[..., n_grid - limit : n_grid + limit + 1] += res
    return out


def tangent_matrices(spec: FlowSpec, V: np.ndarray, t, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with A W + B conj(W) the first variation of the interaction-type field at V.

    With L the interaction limit, v_n = e^{-i t n^4} V_n on |n| <= L, c and
    d the coefficients of |v|^2 and v^2 on |k| <= 2L (v on the grid, then
    the stacked pair times the cached (4L+2, 4L+1) matrix ``_wide_from_grid``,
    exact at every L) and S = sum_k |V_k|^2,

        A_nm = -2i sign (e^{i t (n^4 - m^4)} c_{n-m} - S delta_nm - V_n conj(V_m)),
        B_nm = -i sign (e^{i t (n^4 + m^4)} d_{n+m} - 2 V_n V_m).

    The rotated Toeplitz and Hankel parts are the three slot replacements
    of ``gamma_sum_linearized``; its diagonal and rank-one corrections and
    the slow part's derivative i sign (2|v|^2 dv + v^2 conj(dv)) combine
    into the S and V terms (the diagonal |V_n|^2 terms cancel).  Modes
    above the interaction limit are frozen, so A and B are zero outside
    |n|, |m| <= L.  ``t`` broadcasts as in ``gamma_sum``.  Returns two
    arrays of shape V.shape[:-1] + (dim, dim).
    """
    if spec.variant not in INTERACTION_VARIANTS:
        raise ValueError("linearized flow implemented for interaction-type variants")
    limit = spec.interaction_limit(n_grid)
    VL = V[..., n_grid - limit : n_grid + limit + 1]
    rot = np.exp(-1j * t * _quartic_freqs(limit))
    back = np.conj(rot)
    pv = _to_grid(VL * rot, limit)
    cd = _rows_matmul(np.stack((pv.real**2 + pv.imag**2, pv * pv), axis=-2), _wide_from_grid(limit))
    k = np.arange(2 * limit + 1)
    A = back[..., :, None] * cd[..., 0, :].take(k[:, None] - k + 2 * limit, axis=-1) * rot[..., None, :]
    A[..., k, k] -= (VL.real**2 + VL.imag**2).sum(axis=-1, keepdims=True)
    A -= VL[..., :, None] * np.conj(VL[..., None, :])
    A *= -2j * spec.sign
    B = back[..., :, None] * cd[..., 1, :].take(k[:, None] + k, axis=-1) * back[..., None, :]
    B -= 2.0 * VL[..., :, None] * VL[..., None, :]
    B *= -1j * spec.sign
    if limit == n_grid:
        return A, B
    low = slice(n_grid - limit, n_grid + limit + 1)
    out = np.zeros((2,) + A.shape[:-2] + (2 * n_grid + 1,) * 2, dtype=np.complex128)
    out[0, ..., low, low] = A
    out[1, ..., low, low] = B
    return out[0], out[1]


def rhs(spec: FlowSpec, f: SpectralField, t: float = 0.0) -> SpectralField:
    spec.check_states(f.coeffs, f.n_grid)
    return SpectralField(rhs_array(spec, f.coeffs, t, f.n_grid), f.n_grid)


# -- integrators -------------------------------------------------------------
#
# A scheme is a factory returning ``step(t, y, h) -> y_next`` for a vector
# field f(i, t, y), i the index of the stage it evaluates (rk4: 0-3; gauss:
# 0 and 1, its warm start stage 0); what a scheme carries from one step to
# the next (Gauss warm-start stages, Filon weights and phases) lives in its
# closure.
# ``_drive`` is the one loop over the step plan.  The Filon step keeps its
# folded quads in a padded (output mode, slot) layout, so a fixed-point
# sweep is one gather of the interior nodes' samples and one batched
# matmul with the weights, one matrix per output mode.
#
# ``evolve_array`` steps Gauss and RK4 batches in blocks of at most
# ROW_BLOCK rows, each with its own step closure, so no field evaluation
# allocates multi-MB temporaries that page-fault on first touch.  A row's
# result depends on its own block only (the Gauss warm start and stop
# rule), bitwise so with one BLAS thread.  Not blocked: the base states
# of ``linearized_final`` (at most a few rows, stepped by the scheme's own
# step, with their tangent directions advanced by a second step of the same
# scheme on the linear field of ``tangent_matrices`` at each stage), and
# the Filon step and its RK4 predictor, whose callers run at most 20 rows.


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
    """Classical RK4 step for y' = f(i, t, y), stages i = 0-3."""

    def step(t, y, h):
        k1 = f(0, t, y)
        k2 = f(1, t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = f(2, t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = f(3, t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _gauss(f: Callable) -> Callable:
    """Two-stage Gauss collocation step for y' = f(i, t, y), stages i = 0, 1.

    The coefficient matrix of the Gauss method satisfies the algebraic
    condition that makes every Runge-Kutta step conserve quadratic first
    integrals exactly, so the l2 mass is preserved to the fixed-point
    tolerance regardless of step size.  The stage system is solved by
    fixed-point iteration, warm-started from the previous step's stages,
    until the largest stage update over all rows of y is below FP_TOL.
    ``evolve_array`` passes one block of at most ROW_BLOCK rows as y, so a
    row's result depends on its own block's stop rule, not the batch's.
    """
    r = np.sqrt(3.0) / 6.0
    c1, c2 = 0.5 - r, 0.5 + r
    a11, a12, a21, a22 = 0.25, 0.25 - r, 0.25 + r, 0.25
    k1 = k2 = None

    def step(t, y, h):
        nonlocal k1, k2
        if k1 is None:
            k1 = f(0, t + c1 * h, y)
            k2 = k1.copy()
        scale = 1.0 + float(np.max(np.abs(y)))
        for _ in range(FP_MAX):
            k1_new = f(0, t + c1 * h, y + h * (a11 * k1 + a12 * k2))
            k2_new = f(1, t + c2 * h, y + h * (a21 * k1_new + a22 * k2))
            delta = max(float(np.max(np.abs(k1_new - k1))), float(np.max(np.abs(k2_new - k2))))
            k1, k2 = k1_new, k2_new
            if abs(h) * delta <= FP_TOL * scale:
                break
        return y + (0.5 * h) * (k1 + k2)

    return step


_STEPPERS = {"rk4": _rk4, "gauss": _gauss}


def _row_blocked(make_step: Callable) -> Callable:
    """Step of ``make_step()`` applied to each block of at most ROW_BLOCK rows.

    Leading axes of y are flattened to rows, each block gets its own step,
    and the results fill one output of the shape of y.
    """
    blocks = []

    def step(t, y, h):
        rows = y.reshape(-1, y.shape[-1])
        if not blocks:
            blocks.extend(make_step() for _ in range(0, max(1, rows.shape[0]), ROW_BLOCK))
        if len(blocks) == 1:
            return blocks[0](t, y, h)
        out = np.empty_like(rows)
        for k, block in enumerate(blocks):
            part = slice(k * ROW_BLOCK, (k + 1) * ROW_BLOCK)
            out[part] = block(t, rows[part], h)
        return out.reshape(y.shape)

    return step


def _filon(spec: FlowSpec, n_grid: int) -> Callable:
    """Channel-exact step of the interaction-picture field of ``spec``.

    Each step integrates the nonresonant term per quad against the
    interpolant of its smooth factor on FILON_NODES equispaced nodes, with
    e^{-i phi t} integrated exactly, and the slow remainder with the same
    weights at rate 0; the interior node samples are obtained from an RK4
    predictor and tightened by fixed-point (Picard) sweeps.

    The summand v_{n1} conj(v_{n2}) v_{n3} and the phase are symmetric in
    n1 <-> n3, so the step runs over the folded table (the quads with
    n1 <= n3, about half of them) with the multiplicity, 2 off the
    diagonal n1 = n3 and 1 on it, folded into the weights together with
    the factor -i sign.  The quads are laid out per output mode: row s
    holds the quads of output mode s, padded to the longest row with
    weight-0 slots.  A sweep gathers pref * v_{n1} v_{n3} conj(v_{n2}) of
    the five interior nodes in one pass, by flat takes into the nodes'
    outer products and conjugates, as a (modes, batch, nodes * width)
    array, and contracts it with the (modes, nodes * width, fractions)
    weights by one batched matmul, which gives each fraction's
    nonresonant integral per output mode directly.  Node 0's term is
    fixed for the step and computed once, before the sweeps.  The weights
    are built per step size, and the phases e^{-i phi t} are advanced by
    one factor per step.
    """
    limit = spec.interaction_limit(n_grid)
    if limit > FILON_GRID_LIMIT:
        raise ValueError(
            f"filon integrator limited to interaction tables |n| <= {FILON_GRID_LIMIT}"
        )
    table = folded_triples(limit)
    dim_low = 2 * limit + 1
    lo, hi = n_grid - limit, n_grid + limit + 1
    # quad q sits in row iout[q], at its rank among the quads of that mode
    width = int(np.bincount(table.iout, minlength=dim_low).max())
    slot = table.iout * width + np.arange(len(table)) - np.searchsorted(table.iout, table.iout)

    def padded(values):
        """Per-quad values (last axis) in the (modes, width) layout, 0 in the padding."""
        out = np.zeros(values.shape[:-1] + (dim_low * width,), dtype=values.dtype)
        out[..., slot] = values
        return out.reshape(values.shape[:-1] + (dim_low, width))

    phi = table.phi.astype(np.float64)
    phi_pad = padded(phi)[:, None, None, :]  # (modes, 1, 1, width)
    pair = padded(table.i1 * dim_low + table.i3)  # v_{n1} v_{n3} in a node's outer product
    mid = padded(table.i2)
    mult = np.where(table.n1 == table.n3, 1.0, 2.0) * (-1j * spec.sign)

    n_nodes = FILON_NODES
    n_inner = n_nodes - 1
    fractions = [j / n_inner for j in range(1, n_nodes)]
    predictor = _rk4(lambda i, tt, yy: _w_rhs(spec, yy, tt, n_grid))
    zero_rate = np.zeros(1)
    pref = cached_h = w0 = w_inner = wslow = advance = take_pair = take_mid = None

    def gather(X):
        """pref * v_{n1} v_{n3} conj(v_{n2}) of the n nodes X (n, rows, dim_low).

        Returns the (modes, rows, n * width) samples, node-major along the last axis.
        """
        n = X.shape[0]
        g = (X[..., :, None] * X[..., None, :]).take(take_pair[:, :, :n])
        g *= np.conj(X).take(take_mid[:, :, :n])
        g *= pref
        return g.reshape(g.shape[:2] + (n * width,))

    def step(t, W, h):
        nonlocal pref, cached_h, w0, w_inner, wslow, advance, take_pair, take_mid
        Y = W.reshape(-1, W.shape[-1])
        if pref is None:
            pref = np.exp(-1j * phi_pad * t)
            rows = Y.shape[0]
            # flat offset of (row b, node m) in the stacked nodes, as (1, rows, n_inner, 1)
            offsets = (np.arange(rows)[:, None] + rows * np.arange(n_inner))[None, :, :, None]
            take_pair = offsets * dim_low**2 + pair[:, None, None, :]
            take_mid = offsets * dim_low + mid[:, None, None, :]
        if cached_h != h:
            wosc = np.stack(
                [np.stack(collocation_osc_weights(phi, h, f, n_nodes), axis=0) for f in fractions],
                axis=0,
            )
            wosc = padded(wosc * mult)  # (fractions, nodes, modes, width)
            w0 = np.ascontiguousarray(wosc[:, 0].transpose(1, 2, 0))  # (modes, width, fractions)
            w_inner = np.ascontiguousarray(wosc[:, 1:].transpose(2, 1, 3, 0)).reshape(
                dim_low, n_inner * width, n_inner
            )
            wslow = np.array(
                [
                    [float(w.real[0]) for w in collocation_osc_weights(zero_rate, h, f, n_nodes)]
                    for f in fractions
                ]
            )  # (fractions, nodes)
            advance = np.exp(-1j * phi_pad * h)
            cached_h = h
        # predictor: chained classical sub-steps fill the interior nodes
        nodes = [Y]
        for j in range(n_inner):
            tau = t + (fractions[j - 1] if j else 0.0) * h
            nodes.append(predictor(tau, nodes[-1], h / n_inner))
        nodes = np.stack(nodes[1:], axis=0)  # (fractions, rows, dim)
        # node 0's terms, the same in every sweep
        base = Y + np.multiply.outer(wslow[:, 0], _slow_part(spec, Y, n_grid))
        base[..., lo:hi] += (gather(Y[None, :, lo:hi]) @ w0).transpose(2, 1, 0)
        scale = 1.0 + float(np.max(np.abs(nodes[-1])))
        for _ in range(PICARD_MAX):
            slow = wslow[:, 1:] @ _slow_part(spec, nodes, n_grid).reshape(n_inner, -1)
            swept = base + slow.reshape(base.shape)
            swept[..., lo:hi] += (gather(nodes[..., lo:hi]) @ w_inner).transpose(2, 1, 0)
            delta = float(np.max(np.abs(swept[-1] - nodes[-1])))
            nodes = swept
            if delta <= PICARD_TOL * scale:
                break
        pref = pref * advance
        return nodes[-1].reshape(W.shape)

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
    spec.check_states(V0, n_grid)
    scheme = spec.resolved_integrator()
    if scheme == "filon":
        step = _filon(spec, n_grid)
    else:
        stepper = _STEPPERS[scheme]
        step = _row_blocked(lambda: stepper(lambda i, t, W: _w_rhs(spec, W, t, n_grid)))
    W0 = np.array(V0, dtype=np.complex128, copy=True)
    out = None
    if spec.variant in PHYSICAL_VARIANTS:
        n4 = _quartic_freqs(n_grid)
        W0 = W0 * np.exp(1j * t0 * n4)
        out = lambda W, t: W * np.exp(-1j * t * n4)
    return _drive(step, W0, t0, t1, spec.dt, store, monitor, out)


def evolve(spec: FlowSpec, f0: SpectralField, t0: float, t1: float) -> Trajectory:
    """Integrate the chosen variant, storing the state at every step."""
    times, states = evolve_array(spec, f0.coeffs, t0, t1, f0.n_grid, store=True)
    return Trajectory(times=times, coeffs=states, spec=spec, n_grid=f0.n_grid)


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
    """Integrate the flow and its first variation.

    ``w0`` may carry leading batch axes (columns) with modes on the last
    axis; ``v0`` is one state of shape (dim,), or ``w0.shape[:-2] + (1, dim)``
    for one base state per leading index.  Each step of Y = [V; W], stacked
    along axis -2, steps V by the scheme's own step (the one ``evolve_array``
    takes), which records the last point of each stage i it evaluates,
    builds the tangent matrices of ``tangent_matrices`` at those points in
    one batched call, and steps W, as real rows, by a second step of the
    same scheme on the linear field w -> w M_i, M_i the real form of the
    tangent map at stage i.  So W solves the tableau's linear stage
    equations K_i = J_i (W + h sum_j a_ij K_j).  Runge-Kutta steps commute
    with linearization, so W is the derivative of the discrete flow map;
    with the Gauss scheme that map is symplectic and the variational
    determinant is structurally unity.  Returns (times, V, W).
    """
    spec.check_states(v0, n_grid)
    scheme = spec.resolved_integrator()
    if scheme not in _STEPPERS:
        raise ValueError("linearized flow supports the rk4 and gauss schemes")
    W0 = np.asarray(w0, dtype=np.complex128)
    cols = W0 if W0.ndim > 1 else W0[None]
    base = np.asarray(v0, dtype=np.complex128).reshape(cols.shape[:-2] + (1, cols.shape[-1]))
    Y0 = np.concatenate([base, cols], axis=-2)

    stages = {}
    M = None

    def field(i, t, V):
        stages[i] = (t, V)
        return rhs_array(spec, V, t, n_grid)

    step_v = _STEPPERS[scheme](field)
    step_w = _STEPPERS[scheme](lambda i, t, w: w @ M[i])

    def step(t, Y, h):
        nonlocal M
        V = step_v(t, Y[..., :1, :], h)
        stage_t, points = zip(*(stages[i] for i in sorted(stages)))
        t_col = np.reshape(stage_t, (len(stage_t),) + (1,) * (V.ndim - 1))
        M = _real_rows(*tangent_matrices(spec, np.stack(points)[..., 0, :], t_col, n_grid))
        W = step_w(t, Y[..., 1:, :].view(np.float64), h)
        return np.concatenate([V, W.view(np.complex128)], axis=-2)

    times, Y = _drive(step, Y0, t0, t1, spec.dt, store)
    lead = Y.shape[: Y.ndim - cols.ndim]
    V = Y[..., :1, :].reshape(lead + np.shape(v0))
    W = Y[..., 1:, :].reshape(lead + W0.shape)
    return times, V, W


def _real_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Real M with (x A^T + conj(x) B^T).view(float) = x.view(float) @ M for complex rows x."""
    dim = A.shape[-1]
    At, Bt = np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2)
    M = np.empty(A.shape[:-2] + (dim, 2, dim, 2))  # (mode in, re/im in, mode out, re/im out)
    np.add(At.real, Bt.real, out=M[..., 0, :, 0])
    np.subtract(Bt.imag, At.imag, out=M[..., 1, :, 0])
    np.add(At.imag, Bt.imag, out=M[..., 0, :, 1])
    np.subtract(At.real, Bt.real, out=M[..., 1, :, 1])
    return M.reshape(A.shape[:-2] + (2 * dim, 2 * dim))


# -- gauge and interaction-picture maps --------------------------------------


def gauge_forward(f: SpectralField, t: float) -> SpectralField:
    """Multiply by e^{2 i t avg|f|^2}; avg|f|^2 = sum |f_n|^2."""
    m0 = float(np.sum(np.abs(f.coeffs) ** 2))
    return SpectralField(np.exp(2j * t * m0) * f.coeffs, f.n_grid)


def gauge_inverse(f: SpectralField, t: float) -> SpectralField:
    return gauge_forward(f, -t)


def to_interaction(f: SpectralField, t: float) -> SpectralField:
    """Coefficient-wise e^{+i t n^4}: undoes the free quartic flow."""
    return SpectralField(np.exp(1j * t * _quartic_freqs(f.n_grid)) * f.coeffs, f.n_grid)


def from_interaction(f: SpectralField, t: float) -> SpectralField:
    """Coefficient-wise e^{-i t n^4}: the free flow S(t) applied to f."""
    return SpectralField(np.exp(-1j * t * _quartic_freqs(f.n_grid)) * f.coeffs, f.n_grid)


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
    second order in the sampling step.  Only interior states with equal
    neighbouring steps are checked; a trajectory with none is rejected.
    """
    if len(traj) < 3:
        raise ValueError("residual needs at least 3 states")
    worst, checked = 0.0, 0
    for i in range(1, len(traj) - 1):
        h_left = traj.times[i] - traj.times[i - 1]
        h_right = traj.times[i + 1] - traj.times[i]
        if abs(h_left - h_right) > 1e-12 * max(abs(h_left), abs(h_right)):
            continue
        checked += 1
        fd = (traj.coeffs[i + 1] - traj.coeffs[i - 1]) / (traj.times[i + 1] - traj.times[i - 1])
        vf = rhs_array(traj.spec, traj.coeffs[i], float(traj.times[i]), traj.n_grid)
        denom = float(np.linalg.norm(traj.coeffs[i]))
        num = float(np.linalg.norm(fd - vf))
        worst = max(worst, num / denom if denom > 0 else 0.0)
    if not checked:
        raise ValueError("residual needs an interior state with equal neighbouring steps")
    return worst
