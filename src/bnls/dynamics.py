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

Modes above the interaction limit L are constant in the interaction
picture, so ``evolve_array`` and ``linearized_final`` step only |n| <= L, on
the grid of half-width L, and put this frozen tail back into the states they
report.  Every kernel takes arrays on its own grid, all of whose modes are
active; ``rhs_array`` is the one field on the full grid.

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
# variants whose cubic keeps its mean term 2 sum_k |v_k|^2 v_n; the others are renormalized
MEAN_TERM_VARIANTS = ("physical", "approx_physical")

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
# grid temporaries stay near 1 MB or below at N <= 16.  It moves no result:
# each row stops its Gauss fixed point on its own.  Of blocks of 256 to
# 4096 rows at N = 4, 8 and 16 with one BLAS thread, 1024 was fastest at
# N = 4 and 8 and 512 at N = 16 (BENCH_row_block.json).
ROW_BLOCK = 1024

# Stop rules of the Gauss fixed point and the Filon Picard sweeps: a step
# stops sweeping when its largest update (times |h| for Gauss) is at most the
# tolerance times 1 + max|y|, or after the most sweeps.  Gauss applies the
# rule to each unit of its state (a row in ``evolve_array``) on its own.
FP_TOL, FP_MAX = 1e-15, 30
PICARD_TOL, PICARD_MAX = 1e-13, 8

# Two-stage Gauss collocation tableau: nodes C1, C2 and coefficients A11-A22,
# read by ``_gauss`` when it runs.
_R3 = np.sqrt(3.0) / 6.0
C1, C2 = 0.5 - _R3, 0.5 + _R3
A11, A12, A21, A22 = 0.25, 0.25 - _R3, 0.25 + _R3, 0.25


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
# more rows at n_grid 32 differently.


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


def _embed(low: np.ndarray, limit: int, n_grid: int) -> np.ndarray:
    """Coefficients on |n| <= n_grid of ``low`` given on |n| <= limit, zero outside."""
    if limit == n_grid:
        return low
    out = np.zeros(low.shape[:-1] + (2 * n_grid + 1,), dtype=np.complex128)
    out[..., n_grid - limit : n_grid + limit + 1] = low
    return out


def _rotated_cubic(V: np.ndarray, t, n_grid: int) -> np.ndarray:
    """e^{+i t n^4} F[|w|^2 w]_n, w = e^{-i t n^4} V: one ``conv3`` on |n| <= n_grid, exact there."""
    rot = np.exp(-1j * t * _quartic_freqs(n_grid))
    w = V * rot
    out = conv3(w, w, w, n_grid)
    out *= np.conj(rot)
    return out


def gamma_sum(V: np.ndarray, t, n_grid: int) -> np.ndarray:
    """Nonresonant interaction sum sum_{Gamma(n)} e^{-i phi t} v v~ v, V on its own grid.

    The rotated cubic minus the diagonal terms (2 sum_k |v_k|^2 - |v_n|^2)
    v_n reproduces the sum over ``grid_triples(n_grid)`` identically.
    ``t`` may be an array that broadcasts against the leading axes of V,
    with a unit mode axis: a (T, 1) column of times for T stacked states.
    """
    out = _rotated_cubic(V, t, n_grid)
    a2 = V.real**2 + V.imag**2
    out -= (2.0 * a2.sum(axis=-1, keepdims=True) - a2) * V
    return out


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
    slot conjugated), on |n| <= trunc (the grid when None) and zero above.
    With v, w the de-rotated restrictions of V, W, the three replacements
    together are e^{+i t n^4} F[2|v|^2 w + v^2 conj(w)]_n: two forward
    transforms (v and w; v broadcasts against the batch axes of w) and one
    backward, on the grid of half-width trunc.  The diagonal terms are corrected by the same
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


def _slow_part(spec: FlowSpec, W: np.ndarray) -> np.ndarray:
    """The Filon step's resonant remainder: ``_w_rhs`` less -i sign ``gamma_sum``.

    i sign (|v_n|^2 - 2 sum_k |v_k|^2 [mean term]) v_n, with W = v on its
    own grid (modes on the last axis, all active).
    """
    a2 = np.abs(W) ** 2
    out = a2 * W
    if spec.variant in MEAN_TERM_VARIANTS:
        out -= 2.0 * np.sum(a2, axis=-1, keepdims=True) * W
    return 1j * spec.sign * out


def _row_mass(W: np.ndarray) -> np.ndarray:
    """sum_k |W_k|^2 over the last axis, as one dot product of each row's floats with itself.

    A row's sum is bitwise the same whatever else is in the batch, and on
    9- to 17-wide rows it measured 1.5-3.4x faster than summing re^2 + im^2
    along each row.
    """
    x = np.ascontiguousarray(W).view(np.float64)
    return np.einsum("...i,...i->...", x, x)


def _w_rhs(spec: FlowSpec, W: np.ndarray, t, n_grid: int) -> np.ndarray:
    """Interaction-picture vector field of any variant, as its equation is written.

    -i sign (e^{i t n^4} F[|w|^2 w]_n - 2 S v_n [no mean term]), W = v on its
    own grid (all modes active), w = e^{-i t n^4} v and S = sum_k |v_k|^2;
    only ``MEAN_TERM_VARIANTS`` keep 2 S v.
    """
    out = _rotated_cubic(W, t, n_grid)
    if spec.variant not in MEAN_TERM_VARIANTS:
        out -= (2.0 * _row_mass(W)[..., None]) * W
    out *= -1j * spec.sign
    return out


def rhs_array(spec: FlowSpec, V: np.ndarray, t, n_grid: int) -> np.ndarray:
    """Full vector field of the chosen variant on raw coefficient arrays.

    ``_w_rhs`` of |n| <= L, L the interaction limit, and zero above.  A
    physical-space field is autonomous: the free part -i n^4 V plus that
    field at t = 0, where the two pictures agree.  ``t`` may be an array
    that broadcasts against the leading axes of V, as in ``gamma_sum``.
    """
    limit = spec.interaction_limit(n_grid)
    physical = spec.variant in PHYSICAL_VARIANTS
    low = _w_rhs(spec, V[..., n_grid - limit : n_grid + limit + 1], 0.0 if physical else t, limit)
    field = _embed(low, limit, n_grid)
    return -1j * _quartic_freqs(n_grid) * V + field if physical else field


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

    V is on the field's own grid |n| <= N, N = n_grid, all of whose modes
    are active.  With v_n = e^{-i t n^4} V_n, c and d the coefficients of
    |v|^2 and v^2 on |k| <= 2N (v on the grid, then the stacked pair times
    the cached (4N+2, 4N+1) matrix ``_wide_from_grid``, exact at every N)
    and S = sum_k |V_k|^2,

        A_nm = -2i sign (e^{i t (n^4 - m^4)} c_{n-m} - S delta_nm - V_n conj(V_m)),
        B_nm = -i sign (e^{i t (n^4 + m^4)} d_{n+m} - 2 V_n V_m).

    This is the derivative of ``_w_rhs`` term by term: the rotated
    Toeplitz and Hankel parts that of the rotated cubic, the S and V terms
    that of -2 S v.  ``t`` broadcasts as in ``gamma_sum``.  Returns two
    arrays of shape V.shape[:-1] + (dim, dim).
    """
    if spec.variant not in INTERACTION_VARIANTS:
        raise ValueError("linearized flow implemented for interaction-type variants")
    rot = np.exp(-1j * t * _quartic_freqs(n_grid))
    back = np.conj(rot)
    pv = _to_grid(V * rot, n_grid)
    cd = _rows_matmul(np.stack((pv.real**2 + pv.imag**2, pv * pv), axis=-2), _wide_from_grid(n_grid))
    k = np.arange(2 * n_grid + 1)
    A = back[..., :, None] * cd[..., 0, :].take(k[:, None] - k + 2 * n_grid, axis=-1) * rot[..., None, :]
    A[..., k, k] -= (V.real**2 + V.imag**2).sum(axis=-1, keepdims=True)
    A -= V[..., :, None] * np.conj(V[..., None, :])
    A *= -2j * spec.sign
    B = back[..., :, None] * cd[..., 1, :].take(k[:, None] + k, axis=-1) * back[..., None, :]
    B -= 2.0 * V[..., :, None] * V[..., None, :]
    B *= -1j * spec.sign
    return A, B


def rhs(spec: FlowSpec, f: SpectralField, t: float = 0.0) -> SpectralField:
    spec.check_states(f.coeffs, f.n_grid)
    return SpectralField(rhs_array(spec, f.coeffs, t, f.n_grid), f.n_grid)


# -- integrators -------------------------------------------------------------
#
# A scheme is a factory returning ``step(t, y, h) -> y_next`` for a vector
# field f(i, t, y, rows), i the index of the stage it evaluates (rk4: 0-3;
# gauss: 0 and 1, its warm start stage 0) and ``rows`` the indices of the
# units (axis 0 of the step's state) that y holds, None for all of them;
# what a scheme carries from one step to the next lives in its closure.
# ``_drive`` is the one loop over the step plan, and ``_fixed_point`` the
# one loop over the Gauss and Filon sweeps, in which each unit stops on its
# own: so with one BLAS thread a unit's result depends on that unit only.
# ``evolve_array`` steps Gauss and RK4 batches in blocks of at most
# ROW_BLOCK rows, so no field evaluation allocates multi-MB temporaries that
# page-fault on first touch; ``linearized_final`` (a few base states) and
# the Filon step (at most 20 rows in any caller) are not blocked.


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
    limit: int | None = None,
):
    """Advance y0 from t0 to t1 by ``step`` over the plan of step size dt.

    ``step`` sees only the modes |n| <= limit of the last axis (all when
    None): the frozen tail above it is set aside once and put back only
    into the reported states.  ``out(y, t)`` maps the whole stepped
    variable to the reported state (the identity when None); reported
    states are stored when ``store`` and passed to ``monitor(k, t, state)``.
    Returns (times, states stacked along a new first axis) when ``store``,
    else (times, final state).  Raises ``FlowDivergence`` at the first step
    that leaves y non-finite, or at the first step if y0's tail is.
    """
    n_grid = y0.shape[-1] // 2
    y, report = y0, out or (lambda y, t: y)
    if limit is not None and limit < n_grid:
        active, phase = slice(n_grid - limit, n_grid + limit + 1), report
        y = np.ascontiguousarray(y0[..., active])

        def report(y, t):
            whole = y0.copy()
            whole[..., active] = y
            return phase(whole, t)

    finite = bool(np.all(np.isfinite(y0)))
    steps = _step_plan(t0, t1, dt)
    t = t0
    times = [t0]
    stored = [report(y, t0).copy()] if store else None
    if monitor is not None:
        monitor(0, t0, report(y, t0))
    for k, h in enumerate(steps, start=1):
        y = step(t, y, h)
        t = t0 + (k * steps[0] if k < len(steps) else sum(steps))
        if not (finite and np.all(np.isfinite(y.view(np.float64)))):
            raise FlowDivergence(f"non-finite state at t={t}", t)
        times.append(t)
        if store or monitor is not None:
            state = report(y, t)
            if store:
                stored.append(state.copy())
            if monitor is not None:
                monitor(k, t, state)
    times = np.asarray(times)
    if store:
        return times, np.stack(stored, axis=0)
    return times, report(y, t)


def _rk4(f: Callable) -> Callable:
    """Classical RK4 step for y' = f(i, t, y, rows), stages i = 0-3, on every unit."""

    def step(t, y, h):
        k1 = f(0, t, y, None)
        k2 = f(1, t + 0.5 * h, y + (0.5 * h) * k1, None)
        k3 = f(2, t + 0.5 * h, y + (0.5 * h) * k2, None)
        k4 = f(3, t + h, y + h * k3, None)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _unit_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of each unit a[u] of the real array a, units on axis 0.

    More units than entries per unit reduce on a transposed copy, so each
    pass runs along all units at once: numpy's pass along one short row
    costs more than the row's arithmetic.
    """
    flat = a.reshape(a.shape[0], np.prod(a.shape[1:], dtype=np.intp))
    if flat.shape[0] > flat.shape[1]:
        return np.ascontiguousarray(flat.T).max(axis=0)
    return flat.max(axis=1)


def _fixed_point(sweep: Callable, x: tuple, fixed: tuple, tol: np.ndarray, max_sweeps: int) -> tuple:
    """Last iterates of the sweeps x <- sweep(rows, x, fixed), each unit (axis 0) stopping on its own.

    x (iterates) and ``fixed`` (inputs) are tuples of arrays.  ``sweep``
    gets the pending units' indices ``rows`` (None for all) with their x and
    fixed, and returns their next x and each one's stop measure.  A unit
    stops once its measure is at most its ``tol`` (never on NaN), or after
    ``max_sweeps``; the pending units are compacted after each sweep.
    """
    rows, out = None, x
    for _ in range(max_sweeps):
        x, measure = sweep(rows, x, fixed)
        done = measure <= tol
        if rows is None:
            out = x
        else:
            for whole, part in zip(out, x):
                whole[rows] = part
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            break
        if n_done:
            keep = np.flatnonzero(~done)
            rows = keep if rows is None else rows[keep]
            x = tuple(a.take(keep, axis=0) for a in x)
            fixed = tuple(a.take(keep, axis=0) for a in fixed)
            tol = tol.take(keep)
    return out


def _stage(y: np.ndarray, h: float, a: float, ka: np.ndarray, b: float, kb: np.ndarray) -> np.ndarray:
    """y + h (a ka + b kb), formed in place in that order of operations."""
    s = ka * a
    s += kb * b
    s *= h
    s += y
    return s


def _gauss(f: Callable) -> Callable:
    """Two-stage Gauss collocation step for y' = f(i, t, y, rows), stages i = 0, 1.

    The coefficient matrix of the Gauss method satisfies the algebraic
    condition that makes every Runge-Kutta step conserve quadratic first
    integrals exactly, so the l2 mass is preserved to the fixed-point
    tolerance regardless of step size.  The stage system is solved by
    fixed-point iteration (``_fixed_point``), warm-started from the previous
    step's stages.  Each unit y[u] of the state stops once |h| times its
    largest stage update is at most FP_TOL (1 + max |y[u]|), and keeps its
    stages; each sweep evaluates f and does the stage arithmetic on the
    pending units only.  A unit is a row in ``evolve_array`` and a base
    state with its directions in ``linearized_final``.
    """
    k = None

    def step(t, y, h):
        nonlocal k
        if k is None:
            k1 = f(0, t + C1 * h, y, None)
            k = (k1, k1.copy())

        def sweep(rows, stages, fixed):
            (k1, k2), (yp,) = stages, fixed
            k1n = f(0, t + C1 * h, _stage(yp, h, A11, k1, A12, k2), rows)
            k2n = f(1, t + C2 * h, _stage(yp, h, A21, k1n, A22, k2), rows)
            change = np.abs(k1n - k1)
            np.maximum(change, np.abs(k2n - k2), out=change)
            return (k1n, k2n), abs(h) * _unit_max(change)

        k = _fixed_point(sweep, k, (y,), FP_TOL * (1.0 + _unit_max(np.abs(y))), FP_MAX)
        out = k[0] + k[1]
        out *= 0.5 * h
        out += y
        return out

    return step


_STEPPERS = {"rk4": _rk4, "gauss": _gauss}


def _row_blocked(make_step: Callable) -> Callable:
    """Step of ``make_step()`` on the rows of y, in blocks of at most ROW_BLOCK rows.

    Leading axes of y are flattened to rows, each block gets its own step,
    and the results fill one output of the shape of y.  Each row is a unit
    of the Gauss step, so blocking bounds the field's temporaries and moves
    no result.
    """
    blocks = []

    def step(t, y, h):
        rows = y.reshape(-1, y.shape[-1])
        if not blocks:
            blocks.extend(make_step() for _ in range(0, max(1, rows.shape[0]), ROW_BLOCK))
        if len(blocks) == 1:
            return blocks[0](t, rows, h).reshape(y.shape)
        out = np.empty_like(rows)
        for k, block in enumerate(blocks):
            part = slice(k * ROW_BLOCK, (k + 1) * ROW_BLOCK)
            out[part] = block(t, rows[part], h)
        return out.reshape(y.shape)

    return step


def _filon(spec: FlowSpec, n_grid: int) -> Callable:
    """Channel-exact step of the interaction-picture field of ``spec`` on its own grid.

    Each step integrates the nonresonant term per quad against the
    interpolant of its smooth factor on FILON_NODES equispaced nodes, with
    e^{-i phi t} integrated exactly, and the slow remainder with the same
    weights at rate 0; the interior node samples are obtained from an RK4
    predictor and tightened by Picard sweeps (``_fixed_point``); a row stops
    once its last node moves by at most PICARD_TOL (1 + its predicted max).

    The summand v_{n1} conj(v_{n2}) v_{n3} and the phase are symmetric in
    n1 <-> n3, so the step runs over the folded table (the quads with
    n1 <= n3, about half of them) with the multiplicity, 2 off the
    diagonal n1 = n3 and 1 on it, folded into the weights together with
    the factor -i sign.  The quads are laid out per output mode: row s
    holds the quads of output mode s, padded to the longest row with
    weight-0 slots.  A sweep gathers pref * v_{n1} v_{n3} conj(v_{n2}) of
    the five interior nodes in one pass, by takes into each row's node
    outer products and conjugates, as a (rows, modes, nodes * width)
    array, and contracts each row and mode, as its own (1, nodes * width)
    product (a gemm would round a lone row differently), with the
    (nodes * width, fractions) weights of that mode: each fraction's
    nonresonant integral.  Node 0's term is fixed for the step and computed
    once, before the sweeps.  The weights are built per step size, and the
    phases e^{-i phi t} are advanced by one factor per step.
    """
    if n_grid > FILON_GRID_LIMIT:
        raise ValueError(
            f"filon integrator limited to interaction tables |n| <= {FILON_GRID_LIMIT}"
        )
    table = folded_triples(n_grid)
    dim_low = 2 * n_grid + 1
    # quad q sits in row iout[q], at its rank among the quads of that mode
    width = int(np.bincount(table.iout, minlength=dim_low).max())
    slot = table.iout * width + np.arange(len(table)) - np.searchsorted(table.iout, table.iout)

    def padded(values):
        """Per-quad values (last axis) in the (modes, width) layout, 0 in the padding."""
        out = np.zeros(values.shape[:-1] + (dim_low * width,), dtype=values.dtype)
        out[..., slot] = values
        return out.reshape(values.shape[:-1] + (dim_low, width))

    phi = table.phi.astype(np.float64)
    phi_pad = padded(phi)[:, None, :]  # (modes, 1, width)
    mult = np.where(table.n1 == table.n3, 1.0, 2.0) * (-1j * spec.sign)

    n_nodes = FILON_NODES
    n_inner = n_nodes - 1
    fractions = [j / n_inner for j in range(1, n_nodes)]
    # flat offsets, within one row's stacked nodes, of v_{n1} v_{n3} in node m's
    # outer product and of conj(v_{n2}) in its conjugate, as (modes, n_inner, width)
    node = np.arange(n_inner)[:, None]
    take_pair = node * dim_low**2 + padded(table.i1 * dim_low + table.i3)[:, None, :]
    take_mid = node * dim_low + padded(table.i2)[:, None, :]
    predictor = _rk4(lambda i, tt, yy, rows: _w_rhs(spec, yy, tt, n_grid))
    zero_rate = np.zeros(1)
    pref = cached_h = weights = wslow = advance = None

    def nonres(X, w):
        """Nonresonant integrals, (rows, fractions, modes), of the n nodes X (rows, n, dim_low) with weights w."""
        rows, n = X.shape[:2]
        g = (X[..., :, None] * X[..., None, :]).reshape(rows, n * dim_low**2).take(take_pair[:, :n], axis=1)
        g *= np.conj(X).reshape(rows, n * dim_low).take(take_mid[:, :n], axis=1)
        g *= pref
        return (g.reshape(rows, dim_low, 1, n * width) @ w)[:, :, 0].swapaxes(1, 2)

    def step(t, W, h):
        nonlocal pref, cached_h, weights, wslow, advance
        Y = W.reshape(-1, W.shape[-1])
        if pref is None:
            pref = np.exp(-1j * phi_pad * t)
        if cached_h != h:
            wosc = padded(np.array([collocation_osc_weights(phi, h, f, n_nodes) for f in fractions]) * mult)
            # (modes, nodes * width, fractions): node 0's weights, then the interior nodes'
            weights = np.ascontiguousarray(wosc.transpose(2, 1, 3, 0)).reshape(dim_low, n_nodes * width, n_inner)
            wslow = np.array([collocation_osc_weights(zero_rate, h, f, n_nodes) for f in fractions]).real[..., 0]
            advance = np.exp(-1j * phi_pad * h)
            cached_h = h
        # predictor: chained classical sub-steps fill the interior nodes
        nodes = [Y]
        for j in range(n_inner):
            tau = t + (fractions[j - 1] if j else 0.0) * h
            nodes.append(predictor(tau, nodes[-1], h / n_inner))
        nodes = np.stack(nodes[1:], axis=1)  # (rows, fractions, dim)
        # node 0's terms, the same in every sweep
        base = Y[:, None, :] + wslow[:, 0, None] * _slow_part(spec, Y)[:, None, :]
        base += nonres(Y[:, None, :], weights[:, :width])

        def sweep(rows, x, fixed):
            (prev,), (start,) = x, fixed
            swept = start + wslow[:, 1:] @ _slow_part(spec, prev)
            swept += nonres(prev, weights[:, width:])
            return (swept,), _unit_max(np.abs(swept[:, -1] - prev[:, -1]))

        tol = PICARD_TOL * (1.0 + _unit_max(np.abs(nodes[:, -1])))
        (nodes,) = _fixed_point(sweep, (nodes,), (base,), tol, PICARD_MAX)
        pref = pref * advance
        return nodes[:, -1].reshape(W.shape)

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

    Every scheme steps the interaction-picture field ``_w_rhs`` of |n| <= L,
    L the interaction limit, on its own grid (``_drive`` sets the frozen tail
    aside); physical-space states are conjugated through the exact quartic
    phases on entry and on exit.  Returns (times, states) with states stacked
    along a new first axis when ``store``, else (times, final_state).
    Deterministic for fixed input values: the input is copied C-ordered, so
    its memory layout moves no result.
    """
    spec.check_states(V0, n_grid)
    limit = spec.interaction_limit(n_grid)
    scheme = spec.resolved_integrator()
    if scheme == "filon":
        step = _filon(spec, limit)
    else:
        stepper = _STEPPERS[scheme]
        step = _row_blocked(lambda: stepper(lambda i, t, W, rows: _w_rhs(spec, W, t, limit)))
    W0 = np.array(V0, dtype=np.complex128, order="C", copy=True)
    out = None
    if spec.variant in PHYSICAL_VARIANTS:
        n4 = _quartic_freqs(n_grid)
        W0 = W0 * np.exp(1j * t0 * n4)
        out = lambda W, t: W * np.exp(-1j * t * n4)
    return _drive(step, W0, t0, t1, spec.dt, store, monitor, out, limit)


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
    along axis -2, on |n| <= L, L the interaction limit (as in
    ``evolve_array``), steps V by the scheme's own step, which records the
    last point of each stage i it evaluates, builds the tangent matrices of
    ``tangent_matrices`` at those points in one batched call, and steps W,
    as real rows, by a second step of the same scheme on the linear field
    w -> w M_i, M_i the real form of the tangent map at stage i.  So W solves the tableau's linear stage
    equations K_i = J_i (W + h sum_j a_ij K_j).  Runge-Kutta steps commute
    with linearization, so W is the derivative of the discrete flow map;
    with the Gauss scheme that map is symplectic and the variational
    determinant is structurally unity.  Each base state with its directions
    is one unit of both steps, with its own stage points and M_i.  Returns
    (times, V, W).
    """
    spec.check_states(v0, n_grid)
    scheme = spec.resolved_integrator()
    if scheme not in _STEPPERS:
        raise ValueError("linearized flow supports the rk4 and gauss schemes")
    W0 = np.asarray(w0, dtype=np.complex128)
    cols = W0 if W0.ndim > 1 else W0[None]
    base = np.asarray(v0, dtype=np.complex128).reshape(cols.shape[:-2] + (1, cols.shape[-1]))
    Y0 = np.concatenate([base, cols], axis=-2)
    limit = spec.interaction_limit(n_grid)

    stage_t, points = {}, {}
    M = None

    def field(i, t, V, rows):
        stage_t[i] = t
        if rows is None:
            points[i] = V
        else:
            points[i][rows] = V
        return rhs_array(spec, V, t, limit)

    step_v = _STEPPERS[scheme](field)
    step_w = _STEPPERS[scheme](lambda i, t, w, rows: w @ (M[i] if rows is None else M[i][rows]))

    def step(t, Y, h):
        nonlocal M
        V = step_v(t, Y[:, :1, :], h)
        t_col = np.reshape([stage_t[i] for i in sorted(stage_t)], (-1, 1, 1))
        at = np.stack([points[i][:, 0, :] for i in sorted(points)])
        M = _real_rows(*tangent_matrices(spec, at, t_col, limit))
        W = step_w(t, Y[:, 1:, :].view(np.float64), h)
        return np.concatenate([V, W.view(np.complex128)], axis=-2)

    # one unit per base state
    times, Y = _drive(step, Y0.reshape((-1,) + Y0.shape[-2:]), t0, t1, spec.dt, store, limit=limit)
    lead = Y.shape[:-3]
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
    t, V = traj.times, traj.coeffs
    h_left, h_right = t[1:-1] - t[:-2], t[2:] - t[1:-1]
    equal = np.abs(h_left - h_right) <= 1e-12 * np.maximum(np.abs(h_left), np.abs(h_right))
    i = np.flatnonzero(equal) + 1
    if not i.size:
        raise ValueError("residual needs an interior state with equal neighbouring steps")
    fd = (V[i + 1] - V[i - 1]) / (t[i + 1] - t[i - 1])[:, None]
    num = np.linalg.norm(fd - rhs_array(traj.spec, V[i], t[i, None], traj.n_grid), axis=-1)
    denom = np.linalg.norm(V[i], axis=-1)
    # a zero state counts as 0; a non-finite field gives NaN, which fails any <= gate
    return float(np.max(np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)))
