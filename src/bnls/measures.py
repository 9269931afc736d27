"""Gaussian ensembles and Monte Carlo transport diagnostics.

The reference measure has independent coefficients g_n / <n>^s with g_n
complex standard Gaussians (unit variance per real component, so
Var(g_n) = 2).  An optional l2-ball cutoff |v| <= r is imposed by
rejection.  All measure-level quantities are self-normalized ratio
estimators: normalization constants are never computed.

Throughout this module the l2 norm of a field means the plain coefficient
norm (sum |v_n|^2)^{1/2}, matching the dropped-2*pi convention of the
Gaussian family; the 2*pi-weighted physical mass is available separately
in ``fields``.

Sampling is keyed by (master seed, draw index, attempt) through a
counter-based generator, so ensembles are reproducible and independent of
any worker layout.  The Philox key of each attempt is
``SeedSequence((seed, i, a)).generate_state(2, np.uint64)``, derived for
all pending draws at once by one vectorised pass of the SeedSequence hash;
each attempt then resets one reused Philox stream to its key.  Draw i is
the same whatever the count or the batching.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from . import dynamics
from .dynamics import FlowSpec, evolve_array, linearized_final
from .energy import correction_array
from .fields import SpectralField, bracket, sobolev_norm_array
from .resonance import grid_triples

__all__ = [
    "GaussianSpec",
    "Ensemble",
    "EventSpec",
    "sample",
    "invariance_test",
    "liouville_check",
    "liouville_divergence",
    "lp_weight_convergence",
    "measure_growth_experiment",
    "tail_sanity",
]

_MAX_REJECTION_ATTEMPTS = 20_000


@dataclass(frozen=True)
class GaussianSpec:
    """Defines the Gaussian family: regularity, sampled band, optional ball."""

    s: float
    sample_cutoff: int
    r: float | None = None
    seed: int = 0
    n_grid: int | None = None

    def __post_init__(self):
        if self.sample_cutoff < 0:
            raise ValueError("sample_cutoff must be >= 0")
        if self.r is not None and self.r <= 0:
            raise ValueError("cutoff radius r must be positive")
        if self.s <= 0.5:
            raise ValueError("s <= 1/2 leaves the family outside its l2 regime")
        if self.n_grid is not None and self.n_grid < self.sample_cutoff:
            raise ValueError("n_grid must be >= sample_cutoff")

    @property
    def grid(self) -> int:
        return self.sample_cutoff if self.n_grid is None else self.n_grid


@dataclass(frozen=True)
class Ensemble:
    spec: GaussianSpec
    coeffs: np.ndarray  # (count, dim)
    attempts: int

    def __len__(self) -> int:
        return int(self.coeffs.shape[0])

    @property
    def n_grid(self) -> int:
        return self.spec.grid

    @property
    def fields(self) -> list[SpectralField]:
        return [SpectralField(c, self.n_grid) for c in self.coeffs]


# NumPy's SeedSequence hash (O'Neill's seed_seq design) on uint32 words.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_KEY_BATCH = 256  # keys derived per hash pass once few draws are pending


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n``, as SeedSequence splits an int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _philox_keys(seed: int, draws, attempts) -> np.ndarray:
    """``SeedSequence((seed, i, a)).generate_state(2, np.uint64)``, vectorised.

    ``draws`` and ``attempts`` broadcast against each other and must lie in
    [0, 2**32), so each is one entropy word.  Returns uint64 keys of shape
    ``broadcast(draws, attempts).shape + (2,)``.
    """
    i, a = np.broadcast_arrays(np.asarray(draws, np.uint32), np.asarray(attempts, np.uint32))
    entropy = [np.full(i.shape, w, np.uint32) for w in _uint32_words(operator.index(seed))] + [i, a]
    entropy += [np.zeros(i.shape, np.uint32)] * (_POOL_SIZE - len(entropy))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # two uint64 words are four uint32 words: one pass over the pool
    state = np.empty(i.shape + (_POOL_SIZE,), np.uint32)
    hash_const = _INIT_B
    for k, word in enumerate(pool):
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const
        state[..., k] = word ^ (word >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def sample(spec: GaussianSpec, count: int) -> Ensemble:
    """Draw ``count`` fields; rejection-sample into the ball when r is set.

    Runs in rounds: round ``a`` makes attempt ``a`` of every pending draw.
    Each attempt resets one Philox stream to its key and takes the real
    then the imaginary parts of the band from one ``standard_normal`` call.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    cut, grid = spec.sample_cutoff, spec.grid
    d = 2 * cut + 1
    band = slice(grid - cut, grid + cut + 1)
    scale = bracket(np.arange(-cut, cut + 1), -spec.s)
    out = np.zeros((count, 2 * grid + 1), dtype=np.complex128)
    bitgen = Philox(0)
    rng = Generator(bitgen)
    # a fresh stream: counter 0 and an empty output buffer
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    pending = np.arange(count)
    attempts = 0
    attempt = 0
    keys = np.empty((count, 0, 2), np.uint64)  # pending draws x attempts attempt, attempt + 1, ...
    while pending.size:
        if attempt == _MAX_REJECTION_ATTEMPTS:
            raise RuntimeError(
                f"rejection acceptance below {1.0 / _MAX_REJECTION_ATTEMPTS:.0e}; "
                f"increase the cutoff radius r={spec.r}"
            )
        if keys.shape[1] == 0:
            depth = min(max(1, _KEY_BATCH // pending.size), _MAX_REJECTION_ATTEMPTS - attempt)
            keys = _philox_keys(spec.seed, pending[:, None], np.arange(attempt, attempt + depth))
        attempts += pending.size
        z = np.empty((pending.size, 2 * d))
        for row, key in zip(z, keys[:, 0]):
            state["state"]["key"] = key
            bitgen.state = state
            rng.standard_normal(out=row)
        # without a ball every draw is accepted at attempt 0, in order
        v = out if spec.r is None else np.zeros((pending.size, 2 * grid + 1), dtype=np.complex128)
        np.multiply(z[:, :d], scale, out=v.real[:, band])
        np.multiply(z[:, d:], scale, out=v.imag[:, band])
        if spec.r is None:
            break
        inside = sobolev_norm_array(v, 0.0) <= spec.r
        out[pending[inside]] = v[inside]
        pending, keys = pending[~inside], keys[~inside, 1:]
        attempt += 1
    return Ensemble(spec=spec, coeffs=out, attempts=attempts)


# -- weights ------------------------------------------------------------------


def _weights_batch(V: np.ndarray, trunc: int, r: float, t: float, s: float, n_grid: int) -> np.ndarray:
    """Gibbs-type weights exp(-(1/2) correction of the low-mode block), cut to the l2 ball."""
    inside = sobolev_norm_array(V, 0.0) <= r
    expo = -0.5 * correction_array(V[..., n_grid - trunc : n_grid + trunc + 1], t, s, trunc)
    return np.where(inside, np.exp(expo), 0.0)


# -- invariance tests ---------------------------------------------------------


def _apply_transform(V: np.ndarray, transform: str, t: float, n_grid: int, seed: int) -> np.ndarray:
    ns = np.arange(-n_grid, n_grid + 1)
    if transform == "free_flow":
        return V * np.exp(-1j * t * ns.astype(np.float64) ** 4)
    if transform == "gauge":
        m0 = np.sum(np.abs(V) ** 2, axis=-1, keepdims=True)
        return V * np.exp(2j * t * m0)
    if transform == "rotation":
        rng = Generator(Philox(SeedSequence((seed, 0xC0FFEE))))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=2 * n_grid + 1)
        return V * np.exp(1j * angles)
    raise ValueError(f"unknown transform {transform!r}")


def _paired_z(delta: np.ndarray, scale: float = 1.0) -> float:
    """z-score of a paired difference.

    Differences at rounding level relative to ``scale`` carry no
    statistical content (an exactly invariant moment differs only by
    correlated floating-point noise, which would otherwise produce an
    arbitrarily large ratio); those return 0.
    """
    n = delta.shape[0]
    if n == 0 or float(np.max(np.abs(delta))) <= 1e-12 * max(scale, 1e-300):
        return 0.0
    m = float(np.mean(delta))
    sd = float(np.std(delta, ddof=1)) if n > 1 else 0.0
    if sd == 0.0:
        return 0.0
    return m / (sd / np.sqrt(n))


def invariance_test(
    transform: str,
    spec: GaussianSpec,
    count: int,
    t: float = 1.0,
) -> dict:
    """Distributional invariance of the ensemble under a unimodular map.

    Compares per-mode moments, mixed pair moments and two characteristic
    functionals between the raw and transformed ensembles via paired
    z-scores; per-draw modulus preservation is asserted exactly (to
    rounding) since all transforms are unimodular multipliers.
    """
    ens = sample(spec, count)
    V = ens.coeffs
    TV = _apply_transform(V, transform, t, ens.n_grid, spec.seed)
    ns = np.arange(-ens.n_grid, ens.n_grid + 1)
    names, zs = [], []
    # per-mode moments
    for j, n in enumerate(ns):
        mode_scale = float(np.mean(np.abs(V[:, j]) ** 2)) + 1e-30
        zs.append(_paired_z(np.abs(TV[:, j]) ** 2 - np.abs(V[:, j]) ** 2, mode_scale))
        names.append(f"abs2_n{n}")
        zs.append(_paired_z(TV[:, j].real - V[:, j].real, np.sqrt(mode_scale)))
        names.append(f"re_n{n}")
    # mixed pair moments
    rng = Generator(Philox(SeedSequence((spec.seed, 0xBEEF))))
    dim = ns.shape[0]
    for _ in range(10):
        a, b = rng.integers(0, dim, size=2)
        prod_t = TV[:, a] * np.conj(TV[:, b])
        prod_r = V[:, a] * np.conj(V[:, b])
        pair_scale = float(np.mean(np.abs(prod_r))) + 1e-30
        zs.append(_paired_z(prod_t.real - prod_r.real, pair_scale))
        names.append(f"repair_n{ns[a]}_n{ns[b]}")
        zs.append(_paired_z(prod_t.imag - prod_r.imag, pair_scale))
        names.append(f"impair_n{ns[a]}_n{ns[b]}")
    # characteristic functionals with fixed probes
    for k in range(2):
        h = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * bracket(ns, -spec.s)
        ip_t = np.real(np.sum(TV * np.conj(h), axis=-1))
        ip_r = np.real(np.sum(V * np.conj(h), axis=-1))
        zs.append(_paired_z(np.cos(ip_t) - np.cos(ip_r), 1.0))
        names.append(f"charfun_{k}")
    zs = np.asarray(zs)
    mod_dev = float(np.max(np.abs(np.abs(TV) - np.abs(V)))) if count else 0.0
    scale = float(np.max(np.abs(V))) if count else 1.0
    return {
        "transform": transform,
        "t": t,
        "count": count,
        "moment_names": names,
        "z_scores": zs.tolist(),
        "max_abs_z": float(np.max(np.abs(zs))) if len(zs) else 0.0,
        "modulus_deviation": mod_dev,
        "modulus_exact": bool(mod_dev <= 64.0 * np.finfo(float).eps * max(scale, 1.0)),
        "all_within_4": bool(np.all(np.abs(zs) <= 4.0)),
    }


# -- Liouville ---------------------------------------------------------------

# Largest |log det| of the truncated flow's Jacobian that counts as volume-preserving.
LOG_DET_TOL = 1e-6
# Largest |divergence| of the truncated field that counts as divergence-free
# (about 1e-16 at N = 4 and 8; a damping of 1e-3 per mode reads 2e-2).
DIVERGENCE_TOL = 1e-12


def liouville_determinants(
    trunc_n: int,
    t: float,
    points: list[SpectralField],
    dt: float = 1e-4,
    integrator: str = "gauss",
) -> list[float]:
    """|log det| of the finite truncated defocusing flow's Jacobian at several states.

    All base points run in one variational call, each its own unit, so with
    one BLAS thread a point's value does not depend on the others.  With
    the symplectic Gauss scheme the discrete map itself preserves volume
    and the values sit at the fixed-point tolerance; the cheaper classical
    scheme leaves an O(dt^4) determinant drift, still far below the
    acceptance tolerance at verification steps.
    """
    spec = FlowSpec(variant="truncated_finite", trunc_n=trunc_n, dt=dt, integrator=integrator)
    eye = np.eye(2 * trunc_n + 1)
    basis = np.concatenate([eye, 1j * eye])
    for p in points:
        spec.check_states(p.coeffs, p.n_grid)
    V0 = np.stack(
        [p.coeffs[p.n_grid - trunc_n : p.n_grid + trunc_n + 1] for p in points], axis=0
    )[:, None, :]
    W0 = np.broadcast_to(basis, (len(points),) + basis.shape)
    _, _, W = linearized_final(spec, V0, W0, 0.0, t, trunc_n, store=False)
    # per point, the real Jacobian: column j holds direction j's (re, im) image
    jac = np.concatenate([W.real, W.imag], axis=-1).swapaxes(-1, -2)
    return np.abs(np.linalg.slogdet(jac)[1]).tolist()


def liouville_divergence(trunc_n: int, u0: SpectralField) -> dict:
    """Divergence-freeness of the finite truncated defocusing field at u0.

    The nonresonant table has no diagonal couplings, and the divergence of
    the field, with first variation A W + B conj(W) (``tangent_matrices`` at
    t = 0), is the real trace 2 Re tr A.
    """
    spec = FlowSpec(variant="truncated_finite", trunc_n=trunc_n)
    spec.check_states(u0.coeffs, u0.n_grid)
    table = grid_triples(trunc_n)
    no_diagonal = bool(np.all(table.n1 != table.out) and np.all(table.n3 != table.out))
    V0 = u0.coeffs[u0.n_grid - trunc_n : u0.n_grid + trunc_n + 1]
    A, _ = dynamics.tangent_matrices(spec, V0, 0.0, trunc_n)
    divergence = float(2.0 * np.trace(A).real)
    return {
        "no_diagonal_triples": no_diagonal,
        "divergence": divergence,
        "divergence_zero": abs(divergence) <= DIVERGENCE_TOL,
    }


def liouville_check(trunc_n: int, t: float, u0: SpectralField, dt: float = 1e-4) -> dict:
    """Volume preservation of the finite truncated defocusing flow.

    ``liouville_divergence`` at u0, and |log det| of the Jacobian of the
    time-t map there, from ``liouville_determinants``.
    """
    return {
        "trunc_n": trunc_n,
        "t": t,
        "dt": dt,
        **liouville_divergence(trunc_n, u0),
        "abs_log_det": liouville_determinants(trunc_n, t, [u0], dt)[0],
    }


# -- events -------------------------------------------------------------------


@dataclass(frozen=True)
class EventSpec:
    """Measurable predicate on finitely many coefficient components.

    kind 'box': every (mode, comp) coordinate within [lo, hi];
    kind 'ball': euclidean ball around ``center`` in the coordinates;
    kind 'halfspace': sum of weighted coordinates >= threshold;
    kinds 'all'/'empty' need no coordinates.
    """

    kind: str
    coords: tuple = ()  # ((mode, 're'|'im'), ...)
    lo: tuple = ()
    hi: tuple = ()
    center: tuple = ()
    radius: float = 0.0
    weights: tuple = ()
    threshold: float = 0.0

    def evaluate(self, V: np.ndarray, n_grid: int) -> np.ndarray:
        if self.kind == "all":
            return np.ones(V.shape[:-1], dtype=bool)
        if self.kind == "empty":
            return np.zeros(V.shape[:-1], dtype=bool)
        comps = []
        for mode, part in self.coords:
            if abs(int(mode)) > n_grid:
                raise ValueError(f"event mode {mode} outside grid |n| <= {n_grid}")
            col = V[..., int(mode) + n_grid]
            comps.append(col.real if part == "re" else col.imag)
        X = np.stack(comps, axis=-1)
        if self.kind == "box":
            lo = np.asarray(self.lo)
            hi = np.asarray(self.hi)
            return np.all((X >= lo) & (X <= hi), axis=-1)
        if self.kind == "ball":
            c = np.asarray(self.center)
            return np.sum((X - c) ** 2, axis=-1) <= self.radius**2
        if self.kind == "halfspace":
            w = np.asarray(self.weights)
            return np.sum(X * w, axis=-1) >= self.threshold
        raise ValueError(f"unknown event kind {self.kind!r}")


def _ratio_estimate(num_samples: np.ndarray, den_samples: np.ndarray):
    """Self-normalized ratio estimator with delta-method standard error."""
    n = num_samples.shape[0]
    num = float(np.mean(num_samples))
    den = float(np.mean(den_samples))
    if den == 0.0:
        raise ZeroDivisionError("zero effective sample size in ratio estimator")
    ratio = num / den
    resid = num_samples - ratio * den_samples
    var = float(np.var(resid, ddof=1)) / n if n > 1 else 0.0
    se = np.sqrt(var) / abs(den)
    return ratio, float(se)


# -- change of variable --------------------------------------------------------


def _pulled_back_draws(flow: FlowSpec, r: float, t: float, s: float, count: int, seed: int):
    """(V, F, back): draws on |n| <= flow.trunc_n, their weights, and the draws flowed from t to 0."""
    trunc_n = flow.trunc_n
    V = sample(GaussianSpec(s=s, sample_cutoff=trunc_n, seed=seed), count).coeffs
    F = _weights_batch(V, trunc_n, r, t, s, trunc_n)
    _, back = evolve_array(flow, V, t, 0.0, trunc_n, store=False)
    return V, F, back


def change_of_variable_suite(
    trunc_n: int,
    r: float,
    t: float,
    s: float,
    count: int,
    events: dict,
    seed: int = 0,
    dt: float = 1e-3,
) -> dict:
    """Two independent estimators of the transported weighted measure.

    Estimator A evaluates the flowed event by pulling samples back through
    the inverse truncated flow and weighting with the reference weight;
    estimator B integrates over the event directly, reweighting by the
    energy difference accumulated along the forward flow.  Both are
    self-normalized against the same weight normalization; agreement is
    reported as a per-event z-score.  The two estimators use disjoint
    ensembles, sampled on |n| <= trunc_n; all events share the same pair
    of flow evaluations.  ``bnls cov-test`` runs it with a single event.
    """
    if count <= 1:
        raise ValueError("count must be > 1")
    flow = FlowSpec(variant="truncated_embedded", trunc_n=trunc_n, dt=dt)
    # shared runs: backward flow for estimator A, forward for estimator B
    _, Fa, back = _pulled_back_draws(flow, r, t, s, count, seed)

    ens_b = sample(GaussianSpec(s=s, sample_cutoff=trunc_n, seed=seed + 1), count)
    Vb = ens_b.coeffs
    Fb = _weights_batch(Vb, trunc_n, r, t, s, trunc_n)
    _, fwd = evolve_array(flow, Vb, 0.0, t, trunc_n, store=False)
    inside = (sobolev_norm_array(Vb, 0.0) <= r).astype(np.float64)
    sob_0 = sobolev_norm_array(Vb, s) ** 2
    sob_t = sobolev_norm_array(fwd, s) ** 2
    corr_t = correction_array(fwd, t, s, trunc_n)
    reweight = inside * np.exp(0.5 * (sob_0 - sob_t - corr_t))

    results = {}
    for name, event in events.items():
        ind_a = event.evaluate(back, trunc_n).astype(np.float64)
        ratio_a, se_a = _ratio_estimate(ind_a * Fa, Fa)
        ind_b = event.evaluate(Vb, trunc_n).astype(np.float64)
        ratio_b, se_b = _ratio_estimate(ind_b * reweight, Fb)
        se = float(np.hypot(se_a, se_b))
        z = (ratio_a - ratio_b) / se if se > 0 else 0.0
        results[name] = {
            "event_kind": event.kind,
            "estimate_pullback": ratio_a,
            "se_pullback": se_a,
            "estimate_reweight": ratio_b,
            "se_reweight": se_b,
            "z": float(z),
            "agree_within_4": bool(abs(z) <= 4.0),
        }
    return {
        "trunc_n": trunc_n,
        "r": r,
        "t": t,
        "s": s,
        "count": count,
        "events": results,
    }


# -- weight convergence ---------------------------------------------------------


def lp_weight_convergence(
    spec: GaussianSpec,
    r: float,
    t: float,
    p_list: list[float],
    n_list: list[int],
    count: int,
) -> dict:
    """Monte Carlo L^p distance between truncated and full weights per cutoff.

    ``decreasing``: each cutoff lowers every distance by more than 2 standard errors of the difference.
    """
    ens = sample(spec, count)
    V = ens.coeffs
    cutoff = ens.n_grid
    full = _weights_batch(V, cutoff, r, t, spec.s, cutoff)
    table = {}
    for p in p_list:
        rows = []
        for trunc in n_list:
            truncated = _weights_batch(V, min(trunc, cutoff), r, t, spec.s, cutoff)
            diff = np.abs(truncated - full) ** p
            m = float(np.mean(diff))
            se_m = float(np.std(diff, ddof=1) / np.sqrt(count)) if count > 1 else 0.0
            est = m ** (1.0 / p) if m > 0 else 0.0
            se = (m ** (1.0 / p - 1.0) / p) * se_m if m > 0 else 0.0
            rows.append({"N": trunc, "estimate": est, "std_error": se})
        table[str(p)] = rows
    decreasing = all(
        b["estimate"] < a["estimate"] - 2.0 * np.hypot(a["std_error"], b["std_error"])
        for rows in table.values()
        for a, b in zip(rows, rows[1:])
    )
    return {
        "s": spec.s,
        "r": r,
        "t": t,
        "count": count,
        "p_list": list(p_list),
        "n_list": list(n_list),
        "distances": table,
        "decreasing": decreasing,
    }


# -- measure growth --------------------------------------------------------------


def measure_growth_experiment(
    trunc_n: int,
    r: float,
    t: float,
    s: float,
    radii: list[float],
    count: int,
    seed: int = 0,
    dt: float = 1e-3,
) -> dict:
    """Transported vs. reference weighted measure of shrinking events.

    Events are balls in the (Re v_0, Im v_0) coordinates.  Fits the
    exponent alpha in  measure(flowed event) ~ measure(event)^alpha and
    reports it with a least-squares confidence band; alpha stays near 1
    for t = 0 and should remain bounded below away from 0.
    """
    flow = FlowSpec(variant="truncated_embedded", trunc_n=trunc_n, dt=dt)
    V, F, back = _pulled_back_draws(flow, r, t, s, count, seed)
    rows = []
    xs, ys = [], []
    for rad in radii:
        ev = EventSpec(kind="ball", coords=((0, "re"), (0, "im")), center=(0.0, 0.0), radius=rad)
        rho_a, se_a = _ratio_estimate(ev.evaluate(V, trunc_n).astype(float) * F, F)
        rho_fl, se_fl = _ratio_estimate(ev.evaluate(back, trunc_n).astype(float) * F, F)
        rows.append(
            {
                "radius": rad,
                "measure": rho_a,
                "measure_se": se_a,
                "flowed_measure": rho_fl,
                "flowed_se": se_fl,
            }
        )
        if rho_a > 0 and rho_fl > 0:
            xs.append(np.log(rho_a))
            ys.append(np.log(rho_fl))
    # a line through two points has a slope but no residual to scale its error by
    slope = slope_se = float("nan")
    if len(xs) == 2:
        slope = float(np.polyfit(xs, ys, 1)[0])
    elif len(xs) > 2:
        coeffs, cov = np.polyfit(xs, ys, 1, cov=True)
        slope, slope_se = float(coeffs[0]), float(np.sqrt(cov[0, 0]))
    return {
        "trunc_n": trunc_n,
        "r": r,
        "t": t,
        "s": s,
        "count": count,
        "rows": rows,
        "exponent": slope,
        "exponent_se": slope_se,
    }


# -- sampler tail sanity -----------------------------------------------------------


def tail_sanity(m_modes: int, k_list: list[float], count: int, seed: int = 0) -> dict:
    """Empirical Gaussian-vector tail against the sub-Gaussian envelope.

    Estimates P[ (sum_{n<=M} |g_n|^2)^{1/2} >= K ] over the K list and fits
    the envelope rate c in exp(-c K^2) on the strictly positive tail
    points.
    """
    rng = Generator(Philox(SeedSequence((seed, 0x7A11))))
    z = rng.standard_normal((count, m_modes)) + 1j * rng.standard_normal((count, m_modes))
    norms = np.sqrt(np.sum(np.abs(z) ** 2, axis=1))
    rows = []
    xs, ys = [], []
    for K in k_list:
        p = float(np.mean(norms >= K))
        rows.append({"K": K, "tail": p})
        if 0.0 < p < 1.0 and K > np.sqrt(2.0 * m_modes):
            xs.append(K * K)
            ys.append(-np.log(p))
    fit_c = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else float("nan")
    tails = [row["tail"] for row in rows]
    monotone = all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
    return {
        "m_modes": m_modes,
        "count": count,
        "rows": rows,
        "fitted_rate": fit_c,
        "monotone": monotone,
    }
