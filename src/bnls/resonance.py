"""Exact arithmetic for the resonance structure of the quartic dispersion.

Every cubic interaction on the Fourier side couples frequencies
(n1, n2, n3, n) with n = n1 - n2 + n3.  The oscillation rate of the
coupling is the integer phase

    phase(n1, n2, n3, n) = n1^4 - n2^4 + n3^4 - n^4,

which factors as (n1 - n2)(n1 - n)(n1^2 + n2^2 + n3^2 + n^2 + 2(n1+n3)^2).
The nonresonant index set at output frequency n excludes the degenerate
couplings n1 = n and n3 = n (those are the resonant/diagonal terms handled
separately by the flow equations).

All scalar arithmetic here is exact (Python integers); the vectorized
tables use int64 and are size-guarded so that fourth powers cannot
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TripleSet",
    "GridTripleTable",
    "phase",
    "phase_factored",
    "nonresonant_triples",
    "count_triples_with_factor",
    "divisor_count",
    "divisors",
    "grid_triples",
    "folded_triples",
]

# Fourth powers must stay inside the exactly-representable integer range of
# the vectorized int64 tables (sums of four fourth powers).
MAX_FREQUENCY = 10**5
_MAX_TABLE_FREQUENCY = 30_000


def _check_range(*ns: int) -> None:
    for n in ns:
        if abs(n) > MAX_FREQUENCY:
            raise OverflowError(
                f"frequency {n} exceeds the supported range |n| <= {MAX_FREQUENCY}; "
                "grid too large for exact phase arithmetic"
            )


def phase(n1: int, n2: int, n3: int, n: int) -> int:
    """n1^4 - n2^4 + n3^4 - n^4, exactly."""
    n1, n2, n3, n = int(n1), int(n2), int(n3), int(n)
    _check_range(n1, n2, n3, n)
    return n1**4 - n2**4 + n3**4 - n**4


def phase_factored(n1: int, n2: int, n3: int, n: int) -> int:
    """Factored form of ``phase``; requires n = n1 - n2 + n3."""
    n1, n2, n3, n = int(n1), int(n2), int(n3), int(n)
    if n != n1 - n2 + n3:
        raise ValueError(f"frequency constraint violated: {n} != {n1} - {n2} + {n3}")
    _check_range(n1, n2, n3, n)
    return (n1 - n2) * (n1 - n) * (n1**2 + n2**2 + n3**2 + n**2 + 2 * (n1 + n3) ** 2)


@dataclass(frozen=True)
class TripleSet:
    """Nonresonant triples (n1, n2, n3) feeding output frequency ``center``.

    Membership: n1 - n2 + n3 = center, n1 != center, n3 != center, and
    |n_j| <= limit.  ``phi`` holds the integer phase of each quad and
    ``mu`` the divisor product (center - n1)(center - n3).
    """

    center: int
    limit: int
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    phi: np.ndarray
    mu: np.ndarray

    def __len__(self) -> int:
        return int(self.n1.shape[0])


def _enumerate_triples(center: int, limit: int):
    """(n1, n2, n3) arrays for the nonresonant set at one output frequency."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if abs(center) > _MAX_TABLE_FREQUENCY or limit > _MAX_TABLE_FREQUENCY:
        raise OverflowError("table enumeration limited to |n| <= 30000")
    rng = np.arange(-limit, limit + 1, dtype=np.int64)
    n1, n3 = np.meshgrid(rng, rng, indexing="ij")
    n1 = n1.ravel()
    n3 = n3.ravel()
    n2 = n1 + n3 - center
    keep = (n1 != center) & (n3 != center) & (np.abs(n2) <= limit)
    return n1[keep], n2[keep], n3[keep]


def nonresonant_triples(center: int, limit: int) -> TripleSet:
    n1, n2, n3 = _enumerate_triples(center, limit)
    phi = n1**4 - n2**4 + n3**4 - int(center) ** 4
    mu = (center - n1) * (center - n3)
    return TripleSet(center=int(center), limit=int(limit), n1=n1, n2=n2, n3=n3, phi=phi, mu=mu)


def divisors(m: int) -> list[int]:
    """All positive divisors of m >= 1, by trial division up to sqrt(m)."""
    m = int(m)
    if m <= 0:
        raise ValueError(f"divisors defined for positive integers, got {m}")
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def divisor_count(m: int) -> int:
    """Number of positive divisors of m >= 1."""
    return len(divisors(m))


def count_triples_with_factor(center: int, mu: int, limit: int) -> int:
    """Count nonresonant triples at ``center`` with (n-n1)(n-n3) = mu.

    Writing a = n - n1 and b = n - n3, each factorization mu = a*b with
    a, b nonzero determines the triple completely, so the count is at most
    twice the divisor count of |mu|.  mu = 0 never occurs on the
    nonresonant set.
    """
    center, mu, limit = int(center), int(mu), int(limit)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if mu == 0:
        return 0
    count = 0
    for d in divisors(abs(mu)):
        for a in (d, -d):
            b, rem = divmod(mu, a)
            if rem != 0:
                continue
            n1 = center - a
            n3 = center - b
            n2 = n1 + n3 - center
            if max(abs(n1), abs(n2), abs(n3)) <= limit:
                count += 1
    return count


@dataclass(frozen=True)
class GridTripleTable:
    """All nonresonant quads with |n|, |n_j| <= limit, flattened.

    Index arrays (i1, i2, i3, iout) point into a dense coefficient array of
    length 2*limit+1 (offset by +limit); inv_phi carries 1/phase for the
    normal-form and modified-energy sums.
    """

    limit: int
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    out: np.ndarray
    phi: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    i3: np.ndarray
    iout: np.ndarray
    inv_phi: np.ndarray
    seg_starts: np.ndarray  # quads are sorted by iout; segment boundaries
    seg_iout: np.ndarray  # output index of each segment

    def __len__(self) -> int:
        return int(self.n1.shape[0])

    def scatter(self, values: np.ndarray, dim: int) -> np.ndarray:
        """Sum per-quad values into their output modes (last axis)."""
        out_shape = values.shape[:-1] + (dim,)
        out = np.zeros(out_shape, dtype=np.complex128)
        if len(self) == 0:
            return out
        sums = np.add.reduceat(values, self.seg_starts, axis=-1)
        out[..., self.seg_iout] = sums
        return out


def _table(limit: int, n1, n2, n3, out) -> GridTripleTable:
    """Table of the quads (n1, n2, n3, out); rows must be sorted by ``out``."""
    phi = n1**4 - n2**4 + n3**4 - out**4
    # n1 = n2 would force n3 = out, which the enumeration excludes, so the
    # phase never vanishes and 1/phi is safe as a smoothing denominator.
    if phi.size and not np.all(phi != 0):
        raise AssertionError("vanishing phase on the nonresonant set")
    inv_phi = 1.0 / phi.astype(np.float64) if phi.size else np.zeros(0)
    iout = (out + limit).astype(np.intp)
    if iout.size:
        boundaries = np.flatnonzero(np.diff(iout)) + 1
        seg_starts = np.concatenate([[0], boundaries])
        seg_iout = iout[seg_starts]
    else:
        seg_starts = np.zeros(0, dtype=np.intp)
        seg_iout = np.zeros(0, dtype=np.intp)
    table = GridTripleTable(
        limit=int(limit),
        n1=n1,
        n2=n2,
        n3=n3,
        out=out,
        phi=phi,
        i1=(n1 + limit).astype(np.intp),
        i2=(n2 + limit).astype(np.intp),
        i3=(n3 + limit).astype(np.intp),
        iout=iout,
        inv_phi=inv_phi,
        seg_starts=seg_starts,
        seg_iout=seg_iout,
    )
    for arr in (table.n1, table.n2, table.n3, table.out, table.phi, table.inv_phi):
        arr.flags.writeable = False
    return table


def _grid_rows(limit: int):
    """(n1, n2, n3, out) of every nonresonant quad on |n| <= limit, sorted by out."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    chunks = []
    for center in range(-limit, limit + 1):
        n1, n2, n3 = _enumerate_triples(center, limit)
        out = np.full(n1.shape, center, dtype=np.int64)
        chunks.append((n1, n2, n3, out))
    # per-center construction leaves the rows sorted by output mode
    return tuple(np.concatenate([c[k] for c in chunks]) for k in range(4))


@lru_cache(maxsize=32)
def grid_triples(limit: int) -> GridTripleTable:
    """Cached table of every nonresonant quad on the grid |n| <= limit."""
    return _table(limit, *_grid_rows(limit))


@lru_cache(maxsize=32)
def folded_triples(limit: int) -> GridTripleTable:
    """Cached rows of ``grid_triples(limit)`` with n1 <= n3.

    The phase and the summand a_{n1} conj(b_{n2}) a_{n3} are symmetric in
    n1 <-> n3, and the full table holds both orders of every pair with
    n1 != n3, so a sum of such summands over the full table is the sum over
    these rows weighted by 2 where n1 < n3 and by 1 where n1 = n3.  The
    rows keep their order, so they stay sorted by output mode.  The rows
    come from the row builder, not from ``grid_triples``, so whether this
    cache is warm never changes how often ``grid_triples`` is called.
    """
    n1, n2, n3, out = _grid_rows(limit)
    keep = n1 <= n3
    return _table(limit, n1[keep], n2[keep], n3[keep], out[keep])
