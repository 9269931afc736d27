import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnls.resonance import (
    count_triples_with_factor,
    divisor_count,
    divisors,
    folded_triples,
    grid_triples,
    nonresonant_triples,
    phase,
    phase_factored,
)


def test_phase_values():
    assert phase(1, 0, 1, 2) == -14
    assert phase(3, 2, 1, 2) == 50
    for n in (-7, 0, 13):
        for m in (-2, 5):
            assert phase(n, m, m, n) == 0


def test_phase_factored_values():
    assert phase_factored(1, 0, 1, 2) == -14
    assert phase_factored(3, 2, 1, 2) == 50
    # n1 = n forces the second factor to vanish
    assert phase_factored(4, -1, -1, 4) == 0


def test_phase_factored_requires_constraint():
    with pytest.raises(ValueError):
        phase_factored(1, 1, 1, 2)


def test_phase_range_guard():
    with pytest.raises(OverflowError):
        phase(10**5 + 1, 0, 0, 0)


def test_factorization_exhaustive_small():
    limit = 14
    rng = np.arange(-limit, limit + 1)
    for n1 in rng:
        for n2 in rng:
            for n3 in rng:
                n = n1 - n2 + n3
                assert phase(n1, n2, n3, n) == phase_factored(n1, n2, n3, n)


def test_phase_symmetries_vectorized():
    limit = 25
    rng = np.arange(-limit, limit + 1, dtype=np.int64)
    n1, n2, n3 = [a.ravel() for a in np.meshgrid(rng, rng, rng, indexing="ij")]
    n = n1 - n2 + n3
    phi = n1**4 - n2**4 + n3**4 - n**4
    # swap of the outer arguments
    phi_swapped = n3**4 - n2**4 + n1**4 - n**4
    assert np.array_equal(phi, phi_swapped)
    # quad reversal negates the phase
    phi_rev = n2**4 - n1**4 + n**4 - n3**4
    assert np.array_equal(phi, -phi_rev)


def test_denominator_lower_bound():
    # |phi| >= |n1-n2| |n1-n| max(n_j^2, n^2) on the constraint set
    limit = 20
    rng = np.arange(-limit, limit + 1, dtype=np.int64)
    n1, n2, n3 = [a.ravel() for a in np.meshgrid(rng, rng, rng, indexing="ij")]
    n = n1 - n2 + n3
    phi = n1**4 - n2**4 + n3**4 - n**4
    bound = (
        np.abs(n1 - n2)
        * np.abs(n1 - n)
        * np.max(np.stack([n1**2, n2**2, n3**2, n**2]), axis=0)
    )
    assert np.all(np.abs(phi) >= bound)


def test_phase_nonzero_iff_offdiagonal():
    triples = nonresonant_triples(3, 12)
    nonzero = triples.phi != 0
    assert np.array_equal(nonzero, triples.n1 != triples.n2)


def test_triples_example_exact_set():
    triples = nonresonant_triples(0, 1)
    assert len(triples) == 2
    assert set(zip(triples.n1.tolist(), triples.n2.tolist(), triples.n3.tolist())) == {(1, 0, -1), (-1, 0, 1)}
    assert triples.center == 0
    assert len(nonresonant_triples(0, 0)) == 0


@pytest.mark.parametrize("center,limit", [(0, 5), (3, 7), (-6, 9)])
def test_triples_against_cube_enumeration(center, limit):
    brute = set()
    for n1 in range(-limit, limit + 1):
        for n2 in range(-limit, limit + 1):
            for n3 in range(-limit, limit + 1):
                if n1 - n2 + n3 == center and n1 != center and n3 != center:
                    brute.add((n1, n2, n3))
    triples = nonresonant_triples(center, limit)
    assert {(int(a), int(b), int(c)) for a, b, c in zip(triples.n1, triples.n2, triples.n3)} == brute


def test_divisor_count_examples():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(1024) == 11
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisor_count(0)


def test_divisor_envelope():
    # implementation sanity envelope, exhaustive below 1e5 plus spot checks
    ms = np.arange(1, 100_001)
    counts = np.zeros(ms.shape[0], dtype=np.int64)
    for d in range(1, ms.shape[0] + 1):
        counts[d - 1 :: d] += 1
    assert np.all(counts <= 24.0 * np.sqrt(ms))
    for m in (720720, 997920, 999999):
        assert divisor_count(m) <= 24.0 * np.sqrt(m)


def test_factor_count_against_enumeration():
    for center in (-4, 0, 7, 20):
        triples = nonresonant_triples(center, 20)
        mus, counts = np.unique(triples.mu, return_counts=True)
        for mu, expected in zip(mus, counts):
            got = count_triples_with_factor(center, int(mu), 20)
            assert got == expected
            assert got <= 2 * divisor_count(abs(int(mu)))
        # partition identity
        assert int(np.sum(counts)) == len(triples)
        # an unreachable product
        assert count_triples_with_factor(center, 0, 20) == 0


def test_grid_table_consistency():
    table = grid_triples(6)
    assert np.all(table.n1 - table.n2 + table.n3 == table.out)
    assert np.all(table.phi != 0)
    assert np.all(np.abs(np.stack([table.n1, table.n2, table.n3, table.out])) <= 6)
    # scatter round trip: summing ones counts the per-center set sizes
    ones = np.ones(len(table), dtype=np.complex128)
    sizes = table.scatter(ones, 13).real
    for center in range(-6, 7):
        assert sizes[center + 6] == len(nonresonant_triples(center, 6))


@given(st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_grid_table_mirror_rows_and_folded_table(limit, seed):
    full = grid_triples(limit)
    rows = {key: k for k, key in enumerate(zip(full.n1, full.n2, full.n3, full.out))}
    n_diag = 0
    for (n1, n2, n3, n), k in rows.items():
        if n1 == n3:
            n_diag += 1
            continue
        mirror = rows[(n3, n2, n1, n)]
        assert full.phi[mirror] == full.phi[k]
        assert full.out[mirror] == full.out[k]
        assert full.i2[mirror] == full.i2[k]
    folded = folded_triples(limit)
    keep = full.n1 <= full.n3
    assert len(folded) == (len(full) + n_diag) // 2 == int(np.sum(keep))
    for name in ("n1", "n2", "n3", "out", "phi", "i1", "i2", "i3", "iout"):
        assert np.array_equal(getattr(folded, name), getattr(full, name)[keep])
    # reduceat segments: rows sorted by output mode, one segment per mode
    assert np.all(np.diff(folded.iout) >= 0)
    assert np.array_equal(folded.seg_iout, np.unique(folded.iout))
    assert np.array_equal(folded.iout[folded.seg_starts], folded.seg_iout)
    # the weighted folded sum of a mirror-symmetric summand is the full sum
    rng = np.random.default_rng(seed)
    dim = 2 * limit + 1
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    def summand(table):
        return np.exp(-0.3j * table.phi) * v[table.i1] * np.conj(v[table.i2]) * v[table.i3]

    mult = np.where(folded.n1 == folded.n3, 1.0, 2.0)
    ref = full.scatter(summand(full), dim)
    got = folded.scatter(mult * summand(folded), dim)
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(ref), initial=0.0))
