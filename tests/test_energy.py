import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bnls import energy
from bnls.dynamics import FlowSpec, evolve, from_interaction, gamma_sum
from bnls.energy import correction, correction_array, derivative_terms, energy_bound_scan, modified_energy
from bnls.fields import SpectralField, sobolev_norm
from bnls.measures import GaussianSpec, sample
from bnls.resonance import grid_triples


def gaussian_field(s, cutoff, seed):
    return sample(GaussianSpec(s=s, sample_cutoff=cutoff, seed=seed), 1).fields[0]


def brute_correction(v: SpectralField, t: float, s: float) -> float:
    table = grid_triples(v.n_grid)
    total = 0.0 + 0.0j
    for n1, n2, n3, n, phi in zip(table.n1, table.n2, table.n3, table.out, table.phi):
        w = np.exp(-1j * phi * t) / phi * (1.0 + float(n) ** 2) ** s
        total += (
            w
            * v.get(int(n1))
            * np.conj(v.get(int(n2)))
            * v.get(int(n3))
            * np.conj(v.get(int(n)))
        )
    return float(-2.0 * total.real)


def _table_weights(table, t, s):
    return np.exp(-1j * table.phi * t) / table.phi * (1.0 + table.out.astype(np.float64) ** 2) ** s


def table_correction(V, t, s, limit):
    """``brute_correction`` over the table for arrays (..., 2*limit+1); also the sum of |terms|."""
    table = grid_triples(limit)
    terms = (
        _table_weights(table, t, s)
        * V[..., table.i1]
        * np.conj(V[..., table.i2])
        * V[..., table.i3]
        * np.conj(V[..., table.iout])
    )
    return -2.0 * terms.sum(axis=-1).real, 2.0 * np.abs(terms).sum(axis=-1)


def table_derivative(V, t, s, limit):
    """The six derivative terms of ``derivative_terms`` summed over the table, batched, each with its sum of |terms|."""
    table = grid_triples(limit)
    w = _table_weights(table, t, s)
    g1 = gamma_sum(V, t, limit)
    v1, v2c, v3, vnc = V[..., table.i1], np.conj(V[..., table.i2]), V[..., table.i3], np.conj(V[..., table.iout])
    terms = [
        4.0 * w * g1[..., table.i1] * v2c * v3 * vnc,
        -4.0 * w * np.abs(v1) ** 2 * v1 * v2c * v3 * vnc,
        -2.0 * w * v1 * np.conj(g1[..., table.i2]) * v3 * vnc,
        2.0 * w * v1 * np.abs(v2c) ** 2 * v2c * v3 * vnc,
        -2.0 * w * v1 * v2c * v3 * np.conj(g1[..., table.iout]),
        2.0 * w * v1 * v2c * v3 * np.abs(vnc) ** 2 * vnc,
    ]
    sums = np.stack([np.real(1j * term.sum(axis=-1)) for term in terms])
    return sums, np.stack([np.abs(term).sum(axis=-1) for term in terms])


_LEADS = [(), (3,), (2, 3), (energy._block_rows(8) + 5,)]  # the last crosses a row block at limit 8


@given(
    limit=st.integers(min_value=0, max_value=8),
    t=st.floats(min_value=-1.0, max_value=1.0),
    s=st.floats(min_value=0.5, max_value=2.0),
    lead=st.sampled_from(_LEADS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(limit=8, t=0.37, s=1.5, lead=_LEADS[-1], seed=1)
def test_pair_sums_equal_table_sums(limit, t, s, lead, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (2 * limit + 1,)
    V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = correction_array(V, t, s, limit)
    ref, scale = table_correction(V, t, s, limit)
    assert got.shape == lead
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
    terms = energy._sextic_terms(V, t, s, limit)
    ref, scale = table_derivative(V, t, s, limit)
    assert terms.shape == (6,) + lead
    assert np.all(np.abs(terms.sum(axis=0) - ref.sum(axis=0)) <= 1e-12 * scale.sum(axis=0))
    assert np.all(np.abs(terms - ref) <= 1e-12 * scale)  # each term, not only their sum


def test_per_term_check_sees_the_bracket_on_the_wrong_row_side(monkeypatch):
    # <j>^{2s} and <m-j>^{2s} swapped in the row-side pair products moves the
    # H^s weight from the output mode n to n2: Q(a, b, c, d) becomes
    # Q(a, d, c, b).  Terms n2 and n3, and r2 and r3, trade places, and their
    # sum, which is all the criteria read, stays put.  The per-term table
    # check sees it.
    exact = energy._row_pairs
    monkeypatch.setattr(energy, "_row_pairs", lambda u, swapped, w_i, w_j, out: exact(u, swapped, w_j, w_i, out))
    rng = np.random.default_rng(4)
    V = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
    terms = energy._sextic_terms(V, 0.2, 1.0, 4)
    ref, scale = table_derivative(V, 0.2, 1.0, 4)
    assert np.all(np.abs(terms.sum(axis=0) - ref.sum(axis=0)) <= 1e-12 * scale.sum(axis=0))
    traded = [0, 1, 4, 5, 2, 3]
    assert np.all(np.abs(terms - ref[traded]) <= 1e-12 * scale[traded])
    assert not np.all(np.abs(terms - ref) <= 1e-12 * scale)


def test_correction_array_rejects_a_mismatched_width():
    with pytest.raises(ValueError):
        correction_array(np.ones((2, 11), dtype=np.complex128), 0.1, 1.0, 4)
    with pytest.raises(ValueError):
        energy._sextic_terms(np.ones(9, dtype=np.complex128), 0.1, 1.0, 3)
    for limit in (0, 4):
        assert correction_array(np.zeros((0, 2 * limit + 1)), 0.1, 1.0, limit).shape == (0,)


def test_correction_degenerate_cases():
    assert correction(SpectralField.zero(4), 0.3, 1.0) == 0.0
    single = SpectralField.from_modes({2: 1.5 - 0.5j}, 4)
    assert correction(single, 0.3, 1.0) == 0.0


def test_correction_two_mode_enumeration():
    v = SpectralField.from_modes({0: 1.0, 1: 1.0}, 2)
    assert correction(v, 0.0, 1.0) == pytest.approx(brute_correction(v, 0.0, 1.0), rel=1e-12)


def test_correction_random_field_enumeration():
    v = gaussian_field(1.0, 3, seed=1)
    for t in (0.0, 0.41):
        assert correction(v, t, 0.8) == pytest.approx(brute_correction(v, t, 0.8), rel=1e-11)


def test_correction_autonomous_in_derotated_variables():
    # evaluating the correction at time t equals the t=0 expression on the
    # free-flowed state
    v = gaussian_field(1.0, 6, seed=2)
    t, s = 0.37, 1.2
    lhs = correction(v, t, s)
    rhs = correction(from_interaction(v, t), 0.0, s)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_correction_smallness_high_regularity():
    # |corr| <= C0 |v|_{l2}^2 |v|_{H^{s-1}}^2 with a truncation-stable constant
    s = 1.5
    worst = {}
    for n_grid in (16, 32):
        ratios = []
        for seed in range(8):
            v = gaussian_field(s, n_grid, seed=100 + seed)
            num = abs(correction(v, 0.1, s))
            den = sobolev_norm(v, 0.0) ** 2 * sobolev_norm(v, s - 1.0) ** 2
            ratios.append(num / den)
        worst[n_grid] = max(ratios)
    assert worst[32] <= 2.0 * worst[16] and worst[16] <= 2.0 * worst[32]


def test_modified_energy_decomposition():
    v = gaussian_field(1.0, 8, seed=3)
    rep = modified_energy(v, 0.2, 1.0, 6)
    assert rep.total == rep.sobolev_sq + rep.correction
    single = SpectralField.from_modes({3: 0.7}, 8)
    rep_single = modified_energy(single, 0.2, 1.0, 4)
    assert rep_single.correction == 0.0
    assert rep_single.total == pytest.approx((1 + 9.0) ** 1.0 * 0.49)
    rep0 = modified_energy(v, 0.2, 1.0, 0)
    assert rep0.total == pytest.approx(abs(v.get(0)) ** 2)


def test_derivative_terms_single_mode_trivial():
    f0 = SpectralField.from_modes({1: 0.6}, 4)
    spec = FlowSpec(variant="truncated_embedded", trunc_n=4, dt=1e-4)
    traj = evolve(spec, f0, 0.0, 0.002)
    d = derivative_terms(traj, 5, 1.0, 4)
    for val in (d.n1, d.r1, d.n2, d.r2, d.n3, d.r3):
        assert abs(val) <= 1e-13
    assert abs(d.fd_derivative) <= 1e-9


def test_derivative_identity_against_refined_oracle():
    spec = FlowSpec(variant="truncated_embedded", trunc_n=8, dt=1e-4, integrator="filon")
    v0 = gaussian_field(0.8, 8, seed=5)
    traj = evolve(spec, v0, 0.0, 0.003)
    d = derivative_terms(traj, len(traj) // 2, 0.8, 8)
    assert abs(d.sum - d.fd_refined) <= 1e-5 * (1.0 + abs(d.fd_refined))
    assert d.sum == pytest.approx(d.n1 + d.r1 + d.n2 + d.r2 + d.n3 + d.r3)
    assert d.bound_rhs > 0


def test_sextic_terms_of_a_batch_equal_one_row_calls():
    # derivative_terms reads one row of the kernel that energy_bound_scan runs
    # on a batch: each row of a batch of stored states (and its sum) is the
    # one-row call on that state, and derivative_terms' terms are that call's
    spec = FlowSpec(variant="truncated_embedded", trunc_n=6, dt=1e-4, integrator="filon")
    v0 = gaussian_field(0.8, 6, seed=6)
    traj = evolve(spec, v0, 0.0, 0.002)
    idx, t = 10, float(traj.times[10])
    batch = traj.coeffs[idx - 3 : idx + 4]
    terms = energy._sextic_terms(batch, t, 0.8, 6)
    assert terms.shape == (6, 7)
    for k, row in enumerate(batch):
        assert np.array_equal(terms[:, k], energy._sextic_terms(row[None], t, 0.8, 6)[:, 0])
    d = derivative_terms(traj, idx, 0.8, 6)
    alone = energy._sextic_terms(traj.coeffs[idx][None], t, 0.8, 6)[:, 0]
    assert [d.n1, d.r1, d.n2, d.r2, d.n3, d.r3] == alone.tolist()
    assert d.sum == float(sum(alone))


# A row's correction and sextic terms against the same row in any subset or
# order of rows, alone, and as the lone last row of a batch one row longer
# than a row block, in a fresh interpreter whose OpenBLAS has one thread.
_ROW_CONTRACT_CHECK = """
import numpy as np
from hypothesis import given, settings, strategies as st
from bnls import energy

cases = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]), st.sampled_from([2, 5, 12, 0]), st.integers(0, 2**32 - 1)
).flatmap(
    lambda case: st.tuples(
        *(st.just(x) for x in case),
        st.lists(st.integers(0, (case[1] or energy._block_rows(case[0]) + 1) - 1), min_size=1, max_size=24),
    )
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cases)
def rows_alone(case):
    limit, batch, seed, picks = case
    batch = batch or energy._block_rows(limit) + 1  # 0: the last block holds one row
    rng = np.random.default_rng(seed)
    dim = 2 * limit + 1
    V = (rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))) * rng.uniform(0.1, 2.0, (batch, 1))
    t, s = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
    corr, terms = energy.correction_array(V, t, s, limit), energy._sextic_terms(V, t, s, limit)
    assert np.array_equal(energy.correction_array(V[picks], t, s, limit), corr[picks]), (limit, batch, picks)
    assert np.array_equal(energy._sextic_terms(V[picks], t, s, limit), terms[:, picks]), (limit, batch, picks)
    for k in (picks[0], batch - 1):
        assert np.array_equal(energy.correction_array(V[k], t, s, limit), corr[k]), (limit, batch, k)
        assert np.array_equal(energy._sextic_terms(V[k], t, s, limit), terms[:, k]), (limit, batch, k)
    ends = [0, batch - 1]  # the last row in a block of two, not duplicated
    assert np.array_equal(energy.correction_array(V[ends], t, s, limit), corr[ends]), (limit, batch)
    assert np.array_equal(energy._sextic_terms(V[ends], t, s, limit), terms[:, ends]), (limit, batch)


rows_alone()
"""


def test_a_rows_pair_sums_are_the_same_in_any_batch_with_one_blas_thread(run_with_one_blas_thread):
    run_with_one_blas_thread(_ROW_CONTRACT_CHECK)


def test_derivative_terms_guards():
    spec = FlowSpec(variant="interaction", dt=1e-4)
    traj = evolve(spec, gaussian_field(0.8, 4, seed=7), 0.0, 0.002)
    with pytest.raises(ValueError):
        derivative_terms(traj, 5, 0.8, 4)
    tspec = FlowSpec(variant="truncated_embedded", trunc_n=4, dt=1e-4)
    ttraj = evolve(tspec, gaussian_field(0.8, 4, seed=7), 0.0, 0.002)
    with pytest.raises(IndexError):
        derivative_terms(ttraj, 0, 0.8, 4)
    fspec = FlowSpec(variant="truncated_embedded", trunc_n=4, sign=-1, dt=1e-4)
    ftraj = evolve(fspec, gaussian_field(0.8, 4, seed=7), 0.0, 0.002)
    with pytest.raises(ValueError):
        derivative_terms(ftraj, 5, 0.8, 4)


def test_energy_bound_scan_smoke():
    rep = energy_bound_scan(6, 0.8, [4, 8], t_end=0.05, dt=1e-3, seed=6)
    assert rep["finite"] and rep["stable"]
    assert set(rep["ratio_max"]) == {"4", "8"}
    empty = energy_bound_scan(0, 0.8, [4, 8], seed=1)
    assert empty["empty"] and empty["finite"] and empty["stable"]
    assert empty["ratio_max"] == empty["ratio_p99"] == {} and empty["n_list"] == [4, 8]
    assert not rep["empty"]
