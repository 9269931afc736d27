import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnls import dynamics
from bnls._quadrature import collocation_osc_weights
from bnls.dynamics import (
    DENSE_GRID_LIMIT,
    INTERACTION_VARIANTS,
    PHYSICAL_VARIANTS,
    FlowDivergence,
    FlowSpec,
    Trajectory,
    conv3,
    evolve,
    evolve_array,
    from_interaction,
    gamma_sum,
    gamma_sum_linearized,
    gauge_forward,
    gauge_inverse,
    linearized_rhs_array,
    residual,
    rhs,
    separation_time,
    single_mode_solution,
    tangent_matrices,
    to_interaction,
)
from bnls.fields import SpectralField, mass, sobolev_norm
from bnls.normalform import linearized_final
from bnls.resonance import grid_triples


def random_field(n_grid, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    dim = 2 * n_grid + 1
    return SpectralField(scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)), n_grid)


# -- convolution and interaction sums -----------------------------------------


def _conv3_reference(a, b, c, n_grid):
    """sum_{n1-n2+n3=n} a_{n1} conj(b_{n2}) c_{n3} by explicit 1-D convolutions."""
    dim = 2 * n_grid + 1
    rows = zip(a.reshape(-1, dim), b.reshape(-1, dim), c.reshape(-1, dim))
    out = [np.convolve(np.convolve(ra, np.conj(rb)[::-1]), rc)[2 * n_grid : 4 * n_grid + 1] for ra, rb, rc in rows]
    return np.reshape(out, a.shape)


def test_conv3_matches_direct_convolution():
    rng = np.random.default_rng(1)
    # the dense DFT matrices up to DENSE_GRID_LIMIT, pocketfft above it
    for n_grid in (3, 8, 20, dynamics.DENSE_GRID_LIMIT + 1):
        for shape in ((2 * n_grid + 1,), (2, 2 * n_grid + 1)):
            a, b, c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "abc")
            for args in ((a, b, c), (a, a, a), (a, b, a), (a, a, c), (a, b, b)):
                ref = _conv3_reference(*args, n_grid)
                got = conv3(*args, n_grid)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _random_coeffs(rng, shape, n_grid):
    shape = shape + (2 * n_grid + 1,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _tail(n_grid, limit):
    """Mask of the modes of |n| <= n_grid above the interaction limit."""
    return np.abs(np.arange(-n_grid, n_grid + 1)) > limit


@pytest.mark.parametrize("n_grid,trunc", [(4, None), (8, None), (8, 3)])
def test_stacked_kernel_calls_equal_per_row_calls(n_grid, trunc):
    # every row of a stacked call is bitwise the call on that row alone: at
    # 10 000 rows, at the (5, 18) batch shape of criterion 06, and with base
    # states (P, 1, D) broadcast against directions (P, k, D); the same for
    # the field of an interaction variant, or of a truncated one with trunc.
    # gamma_sum and tangent_matrices run on the active block |n| <= trunc,
    # on its own grid.
    rng = np.random.default_rng(21)
    t = 0.37
    spec = FlowSpec(variant="interaction") if trunc is None else FlowSpec("truncated_embedded", trunc_n=trunc)
    limit = spec.interaction_limit(n_grid)
    active = slice(n_grid - limit, n_grid + limit + 1)
    V = _random_coeffs(rng, (10_000,), n_grid)
    W = _random_coeffs(rng, (10_000,), n_grid)
    g = gamma_sum(V[:, active], t, limit)
    gl = gamma_sum_linearized(V, W, t, n_grid, trunc)
    f = dynamics.rhs_array(spec, V, t, n_grid)
    for k in range(0, 10_000, 333):
        assert np.array_equal(g[k], gamma_sum(V[k, active], t, limit))
        assert np.array_equal(g[k], gamma_sum(V[k : k + 1, active], t, limit)[0])
        assert np.array_equal(gl[k], gamma_sum_linearized(V[k], W[k], t, n_grid, trunc))
        assert np.array_equal(f[k], dynamics.rhs_array(spec, V[k], t, n_grid))

    V = _random_coeffs(rng, (5, 18), n_grid)
    g = gamma_sum(V[..., active], t, limit)
    f = dynamics.rhs_array(spec, V, t, n_grid)
    tangent = tangent_matrices(spec, V[..., active], t, limit)
    for p, j in np.ndindex(5, 18):
        assert np.array_equal(g[p, j], gamma_sum(V[p, j, active], t, limit))
        assert np.array_equal(f[p, j], dynamics.rhs_array(spec, V[p, j], t, n_grid))
        for whole, alone in zip(tangent, tangent_matrices(spec, V[p, j, active], t, limit)):
            assert np.array_equal(whole[p, j], alone)

    P, k = 5, 2 * (2 * n_grid + 1)
    base = _random_coeffs(rng, (P, 1), n_grid)
    dirs = _random_coeffs(rng, (P, k), n_grid)
    gl = gamma_sum_linearized(base, dirs, t, n_grid, trunc)
    assert gl.shape == dirs.shape
    for p in range(P):
        assert np.array_equal(gl[p], gamma_sum_linearized(base[p], dirs[p], t, n_grid, trunc))
        for j in range(k):
            assert np.array_equal(gl[p, j], gamma_sum_linearized(base[p, 0], dirs[p, j], t, n_grid, trunc))


# Rows of stacked kernel calls at DENSE_GRID_LIMIT against per-row calls, in
# a fresh interpreter whose OpenBLAS is pinned to one thread before import.
_ONE_THREAD_ROWS_CHECK = """
import numpy as np
from bnls.dynamics import DENSE_GRID_LIMIT, FlowSpec, gamma_sum, gamma_sum_linearized, rhs_array

n_grid, t = DENSE_GRID_LIMIT, 0.37
specs = (FlowSpec("interaction"), FlowSpec("truncated_embedded", trunc_n=n_grid - 1))
rng = np.random.default_rng(22)
for rows in (2, 100, 10_000):
    V, W = (rng.standard_normal((rows, 2 * n_grid + 1)) + 1j * rng.standard_normal((rows, 2 * n_grid + 1)) for _ in "VW")
    g = gamma_sum(V, t, n_grid)
    gl = gamma_sum_linearized(V, W, t, n_grid)
    fields = [rhs_array(spec, V, t, n_grid) for spec in specs]
    for k in range(0, rows, max(1, rows // 100)):
        assert np.array_equal(g[k], gamma_sum(V[k], t, n_grid)), ("gamma_sum", rows, k)
        assert np.array_equal(gl[k], gamma_sum_linearized(V[k], W[k], t, n_grid)), ("linearized", rows, k)
        for spec, f in zip(specs, fields):
            assert np.array_equal(f[k], rhs_array(spec, V[k], t, n_grid)), (spec.variant, rows, k)
"""


# Final states of a batch of two full row blocks and a lone row against
# each block stepped alone, and against the batch stepped in blocks of 7
# rows; stored states and the monitor see every row.
_ROW_BLOCKS_CHECK = """
import numpy as np
from bnls import dynamics
from bnls.dynamics import ROW_BLOCK, FlowSpec, evolve_array

n_grid, dt, n_steps = 32, 1e-3, 3
rows = 2 * ROW_BLOCK + 1
rng = np.random.default_rng(23)
V0 = 0.5 * (rng.standard_normal((rows, 2 * n_grid + 1)) + 1j * rng.standard_normal((rows, 2 * n_grid + 1)))
for integrator in ("gauss", "rk4"):
    spec = FlowSpec(variant="truncated_embedded", trunc_n=4, dt=dt, integrator=integrator)
    seen = []
    _, states = evolve_array(
        spec, V0, 0.0, n_steps * dt, n_grid, store=True, monitor=lambda k, t, state: seen.append(state.copy())
    )
    assert states.shape == (n_steps + 1,) + V0.shape, states.shape
    assert len(seen) == n_steps + 1 and all(np.array_equal(a, b) for a, b in zip(seen, states))
    _, final = evolve_array(spec, V0, 0.0, n_steps * dt, n_grid, store=False)
    assert np.array_equal(final, states[-1]), integrator
    for lo in range(0, rows, ROW_BLOCK):
        _, alone = evolve_array(spec, V0[lo : lo + ROW_BLOCK], 0.0, n_steps * dt, n_grid, store=False)
        assert np.array_equal(final[lo : lo + ROW_BLOCK], alone), (integrator, lo)
    dynamics.ROW_BLOCK = 7
    _, small_blocks = evolve_array(spec, V0, 0.0, n_steps * dt, n_grid, store=False)
    dynamics.ROW_BLOCK = ROW_BLOCK
    assert np.array_equal(final, small_blocks), integrator
"""


# A row's result against the same row in any batch, subset or order of rows,
# and alone: ``evolve_array`` under every scheme, and ``linearized_final``
# under rk4 and gauss, whose row is a base state with its directions.  The
# rows' amplitudes differ by up to 20x, so they need different numbers of
# fixed-point or Picard sweeps and each sweep compacts the pending rows.
_ROW_SUBSETS_CHECK = """
import numpy as np
from hypothesis import given, settings, strategies as st
from bnls.dynamics import INTERACTION_VARIANTS, VARIANTS, FlowSpec, evolve_array, linearized_final


def cases_of(run):
    entry, integrator = run
    return st.tuples(
        st.just(entry),
        st.just(integrator),
        st.sampled_from(INTERACTION_VARIANTS if entry == "linearized_final" else VARIANTS),
        st.integers(1, 6),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
    )


# linearized_final supports rk4 and gauss only
RUNS = [
    ("evolve_array", "rk4"),
    ("evolve_array", "gauss"),
    ("evolve_array", "filon"),
    ("linearized_final", "rk4"),
    ("linearized_final", "gauss"),
]
cases = st.sampled_from(RUNS).flatmap(cases_of).flatmap(
    lambda case: st.tuples(
        *(st.just(x) for x in case), st.lists(st.integers(0, case[4] - 1), min_size=1, max_size=2 * case[4])
    )
)


def run(entry, spec, V0, D0, n_grid):
    if entry == "evolve_array":
        return evolve_array(spec, V0, 0.0, 6e-3, n_grid, store=False)[1:]
    return linearized_final(spec, V0, D0, 0.0, 6e-3, n_grid)[1:]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(cases)
def rows_alone(case):
    entry, integrator, variant, n_grid, batch, seed, picks = case
    rng = np.random.default_rng(seed)
    dim = 2 * n_grid + 1
    V0 = (rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))) * rng.uniform(0.1, 2.0, (batch, 1))
    D0 = rng.standard_normal((batch, 3, dim)) + 1j * rng.standard_normal((batch, 3, dim))
    spec = FlowSpec(variant=variant, trunc_n=n_grid - 1, dt=2e-3, integrator=integrator)
    if variant == "truncated_finite":
        V0[:, [0, -1]] = 0.0
    if entry == "linearized_final":
        V0 = V0[:, None, :]
    final = run(entry, spec, V0, D0, n_grid)
    subset = run(entry, spec, V0[picks], D0[picks], n_grid)
    alone = run(entry, spec, V0[picks[0]].reshape(dim), D0[picks[0]], n_grid)
    for whole, part, lone in zip(final, subset, alone):
        assert np.array_equal(part, whole[picks]), (case, "subset")
        assert np.array_equal(lone, whole[picks[0]].reshape(lone.shape)), (case, "alone")


rows_alone()
"""


# ``_row_mass`` against the sum of re^2 + im^2, and a row's mass alone, in a
# batch and in a strided subset of rows.
_ROW_MASS_CHECK = """
import numpy as np
from bnls.dynamics import _row_mass

rng = np.random.default_rng(5)
for width in (3, 9, 17, 33, 65):
    W = rng.standard_normal((777, width)) + 1j * rng.standard_normal((777, width))
    mass = _row_mass(W)
    ref = (W.real**2 + W.imag**2).sum(axis=-1)
    assert mass.shape == (777,)
    assert np.max(np.abs(mass - ref) / ref) <= 1e-15, width
    strided = _row_mass(W[::3])
    for k in range(0, 777, 37):
        assert np.array_equal(_row_mass(W[k]), mass[k]), (width, k)
        assert np.array_equal(_row_mass(W[k : k + 1])[0], mass[k]), (width, k)
        if k % 3 == 0:
            assert strided[k // 3] == mass[k], (width, k)
"""


# A batch stepped from an F-ordered array against the same values C-ordered:
# the field's mode sums on a strided batch round differently, so the copy
# ``evolve_array`` makes must be C-ordered for a row's result to depend on
# its values only.  A copy that kept the input's layout made the (3, 41) and
# (3, 81) batches differ by up to 2.5e-16.
_LAYOUT_CHECK = """
import numpy as np
from bnls.dynamics import FlowSpec, evolve_array

rng = np.random.default_rng(3)
for n_grid in (20, 40):
    V = 0.5 * (rng.standard_normal((3, 2 * n_grid + 1)) + 1j * rng.standard_normal((3, 2 * n_grid + 1)))
    F = np.asfortranarray(V)
    assert not F.flags.c_contiguous
    for integrator in ("rk4", "gauss", "filon")[: 3 if n_grid <= 32 else 2]:
        for variant in ("interaction", "physical"):
            spec = FlowSpec(variant=variant, dt=1e-3, integrator=integrator)
            _, c_order = evolve_array(spec, V, 0.0, 3e-3, n_grid)
            _, f_order = evolve_array(spec, F, 0.0, 3e-3, n_grid)
            assert np.array_equal(c_order, f_order), (n_grid, integrator, variant)
"""


def test_stacked_kernel_rows_at_dense_limit_with_one_blas_thread(run_with_one_blas_thread):
    run_with_one_blas_thread(_ONE_THREAD_ROWS_CHECK)


def test_row_blocked_batch_matches_each_block_alone_with_one_blas_thread(run_with_one_blas_thread):
    run_with_one_blas_thread(_ROW_BLOCKS_CHECK)


def test_a_flow_row_result_is_the_same_in_any_batch_with_one_blas_thread(run_with_one_blas_thread):
    run_with_one_blas_thread(_ROW_SUBSETS_CHECK)


def test_row_mass_is_the_sum_of_squares_in_any_batch_with_one_blas_thread(run_with_one_blas_thread):
    run_with_one_blas_thread(_ROW_MASS_CHECK)


def test_batch_layout_moves_no_result_with_one_blas_thread(run_with_one_blas_thread):
    run_with_one_blas_thread(_LAYOUT_CHECK)


def test_gamma_sum_matches_table_enumeration():
    n_grid, t = 5, 0.83
    v = random_field(n_grid, seed=2, scale=1.0).coeffs
    # the table of the whole grid, and of |n| <= 3 with gamma_sum on that block
    for limit in (n_grid, 3):
        table = grid_triples(limit)
        brute = np.zeros(2 * n_grid + 1, dtype=np.complex128)
        for n1, n2, n3, n, phi in zip(table.n1, table.n2, table.n3, table.out, table.phi):
            brute[n + n_grid] += (
                np.exp(-1j * phi * t) * v[n1 + n_grid] * np.conj(v[n2 + n_grid]) * v[n3 + n_grid]
            )
        tail = _tail(n_grid, limit)
        got = gamma_sum(v[~tail], t, limit)
        assert np.max(np.abs(got - brute[~tail])) <= 1e-12 * max(1.0, np.max(np.abs(brute)))
        assert not np.any(brute[tail])


def _table_sum(f1, f2, f3, t, n_grid, trunc):
    """sum over the grid_triples quads of e^{-i phi t} f1_{n1} conj(f2_{n2}) f3_{n3}."""
    table = grid_triples(n_grid if trunc is None else trunc)
    terms = (
        np.exp(-1j * table.phi * t)
        * f1[..., table.n1 + n_grid]
        * np.conj(f2[..., table.n2 + n_grid])
        * f3[..., table.n3 + n_grid]
    )
    scatter = (table.out[:, None] + n_grid == np.arange(2 * n_grid + 1)).astype(np.float64)
    return terms @ scatter


_kernel_cases = st.integers(min_value=0, max_value=6).flatmap(
    lambda n_grid: st.tuples(
        st.just(n_grid),
        st.none() | st.integers(min_value=0, max_value=n_grid),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


def _draw_pair(seed, batch, n_grid):
    rng = np.random.default_rng(seed)
    shape = (2, batch, 2 * n_grid + 1)
    pair = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return pair[0], pair[1]


@given(_kernel_cases)
def test_gamma_sum_equals_table_sum(case):
    # gamma_sum on the block |n| <= trunc against the table sum on the whole grid
    n_grid, trunc, batch, t, seed = case
    V, _ = _draw_pair(seed, batch, n_grid)
    limit = n_grid if trunc is None else trunc
    active = ~_tail(n_grid, limit)
    ref = _table_sum(V, V, V, t, n_grid, trunc)
    got = gamma_sum(V[..., active], t, limit)
    assert np.max(np.abs(got - ref[..., active])) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert not np.any(ref[..., ~active])


@given(_kernel_cases)
def test_gamma_sum_linearized_equals_table_sum(case):
    n_grid, trunc, batch, t, seed = case
    V, W = _draw_pair(seed, batch, n_grid)
    # a batch of base states, and one base state against a batch of directions
    for base in (V, V[0]):
        ref = sum(
            _table_sum(*slots, t, n_grid, trunc)
            for slots in ((W, base, base), (base, W, base), (base, base, W))
        )
        got = gamma_sum_linearized(base, W, t, n_grid, trunc)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


# truncated_embedded below its grid, the others on the whole grid; on the
# grid above DENSE_GRID_LIMIT v reaches the grid through pocketfft and
# comes back through the largest wide matrix; times up to criterion 06's
# t = 0.5
_tangent_cases = st.tuples(
    st.sampled_from(INTERACTION_VARIANTS), st.sampled_from((1, 4, 8, DENSE_GRID_LIMIT + 8))
).flatmap(
    lambda case: st.tuples(
        st.just(case[0]),
        st.just(case[1]),
        st.integers(min_value=0, max_value=case[1] - 1)
        if case[0] == "truncated_embedded"
        else st.just(case[1]),
        st.sampled_from((+1, -1)),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=-0.5, max_value=0.5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


@given(_tangent_cases)
def test_tangent_matrices_equal_linearized_field(case):
    # the matrices on the active block's own grid against the oracle on the
    # whole grid, whose tail is zero
    variant, n_grid, trunc, sign, batch, t, seed = case
    spec = FlowSpec(variant=variant, sign=sign, trunc_n=trunc)
    V, W = _draw_pair(seed, batch, n_grid)
    limit = spec.interaction_limit(n_grid)
    active = ~_tail(n_grid, limit)
    A, B = tangent_matrices(spec, V[..., active], t, limit)
    WL = W[..., active]
    got = np.einsum("...nm,...m->...n", A, WL) + np.einsum("...nm,...m->...n", B, np.conj(WL))
    ref = linearized_rhs_array(spec, V, W, t, n_grid)
    assert np.max(np.abs(got - ref[..., active])) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert not np.any(ref[..., ~active])


def _slow_part_reference(spec, V, n_grid):
    """The resonant remainder of each variant, written out case by case."""
    sg = spec.sign
    if spec.variant in ("interaction", "renormalized"):
        return 1j * sg * (np.abs(V) ** 2) * V
    if spec.variant == "physical":
        m0 = np.sum(np.abs(V) ** 2, axis=-1, keepdims=True)
        return -1j * sg * (2.0 * m0 * V - (np.abs(V) ** 2) * V)
    mask = (np.abs(np.arange(-n_grid, n_grid + 1)) <= spec.trunc_n).astype(np.float64)
    if spec.variant in ("truncated_embedded", "truncated_finite"):
        return 1j * sg * (np.abs(V) ** 2) * V * mask
    VL = V * mask  # approx_physical: the mean over the low modes only
    m0 = np.sum(np.abs(VL) ** 2, axis=-1, keepdims=True)
    return -1j * sg * (2.0 * m0 * VL - (np.abs(VL) ** 2) * VL) * mask


# every variant on grids up to 8 and on one above DENSE_GRID_LIMIT (pocketfft);
# a truncated variant's trunc_n below or at the grid
_variant_cases = st.tuples(
    st.sampled_from(dynamics.VARIANTS), st.integers(min_value=0, max_value=8) | st.just(DENSE_GRID_LIMIT + 8)
).flatmap(
    lambda case: st.tuples(
        st.just(case[0]),
        st.just(case[1]),
        st.integers(min_value=0, max_value=case[1])
        if case[0] in dynamics.TRUNCATED_VARIANTS
        else st.none(),
        st.sampled_from((+1, -1)),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


@given(_variant_cases)
def test_slow_part_equals_per_variant_formula(case):
    # _slow_part on the active block against the formulas on the whole grid,
    # which vanish above the interaction limit
    variant, n_grid, trunc, sign, batch, _, seed = case
    spec = FlowSpec(variant=variant, sign=sign, trunc_n=trunc)
    V, _ = _draw_pair(seed, batch, n_grid)
    active = ~_tail(n_grid, spec.interaction_limit(n_grid))
    for states in (V, V.reshape(batch, 1, -1)):
        ref = _slow_part_reference(spec, states, n_grid)
        got = dynamics._slow_part(spec, states[..., active])
        assert got.shape == ref[..., active].shape
        assert np.max(np.abs(got - ref[..., active])) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
        assert not np.any(ref[..., ~active])


@given(_variant_cases)
def test_w_rhs_equals_nonresonant_sum_plus_resonant_remainder(case):
    # the oracle is the split the Filon step integrates: -i sign times the
    # nonresonant sum on the active modes, plus the resonant remainder; and
    # rhs_array is that field embedded with zeros above the interaction
    # limit (at t = 0, plus the free part -i n^4 V, for a physical variant)
    variant, n_grid, trunc, sign, batch, t, seed = case
    spec = FlowSpec(variant=variant, sign=sign, trunc_n=trunc)
    V, _ = _draw_pair(seed, batch, n_grid)
    limit = spec.interaction_limit(n_grid)
    active = slice(n_grid - limit, n_grid + limit + 1)  # a view, as rhs_array takes it
    VL = V[..., active]
    ref = -1j * sign * gamma_sum(VL, t, limit) + dynamics._slow_part(spec, VL)
    got = dynamics._w_rhs(spec, VL, t, limit)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
    if variant in PHYSICAL_VARIANTS:
        full = -1j * np.arange(-n_grid, n_grid + 1, dtype=np.float64) ** 4 * V
        full[..., active] += dynamics._w_rhs(spec, VL, 0.0, limit)
    else:
        full = np.zeros_like(V)
        full[..., active] = got
    assert np.array_equal(dynamics.rhs_array(spec, V, t, n_grid), full)


def _physical_field_reference(spec, V, n_grid):
    """-i n^4 V plus the physical-space nonlinearity, each variant written out by conv3."""
    n4 = np.arange(-n_grid, n_grid + 1, dtype=np.float64) ** 4
    if spec.variant == "physical":
        cubic = conv3(V, V, V, n_grid)
    elif spec.variant == "renormalized":
        m0 = np.sum(np.abs(V) ** 2, axis=-1, keepdims=True)
        cubic = conv3(V, V, V, n_grid) - 2.0 * m0 * V
    else:
        mask = (np.abs(np.arange(-n_grid, n_grid + 1)) <= spec.trunc_n).astype(np.float64)
        VL = V * mask
        cubic = mask * conv3(VL, VL, VL, n_grid)
    return -1j * n4 * V - 1j * spec.sign * cubic


@pytest.mark.parametrize("variant", PHYSICAL_VARIANTS)
def test_physical_rhs_matches_direct_cubic(variant):
    rng = np.random.default_rng(4)
    for n_grid in (3, 8):
        for shape in ((2 * n_grid + 1,), (2, 2 * n_grid + 1)):
            V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for sign in (+1, -1):
                spec = FlowSpec(variant=variant, sign=sign, trunc_n=2)
                ref = _physical_field_reference(spec, V, n_grid)
                # the physical-space fields are autonomous
                for t in (0.0, 0.7):
                    got = dynamics.rhs_array(spec, V, t, n_grid)
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "variant,trunc", [("interaction", None), ("truncated_embedded", 3), ("physical", None)]
)
def test_rhs_array_time_column_matches_per_state_calls(variant, trunc):
    # one call on T stacked states with a (T, 1) column of times, as
    # normal_form_terms makes it, against one call per state
    n_grid = 6
    rng = np.random.default_rng(12)
    V = rng.standard_normal((7, 2 * n_grid + 1)) + 1j * rng.standard_normal((7, 2 * n_grid + 1))
    times = np.linspace(0.0, 0.3, 7)
    spec = FlowSpec(variant=variant, trunc_n=trunc)
    got = dynamics.rhs_array(spec, V, times[:, None], n_grid)
    ref = np.stack([dynamics.rhs_array(spec, V[k], float(times[k]), n_grid) for k in range(7)])
    assert np.array_equal(got, ref)


def test_rhs_single_mode_resonant_only():
    f = SpectralField.from_modes({2: 0.7 + 0.1j}, 5)
    spec = FlowSpec(variant="interaction", dt=1e-3)
    nonres = gamma_sum(f.coeffs, 0.3, 5)
    # empty nonresonant set; the convolution-minus-diagonals path cancels to rounding
    assert np.max(np.abs(nonres)) <= 4 * np.finfo(float).eps
    # so the full field is the resonant term i |v_2|^2 v_2 alone
    expected = SpectralField.from_modes({2: 1j * abs(f.get(2)) ** 2 * f.get(2)}, 5)
    full = dynamics.rhs_array(spec, f.coeffs, 0.3, 5)
    assert np.max(np.abs(full - expected.coeffs)) <= 4 * np.finfo(float).eps


def test_truncated_rhs_vanishes_on_high_modes():
    f = random_field(8, seed=3)
    spec = FlowSpec(variant="truncated_embedded", trunc_n=4, dt=1e-3)
    out = rhs(spec, f, 0.1)
    high = np.abs(out.frequencies()) > 4
    assert np.max(np.abs(out.coeffs[high])) == 0.0


def test_renormalized_rhs_matches_gauge_chain_rule():
    """Finite-difference oracle: the gauge of a physical solution solves the
    renormalized equation.

    Differencing happens on the quartic-phase-derotated path (which is
    slow), and the exactly known linear part is restored afterwards; a
    direct stencil on the stiff trajectory would be dominated by the
    n^4 oscillation rather than by the identity under test.
    """
    n_grid = 5
    u0 = random_field(n_grid, seed=4)
    eps = 1e-6
    fine = FlowSpec(variant="physical", dt=eps / 4, integrator="filon")
    n4 = np.arange(-n_grid, n_grid + 1, dtype=np.float64) ** 4

    def derotated_gauged(tau):
        if tau == 0.0:
            return u0.coeffs.copy()
        _, u = evolve_array(fine, u0.coeffs, 0.0, tau, n_grid, store=False)
        w = gauge_forward(SpectralField(u, n_grid), tau)
        return np.exp(1j * tau * n4) * w.coeffs

    z = {k: derotated_gauged(k * eps) for k in (-2, -1, 1, 2)}
    fd = (-z[2] + 8 * z[1] - 8 * z[-1] + z[-2]) / (12 * eps)
    fd_rhs = fd - 1j * n4 * u0.coeffs  # remove the derotation generator
    spec = FlowSpec(variant="renormalized", dt=1e-3)
    analytic = rhs(spec, u0, 0.0)
    scale = max(1.0, float(np.max(np.abs(analytic.coeffs))))
    assert np.max(np.abs(fd_rhs - analytic.coeffs)) <= 1e-10 * scale


# -- evolution ------------------------------------------------------------------


def test_zero_and_degenerate_trajectories():
    spec = FlowSpec(variant="interaction", dt=1e-3)
    z = SpectralField.zero(4)
    traj = evolve(spec, z, 0.0, 0.05)
    assert np.max(np.abs(traj.coeffs)) == 0.0
    single = evolve(spec, random_field(4), 0.3, 0.3)
    assert len(single) == 1
    assert np.array_equal(single.coeffs[0], single.initial.coeffs)


def test_single_mode_against_closed_form():
    a = 0.7 + 0.3j
    for variant in ("physical", "renormalized"):
        for sign in (+1, -1):
            spec = FlowSpec(variant=variant, sign=sign, dt=1e-4)
            traj = evolve(spec, SpectralField.from_modes({1: a}, 4), 0.0, 0.1)
            if variant == "physical":
                expected = a * np.exp(-1j * (1.0 + sign * abs(a) ** 2) * 0.1)
            else:
                # renormalized single mode: i w' = w_xxxx + sign(|w|^2 - 2|w|^2) w
                expected = a * np.exp(-1j * (1.0 - sign * abs(a) ** 2) * 0.1)
            assert abs(traj.final.get(1) - expected) <= 1e-9


def test_explicit_solution_matches_physical_evolution():
    a = 0.7 + 0.3j
    spec = FlowSpec(variant="physical", dt=1e-4)
    traj = evolve(spec, SpectralField.from_modes({1: a}, 4), 0.0, 0.1)
    sol = single_mode_solution(1, a, +1, 0.1, 0.0, n_grid=4)
    assert np.max(np.abs(sol.coeffs - traj.final.coeffs)) <= 1e-9


@pytest.mark.parametrize("variant", ["interaction", "physical"])
@pytest.mark.parametrize("integ,tol", [("rk4", 1e-7), ("gauss", 1e-6), ("filon", 5e-11)])
def test_integrators_converge_to_shared_reference(integ, tol, variant):
    n_grid = 6
    f0 = random_field(n_grid, seed=5, scale=0.6)
    ref_spec = FlowSpec(variant=variant, dt=1e-6, integrator="rk4")
    _, ref = evolve_array(ref_spec, f0.coeffs, 0.0, 0.005, n_grid, store=False)
    spec = FlowSpec(variant=variant, dt=1e-4, integrator=integ)
    _, got = evolve_array(spec, f0.coeffs, 0.0, 0.005, n_grid, store=False)
    assert np.max(np.abs(got - ref)) <= tol


def _filon_full_table(spec, n_grid, picard_tol=1e-13, picard_max=8):
    """Filon step over every quad of ``grid_triples``, both orders of each mirror pair.

    The nodes are contracted with the weights by one einsum over the stacked
    node samples; the oracle for the folded step of ``dynamics._filon``,
    which steps the active modes on their own grid |n| <= n_grid.
    """
    table = grid_triples(n_grid)
    phi = table.phi.astype(np.float64)

    def gather(W):
        return W[..., table.i1] * np.conj(W[..., table.i2]) * W[..., table.i3]

    n_nodes = dynamics.FILON_NODES
    fractions = [j / (n_nodes - 1) for j in range(1, n_nodes)]
    predictor = dynamics._rk4(lambda i, tt, yy, rows: dynamics._w_rhs(spec, yy, tt, n_grid))
    state = {"pref": None}

    def step(t, W, h):
        if state["pref"] is None:
            state["pref"] = np.exp(-1j * phi * t)
        pref = state["pref"]
        wosc = np.stack(
            [np.stack(collocation_osc_weights(phi, h, f, n_nodes), axis=0) for f in fractions], axis=0
        )
        wslow = np.array(
            [[w.real[0] for w in collocation_osc_weights(np.zeros(1), h, f, n_nodes)] for f in fractions]
        )
        nodes = [W]
        for j in range(len(fractions)):
            tau = t + (fractions[j - 1] if j else 0.0) * h
            nodes.append(predictor(tau, nodes[-1], h / (n_nodes - 1)))
        scale = 1.0 + np.max(np.abs(nodes[-1]))
        for _ in range(picard_max):
            G = np.stack([pref * gather(node) for node in nodes], axis=0)
            osc_all = np.einsum("jmq,m...q->j...q", wosc, G)
            S = np.stack([dynamics._slow_part(spec, node) for node in nodes], axis=0)
            slow_all = np.tensordot(wslow, S, axes=(1, 0))
            end_prev = nodes[-1]
            for j in range(len(fractions)):
                nonres = -1j * spec.sign * table.scatter(osc_all[j], 2 * n_grid + 1)
                nodes[j + 1] = W + nonres + slow_all[j]
            if np.max(np.abs(nodes[-1] - end_prev)) <= picard_tol * scale:
                break
        state["pref"] = pref * np.exp(-1j * phi * h)
        return nodes[-1]

    return step


# (n_grid, batch shape, dt, steps): three full steps and a half step, so the
# weights are rebuilt once
SMALL_FILON_RUNS = [(n_grid, batch, 1e-3, 3.5) for n_grid in range(3, 7) for batch in ((), (3,))]


@pytest.mark.parametrize(
    "variant,trunc,runs",
    [
        pytest.param("interaction", None, SMALL_FILON_RUNS, id="interaction-None"),
        pytest.param("truncated_embedded", 2, SMALL_FILON_RUNS, id="truncated_embedded-2"),
        pytest.param("truncated_finite", 2, SMALL_FILON_RUNS, id="truncated_finite-2"),
        pytest.param("physical", None, SMALL_FILON_RUNS, id="physical-None"),
        pytest.param("renormalized", None, SMALL_FILON_RUNS, id="renormalized-None"),
        pytest.param("approx_physical", 2, SMALL_FILON_RUNS, id="approx_physical-2"),
        # criterion 03's shape: one state at n_grid 16, two steps and a half step
        pytest.param("interaction", None, [(16, (), 1e-4, 2.5)], id="interaction-n16-batch1"),
    ],
)
def test_folded_filon_step_matches_full_table(variant, trunc, runs, monkeypatch):
    rng = np.random.default_rng(8)
    for n_grid, batch, dt, n_steps in runs:
        shape = batch + (2 * n_grid + 1,)
        V0 = 0.8 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if variant == "truncated_finite":
            V0[..., np.abs(np.arange(-n_grid, n_grid + 1)) > trunc] = 0.0
        spec = FlowSpec(variant=variant, trunc_n=trunc, dt=dt, integrator="filon")
        _, got = evolve_array(spec, V0, 0.0, n_steps * dt, n_grid)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_filon", _filon_full_table)
            _, ref = evolve_array(spec, V0, 0.0, n_steps * dt, n_grid)
        assert got.shape == ref.shape == (int(np.ceil(n_steps)) + 1,) + shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_batched_filon_run_matches_per_draw_runs():
    # 20 draws at n_grid 8 is criterion 04-05's shape.  Each draw stops its
    # own Picard sweeps; the bitwise check with one BLAS thread is
    # ``_ROW_SUBSETS_CHECK``, and this process keeps its own thread count.
    n_grid, dt = 8, 1e-4
    rng = np.random.default_rng(13)
    dim = 2 * n_grid + 1
    spec = FlowSpec(variant="interaction", dt=dt, integrator="filon")
    for n_draws in (4, 20):
        V0 = 0.5 * (rng.standard_normal((n_draws, dim)) + 1j * rng.standard_normal((n_draws, dim)))
        times, batch = evolve_array(spec, V0, 0.0, 20 * dt, n_grid, store=True)
        assert batch.shape == (21, n_draws, dim)
        for j in range(n_draws):
            t_j, single = evolve_array(spec, V0[j], 0.0, 20 * dt, n_grid, store=True)
            assert np.array_equal(t_j, times)
            tol = 1e-13 * (1.0 + np.max(np.abs(single)))
            assert np.max(np.abs(batch[:, j] - single)) <= tol


_RUNS = [("evolve", "rk4"), ("evolve", "gauss"), ("evolve", "filon"), ("linearized", "rk4"), ("linearized", "gauss")]


# each run on an interaction flow, and on a truncated_embedded one (trunc_n 2)
# whose NaN at mode 3 sits in the frozen tail, which no step sees
@pytest.mark.parametrize(
    "run,integ,trunc",
    [pytest.param(run, integ, None, id=f"{run}-{integ}") for run, integ in _RUNS]
    + [pytest.param(run, integ, 2, id=f"{run}-{integ}-truncated_embedded") for run, integ in _RUNS],
)
def test_non_finite_state_raises_flow_divergence_at_first_step(run, integ, trunc):
    n_grid, dt = 4, 1e-3
    v0 = random_field(n_grid, seed=3).coeffs.copy()
    v0[n_grid + (1 if trunc is None else 3)] = np.nan
    variant = "interaction" if trunc is None else "truncated_embedded"
    spec = FlowSpec(variant=variant, trunc_n=trunc, dt=dt, integrator=integ)
    with pytest.raises(FlowDivergence) as err:
        if run == "evolve":
            evolve_array(spec, v0, 0.0, 3 * dt, n_grid)
        else:
            linearized_final(spec, v0, np.eye(2 * n_grid + 1), 0.0, 3 * dt, n_grid)
    assert err.value.t == dt


@pytest.mark.parametrize("integ", ["rk4", "gauss", "filon"])
def test_an_empty_batch_steps_to_an_empty_batch(integ):
    spec = FlowSpec(variant="interaction", dt=2e-3, integrator=integ)
    steps, V0 = 4, np.zeros((0, 9), dtype=np.complex128)
    times, states = evolve_array(spec, V0, 0.0, steps * spec.dt, 4)
    _, final = evolve_array(spec, V0, 0.0, steps * spec.dt, 4, store=False)
    assert times.shape == (steps + 1,)
    assert states.shape == (steps + 1, 0, 9)
    assert final.shape == (0, 9)


@pytest.mark.parametrize("integ", ["rk4", "gauss"])
def test_classical_schemes_are_fourth_order(integ):
    n_grid = 5
    f0 = random_field(n_grid, seed=18, scale=0.6)
    ref_spec = FlowSpec(variant="interaction", dt=1e-6, integrator="rk4")
    _, ref = evolve_array(ref_spec, f0.coeffs, 0.0, 0.004, n_grid, store=False)
    errs = []
    for dt in (4e-4, 2e-4):
        spec = FlowSpec(variant="interaction", dt=dt, integrator=integ)
        _, got = evolve_array(spec, f0.coeffs, 0.0, 0.004, n_grid, store=False)
        errs.append(np.max(np.abs(got - ref)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.5)


def test_mass_conservation_all_variants_short():
    ens = random_field(12, seed=6, scale=0.4)
    for variant, trunc in [
        ("physical", None),
        ("renormalized", None),
        ("interaction", None),
        ("truncated_embedded", 6),
        ("truncated_finite", 12),
        ("approx_physical", 6),
    ]:
        spec = FlowSpec(variant=variant, trunc_n=trunc, dt=1e-3)
        traj = evolve(spec, ens, 0.0, 0.05)
        drift = abs(mass(traj.final) - mass(traj.initial)) / mass(traj.initial)
        assert drift <= 1e-11, (variant, drift)


def test_hamiltonian_conserved_on_physical_flow():
    from bnls.fields import hamiltonian

    f0 = random_field(8, seed=7, scale=0.4)
    spec = FlowSpec(variant="physical", dt=1e-4, integrator="filon")
    traj = evolve(spec, f0, 0.0, 0.02)
    h0 = hamiltonian(traj.initial, +1)
    hT = hamiltonian(traj.final, +1)
    assert abs(hT - h0) <= 1e-9 * max(1.0, abs(h0))


def test_truncated_flow_freezes_high_modes():
    f0 = random_field(10, seed=8)
    spec = FlowSpec(variant="truncated_embedded", trunc_n=4, dt=1e-3)
    traj = evolve(spec, f0, 0.0, 0.05)
    high = np.abs(f0.frequencies()) > 4
    assert np.array_equal(traj.final.coeffs[high], f0.coeffs[high])


# a truncated variant with trunc_n below its grid, under each scheme, on one
# state or a batch, over whole steps and a part step
_frozen_tail_cases = st.tuples(
    st.sampled_from(dynamics.TRUNCATED_VARIANTS),
    st.sampled_from(("rk4", "gauss", "filon")),
    st.integers(min_value=1, max_value=8),
).flatmap(
    lambda case: st.tuples(
        *map(st.just, case),
        st.integers(min_value=0, max_value=case[2] - 1),
        st.sampled_from((+1, -1)),
        st.sampled_from(((), (3,))),
        st.sampled_from((1.0, 2.5)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


@given(_frozen_tail_cases)
def test_frozen_tail_is_carried_and_the_active_block_stepped_alone(case):
    variant, integrator, n_grid, trunc, sign, batch, n_steps, seed = case
    dt = 1e-3
    rng = np.random.default_rng(seed)
    shape = batch + (2 * n_grid + 1,)
    V0 = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tail = _tail(n_grid, trunc)
    if variant == "truncated_finite":
        V0[..., tail] = 0.0
    spec = FlowSpec(variant=variant, sign=sign, trunc_n=trunc, dt=dt, integrator=integrator)
    times, states = evolve_array(spec, V0, 0.0, n_steps * dt, n_grid)
    n4 = np.arange(-n_grid, n_grid + 1, dtype=np.float64) ** 4
    for t, state in zip(times, states):
        carried = V0 * np.exp(-1j * t * n4) if variant in PHYSICAL_VARIANTS else V0
        assert np.array_equal(state[..., tail], carried[..., tail])
    _, alone = evolve_array(spec, V0[..., ~tail], 0.0, n_steps * dt, trunc)
    assert np.max(np.abs(states[..., ~tail] - alone)) <= 1e-13 * max(1.0, np.max(np.abs(alone)))


def test_truncated_finite_requires_support():
    f0 = random_field(8, seed=9)
    spec = FlowSpec(variant="truncated_finite", trunc_n=4, dt=1e-3)
    with pytest.raises(ValueError):
        evolve(spec, f0, 0.0, 0.01)


def _run_entry(entry, spec, V, n_grid):
    if entry == "evolve_array":
        return evolve_array(spec, V, 0.0, 0.01, n_grid, store=False)
    return linearized_final(spec, V[:1], np.eye(2 * n_grid + 1, dtype=np.complex128), 0.0, 0.01, n_grid)


@pytest.mark.parametrize("entry", ["evolve_array", "linearized_final"])
def test_entry_points_reject_a_truncated_finite_tail(entry):
    V = np.zeros((3, 9), dtype=np.complex128)
    V[:, 4] = 0.3
    V[0, 4 + 3] = 1e-3  # mode 3, above trunc_n = 2, in the first state
    spec = FlowSpec(variant="truncated_finite", trunc_n=2, dt=1e-3, integrator="rk4")
    with pytest.raises(ValueError, match=r"supported in \|n\| <= trunc_n"):
        _run_entry(entry, spec, V, 4)
    _run_entry(entry, spec, V * (np.abs(np.arange(-4, 5)) <= 2), 4)


@pytest.mark.parametrize("entry", ["evolve_array", "linearized_final"])
@pytest.mark.parametrize("variant", dynamics.TRUNCATED_VARIANTS)
def test_entry_points_reject_trunc_n_above_the_grid(entry, variant):
    spec = FlowSpec(variant=variant, trunc_n=5, dt=1e-3, integrator="rk4")
    V = random_field(4, seed=21).coeffs[None]
    with pytest.raises(ValueError, match="exceeds field grid"):
        _run_entry(entry, spec, V, 4)


def test_flow_two_parameter_property():
    f0 = random_field(6, seed=10, scale=0.5)
    spec = FlowSpec(variant="truncated_embedded", trunc_n=6, dt=1e-3)
    _, mid = evolve_array(spec, f0.coeffs, 0.0, 0.02, 6, store=False)
    _, end_two = evolve_array(spec, mid, 0.02, 0.05, 6, store=False)
    _, end_one = evolve_array(spec, f0.coeffs, 0.0, 0.05, 6, store=False)
    assert np.max(np.abs(end_two - end_one)) <= 1e-12


def test_inverse_flow_and_conjugation_reversal():
    f0 = random_field(8, seed=11, scale=0.5)
    spec = FlowSpec(variant="interaction", dt=1e-3, integrator="gauss")
    _, fwd = evolve_array(spec, f0.coeffs, 0.0, 0.05, 8, store=False)
    _, back = evolve_array(spec, fwd, 0.05, 0.0, 8, store=False)
    assert np.max(np.abs(back - f0.coeffs)) <= 1e-12
    # running backward in time equals conjugating data, running forward, conjugating
    _, neg = evolve_array(spec, f0.coeffs, 0.0, -0.05, 8, store=False)
    _, conj_fwd = evolve_array(spec, np.conj(f0.coeffs), 0.0, 0.05, 8, store=False)
    assert np.max(np.abs(np.conj(neg) - conj_fwd)) <= 1e-12


def test_approx_physical_conserves_both_masses():
    f0 = random_field(12, seed=12, scale=0.4)
    trunc = 5
    spec = FlowSpec(variant="approx_physical", trunc_n=trunc, dt=1e-3)
    traj = evolve(spec, f0, 0.0, 0.05)
    low = np.abs(f0.frequencies()) <= trunc
    m_full_0 = float(np.sum(np.abs(f0.coeffs) ** 2))
    m_full_T = float(np.sum(np.abs(traj.final.coeffs) ** 2))
    m_low_0 = float(np.sum(np.abs(f0.coeffs[low]) ** 2))
    m_low_T = float(np.sum(np.abs(traj.final.coeffs[low]) ** 2))
    assert abs(m_full_T - m_full_0) <= 1e-12 * m_full_0
    assert abs(m_low_T - m_low_0) <= 1e-12 * m_low_0


def test_truncated_gauge_composition_on_low_modes():
    """Conjugating the truncated physical approximation by the low-mode gauge
    and the free flow reproduces the embedded truncated flow on |n| <= N."""
    n_grid, trunc, t_end = 10, 4, 0.05
    f0 = random_field(n_grid, seed=13, scale=0.5)
    approx = FlowSpec(variant="approx_physical", trunc_n=trunc, dt=1e-4, integrator="filon")
    embedded = FlowSpec(variant="truncated_embedded", trunc_n=trunc, dt=1e-4, integrator="filon")
    _, uN = evolve_array(approx, f0.coeffs, 0.0, t_end, n_grid, store=False)
    _, vN = evolve_array(embedded, f0.coeffs, 0.0, t_end, n_grid, store=False)
    # the gauge driven by the low-mode mass only: e^{2 i t sum_{|k|<=N} |u_k|^2}
    low = np.abs(np.arange(-n_grid, n_grid + 1)) <= trunc
    gauged = np.exp(2j * t_end * np.sum(np.abs(uN[low]) ** 2)) * uN
    composed = to_interaction(SpectralField(gauged, n_grid), t_end)
    assert np.max(np.abs(composed.coeffs[low] - vN[low])) <= 1e-9


# -- gauge and interaction maps ---------------------------------------------------


def test_gauge_maps():
    f = random_field(5, seed=14)
    assert np.array_equal(gauge_forward(f, 0.0).coeffs, f.coeffs)
    g = gauge_forward(f, 0.7)
    assert mass(g) == pytest.approx(mass(f), rel=1e-14)
    back = gauge_inverse(g, 0.7)
    # exact inverse up to rounding of the (large) phase argument 2 t sum|f|^2
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))
    c = 1.1 - 0.2j
    single = gauge_forward(SpectralField.from_modes({0: c}), 0.3)
    assert single.get(0) == pytest.approx(c * np.exp(2j * 0.3 * abs(c) ** 2))


def test_interaction_picture_maps():
    f = random_field(6, seed=15)
    assert np.array_equal(to_interaction(f, 0.0).coeffs, f.coeffs)
    v = to_interaction(f, 0.4)
    for s in (0.0, 0.8, 2.0):
        assert sobolev_norm(v, s) == pytest.approx(sobolev_norm(f, s), rel=1e-13)
    back = from_interaction(v, 0.4)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-14 * np.max(np.abs(f.coeffs))


def test_composition_identity_small_grid():
    u0 = random_field(8, seed=16, scale=0.5)
    t_end = 0.05
    phys = FlowSpec(variant="physical", dt=1e-4, integrator="filon")
    inter = FlowSpec(variant="interaction", dt=1e-4, integrator="filon")
    _, up = evolve_array(phys, u0.coeffs, 0.0, t_end, 8, store=False)
    _, v = evolve_array(inter, u0.coeffs, 0.0, t_end, 8, store=False)
    u_comp = gauge_inverse(from_interaction(SpectralField(v, 8), t_end), t_end)
    assert sobolev_norm(SpectralField(up, 8) - u_comp, 0.0) <= 1e-9


# -- explicit solutions and residuals -----------------------------------------------


def test_explicit_solution_time_zero():
    s = -0.25
    sol = single_mode_solution(3, 1.0 + 2.0j, +1, 0.0, s)
    assert sol.get(3) == pytest.approx(3.0 ** (-s) * (1.0 + 2.0j))


def test_separation_matches_closed_form():
    s = -0.25
    mode = 8192
    for n in (1, 2, 5):
        tn = separation_time(mode, s, n)
        u1 = single_mode_solution(mode, 1.0, +1, tn, s)
        u2 = single_mode_solution(mode, 1.0 + 1.0 / n, +1, tn, s)
        assert abs(sobolev_norm(u1 - u2, s) - (2.0 + 1.0 / n)) <= 1e-8


def test_residual_of_exact_solution_scales():
    s, a = 0.0, 0.9 + 0.2j

    def sampled_traj(dt):
        times = np.arange(5) * dt
        states = [single_mode_solution(1, a, +1, float(t), s, n_grid=3) for t in times]
        return Trajectory(
            times=times,
            coeffs=np.stack([f.coeffs for f in states]),
            spec=FlowSpec(variant="physical", dt=dt),
            n_grid=3,
        )

    res_coarse = residual(sampled_traj(1e-3))
    res_fine = residual(sampled_traj(5e-4))
    assert res_coarse <= 1e-5
    # second-order convergence of the centered stencil
    assert res_coarse / res_fine == pytest.approx(4.0, rel=0.1)


def test_residual_zero_trajectory_and_guards():
    spec = FlowSpec(variant="interaction", dt=1e-3)
    z = evolve(spec, SpectralField.zero(3), 0.0, 0.004)
    assert residual(z) == 0.0
    with pytest.raises(ValueError):
        residual(Trajectory(times=np.array([0.0]), coeffs=np.zeros((1, 7)), spec=spec, n_grid=3))


def test_residual_is_the_per_state_residual_of_the_states_with_equal_steps():
    # states 1, 3 and 5 have equal neighbouring steps, 2 and 4 do not; state 3
    # is zero and counts as 0.  The times reach the field of an interaction
    # variant, so each checked state must see its own.
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    coeffs[3] = 0.0
    times = np.array([0.0, 1e-3, 2e-3, 4e-3, 6e-3, 7e-3, 8e-3])
    spec = FlowSpec(variant="interaction", dt=1e-3)
    traj = Trajectory(times=times, coeffs=coeffs, spec=spec, n_grid=3)
    per_state = []
    for i in (1, 5):
        fd = (coeffs[i + 1] - coeffs[i - 1]) / (times[i + 1] - times[i - 1])
        vf = dynamics.rhs_array(spec, coeffs[i], times[i], 3)
        per_state.append(np.linalg.norm(fd - vf) / np.linalg.norm(coeffs[i]))
    assert residual(traj) == pytest.approx(max(per_state), rel=1e-12)


def test_residual_of_a_non_finite_field_is_nan(monkeypatch):
    spec = FlowSpec(variant="interaction", dt=1e-3)
    traj = evolve(spec, random_field(3, seed=4), 0.0, 0.004)
    assert residual(traj) > 0.0
    monkeypatch.setattr(dynamics, "rhs_array", lambda spec, V, t, n_grid: np.full(V.shape, np.nan + 0j))
    assert np.isnan(residual(traj))


def test_residual_rejects_a_trajectory_without_equal_neighbouring_steps():
    """The centred stencil checks no state here, so there is no residual to report."""
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    spec = FlowSpec(variant="interaction", dt=1e-3)
    traj = Trajectory(times=np.array([0.0, 1e-3, 3e-3]), coeffs=coeffs, spec=spec, n_grid=3)
    with pytest.raises(ValueError, match="equal neighbouring steps"):
        residual(traj)


def test_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec(variant="nope")
    with pytest.raises(ValueError):
        FlowSpec(variant="truncated_embedded")
    with pytest.raises(ValueError):
        FlowSpec(variant="physical", dt=-1.0)
    with pytest.raises(ValueError):
        FlowSpec(variant="physical", integrator="euler")
