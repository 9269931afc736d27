import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from bnls.fields import SpectralField, bracket
from bnls.measures import (
    _MAX_REJECTION_ATTEMPTS,
    _philox_keys,
    _weights_batch,
    EventSpec,
    GaussianSpec,
    change_of_variable_suite,
    invariance_test,
    liouville_check,
    liouville_determinants,
    lp_weight_convergence,
    measure_growth_experiment,
    sample,
    tail_sanity,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(s=0.4, sample_cutoff=8)
    with pytest.raises(ValueError):
        GaussianSpec(s=0.5, sample_cutoff=8)
    with pytest.raises(ValueError):
        GaussianSpec(s=1.0, sample_cutoff=8, r=-1.0)
    with pytest.raises(ValueError):
        GaussianSpec(s=1.0, sample_cutoff=8, n_grid=4)


def test_sample_reproducible_and_independent_of_batching():
    spec = GaussianSpec(s=1.0, sample_cutoff=6, seed=5)
    a = sample(spec, 4)
    b = sample(spec, 4)
    assert np.array_equal(a.coeffs, b.coeffs)
    # draw i does not depend on how many draws are requested
    c = sample(spec, 2)
    assert np.array_equal(a.coeffs[:2], c.coeffs)
    assert len(sample(spec, 0)) == 0


def test_sample_moments():
    spec = GaussianSpec(s=1.0, sample_cutoff=1, seed=7)
    ens = sample(spec, 40_000)
    mean_sq = float(np.mean(np.sum(np.abs(ens.coeffs) ** 2, axis=-1)))
    # E sum |v_n|^2 = 2 (1 + 1/2 + 1/2) = 4
    assert mean_sq == pytest.approx(4.0, rel=0.05)
    re_g0 = ens.coeffs[:, 1].real  # center mode, weight <0>^{-s} = 1
    assert float(np.var(re_g0)) == pytest.approx(1.0, rel=0.05)


def test_sample_spectral_profile():
    s = 1.3
    spec = GaussianSpec(s=s, sample_cutoff=8, seed=8)
    ens = sample(spec, 20_000)
    ns = np.arange(-8, 9)
    per_mode = np.mean(np.abs(ens.coeffs) ** 2, axis=0)
    expected = 2.0 * bracket(ns, -2.0 * s)
    assert np.max(np.abs(per_mode / expected - 1.0)) <= 0.1


def test_rejection_sampling_ball():
    spec = GaussianSpec(s=1.0, sample_cutoff=8, r=2.0, seed=9)
    ens = sample(spec, 200)
    norms = np.sqrt(np.sum(np.abs(ens.coeffs) ** 2, axis=-1))
    assert np.all(norms <= 2.0)
    assert ens.attempts >= 200
    tiny = GaussianSpec(s=1.0, sample_cutoff=16, r=1e-4, seed=9)
    with pytest.raises(RuntimeError, match=r"rejection acceptance below 5e-05; increase the cutoff radius r=0.0001"):
        sample(tiny, 1)


_words = st.integers(0, 2**32 - 1)


@given(st.integers(0, 2**96 - 1), st.lists(st.tuples(_words, _words), min_size=1, max_size=6))
@example(0, [(0, 0)])
@example(2**32 - 1, [(2**32 - 1, 2**32 - 1)])
@example(2**32, [(7, 0)])
@example(2**64 + 3, [(0, 1), (5, 2**31)])
def test_philox_keys_match_seed_sequence(seed, pairs):
    # 1-, 2- and 3-word seeds make 3 to 5 entropy words: the last overruns the 4-word pool
    draws, attempts = np.array(pairs, dtype=np.int64).T
    keys = _philox_keys(seed, draws, attempts)
    expected = [SeedSequence((seed, i, a)).generate_state(2, np.uint64) for i, a in pairs]
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, np.array(expected))


def test_philox_keys_reject_negative_seed():
    with pytest.raises(ValueError):
        SeedSequence((-1, 0, 0))
    with pytest.raises(ValueError):
        _philox_keys(-1, 0, 0)


def _reference_sample(spec, count):
    """Per-draw sampler: a fresh keyed generator per (seed, draw, attempt)."""
    cut, grid = spec.sample_cutoff, spec.grid
    out = np.empty((count, 2 * grid + 1), dtype=np.complex128)
    attempts = 0
    for i in range(count):
        for attempt in range(_MAX_REJECTION_ATTEMPTS):
            attempts += 1
            rng = Generator(Philox(SeedSequence((spec.seed, i, attempt))))
            z = rng.standard_normal(2 * cut + 1) + 1j * rng.standard_normal(2 * cut + 1)
            v = np.zeros(2 * grid + 1, dtype=np.complex128)
            v[grid - cut : grid + cut + 1] = z * bracket(np.arange(-cut, cut + 1), -spec.s)
            if spec.r is None or float(np.sqrt(np.sum(np.abs(v) ** 2))) <= spec.r:
                out[i] = v
                break
    return out, attempts


@pytest.mark.parametrize(
    "spec, count",
    [
        (GaussianSpec(s=1.0, sample_cutoff=16, r=2.0, seed=9), 257),  # acceptance ~0.23: many rounds
        (GaussianSpec(s=1.0, sample_cutoff=6, seed=5), 257),
        (GaussianSpec(s=1.5, sample_cutoff=4, r=2.0, seed=3, n_grid=9), 1),
        (GaussianSpec(s=1.2, sample_cutoff=3, seed=2**64 + 3, n_grid=5), 40),
        (GaussianSpec(s=1.0, sample_cutoff=0, r=0.5, seed=1), 50),
        (GaussianSpec(s=1.0, sample_cutoff=0, seed=4, n_grid=3), 1),
        (GaussianSpec(s=1.0, sample_cutoff=8, r=2.0, seed=6), 0),
    ],
)
def test_sample_matches_per_draw_generators(spec, count):
    coeffs, attempts = _reference_sample(spec, count)
    ens = sample(spec, count)
    assert np.array_equal(ens.coeffs, coeffs)
    assert ens.attempts == attempts


def test_weight_report():
    # truncated (N = 4) and full (N = 8) weights of fields on the grid of half-width 8
    V = sample(GaussianSpec(s=1.0, sample_cutoff=8, r=2.0, seed=10), 1).coeffs
    single = SpectralField.from_modes({1: 0.5}, 8).coeffs
    for trunc in (4, 8):
        assert _weights_batch(V, trunc, 2.0, 0.1, 1.0, 8)[0] > 0
        # outside the ball the weight vanishes
        assert _weights_batch(100.0 * V, trunc, 2.0, 0.1, 1.0, 8)[0] == 0.0
        # a single mode carries no correction
        assert _weights_batch(single, trunc, 2.0, 0.3, 1.0, 8) == pytest.approx(1.0)
    # truncation at or beyond the support makes the two weights agree
    low = sample(GaussianSpec(s=1.0, sample_cutoff=4, r=2.0, seed=10, n_grid=8), 1).coeffs
    full = _weights_batch(low, 8, 2.0, 0.1, 1.0, 8)
    assert _weights_batch(low, 4, 2.0, 0.1, 1.0, 8) == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("transform", ["free_flow", "gauge", "rotation"])
def test_invariance_statistics(transform):
    rep = invariance_test(transform, GaussianSpec(s=1.0, sample_cutoff=8, seed=21), 10_000, t=1.0)
    assert rep["modulus_exact"]
    assert rep["all_within_4"], rep["max_abs_z"]


def test_invariance_t_zero_trivial():
    rep = invariance_test("free_flow", GaussianSpec(s=1.0, sample_cutoff=4, seed=22), 500, t=0.0)
    assert rep["max_abs_z"] == 0.0


def test_liouville_check():
    u0 = sample(GaussianSpec(s=1.0, sample_cutoff=4, r=2.0, seed=3), 1).fields[0]
    rep = liouville_check(4, 0.2, u0, dt=1e-3)
    assert rep["no_diagonal_triples"] and rep["divergence_zero"]
    assert rep["abs_log_det"] <= 1e-8
    rep0 = liouville_check(4, 0.0, u0, dt=1e-3)
    assert rep0["abs_log_det"] == 0.0
    with pytest.raises(ValueError):
        liouville_check(2, 0.1, u0)


def test_liouville_determinants_check_each_base_point():
    good = sample(GaussianSpec(s=1.0, sample_cutoff=2, r=2.0, seed=3, n_grid=4), 1).fields[0]
    tail = SpectralField(good.coeffs + 1e-3 * (np.arange(-4, 5) == 3), 4)
    with pytest.raises(ValueError, match=r"supported in \|n\| <= trunc_n"):
        liouville_determinants(2, 0.01, [good, tail], dt=1e-3)
    with pytest.raises(ValueError, match="exceeds field grid"):
        liouville_determinants(6, 0.01, [good], dt=1e-3)
    assert liouville_determinants(2, 0.01, [good], dt=1e-3)[0] <= 1e-8


def test_event_specs():
    V = np.zeros((3, 9), dtype=np.complex128)
    V[0, 4 + 1] = 0.3          # Re v_1 = 0.3
    V[1, 4 + 1] = 0.9
    V[2, 4] = 1.0 + 1.0j       # v_0
    box = EventSpec(kind="box", coords=((1, "re"),), lo=(-0.5,), hi=(0.5,))
    assert box.evaluate(V, 4).tolist() == [True, False, True]
    ball = EventSpec(kind="ball", coords=((0, "re"), (0, "im")), center=(0.0, 0.0), radius=1.0)
    assert ball.evaluate(V, 4).tolist() == [True, True, False]
    half = EventSpec(kind="halfspace", coords=((1, "re"),), weights=(1.0,), threshold=0.5)
    assert half.evaluate(V, 4).tolist() == [False, True, False]
    assert EventSpec(kind="all").evaluate(V, 4).all()
    assert not EventSpec(kind="empty").evaluate(V, 4).any()
    # modes off the grid are rejected, not wrapped round to another mode
    for mode in (-6, 5):
        off = EventSpec(kind="box", coords=((mode, "re"),), lo=(-0.5,), hi=(0.5,))
        with pytest.raises(ValueError, match=f"mode {mode} outside grid"):
            off.evaluate(V, 4)


def test_change_of_variable_trivial_events():
    # the pullback estimator hits trivial events exactly; the reweighting
    # estimator is only statistically one on the full space
    events = {kind: EventSpec(kind=kind) for kind in ("all", "empty")}
    reps = change_of_variable_suite(2, 2.0, 0.05, 1.0, 400, events, seed=1, dt=5e-3)["events"]
    rep = reps["all"]
    assert rep["estimate_pullback"] == pytest.approx(1.0, abs=1e-12)
    assert rep["agree_within_4"]
    rep = reps["empty"]
    assert rep["estimate_pullback"] == 0.0
    assert rep["estimate_reweight"] == 0.0
    assert rep["agree_within_4"]


def test_change_of_variable_box_event():
    ev = EventSpec(kind="box", coords=((1, "re"),), lo=(-0.5,), hi=(0.5,))
    rep = change_of_variable_suite(4, 2.0, 0.1, 1.0, 4000, {"box": ev}, seed=9, dt=2e-3)["events"]["box"]
    assert rep["agree_within_4"], rep["z"]


def test_change_of_variable_t0_identity():
    # at t = 0 both estimators target the same static weighted probability
    ev = EventSpec(kind="box", coords=((0, "re"),), lo=(-0.6, ), hi=(0.6,))
    rep = change_of_variable_suite(3, 2.0, 0.0, 1.0, 3000, {"box": ev}, seed=2, dt=1e-3)["events"]["box"]
    assert rep["agree_within_4"]


def test_lp_weight_convergence():
    spec = GaussianSpec(s=1.0, sample_cutoff=12, seed=30)
    rep = lp_weight_convergence(spec, 2.0, 0.1, [2.0], [2, 4, 12], 4000)
    rows = rep["distances"]["2.0"]
    assert rows[-1]["estimate"] == 0.0  # N at the sampling cutoff: identical weights
    assert rep["decreasing"]


def test_measure_growth_identity_at_t0():
    rep = measure_growth_experiment(3, 2.0, 0.0, 1.0, [1.5, 1.0, 0.7], 4000, seed=4, dt=1e-3)
    assert rep["exponent"] == pytest.approx(1.0, abs=0.05)


def test_measure_growth_fit_with_two_and_one_events():
    # two positive-measure events fix a slope but not its standard error
    two = measure_growth_experiment(2, 2.0, 0.01, 1.0, [1.6, 1.2], 200, dt=5e-3)
    assert np.isfinite(two["exponent"]) and np.isnan(two["exponent_se"])
    one = measure_growth_experiment(2, 2.0, 0.01, 1.0, [1.6], 200, dt=5e-3)
    assert np.isnan(one["exponent"]) and np.isnan(one["exponent_se"])


def test_tail_sanity():
    # fit region needs a few K values with positive empirical mass; the
    # extreme K = 3 sqrt(M) lands at empirical zero, below any envelope
    rep = tail_sanity(16, [0.0, 6.0, 7.0, 8.0, 12.0], 50_000, seed=17)
    tails = [row["tail"] for row in rep["rows"]]
    assert tails[0] == 1.0
    assert rep["monotone"]
    assert rep["fitted_rate"] > 0
    assert tails[-1] <= np.exp(-rep["fitted_rate"] * 144.0) + 1e-12
