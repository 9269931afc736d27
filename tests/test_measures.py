import numpy as np
import pytest

from bnls.fields import SpectralField, bracket
from bnls.measures import (
    Ensemble,
    EventSpec,
    GaussianSpec,
    change_of_variable_test,
    invariance_test,
    liouville_check,
    lp_weight_convergence,
    measure_growth_experiment,
    sample,
    tail_sanity,
    weight,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(s=0.4, sample_cutoff=8)
    GaussianSpec(s=0.4, sample_cutoff=8, allow_low_regularity=True)
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
    with pytest.raises(RuntimeError):
        sample(tiny, 1)


def test_weight_report():
    v = sample(GaussianSpec(s=1.0, sample_cutoff=8, r=2.0, seed=10), 1).fields[0]
    rep = weight(v, 4, 2.0, 0.1, 1.0)
    assert rep.indicator and rep.f_n_r_t > 0 and rep.f_r_t > 0
    # outside the ball both weights vanish
    big = SpectralField(v.coeffs * 100.0, v.n_grid)
    rep_out = weight(big, 4, 2.0, 0.1, 1.0)
    assert rep_out == type(rep_out)(0.0, 0.0, False)
    # single mode carries no correction
    single = SpectralField.from_modes({1: 0.5}, 8)
    rep_single = weight(single, 4, 2.0, 0.3, 1.0)
    assert rep_single.f_n_r_t == pytest.approx(1.0) and rep_single.f_r_t == pytest.approx(1.0)
    # truncation at or beyond the support makes the two weights identical
    rep_full = weight(v, 8, 2.0, 0.1, 1.0)
    assert rep_full.f_n_r_t == rep_full.f_r_t


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


def test_change_of_variable_trivial_events():
    # the pullback estimator hits trivial events exactly; the reweighting
    # estimator is only statistically one on the full space
    rep = change_of_variable_test(2, 2.0, 0.05, 1.0, 400, EventSpec(kind="all"), seed=1, dt=5e-3)
    assert rep["estimate_pullback"] == pytest.approx(1.0, abs=1e-12)
    assert rep["agree_within_4"]
    rep = change_of_variable_test(2, 2.0, 0.05, 1.0, 400, EventSpec(kind="empty"), seed=1, dt=5e-3)
    assert rep["estimate_pullback"] == 0.0
    assert rep["estimate_reweight"] == 0.0
    assert rep["agree_within_4"]


def test_change_of_variable_box_event():
    ev = EventSpec(kind="box", coords=((1, "re"),), lo=(-0.5,), hi=(0.5,))
    rep = change_of_variable_test(4, 2.0, 0.1, 1.0, 4000, ev, seed=9, dt=2e-3)
    assert rep["agree_within_4"], rep["z"]


def test_change_of_variable_t0_identity():
    # at t = 0 both estimators target the same static weighted probability
    ev = EventSpec(kind="box", coords=((0, "re"),), lo=(-0.6, ), hi=(0.6,))
    rep = change_of_variable_test(3, 2.0, 0.0, 1.0, 3000, ev, seed=2, dt=1e-3)
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
