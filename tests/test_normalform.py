import numpy as np
import pytest

from bnls.dynamics import _STEPPERS, FlowSpec, _drive, evolve, evolve_array, linearized_rhs_array, rhs_array
from bnls.fields import SpectralField, sobolev_norm
from bnls.measures import GaussianSpec, sample
from bnls.normalform import (
    dk_hs_diagnostics,
    duhamel_split,
    linearized_final,
    normal_form_terms,
    ramer_exponents,
    smoothing_report,
)

FILON_SPEC = FlowSpec(variant="interaction", dt=1e-4, integrator="filon")


def gaussian_field(s, cutoff, seed):
    return sample(GaussianSpec(s=s, sample_cutoff=cutoff, seed=seed), 1).fields[0]


def test_single_mode_split_closed_form():
    a = 0.8 - 0.3j
    f0 = SpectralField.from_modes({2: a}, 4)
    traj = evolve(FlowSpec(variant="interaction", dt=1e-3), f0, 0.0, 0.2)
    split = duhamel_split(traj)
    assert np.max(np.abs(split.nonresonant.coeffs)) <= 1e-13
    # resonant-only evolution: integral of i|a|^2 a e^{i |a|^2 t}
    expected = a * (np.exp(1j * abs(a) ** 2 * 0.2) - 1.0)
    assert split.resonant.get(2) == pytest.approx(expected, abs=1e-12)


def test_duhamel_identity_and_error_estimate():
    f0 = gaussian_field(1.5, 8, seed=1)
    traj = evolve(FILON_SPEC, f0, 0.0, 0.02)
    split = duhamel_split(traj)
    resid = sobolev_norm(traj.final - traj.initial - split.nonresonant - split.resonant, 0.0)
    # the step-doubling estimate is of the size of the error it estimates
    assert 0.1 * split.quadrature_error_estimate <= resid <= 2.0 * split.quadrature_error_estimate


def test_normal_form_terms_single_mode_all_zero():
    f0 = SpectralField.from_modes({1: 0.5}, 3)
    traj = evolve(FlowSpec(variant="interaction", dt=1e-3), f0, 0.0, 0.1)
    terms = normal_form_terms(traj)
    for part in (terms.boundary_t, terms.boundary_0, terms.integral_cubic_a, terms.integral_cubic_b):
        assert np.max(np.abs(part.coeffs)) <= 1e-13


def test_normal_form_degenerate_interval_limit():
    # as the window shrinks the boundary terms cancel and the integral
    # terms vanish linearly in the window length
    f0 = gaussian_field(1.5, 6, seed=2)
    t_len = 2e-5
    traj = evolve(FlowSpec(variant="interaction", dt=1e-5), f0, 0.0, t_len)
    terms = normal_form_terms(traj)
    cancel = sobolev_norm(terms.boundary_t + terms.boundary_0, 0.0)
    assert cancel <= 1e-3 * sobolev_norm(terms.boundary_t, 0.0)
    assert sobolev_norm(terms.integral_cubic_a, 0.0) <= 5.0 * t_len
    assert sobolev_norm(terms.integral_cubic_b, 0.0) <= 5.0 * t_len


def test_normal_form_identity_gaussian_draws():
    for seed in (1, 2):
        f0 = gaussian_field(1.5, 8, seed=seed)
        traj = evolve(FILON_SPEC, f0, 0.0, 0.05)
        split = duhamel_split(traj)
        terms = normal_form_terms(traj)
        resid = sobolev_norm(terms.total() - split.nonresonant, 0.0)
        assert resid <= 1e-6


@pytest.mark.parametrize("variant", ["truncated_embedded", "truncated_finite"])
def test_normal_form_identity_truncated_variants(variant):
    # the triple table and the low block come from the spec's interaction limit
    trunc, n_grid = 5, 8
    coeffs = gaussian_field(1.5, n_grid, seed=12).coeffs.copy()
    if variant == "truncated_finite":
        coeffs[np.abs(np.arange(-n_grid, n_grid + 1)) > trunc] = 0.0
    spec = FlowSpec(variant=variant, trunc_n=trunc, dt=1e-4, integrator="filon")
    traj = evolve(spec, SpectralField(coeffs, n_grid), 0.0, 0.02)
    split = duhamel_split(traj)
    terms = normal_form_terms(traj)
    assert sobolev_norm(terms.total() - split.nonresonant, 0.0) <= 1e-6
    resid = sobolev_norm(traj.final - traj.initial - split.nonresonant - split.resonant, 0.0)
    assert 0.1 * split.quadrature_error_estimate <= resid <= 2.0 * split.quadrature_error_estimate
    # the frozen high modes carry no Duhamel or normal-form contribution
    high = np.abs(np.arange(-n_grid, n_grid + 1)) > trunc
    for part in (split.nonresonant, split.resonant, terms.total()):
        assert np.all(part.coeffs[high] == 0.0)


def test_smoothing_report_shapes_and_bound():
    f0 = gaussian_field(1.5, 8, seed=3)
    traj = evolve(FILON_SPEC, f0, 0.0, 0.02)
    rep = smoothing_report(traj, 1.5)
    assert rep["resonant_ratio"] <= 1.0 + 1e-6
    assert rep["nonresonant_ratio"] >= 0.0
    z = evolve(FlowSpec(variant="interaction", dt=1e-3), SpectralField.zero(4), 0.0, 0.01)
    zrep = smoothing_report(z, 1.5)
    assert zrep["nonresonant_ratio"] == 0.0 and zrep["resonant_ratio"] == 0.0


def test_quadrature_preconditions():
    f0 = gaussian_field(1.5, 4, seed=4)
    traj = evolve(FlowSpec(variant="physical", dt=1e-3), f0, 0.0, 0.01)
    with pytest.raises(ValueError):
        duhamel_split(traj)
    short = evolve(FlowSpec(variant="interaction", dt=1e-3), f0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        duhamel_split(short)


# -- linearized flow -------------------------------------------------------------


def test_linearized_zero_and_frozen_cases():
    spec = FlowSpec(variant="interaction", dt=1e-3)
    v0 = gaussian_field(1.5, 5, seed=5).coeffs
    _, _, Ws = linearized_final(spec, v0, np.zeros(11), 0.0, 0.02, 5, store=True)
    assert np.max(np.abs(Ws)) == 0.0
    w0 = gaussian_field(1.5, 5, seed=6).coeffs
    _, _, frozen = linearized_final(spec, np.zeros(11), w0, 0.0, 0.02, 5, store=True)
    assert np.max(np.abs(frozen[-1] - w0)) == 0.0


def test_linearized_matches_directional_difference():
    # the variational flow against a central difference of the flow, on
    # each shape callers pass: one direction, a batch of directions
    # (dk_hs_diagnostics) and per-point directions on a (P, 1, dim) base
    # (liouville_determinants)
    n_grid, t, eps = 6, 0.05, 1e-5
    dim = 2 * n_grid + 1
    v0 = gaussian_field(1.5, n_grid, seed=7).coeffs
    w0 = gaussian_field(1.5, n_grid, seed=8).coeffs
    rng = np.random.default_rng(9)
    dirs = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
    bases = np.stack([v0, 0.5 * v0[::-1]])[:, None, :]  # (P, 1, dim)
    per_point = np.stack([dirs[:3], dirs[1:]])  # (P, k, dim)
    for integ in ("rk4", "gauss"):
        spec = FlowSpec(variant="interaction", dt=1e-3, integrator=integ)

        def flow(V):
            return evolve_array(spec, V, 0.0, t, n_grid, store=False)[1]

        def central(V, W):
            return (flow(V + eps * W) - flow(V - eps * W)) / (2 * eps)

        _, _, Ws = linearized_final(spec, v0, w0, 0.0, t, n_grid, store=True)
        _, V, W = linearized_final(spec, v0, dirs, 0.0, t, n_grid)
        _, Vp, Wp = linearized_final(spec, bases, per_point, 0.0, t, n_grid)
        assert V.shape == v0.shape and W.shape == dirs.shape
        assert Vp.shape == bases.shape and Wp.shape == per_point.shape
        assert np.max(np.abs(Vp - flow(bases))) <= 1e-13
        for got, fd in [
            (Ws[-1], central(v0, w0)),
            (W, central(v0, dirs)),
            (Wp, central(bases, per_point)),
        ]:
            scale = max(1.0, float(np.max(np.abs(got))))
            assert np.max(np.abs(fd - got)) <= 1e-8 * scale


def _joint_linearized_final(spec, v0, w0, t0, t1, n_grid, store=False):
    """The variational flow as the scheme's own step on Y = [V; W] with the joint field.

    Returns (times, V, W) as the slices of Y, (..., 1, dim) and (..., k, dim).
    """
    W0 = np.asarray(w0, dtype=np.complex128)
    cols = W0 if W0.ndim > 1 else W0[None]
    base = np.asarray(v0, dtype=np.complex128).reshape(cols.shape[:-2] + (1, cols.shape[-1]))

    def joint(t, Y):
        V = Y[..., :1, :]
        dW = linearized_rhs_array(spec, V, Y[..., 1:, :], t, n_grid)
        return np.concatenate([rhs_array(spec, V, t, n_grid), dW], axis=-2)

    step = _STEPPERS[spec.resolved_integrator(n_grid)](joint)
    times, Y = _drive(step, np.concatenate([base, cols], axis=-2), t0, t1, spec.dt, store)
    return times, Y[..., :1, :], Y[..., 1:, :]


@pytest.mark.parametrize("integ,rtol", [("rk4", 1e-13), ("gauss", 1e-12)])
@pytest.mark.parametrize("variant,trunc", [("interaction", None), ("truncated_embedded", 4)])
def test_linearized_matches_joint_step(integ, rtol, variant, trunc):
    # V by its own scheme step and W by the tableau's linear stages against
    # the scheme's step on the stacked [V; W], on each shape callers pass
    n_grid, t = 6, 0.05
    dim = 2 * n_grid + 1
    spec = FlowSpec(variant=variant, trunc_n=trunc, dt=1e-3, integrator=integ)
    v0 = gaussian_field(1.5, n_grid, seed=7).coeffs
    rng = np.random.default_rng(10)
    dirs = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
    bases = np.stack([v0, 0.5 * v0[::-1]])[:, None, :]  # (P, 1, dim)
    per_point = np.stack([dirs[:3], dirs[1:]])  # (P, k, dim)
    for v, w, store in [(v0, dirs[0], False), (v0, dirs, False), (bases, per_point, False), (v0, dirs, True)]:
        times, V, W = linearized_final(spec, v, w, 0.0, t, n_grid, store=store)
        ref_times, ref_V, ref_W = _joint_linearized_final(spec, v, w, 0.0, t, n_grid, store=store)
        assert np.array_equal(times, ref_times)
        assert np.max(np.abs(W.reshape(ref_W.shape) - ref_W)) <= rtol * max(1.0, np.max(np.abs(ref_W)))
        assert np.max(np.abs(V.reshape(ref_V.shape) - ref_V)) <= rtol * max(1.0, np.max(np.abs(ref_V)))
        assert np.max(np.abs(V - evolve_array(spec, v, 0.0, t, n_grid, store=store)[1])) <= 1e-13


# -- Hilbert-Schmidt diagnostics ----------------------------------------------------


def test_ramer_exponent_feasibility():
    sig1, sig2, ok = ramer_exponents(1.5)
    assert ok and sig1 > 0.5 and sig2 > 0.5
    _, _, ok_low = ramer_exponents(0.9)
    assert not ok_low


def test_dk_diagnostics_degenerate_cases():
    rep0 = dk_hs_diagnostics(SpectralField.zero(6), 0.05, 1.5, 4)
    assert rep0["hs_norm"] <= 1e-14
    u0 = gaussian_field(1.5, 6, seed=10)
    rep_t0 = dk_hs_diagnostics(u0, 0.0, 1.5, 4)
    assert rep_t0["hs_norm"] <= 1e-14


def test_dk_diagnostics_gaussian():
    u0 = gaussian_field(1.5, 12, seed=11)
    rep = dk_hs_diagnostics(u0, 0.05, 1.5, 12, dt=1e-3)
    assert np.isfinite(rep["hs_norm"]) and rep["hs_norm"] > 0
    assert rep["decay_exponent"] >= 0.5
    assert rep["exponents_feasible"] and rep["short_time_window"]
