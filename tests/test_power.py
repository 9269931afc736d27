"""Seeded defects that the acceptance criteria must catch.

Each test plants one named mutant by monkeypatching one library function
and asserts that its criterion fails, at the smallest scale that catches it.
"""

import numpy as np

from bnls import acceptance, dynamics, energy, measures, normalform, resonance
from bnls._quadrature import oscillatory_integral
from bnls.acceptance import run_criterion
from bnls.resonance import grid_triples


def test_phase_criterion_fails_when_the_factored_phase_is_off(monkeypatch):
    # the cross term 2 (n1 + n3)^2 of the last factor taken as 2 (n1 - n3)^2:
    # the two forms differ by 8 n1 n3 (n1 - n2)(n1 - n), nonzero on most quads
    def mutant(n1, n2, n3, n):
        return (n1 - n2) * (n1 - n) * (n1**2 + n2**2 + n3**2 + n**2 + 2 * (n1 - n3) ** 2)

    monkeypatch.setattr(resonance, "phase_factored", mutant)
    report = run_criterion("01-phase-factorization", scale="smoke")
    assert report.scalars["mismatches"] > 0
    assert not report.flags["factorization_exact"]
    assert not report.passed


def test_mass_criterion_fails_when_a_gauss_coefficient_is_off(monkeypatch):
    # ``_gauss`` with a12 off by +1e-3: the tableau no longer satisfies the
    # condition under which every step conserves quadratic invariants, so the
    # mass drifts by about 1e-8 per variant against the 1e-9 tolerance
    monkeypatch.setattr(dynamics, "A12", dynamics.A12 + 1e-3)
    report = run_criterion("02-mass-conservation", scale="smoke")
    assert report.scalars["drift_interaction"] > 1e-9
    assert not any(report.flags.values())  # every variant's mass_ok flag
    assert not report.passed


def test_composition_criterion_fails_when_the_gauge_is_applied_forward(monkeypatch):
    # the gauge sign flipped: e^{+2it avg|u|^2} where the identity needs e^{-2it avg|u|^2}
    monkeypatch.setattr(acceptance, "gauge_inverse", dynamics.gauge_forward)
    report = run_criterion("03-composition-identity", scale="smoke")
    assert report.scalars["l2_difference"] > 1e-8
    assert not report.flags["composition_ok"]
    assert not report.passed


def test_explicit_solution_criterion_fails_without_the_nonlinear_phase(monkeypatch):
    # the closed form keeps the free phase e^{-i N^4 t} and drops
    # e^{-i sign N^{-2s} |a|^2 t}: the PDE residual becomes the size of the
    # cubic term and the two solutions of a pair no longer separate
    exact = dynamics.single_mode_solution

    def mutant(mode, amplitude, sign, t, s, n_grid=None):
        return dynamics.from_interaction(exact(mode, amplitude, sign, 0.0, s, n_grid), t)

    monkeypatch.setattr(acceptance, "single_mode_solution", mutant)
    report = run_criterion("10-explicit-solution-oracle", scale="smoke")
    assert report.scalars["pde_residual"] > 1e-10
    assert report.scalars["max_separation_error"] > 1e-8
    assert not report.flags["residual_ok"]
    assert not report.flags["separation_ok"]
    assert not report.passed


def test_explicit_solution_criterion_fails_on_a_non_finite_field(monkeypatch):
    # a field that returns NaN: the residual is NaN, which no gate passes
    monkeypatch.setattr(dynamics, "rhs_array", lambda spec, V, t, n_grid: np.full(V.shape, np.nan + 0j))
    report = run_criterion("10-explicit-solution-oracle", scale="smoke")
    assert np.isnan(report.scalars["pde_residual"])
    assert not report.flags["residual_ok"]
    assert not report.passed


def test_normal_form_criterion_fails_when_the_coarse_duhamel_sum_keeps_every_sample(monkeypatch):
    # ``_nonres_filon`` without its [::coarsen] slice: the step-doubled
    # Duhamel sum runs over every sample at twice the step, so the error
    # estimate grows about 2e5-fold while the residual stays put, and only
    # the lower end of the residual / estimate band can see it
    def mutant(traj, g, coarsen=1):
        limit = traj.spec.interaction_limit(traj.n_grid)
        table = grid_triples(limit)
        phi = table.phi.astype(np.float64)
        integrals = oscillatory_integral(phi, g, traj.step_size() * coarsen)
        integrals = integrals * np.exp(-1j * phi * float(traj.times[0]))
        return table.scatter(integrals, 2 * limit + 1)

    monkeypatch.setattr(normalform, "_nonres_filon", mutant)
    report = run_criterion("04-05-normal-form-identity", scale="smoke")
    assert report.scalars["min_duhamel_over_estimate"] < 0.5
    assert not report.flags["duhamel_ok"]
    assert not report.passed


def test_liouville_criterion_fails_when_the_tangent_flow_is_damped(monkeypatch):
    # a damping term -eps I, eps = 1e-3, in the tangent builder's A: the real
    # trace of the tangent field A W + B conj(W) is 2 Re tr A, so the log
    # determinant moves by about 2 D eps t = 9e-4 at N = 4 (D = 9) and the
    # smoke time t = 0.05, against the 1e-6 tolerance, and the field's
    # divergence 2 Re tr A reads -2 D eps, -1.8e-2 at N = 4 and -3.4e-2 at
    # N = 8, against the 1e-12 tolerance
    exact = dynamics.tangent_matrices

    def mutant(spec, V, t, n_grid):
        A, B = exact(spec, V, t, n_grid)
        return A - 1e-3 * np.eye(A.shape[-1]), B

    monkeypatch.setattr(dynamics, "tangent_matrices", mutant)
    report = run_criterion("06-liouville", scale="smoke")
    assert report.scalars["max_abs_log_det_N4"] > 1e-6
    assert not report.flags["volume_ok_N4"]
    assert not report.flags["divergence_ok_N4"]
    assert not report.flags["divergence_ok_N8"]
    assert not report.passed


def test_measure_invariance_criterion_fails_when_a_mode_is_scaled(monkeypatch):
    # the transforms with mode +1 scaled by 1.05: the pushed-forward law of
    # that mode is no longer the Gaussian's, so its moments move by about
    # 10 % and the modulus of the transformed draws is no longer exact
    exact = measures._apply_transform

    def mutant(V, transform, t, n_grid, seed):
        out = exact(V, transform, t, n_grid, seed)
        out[..., n_grid + 1] *= 1.05
        return out

    monkeypatch.setattr(measures, "_apply_transform", mutant)
    report = run_criterion("07-measure-invariance", scale="smoke")
    assert report.scalars["meta_passes"] == 0
    assert report.scalars["worst_abs_z"] > 4.0
    assert not report.flags["meta_test_ok"]
    assert not report.flags["modulus_exact"]
    assert not report.passed


def test_energy_derivative_criterion_fails_when_the_inner_sum_is_off(monkeypatch):
    # the inner nonresonant sum of the sextic terms off by a factor 1 + 1e-3:
    # the analytic derivative moves by about 1e-3 relative, against the
    # 1e-5 gate on its distance to the refined finite difference
    exact = dynamics.gamma_sum

    def mutant(V, t, n_grid):
        return exact(V, t, n_grid) * (1.0 + 1e-3)

    monkeypatch.setattr(energy, "gamma_sum", mutant)
    report = run_criterion("08-energy-derivative-identity", scale="smoke")
    assert report.scalars["max_rel_error_refined_fd"] > 1e-5
    assert not report.flags["identity_ok"]
    assert not report.passed


def test_energy_derivative_criterion_fails_when_a_term_coefficient_is_off(monkeypatch):
    # the shared six-term kernel with its n1 coefficient 4 scaled by 1.001:
    # criterion 09 sums the same kernel's terms, so 08 sees what 09 runs
    exact = energy._sextic_terms

    def mutant(V, t, s, trunc_n):
        terms = exact(V, t, s, trunc_n)
        terms[0] *= 1.001
        return terms

    monkeypatch.setattr(energy, "_sextic_terms", mutant)
    report = run_criterion("08-energy-derivative-identity", scale="smoke")
    assert report.scalars["max_rel_error_refined_fd"] > 1e-5
    assert not report.flags["identity_ok"]
    assert not report.passed


def test_truncation_criterion_fails_when_approx_physical_is_stepped_untruncated(monkeypatch):
    # ``interaction_limit`` returns the grid for approx_physical: each
    # truncated flow is then the physical reference flow itself, so every
    # mean distance reads 0 and none is half of another
    exact = dynamics.FlowSpec.interaction_limit

    def mutant(self, n_grid):
        return n_grid if self.variant == "approx_physical" else exact(self, n_grid)

    monkeypatch.setattr(dynamics.FlowSpec, "interaction_limit", mutant)
    report = run_criterion("11-truncation-approximation", scale="smoke")
    assert report.scalars["mean_l2_N32"] == report.scalars["mean_l2_N8"] == 0.0
    assert not report.flags["halved"]
    assert not report.passed


def test_weight_convergence_criterion_fails_when_the_truncated_block_is_off_centre(monkeypatch):
    # ``_weights_batch`` takes the truncated block from the bottom of the band,
    # modes -n_grid .. -n_grid + 2 trunc, in place of |n| <= trunc: the
    # truncated weights no longer approach the full ones, and the distances
    # stay flat at about 0.1 for every cutoff
    def mutant(V, trunc, r, t, s, n_grid):
        inside = measures.sobolev_norm_array(V, 0.0) <= r
        expo = -0.5 * energy.correction_array(V[..., : 2 * trunc + 1], t, s, trunc)
        return np.where(inside, np.exp(expo), 0.0)

    monkeypatch.setattr(measures, "_weights_batch", mutant)
    report = run_criterion("12-weight-convergence", scale="smoke")
    assert report.scalars["l2_distance_N8"] > 0.05
    assert not report.flags["decreasing"]
    assert not report.passed
