"""Seeded defects that the acceptance criteria must catch.

Each test plants one named mutant by monkeypatching one library function
and asserts that its criterion fails, at the smallest scale that catches it.
"""

import numpy as np

from bnls import acceptance, dynamics, normalform
from bnls._quadrature import oscillatory_integral
from bnls.acceptance import run_criterion
from bnls.resonance import grid_triples


def test_mass_criterion_fails_when_a_gauss_coefficient_is_off(monkeypatch):
    # ``_gauss`` with a12 off by +1e-3: the tableau no longer satisfies the
    # condition under which every step conserves quadratic invariants, so the
    # mass drifts by about 1e-8 per variant against the 1e-9 tolerance
    def mutant(f, fp_tol=1e-15, fp_max=30):
        r = np.sqrt(3.0) / 6.0
        c1, c2 = 0.5 - r, 0.5 + r
        a11, a12, a21, a22 = 0.25, 0.25 - r + 1e-3, 0.25 + r, 0.25

        def step(t, y, h):
            k1 = k2 = f(t + c1 * h, y)
            scale = 1.0 + float(np.max(np.abs(y)))
            for _ in range(fp_max):
                k1_new = f(t + c1 * h, y + h * (a11 * k1 + a12 * k2))
                k2_new = f(t + c2 * h, y + h * (a21 * k1_new + a22 * k2))
                delta = max(float(np.max(np.abs(k1_new - k1))), float(np.max(np.abs(k2_new - k2))))
                k1, k2 = k1_new, k2_new
                if abs(h) * delta <= fp_tol * scale:
                    break
            return y + (0.5 * h) * (k1 + k2)

        return step

    monkeypatch.setitem(dynamics._STEPPERS, "gauss", mutant)
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
    # smoke time t = 0.05, against the 1e-6 tolerance
    exact = dynamics.tangent_matrices

    def mutant(spec, V, t, n_grid):
        A, B = exact(spec, V, t, n_grid)
        return A - 1e-3 * np.eye(A.shape[-1]), B

    monkeypatch.setattr(normalform, "tangent_matrices", mutant)
    report = run_criterion("06-liouville", scale="smoke")
    assert report.scalars["max_abs_log_det_N4"] > 1e-6
    assert not report.flags["volume_ok_N4"]
    assert not report.passed
