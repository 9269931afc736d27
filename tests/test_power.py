"""Seeded defects that the acceptance criteria must catch.

Each test plants one named mutant by monkeypatching one library function
and asserts that its criterion fails, at the smallest scale that catches it.
"""

import numpy as np

from bnls import normalform
from bnls._quadrature import oscillatory_integral
from bnls.acceptance import run_criterion
from bnls.resonance import grid_triples


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
