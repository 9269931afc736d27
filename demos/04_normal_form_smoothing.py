"""Normal-form reduction: the oscillatory Duhamel term gains derivatives.

Splits the solution increment into oscillatory and resonant parts, checks
the integration-by-parts identity, and reports the measured smoothing
ratios together with the Hilbert-Schmidt profile of the flow derivative.
"""

from bnls import FlowSpec, evolve, sobolev_norm
from bnls.measures import GaussianSpec, sample
from bnls.normalform import dk_hs_diagnostics, duhamel_split, normal_form_terms, smoothing_report

s = 1.5
f0 = sample(GaussianSpec(s=s, sample_cutoff=8, seed=4), 1).fields[0]
spec = FlowSpec(variant="interaction", dt=1e-4, integrator="filon")
traj = evolve(spec, f0, 0.0, 0.05)

split = duhamel_split(traj)
terms = normal_form_terms(traj)
identity_residual = sobolev_norm(terms.total() - split.nonresonant, 0.0)
print("normal-form identity residual:", identity_residual)
print("quadrature error estimate    :", split.quadrature_error_estimate)

rep = smoothing_report(traj, s)
print(f"\noscillatory part: |.|_H^{s + 2}   = {rep['nonresonant_hs2']:.4e}"
      f"  (bound ratio {rep['nonresonant_ratio']:.3f})")
print(f"resonant part   : |.|_H^{3 * s} = {rep['resonant_h3s']:.4e}"
      f"  (bound ratio {rep['resonant_ratio']:.3f})")

dk = dk_hs_diagnostics(f0, 0.05, s, 8)
print("\nflow-derivative Hilbert-Schmidt norm:", round(dk["hs_norm"], 4))
print("column-norm decay exponent          :", round(dk["decay_exponent"], 3))
print("regularity-split feasibility        :", dk["exponents_feasible"])
