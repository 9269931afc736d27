"""Transport of the weighted Gaussian measure under the truncated flow.

Volume preservation of the finite system, the two-estimator
change-of-variable identity, convergence of the truncated weights, and the
growth exponent of transported small events.
"""

from bnls.measures import (
    EventSpec,
    GaussianSpec,
    change_of_variable_suite,
    liouville_check,
    lp_weight_convergence,
    measure_growth_experiment,
    sample,
)

u0 = sample(GaussianSpec(s=1.0, sample_cutoff=4, r=2.0, seed=8), 1).fields[0]
rep = liouville_check(4, 0.3, u0, dt=1e-3)
print("finite flow, Jacobian |log det| :", rep["abs_log_det"])
print("field divergence 2 Re tr A      :", rep["divergence"], rep["divergence_zero"], rep["no_diagonal_triples"])

events = {
    "box": EventSpec(kind="box", coords=((1, "re"),), lo=(-0.5,), hi=(0.5,)),
    "ball": EventSpec(kind="ball", coords=((0, "re"), (0, "im")), center=(0.0, 0.0), radius=1.0),
}
suite = change_of_variable_suite(4, 2.0, 0.1, 1.0, 8000, events, seed=9, dt=2e-3)
print("\ntransported measure, two independent estimators:")
for name, res in suite["events"].items():
    print(
        f"  {name:5s}: pullback {res['estimate_pullback']:.4f} +- {res['se_pullback']:.4f}, "
        f"reweight {res['estimate_reweight']:.4f} +- {res['se_reweight']:.4f}, z = {res['z']:+.2f}"
    )

conv = lp_weight_convergence(GaussianSpec(s=1.0, sample_cutoff=16, seed=10), 2.0, 0.1, [2.0], [2, 4, 8], 8000)
print("\nL2 distance of truncated weights to the full weight:")
for row in conv["distances"]["2.0"]:
    print(f"  N = {row['N']}: {row['estimate']:.5f} +- {row['std_error']:.5f}")

growth = measure_growth_experiment(4, 2.0, 0.1, 1.0, [1.6, 1.2, 0.9, 0.65], 8000, seed=11, dt=2e-3)
print(f"\nmeasure growth exponent: {growth['exponent']:.3f} +- {growth['exponent_se']:.3f}")
