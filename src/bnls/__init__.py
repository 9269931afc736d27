"""Spectral laboratory for the cubic fourth-order NLS on the circle.

Fields, exact resonance arithmetic, flow variants with gauge and
interaction-picture maps, normal-form and modified-energy diagnostics,
and Gaussian-measure transport experiments.
"""

from .dynamics import (
    FlowSpec,
    Trajectory,
    evolve,
    from_interaction,
    gauge_forward,
    gauge_inverse,
    residual,
    rhs,
    single_mode_solution,
    to_interaction,
)
from .energy import correction, derivative_terms, energy_bound_scan, modified_energy
from .fields import (
    SpectralField,
    hamiltonian,
    mass,
    project_low,
    sobolev_norm,
)
from .measures import (
    Ensemble,
    EventSpec,
    GaussianSpec,
    invariance_test,
    liouville_check,
    lp_weight_convergence,
    measure_growth_experiment,
    sample,
    tail_sanity,
)
from .normalform import (
    DuhamelSplit,
    NormalFormTerms,
    dk_hs_diagnostics,
    duhamel_split,
    normal_form_terms,
    smoothing_report,
)
from .reports import DiagnosticsReport
from .resonance import (
    TripleSet,
    count_triples_with_factor,
    divisor_count,
    nonresonant_triples,
    phase,
    phase_factored,
)

__version__ = "0.1.0"
