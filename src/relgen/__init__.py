"""Bayesian strategies for generalizing relations to sparsely observed systems.

Three models over binary relational data on n entities:

- a nonparametric block model that infers latent entity classes and
  class-pair link probabilities from scratch (``irm``),
- a mixture over previously learned systems whose parameters are frozen and
  only the entity-to-class mapping is inferred (``analogy``),
- a mixture of both, with a concentration knob trading stored structure
  against fresh structure (``hybrid``).

``datagen`` simulates ground-truth systems and observation splits; ``cli``
wires everything into a reproducible evaluation grid.
"""

from types import ModuleType as _ModuleType

from .core import (
    ConfigError,
    DegenerateWeightsError,
    DimensionError,
    GenerationError,
    Hyperparameters,
    OptimizationError,
    Partition,
    PosteriorSamples,
    RelationData,
    SplitError,
    StoredSystem,
    bernoulli_loglik,
    canonical_labels,
    clamp_probs,
    collapsed_loglik,
    harmonic_mean_evidence,
    pair_counts,
    predictive_prob,
)
from .crp import crp_assignment_probs, crp_log_prior, sample_partition
from .irm import (
    McmcSchedule,
    conditional_class_logweights,
    gibbs_sweep,
    irm_predict_cells,
    mh_update_alpha,
    mh_update_gamma,
    run_irm_chain,
)
from .analogy import (
    AnalogyReport,
    analogy_predict_cells,
    analogy_report,
    analogy_weights,
    gibbs_sweep_stored,
    run_stored_chain,
    sample_stored_assignments,
    stored_component_predictions,
)
from .hybrid import (
    hybrid_component_predictions,
    hybrid_log_evidences,
    hybrid_prior,
    hybrid_weights,
    optimize_tau,
)
from .datagen import (
    SplitSpec,
    dataset_from_text,
    dataset_to_text,
    generate_synthetic_system,
    load_dataset,
    load_system,
    load_systems_dir,
    make_split,
    save_dataset,
    save_system,
    simulate_interactions,
    system_from_text,
    system_to_text,
)
from .cli import (
    ExperimentConfig,
    ResultRow,
    SummaryRow,
    derive_seed,
    emit_results_csv,
    emit_summary_csv,
    evaluate,
    main,
    parse_results_csv,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"

# every name imported above; the submodules themselves stay out
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
