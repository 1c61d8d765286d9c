"""Causal chronology reconstruction for binary event matrices.

The package turns incomplete 0/1 observation matrices into ordered event
timelines: load and summarize the data, impute missing cells jointly with
Bayesian-network learning, discover candidate structures with four
algorithms, quantify each edge with exact interventional effects, keep the
strongest cause per outcome to form a chronology tree, and score or
falsify the competing models.
"""

from .bayesnet import (
    CiStatement,
    Cpt,
    Dag,
    DiscreteBayesNet,
    ZeroProbabilityEvidence,
    bic_score,
    d_separated,
    fit_cpts,
    local_markov_statements,
    log_likelihood,
    query,
    sample,
    topological_levels,
)
from .causal import (
    CausalRelationTable,
    EffectEstimate,
    RefutationResult,
    ace,
    ace_surgery,
    backdoor_set,
    effects_for_dag,
    mediators,
    nde,
    refute,
)
from .chronology import (
    BaselineChronology,
    ChronologyTree,
    ConsensusSummary,
    FalsificationVerdict,
    build_chronology,
    compare_models,
    consensus_edges,
    deterministic_chronology,
    falsify,
    strong_causal_relations,
)
from .dataset import (
    MISSING,
    ContingencyTable,
    EventMatrix,
    MissingnessProfile,
    TokenSchema,
    UnknownTokenError,
    contingency,
    cooccurrence_counts,
    exclude_events,
    load_reads,
    missingness_profile,
    save_reads,
)
from .discovery import (
    G2Result,
    NotearsConvergenceError,
    PcResult,
    StabilityReport,
    WeightedAdjacency,
    acyclicity_h,
    ci_test_g2,
    fisher_exact,
    get_learner,
    hc_learn,
    lingam_learn,
    notears_learn,
    pc_learn,
    stability_select,
)
from .imputation import ImputationResult, edge_change_fraction, em_impute, initial_impute
from .pipeline import PipelineConfig, ScenarioSpec, preset_network, run_pipeline, simulate

__version__ = "0.1.0"
