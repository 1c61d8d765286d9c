"""End-to-end orchestration: scenarios, stage sequencing, artifacts.

A run reads one input (file or synthetic scenario), imputes it once with
the configured learner, hands the completed matrix to every requested
discovery algorithm, estimates effects and builds a chronology per
algorithm, scores all models (plus any user-supplied reference graphs),
falsifies each, and summarizes consensus edges.  Every artifact is written
with deterministic bytes so a rerun with the same config and seed
reproduces the output directory exactly.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ._coerce import coerce
from ._rng import spawn_seed
from .bayesnet import (
    Cpt,
    Dag,
    DiscreteBayesNet,
    fit_cpts,
    read_dag,
    sample,
    write_dag,
)
from .causal import REFUTATION_MODES, ace_surgery, effects_for_dag
from .chronology import (
    build_chronology,
    compare_models,
    consensus_edges,
    falsify,
    scores_to_csv,
    strong_causal_relations,
)
from .dataset import EventMatrix, exclude_events, load_reads, missingness_profile, save_reads
from .discovery import LEARNER_NAMES, get_learner
from .imputation import INITIAL_FILLS, em_impute

__all__ = [
    "ScenarioSpec",
    "PipelineConfig",
    "StageFailure",
    "preset_network",
    "simulate",
    "run_pipeline",
]


class StageFailure(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# synthetic scenarios
# ---------------------------------------------------------------------------

STRONG_ON, STRONG_OFF = 0.9, 0.1


def _chain(labels: tuple[str, ...]) -> DiscreteBayesNet:
    edges = [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    dag = Dag(labels, edges)
    cpts = [Cpt(labels[0], (), np.array([0.5]))]
    cpts += [
        Cpt(labels[i + 1], (labels[i],), np.array([STRONG_OFF, STRONG_ON]))
        for i in range(len(labels) - 1)
    ]
    return DiscreteBayesNet(dag, tuple(cpts))


def _fork() -> DiscreteBayesNet:
    dag = Dag(("x1", "x2", "x3"), [("x1", "x2"), ("x1", "x3")])
    table = np.array([STRONG_OFF, STRONG_ON])
    return DiscreteBayesNet(
        dag,
        (
            Cpt("x1", (), np.array([0.5])),
            Cpt("x2", ("x1",), table),
            Cpt("x3", ("x1",), table),
        ),
    )


def _collider() -> DiscreteBayesNet:
    dag = Dag(("x1", "x2", "x3"), [("x1", "x3"), ("x2", "x3")])
    return DiscreteBayesNet(
        dag,
        (
            Cpt("x1", (), np.array([0.5])),
            Cpt("x2", (), np.array([0.5])),
            Cpt("x3", ("x1", "x2"), np.array([0.05, 0.7, 0.7, 0.95])),
        ),
    )


def _diamond() -> DiscreteBayesNet:
    dag = Dag(
        ("x1", "x2", "x3", "x4"),
        [("x1", "x2"), ("x1", "x3"), ("x2", "x4"), ("x3", "x4")],
    )
    table = np.array([STRONG_OFF, STRONG_ON])
    return DiscreteBayesNet(
        dag,
        (
            Cpt("x1", (), np.array([0.5])),
            Cpt("x2", ("x1",), table),
            Cpt("x3", ("x1",), table),
            Cpt("x4", ("x2", "x3"), np.array([0.05, 0.6, 0.6, 0.95])),
        ),
    )


def _random_network(d: int, edge_prob: float, seed: int) -> DiscreteBayesNet:
    rng = np.random.default_rng(spawn_seed(seed, "random-preset", d))
    labels = tuple(f"x{i + 1}" for i in range(d))
    edges = [
        (labels[i], labels[j])
        for i in range(d)
        for j in range(i + 1, d)
        if rng.random() < edge_prob
    ]
    dag = Dag(labels, edges)
    cpts = []
    for node in labels:
        k = len(dag.parents(node))
        cpts.append(Cpt(node, dag.parents(node), rng.uniform(0.05, 0.95, size=1 << k)))
    return DiscreteBayesNet(dag, tuple(cpts))


#: synthetic stand-ins shaped like the two real gene datasets (12 events x
#: 1899 reads, 5 events x 7752 reads); the generating networks are random
#: because the original read archives are not distributed
_SITE_PRESETS = {
    "ndhb-like": (
        tuple(
            f"ndhB_{site}"
            for site in (
                94622, 94999, 95225, 95608, 95644, 95650,
                96419, 96439, 96457, 96579, 96698, 97016,
            )
        ),
        1899,
        0.5,
    ),
    "ndhd-like": (
        tuple(f"ndhD_{site}" for site in (116281, 116290, 116494, 116785, 117166)),
        7752,
        0.35,
    ),
}


def preset_network(name: str, seed: int = 0) -> DiscreteBayesNet:
    """Named generating networks for synthetic scenarios."""
    if name.startswith("chain"):
        d = int(name.split("-")[1]) if "-" in name else 5
        if d < 2:
            raise ValueError("chain preset needs at least 2 nodes")
        return _chain(tuple(f"x{i + 1}" for i in range(d)))
    if name == "fork":
        return _fork()
    if name == "collider":
        return _collider()
    if name == "diamond":
        return _diamond()
    if name.startswith("random-"):
        parts = name.split("-")
        if len(parts) != 3:
            raise ValueError("random preset reads random-<d>-<edge_prob>, e.g. random-6-0.3")
        return _random_network(int(parts[1]), float(parts[2]), seed)
    if name in _SITE_PRESETS:
        labels, _, _ = _SITE_PRESETS[name]
        rng_net = _random_network(len(labels), 0.25, seed)
        mapping = dict(zip(rng_net.dag.nodes, labels))
        dag = rng_net.dag.relabel(mapping)
        cpts = tuple(Cpt(mapping[c.node], dag.parents(mapping[c.node]), c.p1) for c in rng_net.cpts)
        return DiscreteBayesNet(dag, cpts)
    raise ValueError(f"unknown preset {name!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Synthetic scenario: a generating network, a size, and block missingness."""

    preset: str
    n_rows: int | None = None
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _coerce_fields(self, "scenario.")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")
        if self.n_rows is not None and self.n_rows < 1:
            raise ValueError("n_rows must be positive")
        preset_network(self.preset, seed=self.seed)  # an unknown preset fails here, not at load

    def resolved_rows(self) -> int:
        if self.n_rows is not None:
            return self.n_rows
        if self.preset in _SITE_PRESETS:
            return _SITE_PRESETS[self.preset][1]
        return 5000

    def resolved_rate(self) -> float:
        if self.missing_rate == 0.0 and self.preset in _SITE_PRESETS:
            return _SITE_PRESETS[self.preset][2]
        return self.missing_rate


def simulate(spec: ScenarioSpec) -> tuple[EventMatrix, dict]:
    """Sample a scenario and mask one contiguous block per row.

    Block starts are uniform, lengths geometric with mean rate x n_cols
    (truncated at the row end and capped below a full row), matching the
    single-block coverage-gap pattern.  Returns the matrix and a ground
    truth sidecar holding the generating graph, its tables, and the true
    effect of every edge computed by graph surgery.
    """
    bn = preset_network(spec.preset, seed=spec.seed)
    n = spec.resolved_rows()
    rate = spec.resolved_rate()
    complete = sample(bn, n, seed=int(spawn_seed(spec.seed, "scenario-sample").generate_state(1)[0]))
    values = complete.values.copy()
    d = values.shape[1]
    if rate > 0.0:
        rng = np.random.default_rng(spawn_seed(spec.seed, "scenario-mask"))
        mean_len = max(rate * d, 1e-9)
        p = min(1.0, 1.0 / mean_len)
        lengths = np.minimum(rng.geometric(p, size=n), d - 1)
        starts = rng.integers(0, d, size=n)
        for i in range(n):
            values[i, starts[i] : starts[i] + lengths[i]] = -1
    matrix = EventMatrix(
        complete.columns, values, provenance=f"simulate({spec.preset}, seed={spec.seed})"
    )
    truth = {
        "preset": spec.preset,
        "seed": spec.seed,
        "n_rows": n,
        "missing_rate": rate,
        "nodes": list(bn.dag.nodes),
        "edges": [list(e) for e in bn.dag.sorted_edges()],
        "cpts": [
            {"node": c.node, "parents": list(c.parents), "p1_by_assignment": [float(p) for p in c.p1]}
            for c in bn.cpts
        ],
        "true_ace": [
            {"treatment": p, "outcome": c, "value": ace_surgery(bn, p, c)}
            for p, c in bn.dag.sorted_edges()
        ],
        "synthetic": True,
    }
    return matrix, truth


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _default(fn, param: str):
    """The default ``fn`` declares for ``param``: a stage's signature is the one home of its defaults."""
    return inspect.signature(fn).parameters[param].default


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for one run; exactly one input source."""

    input_path: str | None = None
    scenario: ScenarioSpec | None = None
    exclude: tuple[str, ...] = ()
    impute_method: str = _default(em_impute, "initial_method")
    impute_learner: str = "hc"
    impute_tol: float = _default(em_impute, "tol")
    impute_max_iter: int = _default(em_impute, "max_iter")
    ess: float = _default(effects_for_dag, "ess")
    algorithms: tuple[str, ...] = ("hc", "pc", "lingam", "notears")
    learner_params: dict = field(default_factory=dict)
    refutations: str = _default(effects_for_dag, "refutations")
    reference_models: tuple[tuple[str, str], ...] = ()  # (name, dag file)
    falsify_perms: int = _default(falsify, "n_perm")
    seed: int = 0
    output_dir: str = "run"
    jobs: int = 1  # accepted for old configs and scripts; no stage runs in parallel, so it has no effect

    def __post_init__(self) -> None:
        _coerce_fields(self)
        if (self.input_path is None) == (self.scenario is None):
            raise ValueError("exactly one of input_path and scenario is required")
        unknown = set(self.algorithms) - set(LEARNER_NAMES)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        # model names key the scores and the artifact files (dag.<name>.edges, falsify.<name>.json)
        names = [name for name, _ in self.reference_models]
        models = [*self.algorithms, *names]
        for key, ok, rule in (
            ("algorithms", len(set(self.algorithms)) == len(self.algorithms), "must not repeat a name"),
            ("reference_models", len(set(models)) == len(models), "names must not repeat or equal an algorithm"),
            ("reference_models", all(n and "/" not in n for n in names), "names must be non-empty without '/'"),
            ("impute_learner", self.impute_learner in LEARNER_NAMES, f"must be one of {LEARNER_NAMES}"),
            ("ess", self.ess >= 0, "must be non-negative"),
            ("impute_method", self.impute_method in INITIAL_FILLS, f"must be one of {tuple(INITIAL_FILLS)}"),
            ("impute_max_iter", self.impute_max_iter >= 1, "must be at least 1"),
            ("impute_tol", self.impute_tol >= 0, "must be non-negative"),
            ("refutations", self.refutations in REFUTATION_MODES, f"must be one of {REFUTATION_MODES}"),
            ("falsify_perms", self.falsify_perms >= 0, "must be non-negative"),
        ):
            if not ok:
                raise ValueError(f"{key} {rule}, got {getattr(self, key)!r}")
        for name, params in self.learner_params.items():
            if not (isinstance(params, dict) and all(isinstance(key, str) for key in params)):
                raise ValueError(f"learner_params[{name!r}] must map parameter names to values, got {params!r}")
            get_learner(name, **params)  # the error names the learner and the parameter

    def to_doc(self) -> dict:
        """The settings that determine a run's artifacts (not where they go, nor the inert ``jobs``)."""
        return {key: value for key, value in asdict(self).items() if key not in ("output_dir", "jobs")}

    @classmethod
    def from_doc(cls, doc: dict) -> "PipelineConfig":
        """The config a JSON document describes; unset keys keep the field defaults."""
        kwargs = _known_keys(cls, doc, "config")
        if kwargs.get("scenario") is not None:
            kwargs["scenario"] = ScenarioSpec(**_known_keys(ScenarioSpec, kwargs["scenario"], "scenario"))
        return cls(**kwargs)


def _known_keys(cls: type, doc: object, what: str) -> dict:
    """``doc`` as keyword arguments for dataclass ``cls``: every required field and no others."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    for problem, keys in (("unknown", set(doc) - {f.name for f in fields(cls)}), ("missing", required - set(doc))):
        if keys:
            raise ValueError(f"{problem} {what} keys: {sorted(keys)}")
    return dict(doc)


def _coerce_fields(obj: object, prefix: str = "") -> None:
    """Convert each field of a frozen config dataclass to its declared type."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        object.__setattr__(obj, f.name, coerce(hints[f.name], getattr(obj, f.name), prefix + f.name))


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute every stage, write artifacts, and return the aggregate report.

    Any stage failure raises :class:`StageFailure` naming the stage;
    artifacts written before the failure are retained for inspection.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []

    def emit(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8")
        artifacts.append(name)

    def stage(name: str, fn):
        try:
            return fn()
        except StageFailure:
            raise
        except Exception as exc:
            raise StageFailure(name, exc) from exc

    def load_stage() -> EventMatrix:
        if cfg.input_path is not None:
            return load_reads(cfg.input_path)
        matrix, truth = simulate(cfg.scenario)
        emit("truth.json", _canonical_json(truth))
        save_reads(matrix, out / "data.csv")
        artifacts.append("data.csv")
        return matrix

    def exclude_stage() -> EventMatrix:
        kept = [c for c in matrix.columns if c not in cfg.exclude]
        if len(kept) < 2:
            raise ValueError(
                f"exclude={list(cfg.exclude)} leaves the events {kept}; the pipeline needs at least 2"
            )
        return exclude_events(matrix, cfg.exclude)

    matrix = stage("load", load_stage)
    if cfg.exclude:
        matrix = stage("exclude", exclude_stage)
    emit("missingness.json", missingness_profile(matrix).to_json())

    def impute_stage():
        learner = get_learner(cfg.impute_learner, **cfg.learner_params.get(cfg.impute_learner, {}))
        return em_impute(
            matrix,
            learner,
            max_iter=cfg.impute_max_iter,
            tol=cfg.impute_tol,
            ess=cfg.ess,
            seed=int(spawn_seed(cfg.seed, "impute").generate_state(1)[0]),
            initial_method=cfg.impute_method,
        )

    imputation = stage("impute", impute_stage)
    save_reads(imputation.completed, out / "data.imputed.csv")
    artifacts.append("data.imputed.csv")
    emit("imputation.json", imputation.report_json())
    completed = imputation.completed

    report: dict = {"models": {}, "config": cfg.to_doc()}
    models: list[tuple[str, Dag]] = []
    trees = {}
    for algo in cfg.algorithms:
        def discover_stage(algo=algo) -> Dag:
            learner = get_learner(algo, **cfg.learner_params.get(algo, {}))
            return learner(completed, int(spawn_seed(cfg.seed, "discover", algo).generate_state(1)[0]))

        dag = stage(f"discover:{algo}", discover_stage)
        write_dag(dag, out / f"dag.{algo}.edges")
        artifacts.append(f"dag.{algo}.edges")
        emit(f"dag.{algo}.dot", dag.to_dot(name=algo))

        def effects_stage(algo=algo, dag=dag):
            bn = fit_cpts(dag, completed, ess=cfg.ess)
            return effects_for_dag(
                bn,
                completed,
                refutations=cfg.refutations,
                seed=int(spawn_seed(cfg.seed, "effects", algo).generate_state(1)[0]),
                ess=cfg.ess,
            )

        table = stage(f"effects:{algo}", effects_stage)
        emit(f"effects.{algo}.csv", table.to_csv())
        emit(f"effects.{algo}.json", table.to_json())

        def chronology_stage(dag=dag, table=table):
            return build_chronology(dag, strong_causal_relations(table))

        tree = stage(f"chronology:{algo}", chronology_stage)
        emit(f"chronology.{algo}.dot", tree.to_dot())
        emit(f"chronology.{algo}.edges", tree.to_edge_list())
        trees[algo] = tree
        model_dag = tree.as_dag(node_order=completed.columns)
        models.append((algo, model_dag))
        report["models"][algo] = {
            "discovered_edges": [list(e) for e in dag.sorted_edges()],
            "tree_edges": [list(e) for e in model_dag.sorted_edges()],
            "levels": {n: lvl for n, lvl in sorted(tree.levels.items())},
            "validated_relations": len(table.validated_rows()),
        }

    for name, path in cfg.reference_models:
        def reference_stage(name=name, path=path) -> Dag:
            dag = read_dag(path)
            return Dag(completed.columns, dag.edges)

        models.append((name, stage(f"reference:{name}", reference_stage)))

    scores = stage("compare", lambda: compare_models(models, completed, ess=cfg.ess))
    emit("scores.csv", scores_to_csv(scores))
    report["scores"] = [
        {"name": s.name, "bic": s.bic, "log_likelihood": s.log_likelihood} for s in scores
    ]

    verdicts = {}
    for name, dag in models:
        def falsify_stage(name=name, dag=dag):
            return falsify(
                dag,
                completed,
                n_perm=cfg.falsify_perms,
                seed=int(spawn_seed(cfg.seed, "falsify", name).generate_state(1)[0]),
            )

        verdict = stage(f"falsify:{name}", falsify_stage)
        emit(f"falsify.{name}.json", verdict.to_json())
        verdicts[name] = {
            "falsifiable": verdict.falsifiable,
            "falsified": verdict.falsified,
            "v_given": verdict.v_given,
            "p_value": verdict.p_value,
        }
    report["falsification"] = verdicts

    consensus = stage("consensus", lambda: consensus_edges([dag for _, dag in models]))
    emit("consensus.json", consensus.to_json())
    report["consensus_directed"] = [list(e) for e in consensus.consensus_directed]
    report["consensus_undirected"] = [sorted(p) for p in consensus.consensus_undirected]

    config_json = _canonical_json(cfg.to_doc())
    manifest = {
        "config": cfg.to_doc(),
        "config_hash": hashlib.sha256(config_json.encode("utf-8")).hexdigest(),
        "seed": cfg.seed,
        "artifacts": sorted(set(artifacts) | {"manifest.json", "report.json"}),
    }
    emit("manifest.json", _canonical_json(manifest))
    emit("report.json", _canonical_json(report))
    return report
