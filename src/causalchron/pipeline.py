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
    network_doc,
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
_STRONG = (STRONG_OFF, STRONG_ON)
_ROOT = ((), (0.5,))


def _network(spec: dict) -> DiscreteBayesNet:
    """The network of a ``{node: (parents, p1)}`` table; nodes keep the table's order."""
    dag = Dag(tuple(spec), [(p, node) for node, (parents, _) in spec.items() for p in parents])
    return DiscreteBayesNet(dag, tuple(Cpt(node, parents, p1) for node, (parents, p1) in spec.items()))


def _labels(d: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(d))


#: the fixed three- and four-node presets
_SHAPES = {
    "fork": {"x1": _ROOT, "x2": (("x1",), _STRONG), "x3": (("x1",), _STRONG)},
    "collider": {"x1": _ROOT, "x2": _ROOT, "x3": (("x1", "x2"), (0.05, 0.7, 0.7, 0.95))},
    "diamond": {
        "x1": _ROOT,
        "x2": (("x1",), _STRONG),
        "x3": (("x1",), _STRONG),
        "x4": (("x2", "x3"), (0.05, 0.6, 0.6, 0.95)),
    },
}


def _random_network(labels: tuple[str, ...], edge_prob: float, seed: int) -> DiscreteBayesNet:
    """Each forward pair (i < j) is an edge with ``edge_prob``; tables are uniform on [0.05, 0.95]."""
    d = len(labels)
    rng = np.random.default_rng(spawn_seed(seed, "random-preset", d))
    drawn = [(i, j) for i in range(d) for j in range(i + 1, d) if rng.random() < edge_prob]
    parents = [tuple(labels[i] for i, j in drawn if j == child) for child in range(d)]
    return _network({node: (ps, rng.uniform(0.05, 0.95, size=1 << len(ps))) for node, ps in zip(labels, parents)})


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
        labels = _labels(d)
        return _network({node: (labels[i - 1 : i], _STRONG) if i else _ROOT for i, node in enumerate(labels)})
    if name in _SHAPES:
        return _network(_SHAPES[name])
    if name.startswith("random-"):
        parts = name.split("-")
        if len(parts) != 3:
            raise ValueError("random preset reads random-<d>-<edge_prob>, e.g. random-6-0.3")
        return _random_network(_labels(int(parts[1])), float(parts[2]), seed)
    if name in _SITE_PRESETS:
        return _random_network(_SITE_PRESETS[name][0], 0.25, seed)
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
    complete = sample(bn, n, seed=_child_seed(spec.seed, "scenario-sample"))
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
        **network_doc(bn),
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


def _child_seed(master: int, *tags: object) -> int:
    """The integer seed of one consumer of ``master``, named by ``tags``."""
    return int(spawn_seed(master, *tags).generate_state(1)[0])


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute every stage, write artifacts, and return the aggregate report.

    Any stage failure raises :class:`StageFailure` naming the stage;
    artifacts written before the failure are retained for inspection.
    Stage functions are looked up in this module when the stage runs, so
    a wrapper installed on a module name sees every call.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []

    def emit(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8")
        artifacts.append(name)

    def stage(name: str, fn, /, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StageFailure:
            raise
        except Exception as exc:
            raise StageFailure(name, exc) from exc

    def simulated() -> EventMatrix:
        matrix, truth = simulate(cfg.scenario)
        emit("truth.json", _canonical_json(truth))
        save_reads(matrix, out / "data.csv")
        artifacts.append("data.csv")
        return matrix

    def excluded(matrix: EventMatrix) -> EventMatrix:
        kept = [c for c in matrix.columns if c not in cfg.exclude]
        if len(kept) < 2:
            raise ValueError(
                f"exclude={list(cfg.exclude)} leaves the events {kept}; the pipeline needs at least 2"
            )
        return exclude_events(matrix, cfg.exclude)

    if cfg.input_path is not None:
        matrix = stage("load", load_reads, cfg.input_path)
    else:
        matrix = stage("load", simulated)
    if cfg.exclude:
        matrix = stage("exclude", excluded, matrix)
    emit("missingness.json", missingness_profile(matrix).to_json())

    # every learner was built once when the config was, so get_learner cannot fail here
    imputation = stage(
        "impute",
        em_impute,
        matrix,
        get_learner(cfg.impute_learner, **cfg.learner_params.get(cfg.impute_learner, {})),
        max_iter=cfg.impute_max_iter,
        tol=cfg.impute_tol,
        ess=cfg.ess,
        seed=_child_seed(cfg.seed, "impute"),
        initial_method=cfg.impute_method,
    )
    completed = imputation.completed
    save_reads(completed, out / "data.imputed.csv")
    artifacts.append("data.imputed.csv")
    emit("imputation.json", imputation.report_json())

    report: dict = {"models": {}, "config": cfg.to_doc()}
    models: list[tuple[str, Dag]] = []
    for algo in cfg.algorithms:
        learner = get_learner(algo, **cfg.learner_params.get(algo, {}))
        dag = stage(f"discover:{algo}", learner, completed, _child_seed(cfg.seed, "discover", algo))
        write_dag(dag, out / f"dag.{algo}.edges")
        artifacts.append(f"dag.{algo}.edges")
        emit(f"dag.{algo}.dot", dag.to_dot(name=algo))

        bn = stage(f"effects:{algo}", fit_cpts, dag, completed, ess=cfg.ess)
        table = stage(
            f"effects:{algo}",
            effects_for_dag,
            bn,
            completed,
            refutations=cfg.refutations,
            seed=_child_seed(cfg.seed, "effects", algo),
            ess=cfg.ess,
        )
        emit(f"effects.{algo}.csv", table.to_csv())
        emit(f"effects.{algo}.json", table.to_json())

        strong = stage(f"chronology:{algo}", strong_causal_relations, table)
        tree = stage(f"chronology:{algo}", build_chronology, dag, strong)
        emit(f"chronology.{algo}.dot", tree.to_dot())
        emit(f"chronology.{algo}.edges", tree.to_edge_list())
        model_dag = tree.as_dag(node_order=completed.columns)
        models.append((algo, model_dag))
        report["models"][algo] = {
            "discovered_edges": [list(e) for e in dag.sorted_edges()],
            "tree_edges": [list(e) for e in model_dag.sorted_edges()],
            "levels": {n: lvl for n, lvl in sorted(tree.levels.items())},
            "validated_relations": len(table.validated_rows()),
        }

    for name, path in cfg.reference_models:
        edges = stage(f"reference:{name}", read_dag, path).edges
        models.append((name, stage(f"reference:{name}", Dag, completed.columns, edges)))

    scores = stage("compare", compare_models, models, completed, ess=cfg.ess)
    emit("scores.csv", scores_to_csv(scores))
    report["scores"] = [
        {"name": s.name, "bic": s.bic, "log_likelihood": s.log_likelihood} for s in scores
    ]

    verdicts = {}
    for name, dag in models:
        seed = _child_seed(cfg.seed, "falsify", name)
        verdict = stage(f"falsify:{name}", falsify, dag, completed, n_perm=cfg.falsify_perms, seed=seed)
        emit(f"falsify.{name}.json", verdict.to_json())
        verdicts[name] = {
            "falsifiable": verdict.falsifiable,
            "falsified": verdict.falsified,
            "v_given": verdict.v_given,
            "p_value": verdict.p_value,
        }
    report["falsification"] = verdicts

    consensus = stage("consensus", consensus_edges, [dag for _, dag in models])
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
