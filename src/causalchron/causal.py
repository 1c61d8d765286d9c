"""Interventional effect estimation on a fitted discrete network.

Effects are computed exactly on the fitted model by backdoor adjustment
(no regression or matching noise), so the quality of the learned structure
is the only source of error, and an independent do-operator implementation
(graph surgery / truncated factorization) is available as an oracle.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._coerce import check_ranges
from ._rng import spawn_seed
from .bayesnet import (
    Cpt,
    Dag,
    DiscreteBayesNet,
    ZeroProbabilityEvidence,
    _conditional_table,
    _fit_p1,
    _require_fittable,
    fit_cpts,  # noqa: F401  unused here; perfbench/tracer.py patches causal.fit_cpts by name
    marginal,
    query,
)
from .dataset import EventMatrix

__all__ = [
    "EffectEstimate",
    "RefutationResult",
    "CausalRelationTable",
    "backdoor_set",
    "ace",
    "ace_surgery",
    "nde",
    "mediators",
    "effects_for_dag",
    "refute",
    "REFUTATION_KINDS",
    "REFUTATION_MODES",
]

REFUTATION_KINDS = ("placebo", "subset", "random_common_cause")
#: ``effects_for_dag`` runs every refutation kind per edge, or none
REFUTATION_MODES = ("all", "none")

#: the allowed values of the parameters :func:`effects_for_dag` checks
PARAM_RANGES = {"refutations": (lambda r: r in REFUTATION_MODES, f"one of {REFUTATION_MODES}")}

#: |refuted value| (placebo) or |refuted - value| (common cause) must stay within this
ABS_TOLERANCE = 0.05
#: subset refutation allows 10% relative drift plus a small absolute slack
SUBSET_REL_TOLERANCE = 0.10
SUBSET_ABS_TOLERANCE = 0.02
SUBSET_DRAWS = 20
SUBSET_FRACTION = 0.8


@dataclass(frozen=True)
class RefutationResult:
    kind: str
    refuted_value: float
    passed: bool
    tolerance: float


@dataclass(frozen=True)
class EffectEstimate:
    treatment: str
    outcome: str
    estimand_kind: str  # "ACE" or "NDE"
    value: float
    adjustment_set: frozenset[str]
    mediators: frozenset[str]

    def __post_init__(self) -> None:
        if not -1.0 <= self.value <= 1.0:
            raise ValueError("effect values live in [-1, 1]")
        if self.estimand_kind == "NDE" and not self.mediators:
            raise ValueError("NDE estimates need a nonempty mediator set")
        if self.estimand_kind == "ACE" and self.mediators:
            raise ValueError("ACE estimates carry no mediators")


def backdoor_set(g: Dag, x: str, y: str) -> frozenset[str]:
    """Adjustment set for the effect of x on y: the parents of x.

    Adjustment for the direct causes of x (Pearl, *Causality*, 2009, Thm
    3.2.2) is valid in every DAG whose outcome is not one of them: no
    parent of x descends from x, and the parents block every backdoor
    path.  When y is a parent of x, the effect of x on y is zero and
    :func:`ace_surgery` gives it.
    """
    if x == y:
        raise ValueError("treatment and outcome must differ")
    z = frozenset(g.parents(x))
    if y in z:
        raise ValueError(f"outcome {y!r} is a parent of treatment {x!r}; its effect is zero: use ace_surgery()")
    return z


def mediators(g: Dag, x: str, y: str) -> frozenset[str]:
    """Nodes on directed x -> ... -> y paths, excluding the endpoints."""
    on_path = g.descendants(x) & g.ancestors(y)
    return frozenset(on_path - {x, y})


def ace(bn: DiscreteBayesNet, x: str, y: str) -> EffectEstimate:
    """Average causal effect by exact backdoor adjustment on the parents of x."""
    return _estimate(bn, x, y, direct=False)


#: the node order of an estimand's exact table and the estimate read off that
#: table; the reader takes tables with a leading draw axis, shape (D, 2, ..., 2),
#: and returns one estimate per draw
Reader = tuple[tuple[str, ...], Callable[[np.ndarray], list[float]]]


def _per_draw(prod: np.ndarray, live: np.ndarray) -> list[float]:
    """Each draw's sum over its live strata, clipped to [-1, 1]."""
    return [float(min(1.0, max(-1.0, p[keep].sum()))) for p, keep in zip(prod, live)]


def _ace_reader(dag: Dag, x: str, y: str, z: frozenset[str]) -> Reader:
    """Backdoor adjustment over the set z, read off exact tables P(x, Z, y).

    value = sum_z [P(y=1 | x=1, Z=z) - P(y=1 | x=0, Z=z)] P(Z=z).  A
    stratum with P(Z=z) > 0 but P(Z=z, x=v) = 0 in any draw raises
    ZeroProbabilityEvidence.  Everything but each draw's final sum is
    elementwise over the draw axis.
    """
    z_sorted = tuple(sorted(z, key=dag._index.__getitem__))

    def read(t: np.ndarray) -> list[float]:
        p_xz = t.sum(axis=-1)
        p_z = p_xz[:, 0] + p_xz[:, 1]
        live = p_z > 0.0
        if ((p_xz <= 0.0) & live[:, None]).any():
            raise ZeroProbabilityEvidence(
                f"a stratum of {z_sorted} with positive probability never has {x!r} = 0 or 1"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            p_y = t[..., 1] / p_xz  # P(y=1 | x, Z)
        return _per_draw((p_y[:, 1] - p_y[:, 0]) * p_z, live)

    return (x, *z_sorted, y), read


def ace_surgery(bn: DiscreteBayesNet, x: str, y: str) -> float:
    """Independent do-operator oracle: truncated factorization.

    Builds the mutilated network in which x has no parents and is pinned to
    v, then reads off P(y=1) exactly, for v in {1, 0}.  Unlike :func:`ace`
    this never conditions, so it is valid for any pair, including x == y.
    """

    def pinned(v: int) -> DiscreteBayesNet:
        dag = bn.dag.with_edges(remove=[(p, x) for p in bn.dag.parents(x)])
        cpts = tuple(
            Cpt(x, (), np.array([float(v)])) if c.node == x else c for c in bn.cpts
        )
        return DiscreteBayesNet(dag, cpts)

    return float(query(pinned(1), y) - query(pinned(0), y))


def _nde_reader(dag: Dag, x: str, y: str, meds: frozenset[str], z: frozenset[str]) -> Reader:
    """Mediation formula with baseline x=0, read off exact tables P(x, Z, M, y).

    value = sum_{z,m} [P(y=1 | x=1, m, z) - P(y=1 | x=0, m, z)] P(m | x=0, z) P(z);
    it reduces to the ACE when meds is empty.  Strata with
    P(m | x=0, z) = 0 are skipped; a remaining one with P(z, m, x=1) = 0
    in any draw raises ZeroProbabilityEvidence.  Everything but each
    draw's final sum is elementwise over the draw axis.
    """
    order = dag._index.__getitem__
    m_sorted = tuple(sorted(meds, key=order))
    z_sorted = tuple(sorted(z, key=order))

    def read(t: np.ndarray) -> list[float]:
        p_xzm = t.sum(axis=-1)
        p_xz = p_xzm.sum(axis=tuple(range(2 + len(z_sorted), p_xzm.ndim)), keepdims=True)
        p_z = p_xz[:, 0] + p_xz[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            p_m_given = p_xzm[:, 0] / p_xz[:, 0]  # P(M | x=0, Z)
            p_y = t[..., 1] / p_xzm  # P(y=1 | x, Z, M)
        live = (p_xz[:, 0] > 0.0) & (p_m_given > 0.0)
        if (live & (p_xzm[:, 1] <= 0.0)).any():
            raise ZeroProbabilityEvidence(
                f"a stratum of {z_sorted + m_sorted} reached with {x!r} = 0 is never reached with {x!r} = 1"
            )
        return _per_draw((p_y[:, 1] - p_y[:, 0]) * p_m_given * p_z, live)

    return (x, *z_sorted, *m_sorted, y), read


def nde(bn: DiscreteBayesNet, x: str, y: str) -> EffectEstimate:
    """Natural direct effect: the part of the effect not routed via mediators."""
    if not mediators(bn.dag, x, y):
        raise ValueError(f"no mediators between {x!r} and {y!r}: use ace()")
    return _estimate(bn, x, y, direct=True)


def _plan(dag: Dag, x: str, y: str, direct: bool) -> tuple:
    """The backdoor set, the mediators, the closure's nodes and the reader of the estimand of x on y.

    The estimand is the natural direct effect when ``direct`` is set and
    x reaches y through mediators, else the average effect (no
    mediators).  An estimate reads one draw of tables through the plan, a
    refit D draws.  The closure is the ancestral closure of {x, y}, which
    holds the backdoor set and the mediators, with the nodes in ``dag``'s
    order: the estimand's marginal on ``dag`` reads the tables of these
    nodes only, so they are the only ones to fit.  The plan is a pure
    function of the immutable ``dag``, so it is kept with the instance,
    keyed by the estimand: the estimate and the refits of an edge share
    one.
    """
    meds = mediators(dag, x, y) if direct else frozenset()
    key = ("plan", x, y, bool(meds))
    if key not in dag._memo:
        z = backdoor_set(dag, x, y)
        keep = {x, y} | dag.ancestors(x) | dag.ancestors(y)
        reader = _nde_reader(dag, x, y, meds, z) if meds else _ace_reader(dag, x, y, z)
        dag._memo[key] = (z, meds, tuple(n for n in dag.nodes if n in keep), *reader)
    return dag._memo[key]


def _estimate(bn: DiscreteBayesNet, x: str, y: str, direct: bool) -> EffectEstimate:
    """The estimand of :func:`_plan` on the fitted tables: the one-draw case of a refit."""
    z, meds, closure, order, read = _plan(bn.dag, x, y, direct)
    value = read(marginal(bn.dag, {n: bn.cpt(n).table[None] for n in closure}, order))[0]
    return EffectEstimate(x, y, "NDE" if meds else "ACE", value, z, meds)


@dataclass(frozen=True)
class RelationRow:
    treatment: str
    outcome: str
    estimand_kind: str
    value: float
    adjustment_set: tuple[str, ...]
    mediators: tuple[str, ...]
    validated: bool
    nie: float  # total minus direct; 0 by construction for pure ACE rows (inferred column)
    refutations: tuple[RefutationResult, ...] = ()

    def refutation_passed(self, kind: str) -> bool | None:
        for r in self.refutations:
            if r.kind == kind:
                return r.passed
        return None


@dataclass(frozen=True)
class CausalRelationTable:
    """Per-edge effect records sorted by descending effect value."""

    dag: Dag
    rows: tuple[RelationRow, ...]

    def validated_rows(self) -> tuple[RelationRow, ...]:
        return tuple(r for r in self.rows if r.validated)

    _CSV_COLUMNS = (
        "treatment",
        "outcome",
        "kind",
        "value",
        "adjustment_set",
        "mediators",
        "validated",
        "placebo_pass",
        "subset_pass",
        "rcc_pass",
        "nie",
    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self._CSV_COLUMNS)
        for r in self.rows:
            flags = [r.refutation_passed(k) for k in REFUTATION_KINDS]
            writer.writerow(
                [
                    r.treatment,
                    r.outcome,
                    r.estimand_kind,
                    repr(r.value),
                    ";".join(r.adjustment_set),
                    ";".join(r.mediators),
                    str(r.validated),
                    *("" if f is None else str(f) for f in flags),
                    repr(r.nie),
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        doc = {
            "nodes": list(self.dag.nodes),
            "edges": [list(e) for e in self.dag.sorted_edges()],
            "relations": [
                {
                    "treatment": r.treatment,
                    "outcome": r.outcome,
                    "kind": r.estimand_kind,
                    "value": r.value,
                    "adjustment_set": list(r.adjustment_set),
                    "mediators": list(r.mediators),
                    "validated": r.validated,
                    "nie": r.nie,
                    "refutations": [
                        {
                            "kind": ref.kind,
                            "refuted_value": ref.refuted_value,
                            "passed": ref.passed,
                            "tolerance": ref.tolerance,
                        }
                        for ref in r.refutations
                    ],
                }
                for r in self.rows
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CausalRelationTable":
        doc = json.loads(text)
        dag = Dag(tuple(doc["nodes"]), [tuple(e) for e in doc["edges"]])
        rows = tuple(
            RelationRow(
                treatment=r["treatment"],
                outcome=r["outcome"],
                estimand_kind=r["kind"],
                value=float(r["value"]),
                adjustment_set=tuple(r["adjustment_set"]),
                mediators=tuple(r["mediators"]),
                validated=bool(r["validated"]),
                nie=float(r["nie"]),
                refutations=tuple(
                    RefutationResult(
                        ref["kind"], float(ref["refuted_value"]), bool(ref["passed"]), float(ref["tolerance"])
                    )
                    for ref in r.get("refutations", ())
                ),
            )
            for r in doc["relations"]
        )
        return cls(dag, rows)


def refute(
    bn: DiscreteBayesNet,
    data: EventMatrix,
    estimate: EffectEstimate,
    kind: str,
    seed: int = 0,
    ess: float = 1.0,
) -> RefutationResult:
    """Stability check of an estimate under a declared data perturbation.

    placebo: the treatment column becomes independent coin flips with the
    same marginal; the re-estimated effect must be near zero.  subset: the
    mean re-estimate over random 80% row subsets must track the original.
    random_common_cause: an unrelated coin column added as a parent of both
    treatment and outcome must leave the estimate unchanged.

    Each kind only builds its perturbation of the distinct rows
    (``data.row_patterns``), their counts per draw and the DAG.  Subset
    counts the pattern ids of each draw's rows; placebo and random common
    cause double the patterns on the coin (treatment set to it, or a coin
    column appended) and count one draw of the ids ``id + n_patterns *
    coin``.  No row is sorted.  All kinds share one refit: the CPTs of the
    ancestral closure of treatment and outcome are counted for every draw
    at once (``bayesnet._fit_p1``), one elimination over the estimate's
    plan gives the estimand's table per draw, and the refuted value is the
    mean estimate over the draws.  The result is the same as refitting the
    whole network per draw on the perturbed matrix.

    Every kind raises ``KeyError`` naming the first node of the DAG that
    ``data`` lacks, before it builds its perturbation.
    """
    for node in bn.dag.nodes:
        data.column_index(node)
    x, y = estimate.treatment, estimate.outcome
    rng = np.random.default_rng(spawn_seed(seed, "refute", kind, x, y))
    dag, columns = bn.dag, data.columns
    patterns, ids, _ = data.row_patterns
    n_patterns = len(patterns)
    # placebo and random common cause count one draw of all rows over the patterns
    # doubled on the coin: a row counts under its pattern id plus n_patterns * coin
    coin_bit = np.repeat(np.array([0, 1], dtype=np.int8), n_patterns)

    if kind == "placebo":
        xi = data.column_index(x)
        p_x = float((data.values[:, xi] == 1).mean())
        coin = rng.random(data.n_rows) < p_x
        patterns = np.concatenate([patterns, patterns])
        patterns[:, xi] = coin_bit
        center, tol = 0.0, ABS_TOLERANCE
    elif kind == "subset":
        size = int(np.ceil(SUBSET_FRACTION * data.n_rows))
        counts = np.stack(
            [
                np.bincount(ids[rng.choice(data.n_rows, size=size, replace=False)], minlength=n_patterns)
                for _ in range(SUBSET_DRAWS)
            ]
        )
        center, tol = estimate.value, SUBSET_REL_TOLERANCE * abs(estimate.value) + SUBSET_ABS_TOLERANCE
    elif kind == "random_common_cause":
        label = "__random_common_cause__"
        coin = rng.random(data.n_rows) < 0.5
        patterns = np.column_stack([np.concatenate([patterns, patterns]), coin_bit])
        columns = columns + (label,)
        dag = Dag(columns, set(dag.edges) | {(label, x), (label, y)})
        center, tol = estimate.value, ABS_TOLERANCE
    else:
        raise ValueError(f"unknown refutation kind {kind!r}; expected one of {REFUTATION_KINDS}")
    if kind != "subset":
        counts = np.bincount(ids + n_patterns * coin, minlength=2 * n_patterns)[None]

    _require_fittable(patterns, ess)
    _, _, closure, order, read = _plan(dag, x, y, direct=estimate.estimand_kind == "NDE")
    p1 = _fit_p1(dag, closure, patterns[:, [columns.index(n) for n in closure]], counts, ess)
    tables = {n: _conditional_table(p1[n], len(dag.parents(n))) for n in closure}
    refuted = float(np.mean(read(marginal(dag, tables, order))))
    return RefutationResult(kind, refuted, abs(refuted - center) <= tol, tol)


def effects_for_dag(
    bn: DiscreteBayesNet,
    data: EventMatrix,
    refutations: str = "all",
    seed: int = 0,
    ess: float = 1.0,
) -> CausalRelationTable:
    """Estimate every edge of the fitted network and assemble the table.

    Edges with mediators get the natural direct effect, the rest the plain
    average effect; rows with a strictly positive value are marked
    validated.  Rows sort by descending value (ties by edge order).
    """
    check_ranges(PARAM_RANGES, locals())
    rows = []
    for x, y in bn.dag.sorted_edges():
        estimate = _estimate(bn, x, y, direct=True)
        total = estimate.value if estimate.estimand_kind == "ACE" else ace(bn, x, y).value
        refs: tuple[RefutationResult, ...] = ()
        if refutations == "all":
            # refute() derives per-(kind, treatment, outcome) child seeds itself
            refs = tuple(
                refute(bn, data, estimate, kind, seed=seed, ess=ess) for kind in REFUTATION_KINDS
            )
        order = bn.dag._index.__getitem__
        rows.append(
            RelationRow(
                treatment=x,
                outcome=y,
                estimand_kind=estimate.estimand_kind,
                value=estimate.value,
                adjustment_set=tuple(sorted(estimate.adjustment_set, key=order)),
                mediators=tuple(sorted(estimate.mediators, key=order)),
                validated=estimate.value > 0.0,
                nie=float(total - estimate.value),
                refutations=refs,
            )
        )
    rows.sort(key=lambda r: -r.value)
    return CausalRelationTable(bn.dag, tuple(rows))
