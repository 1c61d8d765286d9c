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

from ._rng import spawn_seed
from .bayesnet import (
    Cpt,
    Dag,
    DiscreteBayesNet,
    ZeroProbabilityEvidence,
    _conditional_table,
    _cpt_from_counts,
    _require_fittable,
    d_separated,
    fit_cpts,  # noqa: F401  unused here; perfbench/tracer.py patches causal.fit_cpts by name
    marginal,
    query,
)
from .dataset import EventMatrix, assignment_index

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

    The backdoor criterion is verified, not assumed: no member may be a
    descendant of x, and conditioning on the set must d-separate x from y
    once x's outgoing edges are removed.  Failure indicates a bug and is a
    hard error.
    """
    if x == y:
        raise ValueError("treatment and outcome must differ")
    z = frozenset(g.parents(x))
    desc = g.descendants(x)
    if z & desc:
        raise AssertionError(f"backdoor set for {x!r} contains descendants: {sorted(z & desc)}")
    surgered = g.with_edges(remove=[(x, c) for c in g.children(x)])
    if y not in z and not d_separated(surgered, x, y, z):
        raise AssertionError(f"parents({x!r}) fail the backdoor criterion toward {y!r}")
    return z


def mediators(g: Dag, x: str, y: str) -> frozenset[str]:
    """Nodes on directed x -> ... -> y paths, excluding the endpoints."""
    on_path = g.descendants(x) & g.ancestors(y)
    return frozenset(on_path - {x, y})


def ace(bn: DiscreteBayesNet, x: str, y: str) -> EffectEstimate:
    """Average causal effect by exact backdoor adjustment on the verified backdoor set."""
    z = backdoor_set(bn.dag, x, y)
    order, read = _ace_reader(bn.dag, x, y, z)
    return EffectEstimate(x, y, "ACE", read(bn.marginal(order)), z, frozenset())


#: the node order of an estimand's exact table and the estimate read off that table
Reader = tuple[tuple[str, ...], Callable[[np.ndarray], float]]


def _ace_reader(dag: Dag, x: str, y: str, z: frozenset[str]) -> Reader:
    """Backdoor adjustment over the set z, read off one exact table P(x, Z, y).

    value = sum_z [P(y=1 | x=1, Z=z) - P(y=1 | x=0, Z=z)] P(Z=z).  A
    stratum with P(Z=z) > 0 but P(Z=z, x=v) = 0 raises
    ZeroProbabilityEvidence.
    """
    z_sorted = tuple(sorted(z, key=dag._index.__getitem__))

    def read(t: np.ndarray) -> float:
        p_xz = t.sum(axis=-1)
        p_z = p_xz[0] + p_xz[1]
        live = p_z > 0.0
        if ((p_xz <= 0.0) & live).any():
            raise ZeroProbabilityEvidence(
                f"a stratum of {z_sorted} with positive probability never has {x!r} = 0 or 1"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            p_y = t[..., 1] / p_xz  # P(y=1 | x, Z)
        value = ((p_y[1] - p_y[0]) * p_z)[live].sum()
        return float(min(1.0, max(-1.0, value)))

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
    """Mediation formula with baseline x=0, read off one exact table P(x, Z, M, y).

    value = sum_{z,m} [P(y=1 | x=1, m, z) - P(y=1 | x=0, m, z)] P(m | x=0, z) P(z);
    it reduces to the ACE when meds is empty.  Strata with
    P(m | x=0, z) = 0 are skipped; a remaining one with P(z, m, x=1) = 0
    raises ZeroProbabilityEvidence.
    """
    order = dag._index.__getitem__
    m_sorted = tuple(sorted(meds, key=order))
    z_sorted = tuple(sorted(z, key=order))

    def read(t: np.ndarray) -> float:
        p_xzm = t.sum(axis=-1)
        p_xz = p_xzm.sum(axis=tuple(range(1 + len(z_sorted), p_xzm.ndim)), keepdims=True)
        p_z = p_xz[0] + p_xz[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            p_m_given = p_xzm[0] / p_xz[0]  # P(M | x=0, Z)
            p_y = t[..., 1] / p_xzm  # P(y=1 | x, Z, M)
        live = (p_xz[0] > 0.0) & (p_m_given > 0.0)
        if (live & (p_xzm[1] <= 0.0)).any():
            raise ZeroProbabilityEvidence(
                f"a stratum of {z_sorted + m_sorted} reached with {x!r} = 0 is never reached with {x!r} = 1"
            )
        value = ((p_y[1] - p_y[0]) * p_m_given * p_z)[live].sum()
        return float(min(1.0, max(-1.0, value)))

    return (x, *z_sorted, *m_sorted, y), read


def nde(bn: DiscreteBayesNet, x: str, y: str) -> EffectEstimate:
    """Natural direct effect: the part of the effect not routed via mediators."""
    meds = mediators(bn.dag, x, y)
    if not meds:
        raise ValueError(f"no mediators between {x!r} and {y!r}: use ace()")
    z = backdoor_set(bn.dag, x, y)
    order, read = _nde_reader(bn.dag, x, y, meds, z)
    return EffectEstimate(x, y, "NDE", read(bn.marginal(order)), z, meds)


def _estimate_edge(bn: DiscreteBayesNet, x: str, y: str) -> EffectEstimate:
    meds = mediators(bn.dag, x, y)
    return nde(bn, x, y) if meds else ace(bn, x, y)


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


def _refit_plan(
    dag: Dag, x: str, y: str, estimand_kind: str
) -> tuple[Dag, tuple[str, ...], Callable[[np.ndarray], float]]:
    """The sub-DAG a refit needs, the node order of the estimand's table and the estimate read off it.

    The backdoor set and the mediators are worked out once on ``dag``.
    The sub-DAG is the ancestral closure of {x, y}, which holds both, with
    the nodes in ``dag``'s order: every other node is barren in the
    estimand's marginal, so a network fitted on the sub-DAG gives the
    estimate of one fitted on ``dag``, bit for bit.
    """
    z = backdoor_set(dag, x, y)
    meds = mediators(dag, x, y) if estimand_kind == "NDE" else frozenset()
    keep = {x, y} | dag.ancestors(x) | dag.ancestors(y)
    sub = Dag([n for n in dag.nodes if n in keep], [(p, c) for p, c in dag.edges if c in keep])
    if meds:
        return (sub, *_nde_reader(dag, x, y, meds, z))
    return (sub, *_ace_reader(dag, x, y, z))


def _refit_tables(
    sub: Dag, values: np.ndarray, rows: np.ndarray, ess: float
) -> dict[str, np.ndarray]:
    """The table P(node | parents) of every node of ``sub``, refitted on each row set of ``rows``.

    ``values`` holds the columns of ``sub.nodes`` in that order and
    ``rows`` one row set per draw, shape (D, size); a single draw of all
    rows, ``np.arange(n)[None]``, is a plain refit.  Each row is keyed once
    by the index of its distinct pattern over these columns, every draw is
    counted in one bincount over (draw, pattern), and each node's
    (parents, node) counts are summed from those pattern counts, so memory
    is D x min(n, 2^|sub|).  The tables have shape ``(D,) + (2,) * (k + 1)``.
    """
    # the key of the columns so far is dense (below n), so packing at most 32
    # more bits onto it stays within int64 however wide the sub-DAG is
    key = np.zeros(len(values), dtype=np.int64)
    for start in range(0, values.shape[1], 32):
        cols = range(start, min(start + 32, values.shape[1]))
        key = np.unique((key << len(cols)) | assignment_index(values, cols), return_inverse=True)[1]
    last = np.empty(key.max() + 1, dtype=np.intp)
    last[key] = np.arange(len(key))  # the last row of each pattern
    patterns = values[last]
    n_draws, n_patterns = len(rows), len(patterns)
    draw = np.arange(n_draws)[:, None]
    pattern_counts = np.bincount((draw * n_patterns + key[rows]).ravel(), minlength=n_draws * n_patterns)
    tables = {}
    for n in sub.nodes:
        ps = sub.parents(n)
        cells = 2 << len(ps)
        local = assignment_index(patterns, [sub._index[v] for v in (*ps, n)])
        # float64 sums of integer counts below 2**53 are exact
        counts = np.bincount((draw * cells + local).ravel(), weights=pattern_counts, minlength=n_draws * cells)
        tables[n] = _conditional_table(_cpt_from_counts(counts.reshape(n_draws, -1, 2), ess), len(ps))
    return tables


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

    Each kind only builds its perturbation: the matrix, the DAG and the
    row sets to refit on (one draw of all rows, or the subset draws).  All
    kinds share one refit: the CPTs of the ancestral closure of treatment
    and outcome are counted for every draw at once (:func:`_refit_tables`),
    one elimination with a leading draw axis gives the estimand's table per
    draw, and the refuted value is the mean estimate over the draws.  The
    result is the same as refitting the whole network per draw.

    Every kind raises ``KeyError`` naming the first node of the DAG that
    ``data`` lacks, before it builds its perturbation.
    """
    for node in bn.dag.nodes:
        data.column_index(node)
    x, y = estimate.treatment, estimate.outcome
    rng = np.random.default_rng(spawn_seed(seed, "refute", kind, x, y))
    dag, all_rows = bn.dag, np.arange(data.n_rows)[None]

    if kind == "placebo":
        values = data.values.copy()
        xi = data.column_index(x)
        p_x = float((values[:, xi] == 1).mean())
        values[:, xi] = (rng.random(data.n_rows) < p_x).astype(np.int8)
        data, rows, center, tol = data.replace_values(values), all_rows, 0.0, ABS_TOLERANCE
    elif kind == "subset":
        size = int(np.ceil(SUBSET_FRACTION * data.n_rows))
        rows = np.stack([rng.choice(data.n_rows, size=size, replace=False) for _ in range(SUBSET_DRAWS)])
        center, tol = estimate.value, SUBSET_REL_TOLERANCE * abs(estimate.value) + SUBSET_ABS_TOLERANCE
    elif kind == "random_common_cause":
        label = "__random_common_cause__"
        coin = (rng.random(data.n_rows) < 0.5).astype(np.int8)
        data = EventMatrix(data.columns + (label,), np.column_stack([data.values, coin]), data.provenance)
        dag = Dag(data.columns, set(dag.edges) | {(label, x), (label, y)})
        rows, center, tol = all_rows, estimate.value, ABS_TOLERANCE
    else:
        raise ValueError(f"unknown refutation kind {kind!r}; expected one of {REFUTATION_KINDS}")

    _require_fittable(data.values, ess)
    sub, order, read = _refit_plan(dag, x, y, estimate.estimand_kind)
    values = data.values[:, [data.column_index(n) for n in sub.nodes]]
    t = marginal(sub, _refit_tables(sub, values, rows, ess), order, draws=True)
    refuted = float(np.mean([read(t[d]) for d in range(len(rows))]))
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
    if refutations not in REFUTATION_MODES:
        raise ValueError(f"refutations must be one of {REFUTATION_MODES}")
    rows = []
    for x, y in bn.dag.sorted_edges():
        estimate = _estimate_edge(bn, x, y)
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
