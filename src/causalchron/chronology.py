"""Timeline construction, the frequency baseline, and model scrutiny.

The chronology tree keeps, for every outcome, only the strongest validated
causal edge, ordered by the topological levels of the discovered graph; by
construction every node has at most one incoming edge, so the result is a
forest.  The deterministic baseline reproduces the count-based orientation
rule for comparison.  Falsification checks a graph's implied local Markov
statements against the data and against relabeled copies of itself.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from ._rng import spawn_seed
from .bayesnet import (
    Dag,
    bic_score,
    cycle_edges,
    fit_cpts,
    local_markov_statements,
    log_likelihood,
    topological_levels,
)
from .causal import CausalRelationTable, RelationRow
from .dataset import ContingencyTable, EventMatrix, contingency
from .discovery.citests import ci_test_g2, fisher_exact

__all__ = [
    "ChronologyTree",
    "FalsificationVerdict",
    "BaselineChronology",
    "strong_causal_relations",
    "build_chronology",
    "deterministic_chronology",
    "compare_models",
    "falsify",
    "consensus_edges",
    "ConsensusSummary",
]

GROUP_JOIN = "+"  # merged simultaneity groups read "a+b" in exports


@dataclass(frozen=True)
class ChronologyTree:
    """Forest of maximal-impact edges plus isolated nodes at level 0."""

    levels: dict[str, int]
    edges: frozenset[tuple[str, str]]
    isolated: tuple[str, ...]

    def __post_init__(self) -> None:
        indeg: dict[str, int] = {}
        for p, c in self.edges:
            indeg[c] = indeg.get(c, 0) + 1
            if indeg[c] > 1:
                raise ValueError(f"node {c!r} has more than one incoming edge")
        nodes = set(self.levels)
        Dag(tuple(sorted(nodes)), self.edges)  # raises on cycles
        for p, c in self.edges:
            if self.levels[c] <= self.levels[p]:
                raise ValueError(f"levels inconsistent along edge ({p!r}, {c!r})")
        for n in self.isolated:
            if self.levels[n] != 0:
                raise ValueError(f"isolated node {n!r} must sit at level 0")

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.levels, key=lambda n: (self.levels[n], n)))

    def as_dag(self, node_order: tuple[str, ...] | None = None) -> Dag:
        order = node_order if node_order is not None else self.nodes
        return Dag(order, self.edges)

    def to_dot(self) -> str:
        return self.as_dag().to_dot(name="chronology", ranks=self.levels)

    def to_edge_list(self) -> str:
        return self.as_dag().to_edge_list()


def strong_causal_relations(t: CausalRelationTable) -> tuple[RelationRow, ...]:
    """Keep, per outcome, the validated row with the greatest effect.

    Ties break toward the source with the lower topological level in the
    table's graph, then the lexicographically first treatment label.
    """
    levels = topological_levels(t.dag)
    best: dict[str, RelationRow] = {}
    for row in t.validated_rows():
        cur = best.get(row.outcome)
        if cur is None:
            best[row.outcome] = row
            continue
        candidate = (-row.value, levels[row.treatment], row.treatment)
        incumbent = (-cur.value, levels[cur.treatment], cur.treatment)
        if candidate < incumbent:
            best[row.outcome] = row
    return tuple(sorted(best.values(), key=lambda r: (-r.value, r.treatment, r.outcome)))


def build_chronology(g: Dag, strong: tuple[RelationRow, ...]) -> ChronologyTree:
    """Assemble the timeline from the retained relations (one pass, steps iii-vii).

    The strong edges form the tree; roots of the source graph missing from
    the tree and any node left without tree edges are carried over as
    isolated level-0 nodes.
    """
    for row in strong:
        if (row.treatment, row.outcome) not in g.edges:
            raise ValueError(f"strong relation ({row.treatment!r}, {row.outcome!r}) is not an edge of the graph")
    edges = frozenset((r.treatment, r.outcome) for r in strong)
    touched = {n for e in edges for n in e}
    tree_dag = Dag(g.nodes, edges)
    tree_levels = topological_levels(tree_dag)
    levels = {n: tree_levels[n] for n in touched}
    isolated = tuple(n for n in g.nodes if n not in touched)
    for n in isolated:
        levels[n] = 0
    return ChronologyTree(levels=levels, edges=edges, isolated=isolated)


# ---------------------------------------------------------------------------
# deterministic frequency baseline
# ---------------------------------------------------------------------------


def _bh_adjust(pvalues: list[float]) -> list[float]:
    """Benjamini-Hochberg step-up adjusted p-values."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, pvalues[i] * m / rank)
        adjusted[i] = running
    return adjusted


@dataclass(frozen=True)
class PairDecision:
    table: ContingencyTable
    p_value: float
    p_adjusted: float
    dependent: bool


@dataclass(frozen=True)
class BaselineChronology:
    """Count-rule chronology: DAG over (possibly merged) event groups."""

    dag: Dag
    groups: tuple[frozenset[str], ...]
    isolated: tuple[str, ...]
    decisions: tuple[PairDecision, ...]
    warnings: tuple[str, ...]

    def to_json(self) -> str:
        doc = {
            "nodes": list(self.dag.nodes),
            "edges": [list(e) for e in self.dag.sorted_edges()],
            "simultaneity_groups": [sorted(g) for g in self.groups],
            "isolated": list(self.isolated),
            "warnings": list(self.warnings),
            "pairs": [
                {
                    "a": d.table.a,
                    "b": d.table.b,
                    "n00": d.table.n00,
                    "n01": d.table.n01,
                    "n10": d.table.n10,
                    "n11": d.table.n11,
                    "p_value": d.p_value,
                    "p_adjusted": d.p_adjusted,
                    "dependent": d.dependent,
                }
                for d in self.decisions
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def deterministic_chronology(
    m: EventMatrix, alpha: float = 0.05, correction: str = "bh"
) -> BaselineChronology:
    """Frequency-based ordering: dependence tests plus the count rule.

    All-pairs exact Fisher tests run on pairwise-complete rows with the
    chosen multiple-testing correction.  Each dependent pair (a, b) is
    oriented a -> b when rows with a alone outnumber rows with b alone
    (i.e. n10 > n01), the reverse otherwise; equal counts merge the pair
    into a simultaneity group.  Events dependent on nothing stay isolated.
    If the pairwise orientations ever form a cycle, the cycle edge with
    the smallest |n10 - n01| margin is dropped with a loud warning.
    """
    if m.n_cols < 2:
        raise ValueError("need at least 2 columns")
    if correction not in ("bh", "bonferroni"):
        raise ValueError("correction must be 'bh' or 'bonferroni'")
    labels = m.columns
    pairs: list[ContingencyTable] = []
    pvalues: list[float] = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            t = contingency(m, labels[i], labels[j])
            pairs.append(t)
            pvalues.append(fisher_exact(t) if t.total > 0 else 1.0)
    if correction == "bh":
        adjusted = _bh_adjust(pvalues)
    else:
        adjusted = [min(1.0, p * len(pvalues)) for p in pvalues]
    decisions = tuple(
        PairDecision(t, p, padj, padj <= alpha and t.total > 0)
        for t, p, padj in zip(pairs, pvalues, adjusted)
    )

    # simultaneity groups: union-find over dependent ties
    parent = {c: c for c in labels}

    def find(c: str) -> str:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for d in decisions:
        if d.dependent and d.table.n10 == d.table.n01:
            ra, rb = find(d.table.a), find(d.table.b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    members: dict[str, list[str]] = {}
    for c in labels:
        members.setdefault(find(c), []).append(c)
    group_label = {root: GROUP_JOIN.join(sorted(ms)) for root, ms in members.items()}
    label_of = {c: group_label[find(c)] for c in labels}
    groups = tuple(frozenset(ms) for root, ms in sorted(members.items()) if len(ms) > 1)

    # orient dependent non-tied pairs, contracted onto group labels
    margins: dict[tuple[str, str], int] = {}
    for d in decisions:
        if not d.dependent or d.table.n10 == d.table.n01:
            continue
        if d.table.n10 > d.table.n01:
            src, dst = d.table.a, d.table.b
        else:
            src, dst = d.table.b, d.table.a
        gsrc, gdst = label_of[src], label_of[dst]
        if gsrc == gdst:
            continue
        margin = abs(d.table.n10 - d.table.n01)
        key = (gsrc, gdst)
        margins[key] = max(margins.get(key, 0), margin)

    dependent_nodes = {label_of[d.table.a] for d in decisions if d.dependent} | {
        label_of[d.table.b] for d in decisions if d.dependent
    }
    node_order = []
    seen = set()
    for c in labels:
        lab = label_of[c]
        if lab not in seen:
            seen.add(lab)
            node_order.append(lab)

    edges = set(margins)
    warnings: list[str] = []
    while in_cycle := cycle_edges(edges):
        victim = min(in_cycle, key=lambda e: (margins[e], e))
        edges.discard(victim)
        warnings.append(
            f"cycle repair: removed edge {victim[0]} -> {victim[1]} (margin {margins[victim]})"
        )
    dag = Dag(tuple(node_order), edges)
    isolated = tuple(n for n in node_order if n not in dependent_nodes)
    return BaselineChronology(dag, groups, isolated, decisions, tuple(warnings))


# ---------------------------------------------------------------------------
# model comparison and falsification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelScore:
    name: str
    bic: float
    log_likelihood: float


def compare_models(
    models: list[tuple[str, Dag]], data: EventMatrix, ess: float = 1.0
) -> tuple[ModelScore, ...]:
    """BIC and Bayesian-fit log-likelihood per model, best BIC first."""
    scores = []
    for name, dag in models:
        if set(dag.nodes) != set(data.columns):
            raise ValueError(f"model {name!r} does not match the data columns")
        bn = fit_cpts(dag, data, ess=ess)
        scores.append(ModelScore(name, bic_score(dag, data), log_likelihood(bn, data)))
    return tuple(sorted(scores, key=lambda s: (-s.bic, s.name)))


def scores_to_csv(scores: tuple[ModelScore, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "bic", "log_likelihood"])
    for s in scores:
        writer.writerow([s.name, repr(s.bic), repr(s.log_likelihood)])
    return buf.getvalue()


@dataclass(frozen=True)
class FalsificationVerdict:
    falsifiable: bool
    falsified: bool
    v_given: int
    baseline: tuple[int, ...]
    p_value: float
    n_statements: int
    n_equivalent: int

    def to_json(self) -> str:
        doc = {
            "falsifiable": self.falsifiable,
            "falsified": self.falsified,
            "v_given": self.v_given,
            "baseline": list(self.baseline),
            "p_value": self.p_value,
            "n_statements": self.n_statements,
            "n_equivalent": self.n_equivalent,
        }
        return json.dumps(doc, indent=2) + "\n"


def falsify(
    g: Dag,
    data: EventMatrix,
    n_perm: int = 20,
    alpha_ci: float = 0.05,
    alpha_f: float = 0.05,
    seed: int = 0,
) -> FalsificationVerdict:
    """Permutation test of the graph's implied conditional independencies.

    v(g) counts the local Markov statements rejected by the G-squared test;
    the baseline is v over uniformly relabeled copies of the graph.
    Relabelings that land in the graph's own Markov equivalence class are
    not allowed to count against it (they trivially share its implied
    independencies), which keeps equivalence-class members from flagging a
    correct graph.  The graph is falsifiable when it implies at least one
    statement and at most half of the relabelings are equivalent to it; it
    is falsified when the permutation p-value reaches ``alpha_f`` or every
    implied statement is rejected outright.
    """
    if n_perm < 0:
        raise ValueError("n_perm must be non-negative")
    statements = local_markov_statements(g)
    cache: dict[tuple[frozenset[str], frozenset[str]], bool] = {}

    def rejected(stmt) -> bool:
        key = stmt.canonical()
        if key not in cache:
            cache[key] = ci_test_g2(data, stmt.x, stmt.y, sorted(stmt.z)).p_value < alpha_ci
        return cache[key]

    v_given = sum(rejected(s) for s in statements)
    rng = np.random.default_rng(spawn_seed(seed, "falsify"))
    nodes = list(g.nodes)
    baseline: list[int] = []
    favorable = 0
    n_equivalent = 0
    for _ in range(n_perm):
        perm = rng.permutation(len(nodes))
        mapping = {nodes[i]: nodes[perm[i]] for i in range(len(nodes))}
        relabeled = g.relabel(mapping)
        v_perm = sum(rejected(s.relabel(mapping)) for s in statements)
        baseline.append(v_perm)
        if relabeled.markov_equivalent(g):
            n_equivalent += 1
        elif v_perm <= v_given:
            favorable += 1
    p_value = (1 + favorable) / (n_perm + 1)
    falsifiable = bool(statements) and (n_equivalent / n_perm <= 0.5 if n_perm else False)
    falsified = p_value >= alpha_f or (bool(statements) and v_given == len(statements))
    return FalsificationVerdict(
        falsifiable=falsifiable,
        falsified=falsified,
        v_given=v_given,
        baseline=tuple(baseline),
        p_value=p_value,
        n_statements=len(statements),
        n_equivalent=n_equivalent,
    )


# ---------------------------------------------------------------------------
# consensus across models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsensusSummary:
    directed_counts: dict[tuple[str, str], int]
    undirected_counts: dict[frozenset[str], int]
    consensus_directed: tuple[tuple[str, str], ...]
    consensus_undirected: tuple[frozenset[str], ...]

    def to_json(self) -> str:
        doc = {
            "directed": [
                {"parent": p, "child": c, "models": n}
                for (p, c), n in sorted(self.directed_counts.items())
            ],
            "undirected": [
                {"pair": sorted(pair), "models": n}
                for pair, n in sorted(self.undirected_counts.items(), key=lambda kv: sorted(kv[0]))
            ],
            "consensus_directed": [list(e) for e in self.consensus_directed],
            "consensus_undirected": [sorted(p) for p in self.consensus_undirected],
        }
        return json.dumps(doc, indent=2) + "\n"


#: an edge is consensus when at least this many models recover it
CONSENSUS_MIN_MODELS = 2


def consensus_edges(dags: list[Dag]) -> ConsensusSummary:
    """Multigraph summary of edges recovered across several models."""
    directed: dict[tuple[str, str], int] = {}
    undirected: dict[frozenset[str], int] = {}
    for dag in dags:
        for e in dag.edges:
            directed[e] = directed.get(e, 0) + 1
        for pair in dag.skeleton():
            undirected[pair] = undirected.get(pair, 0) + 1
    return ConsensusSummary(
        directed_counts=directed,
        undirected_counts=undirected,
        consensus_directed=tuple(sorted(e for e, n in directed.items() if n >= CONSENSUS_MIN_MODELS)),
        consensus_undirected=tuple(
            sorted((p for p, n in undirected.items() if n >= CONSENSUS_MIN_MODELS), key=sorted)
        ),
    )
