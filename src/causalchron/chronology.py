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

from ._coerce import check_ranges
from ._rng import spawn_seed
from .bayesnet import (
    CiStatement,
    Dag,
    bic_score,
    cycle_edges,
    fit_cpts,
    local_markov_statements,
    log_likelihood,
    reachable,
    topological_levels,
)
from .causal import CausalRelationTable, RelationRow
from .dataset import ContingencyTable, EventMatrix, contingency, distinct_rows
from .discovery import pc
from .discovery.citests import (
    ci_test_g2,  # noqa: F401  unused here; perfbench/tracer.py patches chronology.ci_test_g2 by name
    fisher_exact,
    g2_tests,
)

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
    "CORRECTIONS",
]

GROUP_JOIN = "+"  # merged simultaneity groups read "a+b" in exports

#: the multiple-testing corrections of :func:`deterministic_chronology`
CORRECTIONS = ("bh", "bonferroni")

#: the allowed values of the parameters :func:`deterministic_chronology` and :func:`falsify` check
PARAM_RANGES = {
    **dict.fromkeys(("alpha", "alpha_ci", "alpha_f"), pc.PARAM_RANGES["alpha"]),
    "correction": (lambda c: c in CORRECTIONS, f"one of {CORRECTIONS}"),
    "n_perm": (lambda n: n >= 0, "non-negative"),
}


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
        for p, c in self.edges:
            if p not in self.levels or c not in self.levels:
                raise ValueError(f"edge ({p!r}, {c!r}) references unknown node")
            # levels rising strictly along every edge rule out a cycle
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
    check_ranges(PARAM_RANGES, locals())
    if m.n_cols < 2:
        raise ValueError("need at least 2 columns")
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

    # simultaneity groups: the components of the graph of dependent ties, each
    # labelled by its members and ordered by its smallest label; the group
    # nodes follow the column order of their first members
    ties: dict[str, list[str]] = {c: [] for c in labels}
    for d in decisions:
        if d.dependent and d.table.n10 == d.table.n01:
            ties[d.table.a].append(d.table.b)
            ties[d.table.b].append(d.table.a)
    label_of: dict[str, str] = {}
    node_order: list[str] = []
    merged = []
    for c in labels:
        if c not in label_of:
            component = reachable([c], ties.__getitem__)
            node_order.append(GROUP_JOIN.join(sorted(component)))
            label_of.update(dict.fromkeys(component, node_order[-1]))
            if len(component) > 1:
                merged.append(frozenset(component))
    groups = tuple(sorted(merged, key=min))

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


def _rejection_counts(
    statements: list[CiStatement], nodes: tuple[str, ...], perms: np.ndarray, data: EventMatrix, alpha_ci: float
) -> np.ndarray:
    """How many of ``statements`` the data rejects after each relabeling (row) of ``perms``.

    A relabeled statement is keyed by its unordered pair and its
    conditioning set.  Each distinct key is tested once, in the orientation
    first seen (relabelings in order, then statements in order) and
    conditioning on ``sorted(z)``, as a per-statement loop with a verdict
    cache would test it.  The data rows are keyed once by distinct pattern,
    and all statements of one conditioning-set size go to one ``g2_tests``
    call.
    """
    n_graphs, d = perms.shape
    if not statements:
        return np.zeros(n_graphs, dtype=np.int64)
    pos = {v: i for i, v in enumerate(nodes)}
    # node positions after each relabeling, in the smallest integer type that holds them:
    # x and y are (relabelings, statements), and z[r, i, perms[r, j]] says whether node j
    # is in statement i's conditioning set
    perms = perms.astype(np.min_scalar_type(d))
    x = perms[:, [pos[s.x] for s in statements]]
    y = perms[:, [pos[s.y] for s in statements]]
    z = np.zeros((len(statements), d), dtype=bool)
    for i, s in enumerate(statements):
        z[i, [pos[v] for v in s.z]] = True
    z = z[:, np.argsort(perms, axis=1)].swapaxes(0, 1)
    first, ids, _ = distinct_rows(
        np.concatenate([np.minimum(x, y)[..., None], np.maximum(x, y)[..., None], z], axis=2).reshape(-1, d + 2)
    )
    x, y, z = x.ravel()[first], y.ravel()[first], z.reshape(-1, d)[first]

    by_label = np.array(sorted(range(d), key=lambda i: nodes[i]))
    col = np.array([data.column_index(v) for v in nodes])
    patterns, _, multiplicity = data.row_patterns
    weights = multiplicity.astype(np.float64)
    size = z.sum(axis=1)
    rejected = np.empty(len(first), dtype=bool)
    for k in np.flatnonzero(np.bincount(size)):
        members = np.flatnonzero(size == k)
        zpos = by_label[np.nonzero(z[members][:, by_label])[1]].reshape(len(members), k)
        cols = col[np.column_stack([zpos, x[members], y[members]])]
        rejected[members] = g2_tests(patterns, weights, cols)[2] < alpha_ci
    return rejected[ids.reshape(n_graphs, -1)].sum(axis=1)


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

    The relabelings are the only random draws, so they are drawn first, and
    every statement the graph and its relabelings imply is known before any
    test runs.  Each distinct statement (x and y unordered) is tested once,
    in the orientation first seen, conditioning on ``sorted(z)``; the data
    rows are keyed once by distinct pattern, and ``g2_tests`` counts all
    statements of one conditioning-set size in one stacked pass.  Its
    packed index is built in chunks of about
    ``dataset._COUNT_BUDGET_BYTES`` (64 KiB), so memory beyond the data
    stays at the (relabelings x statements x nodes) statement keys, one
    byte each for up to 255 nodes, plus one chunk.  Marginal statements
    count pairwise-complete rows; a statement with a non-empty
    conditioning set requires its own columns to be complete, so a missing
    cell in a column no such statement reads changes nothing.
    """
    check_ranges(PARAM_RANGES, locals())
    statements = local_markov_statements(g)
    rng = np.random.default_rng(spawn_seed(seed, "falsify"))
    d = len(g.nodes)
    # row 0 is the graph itself; relabeling r sends node i to node perms[r, i]
    perms = np.array([np.arange(d)] + [rng.permutation(d) for _ in range(n_perm)])
    v = _rejection_counts(statements, g.nodes, perms, data, alpha_ci)
    v_given = int(v[0])
    favorable = 0
    n_equivalent = 0
    for perm, v_perm in zip(perms[1:], v[1:]):
        if g.relabel({g.nodes[i]: g.nodes[j] for i, j in enumerate(perm)}).markov_equivalent(g):
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
        baseline=tuple(int(x) for x in v[1:]),
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
