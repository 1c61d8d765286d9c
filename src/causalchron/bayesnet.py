"""Directed acyclic graphs and discrete Bayesian networks over binary events.

Provides the graph type shared by every learner, conditional probability
tables, Bayesian/maximum-likelihood parameter fitting, exact inference
(one einsum contraction of the CPTs of the ancestral set), BIC and
log-likelihood scoring, d-separation, local Markov statements, ancestral
sampling, and the edge-list / DOT / JSON exchange formats.

Directed walks in the package go through :func:`reachable` (the nodes a
walk reaches from a start set), and cycle repairs through
:func:`cycle_edges` (the edges lying on a directed cycle, empty exactly
when the edges are acyclic).

Everything here is deterministic: nodes iterate in declared order, edges
lexicographically, and sampling takes an explicit seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .dataset import MISSING, EventMatrix, assignment_index, joint_counts

__all__ = [
    "reachable",
    "cycle_edges",
    "Dag",
    "Cpt",
    "DiscreteBayesNet",
    "CiStatement",
    "ZeroProbabilityEvidence",
    "topological_levels",
    "fit_cpts",
    "log_likelihood",
    "bic_score",
    "marginal",
    "query",
    "d_separated",
    "local_markov_statements",
    "sample",
]

#: probability floor replacing exact zeros in log-likelihood sums
DEFAULT_LL_FLOOR = 1e-9


class ZeroProbabilityEvidence(ValueError):
    """The conditioning event has probability zero under the model."""


T = TypeVar("T", bound=Hashable)


def reachable(starts: Iterable[T], step: Callable[[T], Iterable[T]]) -> set[T]:
    """Nodes reached from ``starts`` by zero or more calls of ``step``, ``starts`` included."""
    seen: set[T] = set()
    stack = list(starts)
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(step(n))
    return seen


def cycle_edges(edges: Iterable[tuple[T, T]]) -> frozenset[tuple[T, T]]:
    """The edges (p, c) with p reachable from c; empty exactly when the edges are acyclic."""
    edges = frozenset(edges)
    children: dict[T, list[T]] = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)
    return frozenset((p, c) for p, c in edges if p in reachable([c], lambda n: children.get(n, ())))


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph with an explicit, meaningful node order."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, nodes: Sequence[str], edges: Iterable[tuple[str, str]] = ()):
        nodes = tuple(nodes)
        edges = frozenset((str(p), str(c)) for p, c in edges)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node labels")
        if any(not n for n in nodes):
            raise ValueError("node labels must be non-empty")
        node_set = set(nodes)
        for p, c in edges:
            if p == c:
                raise ValueError(f"self-loop at {p!r}")
            if p not in node_set or c not in node_set:
                raise ValueError(f"edge ({p!r}, {c!r}) references unknown node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        self.topological_order()  # raises on cycles

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        by_child: dict[str, list[str]] = {n: [] for n in self.nodes}
        for p, c in self.sorted_edges():
            by_child[c].append(p)
        return {n: tuple(sorted(ps, key=self._index.__getitem__)) for n, ps in by_child.items()}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        by_parent: dict[str, list[str]] = {n: [] for n in self.nodes}
        for p, c in self.sorted_edges():
            by_parent[p].append(c)
        return {n: tuple(sorted(cs, key=self._index.__getitem__)) for n, cs in by_parent.items()}

    def parents(self, node: str) -> tuple[str, ...]:
        return self._parents[node]

    def children(self, node: str) -> tuple[str, ...]:
        return self._children[node]

    def isolated(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if not self._parents[n] and not self._children[n])

    def sorted_edges(self) -> list[tuple[str, str]]:
        idx = self._index
        return sorted(self.edges, key=lambda e: (idx[e[0]], idx[e[1]]))

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; ready nodes are taken in declared order."""
        indeg = {n: 0 for n in self.nodes}
        for _, c in self.edges:
            indeg[c] += 1
        order: list[str] = []
        ready = [n for n in self.nodes if indeg[n] == 0]
        while ready:
            node = ready.pop(0)
            order.append(node)
            newly = []
            for child in self._children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    newly.append(child)
            if newly:
                ready = sorted(ready + newly, key=self._index.__getitem__)
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a directed cycle")
        return tuple(order)

    def descendants(self, node: str) -> frozenset[str]:
        return frozenset(reachable(self._children[node], self._children.__getitem__))

    def ancestors(self, node: str) -> frozenset[str]:
        return frozenset(reachable(self._parents[node], self._parents.__getitem__))

    def has_path(self, src: str, dst: str) -> bool:
        return dst in self.descendants(src)

    def with_edges(self, add: Iterable[tuple[str, str]] = (), remove: Iterable[tuple[str, str]] = ()) -> "Dag":
        return Dag(self.nodes, (self.edges - frozenset(remove)) | frozenset(add))

    def relabel(self, mapping: Mapping[str, str]) -> "Dag":
        """Rename nodes; node order follows the original positions."""
        return Dag(
            tuple(mapping[n] for n in self.nodes),
            ((mapping[p], mapping[c]) for p, c in self.edges),
        )

    def skeleton(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(e) for e in self.edges)

    def v_structures(self) -> frozenset[tuple[frozenset[str], str]]:
        """Colliders a -> c <- b with a, b non-adjacent, as ({a, b}, c) pairs."""
        skel = self.skeleton()
        out = set()
        for c in self.nodes:
            ps = self._parents[c]
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    if frozenset((ps[i], ps[j])) not in skel:
                        out.add((frozenset((ps[i], ps[j])), c))
        return frozenset(out)

    def markov_equivalent(self, other: "Dag") -> bool:
        return (
            set(self.nodes) == set(other.nodes)
            and self.skeleton() == other.skeleton()
            and self.v_structures() == other.v_structures()
        )

    # -- exchange formats ---------------------------------------------------

    def to_edge_list(self) -> str:
        """Edge-list text: isolated-nodes header line, then one edge per line."""
        lines = ["# isolated: " + ",".join(self.isolated())]
        lines += [f"{p}\t{c}" for p, c in self.sorted_edges()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list(cls, text: str) -> "Dag":
        nodes: list[str] = []
        edges: list[tuple[str, str]] = []
        seen: set[str] = set()

        def _add(label: str) -> None:
            if label not in seen:
                seen.add(label)
                nodes.append(label)

        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                _, _, payload = line.partition(":")
                for label in payload.split(","):
                    label = label.strip()
                    if label:
                        _add(label)
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"malformed edge line: {raw!r}")
            p, c = parts[0].strip(), parts[1].strip()
            _add(p)
            _add(c)
            edges.append((p, c))
        return cls(tuple(nodes), edges)

    def to_dot(self, name: str = "g", ranks: Mapping[str, int] | None = None) -> str:
        lines = [f"digraph {json.dumps(name)} {{"]
        for n in self.nodes:
            lines.append(f"  {json.dumps(n)};")
        for p, c in self.sorted_edges():
            lines.append(f"  {json.dumps(p)} -> {json.dumps(c)};")
        if ranks is not None:
            for level in sorted(set(ranks.values())):
                members = " ".join(json.dumps(n) for n in self.nodes if ranks.get(n) == level)
                lines.append(f"  {{ rank=same; {members} }}")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class Cpt:
    """P(node=1) for every parent assignment.

    ``p1`` is indexed in binary counting order of the parent list: the
    first parent is the most significant bit, so for parents (a, b) the
    entries correspond to (a=0,b=0), (a=0,b=1), (a=1,b=0), (a=1,b=1).
    """

    node: str
    parents: tuple[str, ...]
    p1: np.ndarray

    def __post_init__(self) -> None:
        p1 = np.asarray(self.p1, dtype=np.float64)
        if p1.shape != (2 ** len(self.parents),):
            raise ValueError(f"CPT for {self.node!r} must have 2^|parents| entries")
        if ((p1 < 0) | (p1 > 1)).any():
            raise ValueError(f"CPT for {self.node!r} has probabilities outside [0, 1]")
        p1 = p1.copy()
        p1.flags.writeable = False
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "p1", p1)

    @cached_property
    def table(self) -> np.ndarray:
        """P(node | parents) as a read-only array of shape ``(2,) * (k + 1)``, the node's axis last."""
        table = _conditional_table(self.p1, len(self.parents))
        table.flags.writeable = False
        return table


def _conditional_table(p1: np.ndarray, n_parents: int) -> np.ndarray:
    """P(node | parents), shape ``(...,) + (2,) * (n_parents + 1)``, from P(node=1 | assignment).

    ``p1`` has shape ``(..., K)`` with K = 2**n_parents; leading axes are kept.
    """
    table = np.stack([1.0 - p1, p1], axis=-1)
    return table.reshape(table.shape[:-2] + (2,) * (n_parents + 1))


@dataclass(frozen=True, eq=False)
class DiscreteBayesNet:
    """A Dag plus one Cpt per node."""

    dag: Dag
    cpts: tuple[Cpt, ...]

    def __post_init__(self) -> None:
        by_node = {c.node: c for c in self.cpts}
        if set(by_node) != set(self.dag.nodes) or len(by_node) != len(self.cpts):
            raise ValueError("need exactly one CPT per node")
        for n in self.dag.nodes:
            if by_node[n].parents != self.dag.parents(n):
                raise ValueError(f"CPT parent set for {n!r} disagrees with the graph")
        object.__setattr__(self, "cpts", tuple(by_node[n] for n in self.dag.nodes))

    def cpt(self, node: str) -> Cpt:
        return self.cpts[self.dag._index[node]]

    def prob(self, assignment: Mapping[str, int]) -> float:
        """Exact probability of a (partial) assignment, read off :meth:`marginal`."""
        nodes = tuple(assignment)
        return float(self.marginal(nodes)[tuple(int(assignment[n]) for n in nodes)])

    def marginal(self, nodes: Sequence[str]) -> np.ndarray:
        """P(nodes) as an array of shape ``(2,) * len(nodes)``, one axis per node in argument order."""
        return marginal(self.dag, {c.node: c.table for c in self.cpts}, nodes)


def marginal(
    dag: Dag, tables: Mapping[str, np.ndarray], nodes: Sequence[str], draws: bool = False
) -> np.ndarray:
    """P(nodes), one axis per node in argument order, from the table P(node | parents) of each node of ``dag``.

    Only the tables of the ancestral closure of ``nodes`` enter: every
    other node is barren and sums to one.  The other variables of the
    closure are summed out one at a time with ``np.einsum``, first the
    one whose result has the smallest scope (ties by node order).
    Labels are renumbered at each step, so einsum's 52-label cap limits
    the scope of a single factor, not the size of the network.

    With ``draws``, every table carries a leading axis of independent
    draws (shape ``(D,) + (2,) * (k + 1)``) and so does the result.  That
    axis is one more einsum label, kept in every factor and in the output,
    so the order of elimination is the one without it.
    """
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError("marginal nodes must be distinct")
    keep = set(nodes)
    for n in nodes:
        keep |= dag.ancestors(n)
    factors = [(dag.parents(n) + (n,), tables[n]) for n in dag.nodes if n in keep]
    remaining = [n for n in dag.nodes if n in keep and n not in nodes]

    def scope_without(v: str) -> tuple[str, ...]:
        return tuple(dict.fromkeys(u for s, _ in factors if v in s for u in s if u != v))

    while remaining:
        v = min(remaining, key=lambda u: len(scope_without(u)))
        remaining.remove(v)
        scope = scope_without(v)
        involved = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        factors.append((scope, _contract(involved, scope, draws)))
    return _contract(factors, nodes, draws)


def _contract(
    factors: Sequence[tuple[tuple[str, ...], np.ndarray]], out: Sequence[str], draws: bool
) -> np.ndarray:
    """Product of (scope, table) factors, summed down to the variables ``out`` in that order.

    With ``draws`` each table has a leading draw axis outside its scope,
    labelled 0 in every operand and in the output.
    """
    lead = [0] if draws else []
    label: dict[str, int] = {}
    operands: list = []
    for scope, table in factors:
        operands += [table, lead + [label.setdefault(v, len(lead) + len(label)) for v in scope]]
    if not operands:
        return np.ones(())
    return np.einsum(*operands, lead + [label[v] for v in out])


@dataclass(frozen=True)
class CiStatement:
    """Conditional independence claim ``x is independent of y given z``."""

    x: str
    y: str
    z: frozenset[str]

    def __post_init__(self) -> None:
        if self.x == self.y:
            raise ValueError("x and y must differ")
        if self.x in self.z or self.y in self.z:
            raise ValueError("x and y cannot appear in the conditioning set")
        object.__setattr__(self, "z", frozenset(self.z))

    def canonical(self) -> tuple[frozenset[str], frozenset[str]]:
        return frozenset((self.x, self.y)), self.z

    def relabel(self, mapping: Mapping[str, str]) -> "CiStatement":
        return CiStatement(mapping[self.x], mapping[self.y], frozenset(mapping[v] for v in self.z))


# ---------------------------------------------------------------------------
# graph queries
# ---------------------------------------------------------------------------


def topological_levels(g: Dag) -> dict[str, int]:
    """Level 0 for roots, otherwise 1 + max level over parents."""
    levels: dict[str, int] = {}
    for n in g.topological_order():
        ps = g.parents(n)
        levels[n] = 0 if not ps else 1 + max(levels[p] for p in ps)
    return levels


def d_separated(g: Dag, x: str, y: str, z: Iterable[str]) -> bool:
    """Whether every path between x and y is blocked by z (reachability form)."""
    z = frozenset(z)
    for label in (x, y, *z):
        if label not in g._index:
            raise KeyError(f"unknown node label: {label!r}")
    if x == y:
        raise ValueError("x and y must differ")
    if x in z or y in z:
        raise ValueError("x and y cannot be conditioned on")
    # nodes having a descendant in z (or being in z): colliders there are open
    opens = set(z)
    for v in z:
        opens |= g.ancestors(v)
    UP, DOWN = 0, 1
    visited: set[tuple[str, int]] = set()
    stack: list[tuple[str, int]] = [(x, UP)]
    while stack:
        node, direction = stack.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node == y:
            return False
        if direction == UP and node not in z:
            stack.extend((p, UP) for p in g.parents(node))
            stack.extend((c, DOWN) for c in g.children(node))
        elif direction == DOWN:
            if node not in z:
                stack.extend((c, DOWN) for c in g.children(node))
            if node in opens:
                stack.extend((p, UP) for p in g.parents(node))
    return True


def local_markov_statements(g: Dag) -> list[CiStatement]:
    """Pairwise form of the local Markov condition.

    One statement per (node, non-descendant non-parent) pair, deduplicated
    across symmetric repeats; nodes iterate in declared order.
    """
    seen: set[tuple[frozenset[str], frozenset[str]]] = set()
    out: list[CiStatement] = []
    for v in g.nodes:
        nd = set(g.nodes) - g.descendants(v) - {v}
        parents = set(g.parents(v))
        for u in g.nodes:
            if u not in nd or u in parents or u == v:
                continue
            stmt = CiStatement(v, u, frozenset(parents))
            key = stmt.canonical()
            if key not in seen:
                seen.add(key)
                out.append(stmt)
    return out


# ---------------------------------------------------------------------------
# parameter fitting and scoring
# ---------------------------------------------------------------------------


def _require_complete(values: np.ndarray) -> None:
    if (values == MISSING).any():
        raise ValueError("data contains missing cells")


def _require_fittable(values: np.ndarray, ess: float) -> None:
    """The checks of :func:`fit_cpts` on the matrix it would read and the prior strength."""
    _require_complete(values)
    if ess < 0:
        raise ValueError("ess must be non-negative")


def _cpt_from_counts(counts: np.ndarray, ess: float) -> np.ndarray:
    """P(node=1 | assignment), shape ``(..., K)``, from the joint counts of (parents, node).

    ``counts`` has shape ``(..., K, 2)``: the K parent assignments in
    binary counting order, then the node's value.  P(node=1 | assignment) =
    (count1 + ess/2) / (count + ess); an assignment with zero denominator
    (ess=0, never observed) gets 0.5.  Leading axes (independent draws)
    are elementwise.
    """
    counts = counts.astype(np.float64)
    n1, n = counts[..., 1], counts.sum(axis=-1)
    denom = n + ess
    with np.errstate(invalid="ignore", divide="ignore"):
        p1 = (n1 + ess / 2.0) / denom
    return np.where(denom > 0, p1, 0.5)


def fit_cpts(g: Dag, data: EventMatrix, ess: float = 1.0) -> DiscreteBayesNet:
    """Bayesian CPT estimation with a symmetric prior of strength ``ess``.

    P(node=1 | assignment) = (count1 + ess/2) / (count + ess).  With
    ess=0 this is the maximum-likelihood estimate; parent assignments
    never observed then fall back to 0.5 (the limit of the prior mean).
    """
    _require_fittable(data.values, ess)
    missing_nodes = set(g.nodes) - set(data.columns)
    if missing_nodes:
        raise KeyError(f"nodes absent from data: {sorted(missing_nodes)}")
    cpts = []
    for node in g.nodes:
        parents = g.parents(node)
        cols = [data.column_index(p) for p in parents] + [data.column_index(node)]
        counts = joint_counts(data.values, cols).reshape(-1, 2)
        cpts.append(Cpt(node, parents, _cpt_from_counts(counts, ess)))
    return DiscreteBayesNet(g, tuple(cpts))


def log_likelihood(bn: DiscreteBayesNet, data: EventMatrix, floor: float = DEFAULT_LL_FLOOR) -> float:
    """Sum over rows and nodes of ln P(value | parent values).

    Exact zeros are replaced by ``floor`` so the result is finite even for
    maximum-likelihood tables with empty cells.
    """
    _require_complete(data.values)
    total = 0.0
    for cpt in bn.cpts:
        node_col = data.column_index(cpt.node)
        parent_cols = [data.column_index(p) for p in cpt.parents]
        idx = assignment_index(data.values, parent_cols)
        p1 = cpt.p1[idx]
        p = np.where(data.values[:, node_col] == 1, p1, 1.0 - p1)
        total += float(np.log(np.maximum(p, floor)).sum())
    return total


def local_bic(data: EventMatrix, node: str, parents: Sequence[str]) -> float:
    """Node-wise BIC term: ML log-likelihood minus (2^|parents| / 2) ln N.

    Only the columns of ``node`` and ``parents`` are read, and they must be complete.
    """
    values = data.values[:, [data.column_index(p) for p in parents] + [data.column_index(node)]]
    _require_complete(values)
    counts = joint_counts(values, range(values.shape[1])).reshape(-1, 2).astype(np.float64)
    n1, n = counts[:, 1], counts.sum(axis=1)
    n0 = n - n1
    ll = 0.0
    pos = n > 0
    for cnt in (n1, n0):
        nz = pos & (cnt > 0)
        ll += float((cnt[nz] * np.log(cnt[nz] / n[nz])).sum())
    penalty = 0.5 * (1 << len(parents)) * np.log(data.n_rows)
    return ll - penalty


def bic_score(g: Dag, data: EventMatrix) -> float:
    """Decomposable BIC with maximum-likelihood tables; higher is better.

    The free-parameter count is 2^|parents| per binary node, so scores are
    typically negative, matching the usual bar-chart convention.
    """
    _require_complete(data.values)
    return sum(local_bic(data, node, g.parents(node)) for node in g.nodes)


# ---------------------------------------------------------------------------
# exact inference
# ---------------------------------------------------------------------------


def query(bn: DiscreteBayesNet, target: str, evidence: Mapping[str, int] | None = None) -> float:
    """Exact P(target=1 | evidence), read off ``bn.marginal`` over the evidence and the target.

    Raises ZeroProbabilityEvidence when the evidence has probability 0.
    """
    evidence = dict(evidence or {})
    for label in (target, *evidence):
        if label not in bn.dag._index:
            raise KeyError(f"unknown node label: {label!r}")
    if target in evidence:
        return float(evidence[target])
    table = bn.marginal((*evidence, target))[tuple(int(v) for v in evidence.values())]
    p_evidence = table[0] + table[1]
    if p_evidence <= 0.0:
        raise ZeroProbabilityEvidence(f"evidence {evidence!r} has probability 0")
    return float(table[1] / p_evidence)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample(bn: DiscreteBayesNet, n: int, seed: int) -> EventMatrix:
    """Ancestral sampling in topological order; deterministic for a seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    columns = bn.dag.nodes
    values = np.zeros((n, len(columns)), dtype=np.int8)
    col_of = {c: i for i, c in enumerate(columns)}
    for node in bn.dag.topological_order():
        cpt = bn.cpt(node)
        p1 = cpt.p1[assignment_index(values, [col_of[p] for p in cpt.parents])]
        values[:, col_of[node]] = (rng.random(n) < p1).astype(np.int8)
    return EventMatrix(columns, values, provenance=f"sampled(seed={seed})")


# ---------------------------------------------------------------------------
# network serialization
# ---------------------------------------------------------------------------


def network_doc(bn: DiscreteBayesNet) -> dict:
    """The nodes, edges and tables of ``bn`` as a JSON-ready document."""
    return {
        "nodes": list(bn.dag.nodes),
        "edges": [list(e) for e in bn.dag.sorted_edges()],
        "cpts": [
            {
                "node": cpt.node,
                "parents": list(cpt.parents),
                "p1_by_assignment": [float(p) for p in cpt.p1],
            }
            for cpt in bn.cpts
        ],
    }


def network_to_json(bn: DiscreteBayesNet) -> str:
    return json.dumps(network_doc(bn), indent=2) + "\n"


def network_from_json(text: str) -> DiscreteBayesNet:
    doc = json.loads(text)
    dag = Dag(tuple(doc["nodes"]), [tuple(e) for e in doc["edges"]])
    cpts = tuple(
        Cpt(entry["node"], tuple(entry["parents"]), np.asarray(entry["p1_by_assignment"]))
        for entry in doc["cpts"]
    )
    return DiscreteBayesNet(dag, cpts)


def write_dag(g: Dag, path: str | Path) -> None:
    Path(path).write_text(g.to_edge_list(), encoding="utf-8")


def read_dag(path: str | Path) -> Dag:
    return Dag.from_edge_list(Path(path).read_text(encoding="utf-8"))
