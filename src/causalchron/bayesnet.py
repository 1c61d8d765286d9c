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

from .dataset import MISSING, EventMatrix, assignment_index, stacked_counts

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
    "local_bic",
    "local_bics",
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
    def _memo(self) -> dict:
        """Results of pure functions of this immutable graph, kept with the instance."""
        return {}

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
    table = np.empty(p1.shape + (2,))
    np.subtract(1.0, p1, out=table[..., 0])
    table[..., 1] = p1
    return table.reshape(p1.shape[:-1] + (2,) * (n_parents + 1))


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
        """P(nodes), shape ``(2,) * len(nodes)``, one axis per node in argument order: one draw of :func:`marginal`."""
        return marginal(self.dag, {c.node: c.table[None] for c in self.cpts}, nodes)[0]


def marginal(dag: Dag, tables: Mapping[str, np.ndarray], nodes: Sequence[str]) -> np.ndarray:
    """P(nodes) per draw, from the table P(node | parents) of each node of ``dag`` per draw.

    Every table carries a leading axis of independent draws, shape
    ``(D,) + (2,) * (k + 1)``, and so does the result, with one axis per
    node in argument order after it.  Only the tables of the ancestral
    closure of ``nodes`` enter: every other node is barren and sums to
    one.  The other variables of the closure are summed out one at a
    time with ``np.einsum``, first the one whose result has the smallest
    scope (ties by node order); the draw axis is one more label, kept in
    every factor and in the output.  Labels are renumbered at each step,
    so einsum's 52-label cap limits the scope of a single factor, not the
    size of the network.
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
        factors.append((scope, _contract(involved, scope)))
    return _contract(factors, nodes)


def _contract(factors: Sequence[tuple[tuple[str, ...], np.ndarray]], out: Sequence[str]) -> np.ndarray:
    """Product of (scope, table) factors, summed down to the variables ``out`` in that order.

    Each table has a leading draw axis outside its scope, labelled 0 in
    every operand and in the output; with no factors the result is one
    draw of probability one.
    """
    label: dict[str, int] = {}
    operands: list = []
    for scope, table in factors:
        operands += [table, [0] + [label.setdefault(v, 1 + len(label)) for v in scope]]
    if not operands:
        return np.ones(1)
    return np.einsum(*operands, [0] + [label[v] for v in out])


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


def _fit_p1(g: Dag, patterns: np.ndarray, counts: np.ndarray, ess: float) -> dict[str, np.ndarray]:
    """P(node=1 | parents) of every node of ``g``, fitted on each draw's pattern counts.

    ``patterns`` holds complete rows over the columns of ``g.nodes`` in
    that order (a pattern may repeat; its counts add up), and ``counts``
    one row of pattern counts per draw, shape (D, n_patterns).  Each
    node's (parents, node) counts are summed from the pattern counts of
    every draw in one bincount, so memory is D x n_patterns; float64 sums
    of integer counts below 2**53 are exact.  The result for a node with
    k parents has shape (D, 2**k), parent assignments in binary counting
    order: P(node=1 | assignment) = (count1 + ess/2) / (count + ess), and
    an assignment with zero denominator (ess=0, never observed) gets 0.5.
    """
    draw = np.arange(len(counts))[:, None]
    weights = counts.astype(np.float64).ravel()
    p1 = {}
    for n in g.nodes:
        cells = 2 << len(g.parents(n))
        local = assignment_index(patterns, [g._index[v] for v in (*g.parents(n), n)])
        joint = np.bincount((draw * cells + local).ravel(), weights, minlength=len(counts) * cells)
        joint = joint.reshape(len(counts), -1, 2)
        denom = joint.sum(axis=-1) + ess
        p1[n] = np.divide(joint[..., 1] + ess / 2.0, denom, out=np.full_like(denom, 0.5), where=denom > 0)
    return p1


def fit_cpts(g: Dag, data: EventMatrix, ess: float = 1.0) -> DiscreteBayesNet:
    """Bayesian CPT estimation with a symmetric prior of strength ``ess``.

    P(node=1 | assignment) = (count1 + ess/2) / (count + ess).  With
    ess=0 this is the maximum-likelihood estimate; parent assignments
    never observed then fall back to 0.5 (the limit of the prior mean).
    The tables are the one-draw case of :func:`_fit_p1` over the
    distinct rows (``data.row_patterns``).
    """
    rows, _, weights = data.row_patterns
    _require_fittable(rows, ess)
    missing_nodes = set(g.nodes) - set(data.columns)
    if missing_nodes:
        raise KeyError(f"nodes absent from data: {sorted(missing_nodes)}")
    p1 = _fit_p1(g, rows[:, [data.column_index(n) for n in g.nodes]], weights[None], ess)
    return DiscreteBayesNet(g, tuple(Cpt(n, g.parents(n), p1[n][0]) for n in g.nodes))


def log_likelihood(bn: DiscreteBayesNet, data: EventMatrix) -> float:
    """Sum over rows and nodes of ln P(value | parent values).

    Exact zeros are replaced by ``DEFAULT_LL_FLOOR`` so the result is
    finite even for maximum-likelihood tables with empty cells.
    """
    _require_complete(data.values)
    total = 0.0
    for cpt in bn.cpts:
        node_col = data.column_index(cpt.node)
        parent_cols = [data.column_index(p) for p in cpt.parents]
        idx = assignment_index(data.values, parent_cols)
        p1 = cpt.p1[idx]
        p = np.where(data.values[:, node_col] == 1, p1, 1.0 - p1)
        total += float(np.log(np.maximum(p, DEFAULT_LL_FLOOR)).sum())
    return total


def local_bic(data: EventMatrix, node: str, parents: Sequence[str]) -> float:
    """Node-wise BIC term: ML log-likelihood minus (2^|parents| / 2) ln N.

    Only the columns of ``node`` and ``parents`` are read, and they must be
    complete.  One family of :func:`local_bics`.
    """
    return local_bics(data, [(node, parents)])[0]


def local_bics(data: EventMatrix, families: Sequence[tuple[str, Sequence[str]]]) -> list[float]:
    """:func:`local_bic` of every (node, parents) family, counted in stacked passes.

    The families of one size are counted together by ``stacked_counts``
    over the distinct rows (``data.row_patterns``), with the parents in
    the given order as the high bits.  The log-likelihood terms are
    elementwise over all families; each family then sums its own nonzero
    terms with numpy's ``sum``, n1 cells before n0 cells, so its score
    has the bits of a count over the rows of that family alone.  A score
    is a pure function of the immutable matrix, so it is kept with the
    matrix and counted once.
    """
    memo = data._memo.setdefault("local_bic", {})
    keys = [(node, tuple(ps)) for node, ps in families]
    todo = [k for k in dict.fromkeys(keys) if k not in memo]
    if todo:
        memo.update(zip(todo, _count_local_bics(data, todo)))
    return [memo[k] for k in keys]


def _count_local_bics(data: EventMatrix, families: Sequence[tuple[str, tuple[str, ...]]]) -> list[float]:
    """The scores of :func:`local_bics`, counted; every family is counted once per call."""
    rows, _, weights = data.row_patterns
    cols = [[data.column_index(p) for p in ps] + [data.column_index(node)] for node, ps in families]
    by_width: dict[int, list[int]] = {}
    for f, c in enumerate(cols):
        by_width.setdefault(len(c), []).append(f)
    missing = (rows == MISSING).any(axis=0)
    log_n = np.log(data.n_rows)
    scores = [0.0] * len(cols)
    for width, members in by_width.items():
        block = np.array([cols[f] for f in members], dtype=np.intp)
        if missing[block].any():
            raise ValueError("data contains missing cells")
        penalty = 0.5 * (1 << (width - 1)) * log_n
        for lo, counts in stacked_counts(rows, weights, block):
            counts = counts.reshape(len(counts), -1, 2)
            n1 = counts[..., 1]
            n = counts.sum(axis=2)
            # per cell kind (n1, then n0): the nonzero terms of every family, family
            # after family, and where each family's run of terms ends
            runs = []
            for cnt in (n1, n - n1):
                nz = (n > 0) & (cnt > 0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    terms = (cnt * np.log(cnt / n))[nz]
                runs.append((terms, [0, *np.cumsum(nz.sum(axis=1)).tolist()]))
            for i in range(len(counts)):
                ll = 0.0
                for terms, ends in runs:
                    ll += float(np.add.reduce(terms[ends[i] : ends[i + 1]]))  # what .sum() runs
                scores[members[lo + i]] = ll - penalty
    return scores


def bic_score(g: Dag, data: EventMatrix) -> float:
    """Decomposable BIC with maximum-likelihood tables; higher is better.

    The free-parameter count is 2^|parents| per binary node, so scores are
    typically negative, matching the usual bar-chart convention.
    """
    _require_complete(data.values)
    return sum(local_bics(data, [(node, g.parents(node)) for node in g.nodes]))


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
    return EventMatrix(columns, values)


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


def write_dag(g: Dag, path: str | Path) -> None:
    Path(path).write_text(g.to_edge_list(), encoding="utf-8")


def read_dag(path: str | Path) -> Dag:
    return Dag.from_edge_list(Path(path).read_text(encoding="utf-8"))
