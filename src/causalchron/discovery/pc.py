"""Constraint-based structure learning: stable-skeleton PC with Meek closure.

The skeleton phase freezes adjacency sets at the start of every level, so
the skeleton does not depend on column order, and a level's G² tests are
all known when it starts: they run in one ``g2_tests`` pass over the
distinct rows, and the early stop of each pair is replayed on the
p-values.  V-structures are oriented from the recorded separating sets,
Meek rules 1-3 are applied to closure (rule 4 only matters under
background knowledge, which we never supply), and any still-undirected
edge is forced along the column order unless that would create a cycle
or a fresh v-structure.  Forced edges are reported so downstream
consumers can treat them as lower-confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .._coerce import check_ranges
from ..bayesnet import Dag, reachable
from ..dataset import EventMatrix
from .citests import (
    ci_test_g2,  # noqa: F401  unused here; perfbench/tracer.py patches pc.ci_test_g2 by name
    g2_tests,
)

__all__ = ["PcResult", "pc_learn"]

#: the allowed values of the parameters :func:`pc_learn` checks
PARAM_RANGES = {"alpha": (lambda a: 0 <= a <= 1, "in [0, 1]")}


@dataclass(frozen=True)
class PcResult:
    dag: Dag
    order_forced_edges: frozenset[tuple[str, str]]
    separating_sets: dict[frozenset[str], frozenset[str]]


class _Pdag:
    """Mixed graph bookkeeping during orientation."""

    def __init__(self, nodes: tuple[str, ...], undirected: set[frozenset[str]]):
        self.nodes = nodes
        self.undirected = set(undirected)
        self.directed: set[tuple[str, str]] = set()

    def adjacent(self, a: str, b: str) -> bool:
        return (
            frozenset((a, b)) in self.undirected
            or (a, b) in self.directed
            or (b, a) in self.directed
        )

    def orient(self, a: str, b: str) -> None:
        self.undirected.discard(frozenset((a, b)))
        self.directed.add((a, b))

    def parents(self, node: str) -> list[str]:
        return [p for p, c in self.directed if c == node]

    def has_directed_path(self, src: str, dst: str) -> bool:
        return src in reachable([dst], self.parents)

    def creates_new_v(self, a: str, b: str) -> bool:
        """Would orienting a -> b create a collider at b with a non-adjacent co-parent?"""
        return any(p != a and not self.adjacent(p, a) for p in self.parents(b))


def _meek_closure(g: _Pdag) -> None:
    # the cycle guard is a no-op on consistent PDAGs; it only bites when
    # imperfect tests produced contradictory v-structures
    changed = True
    while changed:
        changed = False
        for pair in sorted(g.undirected, key=sorted):
            a, b = sorted(pair)
            for u, v in ((a, b), (b, a)):
                if _meek_applies(g, u, v) and not g.has_directed_path(v, u):
                    g.orient(u, v)
                    changed = True
                    break
            if changed:
                break


def _meek_applies(g: _Pdag, u: str, v: str) -> bool:
    # R1: w -> u, w not adjacent to v  =>  u -> v
    for w in g.parents(u):
        if w != v and not g.adjacent(w, v):
            return True
    # R2: directed path u -> w -> v  =>  u -> v
    for w in g.nodes:
        if (u, w) in g.directed and (w, v) in g.directed:
            return True
    # R3: u - w1, u - w2, w1 -> v, w2 -> v, w1 not adjacent w2  =>  u -> v
    ws = [
        w
        for w in g.nodes
        if frozenset((u, w)) in g.undirected and (w, v) in g.directed
    ]
    for w1, w2 in combinations(ws, 2):
        if not g.adjacent(w1, w2):
            return True
    return False


def pc_learn(data: EventMatrix, alpha: float = 0.05) -> PcResult:
    """PC with G-squared tests at significance ``alpha``.

    Returns a fully oriented DAG; edges that neither v-structures nor Meek
    rules could orient are directed along the column order (never creating
    a cycle or a new v-structure) and flagged as order-forced.
    """
    check_ranges(PARAM_RANGES, locals())
    if not data.is_complete:
        raise ValueError("pc requires complete data")
    if data.n_cols < 2:
        raise ValueError("need at least 2 columns")
    return _orient(data.columns, *_skeleton(data, alpha))


def _skeleton(
    data: EventMatrix, alpha: float
) -> tuple[set[frozenset[str]], dict[frozenset[str], frozenset[str]]]:
    """The stable skeleton and the separating set of every removed pair.

    Adjacency is frozen at the start of every level, so a level's tests
    are known before it starts: a pair (a, b) tests the subsets of a's
    frozen neighbours other than b, then those of b's, in combination
    order.  All tests of a level are counted in one ``g2_tests`` pass;
    the first independent set in a pair's test order then removes the
    pair and becomes its separating set, as if the tests had run one at
    a time and stopped there.
    """
    nodes = data.columns
    index = {n: i for i, n in enumerate(nodes)}
    adjacency: dict[str, set[str]] = {n: set(nodes) - {n} for n in nodes}
    sepsets: dict[frozenset[str], frozenset[str]] = {}
    rows, _, weights = data.row_patterns
    level = 0
    while True:
        frozen = {n: tuple(sorted(adjacency[n], key=index.__getitem__)) for n in nodes}
        if all(len(frozen[n]) - 1 < level for n in nodes):
            break
        pairs: list[tuple[str, str, int, int]] = []  # (a, b, first test, end of its tests)
        sets: list[tuple[str, ...]] = []
        for a in nodes:
            for b in frozen[a]:
                if index[b] < index[a]:
                    continue
                first = len(sets)
                for base, other in ((a, b), (b, a)):
                    sets.extend(combinations([v for v in frozen[base] if v != other], level))
                pairs.append((a, b, first, len(sets)))
        if sets:
            cols = [
                [index[v] for v in zs] + [index[a], index[b]] for a, b, lo, hi in pairs for zs in sets[lo:hi]
            ]
            independent = g2_tests(rows, weights, cols)[2] > alpha
            for a, b, lo, hi in pairs:
                t = next((t for t in range(lo, hi) if independent[t]), None)
                if t is not None:
                    adjacency[a].discard(b)
                    adjacency[b].discard(a)
                    sepsets[frozenset((a, b))] = frozenset(sets[t])
        level += 1
    return {frozenset((a, b)) for a in nodes for b in adjacency[a]}, sepsets


def _orient(
    nodes: tuple[str, ...],
    skeleton: set[frozenset[str]],
    sepsets: dict[frozenset[str], frozenset[str]],
) -> PcResult:
    """Orient the skeleton: v-structures, Meek closure, then column order."""
    index = {n: i for i, n in enumerate(nodes)}
    g = _Pdag(nodes, skeleton)

    # v-structures from separating sets; conflicting demands cancel out
    demands: set[tuple[str, str]] = set()
    for c in nodes:
        neighbors = sorted((n for n in nodes if frozenset((n, c)) in skeleton), key=index.__getitem__)
        for a, b in combinations(neighbors, 2):
            if frozenset((a, b)) in skeleton:
                continue
            sep = sepsets.get(frozenset((a, b)), frozenset())
            if c not in sep:
                demands.add((a, c))
                demands.add((b, c))
    for a, b in sorted(demands):
        if (b, a) not in demands and frozenset((a, b)) in g.undirected and not g.has_directed_path(b, a):
            g.orient(a, b)

    _meek_closure(g)

    # force remaining undirected edges along column order
    forced: set[tuple[str, str]] = set()
    while g.undirected:
        pair = min(g.undirected, key=lambda p: sorted(index[n] for n in p))
        a, b = sorted(pair, key=index.__getitem__)
        choice = None
        for u, v in ((a, b), (b, a)):
            if not g.has_directed_path(v, u) and not g.creates_new_v(u, v):
                choice = (u, v)
                break
        if choice is None:
            # fall back to acyclicity alone
            choice = (a, b) if not g.has_directed_path(b, a) else (b, a)
        g.orient(*choice)
        forced.add(choice)
        _meek_closure(g)

    dag = Dag(nodes, g.directed)
    return PcResult(dag, frozenset(forced), sepsets)
