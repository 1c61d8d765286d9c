"""Constraint-based structure learning: stable-skeleton PC with Meek closure.

The skeleton phase freezes adjacency sets at the start of every level, so
the skeleton does not depend on column order.  V-structures are oriented
from the recorded separating sets, Meek rules 1-3 are applied to closure
(rule 4 only matters under background knowledge, which we never supply),
and any still-undirected edge is forced along the column order unless that
would create a cycle or a fresh v-structure.  Forced edges are reported so
downstream consumers can treat them as lower-confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..bayesnet import Dag, reachable
from ..dataset import EventMatrix
from .citests import ci_test_g2

__all__ = ["PcResult", "pc_learn"]


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
    if not data.is_complete:
        raise ValueError("pc requires complete data")
    nodes = data.columns
    if len(nodes) < 2:
        raise ValueError("need at least 2 columns")
    index = {n: i for i, n in enumerate(nodes)}
    adjacency: dict[str, set[str]] = {n: set(nodes) - {n} for n in nodes}
    sepsets: dict[frozenset[str], frozenset[str]] = {}

    # stable skeleton: adjacency frozen per level
    level = 0
    while True:
        frozen = {n: tuple(sorted(adjacency[n], key=index.__getitem__)) for n in nodes}
        if all(len(frozen[n]) - 1 < level for n in nodes):
            break
        for a in nodes:
            for b in frozen[a]:
                if index[b] < index[a] or b not in adjacency[a]:
                    continue
                removed = False
                for base in (a, b):
                    other = b if base == a else a
                    candidates = [v for v in frozen[base] if v != other]
                    if len(candidates) < level:
                        continue
                    for zs in combinations(candidates, level):
                        if ci_test_g2(data, a, b, list(zs)).independent(alpha):
                            adjacency[a].discard(b)
                            adjacency[b].discard(a)
                            sepsets[frozenset((a, b))] = frozenset(zs)
                            removed = True
                            break
                    if removed:
                        break
        level += 1

    skeleton = {frozenset((a, b)) for a in nodes for b in adjacency[a]}
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
