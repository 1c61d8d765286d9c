"""Score-based structure learning: greedy hill climbing on decomposable BIC.

Each step lists its legal moves first, with ancestor sets from one
``reachable`` walk per node.  A move's gain is kept with the parent sets
it reads, so a step works out only the gains of moves whose parent sets
changed, and the local scores those read come from one ``local_bics``
call, which counts the families (node, parent set) the matrix has not
scored yet in stacked passes over its distinct rows.  The best move is
then picked in the fixed move order, so ties break as in a
one-move-at-a-time search.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .._coerce import check_ranges
from ..bayesnet import (
    Dag,
    local_bic,  # noqa: F401  unused here; perfbench/tracer.py patches hc.local_bic by name
    local_bics,
    reachable,
)
from ..dataset import EventMatrix

__all__ = ["hc_learn"]

#: the allowed values of the parameters :func:`hc_learn` checks
PARAM_RANGES = {"restarts": (lambda r: r >= 0, "non-negative")}

_MIN_GAIN = 1e-12  # accepted moves must improve the score by more than this

# gains closer than this count as tied and fall back to lexicographic move
# order; score-equivalent moves (e.g. either orientation of a fresh edge)
# differ only by float rounding, and resolving them by that noise makes the
# output flip under tiny data perturbations
_TIE_EPS = 1e-6

_KINDS = ("add", "delete", "reverse")

Family = tuple[str, frozenset[str]]
#: (kind rank, parent, child): adding, deleting or reversing the edge parent -> child
Move = tuple[int, str, str]
#: a move with the parent sets its gain reads: the child's, then the parent's for a reversal
GainKey = tuple[Move, frozenset[str], frozenset[str] | None]


def _families(key: GainKey) -> tuple[Family, ...]:
    """The families whose scores make a move's gain: new child, old child, then
    for a reversal new parent, old parent."""
    (kind, a, b), pb, pa = key
    if kind == 0:
        return (b, pb | {a}), (b, pb)
    if kind == 1:
        return (b, pb - {a}), (b, pb)
    return (b, pb - {a}), (b, pb), (a, pa | {b}), (a, pa)


class _SearchState:
    """Parent-set bookkeeping with cached move gains."""

    def __init__(self, data: EventMatrix):
        self.data = data
        self.nodes = data.columns
        self.parents: dict[str, frozenset[str]] = {n: frozenset() for n in self.nodes}
        self._index = {n: i for i, n in enumerate(self.nodes)}
        self._gains: dict[GainKey, float] = {}

    def local(self, families: Iterable[Family]) -> list[float]:
        """The local scores of the families, parents in column order, from one ``local_bics`` call."""
        return local_bics(self.data, [(n, sorted(ps, key=self._index.__getitem__)) for n, ps in families])

    def gains(self, moves: list[Move]) -> list[float]:
        """The score gain of each move; only gains whose parent sets are new are worked out."""
        parents = self.parents
        keys = [(m, parents[m[2]], parents[m[1]] if m[0] == 2 else None) for m in moves]
        stale = {k: _families(k) for k in keys if k not in self._gains}
        families = list(dict.fromkeys(f for fs in stale.values() for f in fs))
        local = dict(zip(families, self.local(families)))
        for k, fs in stale.items():
            s = [local[f] for f in fs]
            self._gains[k] = s[0] - s[1] if len(s) == 2 else s[0] - s[1] + s[2] - s[3]
        return [self._gains[k] for k in keys]

    def score(self) -> float:
        return sum(self.local(self.parents.items()))


def _best_move(
    state: _SearchState, max_indegree: int | None
) -> tuple[float, tuple[str, str, str]] | None:
    """Highest-gain legal single-edge move; ties keep the lexicographically
    first (kind, parent, child) with kind ordered add < delete < reverse.

    Adding a -> b closes a cycle when b is an ancestor of a; reversing
    a -> b does when a is an ancestor of another parent of b.
    """
    parents = state.parents
    up = {n: reachable([n], parents.__getitem__) for n in state.nodes}
    cap = len(state.nodes) if max_indegree is None else max_indegree
    moves: list[Move] = []
    for a in state.nodes:
        pa = parents[a]
        for b in state.nodes:
            if a == b:
                continue
            pb = parents[b]
            if a in pb:
                moves.append((1, a, b))
                if len(pa) < cap and not any(a in up[p] for p in pb if p != a):
                    moves.append((2, a, b))
            elif b not in pa and len(pb) < cap and b not in up[a]:
                moves.append((0, a, b))
    best: tuple[float, Move] | None = None
    for key, delta in zip(moves, state.gains(moves)):
        if delta <= _MIN_GAIN:
            continue
        if best is None or delta > best[0] + _TIE_EPS:
            best = (delta, key)
        elif delta > best[0] - _TIE_EPS and key < best[1]:
            best = (max(delta, best[0]), key)
    if best is None:
        return None
    delta, (kind_rank, a, b) = best
    return delta, (_KINDS[kind_rank], a, b)


def _apply(state: _SearchState, move: tuple[str, str, str]) -> None:
    kind, a, b = move
    if kind == "add":
        state.parents[b] = state.parents[b] | {a}
    elif kind == "delete":
        state.parents[b] = state.parents[b] - {a}
    else:
        state.parents[b] = state.parents[b] - {a}
        state.parents[a] = state.parents[a] | {b}


def _climb(state: _SearchState, max_indegree: int | None) -> list[float]:
    trace = [state.score()]
    while True:
        found = _best_move(state, max_indegree)
        if found is None:
            return trace
        _apply(state, found[1])
        trace.append(trace[-1] + found[0])


def _random_start(state: _SearchState, rng: np.random.Generator, max_indegree: int | None) -> None:
    """Seed the search with a random sparse DAG (used by restarts)."""
    state.parents = {n: frozenset() for n in state.nodes}
    nodes = list(state.nodes)
    order = rng.permutation(len(nodes))
    cap = 2 if max_indegree is None else min(2, max(max_indegree, 0))
    for pos, j in enumerate(order):
        child = nodes[j]
        candidates = [nodes[order[i]] for i in range(pos)]
        if not candidates:
            continue
        k = int(rng.integers(0, cap + 1))
        k = min(k, len(candidates))
        picks = rng.choice(len(candidates), size=k, replace=False) if k else []
        state.parents[child] = frozenset(candidates[int(i)] for i in picks)


def hc_learn(
    data: EventMatrix,
    max_indegree: int | None = None,
    seed: int = 0,
    restarts: int = 0,
    return_trace: bool = False,
) -> Dag | tuple[Dag, list[float]]:
    """Greedy best-improvement search over add/delete/reverse edge moves.

    Starts from the empty graph and climbs the decomposable BIC until no
    move improves it; the trajectory is strictly increasing.  Ties between
    equal-gain moves break on lexicographic move order, so the result is
    deterministic; ``restarts`` additional climbs from random sparse DAGs
    (seeded) keep the best-scoring result.
    """
    check_ranges(PARAM_RANGES, {"restarts": restarts})
    if not data.is_complete:
        raise ValueError("hill climbing requires complete data")
    if data.n_cols < 2:
        raise ValueError("need at least 2 columns")
    state = _SearchState(data)
    trace = _climb(state, max_indegree)
    best_parents = dict(state.parents)
    best_score = trace[-1]
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        _random_start(state, rng, max_indegree)
        t = _climb(state, max_indegree)
        if t[-1] > best_score:
            best_score = t[-1]
            best_parents = dict(state.parents)
            trace = t
    dag = Dag(data.columns, [(p, c) for c in data.columns for p in best_parents[c]])
    return (dag, trace) if return_trace else dag
