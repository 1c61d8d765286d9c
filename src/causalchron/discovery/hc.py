"""Score-based structure learning: greedy hill climbing on decomposable BIC."""

from __future__ import annotations

import numpy as np

from ..bayesnet import Dag, local_bic, reachable
from ..dataset import EventMatrix

__all__ = ["hc_learn"]

_MIN_GAIN = 1e-12  # accepted moves must improve the score by more than this

# gains closer than this count as tied and fall back to lexicographic move
# order; score-equivalent moves (e.g. either orientation of a fresh edge)
# differ only by float rounding, and resolving them by that noise makes the
# output flip under tiny data perturbations
_TIE_EPS = 1e-6


class _SearchState:
    """Parent-set bookkeeping with cached local scores."""

    def __init__(self, data: EventMatrix):
        self.data = data
        self.nodes = data.columns
        self.parents: dict[str, frozenset[str]] = {n: frozenset() for n in self.nodes}
        self._index = {n: i for i, n in enumerate(self.nodes)}
        self._cache: dict[tuple[str, frozenset[str]], float] = {}

    def local(self, node: str, parents: frozenset[str]) -> float:
        key = (node, parents)
        if key not in self._cache:
            ordered = tuple(sorted(parents, key=self._index.__getitem__))
            self._cache[key] = local_bic(self.data, node, ordered)
        return self._cache[key]

    def score(self) -> float:
        return sum(self.local(n, self.parents[n]) for n in self.nodes)

    def has_path(self, src: str, dst: str) -> bool:
        """Whether a directed path leads from src to dst, walking parents up from dst."""
        return src in reachable([dst], self.parents.__getitem__)


def _best_move(
    state: _SearchState, max_indegree: int | None
) -> tuple[float, tuple[str, str, str]] | None:
    """Highest-gain legal single-edge move; ties keep the lexicographically
    first (kind, parent, child) with kind ordered add < delete < reverse."""
    best: tuple[float, tuple[int, str, str]] | None = None
    kinds = {"add": 0, "delete": 1, "reverse": 2}
    for a in state.nodes:
        for b in state.nodes:
            if a == b:
                continue
            moves: list[str] = []
            if a in state.parents[b]:
                moves.append("delete")
                moves.append("reverse")
            elif b not in state.parents[a]:
                moves.append("add")
            for kind in moves:
                if kind == "add":
                    if max_indegree is not None and len(state.parents[b]) >= max_indegree:
                        continue
                    if state.has_path(b, a):
                        continue
                    delta = state.local(b, state.parents[b] | {a}) - state.local(b, state.parents[b])
                elif kind == "delete":
                    delta = state.local(b, state.parents[b] - {a}) - state.local(b, state.parents[b])
                else:  # reverse a->b into b->a
                    if max_indegree is not None and len(state.parents[a]) >= max_indegree:
                        continue
                    state.parents[b] = state.parents[b] - {a}
                    cycle = state.has_path(a, b)
                    state.parents[b] = state.parents[b] | {a}
                    if cycle:
                        continue
                    delta = (
                        state.local(b, state.parents[b] - {a})
                        - state.local(b, state.parents[b])
                        + state.local(a, state.parents[a] | {b})
                        - state.local(a, state.parents[a])
                    )
                key = (kinds[kind], a, b)
                if delta <= _MIN_GAIN:
                    continue
                if best is None or delta > best[0] + _TIE_EPS:
                    best = (delta, key)
                elif delta > best[0] - _TIE_EPS and key < best[1]:
                    best = (max(delta, best[0]), key)
    if best is None:
        return None
    delta, (kind_rank, a, b) = best
    kind = {v: k for k, v in kinds.items()}[kind_rank]
    return delta, (kind, a, b)


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
