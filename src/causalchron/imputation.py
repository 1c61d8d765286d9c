"""Two-stage missing-data handling for event matrices.

Stage one fills every missing cell once (column mode, or a round-robin
nearest-rows scheme).  Stage two alternates re-imputation against the
current network (E-step) with structure and parameter relearning (M-step)
until the fraction of changed directed edges drops below a tolerance.
Observed cells are never modified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bayesnet import Dag, DiscreteBayesNet, fit_cpts
from .dataset import MISSING, EventMatrix, assignment_index, distinct_rows

__all__ = [
    "ImputationResult",
    "initial_impute",
    "em_impute",
    "edge_change_fraction",
    "INITIAL_FILLS",
]

Learner = Callable[[EventMatrix, int], Dag]


@dataclass(frozen=True)
class ImputationResult:
    completed: EventMatrix
    model: DiscreteBayesNet
    iterations: int
    edge_change_history: tuple[float, ...]
    converged: bool

    def report_json(self) -> str:
        doc = {
            "iterations": self.iterations,
            "edge_change_history": list(self.edge_change_history),
            "converged": self.converged,
        }
        return json.dumps(doc, indent=2) + "\n"


def _column_modes(values: np.ndarray) -> np.ndarray:
    """Majority observed value per column; ties resolve to 0."""
    observed = (values != MISSING).sum(axis=0)
    if not observed.all():
        raise ValueError(f"column {np.argmin(observed)} is fully missing; cannot impute")
    return (2 * (values == 1).sum(axis=0) > observed).astype(np.int8)


def _mode_impute(values: np.ndarray) -> np.ndarray:
    return np.where(values == MISSING, _column_modes(values), values)


# Size budget of one (target patterns x kept pool rows) float64 key
# temporary; a chunk holds at least one row.  Rows are independent, so
# chunking never changes the result, only peak memory.
_KEY_BUDGET_BYTES = 32 * 2**20


def _knn_majority(
    target_block: np.ndarray, pool_block: np.ndarray, pool_votes: np.ndarray, k: int
) -> np.ndarray:
    """Majority vote of each target row's k Hamming-nearest pool rows.

    A row's vote depends only on its values in the block, so it is computed
    once per distinct target pattern and broadcast back to the rows.
    Hamming distance on binary blocks reduces to |a| + |b| - 2 a.b, so the
    distance matrix comes from one matmul; neighbor sets are selected on the
    composite key distance * n_pool + index, which is unique per pool row
    and therefore deterministic.  Rows of one pool pattern are equally far
    from every target, so under that key a row can be among a target's k
    nearest only if it is among the first k rows of its pattern: only those
    rows enter the key matrix, each keyed by its original pool index.
    Majority ties resolve to 0.  A block with no columns gives every pool
    row distance 0, so the first k pool rows vote.

    Cost is O(n_target_patterns x n_pool_patterns x k) time, where each
    pattern count is at most 2 ** n_cols and at most the number of its rows;
    the key matrix is built in row chunks of about ``_KEY_BUDGET_BYTES``
    each.
    """
    n_pool = pool_block.shape[0]
    kk = min(k, n_pool)
    _, pool_ids, pool_counts = distinct_rows(pool_block)
    # each pool row's rank among the rows of its pattern, in pool order
    by_pattern = np.argsort(pool_ids, kind="stable")
    rank = np.empty(n_pool, dtype=np.intp)
    rank[by_pattern] = np.arange(n_pool) - np.repeat(np.cumsum(pool_counts) - pool_counts, pool_counts)
    kept = np.flatnonzero(rank < kk)
    first, inverse, _ = distinct_rows(target_block)
    tf = target_block[first].astype(np.float64)
    pf = pool_block[kept].astype(np.float64)
    ones_t = tf.sum(axis=1, keepdims=True)
    ones_p = pf.sum(axis=1)
    index_term = kept.astype(np.float64)[None, :]
    kept_votes = pool_votes[kept]
    out = np.empty(len(first), dtype=np.int8)
    chunk = max(1, _KEY_BUDGET_BYTES // (8 * len(kept)))
    for lo in range(0, len(first), chunk):
        hi = min(lo + chunk, len(first))
        keys = (ones_t[lo:hi] + ones_p[None, :] - 2.0 * (tf[lo:hi] @ pf.T)) * n_pool + index_term
        nearest = np.argpartition(keys, kk - 1, axis=1)[:, :kk]
        votes = kept_votes[nearest]
        out[lo:hi] = ((votes == 1).sum(axis=1) * 2 > kk).astype(np.int8)
    return out[inverse]


def _round_robin_impute(values: np.ndarray, k: int = 25, sweeps: int = 3) -> np.ndarray:
    """Predict each missing cell from the k nearest rows, column by column.

    Distance is Hamming distance over the columns that are complete at that
    point of the sweep; only rows where the target column was actually
    observed get a vote.  Columns become complete as soon as they are
    processed, so later columns (and later sweeps) see more context.
    Sweeps stop early once a full pass changes nothing.

    Each column costs O(n_target_patterns x n_pool_patterns x k) time, where
    the pattern counts are those of the distinct context patterns among its
    missing and its observed rows (each at most 2 ** (d - 1)), and memory
    linear in the rows plus a bounded key chunk (see ``_knn_majority``).
    """
    work = values.copy()
    missing_mask = values == MISSING
    d = values.shape[1]
    complete = {j for j in range(d) if not missing_mask[:, j].any()}
    for _ in range(sweeps):
        changed = False
        for j in range(d):
            rows = np.flatnonzero(missing_mask[:, j])
            if rows.size == 0:
                complete.add(j)
                continue
            pool = np.flatnonzero(~missing_mask[:, j])
            if pool.size == 0:
                raise ValueError(f"column {j} is fully missing; cannot impute")
            dist_cols = sorted(c for c in complete if c != j)
            predicted = _knn_majority(
                work[np.ix_(rows, dist_cols)],
                work[np.ix_(pool, dist_cols)],
                values[pool, j],
                k,
            )
            if not np.array_equal(predicted, work[rows, j]):
                changed = True
            work[rows, j] = predicted
            complete.add(j)
        if not changed:
            break
    return work


#: the single-pass fills ``initial_impute`` offers, by method name
INITIAL_FILLS = {"mode": _mode_impute, "round_robin": _round_robin_impute}


def initial_impute(m: EventMatrix, method: str = "mode") -> EventMatrix:
    """Single-pass fill of every missing cell; observed cells untouched."""
    if method not in INITIAL_FILLS:
        raise ValueError(f"unknown initial imputation method {method!r}; expected one of {tuple(INITIAL_FILLS)}")
    return m if m.is_complete else m.replace_values(INITIAL_FILLS[method](m.values))


def edge_change_fraction(g1: Dag, g2: Dag) -> float:
    """|E1 symmetric-difference E2| / max(|E1 union E2|, 1)."""
    if set(g1.nodes) != set(g2.nodes):
        raise ValueError("graphs must share the same node set")
    union = g1.edges | g2.edges
    if not union:
        return 0.0
    return len(g1.edges ^ g2.edges) / len(union)


def em_impute(
    m: EventMatrix,
    learner: Learner,
    max_iter: int = 10,
    tol: float = 0.01,
    ess: float = 1.0,
    seed: int = 0,
    initial_method: str = "mode",
) -> ImputationResult:
    """Joint imputation and network learning.

    Each cycle relearns the graph from the current completed matrix
    (M-step), then resets every originally-missing cell to the most likely
    value given its parents under the refitted tables (E-step), filling
    nodes in topological order so that each cell reads its parents' values
    of the same E-step.  Cycles stop when the fraction of changed directed
    edges between consecutive learned graphs falls below ``tol``.  Exact
    0.5 probabilities resolve to the column mode.  Learner failures
    propagate annotated with the cycle index.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol >= 0:  # NaN too: no change fraction is below it
        raise ValueError("tol must be non-negative")
    missing_mask = m.values == MISSING
    modes = _column_modes(m.values)
    completed = initial_impute(m, method=initial_method)

    def learn(mat: EventMatrix, iteration: int) -> Dag:
        try:
            return learner(mat, seed)
        except Exception as exc:
            raise RuntimeError(f"structure learner failed at EM iteration {iteration}: {exc}") from exc

    prev_graph = learn(completed, 0)
    history: list[float] = []
    converged = False
    graph = prev_graph
    for iteration in range(1, max_iter + 1):
        bn = fit_cpts(prev_graph, completed, ess=ess)
        completed = _e_step(bn, completed, missing_mask, modes)
        graph = learn(completed, iteration)
        change = edge_change_fraction(prev_graph, graph)
        history.append(change)
        prev_graph = graph
        if change < tol:
            converged = True
            break
    model = fit_cpts(graph, completed, ess=ess)
    return ImputationResult(
        completed=completed,
        model=model,
        iterations=len(history),
        edge_change_history=tuple(history),
        converged=converged,
    )


def _e_step(
    bn: DiscreteBayesNet,
    completed: EventMatrix,
    missing_mask: np.ndarray,
    modes: np.ndarray,
) -> EventMatrix:
    """Reset originally-missing cells to their most likely value given their parents.

    Nodes are filled in topological order, so the parent values a fill
    reads are final: observed, or filled earlier in this pass.  The result
    is the one assignment in which every originally-missing cell holds its
    most likely value given its parents' values in that same assignment.
    Exact 0.5 probabilities resolve to the column mode.
    """
    values = completed.values.copy()
    col_of = {c: i for i, c in enumerate(completed.columns)}
    for node in bn.dag.topological_order():
        j = col_of[node]
        rows = np.flatnonzero(missing_mask[:, j])
        if rows.size == 0:
            continue
        cpt = bn.cpt(node)
        p1 = cpt.p1[assignment_index(values[rows], [col_of[p] for p in cpt.parents])]
        values[rows, j] = np.where(p1 > 0.5, 1, np.where(p1 < 0.5, 0, modes[j])).astype(np.int8)
    if np.array_equal(values, completed.values):
        return completed
    return completed.replace_values(values)
