"""Direct-ordering linear non-Gaussian learner.

Repeatedly picks the most exogenous variable by comparing log-cosh-based
entropy proxies of (variable, residual) pairs in both directions, regresses
it out of the remainder, and appends it to the causal order; edges then come
from thresholding standardized regression coefficients of each node on its
order-predecessors.  Deterministic throughout (ties break on column order).

Applying this to binary columns violates the continuous-noise assumption the
method is built on, so learned edges are hypotheses to cross-check against
the other learners, not conclusions.
"""

from __future__ import annotations

import numpy as np

from .._coerce import check_ranges
from ..bayesnet import Dag
from ..dataset import EventMatrix

__all__ = ["lingam_learn"]

#: the allowed values of the parameters :func:`lingam_learn` checks
PARAM_RANGES = {"threshold": (lambda t: t >= 0, "non-negative")}

# maximum-entropy approximation constants for the differential entropy of a
# standardized variable (Hyvarinen's negentropy approximation)
_K1 = 79.047
_K2 = 7.4129
_GAMMA = 0.37457
_H_GAUSS = 0.5 * (1.0 + np.log(2.0 * np.pi))

_VAR_EPS = 1e-12


def _entropy_proxy(u: np.ndarray) -> float:
    """Approximate differential entropy of a standardized sample."""
    return float(
        _H_GAUSS
        - _K1 * (np.mean(np.log(np.cosh(u))) - _GAMMA) ** 2
        - _K2 * np.mean(u * np.exp(-0.5 * u * u)) ** 2
    )


def _standardize(u: np.ndarray) -> np.ndarray:
    sd = u.std()
    return u / sd if sd > _VAR_EPS else u


def _pairwise_ratio(xi: np.ndarray, xj: np.ndarray, h_i: float, h_j: float) -> float:
    """Positive when the model i -> j explains the pair better than j -> i.

    ``h_i`` and ``h_j`` are the entropy proxies of the standardized columns,
    which must not be constant.  Swapping i and j swaps the two residuals
    and the two sums, so the ratio of (j, i) is exactly minus this one.
    """
    r_j_given_i = xj - (np.dot(xi, xj) / np.dot(xi, xi)) * xi
    r_i_given_j = xi - (np.dot(xj, xi) / np.dot(xj, xj)) * xj
    h_forward = h_i + _entropy_proxy(_standardize(r_j_given_i))
    h_backward = h_j + _entropy_proxy(_standardize(r_i_given_j))
    return h_backward - h_forward


def _causal_order(centered: np.ndarray) -> list[int]:
    d = centered.shape[1]
    remaining = list(range(d))
    resid = centered.copy()
    order: list[int] = []
    while len(remaining) > 1:
        # constant columns are maximally exogenous: nothing can predict them
        constants = [j for j in remaining if resid[:, j].var() <= _VAR_EPS]
        if constants:
            root = constants[0]
        else:
            entropy = {j: _entropy_proxy(_standardize(resid[:, j])) for j in remaining}
            ratio = [[0.0] * d for _ in range(d)]  # antisymmetric: each pair scored once
            for pos, i in enumerate(remaining):
                for j in remaining[pos + 1 :]:
                    r = _pairwise_ratio(resid[:, i], resid[:, j], entropy[i], entropy[j])
                    ratio[i][j] = r
                    ratio[j][i] = -r
            scores = []
            for i in remaining:
                t = 0.0
                for j in remaining:
                    if j == i:
                        continue
                    t += min(0.0, ratio[i][j]) ** 2
                scores.append((t, i))
            root = min(scores)[1]
        order.append(root)
        remaining.remove(root)
        xr = resid[:, root]
        denom = np.dot(xr, xr)
        if denom > _VAR_EPS:
            for j in remaining:
                resid[:, j] = resid[:, j] - (np.dot(xr, resid[:, j]) / denom) * xr
    order.extend(remaining)
    return order


def lingam_learn(data: EventMatrix, threshold: float = 0.1) -> Dag:
    """Learn a DAG consistent with the discovered exogeneity order.

    Each node is regressed on all its order-predecessors at once; an edge is
    kept when the standardized coefficient exceeds ``threshold`` in absolute
    value.  Constant columns are treated as exogenous with no incident edges.
    """
    check_ranges(PARAM_RANGES, locals())
    if not data.is_complete:
        raise ValueError("lingam requires complete data")
    x = data.values.astype(np.float64)
    centered = x - x.mean(axis=0)
    d = centered.shape[1]
    order = _causal_order(centered)
    sd = centered.std(axis=0)
    edges: list[tuple[str, str]] = []
    for pos in range(1, d):
        child = order[pos]
        if sd[child] <= _VAR_EPS:
            continue
        preds = [p for p in order[:pos] if sd[p] > _VAR_EPS]
        if not preds:
            continue
        design = centered[:, preds]
        beta, *_ = np.linalg.lstsq(design, centered[:, child], rcond=None)
        for coef, p in zip(beta, preds):
            if abs(coef) * sd[p] / sd[child] > threshold:
                edges.append((data.columns[p], data.columns[child]))
    return Dag(data.columns, edges)
