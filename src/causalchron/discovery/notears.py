"""Continuous DAG learning by penalized least squares.

Minimizes (1/2n) ||X - XW||_F^2 + lambda ||W||_1 subject to the smooth
acyclicity constraint h(W) = tr(exp(W*W)) - d = 0, via an augmented
Lagrangian: the inner problem is solved by L-BFGS-B on the nonnegative
split W = W+ - W-, the dual variable is updated as alpha += rho * h, and
rho grows tenfold whenever h fails to shrink by a factor of four.  The
data matrix only enters through its Gram matrix, so inner iterations cost
O(d^3) regardless of sample size.

Columns are centered but deliberately not rescaled by default: the method
is not invariant to variable rescaling, so changing the scale changes the
answer.  A ``standardize`` flag exposes the alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .._coerce import check_ranges
from ..bayesnet import Dag, cycle_edges
from ..dataset import EventMatrix

__all__ = [
    "WeightedAdjacency",
    "NotearsConvergenceError",
    "acyclicity_h",
    "notears_learn",
    "threshold_to_dag",
]


#: the allowed values of the parameters :func:`notears_learn` checks
PARAM_RANGES = {"lambda1": (lambda v: v >= 0, "non-negative")}


class NotearsConvergenceError(RuntimeError):
    """The augmented Lagrangian hit the penalty cap before h <= h_tol."""

    def __init__(self, h_final: float, rho: float):
        super().__init__(f"failed to reach acyclicity tolerance: h={h_final:.3e} at rho={rho:.1e}")
        self.h_final = h_final
        self.rho = rho


@dataclass(frozen=True, eq=False)
class WeightedAdjacency:
    """Real d x d matrix with zero diagonal; entry (i, j) weighs edge i -> j."""

    labels: tuple[str, ...]
    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        d = len(self.labels)
        if w.shape != (d, d):
            raise ValueError("weight matrix must be square and match the labels")
        if not np.isfinite(w).all():
            raise ValueError("weight matrix must be finite")
        if np.abs(np.diag(w)).max(initial=0.0) > 0:
            raise ValueError("diagonal must be zero")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "w", w)


def acyclicity_h(w: np.ndarray) -> tuple[float, np.ndarray]:
    """Smooth acyclicity measure and its gradient.

    h(W) = tr(exp(W o W)) - d is zero exactly when the nonzero pattern of W
    is acyclic, and positive otherwise; the gradient is exp(W o W)^T o 2W.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError("W must be finite")
    d = w.shape[0]
    e = scipy.linalg.expm(w * w)
    return float(e.trace() - d), e.T * (2.0 * w)


def threshold_to_dag(adj: WeightedAdjacency, omega: float) -> tuple[Dag, float]:
    """Zero entries below ``omega``; raise it further if cycles survive.

    Returns the DAG and the effective threshold actually used (the smallest
    value at or above ``omega`` whose surviving edges are acyclic).
    """
    w = adj.w.copy()
    w[np.abs(w) < omega] = 0.0
    effective = omega

    def edges() -> list[tuple[str, str]]:
        return [(adj.labels[i], adj.labels[j]) for i, j in zip(*np.nonzero(w))]

    while cycle_edges(edges()):
        smallest = np.abs(w[w != 0.0]).min()
        effective = float(np.nextafter(smallest, np.inf))
        w[np.abs(w) <= smallest] = 0.0
    return Dag(adj.labels, edges()), effective


def notears_learn(
    data: EventMatrix,
    lambda1: float = 0.1,
    omega: float = 0.3,
    standardize: bool = False,
    max_outer: int = 100,
    h_tol: float = 1e-8,
    rho_max: float = 1e16,
    progress_rate: float = 0.25,
    lbfgs_maxiter: int = 1000,
) -> tuple[WeightedAdjacency, Dag]:
    """Fit the weighted adjacency and threshold it into a DAG.

    Raises :class:`NotearsConvergenceError` (carrying the final h) when the
    penalty cap is reached first; converged runs always satisfy h <= h_tol.
    """
    check_ranges(PARAM_RANGES, {"lambda1": lambda1})
    if not data.is_complete:
        raise ValueError("notears requires complete data")
    x = data.values.astype(np.float64)
    if not np.isfinite(x).all():
        raise ValueError("data must be finite")
    x = x - x.mean(axis=0)
    if standardize:
        sd = x.std(axis=0)
        x = x / np.where(sd > 0, sd, 1.0)
    n, d = x.shape
    gram = x.T @ x / n
    diag_idx = np.arange(d)
    dd = d * d
    eye = np.eye(d)
    # one gradient buffer, filled through views of its W+ and W- halves
    grad = np.empty(2 * dd)
    grad_pos = grad[:dd].reshape(d, d)
    grad_neg = grad[dd:].reshape(d, d)

    def unpack(vec: np.ndarray) -> np.ndarray:
        return (vec[:dd] - vec[dd:]).reshape(d, d)

    # Every float below is bit-identical to the textbook form kept in
    # tests/test_notears.py, so L-BFGS-B takes the same path: negation is
    # exact and IEEE addition commutes, hence lambda1 - g == -g + lambda1.
    def objective(vec: np.ndarray, rho: float, alpha: float) -> tuple[float, np.ndarray]:
        w = unpack(vec)
        delta = w - eye
        loss = 0.5 * float((delta.T @ gram @ delta).trace())
        h, g_smooth = acyclicity_h(w)
        g_smooth *= rho * h + alpha
        g_smooth += gram @ delta
        value = loss + 0.5 * rho * h * h + alpha * h + lambda1 * float(vec.sum())
        np.add(g_smooth, lambda1, out=grad_pos)
        np.subtract(lambda1, g_smooth, out=grad_neg)
        # scipy keeps the returned gradient (MemoizeJac), so hand out a copy
        return value, grad.copy()

    is_diag = np.eye(d, dtype=bool).ravel()
    bounds = [(0.0, 0.0) if flag else (0.0, None) for flag in np.tile(is_diag, 2)]
    vec = np.zeros(2 * d * d)
    rho, alpha, h_val = 1.0, 0.0, np.inf
    for _ in range(max_outer):
        while True:
            res = scipy.optimize.minimize(
                objective,
                vec,
                args=(rho, alpha),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": lbfgs_maxiter},
            )
            h_new, _ = acyclicity_h(unpack(res.x))
            if h_new > progress_rate * h_val and rho < rho_max:
                rho *= 10.0
            else:
                break
        vec = res.x
        h_val = h_new
        alpha += rho * h_val
        if h_val <= h_tol or rho >= rho_max:
            break
    if h_val > h_tol:
        raise NotearsConvergenceError(h_val, rho)
    w = unpack(vec)
    w[diag_idx, diag_idx] = 0.0
    adj = WeightedAdjacency(data.columns, w)
    dag, _ = threshold_to_dag(adj, omega)
    return adj, dag
