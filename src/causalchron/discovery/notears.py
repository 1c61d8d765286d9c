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
from scipy.optimize._lbfgsb import setulb

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

#: ``setulb``'s relative-reduction tolerance at scipy's default ``ftol``
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps


class NotearsConvergenceError(RuntimeError):
    """The augmented Lagrangian hit the penalty cap before h <= h_tol, or an
    inner solve ended at a non-finite objective or h (then ``h_final`` is not
    finite)."""

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


def _lbfgsb(fun, x0, args, lower, upper, nbd, maxiter):
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995) through scipy's ``setulb`` kernel.

    Runs the reverse-communication loop of ``scipy.optimize.minimize(...,
    method="L-BFGS-B", jac=True)`` at its defaults, so ``setulb`` sees the same
    x, f and g in the same order and every iterate is bit-identical; only the
    per-call bound standardisation and per-evaluation wrapper checks are gone.
    ``lower``/``upper`` are the bounds (inf where there is none) and ``nbd``
    their ``setulb`` codes (1 lower only, 2 both; ``setulb`` reads an upper
    bound only where it is 2).  Returns x, f, nfev, nit and status (0 converged,
    1 iteration or evaluation cap, 2 abnormal line search).
    """
    m, maxls, pgtol, maxfun, n = 10, 20, 1e-5, 15000, x0.size
    x = np.clip(x0, lower, upper)
    seen = x.copy()
    f_seen, g_seen = fun(seen, *args)
    nfev, nit = 1, 0
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    while True:
        g = np.array(g, dtype=np.float64)
        setulb(
            m, x, lower, upper, nbd, f, g, _FACTR, pgtol, wa, iwa, task, lsave, isave, dsave, maxls, ln_task
        )
        if task[0] == 3:  # evaluate f and g at x; a repeated x reuses the last pair
            if not np.array_equal(x, seen):
                seen = x.copy()
                f_seen, g_seen = fun(seen, *args)
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    status = 0 if task[0] == 4 else 1 if nfev > maxfun or nit >= maxiter else 2
    return x, f, nfev, nit, status


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
    penalty cap is reached first or an inner solve ends non-finite; converged
    runs always satisfy h <= h_tol.
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
        # _lbfgsb copies g before each setulb call, so the buffer can go out
        return value, grad

    # W+ and W- are non-negative, and their diagonals are pinned to 0
    pinned = np.tile(np.eye(d, dtype=bool).ravel(), 2)
    lower = np.zeros(2 * dd)
    upper = np.where(pinned, 0.0, np.inf)
    nbd = np.where(pinned, 2, 1).astype(np.int32)
    vec = np.zeros(2 * dd)
    rho, alpha, h_val = 1.0, 0.0, np.inf
    for _ in range(max_outer):
        while True:
            x, f, *_ = _lbfgsb(objective, vec, (rho, alpha), lower, upper, nbd, lbfgs_maxiter)
            h_new = acyclicity_h(unpack(x))[0] if np.isfinite(f) else np.nan
            # every test below is False for NaN, so a non-finite solve stops here
            if not np.isfinite(h_new):
                raise NotearsConvergenceError(h_new, rho)
            if h_new > progress_rate * h_val and rho < rho_max:
                rho *= 10.0
            else:
                break
        vec = x
        h_val = h_new
        alpha += rho * h_val
        if h_val <= h_tol or rho >= rho_max:
            break
    if not h_val <= h_tol:
        raise NotearsConvergenceError(h_val, rho)
    w = unpack(vec)
    w[diag_idx, diag_idx] = 0.0
    adj = WeightedAdjacency(data.columns, w)
    dag, _ = threshold_to_dag(adj, omega)
    return adj, dag
