"""Continuous DAG learning by penalized least squares.

Minimizes (1/2n) ||X - XW||_F^2 + lambda ||W||_1 subject to the smooth
acyclicity constraint h(W) = tr(exp(W*W)) - d = 0, via an augmented
Lagrangian: the inner problem is solved by L-BFGS-B on the nonnegative
split W = W+ - W-, the dual variable is updated as alpha += rho * h, and
rho grows tenfold whenever h fails to shrink by a factor of four.  The
data matrix only enters through its Gram matrix, so inner iterations cost
O(d^3) regardless of sample size.

A fit is one generator: the augmented Lagrangian runs each inner L-BFGS-B
solve with ``yield from``, so the fit yields every point it needs evaluated
as ``(x, rho, alpha)`` and takes the objective's ``(f, g, h)`` back.  The h
of the point a solve ends at is the one the objective already computed
there, so the outer loop recomputes h only for a solve that ends elsewhere.
:func:`notears_lockstep` advances many fits (the cells of a
stability-selection grid) together and answers all their points in one
stacked objective call per round; :func:`notears_learn` is its one-cell
case.

The L-BFGS-B step ``setulb`` and ``expm`` come from
:mod:`causalchron._scipy_kernels`; each iterate is bit-identical to the one
``scipy.optimize.minimize`` and ``scipy.linalg.expm`` would give.

Columns are centered but deliberately not rescaled by default: the method
is not invariant to variable rescaling, so changing the scale changes the
answer.  A ``standardize`` flag exposes the alternative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .._coerce import check_ranges
from .._scipy_kernels import expm, setulb
from ..bayesnet import Dag, cycle_edges
from ..dataset import EventMatrix

__all__ = [
    "WeightedAdjacency",
    "NotearsConvergenceError",
    "acyclicity_h",
    "notears_learn",
    "notears_lockstep",
    "gram_matrix",
    "threshold_to_dag",
]


#: the allowed values of the parameters :func:`notears_learn` checks
PARAM_RANGES = {
    "lambda1": (lambda v: v >= 0, "non-negative"),
    "omega": (lambda v: v >= 0, "non-negative"),
}

#: the solver settings of :func:`_augmented_lagrangian`: dual updates, the
#: acyclicity tolerance, the penalty cap, h's required shrink, inner iterations
MAX_OUTER = 100
H_TOL = 1e-8
RHO_MAX = 1e16
PROGRESS_RATE = 0.25
LBFGS_MAXITER = 1000

#: ``setulb``'s relative-reduction tolerance at scipy's default ``ftol``
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps


class NotearsConvergenceError(RuntimeError):
    """The augmented Lagrangian hit the penalty cap before h <= H_TOL, or an
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


def acyclicity_h(w: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Smooth acyclicity measure and its gradient.

    h(W) = tr(exp(W o W)) - d is zero exactly when the nonzero pattern of W
    is acyclic, and positive otherwise; the gradient is exp(W o W)^T o 2W.
    A stack of matrices (K, d, d) takes one ``expm`` call and gives h as a
    (K,) array, each slice bit-identical to its own call.  ``expm`` is
    ``scipy.linalg.expm`` bit for bit (see :mod:`causalchron._scipy_kernels`).
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError("W must be finite")
    e = expm(w * w)
    h = e.trace(axis1=-2, axis2=-1) - w.shape[-1]
    return (float(h) if w.ndim == 2 else h), e.swapaxes(-1, -2) * (2.0 * w)


def _unpack(vec: np.ndarray, d: int) -> np.ndarray:
    """W = W+ - W- from the solver's vector [W+, W-]."""
    return (vec[: d * d] - vec[d * d :]).reshape(d, d)


#: (2, 1, 1) signs that stack a gradient in W over its halves W+ and W-
_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)
_SIGNS.flags.writeable = False


@functools.cache
def _eye(d: int) -> np.ndarray:
    """The (d, d) identity, built once per d and read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _objective(gram, lambda1, vec, rho, alpha):
    """The augmented-Lagrangian objective, its gradient in [W+, W-] and h(W),
    for a stack of K problems.

    Takes ``gram`` (K, d, d), ``vec`` (K, 2 d^2) and ``lambda1``, ``rho``,
    ``alpha`` (K,), and costs one matmul chain and one ``expm`` call.
    Returns ``(f, g, h)``; h is :func:`acyclicity_h` of the point's W, so a
    solve that ends at its last evaluated point has its h already.  Every
    slice returns the floats of the textbook form kept in
    tests/test_notears.py bit for bit, whatever the stack around it, so
    L-BFGS-B takes the same path in any stack: the vector's halves W+ and
    W- are read as one (K, 2, d, d) view, and the gradient's halves are the
    smooth gradient times +1 and -1 (exact) plus lambda1, the textbook's
    g + lambda1 and -g + lambda1.

    A line-search probe at a large W overflows ``expm``; f then comes back
    non-finite and L-BFGS-B backtracks, so the overflow is expected and
    its floating-point warnings are silenced here.
    """
    d = gram.shape[-1]
    halves = vec.reshape(len(vec), 2, d, d)  # W+, W-
    with np.errstate(over="ignore", invalid="ignore"):
        w = halves[:, 0] - halves[:, 1]
        delta = w - _eye(d)
        loss = 0.5 * (delta.swapaxes(-1, -2) @ gram @ delta).trace(axis1=-2, axis2=-1)
        h, g_smooth = acyclicity_h(w)
        value = loss + 0.5 * rho * h * h + alpha * h + lambda1 * vec.sum(axis=-1)
        g_smooth *= (rho * h + alpha)[:, None, None]
        g_smooth += gram @ delta
        grad = g_smooth[:, None] * _SIGNS  # g and -g: the gradients in W+ and W-
        grad += lambda1[:, None, None, None]
    return value, grad.reshape(vec.shape), h


def _lbfgsb_steps(x0, args, lower, upper, nbd, maxiter):
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995) through scipy's ``setulb`` kernel,
    as a generator: it yields each point to evaluate as ``(x, *args)``, takes
    the objective's ``(f, g, h)`` back, and returns x, f, nfev, nit, status
    (0 converged, 1 iteration or evaluation cap, 2 abnormal line search) and
    the h of x when x is the last point it evaluated (else None).

    Runs the reverse-communication loop of ``scipy.optimize.minimize(...,
    method="L-BFGS-B", jac=True)`` at its defaults, so ``setulb`` sees the same
    x, f and g in the same order and every iterate is bit-identical; only the
    per-call bound standardisation and per-evaluation wrapper checks are gone.
    ``lower``/``upper`` are the bounds (inf where there is none) and ``nbd``
    their ``setulb`` codes (1 lower only, 2 both; ``setulb`` reads an upper
    bound only where it is 2).  ``setulb`` only reads g, so it gets the
    objective's array itself.  A repeated x reuses the last answer unasked:
    x is compared with the last evaluated point by value, as
    ``(x == seen).all()`` does (-0.0 equals 0.0, NaN equals nothing), and
    copied, through memoryviews taken once per solve.  The yielded point is
    one array updated in place, so a caller must read it before it answers.
    """
    m, maxls, pgtol, maxfun, n = 10, 20, 1e-5, 15000, x0.size
    x = np.clip(x0, lower, upper)
    seen = x.copy()
    request = (seen, *args)
    f_seen, g_seen, h_seen = yield request
    nfev, nit = 1, 0
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    code = memoryview(task)  # reads task[0] as a Python int
    x_view, seen_view = x.data, seen.data  # setulb moves x in place
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    while True:
        setulb(
            m, x, lower, upper, nbd, f, g, _FACTR, pgtol, wa, iwa, task, lsave, isave, dsave, maxls, ln_task
        )
        if code[0] == 3:  # evaluate f and g at x
            if x_view != seen_view:
                seen_view[:] = x_view
                f_seen, g_seen, h_seen = yield request
                nfev += 1
            f, g = f_seen, g_seen
        elif code[0] == 1:  # a new iterate
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    status = 0 if task[0] == 4 else 1 if nfev > maxfun or nit >= maxiter else 2
    return x, f, nfev, nit, status, h_seen if x_view == seen_view else None


def _augmented_lagrangian(d):
    """The outer loop of Zheng et al. (NeurIPS 2018), as a generator.

    Solves each inner problem with :func:`_lbfgsb_steps` (``yield from``),
    so it yields the points the solves need evaluated as ``(x, rho,
    alpha)``, takes the objective's ``(f, g, h)`` back and returns the
    final [W+, W-].  A solve's h is the objective's at its last evaluated
    point; only a solve that ends elsewhere computes it anew.  The dual
    variable is updated as alpha += rho * h, and rho grows tenfold whenever h
    fails to shrink by ``PROGRESS_RATE``.  Raises
    :class:`NotearsConvergenceError` when the penalty cap is reached first
    or a solve ends non-finite.
    """
    # W+ and W- are non-negative, and their diagonals are pinned to 0
    pinned = np.tile(np.eye(d, dtype=bool).ravel(), 2)
    lower = np.zeros(2 * d * d)
    upper = np.where(pinned, 0.0, np.inf)
    nbd = np.where(pinned, 2, 1).astype(np.int32)
    vec = np.zeros(2 * d * d)
    rho, alpha, h_val = 1.0, 0.0, np.inf
    for _ in range(MAX_OUTER):
        while True:
            x, f, _, _, _, h_new = yield from _lbfgsb_steps(vec, (rho, alpha), lower, upper, nbd, LBFGS_MAXITER)
            if not np.isfinite(f):
                h_new = np.nan
            elif h_new is None:
                h_new = acyclicity_h(_unpack(x, d))[0]
            # every test below is False for NaN, so a non-finite solve stops here
            if not np.isfinite(h_new):
                raise NotearsConvergenceError(h_new, rho)
            if h_new > PROGRESS_RATE * h_val and rho < RHO_MAX:
                rho *= 10.0
            else:
                break
        vec = x
        h_val = h_new
        alpha += rho * h_val
        if h_val <= H_TOL or rho >= RHO_MAX:
            break
    if not h_val <= H_TOL:
        raise NotearsConvergenceError(h_val, rho)
    return vec


def gram_matrix(values: np.ndarray, standardize: bool) -> np.ndarray:
    """X^T X / n of the centred (and with ``standardize`` unit-variance)
    columns of a complete matrix: all that NOTEARS reads of the data."""
    x = values.astype(np.float64)
    x = x - x.mean(axis=0)
    if standardize:
        sd = x.std(axis=0)
        x = x / np.where(sd > 0, sd, 1.0)
    return x.T @ x / len(x)


def _adjacency(labels, vec, omega) -> tuple[WeightedAdjacency, Dag]:
    """The fitted W (diagonal zeroed) and its thresholded DAG."""
    w = _unpack(vec, len(labels))
    np.fill_diagonal(w, 0.0)
    adj = WeightedAdjacency(labels, w)
    dag, _ = threshold_to_dag(adj, omega)
    return adj, dag


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
) -> tuple[WeightedAdjacency, Dag]:
    """Fit the weighted adjacency and threshold it into a DAG.

    The fit is the one cell of a :func:`notears_lockstep` run.  Raises
    :class:`NotearsConvergenceError` (carrying the final h) when the penalty
    cap is reached first or an inner solve ends non-finite; converged runs
    always satisfy h <= H_TOL.
    """
    check_ranges(PARAM_RANGES, locals())
    if not data.is_complete:
        raise ValueError("notears requires complete data")
    gram = gram_matrix(data.values, standardize)
    (fit,) = notears_lockstep(data.columns, gram[None], np.array([lambda1], dtype=np.float64), omega)
    if isinstance(fit, NotearsConvergenceError):
        raise fit
    return fit


def notears_lockstep(
    labels: tuple[str, ...], grams: np.ndarray, lambdas: np.ndarray, omega: float
) -> list[tuple[WeightedAdjacency, Dag] | NotearsConvergenceError]:
    """:func:`notears_learn` on K problems at once, one per Gram matrix
    (``grams`` (K, d, d), from :func:`gram_matrix`) and ``lambdas`` entry.
    Returns each cell's fitted W and DAG or, for a cell whose fit failed,
    the :class:`NotearsConvergenceError` with its final h and rho.

    Each cell is an augmented-Lagrangian generator with its own L-BFGS-B
    work arrays, unchanged-x memo and rho/alpha schedule.  Every round
    evaluates all waiting cells in one stacked objective call and resumes
    each with its slice of ``(f, g, h)``, so each cell takes the same path,
    and ends at the same W, alone or in any stack.  A finished or failed
    cell leaves the round, and only then are the Gram matrices and lambdas
    of the others restacked; they go on.
    """
    d = len(labels)
    fits: list[tuple[WeightedAdjacency, Dag] | NotearsConvergenceError] = [None] * len(lambdas)
    waiting = [(k, _augmented_lagrangian(d)) for k in range(len(lambdas))]
    answers = [None] * len(waiting)  # a new cell is started by sending None
    gram, lam = grams, lambdas  # the waiting cells' problems
    while waiting:
        cells, waiting, requests = waiting, [], []  # requests: the (x, rho, alpha) each waits on
        for cell, answer in zip(cells, answers):
            k, steps = cell
            try:
                requests.append(steps.send(answer))
            except StopIteration as done:
                fits[k] = _adjacency(labels, done.value, omega)
                continue
            except NotearsConvergenceError as err:
                fits[k] = err
                continue
            waiting.append(cell)
        if len(waiting) < len(cells):  # a cell left: restack the problems
            ks = [k for k, _ in waiting]
            gram, lam = grams[ks], lambdas[ks]
        if waiting:
            x, rho, alpha = map(np.array, zip(*requests))
            f, g, h = _objective(gram, lam, x, rho, alpha)
            answers = zip(f.tolist(), g, h.tolist())
    return fits
