"""Continuous DAG learning by penalized least squares.

Minimizes (1/2n) ||X - XW||_F^2 + lambda ||W||_1 subject to the smooth
acyclicity constraint h(W) = tr(exp(W*W)) - d = 0, via an augmented
Lagrangian: the inner problem is solved by L-BFGS-B on the nonnegative
split W = W+ - W-, the dual variable is updated as alpha += rho * h, and
rho grows tenfold whenever h fails to shrink by a factor of four.  The
data matrix only enters through its Gram matrix, so inner iterations cost
O(d^3) regardless of sample size.

The augmented Lagrangian and the L-BFGS-B loop are generators that yield
the points they need evaluated.  :func:`notears_learn` runs one problem to
the end; :func:`notears_lockstep` advances many problems (the cells of a
stability-selection grid) together and evaluates the objectives of all of
them in one stacked call per round.  Both take the same path per problem.

Columns are centered but deliberately not rescaled by default: the method
is not invariant to variable rescaling, so changing the scale changes the
answer.  A ``standardize`` flag exposes the alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
    "notears_lockstep",
    "gram_matrix",
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


def acyclicity_h(w: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Smooth acyclicity measure and its gradient.

    h(W) = tr(exp(W o W)) - d is zero exactly when the nonzero pattern of W
    is acyclic, and positive otherwise; the gradient is exp(W o W)^T o 2W.
    A stack of matrices (K, d, d) takes one ``expm`` call and gives h as a
    (K,) array, each slice bit-identical to its own call.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError("W must be finite")
    e = scipy.linalg.expm(w * w)
    h = e.trace(axis1=-2, axis2=-1) - w.shape[-1]
    return (float(h) if w.ndim == 2 else h), e.swapaxes(-1, -2) * (2.0 * w)


def _unpack(vec: np.ndarray, d: int) -> np.ndarray:
    """W = W+ - W- from the solver's vector [W+, W-]."""
    return (vec[: d * d] - vec[d * d :]).reshape(d, d)


def _objective(gram, lambda1, vec, rho, alpha) -> tuple[np.ndarray, np.ndarray]:
    """The augmented-Lagrangian objective and its gradient in [W+, W-].

    One problem takes ``gram`` (d, d), ``vec`` (2 d^2,) and scalar
    ``lambda1``, ``rho``, ``alpha``; a stack of K problems takes (K, d, d),
    (K, 2 d^2) and (K,) arrays, and costs one matmul chain and one ``expm``
    call.  Every slice of a stack returns the floats of its own one-problem
    call, and those are bit-identical to the textbook form kept in
    tests/test_notears.py, so L-BFGS-B takes the same path either way:
    negation is exact and IEEE addition commutes, hence
    lambda1 - g == -g + lambda1.

    A line-search probe at a large W overflows ``expm``; f then comes back
    non-finite and L-BFGS-B backtracks, so the overflow is expected and
    its floating-point warnings are silenced here.
    """
    d = gram.shape[-1]
    stack = vec.shape[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        w = (vec[..., : d * d] - vec[..., d * d :]).reshape(*stack, d, d)
        delta = w - np.eye(d)
        loss = 0.5 * (delta.swapaxes(-1, -2) @ gram @ delta).trace(axis1=-2, axis2=-1)
        h, g_smooth = acyclicity_h(w)
        g_smooth *= np.asarray(rho * h + alpha)[..., None, None]
        g_smooth += gram @ delta
        value = loss + 0.5 * rho * h * h + alpha * h + lambda1 * vec.sum(axis=-1)
        lam = np.asarray(lambda1)[..., None, None]
        grad = np.empty(vec.shape)
        halves = grad.reshape(*stack, 2, d, d)
        np.add(g_smooth, lam, out=halves[..., 0, :, :])
        np.subtract(lam, g_smooth, out=halves[..., 1, :, :])
    return value, grad


def _lbfgsb_steps(x0, args, lower, upper, nbd, maxiter):
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995) through scipy's ``setulb`` kernel,
    as a generator: it yields each point to evaluate as ``(x, *args)``, takes
    the objective's ``(f, g)`` back, and returns x, f, nfev, nit and status
    (0 converged, 1 iteration or evaluation cap, 2 abnormal line search).

    Runs the reverse-communication loop of ``scipy.optimize.minimize(...,
    method="L-BFGS-B", jac=True)`` at its defaults, so ``setulb`` sees the same
    x, f and g in the same order and every iterate is bit-identical; only the
    per-call bound standardisation and per-evaluation wrapper checks are gone.
    ``lower``/``upper`` are the bounds (inf where there is none) and ``nbd``
    their ``setulb`` codes (1 lower only, 2 both; ``setulb`` reads an upper
    bound only where it is 2).  A repeated x reuses the last pair unasked.
    """
    m, maxls, pgtol, maxfun, n = 10, 20, 1e-5, 15000, x0.size
    x = np.clip(x0, lower, upper)
    seen = x.copy()
    f_seen, g_seen = yield (seen, *args)
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
        if task[0] == 3:  # evaluate f and g at x
            if not (x == seen).all():  # np.array_equal for two arrays of one shape
                seen = x.copy()
                f_seen, g_seen = yield (seen, *args)
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


def _run(steps, answer):
    """Run a generator to its return value, sending ``answer(*request)`` back
    for every request it yields."""
    try:
        request = next(steps)
        while True:
            request = steps.send(answer(*request))
    except StopIteration as done:
        return done.value


def _lbfgsb(fun, x0, args, lower, upper, nbd, maxiter):
    """L-BFGS-B on ``fun(x, *args) -> (f, g)`` from ``x0``, run to the end
    (see :func:`_lbfgsb_steps`); returns x, f, nfev, nit and status."""
    return _run(_lbfgsb_steps(x0, args, lower, upper, nbd, maxiter), fun)


def _augmented_lagrangian(d, max_outer, h_tol, rho_max, progress_rate, lbfgs_maxiter):
    """The outer loop of Zheng et al. (NeurIPS 2018), as a generator.

    Yields each inner problem as the arguments of :func:`_lbfgsb_steps`,
    ``(x0, (rho, alpha), lower, upper, nbd, lbfgs_maxiter)``, takes the
    solve's result back and returns the final [W+, W-].  The dual variable
    is updated as alpha += rho * h, and rho grows tenfold whenever h fails
    to shrink by ``progress_rate``.  Raises :class:`NotearsConvergenceError`
    when the penalty cap is reached first or a solve ends non-finite.
    """
    # W+ and W- are non-negative, and their diagonals are pinned to 0
    pinned = np.tile(np.eye(d, dtype=bool).ravel(), 2)
    lower = np.zeros(2 * d * d)
    upper = np.where(pinned, 0.0, np.inf)
    nbd = np.where(pinned, 2, 1).astype(np.int32)
    vec = np.zeros(2 * d * d)
    rho, alpha, h_val = 1.0, 0.0, np.inf
    for _ in range(max_outer):
        while True:
            x, f, *_ = yield vec, (rho, alpha), lower, upper, nbd, lbfgs_maxiter
            h_new = acyclicity_h(_unpack(x, d))[0] if np.isfinite(f) else np.nan
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
    return vec


def _resumable(problems):
    """A fit as one stream of evaluation requests ``(x, rho, alpha)``: each
    inner problem of the augmented Lagrangian ``problems`` is solved by the
    resumable L-BFGS-B.  Returns what ``problems`` returns."""
    try:
        problem = next(problems)
        while True:
            problem = problems.send((yield from _lbfgsb_steps(*problem)))
    except StopIteration as done:
        return done.value


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
    *,
    max_outer: int = 100,
    h_tol: float = 1e-8,
    rho_max: float = 1e16,
    progress_rate: float = 0.25,
    lbfgs_maxiter: int = 1000,
) -> tuple[WeightedAdjacency, Dag]:
    """Fit the weighted adjacency and threshold it into a DAG.

    Each inner problem is solved to the end by :func:`_lbfgsb`.  Raises
    :class:`NotearsConvergenceError` (carrying the final h) when the penalty
    cap is reached first or an inner solve ends non-finite; converged runs
    always satisfy h <= h_tol.
    """
    check_ranges(PARAM_RANGES, {"lambda1": lambda1})
    if not data.is_complete:
        raise ValueError("notears requires complete data")
    gram = gram_matrix(data.values, standardize)
    objective = partial(_objective, gram, lambda1)
    problems = _augmented_lagrangian(data.n_cols, max_outer, h_tol, rho_max, progress_rate, lbfgs_maxiter)
    vec = _run(problems, lambda *problem: _lbfgsb(objective, *problem))
    return _adjacency(data.columns, vec, omega)


def notears_lockstep(
    labels: tuple[str, ...], grams: np.ndarray, lambdas: np.ndarray, omega: float
) -> list[tuple[WeightedAdjacency, Dag] | None]:
    """:func:`notears_learn` at its default solver settings on K problems at
    once, one per Gram matrix (``grams`` (K, d, d), from :func:`gram_matrix`) and
    ``lambdas`` entry; None marks a cell whose fit failed.

    Each cell is a resumable augmented Lagrangian with its own L-BFGS-B work
    arrays, unchanged-x memo and rho/alpha schedule.  Every round evaluates
    all waiting cells in one stacked objective call and resumes each with its
    slice, so each cell takes the path, and ends at the W, of its own
    :func:`notears_learn` fit bit for bit.  A failed cell leaves the round;
    the others go on.
    """
    d = len(labels)
    cells = [_resumable(_augmented_lagrangian(d, **notears_learn.__kwdefaults__)) for _ in lambdas]
    fits: list[tuple[WeightedAdjacency, Dag] | None] = [None] * len(cells)
    waiting: dict[int, tuple] = {}  # cell -> the (x, rho, alpha) it waits on

    def resume(k: int, answer) -> None:
        try:
            waiting[k] = cells[k].send(answer)
        except StopIteration as done:
            fits[k] = _adjacency(labels, done.value, omega)
        except NotearsConvergenceError:
            pass

    for k in range(len(cells)):
        resume(k, None)
    while waiting:
        ks = list(waiting)
        x, rho, alpha = map(np.array, zip(*waiting.values()))
        waiting.clear()
        f, g = _objective(grams[ks], lambdas[ks], x, rho, alpha)
        for i, k in enumerate(ks):
            resume(k, (f[i], g[i]))
    return fits
