"""Two-level stability selection for the continuous learner.

Fits the penalized least-squares learner (NOTEARS, Zheng et al., NeurIPS
2018) on every (lambda, subsample) cell of a grid, then keeps the directed
edges that are selected frequently across a contiguous stretch of the grid
(Meinshausen & Buehlmann, JRSS-B 2010).  The densest end of the grid
(smallest lambda) and any grid points whose average graph is empty are
excluded before looking for qualifying windows, so neither overly dense nor
vacuous configurations can certify an edge.

The cells are solved in lockstep (:func:`notears_lockstep`): each keeps
only its subsample's Gram matrix and its own solver state, and every round
evaluates the objectives of all waiting cells in one stacked call.  Each
cell's fit is bit-identical to :func:`notears_learn` on its subsample,
which is the same lockstep with one cell.  The fits reduce to one boolean
(lambda, subsample, parent, child) selection array, and the frequencies,
the valid grid points, the window scan and the peak frequencies are all
read off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._coerce import check_ranges
from .._rng import spawn_seed
from ..bayesnet import Dag, cycle_edges
from ..dataset import EventMatrix
from .notears import PARAM_RANGES as NOTEARS_RANGES
from .notears import NotearsConvergenceError, gram_matrix, notears_lockstep
from .notears import notears_learn  # noqa: F401  unused here; perfbench/tracer.py patches stability.notears_learn by name

__all__ = ["StabilityReport", "default_lambda_grid", "stability_select"]

#: the allowed values of the parameters :func:`stability_select` checks
PARAM_RANGES = {
    "lambda_grid": (
        lambda g: g is None or (len(g) > 0 and min(g) > 0 and list(g) == sorted(g)),
        "null or a non-empty, positive, ascending grid",
    ),
    "n_resamples": (lambda n: n >= 1, "at least 1"),
    "subsample_frac": (lambda f: 0 < f <= 1, "in (0, 1]"),
    "freq_threshold": (lambda f: 0 < f <= 1, "in (0, 1]"),
    "window": (lambda w: w >= 1, "at least 1"),
    "omega": NOTEARS_RANGES["omega"],
}


def default_lambda_grid(start: float = 1e-3, stop: float = 1.0, num: int = 16) -> tuple[float, ...]:
    return tuple(float(v) for v in np.logspace(np.log10(start), np.log10(stop), num))


@dataclass(frozen=True)
class StabilityReport:
    lambda_grid: tuple[float, ...]
    edge_frequencies: dict[tuple[str, str], tuple[float, ...]]
    stable_edges: frozenset[tuple[str, str]]
    dag: Dag
    failures: int
    valid_lambda_indices: tuple[int, ...]

    def to_json_doc(self) -> dict:
        return {
            "lambda_grid": list(self.lambda_grid),
            "edge_frequencies": [
                {"parent": p, "child": c, "frequencies": list(freqs)}
                for (p, c), freqs in sorted(self.edge_frequencies.items())
            ],
            "stable_edges": sorted(list(e) for e in self.stable_edges),
            "failures": self.failures,
            "valid_lambda_indices": list(self.valid_lambda_indices),
        }


def stability_select(
    data: EventMatrix,
    lambda_grid: tuple[float, ...] | None = None,
    n_resamples: int = 50,
    subsample_frac: float = 0.8,
    freq_threshold: float = 0.6,
    window: int = 3,
    seed: int = 0,
    omega: float = 0.3,
    standardize: bool = False,
) -> StabilityReport:
    """Edge selection frequencies across (lambda, subsample) fits.

    An edge is stable when its selection frequency is at least
    ``freq_threshold`` at every point of some run of ``window`` contiguous
    valid grid points.  A degenerate single-point grid skips the dense-end
    exclusion so the procedure collapses to a plain thresholded fit.
    Solver failures are counted per cell and never abort the scan.

    Each cell draws its subsample from its own child seed and keeps only
    the subsample's Gram matrix.  All cells' NOTEARS fits then advance
    together, one stacked objective evaluation per round; each cell's DAG
    is the one :func:`notears_learn` gives on its subsample, and a cell
    whose fit raised :class:`NotearsConvergenceError` counts as a failure.
    """
    check_ranges(
        PARAM_RANGES,
        {
            "lambda_grid": lambda_grid,
            "n_resamples": n_resamples,
            "subsample_frac": subsample_frac,
            "freq_threshold": freq_threshold,
            "window": window,
            "omega": omega,
        },
    )
    grid = tuple(lambda_grid) if lambda_grid is not None else default_lambda_grid()
    if not data.is_complete:
        raise ValueError("stability selection requires complete data")
    n = data.n_rows
    size = int(np.ceil(subsample_frac * n))
    labels = data.columns
    d = len(labels)
    index = {label: i for i, label in enumerate(labels)}

    def gram(li: int, ri: int) -> np.ndarray:
        rng = np.random.default_rng(spawn_seed(seed, "stability", li, ri))
        rows = rng.choice(n, size=size, replace=False)
        return gram_matrix(data.values[np.sort(rows)], standardize)

    cells = [(li, ri) for li in range(len(grid)) for ri in range(n_resamples)]
    grams = np.array([gram(li, ri) for li, ri in cells])
    fits = notears_lockstep(labels, grams, np.array([grid[li] for li, _ in cells]), omega)
    # fitted[li, ri]: the cell's fit converged; selected[li, ri, i, j]: its DAG has edge i -> j
    fitted = np.zeros((len(grid), n_resamples), dtype=bool)
    selected = np.zeros((len(grid), n_resamples, d, d), dtype=bool)
    for (li, ri), fit in zip(cells, fits):
        if not isinstance(fit, NotearsConvergenceError):
            fitted[li, ri] = True
            for p, c in fit[1].edges:
                selected[li, ri, index[p], index[c]] = True

    attempts = fitted.sum(axis=1)
    freq = selected.sum(axis=1) / np.maximum(attempts, 1)[:, None, None]  # (grid, d, d), 0 where no fit
    valid = selected.any(axis=(1, 2, 3))  # the grid points whose average graph is not empty
    if len(grid) > 1:
        valid[0] = False  # the dense end
    # with no valid point nothing qualifies, whatever the window
    eff_window = max(1, min(window, int(valid.sum())))
    qualifies = valid[:, None, None] & (freq >= freq_threshold)
    windows = np.lib.stride_tricks.sliding_window_view(qualifies, eff_window, axis=0)
    off_diagonal = ~np.eye(d, dtype=bool)
    pairs = [(p, c) for p in labels for c in labels if p != c]  # row-major, as [off_diagonal] reads them
    stable = {pair for pair, s in zip(pairs, windows.all(axis=-1).any(axis=0)[off_diagonal]) if s}

    # assemble; while a cycle remains, drop the weakest edge on one (by peak frequency over valid points)
    peak = dict(zip(pairs, (freq * valid[:, None, None]).max(axis=0)[off_diagonal]))
    kept = set(stable)
    while in_cycle := cycle_edges(kept):
        kept.remove(min(in_cycle, key=lambda e: (peak[e], e)))
    dag = Dag(labels, kept)
    return StabilityReport(
        lambda_grid=grid,
        edge_frequencies=dict(zip(pairs, map(tuple, freq[:, off_diagonal].T))),
        stable_edges=frozenset(stable),
        dag=dag,
        failures=len(fits) - int(fitted.sum()),
        valid_lambda_indices=tuple(np.flatnonzero(valid).tolist()),
    )
