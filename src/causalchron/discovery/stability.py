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
cell's fit is bit-identical to :func:`notears_learn` on its subsample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._coerce import check_ranges
from .._rng import spawn_seed
from ..bayesnet import Dag, cycle_edges
from ..dataset import EventMatrix
from .notears import PARAM_RANGES as NOTEARS_RANGES
from .notears import gram_matrix, notears_lockstep
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
    together, one stacked objective evaluation per round, and the results
    reduce by cell index; each cell's DAG is the one :func:`notears_learn`
    gives on its subsample.
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
    pairs = [(p, c) for p in labels for c in labels if p != c]
    counts = {pair: np.zeros(len(grid)) for pair in pairs}
    attempts = np.zeros(len(grid))
    edge_totals = np.zeros(len(grid))
    failures = 0

    def gram(li: int, ri: int) -> np.ndarray:
        rng = np.random.default_rng(spawn_seed(seed, "stability", li, ri))
        rows = rng.choice(n, size=size, replace=False)
        return gram_matrix(data.values[np.sort(rows)], standardize)

    cells = [(li, ri) for li in range(len(grid)) for ri in range(n_resamples)]
    grams = np.array([gram(li, ri) for li, ri in cells])
    fits = notears_lockstep(labels, grams, np.array([grid[li] for li, _ in cells]), omega)
    for (li, _), fit in zip(cells, fits):
        if fit is None:
            failures += 1
            continue
        dag = fit[1]
        attempts[li] += 1
        edge_totals[li] += len(dag.edges)
        for e in dag.edges:
            counts[e][li] += 1

    with np.errstate(invalid="ignore"):
        freq_matrix = {
            pair: np.where(attempts > 0, cnt / np.maximum(attempts, 1), 0.0)
            for pair, cnt in counts.items()
        }
    mean_edges = np.where(attempts > 0, edge_totals / np.maximum(attempts, 1), 0.0)
    valid = [
        i
        for i in range(len(grid))
        if (i > 0 or len(grid) == 1) and mean_edges[i] > 0 and attempts[i] > 0
    ]
    eff_window = min(window, len(valid)) if valid else window

    stable: set[tuple[str, str]] = set()
    valid_set = set(valid)
    for pair in pairs:
        freqs = freq_matrix[pair]
        run = 0
        for i in range(len(grid)):
            if i in valid_set and freqs[i] >= freq_threshold:
                run += 1
                if run >= eff_window:
                    stable.add(pair)
                    break
            else:
                run = 0

    # assemble; on cycles drop the weakest edges (by peak frequency) first
    def peak(pair: tuple[str, str]) -> float:
        freqs = freq_matrix[pair]
        return max((freqs[i] for i in valid), default=0.0)

    kept = set(stable)
    while cycle_edges(kept):
        kept.remove(min(kept, key=lambda e: (peak(e), e)))
    dag = Dag(labels, kept)
    return StabilityReport(
        lambda_grid=grid,
        edge_frequencies={pair: tuple(freq_matrix[pair]) for pair in pairs},
        stable_edges=frozenset(stable),
        dag=dag,
        failures=failures,
        valid_lambda_indices=tuple(valid),
    )
