"""Dependence tests on binary columns: G-squared and exact Fisher.

The p-values come from scipy's compiled ``chdtrc`` (G²) and
``hypergeom_pmf`` (Fisher), as ``causalchron._scipy_kernels`` loads them.

Every test counts its strata with ``dataset.stacked_counts`` over the
distinct rows of the matrix (``EventMatrix.row_patterns``); ``ci_test_g2``
is one statement of ``g2_tests``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._scipy_kernels import chdtrc, hypergeom_pmf
from ..dataset import MISSING, ContingencyTable, EventMatrix, stacked_counts

__all__ = ["G2Result", "ci_test_g2", "g2_tests", "fisher_exact"]

#: strata with fewer rows than this are skipped, reducing the degrees of freedom
MIN_STRATUM_ROWS = 5


@dataclass(frozen=True)
class G2Result:
    statistic: float
    df: int
    p_value: float
    degenerate: bool

    def independent(self, alpha: float) -> bool:
        return self.p_value > alpha


def ci_test_g2(
    data: EventMatrix,
    x: str,
    y: str,
    z: Sequence[str] = (),
) -> G2Result:
    """Likelihood-ratio test of x independent of y given z.

    Sums the G-squared statistic over the stratified 2x2 tables (one
    stratum per assignment of z) with one degree of freedom per stratum.
    Strata with fewer than MIN_STRATUM_ROWS rows are skipped and the
    degrees of freedom reduced accordingly; if every stratum is skipped
    the result is degenerate with p = 1.  With an empty conditioning set
    the test runs on pairwise-complete rows, so marginal tests work on
    matrices that still contain missing cells; a conditional test requires
    complete x, y and z columns, and ignores missing cells elsewhere.  It
    is one statement of ``g2_tests`` over ``data.row_patterns``.
    """
    xi = data.column_index(x)
    yi = data.column_index(y)
    zi = [data.column_index(v) for v in z]
    if x == y or x in z or y in z:
        raise ValueError("x, y and z must be disjoint")
    rows, _, weights = data.row_patterns
    statistic, df, p = g2_tests(rows, weights, [zi + [xi, yi]])
    return G2Result(float(statistic[0]), int(df[0]), float(p[0]), bool(df[0] == 0))


def g2_tests(
    rows: np.ndarray, weights: np.ndarray, cols: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ci_test_g2``'s statistic, degrees of freedom and p-value for many statements at once.

    ``rows`` holds cells (0, 1 or MISSING), one row per distinct record
    pattern, and ``weights`` each pattern's number of records.  Row s of
    ``cols`` names statement s's column indices as ``z..., x, y``; all
    rows have the same length.  ``stacked_counts`` counts the strata of a
    chunk of statements in one matmul and one weighted bincount, and
    ``_g2`` turns each chunk's counts into statistics.  A row missing any
    of a statement's cells is not counted, so a marginal statement counts
    its pairwise-complete rows, as ``ci_test_g2`` does.  Statements with a
    non-empty conditioning set require the columns they read to be
    complete.
    """
    cols = np.asarray(cols, dtype=np.intp)
    n_tests, width = cols.shape
    if width > 2 and (rows == MISSING).any(axis=0)[cols].any():
        raise ValueError("conditional tests require complete data")
    statistic = np.empty(n_tests)
    df = np.empty(n_tests, dtype=np.int64)
    p = np.empty(n_tests)
    for lo, counts in stacked_counts(rows, weights, cols):
        hi = lo + len(counts)
        statistic[lo:hi], df[lo:hi], p[lo:hi] = _g2(counts.reshape(hi - lo, -1, 2, 2))
    return statistic, df, p


def _g2(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Statistic, degrees of freedom and p-value of stacked (tests, strata, 2, 2) counts."""
    rows = counts.sum(axis=3, keepdims=True)
    cols = counts.sum(axis=2, keepdims=True)
    totals = rows.sum(axis=2, keepdims=True)
    keep = totals >= MIN_STRATUM_ROWS
    # a skipped stratum divides by 1, not by a total that may be 0; its terms are dropped below
    expected = rows * cols / np.where(keep, totals, 1.0)
    terms = np.log(np.divide(counts, expected, out=np.ones_like(counts), where=counts > 0)) * counts
    # zero cells contribute 0; each stratum's four cells, then the strata, add left to right
    # (cumsum is sequential), and a skipped stratum adds 0.0, which changes no partial sum
    per_stratum = 2.0 * np.cumsum(terms.reshape(*terms.shape[:2], 4), axis=2)[..., -1]
    keep = keep[..., 0, 0]
    statistic = np.maximum(np.cumsum(np.where(keep, per_stratum, 0.0), axis=1)[:, -1], 0.0)
    df = keep.sum(axis=1)
    # the chi-square survival function; it is NaN, and unused, where every stratum was skipped
    p = np.where(df > 0, chdtrc(df, statistic), 1.0)
    return statistic, df, p


def fisher_exact(t: ContingencyTable) -> float:
    """Two-sided exact p-value by hypergeometric enumeration.

    Sums the probabilities of all tables with the same margins whose
    probability does not exceed the observed table's (with a small
    relative guard against floating-point ties).
    """
    if t.total == 0:
        raise ValueError("empty contingency table")
    n = t.total
    row1 = t.n10 + t.n11
    col1 = t.n01 + t.n11
    lo = max(0, row1 + col1 - n)
    # unclipped: only a one-point support can round above 1, and that table returns 1.0 below
    pmf = hypergeom_pmf(np.arange(lo, min(row1, col1) + 1), row1, col1, n)
    included = pmf <= pmf[t.n11 - lo] * (1.0 + 1e-7)
    if included.all():
        return 1.0
    return float(min(1.0, pmf[included].sum()))
