"""Dependence tests on binary columns: G-squared and exact Fisher."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from ..dataset import MISSING, ContingencyTable, EventMatrix, joint_counts

__all__ = ["G2Result", "ci_test_g2", "fisher_exact"]

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
    matrices that still contain missing cells.
    """
    xi = data.column_index(x)
    yi = data.column_index(y)
    zi = [data.column_index(v) for v in z]
    if x == y or x in z or y in z:
        raise ValueError("x, y and z must be disjoint")
    values = data.values
    if zi:
        if not data.is_complete:
            raise ValueError("conditional tests require complete data")
    else:
        keep = (values[:, xi] != MISSING) & (values[:, yi] != MISSING)
        values = values[keep]
    if values.shape[0] == 0:
        return G2Result(0.0, 0, 1.0, True)

    counts = joint_counts(values, zi + [xi, yi]).reshape(-1, 2, 2).astype(np.float64)
    totals = counts.sum(axis=(1, 2))
    keep_strata = totals >= MIN_STRATUM_ROWS
    df = int(keep_strata.sum())
    if df == 0:
        return G2Result(0.0, 0, 1.0, True)
    tables = counts[keep_strata]
    rows = tables.sum(axis=2, keepdims=True)
    cols = tables.sum(axis=1, keepdims=True)
    expected = rows * cols / totals[keep_strata, None, None]
    # zero cells contribute 0; each stratum's four cells, then the strata, add left to right
    terms = np.log(np.divide(tables, expected, out=np.ones_like(tables), where=tables > 0)) * tables
    per_stratum = 2.0 * (((terms[:, 0, 0] + terms[:, 0, 1]) + terms[:, 1, 0]) + terms[:, 1, 1])
    g2 = max(float(np.cumsum(per_stratum)[-1]), 0.0)
    p = float(special.chdtrc(df, g2))  # the chi-square survival function
    return G2Result(g2, df, p, False)


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
    # imported here, not at module level: only the frequency baseline calls
    # this, and importing scipy.stats costs every process about 0.7 s
    from scipy import stats

    rv = stats.hypergeom(n, row1, col1)
    support = np.arange(max(0, row1 + col1 - n), min(row1, col1) + 1)
    pmf = rv.pmf(support)
    included = pmf <= rv.pmf(t.n11) * (1.0 + 1e-7)
    if included.all():
        return 1.0
    return float(min(1.0, pmf[included].sum()))
