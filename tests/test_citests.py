import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from causalchron import dataset
from causalchron.dataset import MISSING, ContingencyTable, EventMatrix, contingency
from causalchron.discovery import ci_test_g2, fisher_exact
from causalchron.discovery.citests import MIN_STRATUM_ROWS, g2_tests

from conftest import fresh_python


def matrix(labels, values):
    return EventMatrix(tuple(labels), np.asarray(values, dtype=np.int8))


class TestG2:
    def test_identical_columns_maximally_dependent(self):
        rng = np.random.default_rng(0)
        col = rng.integers(0, 2, size=100).astype(np.int8)
        m = matrix(["x", "y"], np.column_stack([col, col]))
        assert ci_test_g2(m, "x", "y").p_value < 1e-10

    def test_independent_columns_uniform_p(self):
        rng = np.random.default_rng(1)
        ps = []
        for _ in range(200):
            values = rng.integers(0, 2, size=(400, 2)).astype(np.int8)
            ps.append(ci_test_g2(matrix(["x", "y"], values), "x", "y").p_value)
        assert 0.4 < float(np.mean(ps)) < 0.6

    def test_table2_counts_significant(self, table2_matrix):
        res = ci_test_g2(table2_matrix, "ndhD_116494", "ndhD_116785")
        assert res.p_value < 1e-6
        # oracle: scipy's log-likelihood-ratio test on the same 2x2 table
        t = contingency(table2_matrix, "ndhD_116494", "ndhD_116785")
        stat, p, df, _ = scipy.stats.chi2_contingency(
            [[t.n00, t.n01], [t.n10, t.n11]], correction=False, lambda_="log-likelihood"
        )
        assert res.statistic == pytest.approx(stat, rel=1e-12)
        assert res.df == df
        assert res.p_value == pytest.approx(p, rel=1e-9)

    def test_p_value_is_the_chi2_survival_function_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = matrix(["x", "y", "z"], rng.integers(0, 2, size=(int(rng.integers(20, 300)), 3)))
            res = ci_test_g2(m, "x", "y", ["z"])
            assert res.p_value == float(scipy.stats.chi2.sf(res.statistic, res.df))

    def test_conditional_null_calibration(self):
        # fork z -> x, z -> y: x and y are independent given z, so the
        # conditional p-values should be roughly uniform
        rng = np.random.default_rng(9)
        ps = []
        for _ in range(200):
            z = rng.integers(0, 2, size=500).astype(np.int8)
            flip_x = rng.random(500) < 0.3
            flip_y = rng.random(500) < 0.3
            x = np.where(flip_x, 1 - z, z).astype(np.int8)
            y = np.where(flip_y, 1 - z, z).astype(np.int8)
            m = matrix(["x", "y", "z"], np.column_stack([x, y, z]))
            ps.append(ci_test_g2(m, "x", "y", ["z"]).p_value)
        assert 0.4 < float(np.mean(ps)) < 0.6

    def test_conditional_breaks_chain_dependence(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, size=4000).astype(np.int8)
        b = np.where(rng.random(4000) < 0.9, a, 1 - a).astype(np.int8)
        c = np.where(rng.random(4000) < 0.9, b, 1 - b).astype(np.int8)
        m = matrix(["a", "b", "c"], np.column_stack([a, b, c]))
        assert ci_test_g2(m, "a", "c").p_value < 1e-6
        assert ci_test_g2(m, "a", "c", ["b"]).p_value > 0.001

    def test_small_strata_skipped_reduces_df(self):
        # z=1 stratum has only 3 rows -> skipped, df drops from 2 to 1
        rows = [[0, 0, 0]] * 10 + [[1, 1, 0]] * 10 + [[0, 1, 1], [1, 0, 1], [1, 1, 1]]
        m = matrix(["x", "y", "z"], rows)
        res = ci_test_g2(m, "x", "y", ["z"])
        assert res.df == 1
        assert not res.degenerate

    def test_all_strata_skipped_degenerate(self):
        rows = [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]
        m = matrix(["x", "y", "z"], rows)
        res = ci_test_g2(m, "x", "y", ["z"])
        assert res.degenerate
        assert res.p_value == 1.0

    def test_marginal_test_allows_missing(self):
        rows = [[1, 1, MISSING]] * 30 + [[0, 0, MISSING]] * 30 + [[MISSING, 1, 0]] * 5
        m = matrix(["x", "y", "z"], rows)
        assert ci_test_g2(m, "x", "y").p_value < 1e-6

    def test_conditional_requires_complete(self):
        m = matrix(["x", "y", "z"], [[1, 1, MISSING], [0, 0, 1]])
        with pytest.raises(ValueError, match="complete"):
            ci_test_g2(m, "x", "y", ["z"])

    def test_disjoint_variables_required(self):
        m = matrix(["x", "y"], [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            ci_test_g2(m, "x", "x")


def g2_loop(data, x, y, z):
    """Reference: the per-stratum loop the array expression replaced."""
    # each row's cell in binary counting order, z first (high bits), then x, then y
    cell = np.zeros(data.n_rows, dtype=np.int64)
    for v in (*z, x, y):
        cell = 2 * cell + data.column(v)
    counts = np.bincount(cell, minlength=4 << len(z)).reshape(-1, 2, 2).astype(np.float64)
    totals = counts.sum(axis=(1, 2))
    keep = totals >= MIN_STRATUM_ROWS
    g2 = 0.0
    for table, n in zip(counts[keep], totals[keep]):
        rows = table.sum(axis=1, keepdims=True)
        cols = table.sum(axis=0, keepdims=True)
        expected = rows * cols / n
        pos = table > 0
        g2 += 2.0 * float((table[pos] * np.log(table[pos] / expected[pos])).sum())
    return max(g2, 0.0), int(keep.sum())


class TestG2MatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        n_z=st.integers(0, 3),
        # per-stratum 2x2 cell counts; zeros and strata below MIN_STRATUM_ROWS are common
        cells=st.lists(st.integers(0, 12), min_size=32, max_size=32),
    )
    def test_bit_identical_to_loop(self, n_z, cells):
        rows = []
        for stratum in range(1 << n_z):
            zbits = [(stratum >> (n_z - 1 - k)) & 1 for k in range(n_z)]
            for cell in range(4):
                rows += [zbits + [cell >> 1, cell & 1]] * cells[4 * stratum + cell]
        if not rows:
            return
        labels = [f"z{k}" for k in range(n_z)] + ["x", "y"]
        m = matrix(labels, rows)
        res = ci_test_g2(m, "x", "y", labels[:n_z])
        statistic, df = g2_loop(m, "x", "y", labels[:n_z])
        if df == 0:
            assert res.degenerate and res.statistic == 0.0
        else:
            assert res.statistic == statistic
            assert res.df == df


class TestG2TestsMatchOneAtATime:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        n_z=st.integers(0, 3),
        n_tests=st.integers(1, 12),
        missing=st.booleans(),
        budget=st.sampled_from([1, 2**10, 2**18]),
    )
    def test_bit_identical_to_ci_test_g2(self, seed, n, n_z, n_tests, missing, budget):
        rng = np.random.default_rng(seed)
        d = 6
        values = (rng.random((n, d)) < rng.uniform(0.1, 0.9, size=d)).astype(np.int8)
        if missing:
            # only marginal statements accept missing cells; they count pairwise-complete rows
            n_z = 0
            values[rng.random((n, d)) < 0.25] = MISSING
        m = matrix([f"c{j}" for j in range(d)], values)
        cols = [list(rng.permutation(d)[: n_z + 2]) for _ in range(n_tests)]
        patterns, multiplicity = np.unique(values, axis=0, return_counts=True)
        original = dataset._COUNT_BUDGET_BYTES
        dataset._COUNT_BUDGET_BYTES = budget
        try:
            statistic, df, p = g2_tests(patterns, multiplicity.astype(np.float64), cols)
        finally:
            dataset._COUNT_BUDGET_BYTES = original
        for s, c in enumerate(cols):
            labels = [m.columns[j] for j in c]
            res = ci_test_g2(m, labels[-2], labels[-1], labels[:-2])
            assert (statistic[s], df[s], p[s]) == (res.statistic, res.df, res.p_value)

    def test_conditional_statements_require_complete_rows(self):
        rows = np.array([[1, 1, MISSING], [0, 0, 1]], dtype=np.int8)
        g2_tests(rows, np.ones(2), [[0, 1]])  # marginal: fine
        with pytest.raises(ValueError, match="complete"):
            g2_tests(rows, np.ones(2), [[2, 0, 1]])


class TestFisherExact:
    def test_degenerate_diagonal_closed_form(self):
        t = ContingencyTable("a", "b", 10, 0, 0, 10)
        expected = 2.0 / math.comb(20, 10)
        assert fisher_exact(t) == pytest.approx(expected, rel=1e-12)

    def test_flat_table_is_one(self):
        assert fisher_exact(ContingencyTable("a", "b", 5, 5, 5, 5)) == 1.0

    def test_table2_significant(self, table2_matrix):
        t = contingency(table2_matrix, "ndhD_116494", "ndhD_116785")
        assert fisher_exact(t) < 1e-6

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fisher_exact(ContingencyTable("a", "b", 0, 0, 0, 0))

    def test_matches_scipy_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            cells = rng.integers(0, 40, size=4)
            if cells.sum() == 0:
                continue
            t = ContingencyTable("a", "b", *map(int, cells))
            ours = fisher_exact(t)
            _, theirs = scipy.stats.fisher_exact([[t.n00, t.n01], [t.n10, t.n11]], alternative="two-sided")
            assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.integers(0, 60), min_size=4, max_size=4).filter(any))
    def test_same_bits_as_the_frozen_distribution(self, cells):
        """One unfrozen pmf over the support, read at the observed table,
        gives the p-value of the frozen ``hypergeom(n, row1, col1)`` form."""
        t = ContingencyTable("a", "b", *cells)
        n, row1, col1 = t.total, t.n10 + t.n11, t.n01 + t.n11
        rv = scipy.stats.hypergeom(n, row1, col1)
        pmf = rv.pmf(np.arange(max(0, row1 + col1 - n), min(row1, col1) + 1))
        included = pmf <= rv.pmf(t.n11) * (1.0 + 1e-7)
        frozen = 1.0 if included.all() else float(min(1.0, pmf[included].sum()))
        assert fisher_exact(t).hex() == frozen.hex()

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # the G² and Fisher tests and NOTEARS load only the compiled kernels
        # they call, so start-up pays for none of these packages; no command
        # imports any module at all after causalchron.cli (numpy.random loads
        # with the package, numpy.ma never); importing the packages later
        # binds the very kernels the package calls
        out = fresh_python("""if True:
            import contextlib, io, json, os, sys, tempfile, causalchron, causalchron.cli, causalchron.pipeline
            from causalchron.chronology import deterministic_chronology
            from causalchron.dataset import ContingencyTable
            from causalchron.discovery import fisher_exact
            from causalchron.pipeline import PipelineConfig, ScenarioSpec, simulate
            unloaded = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special",
                        "scipy.optimize._lbfgsb", "scipy.linalg._matfuncs_expm", "scipy.special._ufuncs")
            loaded = [name for name in unloaded if name in sys.modules]
            before = set(sys.modules)
            # two library calls' checks, then the exit code of each command line
            ran = [fisher_exact(ContingencyTable("a", "b", 7, 1, 2, 9)) < 1.0]
            matrix, _ = simulate(ScenarioSpec(preset="chain-4", n_rows=300, seed=0))
            ran.append(len(deterministic_chronology(matrix).dag.edges) > 0)
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                def run(*argv):
                    ran.append(causalchron.cli.main([str(arg) for arg in argv]))
                sim, imp = os.path.join(tmp, "sim"), os.path.join(tmp, "imp")
                data, dag = os.path.join(imp, "data.imputed.csv"), os.path.join(tmp, "hc", "dag.hc.edges")
                run("simulate", "--preset", "chain-4", "--n", 300, "--rate", 0.2, "--seed", 0, "--out", sim)
                run("impute", "--data", os.path.join(sim, "data.csv"), "--out", imp)
                for algo in ("hc", "pc", "lingam", "notears"):
                    run("discover", "--data", data, "--algo", algo, "--out", os.path.join(tmp, algo))
                run("discover", "--data", data, "--algo", "notears-stability", "--lambda-grid", "0.05:0.2:2",
                    "--resamples", 2, "--out", os.path.join(tmp, "stability"))
                run("effects", "--dag", dag, "--data", data, "--out", os.path.join(tmp, "effects"))
                run("chronology", "--relations", os.path.join(tmp, "effects", "effects.json"), "--dag", dag,
                    "--out", os.path.join(tmp, "chronology"))
                run("baseline", "--data", data, "--out", os.path.join(tmp, "baseline"))
                run("compare", "--data", data, "--model", f"hc={dag}", "--out", os.path.join(tmp, "scores.csv"))
                run("falsify", "--dag", dag, "--data", data, "--perms", 2, "--out", os.path.join(tmp, "verdict.json"))
                config = os.path.join(tmp, "config.json")
                scenario = ScenarioSpec(preset="chain-5", n_rows=300, missing_rate=0.2)
                with open(config, "w", encoding="utf-8") as fh:
                    json.dump(PipelineConfig(scenario=scenario, falsify_perms=2).to_doc(), fh)
                run("pipeline", "--config", config, "--out", os.path.join(tmp, "run"))
            loaded += [name for name in unloaded + ("numpy.ma",) if name in sys.modules]
            loaded += sorted(set(sys.modules) - before)
            import scipy.linalg, scipy.optimize, scipy.special, scipy.stats
            from causalchron import _scipy_kernels
            from causalchron.discovery import citests, notears
            same = [
                scipy.optimize._lbfgsb.setulb is notears.setulb,
                scipy.linalg._matfuncs_expm.pick_pade_structure is _scipy_kernels._pade.pick_pade_structure,
                scipy.linalg._matfuncs_expm.pade_UV_calc is _scipy_kernels._pade.pade_UV_calc,
                scipy.special.chdtrc is citests.chdtrc,
                scipy.special._ufuncs._hypergeom_pmf is _scipy_kernels.hypergeom_pmf,
            ]
            x, df = [0.0, 0.5, 3.84, 12.0, 80.0], [1, 2, 3, 7, 16]
            same.append(scipy.stats.chi2.sf(x, df).tolist() == citests.chdtrc(df, x).tolist())
            print(json.dumps({"loaded": loaded, "ran": ran, "same": same}))
        """)
        assert out == {"loaded": [], "ran": [True, True] + [0] * 13, "same": [True] * 6}
        # scipy.special imported first: the loader takes the package's own
        # module and leaves the real package in place
        out = fresh_python("""if True:
            import json, sys, scipy.special
            from causalchron import _scipy_kernels
            from causalchron.discovery import citests
            print(json.dumps([
                _scipy_kernels.load_kernel("special", "_ufuncs") is scipy.special._ufuncs,
                citests.chdtrc is scipy.special.chdtrc,
                sys.modules["scipy.special"] is scipy.special,
                hasattr(sys.modules["scipy.special"], "chdtrc"),
            ]))
        """)
        assert out == [True] * 4
