from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalchron import imputation
from causalchron.bayesnet import Dag, fit_cpts, sample
from causalchron.dataset import MISSING, EventMatrix, assignment_index
from causalchron.discovery import get_learner
from causalchron.imputation import edge_change_fraction, em_impute, initial_impute
from causalchron.pipeline import ScenarioSpec, simulate

from conftest import random_network


def matrix(labels, rows):
    return EventMatrix(tuple(labels), np.array(rows, dtype=np.int8))


class TestInitialImpute:
    def test_mode_majority(self):
        m = matrix(["x"], [[1], [1], [MISSING], [0]])
        assert initial_impute(m, "mode").values.tolist() == [[1], [1], [1], [0]]

    def test_mode_tie_goes_to_zero(self):
        m = matrix(["x"], [[1], [0], [MISSING]])
        assert initial_impute(m, "mode").values.tolist() == [[1], [0], [0]]

    def test_no_missing_is_identity(self):
        m = matrix(["x", "y"], [[1, 0], [0, 1]])
        assert initial_impute(m, "mode") is m
        assert initial_impute(m, "round_robin") is m

    def test_fully_missing_column_rejected(self):
        m = matrix(["x", "y"], [[MISSING, 1], [MISSING, 0]])
        with pytest.raises(ValueError, match="fully missing"):
            initial_impute(m, "mode")

    def test_unknown_method(self):
        m = matrix(["x"], [[1], [MISSING]])
        with pytest.raises(ValueError, match="'method' must be one of"):
            initial_impute(m, "median")

    def test_round_robin_uses_neighbors(self):
        # two perfectly correlated columns: the neighbor vote recovers the
        # missing value from the twin column, where the mode would say 0
        rows = [[1, 1]] * 30 + [[0, 0]] * 40 + [[MISSING, 1]]
        m = matrix(["a", "b"], rows)
        out = initial_impute(m, "round_robin")
        assert out.values[-1, 0] == 1

    def test_round_robin_deterministic(self):
        rng = np.random.default_rng(0)
        values = rng.choice([0, 1, MISSING], size=(80, 4), p=[0.4, 0.4, 0.2]).astype(np.int8)
        values[:, 0] = rng.integers(0, 2, size=80)  # keep one complete column
        m = EventMatrix(("a", "b", "c", "d"), values)
        a = initial_impute(m, "round_robin")
        b = initial_impute(m, "round_robin")
        assert np.array_equal(a.values, b.values)

    def test_observed_cells_untouched(self):
        rng = np.random.default_rng(3)
        values = rng.choice([0, 1, MISSING], size=(60, 3), p=[0.35, 0.35, 0.3]).astype(np.int8)
        values[0] = [1, 0, 1]
        m = EventMatrix(("a", "b", "c"), values)
        for method in ("mode", "round_robin"):
            out = initial_impute(m, method)
            observed = values != MISSING
            assert np.array_equal(out.values[observed], values[observed])


def reference_round_robin(values, k=25, sweeps=3):
    """Loop version of the round-robin fill, one missing cell at a time.

    The pool is sorted by (Hamming distance over the complete columns, pool
    index); the first k pool rows vote and majority ties go to 0.
    """
    work = values.copy()
    missing = values == MISSING
    d = values.shape[1]
    complete = {j for j in range(d) if not missing[:, j].any()}
    for _ in range(sweeps):
        changed = False
        for j in range(d):
            rows = np.flatnonzero(missing[:, j])
            pool = np.flatnonzero(~missing[:, j])
            ctx = sorted(complete - {j})
            if rows.size:
                predicted = np.empty(rows.size, dtype=np.int8)
                for t, r in enumerate(rows):
                    dist = (work[np.ix_(pool, ctx)] != work[r, ctx]).sum(axis=1)
                    nearest = pool[np.lexsort((np.arange(pool.size), dist))[:k]]
                    ones = int((values[nearest, j] == 1).sum())
                    predicted[t] = 1 if ones * 2 > nearest.size else 0
                changed |= not np.array_equal(predicted, work[rows, j])
                work[rows, j] = predicted
            complete.add(j)
        if not changed:
            break
    return work


@st.composite
def duplicate_heavy_matrices(draw):
    """Rows drawn from a few base patterns, so rows repeat and distances tie.

    Every cell may be missing, so often no column starts complete and the
    first column filled has no context at all.
    """
    d = draw(st.integers(1, 5))
    base = draw(arrays(np.int8, (draw(st.integers(1, 8)), d), elements=st.sampled_from([0, 1, MISSING])))
    n = draw(st.integers(1, 70))
    picks = draw(arrays(np.intp, n, elements=st.integers(0, base.shape[0] - 1)))
    values = base[picks]
    for j in range(d):
        if (values[:, j] == MISSING).all():
            values[draw(st.integers(0, n - 1)), j] = draw(st.sampled_from([0, 1]))
    return values


def reference_knn_majority(target_block, pool_block, pool_votes, k):
    """Vote of each target row over the whole pool sorted by (Hamming distance, pool index)."""
    out = np.empty(len(target_block), dtype=np.int8)
    for t, row in enumerate(target_block):
        dist = (pool_block != row).sum(axis=1)
        nearest = np.lexsort((np.arange(len(pool_block)), dist))[:k]
        out[t] = 1 if int((pool_votes[nearest] == 1).sum()) * 2 > nearest.size else 0
    return out


def cells(rows):
    return np.array(rows, dtype=np.int8)


@st.composite
def knn_cases(draw):
    """(target block, pool block, pool votes, k) over a few repeated pool patterns."""
    width = draw(st.integers(0, 4))
    base = draw(arrays(np.int8, (draw(st.integers(1, 6)), width), elements=st.sampled_from([0, 1])))
    n_pool = draw(st.integers(1, 60))
    pool = base[draw(arrays(np.intp, n_pool, elements=st.integers(0, len(base) - 1)))]
    votes = draw(arrays(np.int8, n_pool, elements=st.sampled_from([0, 1])))
    target = draw(arrays(np.int8, (draw(st.integers(1, 12)), width), elements=st.sampled_from([0, 1])))
    return target, pool, votes, draw(st.integers(1, 12))


class TestKnnMajority:
    @settings(max_examples=300, deadline=None)
    @given(knn_cases())
    # one pool pattern repeated far more than k times, its later copies voting 1
    @example((cells([[0, 0], [1, 1]]), cells([[0, 0]] * 3 + [[1, 1]] + [[0, 0]] * 20),
              cells([0, 0, 0, 1] + [1] * 20), 3))
    # the boundary distance class (distance 1) spans two interleaved pool patterns,
    # and the vote depends on which of its rows come first
    @example((cells([[0, 0]]), cells([[1, 0], [0, 1], [1, 0], [0, 0], [0, 1], [1, 0]]),
              cells([1, 1, 0, 0, 0, 0]), 3))
    # k at and beyond the pool size
    @example((cells([[1, 0]]), cells([[1, 1], [0, 0], [1, 1]]), cells([1, 0, 1]), 3))
    @example((cells([[1, 0]]), cells([[1, 1], [0, 0], [1, 1]]), cells([1, 0, 1]), 9))
    # zero-width blocks: the first k pool rows vote
    @example((np.zeros((2, 0), np.int8), np.zeros((7, 0), np.int8), cells([0, 1, 1, 0, 1, 1, 1]), 4))
    def test_matches_full_pool_reference(self, case):
        # only the first k rows of each pool pattern enter the key matrix; the
        # vote must be the one of the whole pool under the (distance, index) key
        target, pool, votes, k = case
        got = imputation._knn_majority(target, pool, votes, k)
        assert np.array_equal(got, reference_knn_majority(target, pool, votes, k))


class TestRoundRobinReference:
    @settings(max_examples=200, deadline=None)
    @given(duplicate_heavy_matrices(), st.one_of(st.none(), st.integers(1, 4096)))
    def test_matches_loop_reference(self, values, budget):
        # budget=None keeps the module's key budget; a small one splits the
        # distinct patterns over many chunks of varying size
        m = EventMatrix(tuple(f"c{j}" for j in range(values.shape[1])), values)
        with mock.patch.object(imputation, "_KEY_BUDGET_BYTES", budget or imputation._KEY_BUDGET_BYTES):
            out = initial_impute(m, "round_robin")
        assert np.array_equal(out.values, reference_round_robin(values))

    def test_patterns_span_several_chunks(self, monkeypatch):
        # six complete context columns take all 64 patterns, each three
        # times; one copy of each pattern is missing in the last column
        rng = np.random.default_rng(11)
        patterns = ((np.arange(64)[:, None] >> np.arange(6)) & 1).astype(np.int8)
        context = np.repeat(patterns, 3, axis=0)
        target = rng.integers(0, 2, size=(context.shape[0], 1)).astype(np.int8)
        target[::3] = MISSING
        values = np.hstack([context, target])
        n_pool = int((target != MISSING).sum())
        monkeypatch.setattr(imputation, "_KEY_BUDGET_BYTES", 8 * n_pool * 5)
        assert len(np.unique(values[target[:, 0] == MISSING], axis=0)) > 5
        out = initial_impute(EventMatrix(tuple("abcdefg"), values), "round_robin")
        assert np.array_equal(out.values, reference_round_robin(values))

    def test_scale_twenty_thousand_rows(self):
        m, _ = simulate(ScenarioSpec(preset="chain-5", n_rows=20_000, missing_rate=0.3, seed=0))
        out = initial_impute(m, "round_robin")
        observed = m.values != MISSING
        assert out.is_complete
        assert np.array_equal(out.values[observed], m.values[observed])


def reference_e_step(bn, completed, missing_mask, modes):
    """The batch E-step: every originally-missing cell from the frozen
    matrix, the pass repeated until the matrix stops changing."""
    values = completed.values
    col_of = {c: i for i, c in enumerate(completed.columns)}
    for _ in range(len(completed.columns) + 1):
        out = values.copy()
        for node in bn.dag.nodes:
            j = col_of[node]
            rows = np.flatnonzero(missing_mask[:, j])
            cpt = bn.cpt(node)
            p1 = cpt.p1[assignment_index(values[rows], [col_of[p] for p in cpt.parents])]
            out[rows, j] = np.where(p1 > 0.5, 1, np.where(p1 < 0.5, 0, modes[j]))
        if np.array_equal(out, values):
            break
        values = out
    return values


class TestEStep:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 6),
        n=st.integers(1, 40),
        rate=st.sampled_from([0.1, 0.4, 0.8]),
        ess=st.sampled_from([None, 0.0, 1.0]),
    )
    def test_one_topological_pass_is_the_batch_fixed_point(self, seed, d, n, rate, ess):
        # the declared node order is random, the columns take another random
        # order; ess None imputes with the generating tables, and at ess 0
        # small counts give exact 0.5 ties that take the column mode
        rng = np.random.default_rng(seed)
        bn = random_network(rng, d)
        data = sample(bn, n, seed=seed)
        columns = tuple(rng.permutation(data.columns))
        values = data.values[:, [data.columns.index(c) for c in columns]].copy()
        values[rng.random(values.shape) < rate] = MISSING
        m = EventMatrix(columns, values)
        missing_mask = values == MISSING
        try:
            modes = imputation._column_modes(values)
        except ValueError:
            return  # a fully missing column cannot be imputed
        completed = initial_impute(m, "mode")
        tables = bn if ess is None else fit_cpts(bn.dag, completed, ess=ess)
        out = imputation._e_step(tables, completed, missing_mask, modes)
        assert np.array_equal(out.values, reference_e_step(tables, completed, missing_mask, modes))


class TestEdgeChangeFraction:
    def test_identical(self):
        g = Dag(("a", "b"), [("a", "b")])
        assert edge_change_fraction(g, g) == 0.0

    def test_disjoint(self):
        g1 = Dag(("a", "b", "c"), [("a", "b")])
        g2 = Dag(("a", "b", "c"), [("b", "c")])
        assert edge_change_fraction(g1, g2) == 1.0

    def test_both_empty(self):
        g = Dag(("a", "b"), [])
        assert edge_change_fraction(g, g) == 0.0

    def test_one_reversal_among_ten(self):
        labels = tuple(f"n{i}" for i in range(20))
        shared = [(f"n{2 * i}", f"n{2 * i + 1}") for i in range(9)]
        g1 = Dag(labels, shared + [("n18", "n19")])
        g2 = Dag(labels, shared + [("n19", "n18")])
        assert edge_change_fraction(g1, g2) == pytest.approx(2 / 11)

    def test_node_set_mismatch(self):
        with pytest.raises(ValueError, match="node set"):
            edge_change_fraction(Dag(("a",), []), Dag(("b",), []))


class TestEmImpute:
    def test_no_missing_single_iteration(self):
        m = matrix(["a", "b"], [[1, 1], [0, 0], [1, 1], [0, 1]])
        learner = get_learner("hc")
        res = em_impute(m, learner, seed=0)
        assert res.iterations == 1
        assert res.edge_change_history == (0.0,)
        assert res.converged
        assert res.completed is m
        assert res.model.dag == learner(m, 0)

    def test_observed_cells_bit_identical(self):
        m, _ = simulate(ScenarioSpec(preset="chain-5", n_rows=1500, missing_rate=0.3, seed=4))
        res = em_impute(m, get_learner("hc"), seed=4)
        observed = m.values != MISSING
        assert np.array_equal(res.completed.values[observed], m.values[observed])
        assert res.completed.is_complete

    def test_deterministic(self):
        m, _ = simulate(ScenarioSpec(preset="chain-5", n_rows=800, missing_rate=0.3, seed=2))
        a = em_impute(m, get_learner("hc"), seed=5)
        b = em_impute(m, get_learner("hc"), seed=5)
        assert np.array_equal(a.completed.values, b.completed.values)
        assert a.edge_change_history == b.edge_change_history
        assert a.model.dag == b.model.dag

    def test_history_length_matches_iterations(self):
        m, _ = simulate(ScenarioSpec(preset="chain-5", n_rows=800, missing_rate=0.2, seed=9))
        res = em_impute(m, get_learner("hc"), seed=9)
        assert len(res.edge_change_history) == res.iterations
        if res.converged:
            assert res.edge_change_history[-1] < 0.01

    def test_exact_half_probability_imputes_column_mode(self):
        # parentless node fitted at exactly p=0.5 (ess=0); mode tie resolves to 0
        rows = [[1], [1], [0], [0], [MISSING]]
        m = matrix(["x"], rows)

        def edgeless(data, seed):
            return Dag(data.columns, [])

        res = em_impute(m, edgeless, ess=0.0, seed=0)
        assert res.completed.values[-1, 0] == 0

    def test_chain_recovery_under_hc(self):
        m, _ = simulate(ScenarioSpec(preset="chain-5", n_rows=5000, missing_rate=0.3, seed=1))
        res = em_impute(m, get_learner("hc"), seed=1, initial_method="round_robin")
        assert res.converged and res.iterations <= 3
        want = {frozenset(p) for p in [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")]}
        assert res.model.dag.skeleton() == want

    def test_learner_failure_is_annotated(self):
        m = matrix(["a", "b"], [[1, MISSING], [0, 1], [1, 1]])

        def broken(data, seed):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="EM iteration 0"):
            em_impute(m, broken, seed=0)

    def test_bad_stopping_rule_rejected(self):
        m = matrix(["a", "b"], [[1, MISSING], [0, 1], [1, 1]])
        for kwargs, match in (
            ({"max_iter": 0}, "max_iter"),
            ({"tol": -1.0}, "tol"),
            ({"tol": float("nan")}, "tol"),
        ):
            with pytest.raises(ValueError, match=match):
                em_impute(m, get_learner("hc"), **kwargs)

    def test_report_json(self):
        import json

        m = matrix(["a", "b"], [[1, 1], [0, 0], [1, 0], [0, 1]])
        res = em_impute(m, get_learner("hc"), seed=0)
        doc = json.loads(res.report_json())
        assert doc == {
            "iterations": 1,
            "edge_change_history": [0.0],
            "converged": True,
        }
