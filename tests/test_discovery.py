"""Structure learners: hill climbing, PC, direct ordering, and registry."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from causalchron.bayesnet import Cpt, Dag, DiscreteBayesNet, sample
from causalchron.dataset import EventMatrix
from causalchron.discovery import ci_test_g2, get_learner, hc_learn, lingam_learn, pc, pc_learn
from causalchron.pipeline import preset_network

from conftest import random_network

CHAIN_SKELETON = {frozenset(p) for p in [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")]}


def independent_net(d=5, p=0.5):
    labels = tuple(f"x{i}" for i in range(1, d + 1))
    return DiscreteBayesNet(
        Dag(labels, []), tuple(Cpt(n, (), np.array([p])) for n in labels)
    )


class TestHillClimbing:
    def test_chain_skeleton_recovered(self):
        data = sample(preset_network("chain-5"), 5000, seed=0)
        assert hc_learn(data).skeleton() == CHAIN_SKELETON

    def test_independent_data_mostly_empty(self):
        hits = sum(
            1
            for s in range(20)
            if not hc_learn(sample(independent_net(), 2000, seed=s)).edges
        )
        assert hits >= 19

    def test_single_row_empty_graph(self):
        data = EventMatrix(("a", "b"), np.array([[1, 1]], dtype=np.int8))
        assert hc_learn(data).edges == frozenset()

    def test_score_trajectory_strictly_increasing(self):
        data = sample(preset_network("chain-5"), 2000, seed=3)
        _, trace = hc_learn(data, return_trace=True)
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_max_indegree_respected(self):
        data = sample(preset_network("diamond"), 4000, seed=1)
        dag = hc_learn(data, max_indegree=1)
        assert all(len(dag.parents(n)) <= 1 for n in dag.nodes)
        # a cap below 1 allows no parents, in the climb and in every restart
        for cap in (0, -1):
            assert not hc_learn(data, max_indegree=cap, seed=0, restarts=2).edges

    def test_deterministic(self):
        data = sample(preset_network("chain-5"), 1000, seed=5)
        assert hc_learn(data) == hc_learn(data)

    def test_restarts_never_hurt_the_score(self):
        from causalchron.bayesnet import bic_score

        data = sample(preset_network("diamond"), 3000, seed=7)
        plain = hc_learn(data)
        restarted = hc_learn(data, seed=7, restarts=3)
        assert bic_score(restarted, data) >= bic_score(plain, data)
        assert hc_learn(data, seed=7, restarts=3) == restarted

    def test_restarts_on_random_small_data(self):
        # each restart must begin from an acyclic graph, whatever parent sets
        # the previous climb left behind
        from causalchron.bayesnet import bic_score

        rng = np.random.default_rng(1)
        for i in range(20):
            bn = random_network(rng, int(rng.integers(2, 9)))
            data = sample(bn, int(rng.integers(30, 300)), seed=i)
            restarted = hc_learn(data, seed=i, restarts=3)
            assert bic_score(restarted, data) >= bic_score(hc_learn(data), data)

    def test_requires_complete(self):
        m = EventMatrix(("a", "b"), np.array([[1, -1], [0, 1]], dtype=np.int8))
        with pytest.raises(ValueError, match="complete"):
            hc_learn(m)


class TestPc:
    def test_chain_skeleton_and_separating_set(self):
        data = sample(preset_network("chain-5"), 10000, seed=2)
        res = pc_learn(data)
        assert res.dag.skeleton() == CHAIN_SKELETON
        assert res.separating_sets[frozenset(("x1", "x3"))] == frozenset({"x2"})

    def test_collider_orientation(self):
        # XOR with biased coins: fair coins would make the pairs marginally
        # independent (the classic unfaithful case), removing every edge at
        # level 0 before the v-structure could be seen
        rng = np.random.default_rng(11)
        a = (rng.random(10000) < 0.6).astype(np.int8)
        b = (rng.random(10000) < 0.6).astype(np.int8)
        c = (a ^ b).astype(np.int8)
        data = EventMatrix(("a", "b", "c"), np.column_stack([a, b, c]))
        res = pc_learn(data)
        assert res.dag.edges == frozenset({("a", "c"), ("b", "c")})
        assert res.order_forced_edges == frozenset()

    def test_two_independent_columns_edgeless(self):
        hits = sum(
            1
            for s in range(20)
            if not pc_learn(sample(independent_net(d=2), 2000, seed=s)).dag.edges
        )
        assert hits >= 19

    def test_chain_edges_are_order_forced(self):
        # a chain CPDAG has no v-structures, so every orientation is forced
        data = sample(preset_network("chain-5"), 10000, seed=4)
        res = pc_learn(data)
        if res.dag.skeleton() == CHAIN_SKELETON:
            assert res.order_forced_edges

    def test_skeleton_invariant_under_column_permutation(self):
        data = sample(preset_network("chain-5"), 8000, seed=6)
        base = pc_learn(data).dag.skeleton()
        perm = [3, 0, 4, 2, 1]
        labels = tuple(data.columns[i] for i in perm)
        permuted = EventMatrix(labels, data.values[:, perm])
        assert pc_learn(permuted).dag.skeleton() == base

    def test_output_always_acyclic(self):
        rng = np.random.default_rng(8)
        for s in range(10):
            bn = preset_network(f"random-6-0.4", seed=s)
            data = sample(bn, 400, seed=s)
            pc_learn(data)  # Dag constructor validates acyclicity


def sequential_skeleton(data, alpha):
    """Stable-skeleton PC one test at a time: a pair stops at its first independent set.

    Returns the skeleton, the separating sets and how many tests an early
    stop skipped.
    """
    nodes = data.columns
    index = {n: i for i, n in enumerate(nodes)}
    adjacency = {n: set(nodes) - {n} for n in nodes}
    sepsets, skipped = {}, 0
    level = 0
    while True:
        frozen = {n: tuple(sorted(adjacency[n], key=index.__getitem__)) for n in nodes}
        if all(len(frozen[n]) - 1 < level for n in nodes):
            break
        for a in nodes:
            for b in frozen[a]:
                if index[b] < index[a]:
                    continue
                tests = [zs for base, other in ((a, b), (b, a))
                         for zs in combinations([v for v in frozen[base] if v != other], level)]
                for k, zs in enumerate(tests):
                    if ci_test_g2(data, a, b, list(zs)).independent(alpha):
                        adjacency[a].discard(b)
                        adjacency[b].discard(a)
                        sepsets[frozenset((a, b))] = frozenset(zs)
                        skipped += len(tests) - k - 1
                        break
        level += 1
    return {frozenset((a, b)) for a in nodes for b in adjacency[a]}, sepsets, skipped


class TestPcMatchesSequentialReference:
    """Each skeleton level counts all its tests in one stacked pass and replays
    the early stop; the result is that of running the tests one at a time."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        n=st.integers(20, 400),
        alpha=st.sampled_from([0.01, 0.05, 0.2, 0.5]),
    )
    def test_same_dag_sepsets_and_forced_edges(self, seed, d, n, alpha):
        rng = np.random.default_rng(seed)
        data = sample(random_network(rng, d), n, seed=seed % 1000)
        skeleton, sepsets, skipped = sequential_skeleton(data, alpha)
        event("a pair stopped early" if skipped else "no test skipped")
        expected = pc._orient(data.columns, skeleton, sepsets)
        result = pc_learn(data, alpha)
        assert result.separating_sets == sepsets
        assert result.dag == expected.dag
        assert result.order_forced_edges == expected.order_forced_edges

    def test_early_stops_occur(self):
        # the replay matters: some pairs have independent sets after their first one
        skipped = 0
        for seed in range(10):
            data = sample(random_network(np.random.default_rng(seed), 6), 300, seed=seed)
            skeleton, sepsets, k = sequential_skeleton(data, 0.2)
            skipped += k
            assert pc_learn(data, 0.2).separating_sets == sepsets
        assert skipped > 0


def ordered_pair_loop(centered):
    """Reference direct ordering: both directions of every pair scored from scratch."""
    from causalchron.discovery.lingam import _VAR_EPS, _entropy_proxy, _standardize

    def ratio(xi, xj):
        if xi.var() <= _VAR_EPS or xj.var() <= _VAR_EPS:
            return 0.0
        r_j_given_i = xj - (np.dot(xi, xj) / np.dot(xi, xi)) * xi
        r_i_given_j = xi - (np.dot(xj, xi) / np.dot(xj, xj)) * xj
        h_forward = _entropy_proxy(_standardize(xi)) + _entropy_proxy(_standardize(r_j_given_i))
        h_backward = _entropy_proxy(_standardize(xj)) + _entropy_proxy(_standardize(r_i_given_j))
        return h_backward - h_forward

    remaining = list(range(centered.shape[1]))
    resid = centered.copy()
    order = []
    while len(remaining) > 1:
        constants = [j for j in remaining if resid[:, j].var() <= _VAR_EPS]
        if constants:
            root = constants[0]
        else:
            scores = []
            for i in remaining:
                t = 0.0
                for j in remaining:
                    if j != i:
                        t += min(0.0, ratio(resid[:, i], resid[:, j])) ** 2
                scores.append((t, i))
            root = min(scores)[1]
        order.append(root)
        remaining.remove(root)
        xr = resid[:, root]
        denom = np.dot(xr, xr)
        if denom > _VAR_EPS:
            for j in remaining:
                resid[:, j] = resid[:, j] - (np.dot(xr, resid[:, j]) / denom) * xr
    return order + remaining


class TestLingam:
    def test_single_column(self):
        m = EventMatrix(("a",), np.array([[1], [0], [1]], dtype=np.int8))
        assert lingam_learn(m).edges == frozenset()

    def test_linear_sem_with_uniform_noise(self):
        # continuous SEM binarised by the EventMatrix contract does not
        # apply here: lingam_learn takes the binary matrix directly, so use
        # a strongly coupled binary pair with asymmetric noise instead
        rng = np.random.default_rng(3)
        x1 = (rng.random(5000) < 0.3).astype(np.int8)
        noise = rng.random(5000)
        x2 = np.where(x1 == 1, (noise < 0.95), (noise < 0.15)).astype(np.int8)
        data = EventMatrix(("x1", "x2"), np.column_stack([x1, x2]))
        dag = lingam_learn(data)
        assert dag.edges == frozenset({("x1", "x2")})

    def test_independent_columns_no_edges(self):
        data = sample(independent_net(d=2, p=0.3), 5000, seed=9)
        assert lingam_learn(data).edges == frozenset()

    def test_continuous_sem_ordering_internals(self):
        # the ordering core works on real-valued columns; feed it the
        # classic two-variable SEM with uniform noise directly
        from causalchron.discovery.lingam import _causal_order, _entropy_proxy, _pairwise_ratio, _standardize

        rng = np.random.default_rng(1)
        e1 = rng.uniform(-1, 1, size=5000)
        e2 = rng.uniform(-1, 1, size=5000)
        x1 = e1
        x2 = 0.8 * x1 + e2
        centered = np.column_stack([x2, x1])  # deliberately scrambled order
        centered -= centered.mean(axis=0)
        assert _causal_order(centered) == [1, 0]
        h1, h2 = (_entropy_proxy(_standardize(centered[:, j])) for j in (1, 0))
        assert _pairwise_ratio(centered[:, 1], centered[:, 0], h1, h2) > 0

    def test_constant_column_exogenous_without_edges(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, size=(500, 1)).astype(np.int8)
        const = np.ones((500, 1), dtype=np.int8)
        data = EventMatrix(("a", "b"), np.column_stack([const, x]))
        dag = lingam_learn(data)
        assert all("a" not in e for e in dag.edges)

    def test_deterministic(self):
        data = sample(preset_network("chain-4"), 2000, seed=12)
        assert lingam_learn(data) == lingam_learn(data)

    @pytest.mark.parametrize(
        "data",
        [
            sample(preset_network("ndhb-like"), 1899, seed=0),
            sample(preset_network("chain-5"), 2000, seed=3),
            sample(random_network(np.random.default_rng(4), 7), 500, seed=4),
            EventMatrix(
                ("a", "b", "c"),
                np.column_stack(
                    [np.ones(300), np.random.default_rng(6).integers(0, 2, (300, 2))]
                ).astype(np.int8),
            ),
        ],
        ids=["ndhb-like", "chain-5", "random-7", "constant-column"],
    )
    def test_same_order_and_edges_as_ordered_pair_loop(self, monkeypatch, data):
        from causalchron.discovery import lingam

        centered = data.values.astype(np.float64)
        centered -= centered.mean(axis=0)
        order = lingam._causal_order(centered)
        edges = lingam_learn(data).edges
        monkeypatch.setattr(lingam, "_causal_order", ordered_pair_loop)
        assert order == ordered_pair_loop(centered)
        assert edges == lingam_learn(data).edges


class TestRegistry:
    def test_known_names(self):
        data = sample(preset_network("chain-3"), 500, seed=0)
        for name in ("hc", "pc", "lingam", "notears"):
            dag = get_learner(name)(data, 0)
            assert isinstance(dag, Dag)
            assert set(dag.nodes) == set(data.columns)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown learner"):
            get_learner("ges")

    @pytest.mark.parametrize(
        "name, misspelt",
        [
            ("hc", "max_indgree"),
            ("pc", "alpah"),
            ("lingam", "treshold"),
            ("notears", "lambda"),
            ("notears-stability", "n_resample"),
        ],
    )
    def test_misspelt_parameter_names_learner_and_key(self, name, misspelt):
        with pytest.raises(ValueError, match=f"learner '{name}' takes no parameter '{misspelt}'"):
            get_learner(name, **{misspelt: 1})

    def test_parameters_cast_to_the_declared_type(self):
        data = sample(preset_network("chain-3"), 500, seed=0)
        # a JSON 1 means 1.0 and 2.0 means 2, as the learner signatures declare
        assert get_learner("lingam", threshold=1)(data, 0) == lingam_learn(data, threshold=1.0)
        assert get_learner("hc", max_indegree=2.0)(data, 0) == hc_learn(data, max_indegree=2)
        for bad in ({"alpha": None}, {"alpha": "0.05"}, {"alpha": True}, {"alpha": float("nan")}):
            with pytest.raises(ValueError, match="learner 'pc' parameter 'alpha'"):
                get_learner("pc", **bad)
        with pytest.raises(ValueError, match="'max_indegree' must be int"):
            get_learner("hc", max_indegree=1.5)

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("notears-stability", "window", 0),
            ("notears-stability", "window", -3),
            ("notears-stability", "freq_threshold", -1),
            ("notears-stability", "freq_threshold", 0),
            ("notears-stability", "freq_threshold", 1.5),
            ("notears-stability", "omega", -1),
            ("notears", "omega", -1),
        ],
    )
    def test_out_of_range_parameters_rejected_at_lookup(self, name, key, value):
        with pytest.raises(ValueError, match=f"learner '{name}' parameter '{key}' must be"):
            get_learner(name, **{key: value})
