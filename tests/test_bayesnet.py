import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalchron.bayesnet import (
    Cpt,
    Dag,
    DiscreteBayesNet,
    ZeroProbabilityEvidence,
    bic_score,
    cycle_edges,
    d_separated,
    fit_cpts,
    local_bic,
    local_bics,
    local_markov_statements,
    log_likelihood,
    query,
    reachable,
    sample,
    topological_levels,
)
from causalchron.dataset import EventMatrix

from conftest import random_network


def matrix(labels, rows):
    return EventMatrix(tuple(labels), np.array(rows, dtype=np.int8))


def brute_force_conditional(bn, target, evidence):
    """Pure-Python enumeration over all states; independent of the vectorized joint."""
    cpt_of = {c.node: c for c in bn.cpts}
    p_num = 0.0
    p_den = 0.0
    for state in itertools.product((0, 1), repeat=len(bn.dag.nodes)):
        assignment = dict(zip(bn.dag.nodes, state))
        if any(assignment[k] != v for k, v in evidence.items()):
            continue
        p = 1.0
        for node in bn.dag.nodes:
            cpt = cpt_of[node]
            idx = 0
            for parent in cpt.parents:
                idx = (idx << 1) | assignment[parent]
            p1 = cpt.p1[idx]
            p *= p1 if assignment[node] == 1 else 1.0 - p1
        p_den += p
        if assignment[target] == 1:
            p_num += p
    if p_den == 0.0:
        raise ZeroDivisionError
    return p_num / p_den


def brute_force_probability(bn, assignment):
    """P(assignment) by the chain rule over brute-force conditionals."""
    p = 1.0
    evidence = {}
    for node, value in assignment.items():
        try:
            p1 = brute_force_conditional(bn, node, evidence)
        except ZeroDivisionError:
            return 0.0
        p *= p1 if value == 1 else 1.0 - p1
        evidence[node] = value
    return p


class TestDag:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(("a", "b"), [("a", "b"), ("b", "a")])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Dag(("a",), [("a", "a")])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dag(("a", "a"), [])

    def test_topological_order_prefers_declared_order(self):
        g = Dag(("c", "a", "b"), [("a", "b")])
        assert g.topological_order() == ("c", "a", "b")

    def test_edge_list_round_trip(self):
        g = Dag(("a", "b", "c", "d"), [("a", "b"), ("b", "c")])
        back = Dag.from_edge_list(g.to_edge_list())
        assert set(back.nodes) == set(g.nodes)
        assert back.edges == g.edges
        assert back.isolated() == ("d",)

    def test_dot_contains_edges_and_ranks(self):
        g = Dag(("a", "b"), [("a", "b")])
        dot = g.to_dot(ranks={"a": 0, "b": 1})
        assert '"a" -> "b";' in dot
        assert "rank=same" in dot

    def test_v_structures(self):
        g = Dag(("a", "b", "c"), [("a", "c"), ("b", "c")])
        assert g.v_structures() == {(frozenset({"a", "b"}), "c")}
        shielded = Dag(("a", "b", "c"), [("a", "c"), ("b", "c"), ("a", "b")])
        assert shielded.v_structures() == frozenset()

    def test_markov_equivalence_of_chain_and_reversal(self):
        chain = Dag(("a", "b", "c"), [("a", "b"), ("b", "c")])
        reverse = Dag(("a", "b", "c"), [("c", "b"), ("b", "a")])
        collider = Dag(("a", "b", "c"), [("a", "b"), ("c", "b")])
        assert chain.markov_equivalent(reverse)
        assert not chain.markov_equivalent(collider)


@st.composite
def digraphs(draw, acyclic=False):
    """(nodes, edges) of a random directed graph without self-loops; with
    ``acyclic`` every edge follows a random node order."""
    nodes = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    order = draw(st.permutations(nodes))
    pairs = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(len(order))
        if (i < j if acyclic else i != j)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return nodes, edges


class TestGraphWalks:
    def test_reachable_includes_the_starts(self):
        step = {"a": ["b"], "b": ["c"], "c": ["b"], "d": ["a"]}.__getitem__
        assert reachable(["a"], step) == {"a", "b", "c"}
        assert reachable([], step) == set()

    @settings(max_examples=100, deadline=None)
    @given(digraphs(acyclic=True))
    def test_descendants_and_ancestors_match_networkx(self, graph):
        nx = pytest.importorskip("networkx")
        nodes, edges = graph
        g, ref = Dag(nodes, edges), nx.DiGraph(edges)
        ref.add_nodes_from(nodes)
        for n in nodes:
            assert g.descendants(n) == nx.descendants(ref, n)
            assert g.ancestors(n) == nx.ancestors(ref, n)
            assert all((m in g.descendants(n)) == nx.has_path(ref, n, m) for m in nodes if m != n)
        assert cycle_edges(edges) == frozenset()

    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_cycle_edges_are_the_edges_inside_strong_components(self, graph):
        nx = pytest.importorskip("networkx")
        nodes, edges = graph
        ref = nx.DiGraph(edges)
        ref.add_nodes_from(nodes)
        component = {v: i for i, scc in enumerate(nx.strongly_connected_components(ref)) for v in scc}
        # without self-loops, an edge with both ends in one component lies
        # in a component of more than one node
        inside = {(p, c) for p, c in edges if component[p] == component[c]}
        assert cycle_edges(edges) == inside
        assert (not inside) == nx.is_directed_acyclic_graph(ref)
        if inside:
            with pytest.raises(ValueError, match="cycle"):
                Dag(nodes, edges)


def resorting_kahn(g):
    """Kahn's algorithm with a ready list re-sorted by declared index at every step."""
    indeg = {n: len(g.parents(n)) for n in g.nodes}
    ready = [n for n in g.nodes if not indeg[n]]
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        newly = []
        for child in g.children(node):
            indeg[child] -= 1
            if not indeg[child]:
                newly.append(child)
        if newly:
            ready = sorted(ready + newly, key=g.nodes.index)
    return tuple(order)


class TestTopologicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(digraphs(acyclic=True))
    def test_heap_order_equals_the_resorting_reference(self, graph):
        g = Dag(*graph)
        assert g.topological_order() == resorting_kahn(g)
        # ordered once, at construction
        assert g.topological_order() is g.topological_order()


class TestTopologicalLevels:
    def test_chain(self):
        g = Dag(("A", "B", "C"), [("A", "B"), ("B", "C")])
        assert topological_levels(g) == {"A": 0, "B": 1, "C": 2}

    def test_edgeless(self):
        g = Dag(("A", "B", "C"), [])
        assert topological_levels(g) == {"A": 0, "B": 0, "C": 0}

    def test_diamond_max_parent_rule(self):
        g = Dag(("A", "B", "C", "D"), [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        assert topological_levels(g) == {"A": 0, "B": 1, "C": 1, "D": 2}

    def test_levels_respect_edges_on_random_dags(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            bn = random_network(rng, int(rng.integers(2, 8)))
            levels = topological_levels(bn.dag)
            for p, c in bn.dag.edges:
                assert levels[c] > levels[p]


class TestFitCpts:
    def test_single_node_ml(self):
        data = matrix(["x"], [[1], [1], [0], [1]])
        bn = fit_cpts(Dag(("x",), []), data, ess=0.0)
        assert bn.cpt("x").p1[0] == pytest.approx(0.75)

    def test_unseen_assignment_prior_mean(self):
        data = matrix(["p", "x"], [[1, 1], [1, 0]])
        bn = fit_cpts(Dag(("p", "x"), [("p", "x")]), data, ess=1.0)
        # p=0 never observed -> (0 + 0.5) / (0 + 1) = 0.5
        assert bn.cpt("x").p1[0] == pytest.approx(0.5)

    def test_hand_counts_with_parent(self):
        rows = [[1, 1]] * 3 + [[1, 0]] * 1 + [[0, 0]] * 4
        data = matrix(["p", "x"], rows)
        bn = fit_cpts(Dag(("p", "x"), [("p", "x")]), data, ess=0.0)
        assert bn.cpt("x").p1[1] == pytest.approx(0.75)
        assert bn.cpt("x").p1[0] == pytest.approx(0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 80), st.sampled_from([0.0, 1.0]))
    def test_matches_row_by_row_counts(self, seed, d, n, ess):
        # the tables count (parents, node) over the distinct rows of columns the data
        # may order differently; a per-row count must give the same floats
        rng = np.random.default_rng(seed)
        truth = random_network(rng, d)
        sampled = sample(truth, n, seed=seed)
        perm = rng.permutation(d)
        data = EventMatrix(tuple(sampled.columns[j] for j in perm), sampled.values[:, perm])
        bn = fit_cpts(truth.dag, data, ess=ess)
        rows = [dict(zip(data.columns, r)) for r in data.values.tolist()]
        for node in truth.dag.nodes:
            parents = truth.dag.parents(node)
            expected = []
            for bits in itertools.product((0, 1), repeat=len(parents)):  # first parent high
                matched = [r[node] for r in rows if all(r[p] == b for p, b in zip(parents, bits))]
                denom = len(matched) + ess
                expected.append((sum(matched) + ess / 2.0) / denom if denom > 0 else 0.5)
            assert bn.cpt(node).p1.tolist() == expected

    def test_rejects_missing_cells(self):
        data = EventMatrix(("x",), np.array([[-1]], dtype=np.int8))
        with pytest.raises(ValueError, match="missing"):
            fit_cpts(Dag(("x",), []), data)

    def test_rejects_absent_node(self):
        data = matrix(["x"], [[1]])
        with pytest.raises(KeyError):
            fit_cpts(Dag(("x", "y"), []), data)


class TestLogLikelihood:
    def test_closed_form(self):
        bn = DiscreteBayesNet(Dag(("x",), []), (Cpt("x", (), np.array([0.5])),))
        data = matrix(["x"], [[1], [0], [1], [0]])
        assert log_likelihood(bn, data) == pytest.approx(4 * math.log(0.5), abs=1e-12)

    def test_perfect_model_scores_zero(self):
        bn = DiscreteBayesNet(Dag(("x",), []), (Cpt("x", (), np.array([1.0])),))
        data = matrix(["x"], [[1], [1]])
        assert log_likelihood(bn, data) == 0.0

    def test_floor_replaces_zero(self):
        bn = DiscreteBayesNet(Dag(("x",), []), (Cpt("x", (), np.array([1.0])),))
        data = matrix(["x"], [[0]])
        assert log_likelihood(bn, data) == pytest.approx(math.log(1e-9))


class TestBic:
    def test_single_node_closed_form(self):
        data = matrix(["x"], [[1], [1], [0], [0]])
        expected = 4 * math.log(0.5) - 0.5 * math.log(4)
        assert bic_score(Dag(("x",), []), data) == pytest.approx(expected, abs=1e-12)

    def test_useless_edge_hurts_in_expectation(self):
        rng = np.random.default_rng(21)
        deltas = []
        for _ in range(50):
            values = rng.integers(0, 2, size=(1000, 2)).astype(np.int8)
            data = EventMatrix(("a", "b"), values)
            empty = bic_score(Dag(("a", "b"), []), data)
            edge = bic_score(Dag(("a", "b"), [("a", "b")]), data)
            deltas.append(edge - empty)
        assert np.mean(deltas) < 0

    def test_chain_beats_empty_on_chain_data(self, chain_ab):
        data = sample(chain_ab, 5000, seed=3)
        chain = bic_score(chain_ab.dag, data)
        empty = bic_score(Dag(("a", "b"), []), data)
        assert chain > empty

    def test_decomposability(self):
        rng = np.random.default_rng(9)
        bn = random_network(rng, 5)
        data = sample(bn, 400, seed=2)
        total = bic_score(bn.dag, data)
        local_sum = sum(local_bic(data, n, bn.dag.parents(n)) for n in bn.dag.nodes)
        assert total == pytest.approx(local_sum, abs=1e-10)
        # single-edge move deltas match full rescoring
        g = bn.dag
        some_edge = sorted(g.edges)[0] if g.edges else None
        if some_edge:
            removed = g.with_edges(remove=[some_edge])
            full_delta = bic_score(removed, data) - total
            p, c = some_edge
            local_delta = local_bic(data, c, removed.parents(c)) - local_bic(data, c, g.parents(c))
            assert full_delta == pytest.approx(local_delta, abs=1e-10)

    def test_local_bic_rejects_missing_cells_in_the_columns_it_reads(self):
        data = matrix(["a", "b", "c"], [[0, 1, 1], [1, -1, 0], [1, 0, -1]])
        for node, parents in (("b", ()), ("c", ("a",)), ("a", ("b",))):
            with pytest.raises(ValueError, match="data contains missing cells"):
                local_bic(data, node, parents)
        complete = matrix(["a", "b"], [[0, 1], [1, 1], [1, 0]])
        assert local_bic(data, "a", ()) == local_bic(complete, "a", ())


def local_bic_rows(values, node_col, parent_cols):
    """Textbook local BIC: count the rows one at a time, then add the n1 terms, then the n0 terms."""
    k = len(parent_cols)
    n1, n = [0] * (1 << k), [0] * (1 << k)
    for row in values.tolist():
        a = 0
        for j in parent_cols:
            a = 2 * a + row[j]
        n[a] += 1
        n1[a] += row[node_col]
    n1, n = np.array(n1, dtype=float), np.array(n, dtype=float)
    ll = 0.0
    for cnt in (n1, n - n1):
        nz = (n > 0) & (cnt > 0)
        ll += float((cnt[nz] * np.log(cnt[nz] / n[nz])).sum())
    return ll - 0.5 * (1 << k) * np.log(len(values))


@st.composite
def bic_cases(draw):
    """Rows drawn from a few distinct patterns (heavy duplication), a sixth column
    with missing cells that no family reads, and families of 0-4 parents."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_patterns = draw(st.integers(1, 40))
    patterns = rng.integers(0, 2, size=(n_patterns, 5))
    values = patterns[rng.integers(0, n_patterns, size=draw(st.integers(1, 400)))]
    spare = rng.integers(-1, 2, size=(len(values), 1))
    data = EventMatrix(("a", "b", "c", "d", "e", "m"), np.hstack([values, spare]).astype(np.int8))
    families = []
    for _ in range(draw(st.integers(1, 12))):
        node = draw(st.sampled_from("abcde"))
        parents = draw(st.lists(st.sampled_from([v for v in "abcde" if v != node]), max_size=4, unique=True))
        families.append((node, tuple(parents)))
    return data, families


class TestStackedLocalBic:
    """``local_bics`` counts many families in stacked passes over the distinct
    rows; every score keeps the bits of the one-family, row-by-row form."""

    @settings(max_examples=150, deadline=None)
    @given(case=bic_cases())
    def test_bit_identical_to_row_by_row_counts(self, case):
        data, families = case
        scores = local_bics(data, families)
        for (node, parents), score in zip(families, scores):
            cols = [data.column_index(p) for p in parents]
            expected = local_bic_rows(data.values, data.column_index(node), cols)
            assert float(score).hex() == float(expected).hex()
            assert float(local_bic(data, node, parents)).hex() == float(expected).hex()

    def test_families_with_many_nonzero_cells(self):
        # every assignment of five columns, each repeated 1-6 times: a four-parent
        # family has 16 nonzero n1 and 16 nonzero n0 cells, so numpy sums pairwise
        rng = np.random.default_rng(4)
        patterns = np.array(list(itertools.product((0, 1), repeat=5)))
        values = np.repeat(patterns, rng.integers(1, 7, size=len(patterns)), axis=0)
        data = EventMatrix(tuple("abcde"), values.astype(np.int8))
        families = [(n, tuple(p for p in "abcde" if p != n)) for n in "abcde"]
        families += [("a", ("c", "b")), ("e", ("d",)), ("b", ())]
        for (node, parents), score in zip(families, local_bics(data, families)):
            expected = local_bic_rows(values, data.column_index(node), [data.column_index(p) for p in parents])
            assert float(score).hex() == float(expected).hex()

    def test_bic_score_adds_the_local_scores_in_node_order(self):
        rng = np.random.default_rng(12)
        bn = random_network(rng, 6)
        data = sample(bn, 300, seed=5)
        expected = 0
        for n in bn.dag.nodes:
            cols = [data.column_index(p) for p in bn.dag.parents(n)]
            expected += local_bic_rows(data.values, data.column_index(n), cols)
        assert float(bic_score(bn.dag, data)).hex() == float(expected).hex()


class TestQuery:
    def test_chain_marginal(self, chain_ab):
        assert query(chain_ab, "b") == pytest.approx(0.55, abs=1e-12)

    def test_target_in_evidence(self, chain_ab):
        assert query(chain_ab, "a", {"a": 1}) == 1.0
        assert query(chain_ab, "a", {"a": 0}) == 0.0

    def test_root_prior(self, chain_ab):
        assert query(chain_ab, "a") == pytest.approx(0.5)

    def test_zero_probability_evidence(self):
        bn = DiscreteBayesNet(
            Dag(("a", "b"), [("a", "b")]),
            (Cpt("a", (), np.array([1.0])), Cpt("b", ("a",), np.array([0.5, 0.5]))),
        )
        with pytest.raises(ZeroProbabilityEvidence):
            query(bn, "b", {"a": 0})

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            bn = random_network(rng, int(rng.integers(2, 10)))
            nodes = list(bn.dag.nodes)
            target = nodes[int(rng.integers(len(nodes)))]
            evidence = {}
            for n in nodes:
                if n != target and rng.random() < 0.4:
                    evidence[n] = int(rng.integers(0, 2))
            try:
                expected = brute_force_conditional(bn, target, evidence)
            except ZeroDivisionError:
                continue
            assert query(bn, target, evidence) == pytest.approx(expected, abs=1e-12)

    def test_long_chain_past_einsum_label_cap(self):
        # 60-node chain: more variables than einsum's 52 labels and 2^60
        # joint states; the oracle is the forward marginal recursion
        d = 60
        labels = tuple(f"v{i}" for i in range(d))
        dag = Dag(labels, [(labels[i], labels[i + 1]) for i in range(d - 1)])
        cpts = [Cpt(labels[0], (), np.array([0.3]))]
        cpts += [
            Cpt(labels[i + 1], (labels[i],), np.array([0.2, 0.9]))
            for i in range(d - 1)
        ]
        bn = DiscreteBayesNet(dag, tuple(cpts))

        p = 1.0  # P(v_k = 1 | v0 = 1) by forward recursion
        for _ in range(d - 1):
            p = 0.9 * p + 0.2 * (1 - p)
        assert query(bn, labels[-1], {labels[0]: 1}) == pytest.approx(p, abs=1e-12)

        marginal = 0.3
        for _ in range(d - 1):
            marginal = 0.9 * marginal + 0.2 * (1 - marginal)
        assert query(bn, labels[-1]) == pytest.approx(marginal, abs=1e-12)

        pair = bn.marginal((labels[-1], labels[0]))
        assert pair.sum() == pytest.approx(1.0, abs=1e-12)
        assert pair[1, 1] == pytest.approx(0.3 * p, abs=1e-12)

    def test_joint_distribution_sums_to_one(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            bn = random_network(rng, int(rng.integers(2, 8)))
            assert bn.prob({}) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_brute_force_on_deterministic_tables(self):
        # some CPT entries pinned to 0 or 1, so evidence of probability 0
        # occurs and must raise exactly where brute force divides by zero
        rng = np.random.default_rng(33)
        zero_evidence = 0
        for _ in range(40):
            bn = random_network(rng, int(rng.integers(2, 12)))
            cpts = []
            for c in bn.cpts:
                p1 = c.p1.copy()
                pinned = rng.random(p1.shape) < 0.4
                p1[pinned] = rng.integers(0, 2, size=int(pinned.sum()))
                cpts.append(Cpt(c.node, c.parents, p1))
            bn = DiscreteBayesNet(bn.dag, tuple(cpts))
            nodes = list(bn.dag.nodes)
            target = nodes[int(rng.integers(len(nodes)))]
            evidence = {
                n: int(rng.integers(0, 2))
                for n in nodes
                if n != target and rng.random() < 0.3
            }
            try:
                expected = brute_force_conditional(bn, target, evidence)
            except ZeroDivisionError:
                zero_evidence += 1
                with pytest.raises(ZeroProbabilityEvidence):
                    query(bn, target, evidence)
                continue
            assert query(bn, target, evidence) == pytest.approx(expected, abs=1e-12)
        assert zero_evidence > 0

    def test_rejects_unknown_label(self, chain_ab):
        with pytest.raises(KeyError):
            query(chain_ab, "b", {"nope": 1})


class TestMarginal:
    def test_axes_follow_argument_order(self, chain_ab):
        ab = chain_ab.marginal(("a", "b"))
        ba = chain_ab.marginal(("b", "a"))
        assert ab.shape == ba.shape == (2, 2)
        assert ab[1, 0] == pytest.approx(0.5 * 0.1, abs=1e-15)  # a=1, b=0
        assert ab[0, 1] == pytest.approx(0.5 * 0.2, abs=1e-15)  # a=0, b=1
        assert np.array_equal(ba, ab.T)

    def test_sums_to_one(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            bn = random_network(rng, int(rng.integers(2, 9)))
            nodes = list(bn.dag.nodes)
            k = int(rng.integers(1, len(nodes) + 1))
            subset = tuple(str(n) for n in rng.choice(nodes, size=k, replace=False))
            table = bn.marginal(subset)
            assert table.shape == (2,) * k
            assert table.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(bn.marginal(())) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            bn = random_network(rng, int(rng.integers(2, 9)))
            nodes = list(bn.dag.nodes)
            k = int(rng.integers(1, min(4, len(nodes)) + 1))
            subset = tuple(str(n) for n in rng.choice(nodes, size=k, replace=False))
            table = bn.marginal(subset)
            for values in itertools.product((0, 1), repeat=k):
                assignment = dict(zip(subset, values))
                expected = brute_force_probability(bn, assignment)
                assert table[values] == pytest.approx(expected, abs=1e-12)
                assert bn.prob(assignment) == pytest.approx(expected, abs=1e-12)

    def test_rejects_repeated_and_unknown_nodes(self, chain_ab):
        with pytest.raises(ValueError, match="distinct"):
            chain_ab.marginal(("a", "a"))
        with pytest.raises(KeyError):
            chain_ab.marginal(("nope",))

    def test_cpt_table_is_read_only(self, chain_ab):
        table = chain_ab.cpt("b").table
        assert table.shape == (2, 2)
        assert table[1, 1] == 0.9 and table[0, 1] == 0.2
        assert not table.flags.writeable

    @pytest.mark.parametrize("p", [np.nan, -0.1, 1.1])
    def test_cpt_rejects_a_probability_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Cpt("a", (), np.array([p]))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Cpt("b", ("a",), np.array([0.5, p]))


class TestDSeparation:
    def test_chain(self):
        g = Dag(("A", "B", "C"), [("A", "B"), ("B", "C")])
        assert d_separated(g, "A", "C", {"B"})
        assert not d_separated(g, "A", "C", set())

    def test_collider(self):
        g = Dag(("A", "B", "C"), [("A", "C"), ("B", "C")])
        assert d_separated(g, "A", "B", set())
        assert not d_separated(g, "A", "B", {"C"})

    def test_collider_descendant_opens(self):
        g = Dag(("A", "B", "C", "D"), [("A", "C"), ("B", "C"), ("C", "D")])
        assert not d_separated(g, "A", "B", {"D"})

    def test_fork(self):
        g = Dag(("A", "B", "Z"), [("Z", "A"), ("Z", "B")])
        assert d_separated(g, "A", "B", {"Z"})
        assert not d_separated(g, "A", "B", set())

    def test_unknown_label(self):
        g = Dag(("A", "B"), [])
        with pytest.raises(KeyError):
            d_separated(g, "A", "X", set())

    def test_matches_networkx_oracle(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(23)
        for _ in range(200):
            bn = random_network(rng, int(rng.integers(3, 8)))
            g = bn.dag
            nxg = nx.DiGraph()
            nxg.add_nodes_from(g.nodes)
            nxg.add_edges_from(g.edges)
            nodes = list(g.nodes)
            x, y = rng.choice(nodes, size=2, replace=False)
            z = {n for n in nodes if n not in (x, y) and rng.random() < 0.4}
            assert d_separated(g, x, y, z) == nx.is_d_separator(nxg, {x}, {y}, z)

    def test_dsep_implies_exact_ci(self):
        # d-separation must imply conditional independence in every
        # parameterization; checked numerically on random CPTs
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 20:
            bn = random_network(rng, 5)
            nodes = list(bn.dag.nodes)
            x, y = rng.choice(nodes, size=2, replace=False)
            z = {n for n in nodes if n not in (x, y) and rng.random() < 0.4}
            if not d_separated(bn.dag, x, y, z):
                continue
            checked += 1
            for z_vals in itertools.product((0, 1), repeat=len(z)):
                evidence = dict(zip(sorted(z), z_vals))
                try:
                    p_y = brute_force_conditional(bn, y, evidence)
                    p_y_given_x1 = brute_force_conditional(bn, y, {**evidence, x: 1})
                    p_y_given_x0 = brute_force_conditional(bn, y, {**evidence, x: 0})
                except ZeroDivisionError:
                    continue
                assert abs(p_y_given_x1 - p_y) < 1e-10
                assert abs(p_y_given_x0 - p_y) < 1e-10


class TestLocalMarkov:
    def test_chain_single_statement(self):
        g = Dag(("A", "B", "C"), [("A", "B"), ("B", "C")])
        stmts = local_markov_statements(g)
        assert len(stmts) == 1
        assert stmts[0].canonical() == (frozenset({"A", "C"}), frozenset({"B"}))

    def test_complete_dag_empty(self):
        g = Dag(("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "c")])
        assert local_markov_statements(g) == []

    def test_edgeless_marginal_pairs(self):
        g = Dag(("a", "b", "c"), [])
        stmts = local_markov_statements(g)
        assert len(stmts) == 3
        assert all(s.z == frozenset() for s in stmts)


class TestSample:
    def test_deterministic(self, chain_ab):
        a = sample(chain_ab, 50, seed=9)
        b = sample(chain_ab, 50, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_degenerate_probability(self):
        bn = DiscreteBayesNet(Dag(("x",), []), (Cpt("x", (), np.array([1.0])),))
        assert sample(bn, 10, seed=0).values.tolist() == [[1]] * 10

    def test_chain_marginal_converges(self, chain_ab):
        data = sample(chain_ab, 100_000, seed=1)
        assert abs(float((data.column("b") == 1).mean()) - 0.55) < 0.01
