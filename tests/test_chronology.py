import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from causalchron import dataset
from causalchron._rng import spawn_seed
from causalchron.bayesnet import CiStatement, Dag, local_markov_statements, sample
from causalchron.causal import CausalRelationTable, RelationRow
from causalchron.chronology import (
    ChronologyTree,
    FalsificationVerdict,
    build_chronology,
    compare_models,
    consensus_edges,
    deterministic_chronology,
    falsify,
    scores_to_csv,
    strong_causal_relations,
)
from causalchron.dataset import MISSING, EventMatrix
from causalchron.discovery import citests
from causalchron.discovery.citests import ci_test_g2
from causalchron.pipeline import preset_network


def row(treatment, outcome, value, validated=True):
    return RelationRow(
        treatment=treatment,
        outcome=outcome,
        estimand_kind="ACE",
        value=value,
        adjustment_set=(),
        mediators=(),
        validated=validated,
        nie=0.0,
    )


def table(dag, rows):
    return CausalRelationTable(dag, tuple(rows))


class TestStrongRelations:
    def test_keeps_maximum_per_outcome(self):
        g = Dag(("a", "b", "y"), [("a", "y"), ("b", "y")])
        t = table(g, [row("a", "y", 0.5), row("b", "y", 0.3)])
        strong = strong_causal_relations(t)
        assert [(r.treatment, r.outcome) for r in strong] == [("a", "y")]

    def test_tie_breaks_on_source_level(self):
        g = Dag(("a", "b", "y"), [("a", "b"), ("a", "y"), ("b", "y")])
        t = table(g, [row("b", "y", 0.4), row("a", "y", 0.4)])
        strong = strong_causal_relations(t)
        # level(a)=0 < level(b)=1
        assert [(r.treatment, r.outcome) for r in strong] == [("a", "y")]

    def test_level_tie_breaks_lexicographically(self):
        g = Dag(("a", "b", "y"), [("a", "y"), ("b", "y")])
        t = table(g, [row("b", "y", 0.4), row("a", "y", 0.4)])
        assert strong_causal_relations(t)[0].treatment == "a"

    def test_unvalidated_rows_ignored(self):
        g = Dag(("a", "y"), [("a", "y")])
        t = table(g, [row("a", "y", -0.2, validated=False)])
        assert strong_causal_relations(t) == ()

    def test_empty_table(self):
        g = Dag(("a", "y"), [("a", "y")])
        assert strong_causal_relations(table(g, [])) == ()


class TestBuildChronology:
    def test_chain_passthrough(self):
        g = Dag(("a", "b", "c"), [("a", "b"), ("b", "c")])
        strong = (row("a", "b", 0.6), row("b", "c", 0.5))
        tree = build_chronology(g, strong)
        assert tree.edges == frozenset({("a", "b"), ("b", "c")})
        assert tree.levels == {"a": 0, "b": 1, "c": 2}
        assert tree.isolated == ()

    def test_diamond_example_c_isolated_level_zero(self):
        g = Dag(("a", "b", "c", "d"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        strong = (row("a", "b", 0.7), row("b", "d", 0.6))
        tree = build_chronology(g, strong)
        assert tree.edges == frozenset({("a", "b"), ("b", "d")})
        assert tree.isolated == ("c",)
        assert tree.levels["c"] == 0
        assert tree.levels == {"a": 0, "b": 1, "d": 2, "c": 0}

    def test_no_strong_relations_all_isolated(self):
        g = Dag(("a", "b", "c"), [("a", "b"), ("b", "c")])
        tree = build_chronology(g, ())
        assert tree.edges == frozenset()
        assert set(tree.isolated) == {"a", "b", "c"}
        assert all(tree.levels[n] == 0 for n in tree.levels)

    def test_rejects_edges_outside_graph(self):
        g = Dag(("a", "b"), [("a", "b")])
        with pytest.raises(ValueError, match="not an edge"):
            build_chronology(g, (row("b", "a", 0.5),))

    def test_every_source_node_appears_exactly_once(self):
        g = Dag(("a", "b", "c", "d"), [("a", "b"), ("a", "c"), ("b", "d")])
        strong = (row("a", "c", 0.9),)
        tree = build_chronology(g, strong)
        covered = set(tree.levels)
        assert covered == set(g.nodes)
        in_tree = {n for e in tree.edges for n in e}
        assert set(tree.isolated) == covered - in_tree


class TestChronologyTreeInvariants:
    def test_rejects_double_parent(self):
        with pytest.raises(ValueError, match="more than one incoming"):
            ChronologyTree(
                levels={"a": 0, "b": 0, "c": 1},
                edges=frozenset({("a", "c"), ("b", "c")}),
                isolated=(),
            )

    def test_rejects_inconsistent_levels(self):
        with pytest.raises(ValueError, match="levels inconsistent"):
            ChronologyTree(
                levels={"a": 1, "b": 0},
                edges=frozenset({("a", "b")}),
                isolated=(),
            )

    def test_fuzzed_construction_always_satisfies_invariants(self):
        rng = np.random.default_rng(0)
        labels = tuple("abcdefg")
        for _ in range(300):
            d = int(rng.integers(2, len(labels) + 1))
            nodes = labels[:d]
            order = rng.permutation(d)
            edges = [
                (nodes[order[i]], nodes[order[j]])
                for i in range(d)
                for j in range(i + 1, d)
                if rng.random() < 0.4
            ]
            g = Dag(nodes, edges)
            rows = [
                row(p, c, float(rng.uniform(-1, 1)), validated=bool(rng.random() < 0.7))
                for p, c in g.sorted_edges()
            ]
            tree = build_chronology(g, strong_causal_relations(table(g, rows)))
            indeg: dict[str, int] = {}
            for p, c in tree.edges:
                indeg[c] = indeg.get(c, 0) + 1
            assert all(v <= 1 for v in indeg.values())
            assert set(tree.levels) == set(nodes)
            Dag(nodes, tree.edges)  # acyclic by construction

    def test_dot_encodes_levels_as_ranks(self):
        tree = ChronologyTree(
            levels={"a": 0, "b": 1}, edges=frozenset({("a", "b")}), isolated=()
        )
        assert "rank=same" in tree.to_dot()


class TestDeterministicChronology:
    def test_table2_orientation(self, table2_matrix):
        baseline = deterministic_chronology(table2_matrix)
        # n10 = 39 < n01 = 144, so the arrow runs 116785 -> 116494
        assert baseline.dag.edges == frozenset({("ndhD_116785", "ndhD_116494")})
        assert baseline.groups == ()
        assert baseline.isolated == ()

    def test_equal_counts_merge_into_group(self):
        rows = [[1, 1]] * 60 + [[0, 0]] * 60 + [[1, 0]] * 5 + [[0, 1]] * 5
        m = EventMatrix(("a", "b"), np.array(rows, dtype=np.int8))
        baseline = deterministic_chronology(m)
        assert baseline.groups == (frozenset({"a", "b"}),)
        assert "a+b" in baseline.dag.nodes
        assert baseline.dag.edges == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 7),
        n_base=st.integers(1, 4),
        n=st.integers(20, 200),
        noise=st.sampled_from([0.02, 0.2]),
        missing=st.sampled_from([0.0, 0.1]),
    )
    def test_groups_are_the_components_of_the_tie_graph(self, seed, d, n_base, n, noise, missing):
        nx = pytest.importorskip("networkx")
        # columns copied from a few base columns tie; copies with flipped cells tie rarely
        rng = np.random.default_rng(seed)
        base = rng.random((n, n_base)) < rng.uniform(0.2, 0.8, size=n_base)
        flips = (rng.random((n, d)) < noise) & (rng.random(d) < 0.3)
        values = (base[:, rng.integers(0, n_base, size=d)] ^ flips).astype(np.int8)
        values[rng.random((n, d)) < missing] = MISSING
        labels = tuple(rng.permutation([f"e{j}" for j in range(d)]).tolist())
        baseline = deterministic_chronology(EventMatrix(labels, values))

        ties = nx.Graph()
        ties.add_nodes_from(labels)
        ties.add_edges_from(
            (t.a, t.b) for t in (dec.table for dec in baseline.decisions if dec.dependent) if t.n10 == t.n01
        )
        components = [frozenset(c) for c in nx.connected_components(ties)]
        merged = sorted((c for c in components if len(c) > 1), key=min)
        event(f"{len(merged)} simultaneity group(s)")
        assert baseline.groups == tuple(merged)
        group_of = {v: "+".join(sorted(c)) for c in components for v in c}
        assert baseline.dag.nodes == tuple(dict.fromkeys(group_of[v] for v in labels))

    def test_independent_columns_isolated(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 2, size=(400, 2)).astype(np.int8)
        m = EventMatrix(("a", "b"), values)
        baseline = deterministic_chronology(m)
        assert baseline.dag.edges == frozenset()
        assert set(baseline.isolated) == {"a", "b"}

    def test_row_permutation_invariance(self, table2_matrix):
        rng = np.random.default_rng(2)
        perm = rng.permutation(table2_matrix.n_rows)
        shuffled = EventMatrix(table2_matrix.columns, table2_matrix.values[perm])
        a = deterministic_chronology(table2_matrix)
        b = deterministic_chronology(shuffled)
        assert a.dag.edges == b.dag.edges
        assert a.groups == b.groups

    def test_bonferroni_option(self, table2_matrix):
        baseline = deterministic_chronology(table2_matrix, correction="bonferroni")
        assert baseline.dag.edges == frozenset({("ndhD_116785", "ndhD_116494")})

    def test_cycle_repair_drops_smallest_margin(self):
        # rock-paper-scissors orientations: a->b, b->c, c->a with the c->a
        # margin smallest; the repair must break the cycle there and warn
        def pair_block(i, j, n10, n01, n11, n00, d=3):
            rows = []
            for counts, pattern in ((n11, (1, 1)), (n10, (1, 0)), (n01, (0, 1)), (n00, (0, 0))):
                for _ in range(counts):
                    r = [-1] * d
                    r[i], r[j] = pattern
                    rows.append(r)
            return rows

        rows = []
        rows += pair_block(0, 1, n10=40, n01=10, n11=60, n00=60)
        rows += pair_block(1, 2, n10=40, n01=10, n11=60, n00=60)
        rows += pair_block(2, 0, n10=25, n01=10, n11=60, n00=60)
        m = EventMatrix(("a", "b", "c"), np.array(rows, dtype=np.int8))
        baseline = deterministic_chronology(m)
        assert baseline.warnings
        assert baseline.dag.edges == frozenset({("a", "b"), ("b", "c")})

    def test_json_export(self, table2_matrix):
        doc = json.loads(deterministic_chronology(table2_matrix).to_json())
        assert doc["edges"] == [["ndhD_116785", "ndhD_116494"]]
        assert doc["pairs"][0]["n10"] == 39


class TestCompareModels:
    def test_identical_dags_identical_scores(self, chain_ab):
        data = sample(chain_ab, 2000, seed=0)
        scores = compare_models([("m1", chain_ab.dag), ("m2", chain_ab.dag)], data)
        assert scores[0].bic == scores[1].bic
        assert scores[0].log_likelihood == scores[1].log_likelihood

    def test_chain_beats_empty_on_chain_data(self, chain_ab):
        data = sample(chain_ab, 5000, seed=1)
        empty = Dag(("a", "b"), [])
        scores = compare_models([("empty", empty), ("chain", chain_ab.dag)], data)
        assert scores[0].name == "chain"
        assert all(s.bic < 0 and s.log_likelihood < 0 for s in scores)

    def test_true_model_beats_deleted_edge(self):
        net = preset_network("chain-4")
        wins = 0
        for s in range(5):
            data = sample(net, 10000, seed=40 + s)
            pruned = net.dag.with_edges(remove=[("x1", "x2")])
            scores = {m.name: m for m in compare_models([("full", net.dag), ("pruned", pruned)], data)}
            wins += scores["full"].log_likelihood > scores["pruned"].log_likelihood
        assert wins == 5

    def test_node_mismatch_rejected(self, chain_ab):
        data = sample(chain_ab, 100, seed=2)
        with pytest.raises(ValueError, match="does not match"):
            compare_models([("bad", Dag(("a",), []))], data)

    def test_csv_layout(self, chain_ab):
        data = sample(chain_ab, 500, seed=3)
        text = scores_to_csv(compare_models([("m", chain_ab.dag)], data))
        lines = text.splitlines()
        assert lines[0] == "name,bic,log_likelihood"
        assert lines[1].startswith("m,")


class TestFalsify:
    def test_complete_dag_not_falsifiable(self):
        g = Dag(("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "c")])
        net = preset_network("chain-3")
        data = sample(net, 1000, seed=0)
        data = EventMatrix(("a", "b", "c"), data.values)
        verdict = falsify(g, data, seed=0)
        assert not verdict.falsifiable
        assert verdict.n_statements == 0

    def test_true_chain_survives(self):
        net = preset_network("chain-5")
        data = sample(net, 10000, seed=1)
        verdict = falsify(net.dag, data, seed=1)
        assert verdict.falsifiable
        assert not verdict.falsified

    def test_negative_perms_rejected(self):
        net = preset_network("chain-3")
        with pytest.raises(ValueError, match="n_perm must be non-negative"):
            falsify(net.dag, sample(net, 100, seed=0), n_perm=-1)

    def test_misoriented_collider_rejected(self):
        net = preset_network("chain-5")
        data = sample(net, 10000, seed=2)
        wrong = Dag(
            net.dag.nodes,
            [("x1", "x2"), ("x2", "x3"), ("x5", "x4"), ("x4", "x3")],
        )
        assert falsify(wrong, data, seed=2).falsified

    def test_deterministic(self):
        net = preset_network("chain-4")
        data = sample(net, 3000, seed=3)
        a = falsify(net.dag, data, seed=9)
        b = falsify(net.dag, data, seed=9)
        assert a == b

    def test_p_value_bounds(self):
        net = preset_network("chain-4")
        data = sample(net, 2000, seed=4)
        v = falsify(net.dag, data, n_perm=20, seed=5)
        assert 1 / 21 <= v.p_value <= 1.0
        assert len(v.baseline) == 20

    def test_json_schema(self):
        net = preset_network("chain-3")
        data = sample(net, 1000, seed=5)
        doc = json.loads(falsify(net.dag, data, seed=0).to_json())
        assert set(doc) == {
            "falsifiable",
            "falsified",
            "v_given",
            "baseline",
            "p_value",
            "n_statements",
            "n_equivalent",
        }


def reference_falsify(g, data, n_perm=20, alpha_ci=0.05, alpha_f=0.05, seed=0):
    """Reference: the per-statement loop with a verdict cache that the stacked pass replaced."""
    if n_perm < 0:
        raise ValueError("n_perm must be non-negative")
    statements = local_markov_statements(g)
    cache = {}

    def rejected(stmt) -> bool:
        key = stmt.canonical()
        if key not in cache:
            cache[key] = ci_test_g2(data, stmt.x, stmt.y, sorted(stmt.z)).p_value < alpha_ci
        return cache[key]

    v_given = sum(rejected(s) for s in statements)
    rng = np.random.default_rng(spawn_seed(seed, "falsify"))
    nodes = list(g.nodes)
    baseline = []
    favorable = 0
    n_equivalent = 0
    for _ in range(n_perm):
        perm = rng.permutation(len(nodes))
        mapping = {nodes[i]: nodes[perm[i]] for i in range(len(nodes))}
        relabeled = g.relabel(mapping)
        v_perm = sum(
            rejected(CiStatement(mapping[s.x], mapping[s.y], frozenset(mapping[v] for v in s.z))) for s in statements
        )
        baseline.append(v_perm)
        if relabeled.markov_equivalent(g):
            n_equivalent += 1
        elif v_perm <= v_given:
            favorable += 1
    p_value = (1 + favorable) / (n_perm + 1)
    falsifiable = bool(statements) and (n_equivalent / n_perm <= 0.5 if n_perm else False)
    falsified = p_value >= alpha_f or (bool(statements) and v_given == len(statements))
    return FalsificationVerdict(
        falsifiable=falsifiable,
        falsified=falsified,
        v_given=v_given,
        baseline=tuple(baseline),
        p_value=p_value,
        n_statements=len(statements),
        n_equivalent=n_equivalent,
    )


def verdict_or_error(fn, *args, **kwargs) -> str:
    try:
        return fn(*args, **kwargs).to_json()
    except ValueError as exc:
        return f"ValueError: {exc}"


# declared node order, label order and data column order all differ
LABEL_POOL = ("b", "a", "x10", "x2", "c", "B", "z", "y")


@st.composite
def falsify_cases(draw, missing: bool = False):
    """A random DAG over 2-7 nodes (empty and complete included) and small binary data."""
    d = draw(st.integers(2, 7))
    nodes = tuple(draw(st.permutations(LABEL_POOL))[:d])
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(d)
    edges = [
        (nodes[order[i]], nodes[order[j]])
        for i in range(d)
        for j in range(i + 1, d)
        if rng.random() < density
    ]
    # small n, so strata fall under MIN_STRATUM_ROWS and tests reach df 0
    n = draw(st.integers(1, 40))
    values = np.empty((n, d), dtype=np.int8)
    for j in range(d):
        kind = draw(st.sampled_from(["random", "copy", "zero", "one"]))
        if kind == "random" or j == 0:
            values[:, j] = rng.random(n) < rng.uniform(0.1, 0.9)
        elif kind == "copy":  # a noisy copy of an earlier column, so some statements are rejected
            values[:, j] = values[:, rng.integers(j)] ^ (rng.random(n) < 0.1)
        else:
            values[:, j] = kind == "one"
    if missing:
        values[rng.random((n, d)) < draw(st.sampled_from([0.05, 0.3]))] = MISSING
    columns = tuple(draw(st.permutations(nodes)))
    data = EventMatrix(columns, values[:, [nodes.index(c) for c in columns]])
    return Dag(nodes, edges), data


class TestFalsifyMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        case=falsify_cases(),
        n_perm=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        alpha_ci=st.sampled_from([0.0, 0.01, 0.05, 0.5, 1.0]),
    )
    def test_identical_verdicts(self, case, n_perm, seed, alpha_ci):
        g, data = case
        got = falsify(g, data, n_perm=n_perm, alpha_ci=alpha_ci, seed=seed)
        assert got.to_json() == reference_falsify(g, data, n_perm=n_perm, alpha_ci=alpha_ci, seed=seed).to_json()

    @settings(max_examples=100, deadline=None)
    @given(case=falsify_cases(missing=True), n_perm=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_identical_verdicts_or_errors_on_incomplete_data(self, case, n_perm, seed):
        g, data = case
        assert verdict_or_error(falsify, g, data, n_perm=n_perm, seed=seed) == verdict_or_error(
            reference_falsify, g, data, n_perm=n_perm, seed=seed
        )

    def test_one_statement_per_chunk(self, monkeypatch):
        net = preset_network("ndhb-like")
        data = sample(net, 400, seed=3)
        sparse = Dag(net.dag.nodes, sorted(net.dag.edges)[::2])
        calls = []
        g2 = citests._g2

        def one_chunk(counts):
            calls.append(len(counts))
            return g2(counts)

        monkeypatch.setattr(citests, "_g2", one_chunk)
        monkeypatch.setattr(dataset, "_COUNT_BUDGET_BYTES", 1)
        for g in (net.dag, sparse):
            got = falsify(g, data, n_perm=10, seed=4)
            assert got.to_json() == reference_falsify(g, data, n_perm=10, seed=4).to_json()
        assert calls and set(calls) == {1}


class TestFalsifyIncompleteData:
    def test_marginal_statements_count_pairwise_complete_rows(self):
        # the empty graph implies only marginal statements: (x, y) is rejected on its 60
        # complete rows; x and z are never observed together, so (x, z) is degenerate
        rows = [[1, 1, MISSING]] * 30 + [[0, 0, MISSING]] * 30 + [[MISSING, 1, 0]] * 5
        data = EventMatrix(("x", "y", "z"), np.array(rows, dtype=np.int8))
        g = Dag(("x", "y", "z"), [])
        verdict = falsify(g, data, n_perm=4, seed=0)
        assert (verdict.n_statements, verdict.v_given) == (3, 1)
        assert verdict.to_json() == reference_falsify(g, data, n_perm=4, seed=0).to_json()

    CHAIN = Dag(("a", "b", "c"), [("a", "b"), ("b", "c")])

    @staticmethod
    def chain_rows():
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, 200)
        b = np.where(rng.random(200) < 0.8, a, 1 - a)
        c = np.where(rng.random(200) < 0.8, b, 1 - b)
        return np.column_stack([a, b, c, rng.integers(0, 2, 200)]).astype(np.int8)

    def test_missing_cell_in_an_unread_column_changes_nothing(self):
        rows = self.chain_rows()
        rows[7, 3] = MISSING  # in a column no statement of the chain reads
        data = EventMatrix(("a", "b", "c", "d"), rows)
        without_d = EventMatrix(("a", "b", "c"), rows[:, :3])
        got = falsify(self.CHAIN, data, n_perm=6, seed=0)
        assert got == falsify(self.CHAIN, without_d, n_perm=6, seed=0)
        assert got.to_json() == reference_falsify(self.CHAIN, data, n_perm=6, seed=0).to_json()

    def test_missing_cell_in_a_read_column_still_raises(self):
        rows = self.chain_rows()
        rows[7, 2] = MISSING  # c, which the statement a _||_ c | b reads
        data = EventMatrix(("a", "b", "c", "d"), rows)
        with pytest.raises(ValueError, match="conditional tests require complete data"):
            falsify(self.CHAIN, data, n_perm=3, seed=0)


class TestConsensus:
    def test_identical_models_count_twice(self):
        g = Dag(("a", "b"), [("a", "b")])
        summary = consensus_edges([g, g])
        assert summary.directed_counts == {("a", "b"): 2}
        assert summary.consensus_directed == (("a", "b"),)

    def test_opposite_directions_agree_undirected(self):
        g1 = Dag(("a", "b"), [("a", "b")])
        g2 = Dag(("a", "b"), [("b", "a")])
        summary = consensus_edges([g1, g2])
        assert summary.directed_counts == {("a", "b"): 1, ("b", "a"): 1}
        assert summary.undirected_counts == {frozenset({"a", "b"}): 2}
        assert summary.consensus_directed == ()
        assert summary.consensus_undirected == (frozenset({"a", "b"}),)

    def test_empty_input(self):
        summary = consensus_edges([])
        assert summary.directed_counts == {}
        assert summary.consensus_directed == ()

    def test_directed_never_exceeds_undirected(self):
        rng = np.random.default_rng(6)
        dags = []
        labels = tuple("abcd")
        for s in range(4):
            order = rng.permutation(4)
            edges = [
                (labels[order[i]], labels[order[j]])
                for i in range(4)
                for j in range(i + 1, 4)
                if rng.random() < 0.5
            ]
            dags.append(Dag(labels, edges))
        summary = consensus_edges(dags)
        for (p, c), n in summary.directed_counts.items():
            assert n <= summary.undirected_counts[frozenset({p, c})]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_build_chronology_fuzz_property(seed):
    rng = np.random.default_rng(seed)
    labels = tuple("abcdef")
    d = int(rng.integers(2, 7))
    nodes = labels[:d]
    order = rng.permutation(d)
    edges = [
        (nodes[order[i]], nodes[order[j]])
        for i in range(d)
        for j in range(i + 1, d)
        if rng.random() < 0.5
    ]
    g = Dag(nodes, edges)
    rows = [
        row(p, c, float(rng.uniform(-1, 1)), validated=bool(rng.random() < 0.6))
        for p, c in g.sorted_edges()
    ]
    tree = build_chronology(g, strong_causal_relations(table(g, rows)))
    assert set(tree.levels) == set(nodes)
    for p, c in tree.edges:
        assert tree.levels[c] > tree.levels[p]
