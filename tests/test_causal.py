import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from causalchron._rng import spawn_seed
from causalchron.bayesnet import (
    Cpt,
    Dag,
    DiscreteBayesNet,
    ZeroProbabilityEvidence,
    _conditional_table,
    _fit_p1,
    fit_cpts,
    marginal,
    sample,
)
from causalchron.causal import (
    ABS_TOLERANCE,
    SUBSET_ABS_TOLERANCE,
    SUBSET_DRAWS,
    SUBSET_FRACTION,
    SUBSET_REL_TOLERANCE,
    REFUTATION_KINDS,
    ace,
    ace_surgery,
    backdoor_set,
    effects_for_dag,
    mediators,
    nde,
    refute,
)
from causalchron import causal
from causalchron.causal import _ace_reader, _nde_reader, _plan
from causalchron.dataset import EventMatrix

from conftest import random_network


def net(nodes, edges, tables):
    dag = Dag(nodes, edges)
    cpts = tuple(Cpt(n, dag.parents(n), np.asarray(tables[n], dtype=float)) for n in nodes)
    return DiscreteBayesNet(dag, cpts)


@pytest.fixture
def mediated():
    """x -> m -> y plus x -> y with hand-set tables."""
    return net(
        ("x", "m", "y"),
        [("x", "m"), ("m", "y"), ("x", "y")],
        {
            "x": [0.4],
            "m": [0.2, 0.7],
            # parents of y are (m, x) in graph parent order? order is by node
            # order: ("x", "m") sorted by declaration -> ("x", "m")
            "y": [0.1, 0.3, 0.5, 0.9],
        },
    )


def nde_oracle(bn, x, y, m_label):
    """Independent nested enumeration straight from the CPT dictionaries."""
    p_x = bn.cpt(x).p1[0]
    p_m = bn.cpt(m_label).p1  # indexed by x
    p_y = bn.cpt(y).p1  # indexed by (x, m) in declared parent order
    parents_y = bn.cpt(y).parents

    def y_prob(xv, mv):
        assign = {x: xv, m_label: mv}
        idx = 0
        for p in parents_y:
            idx = (idx << 1) | assign[p]
        return p_y[idx]

    total = 0.0
    for mv in (0, 1):
        p_m_given_x0 = p_m[0] if mv == 1 else 1 - p_m[0]
        total += (y_prob(1, mv) - y_prob(0, mv)) * p_m_given_x0
    return total


class TestBackdoorSet:
    def test_root_treatment_empty(self):
        g = Dag(("x", "y"), [("x", "y")])
        assert backdoor_set(g, "x", "y") == frozenset()

    def test_fork_confounder(self):
        g = Dag(("z", "x", "y"), [("z", "x"), ("z", "y"), ("x", "y")])
        assert backdoor_set(g, "x", "y") == frozenset({"z"})

    def test_upstream_parent_valid(self):
        g = Dag(("w", "x", "y"), [("w", "x"), ("x", "y")])
        assert backdoor_set(g, "x", "y") == frozenset({"w"})


class TestAce:
    def test_chain_reduces_to_cpt_difference(self, chain_ab):
        est = ace(chain_ab, "a", "b")
        assert est.value == pytest.approx(0.7, abs=1e-12)
        assert est.estimand_kind == "ACE"
        assert est.adjustment_set == frozenset()

    def test_disconnected_pair_zero(self):
        bn = net(("x", "y"), [], {"x": [0.3], "y": [0.8]})
        assert ace(bn, "x", "y").value == pytest.approx(0.0, abs=1e-12)
        assert ace_surgery(bn, "x", "y") == pytest.approx(0.0, abs=1e-12)

    def test_matches_surgery_on_random_networks(self):
        rng = np.random.default_rng(100)
        for trial in range(20):
            bn = random_network(rng, int(rng.integers(2, 7)))
            for p, c in bn.dag.sorted_edges():
                assert ace(bn, p, c).value == pytest.approx(
                    ace_surgery(bn, p, c), abs=1e-10
                )

    def test_value_in_range(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            bn = random_network(rng, 4)
            for p, c in bn.dag.sorted_edges():
                assert -1.0 <= ace(bn, p, c).value <= 1.0

    def test_causal_effect_definition_ordering(self, chain_ab):
        # "effect" iff P(y=1|do(x=1)) > P(y=1|do(x=0)), computed independently
        est = ace(chain_ab, "a", "b")
        p_do1 = 0.9  # mutilated net: a pinned to 1 -> P(b=1) = 0.9
        p_do0 = 0.2
        assert (est.value > 0) == (p_do1 > p_do0)


class TestAceSurgery:
    def test_self_intervention(self, chain_ab):
        assert ace_surgery(chain_ab, "b", "b") == pytest.approx(1.0)

    def test_edgeless_network_zero(self):
        bn = net(("x", "y"), [], {"x": [0.5], "y": [0.5]})
        assert ace_surgery(bn, "x", "y") == 0.0


class TestNde:
    def test_mediator_detection(self, mediated):
        assert mediators(mediated.dag, "x", "y") == frozenset({"m"})
        chain = Dag(("a", "b"), [("a", "b")])
        assert mediators(chain, "a", "b") == frozenset()

    def test_requires_mediators(self, chain_ab):
        with pytest.raises(ValueError, match="use ace"):
            nde(chain_ab, "a", "b")

    def test_hand_network_matches_nested_enumeration(self, mediated):
        est = nde(mediated, "x", "y")
        assert est.estimand_kind == "NDE"
        assert est.mediators == frozenset({"m"})
        assert est.value == pytest.approx(nde_oracle(mediated, "x", "y", "m"), abs=1e-12)

    def test_inert_mediator_equals_ace(self):
        # y ignores m entirely: table duplicated across the m axis
        bn = net(
            ("x", "m", "y"),
            [("x", "m"), ("m", "y"), ("x", "y")],
            {"x": [0.5], "m": [0.3, 0.8], "y": [0.2, 0.2, 0.9, 0.9]},
        )
        assert nde(bn, "x", "y").value == pytest.approx(
            ace(bn, "x", "y").value, abs=1e-12
        )

    def test_inert_direct_path_gives_zero(self):
        # y depends only on m: direct contribution vanishes
        bn = net(
            ("x", "m", "y"),
            [("x", "m"), ("m", "y"), ("x", "y")],
            {"x": [0.5], "m": [0.1, 0.9], "y": [0.2, 0.7, 0.2, 0.7]},
        )
        assert nde(bn, "x", "y").value == pytest.approx(0.0, abs=1e-12)

    def test_empty_mediator_formula_equals_ace(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            bn = random_network(rng, 4)
            for p, c in bn.dag.sorted_edges():
                z = backdoor_set(bn.dag, p, c)
                order, read = _nde_reader(bn.dag, p, c, frozenset(), z)
                formula = read(bn.marginal(order)[None])[0]
                assert formula == pytest.approx(ace(bn, p, c).value, abs=1e-10)


class TestPositivity:
    """Maximum-likelihood tables (ess=0) with a deterministic z -> x.

    ace raises when a stratum of positive probability never shows one
    treatment value; the mediation formula skips strata never reached
    with x=0 and raises only when a reached (z, m) is never seen with x=1.
    """

    DAG = Dag(("z", "x", "m", "y"), [("z", "x"), ("z", "y"), ("x", "m"), ("m", "y"), ("x", "y")])

    @classmethod
    def data(cls, x_of_z):
        rng = np.random.default_rng(5)
        n = 2000
        z = rng.integers(0, 2, n)
        x = x_of_z(z, rng.integers(0, 2, n))
        m = (rng.random(n) < np.where(x == 1, 0.7, 0.3)).astype(int)
        y = (rng.random(n) < 0.2 + 0.3 * x + 0.2 * m + 0.1 * z).astype(int)
        return EventMatrix(cls.DAG.nodes, np.column_stack([z, x, m, y]).astype(np.int8))

    def fitted(self, x_of_z):
        return fit_cpts(self.DAG, self.data(x_of_z), ess=0.0)

    def test_x_copies_z_raises_for_both_estimands(self):
        bn = self.fitted(lambda z, coin: z)
        with pytest.raises(ZeroProbabilityEvidence):
            ace(bn, "x", "y")
        with pytest.raises(ZeroProbabilityEvidence):
            nde(bn, "x", "y")
        assert ace(bn, "z", "x").value == 1.0

    def test_stratum_without_x0_raises_ace_only(self):
        # z=1 forces x=1: ace cannot condition on (z=1, x=0); the mediation
        # formula weights by P(m | x=0, z), which that stratum never has
        bn = self.fitted(lambda z, coin: np.maximum(z, coin))
        with pytest.raises(ZeroProbabilityEvidence):
            ace(bn, "x", "y")
        assert 0.0 < nde(bn, "x", "y").value < 1.0


def ace_once(t):
    """Textbook backdoor adjustment read off one table P(x, Z, y)."""
    p_xz = t.sum(axis=-1)
    p_z = p_xz[0] + p_xz[1]
    live = p_z > 0.0
    if ((p_xz <= 0.0) & live).any():
        raise ZeroProbabilityEvidence("positivity")
    with np.errstate(divide="ignore", invalid="ignore"):
        p_y = t[..., 1] / p_xz
    value = ((p_y[1] - p_y[0]) * p_z)[live].sum()
    return float(min(1.0, max(-1.0, value)))


def nde_once(t, n_z):
    """Textbook mediation formula read off one table P(x, Z, M, y)."""
    p_xzm = t.sum(axis=-1)
    p_xz = p_xzm.sum(axis=tuple(range(1 + n_z, p_xzm.ndim)), keepdims=True)
    p_z = p_xz[0] + p_xz[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        p_m_given = p_xzm[0] / p_xz[0]
        p_y = t[..., 1] / p_xzm
    live = (p_xz[0] > 0.0) & (p_m_given > 0.0)
    if (live & (p_xzm[1] <= 0.0)).any():
        raise ZeroProbabilityEvidence("positivity")
    value = ((p_y[1] - p_y[0]) * p_m_given * p_z)[live].sum()
    return float(min(1.0, max(-1.0, value)))


@st.composite
def draw_tables(draw):
    """Tables P(x, Z, M, y) with a leading draw axis; some cells are zeroed, so
    strata die and positivity fails in some draws."""
    n_draws, n_z, n_m = draw(st.integers(1, 5)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.random((n_draws,) + (2,) * (n_z + n_m + 2))
    zero = rng.random(t.shape) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    if draw(st.booleans()) and n_z:
        zero[:, :, 0] = True  # the stratum z1 = 0 is dead in every draw
    t[zero] = 0.0
    t /= np.maximum(t.sum(axis=tuple(range(1, t.ndim)), keepdims=True), 1e-300)
    return t, n_z, n_m


class TestReadersOverDraws:
    """A reader takes a leading draw axis and returns one estimate per draw:
    each equals the one-table form applied to that draw, bit for bit, and a
    positivity failure in any draw raises."""

    @settings(max_examples=200, deadline=None)
    @given(case=draw_tables())
    def test_each_draw_as_if_read_alone(self, case):
        t, n_z, n_m = case
        z = [f"z{i}" for i in range(n_z)]
        m = [f"m{i}" for i in range(n_m)]
        dag = Dag(("x", *z, *m, "y"))
        if n_m:
            order, read = _nde_reader(dag, "x", "y", frozenset(m), frozenset(z))
            once = partial(nde_once, n_z=n_z)
        else:
            order, read = _ace_reader(dag, "x", "y", frozenset(z))
            once = ace_once
        assert order == ("x", *z, *m, "y")
        try:
            expected = [once(t[d]) for d in range(len(t))]
        except ZeroProbabilityEvidence:
            event("positivity fails in a draw")
            with pytest.raises(ZeroProbabilityEvidence):
                read(t)
            return
        values = read(t)
        assert [v.hex() for v in values] == [v.hex() for v in expected]
        assert [read(t[d][None])[0] for d in range(len(t))] == values


class TestEffectsForDag:
    def test_single_edge_validated(self, chain_ab):
        data = sample(chain_ab, 2000, seed=0)
        bn = fit_cpts(chain_ab.dag, data)
        table = effects_for_dag(bn, data, refutations="none")
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.validated
        assert row.estimand_kind == "ACE"
        assert row.value == pytest.approx(0.7, abs=0.05)
        assert row.nie == 0.0

    def test_non_positive_effect_not_validated(self):
        bn = net(("x", "y"), [("x", "y")], {"x": [0.5], "y": [0.8, 0.2]})
        data = sample(bn, 500, seed=1)
        refit = fit_cpts(bn.dag, data)
        table = effects_for_dag(refit, data, refutations="none")
        assert not table.rows[0].validated

    def test_rows_sorted_descending(self):
        rng = np.random.default_rng(3)
        bn = random_network(rng, 5)
        if not bn.dag.edges:
            pytest.skip("random draw produced no edges")
        data = sample(bn, 800, seed=3)
        refit = fit_cpts(bn.dag, data)
        table = effects_for_dag(refit, data, refutations="none")
        values = [r.value for r in table.rows]
        assert values == sorted(values, reverse=True)

    def test_nie_decomposition(self, mediated):
        data = sample(mediated, 3000, seed=5)
        bn = fit_cpts(mediated.dag, data)
        table = effects_for_dag(bn, data, refutations="none")
        row = next(r for r in table.rows if r.mediators)
        total = ace(bn, row.treatment, row.outcome).value
        assert row.nie == pytest.approx(total - row.value, abs=1e-12)

    def test_csv_and_json_round_trip(self, chain_ab):
        data = sample(chain_ab, 1000, seed=2)
        bn = fit_cpts(chain_ab.dag, data)
        table = effects_for_dag(bn, data, refutations="all", seed=4)
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == (
            "treatment,outcome,kind,value,adjustment_set,mediators,"
            "validated,placebo_pass,subset_pass,rcc_pass,nie"
        )
        from causalchron.causal import CausalRelationTable

        back = CausalRelationTable.from_json(table.to_json())
        assert back.rows == table.rows


    def test_one_reader_per_edge_and_estimand(self, monkeypatch):
        # an estimate is the one-draw case of a refit through one plan per
        # (edge, estimand) of the fitted graph; only the random common cause
        # refits, whose graph is new per call, build their own
        built = []
        for name, kind in (("_ace_reader", "ACE"), ("_nde_reader", "NDE")):
            def wrapped(dag, x, y, *sets, _reader=getattr(causal, name), _kind=kind):
                built.append((dag, x, y, _kind))
                return _reader(dag, x, y, *sets)

            monkeypatch.setattr(causal, name, wrapped)
        data = TestPositivity.data(lambda z, coin: coin)
        bn = fit_cpts(Dag(data.columns, TestPositivity.DAG.edges), data)  # no plans kept yet
        edges = bn.dag.sorted_edges()
        mediated = [(x, y) for x, y in edges if mediators(bn.dag, x, y)]
        assert mediated and len(mediated) < len(edges)
        effects_for_dag(bn, data, refutations="all", seed=1)
        for _ in range(3):
            for x, y in edges:
                ace(bn, x, y)
            for x, y in mediated:
                nde(bn, x, y)
        on_bn = sorted((x, y, kind) for dag, x, y, kind in built if dag is bn.dag)
        assert on_bn == sorted([(x, y, "ACE") for x, y in edges] + [(x, y, "NDE") for x, y in mediated])
        others = [dag for dag, *_ in built if dag is not bn.dag]
        assert len(others) == len(edges) == len({id(dag) for dag in others})


def reference_refute(bn, data, estimate, kind, seed, ess):
    """(refuted value, passed, tolerance) from refits of every CPT of the whole
    network on a perturbed matrix, drawing the same random stream as refute()."""
    x, y = estimate.treatment, estimate.outcome
    rng = np.random.default_rng(spawn_seed(seed, "refute", kind, x, y))

    def reestimate(dag, mat):
        refit = fit_cpts(dag, mat, ess=ess)
        return (nde if estimate.estimand_kind == "NDE" else ace)(refit, x, y).value

    if kind == "placebo":
        values = data.values.copy()
        xi = data.column_index(x)
        marginal = float((values[:, xi] == 1).mean())
        values[:, xi] = (rng.random(data.n_rows) < marginal).astype(np.int8)
        refuted = reestimate(bn.dag, data.replace_values(values))
        return refuted, abs(refuted) <= ABS_TOLERANCE, ABS_TOLERANCE
    if kind == "subset":
        size = int(np.ceil(SUBSET_FRACTION * data.n_rows))
        draws = []
        for _ in range(SUBSET_DRAWS):
            rows = np.sort(rng.choice(data.n_rows, size=size, replace=False))
            draws.append(reestimate(bn.dag, data.replace_values(data.values[rows])))
        mean = float(np.mean(draws))
        tol = SUBSET_REL_TOLERANCE * abs(estimate.value) + SUBSET_ABS_TOLERANCE
        return mean, abs(mean - estimate.value) <= tol, tol
    label = "__random_common_cause__"
    coin = (rng.random(data.n_rows) < 0.5).astype(np.int8)
    extended = EventMatrix(data.columns + (label,), np.column_stack([data.values, coin]))
    dag = Dag(extended.columns, set(bn.dag.edges) | {(label, x), (label, y)})
    refuted = reestimate(dag, extended)
    return refuted, abs(refuted - estimate.value) <= ABS_TOLERANCE, ABS_TOLERANCE


def outcome_or_raise(f):
    try:
        return f()
    except ZeroProbabilityEvidence:
        return "ZeroProbabilityEvidence"


def assert_refutes_like_reference(bn, data, estimate, seed, ess):
    for kind in REFUTATION_KINDS:
        got = outcome_or_raise(lambda: refute(bn, data, estimate, kind, seed=seed, ess=ess))
        if not isinstance(got, str):
            assert got.kind == kind
            got = (got.refuted_value, got.passed, got.tolerance)
        assert got == outcome_or_raise(lambda: reference_refute(bn, data, estimate, kind, seed, ess))


class TestRefutations:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(5, 150),
        st.sampled_from([0.0, 1.0]),
        st.booleans(),
    )
    def test_matches_whole_network_refits(self, net_seed, d, n, ess, via_edge_list):
        # refits read only the ancestral CPTs of the estimand and count the
        # subset draws from packed indices; the results must not change a bit.
        # A DAG read back from its edge list, as the CLI's effects command reads
        # one, lists isolated nodes first, so its node order can differ from the
        # data's column order
        rng = np.random.default_rng(net_seed)
        truth = random_network(rng, d)
        data = sample(truth, n, seed=net_seed)
        dag = Dag.from_edge_list(truth.dag.to_edge_list()) if via_edge_list else truth.dag
        bn = fit_cpts(dag, data, ess=ess)
        for x, y in bn.dag.sorted_edges():
            estimate = outcome_or_raise(
                lambda: nde(bn, x, y) if mediators(bn.dag, x, y) else ace(bn, x, y)
            )
            if not isinstance(estimate, str):
                assert_refutes_like_reference(bn, data, estimate, net_seed % 97, ess)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(400, 1500), st.sampled_from([0.0, 1.0]))
    def test_duplicate_heavy_data_matches_whole_network_refits(self, net_seed, d, n, ess):
        # at most 2^4 distinct rows among hundreds: every refit counts pattern ids,
        # and the placebo and random common cause refits count the patterns doubled
        # on the coin; the reference refits the explicitly perturbed matrix
        rng = np.random.default_rng(net_seed)
        truth = random_network(rng, d)
        data = sample(truth, n, seed=net_seed)
        assert len(data.row_patterns.rows) <= 2**d < n
        bn = fit_cpts(truth.dag, data, ess=ess)
        for x, y in bn.dag.sorted_edges():
            estimate = outcome_or_raise(
                lambda: nde(bn, x, y) if mediators(bn.dag, x, y) else ace(bn, x, y)
            )
            if not isinstance(estimate, str):
                assert_refutes_like_reference(bn, data, estimate, net_seed % 89, ess)

    def test_positivity_failure_raises_like_whole_network_refits(self):
        # x copies z: every refit of the (x, y) estimand that keeps the data's
        # x raises at ess=0, the placebo refit (x redrawn) does not
        data = TestPositivity.data(lambda z, coin: z)
        estimate = nde(fit_cpts(TestPositivity.DAG, data, ess=1.0), "x", "y")
        bn = fit_cpts(TestPositivity.DAG, data, ess=0.0)
        with pytest.raises(ZeroProbabilityEvidence):
            refute(bn, data, estimate, "subset", seed=3, ess=0.0)
        with pytest.raises(ZeroProbabilityEvidence):
            refute(bn, data, estimate, "random_common_cause", seed=3, ess=0.0)
        refute(bn, data, estimate, "placebo", seed=3, ess=0.0)
        assert_refutes_like_reference(bn, data, estimate, 3, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(5, 150),
        st.sampled_from([0.0, 1.0]),
    )
    def test_batched_tables_equal_per_draw_marginals(self, net_seed, d, n, ess):
        # the subset draws are counted together, as counts of the data's row
        # patterns, and contracted with a leading draw axis; each slice must be
        # the marginal of that draw's refit, bit for bit
        rng = np.random.default_rng(net_seed)
        truth = random_network(rng, d)
        data = sample(truth, n, seed=net_seed)
        rows = np.stack([rng.choice(n, size=max(1, n - 3), replace=False) for _ in range(SUBSET_DRAWS)])
        patterns, ids, _ = data.row_patterns
        counts = np.stack([np.bincount(ids[r], minlength=len(patterns)) for r in rows])
        for x, y in truth.dag.sorted_edges():
            _, _, sub, order, _ = _plan(truth.dag, x, y, direct=True)
            values = patterns[:, [data.column_index(v) for v in sub.nodes]]
            p1 = _fit_p1(sub, values, counts, ess)
            tables = {v: _conditional_table(p1[v], len(sub.parents(v))) for v in sub.nodes}
            batched = marginal(sub, tables, order)
            per_draw = np.stack(
                [fit_cpts(sub, data.replace_values(data.values[r]), ess=ess).marginal(order) for r in rows]
            )
            assert batched.shape == per_draw.shape
            assert np.array_equal(batched, per_draw)
            # the one-table marginal is slice 0 of the batched one on the same tables
            one = DiscreteBayesNet(sub, tuple(Cpt(v, sub.parents(v), p1[v][0]) for v in sub.nodes))
            assert one.marginal(order).tobytes() == batched[0].tobytes()

    def test_wide_subset_counts_patterns_not_the_joint(self):
        # a 70-node chain closed by x0 -> x69: the sub-DAG of the last edge holds
        # every node and its estimate reads every CPT, so a dense 2^70 joint, or
        # one int64 key over all columns, could not work
        labels = tuple(f"x{i}" for i in range(70))
        dag = Dag(labels, [*zip(labels, labels[1:]), ("x0", "x69")])
        rng = np.random.default_rng(4)
        truth = DiscreteBayesNet(
            dag, tuple(Cpt(v, dag.parents(v), rng.uniform(0.1, 0.9, 1 << len(dag.parents(v)))) for v in labels)
        )
        data = sample(truth, 300, seed=4)
        bn = fit_cpts(dag, data)
        estimate = ace(bn, "x68", "x69")
        tracemalloc.start()
        try:
            got = refute(bn, data, estimate, "subset", seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert (got.refuted_value, got.passed, got.tolerance) == reference_refute(
            bn, data, estimate, "subset", 2, 1.0
        )

    def test_placebo_on_genuine_effect_passes(self, chain_ab):
        data = sample(chain_ab, 5000, seed=6)
        bn = fit_cpts(chain_ab.dag, data)
        est = ace(bn, "a", "b")
        res = refute(bn, data, est, "placebo", seed=0)
        assert res.kind == "placebo"
        assert abs(res.refuted_value) <= 0.05
        assert res.passed

    def test_subset_tracks_original(self, chain_ab):
        data = sample(chain_ab, 10000, seed=7)
        bn = fit_cpts(chain_ab.dag, data)
        est = ace(bn, "a", "b")
        res = refute(bn, data, est, "subset", seed=1)
        assert res.passed
        assert abs(res.refuted_value - est.value) <= 0.1 * abs(est.value) + 0.02

    def test_random_common_cause_stable(self, chain_ab):
        data = sample(chain_ab, 5000, seed=8)
        bn = fit_cpts(chain_ab.dag, data)
        est = ace(bn, "a", "b")
        res = refute(bn, data, est, "random_common_cause", seed=2)
        assert res.passed

    def test_deterministic_given_seed(self, chain_ab):
        data = sample(chain_ab, 2000, seed=9)
        bn = fit_cpts(chain_ab.dag, data)
        est = ace(bn, "a", "b")
        for kind in REFUTATION_KINDS:
            a = refute(bn, data, est, kind, seed=11)
            b = refute(bn, data, est, kind, seed=11)
            assert a == b

    def test_node_absent_from_data_raises_key_error(self):
        # the ancestor w, the treatment a and the outcome b are each missing in
        # turn, for an estimate whose ancestral closure is the whole DAG (a -> b)
        # and one that leaves b outside it (w -> a)
        dag = Dag(("w", "a", "b"), [("w", "a"), ("a", "b")])
        full = sample(net(dag.nodes, dag.edges, {"w": [0.5], "a": [0.3, 0.8], "b": [0.2, 0.7]}), 200, seed=1)
        bn = fit_cpts(dag, full)
        for est in (ace(bn, "a", "b"), ace(bn, "w", "a")):
            for drop in dag.nodes:
                keep = [c for c in full.columns if c != drop]
                data = EventMatrix(tuple(keep), full.values[:, [full.column_index(c) for c in keep]])
                for kind in REFUTATION_KINDS:
                    with pytest.raises(KeyError, match=repr(drop)):
                        refute(bn, data, est, kind, seed=0)

    def test_unknown_kind(self, chain_ab):
        data = sample(chain_ab, 100, seed=0)
        bn = fit_cpts(chain_ab.dag, data)
        est = ace(bn, "a", "b")
        with pytest.raises(ValueError, match="unknown refutation"):
            refute(bn, data, est, "bootstrap", seed=0)
