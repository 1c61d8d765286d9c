"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.  Where a
criterion leaves an analysis knob open (a test significance level, a grid
size), the choice is stated next to the assertion.
"""

import hashlib
import math
import time

import numpy as np

from causalchron.bayesnet import Cpt, Dag, DiscreteBayesNet, sample
from causalchron.causal import _nde_reader, ace, ace_surgery, backdoor_set
from causalchron.chronology import (
    build_chronology,
    compare_models,
    deterministic_chronology,
    falsify,
    strong_causal_relations,
)
from causalchron.dataset import contingency, cooccurrence_counts
from causalchron.discovery import (
    acyclicity_h,
    default_lambda_grid,
    fisher_exact,
    hc_learn,
    lingam_learn,
    notears_learn,
    pc_learn,
    stability_select,
)
from causalchron.imputation import em_impute
from causalchron.pipeline import PipelineConfig, ScenarioSpec, preset_network, run_pipeline, simulate

from conftest import random_network
from test_chronology import row as relation_row
from test_chronology import table as relation_table

CHAIN_PAIRS = {frozenset(p) for p in [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")]}


def announce(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS - {message}")


def test_criterion_01_table2_fixture(table2_matrix):
    start = time.perf_counter()
    t = contingency(table2_matrix, "ndhD_116494", "ndhD_116785")
    assert (t.n00, t.n01, t.n10, t.n11) == (82, 144, 39, 304)
    baseline = deterministic_chronology(table2_matrix)
    assert baseline.dag.edges == frozenset({("ndhD_116785", "ndhD_116494")})
    assert fisher_exact(t) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, f"table-2 counts, orientation and Fisher p in {elapsed:.3f}s")


def test_criterion_02_cooccurrence_fixture(cooccurrence_matrix):
    counts = cooccurrence_counts(cooccurrence_matrix, "ndhD_116290")
    assert counts[frozenset()] == 8
    assert counts[frozenset({"ndhD_116494"})] == 26
    assert counts[frozenset({"ndhD_116494", "ndhD_116785"})] == 262
    announce(2, "co-occurrence tallies 8 / 26 / 262 exact")


def test_criterion_03_ace_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    n_edges = 0
    for trial in range(100):
        bn = random_network(rng, int(rng.integers(2, 7)))
        for p, c in bn.dag.sorted_edges():
            n_edges += 1
            adjusted = ace(bn, p, c).value
            surgical = ace_surgery(bn, p, c)
            assert abs(adjusted - surgical) <= 1e-10
            z = backdoor_set(bn.dag, p, c)
            order, read = _nde_reader(bn.dag, p, c, frozenset(), z)
            formula = read(bn.marginal(order)[None])[0]
            assert abs(formula - adjusted) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(3, f"{n_edges} edges across 100 networks agree to 1e-10 in {elapsed:.1f}s")


def test_criterion_04_notears_numerics():
    value, grad = acyclicity_h(np.zeros((4, 4)))
    assert value == 0.0 and np.all(grad == 0.0)

    two_cycle, _ = acyclicity_h(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(two_cycle - (math.e + math.exp(-1) - 2)) <= 1e-9

    rng = np.random.default_rng(777)
    step = 1e-5
    for _ in range(20):
        w = rng.uniform(-1, 1, size=(5, 5))
        np.fill_diagonal(w, 0.0)
        _, grad = acyclicity_h(w)
        for i in range(5):
            for j in range(5):
                up, down = w.copy(), w.copy()
                up[i, j] += step
                down[i, j] -= step
                fd = (acyclicity_h(up)[0] - acyclicity_h(down)[0]) / (2 * step)
                assert abs(grad[i, j] - fd) <= 1e-6

    for seed in range(3):
        data = sample(preset_network("chain-4"), 1000, seed=seed)
        adj, _ = notears_learn(data)
        h, _ = acyclicity_h(adj.w)
        assert h <= 1e-8
    announce(4, "h closed forms, 20 gradient checks, and h <= 1e-8 on converged runs")


def _independent_net(d=5):
    labels = tuple(f"x{i}" for i in range(1, d + 1))
    return DiscreteBayesNet(
        Dag(labels, []), tuple(Cpt(n, (), np.array([0.5])) for n in labels)
    )


def test_criterion_05_structure_recovery():
    start = time.perf_counter()
    chain = preset_network("chain-5")

    hc_hits = sum(
        hc_learn(sample(chain, 5000, seed=1000 + s)).skeleton() == CHAIN_PAIRS
        for s in range(40)
    )
    assert hc_hits >= 38  # >= 95% of 40 seeds

    # PC at alpha=0.01: exact-skeleton recovery is a family-wise claim over
    # six absent pairs, and the per-test level must be tightened accordingly
    pc_hits = sum(
        pc_learn(sample(chain, 5000, seed=1000 + s), alpha=0.01).dag.skeleton() == CHAIN_PAIRS
        for s in range(40)
    )
    assert pc_hits >= 38

    # stability selection: 8-point grid x 10 resamples keeps the sweep inside
    # the runtime budget; binary chain pairs are exchangeable, so orientation
    # is not least-squares-identifiable and the check is one direction per
    # adjacent pair, nothing else
    stab_hits = 0
    for s in range(20):
        data = sample(chain, 2000, seed=3000 + s)
        report = stability_select(
            data,
            lambda_grid=default_lambda_grid(1e-3, 1.0, 8),
            n_resamples=10,
            seed=s,
        )
        pairs = {frozenset(e) for e in report.stable_edges}
        stab_hits += pairs == CHAIN_PAIRS and len(report.stable_edges) == 4
    assert stab_hits >= 18  # >= 90% of 20 master seeds

    # independent data: empty output for every learner; PC again runs at the
    # family-wise level 0.05 / C(5,2) = 0.005 because the claim is global
    independent = _independent_net()
    empty_hits = {"hc": 0, "pc": 0, "lingam": 0, "notears": 0}
    for s in range(20):
        data = sample(independent, 2000, seed=s)
        empty_hits["hc"] += not hc_learn(data).edges
        empty_hits["pc"] += not pc_learn(data, alpha=0.005).dag.edges
        empty_hits["lingam"] += not lingam_learn(data).edges
        empty_hits["notears"] += not notears_learn(data)[1].edges
    for name, hits in empty_hits.items():
        assert hits >= 19, f"{name}: {hits}/20 empty"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    announce(
        5,
        f"hc {hc_hits}/40, pc {pc_hits}/40, stability {stab_hits}/20, "
        f"null {dict(empty_hits)} in {elapsed:.0f}s",
    )


def test_criterion_06_em_imputation():
    from causalchron.discovery import get_learner

    learner = get_learner("hc")
    converged = 0
    preserved = 0
    for s in range(20):
        matrix, _ = simulate(ScenarioSpec(preset="chain-5", n_rows=5000, missing_rate=0.3, seed=s))
        result = em_impute(matrix, learner, seed=s, initial_method="round_robin")
        converged += result.converged and result.iterations <= 3
        observed = matrix.values != -1
        preserved += bool(
            np.array_equal(result.completed.values[observed], matrix.values[observed])
        )
    assert converged >= 18  # >= 90% of 20 seeds within <= 3 iterations
    assert preserved == 20  # observed cells bit-identical in 100% of runs
    announce(6, f"EM converged <=3 iterations in {converged}/20 seeds, observed cells intact 20/20")


def test_criterion_07_chronology_invariants():
    rng = np.random.default_rng(2024)
    labels = tuple("abcdefgh")
    for _ in range(1000):
        d = int(rng.integers(2, len(labels) + 1))
        nodes = labels[:d]
        order = rng.permutation(d)
        edges = [
            (nodes[order[i]], nodes[order[j]])
            for i in range(d)
            for j in range(i + 1, d)
            if rng.random() < 0.45
        ]
        g = Dag(nodes, edges)
        rows = [
            relation_row(p, c, float(rng.uniform(-1, 1)), validated=bool(rng.random() < 0.65))
            for p, c in g.sorted_edges()
        ]
        tree = build_chronology(g, strong_causal_relations(relation_table(g, rows)))
        indegree: dict[str, int] = {}
        for p, c in tree.edges:
            indegree[c] = indegree.get(c, 0) + 1
        assert all(v <= 1 for v in indegree.values())
        Dag(nodes, tree.edges)  # acyclicity
        assert set(tree.levels) == set(nodes)  # every source node exactly once
    announce(7, "1000 fuzzed trees: in-degree <= 1, acyclic, full node coverage")


def test_criterion_08_falsification_calibration():
    chain = preset_network("chain-5")

    healthy = 0
    for s in range(20):
        data = sample(chain, 10000, seed=100 + s)
        verdict = falsify(chain.dag, data, n_perm=20, seed=s)
        healthy += verdict.falsifiable and not verdict.falsified
    assert healthy >= 18  # >= 90%

    misoriented = Dag(
        chain.dag.nodes, [("x1", "x2"), ("x2", "x3"), ("x5", "x4"), ("x4", "x3")]
    )
    caught = 0
    for s in range(20):
        data = sample(chain, 10000, seed=100 + s)
        caught += falsify(misoriented, data, n_perm=20, seed=s).falsified
    assert caught >= 18  # >= 90%

    net3 = preset_network("chain-3")
    complete = Dag(net3.dag.nodes, [("x1", "x2"), ("x1", "x3"), ("x2", "x3")])
    unfalsifiable = 0
    for s in range(20):
        data = sample(net3, 2000, seed=s)
        unfalsifiable += not falsify(complete, data, n_perm=20, seed=s).falsifiable
    assert unfalsifiable == 20  # 100%
    announce(
        8,
        f"true chain clean {healthy}/20, misorientation caught {caught}/20, "
        f"complete DAG unfalsifiable 20/20",
    )


def test_criterion_09_model_comparison_direction():
    net = preset_network("chain-5")
    edges = net.dag.sorted_edges()
    wins = 0
    for s in range(20):
        data = sample(net, 10000, seed=500 + s)
        models = [("true", net.dag)] + [
            (f"drop{k}", net.dag.with_edges(remove=[e])) for k, e in enumerate(edges)
        ]
        scores = {m.name: m for m in compare_models(models, data)}
        assert all(m.bic < 0 and m.log_likelihood < 0 for m in scores.values())
        wins += all(
            scores["true"].log_likelihood > scores[f"drop{k}"].log_likelihood
            for k in range(len(edges))
        )
    assert wins >= 19  # >= 95% of 20 seeds
    announce(9, f"true model beat every single-edge deletion in {wins}/20 seeds")


def test_criterion_10_end_to_end_determinism_and_scale(tmp_path):
    def run(name: str) -> tuple[dict[str, str], float]:
        cfg = PipelineConfig(
            scenario=ScenarioSpec(preset="random-12-0.2", n_rows=2000, missing_rate=0.25, seed=3),
            algorithms=("hc", "pc", "lingam", "notears"),
            output_dir=str(tmp_path / name),
            seed=7,
        )
        start = time.perf_counter()
        run_pipeline(cfg)
        elapsed = time.perf_counter() - start
        hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / name).iterdir())
        }
        return hashes, elapsed

    first, t1 = run("first")
    second, t2 = run("second")
    assert t1 < 60.0 and t2 < 60.0
    assert first == second
    assert len(first) >= 30
    announce(10, f"12-event pipeline ran twice ({t1:.1f}s, {t2:.1f}s) with byte-identical artifacts")
