import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from causalchron.bayesnet import Dag, ZeroProbabilityEvidence, write_dag
from causalchron.dataset import load_reads, missingness_profile
from causalchron.pipeline import (
    PipelineConfig,
    ScenarioSpec,
    StageFailure,
    preset_network,
    run_pipeline,
    simulate,
)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look the module up
_spec.loader.exec_module(workloads)


class TestPresets:
    def test_chain_preset_tables(self):
        net = preset_network("chain-5")
        assert net.dag.sorted_edges() == [
            ("x1", "x2"),
            ("x2", "x3"),
            ("x3", "x4"),
            ("x4", "x5"),
        ]
        assert net.cpt("x2").p1.tolist() == [0.1, 0.9]

    def test_named_presets_exist(self):
        for name in ("fork", "collider", "diamond", "random-6-0.3", "ndhb-like", "ndhd-like"):
            net = preset_network(name)
            assert len(net.dag.nodes) >= 2

    def test_site_preset_dimensions(self):
        assert len(preset_network("ndhb-like").dag.nodes) == 12
        assert len(preset_network("ndhd-like").dag.nodes) == 5

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_network("lattice")

    @pytest.mark.parametrize(
        "name, match",
        [
            ("chain-1", "at least 2 nodes"),
            ("chainsaw", r"reads chain\[-<d>\]"),
            ("chain5", r"reads chain\[-<d>\]"),
            ("chain-x", r"reads chain\[-<d>\]"),
            ("chain-", r"reads chain\[-<d>\]"),
            ("random-1-0.5", "at least 2 nodes"),
            ("random-0-0.5", "at least 2 nodes"),
            ("random-4-1.5", r"edge_prob in \[0, 1\]"),
            ("random-4--0.1", "reads random-<d>-<edge_prob>"),
            ("random-4-nan", r"edge_prob in \[0, 1\]"),
        ],
    )
    def test_degenerate_preset_rejected_at_construction(self, name, match):
        with pytest.raises(ValueError, match=match):
            preset_network(name)
        with pytest.raises(ValueError, match=match):
            ScenarioSpec(preset=name)

    def test_edge_prob_bounds_are_allowed(self):
        assert preset_network("random-4-0").dag.edges == frozenset()
        assert len(preset_network("random-4-1").dag.edges) == 6


class TestSimulate:
    def test_rate_zero_no_missing(self):
        m, truth = simulate(ScenarioSpec(preset="chain-4", n_rows=200, missing_rate=0.0, seed=0))
        assert m.is_complete
        assert truth["missing_rate"] == 0.0

    def test_every_row_single_block(self):
        m, _ = simulate(ScenarioSpec(preset="chain-5", n_rows=500, missing_rate=0.4, seed=1))
        profile = missingness_profile(m)
        assert all(profile.row_single_block)
        assert any(r == 1 for r in profile.row_run_counts)

    def test_sidecar_chain_ace(self):
        _, truth = simulate(ScenarioSpec(preset="chain-3", n_rows=50, missing_rate=0.1, seed=2))
        by_edge = {(e["treatment"], e["outcome"]): e["value"] for e in truth["true_ace"]}
        assert by_edge[("x1", "x2")] == pytest.approx(0.8, abs=1e-12)
        assert truth["synthetic"] is True

    def test_deterministic(self):
        spec = ScenarioSpec(preset="chain-4", n_rows=300, missing_rate=0.3, seed=3)
        a, ta = simulate(spec)
        b, tb = simulate(spec)
        assert np.array_equal(a.values, b.values)
        assert ta == tb

    def test_site_preset_defaults(self):
        spec = ScenarioSpec(preset="ndhd-like", seed=0)
        assert spec.resolved_rows() == 7752
        assert spec.resolved_rate() == pytest.approx(0.35)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(preset="chain-3", missing_rate=1.0)

    @pytest.mark.parametrize(
        "preset, workload, n_rows",
        [("ndhb-like", "ndhb-effects", None), ("ndhd-like", "ndhd-impute", None), ("chain-5", "chain5-stability", 2000)],
    )
    def test_same_sample_as_the_benchmark_generator(self, preset, workload, n_rows):
        """perfbench/workloads.py draws the benchmark's inputs with numpy
        alone; they must stay the reads simulate gives at seed 0."""
        matrix, _ = simulate(ScenarioSpec(preset=preset, n_rows=n_rows, seed=0))
        expected = workloads._sample(workloads.WORKLOADS[workload])
        assert matrix.values.dtype == expected.dtype
        assert np.array_equal(matrix.values, expected)


def tree_hash(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


SMALL_SCENARIO = ScenarioSpec(preset="chain-4", n_rows=600, missing_rate=0.2, seed=11)


class TestRunPipeline:
    def test_artifacts_and_report(self, tmp_path):
        cfg = PipelineConfig(
            scenario=SMALL_SCENARIO,
            algorithms=("hc", "pc", "lingam", "notears"),
            refutations="none",
            output_dir=str(tmp_path / "run"),
            seed=5,
        )
        report = run_pipeline(cfg)
        out = tmp_path / "run"
        for algo in cfg.algorithms:
            assert (out / f"dag.{algo}.edges").exists()
            assert (out / f"effects.{algo}.csv").exists()
            assert (out / f"chronology.{algo}.dot").exists()
            assert (out / f"falsify.{algo}.json").exists()
        for name in ("data.csv", "data.imputed.csv", "imputation.json", "scores.csv",
                     "consensus.json", "manifest.json", "report.json", "truth.json",
                     "missingness.json"):
            assert (out / name).exists()
        assert set(report["models"]) == set(cfg.algorithms)
        assert len(report["scores"]) == 4
        imputed = load_reads(out / "data.imputed.csv")
        assert imputed.is_complete

    def test_byte_reproducible(self, tmp_path):
        def once(name):
            cfg = PipelineConfig(
                scenario=SMALL_SCENARIO,
                algorithms=("hc", "notears"),
                refutations="none",
                output_dir=str(tmp_path / name),
                seed=5,
            )
            run_pipeline(cfg)
            return tree_hash(tmp_path / name)

        assert once("a") == once("b")

    def test_reference_model_and_exclude(self, tmp_path):
        from causalchron.bayesnet import Dag, write_dag

        ref = Dag(("x1", "x2", "x3"), [("x1", "x2")])
        ref_path = tmp_path / "ref.edges"
        write_dag(ref, ref_path)
        cfg = PipelineConfig(
            scenario=ScenarioSpec(preset="chain-4", n_rows=400, missing_rate=0.1, seed=2),
            exclude=("x4",),
            algorithms=("hc",),
            refutations="none",
            reference_models=(("reference", str(ref_path)),),
            output_dir=str(tmp_path / "run"),
            seed=1,
        )
        report = run_pipeline(cfg)
        names = [s["name"] for s in report["scores"]]
        assert "reference" in names
        assert (tmp_path / "run" / "falsify.reference.json").exists()

    def test_stage_failure_names_stage(self, tmp_path):
        cfg = PipelineConfig(
            input_path=str(tmp_path / "missing.csv"),
            output_dir=str(tmp_path / "run"),
        )
        with pytest.raises(StageFailure) as err:
            run_pipeline(cfg)
        assert err.value.stage == "load"

    @pytest.mark.parametrize(
        "attr, stage",
        [
            ("load_reads", "load"),
            ("simulate", "load"),
            ("exclude_events", "exclude"),
            ("em_impute", "impute"),
            ("get_learner", "discover:pc"),
            ("fit_cpts", "effects:pc"),
            ("effects_for_dag", "effects:pc"),
            ("strong_causal_relations", "chronology:pc"),
            ("build_chronology", "chronology:pc"),
            ("read_dag", "reference:ref"),
            ("compare_models", "compare"),
            ("falsify", "falsify:pc"),
            ("consensus_edges", "consensus"),
        ],
    )
    def test_each_stage_failure_names_its_stage(self, tmp_path, monkeypatch, attr, stage):
        # the stage looks its function up in the pipeline module when it runs,
        # so replacing the module name makes exactly that stage fail
        from causalchron import pipeline
        from causalchron.bayesnet import Dag, write_dag
        from causalchron.dataset import save_reads

        scenario = ScenarioSpec(preset="chain-4", n_rows=200, missing_rate=0.2, seed=3)
        save_reads(simulate(scenario)[0], tmp_path / "data.csv")
        write_dag(Dag(("x1", "x2", "x3"), [("x1", "x2")]), tmp_path / "ref.edges")
        original = getattr(pipeline, attr)

        def broken(*args, **kwargs):
            raise RuntimeError(f"{attr} broke")

        def learner(name, **params):  # only the pc learner breaks; impute learns with hc
            return broken if name == "pc" else original(name, **params)

        monkeypatch.setattr(pipeline, attr, learner if attr == "get_learner" else broken)
        source = {"scenario": scenario} if attr == "simulate" else {"input_path": str(tmp_path / "data.csv")}
        cfg = PipelineConfig(
            **source,
            exclude=("x4",),
            algorithms=("pc",),
            refutations="none",
            reference_models=(("ref", str(tmp_path / "ref.edges")),),
            falsify_perms=1,
            output_dir=str(tmp_path / "run"),
        )
        with pytest.raises(StageFailure, match=f"{attr} broke") as err:
            run_pipeline(cfg)
        assert err.value.stage == stage

    def test_config_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            PipelineConfig()
        with pytest.raises(ValueError, match="unknown algorithms"):
            PipelineConfig(scenario=SMALL_SCENARIO, algorithms=("ges",))
        # model names key the scores and the artifact files, so they must be distinct paths
        for key, kwargs in [
            ("algorithms", {"algorithms": ("hc", "hc")}),
            ("reference_models", {"algorithms": ("hc",), "reference_models": (("hc", "ref.edges"),)}),
            ("reference_models", {"reference_models": (("ref", "a.edges"), ("ref", "b.edges"))}),
            ("reference_models", {"reference_models": (("", "ref.edges"),)}),
            ("reference_models", {"reference_models": (("a/b", "ref.edges"),)}),
        ]:
            with pytest.raises(ValueError, match=f"^{key} "):
                PipelineConfig(scenario=SMALL_SCENARIO, **kwargs)
        # learner values out of range fail when the config is built, not in the discover stage
        for learner, key, value in [
            ("notears-stability", "subsample_frac", 1.5),
            ("notears-stability", "subsample_frac", 0.0),
            ("notears-stability", "lambda_grid", ()),
            ("notears-stability", "lambda_grid", (-1.0,)),
            ("notears-stability", "lambda_grid", (0.5, 0.1)),
            ("notears-stability", "n_resamples", 0),
            ("notears", "lambda1", -1.0),
            ("pc", "alpha", -1.0),
            ("pc", "alpha", 7),
            ("lingam", "threshold", -1.0),
            ("hc", "restarts", -3),
        ]:
            with pytest.raises(ValueError, match=f"learner '{learner}' parameter '{key}' must be"):
                PipelineConfig(scenario=SMALL_SCENARIO, learner_params={learner: {key: value}})

    def test_exclude_leaving_one_event_fails_at_exclude(self, tmp_path):
        cfg = PipelineConfig(
            scenario=ScenarioSpec(preset="chain-4", n_rows=50, missing_rate=0.2, seed=3),
            exclude=("x1", "x2", "x3"),
            algorithms=("hc",),
            refutations="none",
            output_dir=str(tmp_path / "run"),
        )
        with pytest.raises(StageFailure, match=r"exclude=\['x1', 'x2', 'x3'\] leaves the events \['x4'\]") as err:
            run_pipeline(cfg)
        assert err.value.stage == "exclude"

    def test_config_doc_round_trip(self):
        cfg = PipelineConfig(
            scenario=SMALL_SCENARIO,
            algorithms=("hc", "pc"),
            exclude=("x1",),
            seed=9,
        )
        back = PipelineConfig.from_doc(json.loads(json.dumps(cfg.to_doc())))
        assert back.to_doc() == cfg.to_doc()

    def test_manifest_hash_matches_config(self, tmp_path):
        cfg = PipelineConfig(
            scenario=SMALL_SCENARIO,
            algorithms=("hc",),
            refutations="none",
            output_dir=str(tmp_path / "run"),
            seed=0,
        )
        run_pipeline(cfg)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        config_json = json.dumps(manifest["config"], indent=2, sort_keys=True) + "\n"
        assert manifest["config_hash"] == hashlib.sha256(config_json.encode()).hexdigest()
        listed = set(manifest["artifacts"])
        actual = {p.name for p in (tmp_path / "run").iterdir()}
        assert listed == actual


#: values of the wrong type or out of range for most keys, and valid for a few
JUNK = st.sampled_from([None, "x", "some", True, -1, 0, 1.5, -0.5, float("inf"), [], ["hc"], ["ges"], {}, {"a": 1}])

#: a reference model of the valid draws, whose file the test writes to its temporary directory;
#: its nodes survive every drawn ``exclude``
REFERENCE = ["ref", "ref.edges"]

#: the stability grids of the valid draws: at most 2 points and 2 resamples, so at most 4 fits
STABILITY_PARAMS = st.fixed_dictionaries(
    {
        "lambda_grid": st.lists(st.sampled_from([0.01, 0.05, 0.2]), min_size=1, max_size=2, unique=True).map(sorted),
        "n_resamples": st.integers(1, 2),
    },
    optional={
        "window": st.integers(1, 3),
        "freq_threshold": st.sampled_from([0.5, 1]),
        "omega": st.sampled_from([0, 0.3]),
    },
)

VALID_DOCS = st.fixed_dictionaries(
    {
        "algorithms": st.lists(
            st.sampled_from(["hc", "pc", "lingam", "notears", "notears-stability"]), max_size=3, unique=True
        ),
        "learner_params": st.fixed_dictionaries({"notears-stability": STABILITY_PARAMS}, optional={
            "hc": st.fixed_dictionaries({}, optional={
                "max_indegree": st.sampled_from([None, 0, 1, 2.0]), "restarts": st.integers(0, 2),
            }),
            "pc": st.fixed_dictionaries({}, optional={"alpha": st.sampled_from([0.01, 0.05, 1])}),
            "lingam": st.fixed_dictionaries({}, optional={"threshold": st.sampled_from([0, 0.1, 0.5])}),
            "notears": st.fixed_dictionaries({}, optional={
                "lambda1": st.sampled_from([0, 0.05]), "omega": st.sampled_from([0, 0.3]),
            }),
        }),
        "reference_models": st.sampled_from([[], [REFERENCE]]),
    },
    optional={
        "input_path": st.none(),
        "exclude": st.sampled_from([[], ["x1"], ["x4"]]),
        "impute_method": st.sampled_from(["mode", "round_robin"]),
        "impute_learner": st.sampled_from(["hc", "pc", "lingam"]),
        "impute_tol": st.sampled_from([0, 0.01, 0.5]),
        "impute_max_iter": st.sampled_from([1, 2, 3.0]),
        "ess": st.sampled_from([0, 0.5, 1, 2.0]),
        # "all" runs every refutation of every edge through the readers over draws
        "refutations": st.sampled_from(["none", "all"]),
        "falsify_perms": st.sampled_from([0, 1, 3]),
        "seed": st.integers(0, 2**40),
        "jobs": st.integers(1, 2),
    },
)
TOP_KEYS = ("input_path", "scenario", "exclude", "impute_method", "impute_learner", "impute_tol",
            "impute_max_iter", "ess", "algorithms", "learner_params", "refutations", "reference_models",
            "falsify_perms", "seed", "jobs", "bogus_key")
#: (learner, key) pairs: real parameters, misspelt ones, one a learner lacks, a misspelt learner,
#: and the parameters whose ranges the NOTEARS learners check
LEARNER_KEYS = (("hc", "max_indegree"), ("hc", "restarts"), ("hc", "max_indegre"), ("pc", "alpha"),
                ("pc", "lambda1"), ("lingam", "threshold"), ("nottears", "lambda1"), ("notears", "lambda1"),
                ("notears", "omega"), ("notears-stability", "subsample_frac"),
                ("notears-stability", "lambda_grid"), ("notears-stability", "n_resamples"),
                ("notears-stability", "freq_threshold"), ("notears-stability", "window"),
                ("notears-stability", "omega"))


@st.composite
def config_docs(draw):
    """A valid document with up to two top-level and two learner parameters spoilt.

    ``learner_params`` stays unspoilt when the document runs stability
    selection, whose default grid of 800 fits would outlast the test.
    """
    doc = draw(VALID_DOCS)
    top_keys = [k for k in TOP_KEYS if not (k == "learner_params" and "notears-stability" in doc["algorithms"])]
    for key in draw(st.lists(st.sampled_from(top_keys), max_size=2, unique=True)):
        doc[key] = draw(JUNK)
    for learner, key in draw(st.lists(st.sampled_from(LEARNER_KEYS), max_size=2, unique=True)):
        params = doc.setdefault("learner_params", {})
        if isinstance(params, dict):
            params.setdefault(learner, {})[key] = draw(JUNK)
    return doc


class TestConfigDocuments:
    @settings(max_examples=200, deadline=None)
    @given(doc=config_docs())
    def test_rejected_at_construction_or_runs(self, doc):
        """Every document fails with ValueError when built or runs every stage.

        What only the input can tell fails its stage by design: a drawn
        ``input_path`` names no file, and an unknown ``exclude`` label fails
        the exclude stage.  The valid draws leave at least two columns.  A
        drawn reference model is read from the temporary directory.
        """
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            if doc.get("reference_models") == [REFERENCE]:
                name, file = REFERENCE
                write_dag(Dag(("x2", "x3"), [("x2", "x3")]), Path(tmp) / file)
                doc["reference_models"] = [[name, str(Path(tmp) / file)]]
            doc = {
                "scenario": {"preset": "chain-4", "n_rows": 50, "missing_rate": 0.2, "seed": 3},
                **doc,
                "output_dir": str(out),
            }
            try:
                cfg = PipelineConfig.from_doc(doc)
            except ValueError:
                event("rejected at construction")
                assert not out.exists()
                return
            event(f"ran with refutations={cfg.refutations}")
            for learner in {"notears", "notears-stability"} & set(cfg.algorithms):
                event(f"ran {learner}")
            if cfg.reference_models:
                event("ran a reference model")
            try:
                run_pipeline(cfg)
            except StageFailure as exc:
                if exc.stage == "exclude" or (exc.stage == "load" and cfg.input_path is not None):
                    return
                # known defect: at ess=0 (maximum likelihood) the effects stage raises on
                # strata that never see one treatment value
                if not (cfg.ess == 0 and isinstance(exc.cause, ZeroProbabilityEvidence)):
                    raise
