import json

import pytest

from causalchron.bayesnet import Dag, fit_cpts, read_dag, write_dag
from causalchron.causal import effects_for_dag
from causalchron.chronology import compare_models, deterministic_chronology, falsify
from causalchron.cli import main
from causalchron.dataset import load_reads, save_reads
from causalchron.discovery import get_learner
from causalchron.imputation import em_impute


@pytest.fixture
def chain_data(tmp_path):
    from causalchron.pipeline import ScenarioSpec, simulate

    m, _ = simulate(ScenarioSpec(preset="chain-4", n_rows=600, missing_rate=0.0, seed=0))
    path = tmp_path / "data.csv"
    save_reads(m, path)
    return path


class TestSimulateCommand:
    def test_writes_data_and_truth(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main([
            "simulate", "--preset", "chain-4", "--n", "100", "--rate", "0.2",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        m = load_reads(out / "data.csv")
        assert m.n_rows == 100
        truth = json.loads((out / "truth.json").read_text())
        assert truth["preset"] == "chain-4"

    def test_bad_preset_exit_1(self, tmp_path, capsys):
        assert main(["simulate", "--preset", "zzz", "--out", str(tmp_path / "x")]) == 1


class TestImputeCommand:
    def test_outputs(self, tmp_path, capsys):
        from causalchron.pipeline import ScenarioSpec, simulate

        m, _ = simulate(ScenarioSpec(preset="chain-4", n_rows=400, missing_rate=0.3, seed=1))
        data = tmp_path / "data.csv"
        save_reads(m, data)
        out = tmp_path / "imp"
        code = main([
            "impute", "--data", str(data), "--method", "mode", "--learner", "hc",
            "--tol", "0.01", "--max-iter", "10", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        completed = load_reads(out / "data.imputed.csv")
        assert completed.is_complete
        report = json.loads((out / "imputation.json").read_text())
        assert set(report) == {"iterations", "edge_change_history", "converged"}

    def test_negative_tol_exit_1(self, chain_data, tmp_path, capsys):
        out = tmp_path / "imp"
        assert main(["impute", "--data", str(chain_data), "--tol", "-1", "--out", str(out)]) == 1
        assert "'tol' must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestDiscoverCommand:
    def test_each_algorithm(self, chain_data, tmp_path, capsys):
        for algo in ("hc", "pc", "lingam", "notears"):
            out = tmp_path / algo
            assert main([
                "discover", "--data", str(chain_data), "--algo", algo,
                "--seed", "0", "--out", str(out),
            ]) == 0
            assert (out / f"dag.{algo}.edges").exists()
            assert (out / f"dag.{algo}.dot").exists()

    def test_stability_writes_report(self, chain_data, tmp_path, capsys):
        out = tmp_path / "stab"
        code = main([
            "discover", "--data", str(chain_data), "--algo", "notears-stability",
            "--lambda-grid", "0.01:0.5:4", "--resamples", "4", "--seed", "0",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "stability.json").read_text())
        assert len(doc["lambda_grid"]) == 4
        assert "edge_frequencies" in doc

    def test_flag_the_learner_does_not_take_exit_1(self, chain_data, tmp_path, capsys):
        out = tmp_path / "x"
        code = main([
            "discover", "--data", str(chain_data), "--algo", "pc", "--lambda", "5",
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "'pc'" in err and "'lambda1'" in err
        assert not out.exists()

    def test_given_flags_reach_the_learner(self, chain_data, tmp_path, capsys):
        # alpha=0 accepts every independence, so PC drops the edges it keeps at its default
        edges = {}
        for flags in ([], ["--alpha", "0"]):
            out = tmp_path / f"pc{len(flags)}"
            assert main(["discover", "--data", str(chain_data), "--algo", "pc", "--out", str(out), *flags]) == 0
            edges[len(flags)] = len(read_dag(out / "dag.pc.edges").edges)
        assert edges[0] > 0 and edges[2] == 0

    def test_bad_grid_exit_1(self, chain_data, tmp_path):
        assert main([
            "discover", "--data", str(chain_data), "--algo", "notears-stability",
            "--lambda-grid", "nope", "--out", str(tmp_path / "x"),
        ]) == 1


class TestEffectsCommand:
    def test_csv_columns(self, chain_data, tmp_path, capsys):
        dag_path = tmp_path / "dag.edges"
        write_dag(Dag(("x1", "x2", "x3", "x4"), [("x1", "x2"), ("x2", "x3")]), dag_path)
        out = tmp_path / "eff"
        code = main([
            "effects", "--dag", str(dag_path), "--data", str(chain_data),
            "--refute", "none", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        header = (out / "effects.csv").read_text().splitlines()[0]
        assert header.split(",")[:4] == ["treatment", "outcome", "kind", "value"]

    def test_mismatched_dag_exit_1(self, chain_data, tmp_path, capsys):
        dag_path = tmp_path / "dag.edges"
        write_dag(Dag(("q1", "q2"), [("q1", "q2")]), dag_path)
        assert main([
            "effects", "--dag", str(dag_path), "--data", str(chain_data),
            "--out", str(tmp_path / "x"),
        ]) == 1


class TestChronologyCommand:
    def test_tree_outputs(self, chain_data, tmp_path, capsys):
        dag_path = tmp_path / "dag.edges"
        write_dag(Dag(("x1", "x2", "x3", "x4"), [("x1", "x2"), ("x2", "x3")]), dag_path)
        eff = tmp_path / "eff"
        main([
            "effects", "--dag", str(dag_path), "--data", str(chain_data),
            "--refute", "none", "--out", str(eff),
        ])
        out = tmp_path / "chrono"
        code = main([
            "chronology", "--relations", str(eff / "effects.json"),
            "--dag", str(dag_path), "--out", str(out),
        ])
        assert code == 0
        assert (out / "chronology.edges").exists()
        assert "rank=same" in (out / "chronology.dot").read_text()


class TestBaselineCommand:
    def test_runs_on_fixture(self, tmp_path, capsys, table2_matrix):
        data = tmp_path / "t2.csv"
        save_reads(table2_matrix, data)
        out = tmp_path / "base"
        code = main(["baseline", "--data", str(data), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "baseline.json").read_text())
        assert doc["edges"] == [["ndhD_116785", "ndhD_116494"]]

    @pytest.mark.parametrize("alpha", ["2", "-1", "nan"])
    def test_alpha_outside_the_unit_interval_exit_1(self, chain_data, tmp_path, capsys, alpha):
        out = tmp_path / "base"
        assert main(["baseline", "--data", str(chain_data), "--alpha", alpha, "--out", str(out)]) == 1
        assert "'alpha' must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestCompareCommand:
    def test_scores_to_stdout(self, chain_data, tmp_path, capsys):
        d1 = tmp_path / "m1.edges"
        d2 = tmp_path / "m2.edges"
        write_dag(Dag(("x1", "x2", "x3", "x4"), [("x1", "x2")]), d1)
        write_dag(Dag(("x1", "x2", "x3", "x4"), []), d2)
        code = main([
            "compare", "--data", str(chain_data),
            "--model", f"one={d1}", "--model", f"empty={d2}",
        ])
        assert code == 0
        outp = capsys.readouterr().out
        assert outp.splitlines()[0] == "name,bic,log_likelihood"
        assert len(outp.splitlines()) == 3

    def test_bad_model_spec_exit_1(self, chain_data, capsys):
        assert main(["compare", "--data", str(chain_data), "--model", "oops"]) == 1


class TestFalsifyCommand:
    def test_verdict_json(self, chain_data, tmp_path, capsys):
        dag_path = tmp_path / "dag.edges"
        write_dag(
            Dag(("x1", "x2", "x3", "x4"), [("x1", "x2"), ("x2", "x3"), ("x3", "x4")]),
            dag_path,
        )
        out = tmp_path / "verdict.json"
        code = main([
            "falsify", "--dag", str(dag_path), "--data", str(chain_data),
            "--perms", "10", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["falsifiable"], bool)
        assert len(doc["baseline"]) == 10


    def test_raw_reads_with_a_missing_cell_exit_1(self, tmp_path, capsys):
        from causalchron.pipeline import ScenarioSpec, simulate

        m, _ = simulate(ScenarioSpec(preset="chain-4", n_rows=300, missing_rate=0.1, seed=0))
        assert not m.is_complete
        data = tmp_path / "raw.csv"
        save_reads(m, data)
        dag_path = tmp_path / "dag.edges"
        write_dag(
            Dag(("x1", "x2", "x3", "x4"), [("x1", "x2"), ("x2", "x3"), ("x3", "x4")]),
            dag_path,
        )
        code = main(["falsify", "--dag", str(dag_path), "--data", str(data), "--perms", "3"])
        assert code == 1
        assert "conditional tests require complete data" in capsys.readouterr().err

    def test_negative_perms_exit_1(self, chain_data, tmp_path, capsys):
        dag_path = tmp_path / "dag.edges"
        write_dag(Dag(("x1", "x2", "x3", "x4"), [("x1", "x2")]), dag_path)
        code = main(["falsify", "--dag", str(dag_path), "--data", str(chain_data), "--perms", "-1"])
        assert code == 1
        assert "'n_perm' must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--alpha-f", "-1"), ("--alpha-f", "nan"), ("--alpha-ci", "2"), ("--alpha-ci", "-1")]
    )
    def test_level_outside_the_unit_interval_exit_1(self, chain_data, tmp_path, capsys, flag, value):
        dag_path = tmp_path / "dag.edges"
        write_dag(Dag(("x1", "x2", "x3", "x4"), [("x1", "x2"), ("x2", "x3"), ("x3", "x4")]), dag_path)
        out = tmp_path / "verdict.json"
        code = main(["falsify", "--dag", str(dag_path), "--data", str(chain_data), flag, value, "--out", str(out)])
        assert code == 1
        assert f"'{flag[2:].replace('-', '_')}' must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestPipelineCommand:
    def test_end_to_end_with_config(self, tmp_path, capsys):
        cfg = {
            "scenario": {"preset": "chain-4", "n_rows": 400, "missing_rate": 0.2, "seed": 1},
            "algorithms": ["hc", "notears"],
            "refutations": "none",
            "seed": 4,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["models"]) == {"hc", "notears"}

    def test_stage_failure_exit_2(self, tmp_path, capsys):
        cfg = {
            "input_path": str(tmp_path / "nope.csv"),
            "algorithms": ["hc"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize(
        "setting, key",
        [
            ({"learner_params": {"hc": {"bogus": 1}}}, "bogus"),
            ({"learner_params": {"nottears": {"lambda1": 0.1}}}, "nottears"),
            ({"impute_tol": -1}, "impute_tol"),
            ({"impute_method": "foo"}, "impute_method"),
            ({"ess": -1}, "ess"),
            ({"ess": None}, "ess"),
            ({"impute_max_iter": 0}, "impute_max_iter"),
            ({"refutations": "some"}, "refutations"),
            ({"falsify_perms": -1}, "falsify_perms"),
            ({"algorithms": "hc"}, "algorithms"),
            ({"jobs": 1, "bogus": 1}, "bogus"),
            ({"scenario": {"n_rows": 50}}, "preset"),
            ({"scenario": {"preset": "zzz"}}, "preset"),
            ({"learner_params": {"notears-stability": {"subsample_frac": 1.5}}}, "subsample_frac"),
            ({"learner_params": {"notears-stability": {"subsample_frac": 0}}}, "subsample_frac"),
            ({"learner_params": {"notears-stability": {"lambda_grid": []}}}, "lambda_grid"),
            ({"learner_params": {"notears-stability": {"lambda_grid": [-1.0]}}}, "lambda_grid"),
            ({"learner_params": {"notears-stability": {"lambda_grid": [0.5, 0.1]}}}, "lambda_grid"),
            ({"learner_params": {"notears-stability": {"n_resamples": 0}}}, "n_resamples"),
            ({"learner_params": {"notears": {"lambda1": -1}}}, "lambda1"),
            ({"algorithms": ["hc", "hc"]}, "algorithms"),
            ({"reference_models": [["hc", "ref.edges"]]}, "reference_models"),
            ({"reference_models": [["ref", "a.edges"], ["ref", "b.edges"]]}, "reference_models"),
            ({"reference_models": [["", "ref.edges"]]}, "reference_models"),
            ({"reference_models": [["a/b", "ref.edges"]]}, "reference_models"),
        ],
    )
    def test_bad_config_exit_1_before_any_artifact(self, tmp_path, capsys, setting, key):
        cfg = {
            "scenario": {"preset": "chain-4", "n_rows": 50, "missing_rate": 0.2, "seed": 1},
            "algorithms": ["hc"],
            **setting,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["pipeline", "--config", str(tmp_path / "absent.json")]) == 1


MALFORMED_INPUTS = {
    "ragged_row": "x1,x2,x3\nTrue,False,True\nTrue,False\nFalse,True,True\n",
    "duplicate_labels": "x1,x1,x3\nTrue,False,True\nFalse,True,True\n",
    "fully_missing_column": "x1,x2,x3\nTrue,NaN,True\nFalse,NaN,True\nTrue,NaN,False\n",
    "single_row": "x1,x2,x3\nTrue,False,True\n",
}


class TestMalformedInputExitCodes:
    """Load and impute failures are stage failures (2) in `pipeline` and input errors (1) in `impute`."""

    @pytest.mark.parametrize(
        "name, pipeline_code, impute_code",
        [
            ("ragged_row", 2, 1),
            ("duplicate_labels", 2, 1),
            ("fully_missing_column", 2, 1),
            ("single_row", 0, 0),
        ],
    )
    def test_exit_codes(self, tmp_path, capsys, name, pipeline_code, impute_code):
        data = tmp_path / "data.csv"
        data.write_text(MALFORMED_INPUTS[name])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input_path": str(data), "algorithms": ["hc"], "refutations": "none"}))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == pipeline_code
        assert main(["impute", "--data", str(data), "--out", str(tmp_path / "imp")]) == impute_code


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["impute", "--data", "x.csv", "--out", "y", "--method", "bogus"],
            ["baseline", "--data", "x.csv", "--out", "y", "--correction", "bogus"],
            ["discover", "--data", "x.csv", "--out", "y", "--algo", "bogus"],
            ["impute", "--data", "x.csv", "--out", "y", "--max-iter", "abc"],
            ["impute", "--out", "y"],
            ["bogus"],
        ],
    )
    def test_usage_error_exit_1(self, capsys, argv):
        # 2 is the code of a failed pipeline stage
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


#: each stage parameter with a value out of its range: the library calls that take
#: it (on a chain-4 matrix and a DAG over its columns), the config key that sets
#: it (None when no key does), and the CLI command and option that set it
_NAN, _INF = float("nan"), float("inf")
_STAGE_PARAMETERS = {
    "ess": (
        (
            lambda m, g, v: fit_cpts(g, m, ess=v),
            lambda m, g, v: em_impute(m, get_learner("hc"), ess=v),
            lambda m, g, v: effects_for_dag(fit_cpts(g, m), m, ess=v),
            lambda m, g, v: compare_models([("g", g)], m, ess=v),
        ),
        "ess",
        (("effects", "--ess"), ("compare", "--ess"), ("impute", "--ess")),
    ),
    "tol": ((lambda m, g, v: em_impute(m, get_learner("hc"), tol=v),), "impute_tol", (("impute", "--tol"),)),
    "max_iter": (
        (lambda m, g, v: em_impute(m, get_learner("hc"), max_iter=v),),
        "impute_max_iter",
        (("impute", "--max-iter"),),
    ),
    "initial_method": (
        (lambda m, g, v: em_impute(m, get_learner("hc"), initial_method=v),),
        "impute_method",
        (("impute", "--method"),),
    ),
    "refutations": (
        (lambda m, g, v: effects_for_dag(fit_cpts(g, m), m, refutations=v),),
        "refutations",
        (("effects", "--refute"),),
    ),
    "correction": ((lambda m, g, v: deterministic_chronology(m, correction=v),), None, (("baseline", "--correction"),)),
    "n_perm": ((lambda m, g, v: falsify(g, m, n_perm=v),), "falsify_perms", (("falsify", "--perms"),)),
}


class TestStageParameterRanges:
    """The library, the config and the CLI reject the same stage parameter values."""

    @pytest.mark.parametrize(
        "param, value",
        [
            ("ess", -1.0),
            ("ess", _NAN),
            ("ess", _INF),
            ("tol", -1.0),
            ("tol", _NAN),
            ("tol", _INF),
            ("max_iter", 0),
            ("initial_method", "x"),
            ("refutations", "x"),
            ("correction", "x"),
            ("n_perm", -1),
        ],
    )
    def test_rejected_everywhere(self, chain_data, tmp_path, capsys, param, value):
        from causalchron.pipeline import PipelineConfig, ScenarioSpec

        calls, key, commands = _STAGE_PARAMETERS[param]
        matrix = load_reads(chain_data)
        dag = Dag(matrix.columns, [("x1", "x2"), ("x2", "x3"), ("x3", "x4")])
        for call in calls:
            with pytest.raises(ValueError, match=f"'{param}' must be"):
                call(matrix, dag, value)
        if key is not None:
            with pytest.raises(ValueError, match=f"^'?{key}'? must be"):
                PipelineConfig(scenario=ScenarioSpec(preset="chain-4", n_rows=50), **{key: value})
        dag_path = tmp_path / "dag.edges"
        write_dag(dag, dag_path)
        inputs = {
            "effects": ["--dag", str(dag_path), "--data", str(chain_data)],
            "compare": ["--model", f"g={dag_path}", "--data", str(chain_data)],
            "impute": ["--data", str(chain_data)],
            "baseline": ["--data", str(chain_data)],
            "falsify": ["--dag", str(dag_path), "--data", str(chain_data)],
        }
        for command, option in commands:
            out = tmp_path / command
            assert main([command, *inputs[command], option, str(value), "--out", str(out)]) == 1
            assert not out.exists()


class TestDagFilesReadOntoTheDataColumns:
    def test_effects_and_compare_reproduce_the_pipeline_bytes(self, tmp_path, capsys):
        # the learned graphs' edge lists name their nodes in another order than the
        # data's columns, which set elimination, tie and adjustment-set order
        from causalchron.pipeline import PipelineConfig, ScenarioSpec, run_pipeline

        run = tmp_path / "run"
        algos = ("hc", "lingam")
        run_pipeline(PipelineConfig(
            scenario=ScenarioSpec(preset="random-8-0.3", n_rows=400, seed=0),
            algorithms=algos,
            refutations="none",
            output_dir=str(run),
        ))
        data = str(run / "data.imputed.csv")
        for algo in algos:
            out = tmp_path / f"effects-{algo}"
            argv = ["effects", "--dag", str(run / f"dag.{algo}.edges"), "--data", data, "--refute", "none"]
            assert main([*argv, "--out", str(out)]) == 0
            assert (out / "effects.csv").read_bytes() == (run / f"effects.{algo}.csv").read_bytes()
        models = [arg for algo in algos for arg in ("--model", f"{algo}={run / f'chronology.{algo}.edges'}")]
        assert main(["compare", "--data", data, *models, "--out", str(tmp_path / "scores.csv")]) == 0
        assert (tmp_path / "scores.csv").read_bytes() == (run / "scores.csv").read_bytes()
