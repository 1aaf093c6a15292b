import csv
import json
import math
import warnings

import numpy as np
import pytest

from treesample import cli
from treesample.cli import METHODS, RunConfig, main
from treesample.model import Factor, FactorGraph, load_graph, save_graph
from treesample.prior import TrainConfig, load_checkpoint


def _uniform_instance(tmp_path, n=3, k=2, name="uniform.json"):
    g = FactorGraph(
        num_variables=n,
        num_states=k,
        factors=tuple(Factor(id=v - 1, scope=(v,), table=np.zeros(k)) for v in range(1, n + 1)),
        ordering=tuple(range(1, n + 1)),
    )
    path = tmp_path / name
    save_graph(g, path)
    return path


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"method": "sis", "budget": 10, "bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"method": "nope", "budget": 10})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"method": "sis", "budget": -1})
        for key, value in (("metric_samples", 0), ("num_gibbs_sweeps", 0),
                           ("num_message_rounds", 0), ("oracle_cap", 0), ("c", -1.0),
                           ("c", float("nan")), ("epsilon", -0.1), ("epsilon", float("inf"))):
            with pytest.raises(ValueError, match=key):
                RunConfig.from_dict({"method": "sis", "budget": 10, key: value})


class TestGenerate:
    def test_chain_instance_file(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        code = main(["generate", "--family", "chains", "--n", "10", "--k", "5",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        g = load_graph(out)
        assert g.num_factors == 19

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--family", "fg2", "--n", "8", "--seed", "3", "--out", str(a)])
        main(["generate", "--family", "fg2", "--n", "8", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_family_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "nope", "--n", "4", "--seed", "0",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestRun:
    def test_treesample_uniform_kl_zero(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        code = main(["run", str(instance), "--method", "treesample", "--budget", "100",
                     "--metric-samples", "200", "--no-telemetry"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["kl"]) <= 1e-9
        assert report["budget_spent"] <= 100

    def test_smc_threshold_zero_matches_sis(self, tmp_path, capsys):
        code = main(["generate", "--family", "chains", "--n", "6", "--k", "3",
                     "--seed", "5", "--out", str(tmp_path / "c.json")])
        assert code == 0
        capsys.readouterr()
        outputs = {}
        for method, extra in (("sis", []), ("smc", ["--resample-threshold", "0.0"])):
            atoms = tmp_path / f"{method}.jsonl"
            code = main(["run", str(tmp_path / "c.json"), "--method", method,
                         "--budget", "120", "--run-seed", "7", "--metric-samples", "100",
                         "--atoms-out", str(atoms), "--no-telemetry"] + extra)
            assert code == 0
            outputs[method] = (atoms.read_bytes(), json.loads(capsys.readouterr().out))
        assert outputs["sis"][0] == outputs["smc"][0]
        assert outputs["sis"][1]["delta_kl"] == outputs["smc"][1]["delta_kl"]

    def test_chain_uses_exact_oracle(self, tmp_path, capsys):
        main(["generate", "--family", "chains", "--n", "10", "--k", "5",
              "--seed", "2", "--out", str(tmp_path / "c.json")])
        capsys.readouterr()
        code = main(["run", str(tmp_path / "c.json"), "--method", "treesample",
                     "--budget", "10000", "--metric-samples", "500", "--no-telemetry"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kl"] is not None
        assert report["oracle"] == "ChainSolution"
        assert report["kl"] == pytest.approx(report["delta_kl"] + report["log_z"], abs=1e-9)

    def test_budget_too_small_structured_error(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        code = main(["run", str(instance), "--method", "sis", "--budget", "2"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "BudgetTooSmallError"

    def test_dump_tree(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        dump = tmp_path / "tree.json"
        main(["run", str(instance), "--method", "treesample", "--budget", "14",
              "--metric-samples", "50", "--dump-tree", str(dump), "--no-telemetry"])
        data = json.loads(dump.read_text())
        assert data["root_complete"] is True
        assert data["num_nodes"] == 15

    @pytest.mark.parametrize("method, flag", [("gibbs", "--dump-tree"), ("smc", "--dump-tree"),
                                              ("treesample", "--atoms-out")])
    def test_output_flag_the_method_cannot_fill_rejected(self, tmp_path, capsys, method, flag):
        # a tree dump needs a tree and an atoms file needs particles: neither
        # flag may be dropped without a word
        instance = _uniform_instance(tmp_path)
        out = tmp_path / "out.txt"
        code = main(["run", str(instance), "--method", method, "--budget", "300",
                     "--num-gibbs-sweeps", "2", "--metric-samples", "50", flag, str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_atoms_out(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        out = tmp_path / "atoms.jsonl"
        code = main(["run", str(instance), "--method", "sis", "--budget", "30",
                     "--metric-samples", "50", "--atoms-out", str(out)])
        assert code == 0
        atoms = [json.loads(line) for line in out.read_text().splitlines()]
        assert atoms and all(len(a["x"]) == 3 for a in atoms)
        assert sum(a["weight"] for a in atoms) == pytest.approx(1.0)

    def test_deterministic_stdout(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        args = ["run", str(instance), "--method", "gibbs", "--budget", "300",
                "--num-gibbs-sweeps", "2", "--run-seed", "3", "--metric-samples", "64",
                "--no-telemetry"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("chain", [True, False], ids=["chain", "loopy"])
    @pytest.mark.parametrize("method", METHODS)
    def test_zero_mass_structured_error(self, tmp_path, capsys, method, chain):
        # every configuration has log-density -inf: the (x1, x2) factor is all
        # -inf; with a third-order factor the graph is no chain and
        # solve_exact is the oracle
        factors = [Factor(id=0, scope=(1, 2), table=np.full(4, -np.inf)),
                   Factor(id=1, scope=(2, 3), table=np.zeros(4))]
        if not chain:
            factors.append(Factor(id=2, scope=(1, 2, 3), table=np.zeros(8)))
        g = FactorGraph(num_variables=3, num_states=2, factors=tuple(factors),
                        ordering=(1, 2, 3))
        path = tmp_path / "zero.json"
        save_graph(g, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(path), "--method", method, "--budget", "1000",
                         "--metric-samples", "50", "--num-gibbs-sweeps", "2",
                         "--num-message-rounds", "2", "--no-telemetry"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] in ("ZeroMassError", "DegenerateSampleError")
        assert err["method"] == method
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("method, flag", [("gibbs", "--num-gibbs-sweeps"),
                                              ("bp", "--num-message-rounds"),
                                              ("treesample", "--metric-samples")])
    def test_zero_count_rejected(self, tmp_path, capsys, method, flag):
        # zero sweeps or rounds would make a sample cost nothing; zero metric
        # samples would average an empty set of draws
        instance = _uniform_instance(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(instance), "--method", method, "--budget", "100",
                         flag, "0", "--no-telemetry"])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_config_file_with_unknown_key(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "sis", "budget": 50, "mystery": True}))
        code = main(["run", str(instance), "--config", str(cfg)])
        assert code == 2


class TestBench:
    def test_grid_shape_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        summary = tmp_path / "s1.csv"
        args = ["bench", "--family", "chains", "--n", "5", "--k", "2",
                "--methods", "treesample,sis", "--budgets", "60",
                "--num-instances", "3", "--metric-samples", "100",
                "--summary-out", str(summary)]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 7  # header + 2 methods x 1 budget x 3 instances
        assert out1.read_bytes() == out2.read_bytes()
        srows = summary.read_text().strip().splitlines()
        assert len(srows) == 3  # header + one summary row per (method, budget)

    def test_metric_samples_flag_overrides_config_file(self, tmp_path, capsys, monkeypatch):
        scored = []
        evaluate_run = cli.evaluate_run

        def recording_evaluate_run(graph, config, **kwargs):
            scored.append(config.metric_samples)
            return evaluate_run(graph, config, **kwargs)

        monkeypatch.setattr(cli, "evaluate_run", recording_evaluate_run)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"metric_samples": 50}))
        base = ["bench", "--family", "chains", "--n", "5", "--k", "2", "--methods", "treesample",
                "--budgets", "20", "--num-instances", "1", "--config", str(config),
                "--summary-out", str(tmp_path / "s.csv")]
        assert main(base + ["--metric-samples", "100", "--out", str(tmp_path / "a.csv")]) == 0
        assert main(base + ["--out", str(tmp_path / "b.csv")]) == 0
        assert scored == [100, 50]

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        base = ["bench", "--family", "chains", "--n", "5", "--k", "2",
                "--methods", "treesample,smc,gibbs", "--budgets", "40,400",
                "--num-instances", "2", "--metric-samples", "100"]
        outputs = []
        for jobs in ("1", "2"):
            out, summary = tmp_path / f"b{jobs}.csv", tmp_path / f"s{jobs}.csv"
            assert main(base + ["--jobs", jobs, "--out", str(out),
                                "--summary-out", str(summary)]) == 0
            outputs.append((out.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == 13  # header + 3 methods x 2 budgets x 2

    def test_budget_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["bench", "--family", "chains", "--n", "5", "--k", "2",
                     "--methods", "smc", "--budgets", "40,80,160",
                     "--num-instances", "2", "--metric-samples", "50",
                     "--out", str(out), "--summary-out", str(tmp_path / "s.csv")])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 7  # header + 3 budgets x 2 instances

    def test_cell_failures_are_null_rows(self, tmp_path, capsys):
        out = tmp_path / "fail.csv"
        code = main(["bench", "--family", "chains", "--n", "5", "--k", "2",
                     "--methods", "sis", "--budgets", "2",
                     "--num-instances", "1", "--out", str(out),
                     "--summary-out", str(tmp_path / "s.csv")])
        assert code == 0
        import csv as csvmod

        with open(out) as fh:
            rows = list(csvmod.DictReader(fh))
        assert rows[0]["error"].startswith("BudgetTooSmallError")
        assert rows[0]["delta_kl"] == ""

    def test_summary_keeps_runs_with_infinite_kl(self, tmp_path, capsys):
        # a tiny alpha puts exact zeros in the tables; one Gibbs sweep then
        # leaves some chains on zero-mass configurations, whose KL is +inf
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"num_gibbs_sweeps": 1}))
        out, summary = tmp_path / "b.csv", tmp_path / "s.csv"
        code = main(["bench", "--family", "permuted_chains", "--n", "6", "--k", "3",
                     "--params", json.dumps({"alpha": 0.005}), "--methods", "gibbs",
                     "--budgets", "400", "--num-instances", "12", "--config", str(config),
                     "--out", str(out), "--summary-out", str(summary)])
        assert code == 0
        with open(out) as fh:
            kls = [float(r["kl"]) for r in csv.DictReader(fh)]
        assert kls.count(math.inf) == 6
        with open(summary) as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["metric"] == "kl" and int(row["count"]) == 12
        assert float(row["mean"]) == float(row["median"]) == float(row["std"]) == math.inf
        finite = sorted(k for k in kls if k < math.inf)
        assert float(row["q25"]) == pytest.approx(np.interp(2.75, range(6), finite))


class TestTrain:
    def test_single_episode_and_resume(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        metrics = tmp_path / "metrics.csv"
        code = main(["train", str(instance), "--episodes", "1",
                     "--budget-per-episode", "20", "--samples-per-episode", "8",
                     "--batch-size", "8", "--metric-samples", "8", "--seed", "4",
                     "--resample-threshold", "0.25",
                     "--checkpoint-out", str(ckpt), "--metrics-out", str(metrics)])
        assert code == 0
        # flags left out keep the TrainConfig defaults
        assert load_checkpoint(ckpt)[3] == TrainConfig(
            episodes=1, budget_per_episode=20, samples_per_episode=8, batch_size=8,
            metric_samples=8, seed=4, smc_threshold=0.25)
        rows = metrics.read_text().strip().splitlines()
        assert len(rows) == 2  # header + one episode

        ckpt2 = tmp_path / "model2.ckpt"
        metrics2 = tmp_path / "metrics2.csv"
        code = main(["train", str(instance), "--episodes", "2", "--resume", str(ckpt),
                     "--checkpoint-out", str(ckpt2), "--metrics-out", str(metrics2)])
        assert code == 0
        import csv as csvmod

        with open(metrics2) as fh:
            resumed = list(csvmod.DictReader(fh))
        assert [r["episode"] for r in resumed] == ["1"]  # continues the index

    def test_invalid_search_params_exit_2(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        for flag, value in (("--c", "nan"), ("--epsilon", "-1")):
            code = main(["train", str(instance), "--episodes", "1", flag, value,
                         "--checkpoint-out", str(tmp_path / "m.ckpt"),
                         "--metrics-out", str(tmp_path / "m.csv")])
            assert code == 2
            assert "must be finite and non-negative" in capsys.readouterr().err

    def test_resume_cannot_go_back(self, tmp_path, capsys):
        # a checkpoint of 3 episodes resumed with --episodes 1 would train
        # nothing and write a checkpoint at episode 1 with 3 episodes of Adam
        # steps, so a later resume would rerun episodes 1-2 on used seeds
        instance = _uniform_instance(tmp_path)
        ckpt, ckpt2 = tmp_path / "model.ckpt", tmp_path / "model2.ckpt"
        metrics = str(tmp_path / "m.csv")
        assert main(["train", str(instance), "--episodes", "3", "--budget-per-episode", "20",
                     "--samples-per-episode", "4", "--batch-size", "4", "--metric-samples", "8",
                     "--checkpoint-out", str(ckpt), "--metrics-out", metrics]) == 0
        code = main(["train", str(instance), "--episodes", "1", "--resume", str(ckpt),
                     "--checkpoint-out", str(ckpt2), "--metrics-out", metrics])
        assert code == 2
        assert "--episodes" in capsys.readouterr().err
        assert not ckpt2.exists()

    def test_resume_rejects_config_flags(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        common = ["--checkpoint-out", str(ckpt), "--metrics-out", str(tmp_path / "m.csv")]
        assert main(["train", str(instance), "--episodes", "1", "--budget-per-episode", "20",
                     "--samples-per-episode", "8", "--batch-size", "8"] + common) == 0
        before = ckpt.read_bytes()
        code = main(["train", str(instance), "--episodes", "2", "--resume", str(ckpt),
                     "--learning-rate", "0.01", "--c", "1.0", "--resample-threshold", "0.3"]
                    + common)
        assert code == 2
        err = capsys.readouterr().err
        for flag in ("--learning-rate", "--c", "--resample-threshold"):
            assert flag in err
        assert ckpt.read_bytes() == before
