import contextlib
import csv
import inspect
import io
import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample import cli
from treesample.cli import METHODS, RunConfig, main
from treesample.exact import _level_scopes, solve_exact
from treesample.generators import FAMILIES
from treesample.model import COST_MODES, Factor, FactorGraph, load_graph, save_graph
from treesample.prior import (ALGOS, CHECKPOINT_FORMAT, Adam, MLPValueFunction, TrainConfig,
                              load_checkpoint, save_checkpoint)

from conftest import make_random_graph, spec_graph


def _uniform_instance(tmp_path, n=3, k=2, name="uniform.json"):
    g = FactorGraph(
        num_variables=n,
        num_states=k,
        factors=tuple(Factor(scope=(v,), table=np.zeros(k)) for v in range(1, n + 1)),
        ordering=tuple(range(1, n + 1)),
    )
    path = tmp_path / name
    save_graph(g, path)
    return path


def _main_json(argv, quiet_success=False):
    """(exit code, the one JSON object main printed to stdout), with every
    warning recorded; a bug (exit 1) fails here with main's stderr. With
    quiet_success (bench writing its summary to a file), exit 0 prints
    nothing and returns (0, None)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if quiet_success and code == 0:
        assert out.getvalue() == ""
        return code, None
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, out.getvalue()

    def no_bare_constants(token):
        raise AssertionError(f"bare {token} in JSON output")

    data = json.loads(lines[0], parse_constant=no_bare_constants)
    assert isinstance(data, dict)
    if code == 2:
        assert set(data) >= {"error", "message"}
    return code, data


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            RunConfig(method="sis", budget=10, bogus=1)

    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            RunConfig(method="nope", budget=10)
        for key, value in (("budget", -1), ("run_seed", -1), ("metric_samples", 0),
                           ("num_gibbs_sweeps", 0), ("num_message_rounds", 0), ("oracle_cap", 0),
                           ("c", -1.0), ("c", float("nan")), ("epsilon", -0.1),
                           ("epsilon", float("inf"))):
            with pytest.raises(ValueError, match=key):
                RunConfig(**{"method": "sis", "budget": 10, key: value})
        # a bool is an int to Python, but no number here
        for key in ("budget", "run_seed", "c"):
            with pytest.raises(TypeError, match=key):
                RunConfig(**{"method": "sis", "budget": 10, key: True})


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
        code, error = _main_json(["generate", "--family", "nope", "--n", "4", "--seed", "0",
                                  "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert error["error"] == "ValueError"
        assert error["message"].startswith("treesample generate: argument --family: invalid")
        assert not (tmp_path / "x.json").exists()


class TestPickOracle:
    """oracle_cap bounds the largest table the exact oracle builds, K to the
    widest level scope, not the K^N state space."""

    def test_state_space_above_the_cap_gets_an_oracle(self):
        g = spec_graph("fg1", 14, 2, 11)
        cap = 2 ** max(map(len, _level_scopes(g)))
        assert 2**14 > cap
        assert cli.pick_oracle(g, cap) == solve_exact(g)

    def test_widest_table_above_the_cap_gets_none(self):
        g = spec_graph("fg1", 14, 2, 11)
        cap = 2 ** max(map(len, _level_scopes(g)))
        assert cli.pick_oracle(g, cap - 1) is None


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
        assert report["oracle"] == "ExactSolution"
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

    def test_failed_run_writes_no_tree(self, tmp_path):
        # the tree is written after the oracle and the metrics, as --atoms-out is
        instance = tmp_path / "zero.json"
        instance.write_text(json.dumps({"n": 2, "k": 2, "ordering": [1, 2], "factors": [
            {"scope": [1, 2], "log_table": ["-inf"] * 4}]}))
        dump = tmp_path / "tree.json"
        code, error = _main_json(["run", str(instance), "--method", "treesample", "--budget",
                                  "14", "--dump-tree", str(dump)])
        assert (code, error["error"]) == (2, "ZeroMassError")
        assert not dump.exists()

    @pytest.mark.parametrize("method, flag", [("gibbs", "--dump-tree"), ("smc", "--dump-tree"),
                                              ("treesample", "--atoms-out")])
    def test_output_flag_the_method_cannot_fill_rejected(self, tmp_path, capsys, method, flag):
        # a tree dump needs a tree and an atoms file needs particles: neither
        # flag may be dropped without a word
        instance = _uniform_instance(tmp_path)
        out = tmp_path / "out.txt"
        code, error = _main_json(["run", str(instance), "--method", method, "--budget", "300",
                                  "--num-gibbs-sweeps", "2", "--metric-samples", "50", flag,
                                  str(out)])
        assert code == 2
        assert flag in error["message"]
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
        factors = [Factor(scope=(1, 2), table=np.full(4, -np.inf)),
                   Factor(scope=(2, 3), table=np.zeros(4))]
        if not chain:
            factors.append(Factor(scope=(1, 2, 3), table=np.zeros(8)))
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

    def test_bp_with_zero_mass_marginals_exits_0(self, tmp_path):
        # the target has positive mass, but 39 of BP's 110 draws meet a
        # zero-mass marginal; each takes a uniform value instead of ending the run
        g = make_random_graph(np.random.default_rng(29), 5, 3, num_extra_factors=4,
                              neg_inf_frac=0.4, shuffle_ordering=True)
        save_graph(g, tmp_path / "g.json")
        code, report = _main_json(["run", str(tmp_path / "g.json"), "--method", "bp",
                                   "--budget", "2000", "--num-message-rounds", "2",
                                   "--run-seed", "3", "--metric-samples", "50"])
        assert code == 0
        assert (report["method"], report["budget_spent"]) == ("bp", 1980)

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

    def test_jobs_capped_at_the_cells(self, tmp_path, monkeypatch):
        # the pool forks all max_workers processes at its first submit; a
        # stub that maps serially records how many it was asked for
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        for jobs, instances, workers in (("64", "2", [2]), ("2", "3", [2]), ("64", "1", [])):
            seen.clear()
            code, _ = _main_json(["bench", "--family", "chains", "--n", "3", "--methods", "sis",
                                  "--budgets", "40", "--num-instances", instances,
                                  "--metric-samples", "20", "--jobs", jobs,
                                  "--out", str(tmp_path / "b.csv"),
                                  "--summary-out", str(tmp_path / "s.csv")], quiet_success=True)
            assert code == 0 and seen == workers
            assert len((tmp_path / "b.csv").read_text().splitlines()) == 1 + int(instances)

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

    @pytest.mark.parametrize("flag, entries, message", [
        ("--methods", "smc,sis,smc", "--methods lists smc more than once"),
        ("--budgets", "100,50,0100", "--budgets lists 100 more than once"),
    ], ids=["methods", "budgets"])
    def test_repeated_grid_entry_exits_2_before_any_cell(self, tmp_path, monkeypatch, flag,
                                                         entries, message):
        cells = []
        monkeypatch.setattr(cli, "evaluate_run", lambda *args, **kwargs: cells.append(args))
        grid = {"--methods": "smc", "--budgets": "100", flag: entries}
        out = tmp_path / "b.csv"
        code, error = _main_json(["bench", "--family", "fg1", "--n", "5", "--num-instances", "2",
                                  "--metric-samples", "20", "--out", str(out),
                                  *(arg for item in grid.items() for arg in item)])
        assert (code, error) == (2, {"error": "ValueError", "message": message})
        assert cells == [] and not out.exists()

    def test_negative_first_budget_is_one_json_error(self, tmp_path):
        # argparse reads "-1,100" as a flag, so --budgets has no value: a
        # usage error, which exits 2 with one JSON object like any bad input
        out = tmp_path / "b.csv"
        code, error = _main_json(["bench", "--family", "chains", "--n", "5", "--methods", "sis",
                                  "--budgets", "-1,100", "--num-instances", "1",
                                  "--out", str(out)])
        assert code == 2
        assert error == {"error": "ValueError", "message":
                         "treesample bench: argument --budgets: expected one argument"}
        assert not out.exists()

    def test_summary_keeps_runs_with_infinite_kl(self, tmp_path, capsys):
        # a tiny alpha puts exact zeros in the tables; one Gibbs sweep then
        # leaves some chains on zero-mass configurations, whose KL is +inf
        out, summary = tmp_path / "b.csv", tmp_path / "s.csv"
        code = main(["bench", "--family", "permuted_chains", "--n", "6", "--k", "3",
                     "--params", json.dumps({"alpha": 0.005}), "--methods", "gibbs",
                     "--budgets", "400", "--num-instances", "12", "--num-gibbs-sweeps", "1",
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


# the GeneratorSpec flags of generate and bench, with their choices and help
_INSTANCE_HELP = ["--family {" + ",".join(sorted(FAMILIES)) + "} the instance family",
                  "--n N the number of variables", "--k K the number of states of each variable",
                  "--params PARAMS a JSON object of family parameters"]


# command -> (its config class, the fields it takes by other flags, the
# arguments it requires)
_FIELD_FLAG_COMMANDS = {
    "run": (RunConfig, (), ["g.json", "--method", "sis", "--budget", "10"]),
    "bench": (RunConfig, ("method", "budget", "run_seed"),
              ["--family", "fg1", "--n", "3", "--methods", "sis", "--budgets", "10",
               "--num-instances", "1", "--out", "b.csv"]),
    "train": (TrainConfig, ("episodes",),
              ["g.json", "--episodes", "1", "--checkpoint-out", "c", "--metrics-out", "m"]),
}


class TestFieldFlags:
    @pytest.mark.parametrize("command", sorted(_FIELD_FLAG_COMMANDS))
    def test_every_field_is_a_flag_of_its_type(self, command):
        cls, skip, required = _FIELD_FLAG_COMMANDS[command]
        for f in fields(cls):
            if f.name in skip:
                continue
            value = {"int": 7, "float": 0.25, "str": "x.ckpt"}[f.type]
            value = (f.metadata.get("choices") or [value])[-1]
            args = cli.build_parser().parse_args(
                [command, *required, f"--{f.name.replace('_', '-')}", str(value)])
            given = cli._given_fields(cls, args)[f.name]
            assert given == value and type(given) is type(value)

    @pytest.mark.parametrize("argv, message", [
        ("run {instance} --meth sis --budget 10", "required: --method"),
        ("run {instance} --method sis --budget 10 --metric 20",
         "unrecognized arguments: --metric 20"),
        ("bench --family chains --n 3 --method sis --budget 30 --num-inst 1 --metric 20 "
         "--out {d}/b.csv", "required: --methods, --budgets, --num-instances"),
        ("train {instance} --epi 1 --checkpoint-out {d}/t.ckpt --metrics-out {d}/t.csv",
         "required: --episodes"),
    ], ids=["run", "run-optional", "bench", "train"])
    def test_abbreviated_flag_exits_2(self, tmp_path, argv, message):
        # argparse would otherwise expand a unique prefix to the full flag
        instance = _uniform_instance(tmp_path)
        code, error = _main_json(argv.format(d=tmp_path, instance=instance).split())
        assert code == 2 and error["error"] == "ValueError"
        assert message in error["message"]
        assert not [p for p in tmp_path.iterdir() if p.name != instance.name]

    @pytest.mark.parametrize("command, expected", [
        ("run", ["--method {" + ",".join(METHODS) + "}", "--cost-mode {" + ",".join(COST_MODES)
                 + "}", "--prior PRIOR 'heuristic' or a checkpoint path"]),
        ("bench", _INSTANCE_HELP + ["--cost-mode {" + ",".join(COST_MODES) + "}",
                                    "--prior PRIOR 'heuristic' or a checkpoint path"]),
        ("train", ["--algo {" + ",".join(ALGOS) + "}"]),
        ("generate", _INSTANCE_HELP + ["--seed SEED the seed of the instance's draw"]),
    ])
    def test_help_lists_choices_and_help_of_the_fields(self, capsys, command, expected):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for entry in expected:
            assert entry in text
        assert "--config" not in text  # flags are the one way to set a run
        if command == "bench":  # its instance seeds start at --instance-seed
            assert "--seed" not in text


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
            metric_samples=8, seed=4, resample_threshold=0.25)
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

    def test_verbose_writes_one_json_row_per_episode(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        code = main(["train", str(instance), "--episodes", "2", "--budget-per-episode", "20",
                     "--samples-per-episode", "4", "--batch-size", "4", "--metric-samples", "8",
                     "--verbose", "--checkpoint-out", str(tmp_path / "m.ckpt"),
                     "--metrics-out", str(tmp_path / "m.csv")])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [row["episode"] for row in rows] == [0, 1]

    def test_resume_keeps_the_checkpoint_algo(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        ckpt, ckpt2 = tmp_path / "model.ckpt", tmp_path / "model2.ckpt"
        metrics = str(tmp_path / "m.csv")
        common = ["--budget-per-episode", "20", "--samples-per-episode", "4", "--batch-size",
                  "4", "--metric-samples", "8"]
        assert main(["train", str(instance), "--algo", "smc", "--episodes", "1"] + common
                    + ["--checkpoint-out", str(ckpt), "--metrics-out", metrics]) == 0
        assert main(["train", str(instance), "--episodes", "2", "--resume", str(ckpt),
                     "--checkpoint-out", str(ckpt2), "--metrics-out", metrics]) == 0
        assert load_checkpoint(ckpt2)[3].algo == "smc"

    def test_invalid_search_params_exit_2(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        for flag, value in (("--c", "nan"), ("--epsilon", "-1")):
            code, error = _main_json(["train", str(instance), "--episodes", "1", flag, value,
                                      "--checkpoint-out", str(tmp_path / "m.ckpt"),
                                      "--metrics-out", str(tmp_path / "m.csv")])
            assert code == 2
            assert "must be finite and non-negative" in error["message"]

    @pytest.mark.parametrize("algo", ["treesample", "smc"])
    def test_bad_resample_threshold_exits_2_before_training(self, tmp_path, algo):
        instance = _uniform_instance(tmp_path)
        ckpt, metrics = tmp_path / "m.ckpt", tmp_path / "m.csv"
        code, error = _main_json(["train", str(instance), "--algo", algo, "--episodes", "1",
                                  "--budget-per-episode", "20", "--samples-per-episode", "4",
                                  "--batch-size", "4", "--metric-samples", "8",
                                  "--resample-threshold", "7", "--checkpoint-out", str(ckpt),
                                  "--metrics-out", str(metrics)])
        assert code == 2
        assert error["message"] == "resample_threshold must lie in [0, 1]"
        assert not ckpt.exists() and not metrics.exists()

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
        code, error = _main_json(["train", str(instance), "--episodes", "1", "--resume",
                                  str(ckpt), "--checkpoint-out", str(ckpt2),
                                  "--metrics-out", metrics])
        assert code == 2
        assert "--episodes" in error["message"]
        assert not ckpt2.exists()

    def test_resume_rejects_config_flags(self, tmp_path, capsys):
        instance = _uniform_instance(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        common = ["--checkpoint-out", str(ckpt), "--metrics-out", str(tmp_path / "m.csv")]
        assert main(["train", str(instance), "--episodes", "1", "--budget-per-episode", "20",
                     "--samples-per-episode", "8", "--batch-size", "8"] + common) == 0
        before = ckpt.read_bytes()
        code, error = _main_json(["train", str(instance), "--episodes", "2", "--resume",
                                  str(ckpt), "--learning-rate", "0.01", "--c", "1.0",
                                  "--resample-threshold", "0.3", "--algo", "treesample"] + common)
        assert code == 2
        for flag in ("--learning-rate", "--c", "--resample-threshold", "--algo"):
            assert flag in error["message"]
        assert ckpt.read_bytes() == before


class TestPriorScale:
    """A prior trained by either algo outputs soft values, so every
    prior-guided method takes its checkpoint."""

    @pytest.mark.parametrize("algo, method, exit_code", [
        ("smc", "treesample", 0), ("smc", "smc", 0), ("smc", "sis", 0),
        ("treesample", "treesample", 0), ("treesample", "smc", 0),
    ])
    def test_run_checks_the_checkpoint_scale(self, tmp_path, algo, method, exit_code):
        instance = _uniform_instance(tmp_path)
        mlp = MLPValueFunction(3 * 3, 2, hidden_units=4, num_hidden_layers=1)
        save_checkpoint(tmp_path / "p.ckpt", mlp, Adam(mlp.parameters()), 0,
                        TrainConfig(algo=algo))
        code, out = _main_json(["run", str(instance), "--method", method, "--budget", "30",
                                "--metric-samples", "8", "--prior", str(tmp_path / "p.ckpt")])
        assert code == exit_code
        assert out["method"] == method


# ---------------------------------------------------------------------------
# the error contract: exit 0 with a JSON report or 2 with one JSON error
# ---------------------------------------------------------------------------


class TestErrorContract:
    @pytest.fixture
    def files(self, tmp_path):
        instance = _uniform_instance(tmp_path)
        (tmp_path / "nofactors.json").write_text(json.dumps({"n": 1, "k": 2, "ordering": [1]}))
        (tmp_path / "bare.ckpt").write_bytes(json.dumps({"format": CHECKPOINT_FORMAT}).encode()
                                              + b"\n")
        mlp = MLPValueFunction(3 * 3, 2, hidden_units=4, num_hidden_layers=1)  # the instance's
        save_checkpoint(tmp_path / "float.ckpt", mlp, Adam(mlp.parameters()), 0, TrainConfig())
        header, blocks = (tmp_path / "float.ckpt").read_bytes().split(b"\n", 1)
        header = dict(json.loads(header), hidden_units=4.0)
        (tmp_path / "float.ckpt").write_bytes(json.dumps(header).encode() + b"\n" + blocks)
        header = dict(header, hidden_units=4, num_hidden_layers=10**12)
        (tmp_path / "huge.ckpt").write_bytes(json.dumps(header).encode() + b"\n" + blocks)
        # hidden_units true: Python counts it as 1, which fits these blocks
        mlp = MLPValueFunction(3 * 3, 2, hidden_units=1, num_hidden_layers=1)
        save_checkpoint(tmp_path / "bool.ckpt", mlp, Adam(mlp.parameters()), 0, TrainConfig())
        header, blocks = (tmp_path / "bool.ckpt").read_bytes().split(b"\n", 1)
        header = dict(json.loads(header), hidden_units=True)
        (tmp_path / "bool.ckpt").write_bytes(json.dumps(header).encode() + b"\n" + blocks)
        mlp = MLPValueFunction(5 * 3, 2, hidden_units=4, num_hidden_layers=1)  # an n5 k2 graph's
        save_checkpoint(tmp_path / "n5.ckpt", mlp, Adam(mlp.parameters()), 0, TrainConfig())
        # instance files with an entry of the wrong JSON type, each of which
        # Python would take as an int
        pair = {"n": 2, "k": 2, "ordering": [1, 2],
                "factors": [{"scope": [1, 2], "log_table": [0.0] * 4}]}
        for name, entries in (("boolscope", {"factors": [{"scope": [True, 2],
                                                          "log_table": [0.0] * 4}]}),
                              ("floatn", {"n": 2.9}), ("strk", {"k": "2"})):
            (tmp_path / f"{name}.json").write_text(json.dumps(dict(pair, **entries)))
        # JSON nested deeper than the decoder's recursion limit
        (tmp_path / "deep.json").write_text("[" * 5000)
        (tmp_path / "deep.ckpt").write_bytes(b'{"a":' * 5000 + b"\n")
        return tmp_path, str(instance)

    @pytest.mark.parametrize("probe", [
        "run {instance} --budget 10",
        "run {d}/missing.json --method sis --budget 10",
        "run {d}/nofactors.json --method sis --budget 10",
        "run {instance} --method treesample --budget 10 --c -1",
        "generate --family chains --n 3 --seed 0 --out {d}/g.json --params {{\"foo\":1}}",
        "run {instance} --method treesample --budget 10 --prior {d}/bare.ckpt",
        "generate --family chains --n 3 --seed 0 --out {d}",
        "bench --family chains --n 3 --methods sis --budgets 10 --num-instances 1 "
        "--out {d}/b.csv --jobs 0",
        "bench --family chains --n 3 --methods sis --budgets 10 --num-instances 0 "
        "--out {d}/b.csv",
        "generate --family permuted_chains --n 4 --k 3 --seed 0 --out {d}/g.json "
        "--params {{\"alpha\":\"x\"}}",
        "generate --family chains --n 3 --seed 0 --out {d}/g.json "
        "--params {{\"kernel_bandwidth\":0}}",
        "generate --family chains --n 3 --seed 0 --out {d}/g.json "
        "--params {{\"kernel_bandwidth\":1e300}}",
        "train {instance} --episodes 3 --budget-per-episode 20 --samples-per-episode 8 "
        "--batch-size 4 --learning-rate 1e30 --checkpoint-out {d}/t.ckpt --metrics-out {d}/t.csv",
        "run {instance} --method sis --budget 10 --prior {d}/n5.ckpt",
        "train {instance} --episodes 2 --resume {d}/n5.ckpt --checkpoint-out {d}/t.ckpt "
        "--metrics-out {d}/t.csv",
        "run {instance} --method sis --budget 10 --cost-mode bogus",
        "run {instance} --method smc --budget 10 --resample-threshold 1.5",
        "train {instance} --episodes 0 --checkpoint-out {d}/t.ckpt --metrics-out {d}/t.csv",
        "train {instance} --episodes 1 --batch-size 0 --checkpoint-out {d}/t.ckpt "
        "--metrics-out {d}/t.csv",
        "run {instance} --method sis --budget 10 --prior {d}/float.ckpt",
        "run {instance} --method sis --budget 10 --prior {d}/huge.ckpt",
        "train {instance} --episodes 2 --resume {d}/huge.ckpt --checkpoint-out {d}/t.ckpt "
        "--metrics-out {d}/t.csv",
        "generate --family chains --n 3 --seed 0 --out {d}/g.json "
        "--params {{\"coupling\":true}}",
        "run {instance} --method treesample --budget 10 --prior {d}/bool.ckpt",
        "run {d}/boolscope.json --method sis --budget 10",
        "run {d}/floatn.json --method sis --budget 10",
        "run {d}/strk.json --method sis --budget 10",
        "generate --family chains --n 3 --seed 0 --out {d}/g.json --params null",
        "run {d}/deep.json --method sis --budget 10",
        "run {instance} --method sis --budget 10 --prior {d}/deep.ckpt",
        "generate --family chains --n 3 --seed 0 --out {d}/g.json --params " + "[" * 5000,
    ], ids=["no-method", "missing-instance",
            "instance-without-factors", "negative-c", "unknown-generator-param",
            "checkpoint-header-without-keys", "generate-out-is-a-directory", "bench-jobs-0",
            "bench-num-instances-0", "mistyped-generator-param",
            "generator-param-divides-by-zero", "generator-param-overflows", "diverging-training",
            "run-prior-of-another-graph-size", "resume-of-another-graph-size",
            "config-unknown-cost-mode", "resample-threshold-above-1", "train-zero-episodes",
            "train-zero-batch-size", "checkpoint-float-size", "run-prior-of-a-huge-header",
            "resume-of-a-huge-header", "bool-generator-param", "checkpoint-bool-size",
            "instance-bool-scope-entry", "instance-float-n", "instance-str-k",
            "generator-params-null", "instance-nested-too-deep",
            "checkpoint-header-nested-too-deep", "generator-params-nested-too-deep"])
    def test_input_error_exits_2_with_one_json_object(self, files, probe):
        d, instance = files
        code, error = _main_json(probe.format(d=d, instance=instance).split())
        assert code == 2
        assert error["message"]

    @pytest.mark.parametrize("probe, message", [
        ("generate --family chains --n 0 --seed 0 --out {d}/g.json",
         "a graph needs n >= 1 variables of k >= 2 states"),
        ("generate --family chains --n 3 --k 2 --seed 0 --out {d}/g.json "
         "--params {{\"kernel_scale\":-1.0}}",
         "GP kernel not positive definite even after jitter escalation"),
        ("run {d}/n0.json --method sis --budget 10", "num_variables must be positive"),
        ("run {d}/k1.json --method sis --budget 10", "num_states must be at least 2"),
        ("generate --family chains --n 3 --seed -1 --out {d}/g.json",
         "seed must be non-negative"),
        ("run {d}/uniform.json --method treesample --budget 10 --run-seed -1",
         "run_seed must be non-negative"),
        ("run {d}/uniform.json --method smc --budget 10 --run-seed -1",
         "run_seed must be non-negative"),
        ("run {d}/uniform.json --method gibbs --budget 10 --run-seed -1",
         "run_seed must be non-negative"),
        ("bench --family chains --n 3 --methods sis --budgets 10 --num-instances 1 "
         "--run-seed -1 --out {d}/b.csv", "run_seed must be non-negative"),
        ("bench --family chains --n 3 --methods sis --budgets 10 --num-instances 1 "
         "--instance-seed -1 --out {d}/b.csv", "--instance-seed must be at least 0"),
        ("train {d}/uniform.json --episodes 1 --seed -1 --checkpoint-out {d}/t.ckpt "
         "--metrics-out {d}/t.csv", "seed must be non-negative"),
        ("run {d}/uniform.json --method sis --budget 10 --config {d}/cfg.json",
         "treesample: unrecognized arguments: --config {d}/cfg.json"),
        ("bench --family chains --n 3 --methods sis --budgets 10 --num-instances 1 "
         "--config {d}/cfg.json --out {d}/b.csv",
         "treesample: unrecognized arguments: --config {d}/cfg.json"),
        ("generate --family chains --n 3 --seed 0 --out {d}/g.json --params {{\"jitter\":0.0}}",
         "jitter must lie in (0, 1e-2], not 0.0"),
        ("generate --family chains --n 3 --seed 0 --out {d}/g.json --params {{\"jitter\":-1.0}}",
         "jitter must lie in (0, 1e-2], not -1.0"),
        ("generate --family chains --n 3 --seed 0 --out {d}/g.json --params {{\"jitter\":0.1}}",
         "jitter must lie in (0, 1e-2], not 0.1"),
        ("train {d}/uniform.json --episodes 1 --batch-size 10001 --checkpoint-out {d}/t.ckpt "
         "--metrics-out {d}/t.csv", "batch_size must be at most the replay capacity, 10000"),
        ("generate --family chains --n 3 --seed 0 --out {d}/g.json --params [1]",
         "treesample generate: argument --params: not a JSON object"),
        ("generate --family chains --n 3 --seed 0 --out {d}/g.json --params " + "[" * 5000,
         "treesample generate: argument --params: the value nests JSON too deeply to decode"),
    ], ids=["generate-n-0", "generate-kernel-not-positive-definite", "run-instance-n-0",
            "run-instance-k-1", "generate-negative-seed",
            "run-treesample-negative-run-seed", "run-smc-negative-run-seed",
            "run-gibbs-negative-run-seed", "bench-negative-run-seed",
            "bench-negative-instance-seed", "train-negative-seed", "run-config-file",
            "bench-config-file", "generate-jitter-0", "generate-negative-jitter",
            "generate-jitter-above-escalation-cap", "train-batch-above-replay-capacity",
            "generate-params-not-an-object", "generate-params-nested-too-deep"])
    def test_input_check_exits_2_with_its_message(self, tmp_path, probe, message):
        (tmp_path / "n0.json").write_text(json.dumps(
            {"n": 0, "k": 2, "ordering": [], "factors": []}))
        (tmp_path / "k1.json").write_text(json.dumps(
            {"n": 1, "k": 1, "ordering": [1], "factors": [{"scope": [1], "log_table": [0.0]}]}))
        _uniform_instance(tmp_path)
        # a valid file of RunConfig fields: run and bench take no --config
        (tmp_path / "cfg.json").write_text(json.dumps({"method": "sis", "budget": 10}))
        code, error = _main_json(probe.format(d=tmp_path).split())
        assert code == 2
        assert error["message"] == message.format(d=tmp_path)
        assert not (tmp_path / "g.json").exists() and not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("exc", [KeyError("k"), TypeError("t")])
    def test_program_key_or_type_error_exits_1(self, tmp_path, capsys, monkeypatch, exc):
        def broken_evaluate_run(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "evaluate_run", broken_evaluate_run)
        code = main(["run", str(_uniform_instance(tmp_path)), "--method", "sis", "--budget", "30"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"internal error: {type(exc).__name__}")

    def test_bench_cell_bug_exits_1(self, tmp_path, capsys, monkeypatch):
        # a bug in one cell is no CSV error row
        def broken_evaluate_run(*args, **kwargs):
            raise KeyError("k")

        monkeypatch.setattr(cli, "evaluate_run", broken_evaluate_run)
        out = tmp_path / "b.csv"
        code = main(["bench", "--family", "chains", "--n", "3", "--methods", "sis",
                     "--budgets", "30", "--num-instances", "1", "--out", str(out)])
        assert code == 1
        assert not out.exists()


# field -> (valid values, out-of-range values); "mlp" names a checkpoint
# that fits the graph, "mlp-other-graph" one that does not
_FUZZ_FIELDS = {
    "method": (st.sampled_from(METHODS), st.just("bogus")),
    "budget": (st.integers(0, 300), st.just(-1)),
    "cost_mode": (st.sampled_from(("reward_eval", "factor_eval")), st.just("bogus")),
    "c": (st.floats(0.0, 5.0), st.sampled_from([-1.0, math.nan, math.inf])),
    "epsilon": (st.floats(0.0, 2.0), st.sampled_from([-0.1, math.nan, math.inf])),
    "resample_threshold": (st.floats(0.0, 1.0), st.sampled_from([-0.5, 1.5, math.nan])),
    "num_gibbs_sweeps": (st.integers(1, 3), st.just(0)),
    "num_message_rounds": (st.integers(1, 3), st.just(0)),
    "metric_samples": (st.integers(1, 30), st.just(0)),
    "run_seed": (st.integers(0, 2**32), st.just(-1)),
    "prior": (st.sampled_from(["heuristic", "mlp"]), st.sampled_from(["mlp-other-graph",
                                                                      "missing.ckpt"])),
    "oracle_cap": (st.integers(1, 40), st.just(0)),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), k=st.integers(2, 3), graph_seed=st.integers(0, 2**32 - 1),
       extra_factors=st.integers(0, 3), neg_inf_frac=st.sampled_from([0.0, 0.5, 1.0]),
       zero_mass=st.booleans(), data=st.data())
def test_run_fuzz_exits_0_or_2_with_one_json_object(tmp_path_factory, n, k, graph_seed,
                                                    extra_factors, neg_inf_frac, zero_mass,
                                                    data):
    """Random RunConfig fields on tiny graphs with -inf entries and zero mass,
    at most one field out of range, missing or mistyped: never exit 1, never
    a RuntimeWarning, always one JSON object."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(graph_seed)
    g = make_random_graph(rng, n, k, num_extra_factors=extra_factors if n > 1 else 0,
                          neg_inf_frac=neg_inf_frac, shuffle_ordering=True)
    if zero_mass:
        first = g.factors[0]  # the unary factor of variable 1
        g = replace(g, factors=(replace(first, table=np.full(k, -np.inf)),) + g.factors[1:])
    save_graph(g, d / "g.json")
    for name, dim in (("mlp", g.num_variables * (k + 1)), ("mlp-other-graph", 5)):
        mlp = MLPValueFunction(dim, k, hidden_units=4, num_hidden_layers=1)
        save_checkpoint(d / name, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())

    config = {name: data.draw(valid, label=name) for name, (valid, _) in _FUZZ_FIELDS.items()}
    fault = data.draw(st.sampled_from([None, None, None, "out of range", "missing", "mistyped"]),
                      label="fault")
    faulty = data.draw(st.sampled_from(sorted(_FUZZ_FIELDS)), label="faulty field")
    if fault == "missing":
        del config[faulty]
    elif fault is not None:
        config[faulty] = data.draw(_FUZZ_FIELDS[faulty][1] if fault == "out of range"
                                   else st.sampled_from([None, [1]]), label=faulty)
    if config.get("prior") in ("mlp", "mlp-other-graph", "missing.ckpt"):
        config["prior"] = str(d / config["prior"])
    budget = config.get("budget")
    # every field goes as a flag; a bad flag value is a usage error,
    # reported as one JSON object
    argv = ["run", str(d / "g.json"), "--no-telemetry"]
    argv += [f"--{name.replace('_', '-')}={value}" for name, value in config.items()]
    code, out = _main_json(argv)
    flag = f"--{faulty.replace('_', '-')}"
    # every text is a str, so a --prior flag cannot be mistyped: it names a path
    if fault == "mistyped" and faulty != "prior":
        assert code == 2
        assert out["message"].startswith(f"treesample run: argument {flag}: invalid")
    if fault == "missing" and faulty in ("method", "budget"):
        assert code == 2
        assert out["message"].endswith(f"required: {flag}")
    # a checkpoint is read only by the methods that take a prior; any other
    # value out of range fails up front
    if fault == "out of range" and faulty != "prior":
        assert code == 2
    if code == 0:
        assert out["budget_spent"] <= budget


# generator parameter names of every family, so that a draw is often a
# parameter of another family (unknown here), plus one of no family
_PARAM_NAMES = sorted({name for gen in FAMILIES.values()
                       for name in list(inspect.signature(gen).parameters)[3:]} | {"bogus"})
_PARAM_VALUES = st.one_of(st.integers(-2, 12), st.floats(), st.sampled_from([0.0, -1.0, 1e300]),
                          st.booleans(), st.none(), st.text(max_size=2),
                          st.lists(st.integers(0, 3), max_size=1))


def _params_arg(data, family) -> str:
    """A --params value: a JSON object of random names, most of them the
    family's own, and values of any type; sometimes no object or no JSON."""
    own = list(inspect.signature(FAMILIES[family]).parameters)[3:]
    names = st.one_of(st.sampled_from(own), st.sampled_from(own), st.sampled_from(_PARAM_NAMES))
    params = data.draw(st.dictionaries(names, _PARAM_VALUES, max_size=2), label="params")
    form = data.draw(st.sampled_from(["object", "object", "object", "list", "malformed"]),
                     label="params form")
    if form == "list":
        return json.dumps(list(params))
    return json.dumps(params) + ("}" if form == "malformed" else "")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(1, 7), k=st.integers(2, 3),
       seed=st.integers(-1, 2**32), data=st.data())
def test_generate_fuzz_exits_0_or_2_with_one_json_object(tmp_path_factory, family, n, k, seed,
                                                         data):
    """Random family parameters of any type, known, unknown or of another
    family: never exit 1, never a RuntimeWarning, always one JSON object."""
    out = tmp_path_factory.mktemp("gen") / "g.json"
    code, report = _main_json(["generate", "--family", family, "--n", str(n), "--k", str(k),
                               "--seed", str(seed), "--out", str(out),
                               "--params", _params_arg(data, family)])
    if code == 0:
        assert report["n"] == load_graph(out).num_variables == n


# RunConfig fields bench takes as flags, other than its grid, --run-seed,
# --metric-samples and --prior (whose checkpoint paths need files)
_BENCH_FLAG_FIELDS = ["cost_mode", "c", "epsilon", "resample_threshold", "num_gibbs_sweeps",
                      "num_message_rounds", "oracle_cap"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(1, 5), k=st.integers(2, 3),
       methods=st.lists(st.sampled_from(METHODS + ("bogus",)), min_size=1, max_size=3),
       budgets=st.lists(st.integers(-1, 150), min_size=1, max_size=2),
       num_instances=st.integers(1, 2), metric_samples=st.integers(1, 20),
       with_params=st.booleans(), data=st.data())
def test_bench_fuzz_exits_0_or_2_with_one_json_object(tmp_path_factory, family, n, k, methods,
                                                      budgets, num_instances, metric_samples,
                                                      with_params, data):
    """Tiny grids, serial, with bad methods, budgets and generator
    parameters: exit 0 with a CSV row per cell and nothing on stdout, or 2
    with one JSON object; never exit 1 or a RuntimeWarning."""
    d = tmp_path_factory.mktemp("bench")
    # "--budgets=-1": argparse reads a separate "-1,5" as a flag
    argv = ["bench", "--family", family, "--n", str(n), "--k", str(k),
            "--methods", ",".join(methods), "--budgets=" + ",".join(map(str, budgets)),
            "--num-instances", str(num_instances), "--metric-samples", str(metric_samples),
            "--jobs", "1", "--out", str(d / "b.csv"), "--summary-out", str(d / "s.csv")]
    if with_params:
        argv += ["--params", _params_arg(data, family)]
    for name in data.draw(st.lists(st.sampled_from(_BENCH_FLAG_FIELDS), unique=True),
                          label="field flags"):
        argv.append(f"--{name.replace('_', '-')}={data.draw(_FUZZ_FIELDS[name][0], label=name)}")
    code, _ = _main_json(argv, quiet_success=True)
    if code == 0:
        with open(d / "b.csv") as fh:
            assert len(list(csv.DictReader(fh))) == len(methods) * len(budgets) * num_instances


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), k=st.integers(2, 3), graph_seed=st.integers(0, 2**32 - 1),
       neg_inf_frac=st.sampled_from([0.0, 0.5]), algo=st.sampled_from(["treesample", "smc"]),
       episodes=st.integers(1, 3), budget=st.integers(1, 60), samples=st.integers(1, 8),
       batch_size=st.integers(1, 8),
       learning_rate=st.sampled_from([1e-3, 1.0, 10.0, 1e3, 1e6, 1e10, 1e15, 1e20, 1e30]),
       resume=st.sampled_from([None, "fits", "other-graph-size"]))
def test_train_fuzz_exits_0_or_2_with_one_json_object(tmp_path_factory, n, k, graph_seed,
                                                      neg_inf_frac, algo, episodes, budget,
                                                      samples, batch_size, learning_rate, resume):
    """Learning rates up to 1e30 on tiny graphs with -inf entries, fresh or
    resumed from a checkpoint that fits the graph or not: never exit 1,
    never a RuntimeWarning, always one JSON object."""
    d = tmp_path_factory.mktemp("train")
    rng = np.random.default_rng(graph_seed)
    save_graph(make_random_graph(rng, n, k, num_extra_factors=2 if n > 1 else 0,
                                 neg_inf_frac=neg_inf_frac), d / "g.json")
    argv = ["train", str(d / "g.json"), "--episodes", str(episodes),
            "--checkpoint-out", str(d / "out.ckpt"), "--metrics-out", str(d / "m.csv")]
    config = TrainConfig(budget_per_episode=budget, samples_per_episode=samples,
                         batch_size=batch_size, learning_rate=learning_rate, metric_samples=8,
                         algo=algo)
    if resume is None:
        argv += [f"--{f.replace('_', '-')}={getattr(config, f)}" for f in
                 ("algo", "budget_per_episode", "samples_per_episode", "batch_size",
                  "learning_rate", "metric_samples")]
    else:
        dim = n * (k + 1) if resume == "fits" else n * (k + 1) + 1
        mlp = MLPValueFunction(dim, k, hidden_units=8, num_hidden_layers=2)
        save_checkpoint(d / "in.ckpt", mlp, Adam(mlp.parameters(), learning_rate), 0, config)
        argv += ["--resume", str(d / "in.ckpt")]
    code, out = _main_json(argv)
    if resume == "other-graph-size":
        assert code == 2 and "input_dim" in out["message"]
    if code == 0:
        assert out["episodes"] == episodes
