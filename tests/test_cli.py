import argparse
import hashlib
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collabpred import cli
from collabpred.batch import BatchSample
from collabpred.cli import build_parser, main
from collabpred.core import SequenceDataset, read_examples, read_section


def _write(path, obj):
    path.write_text(json.dumps(obj))


# what a bucket width `g` must be: 1/g buckets, a whole number up to GRID_MAX
_WIDTH = "a bucket width 1/n, n a whole number in [1,2000]"

# a config's mode picks its runner, one of the four protocol families
MODE_MUST = "config: field 'mode' must be one of \"online\", \"batch\", \"decision\", \"bayes\""

# at ρ = 2·10⁶ Bob's four signals x_a ± 1/(2ρ) print to six decimals as two labels
_RHO_2E6 = ("rho 2000000.0 is too large for the rho prior: Bob's signals print to six "
            "decimals as 2 labels, not 4")


def _online_config(tmp_path, **extra):
    cfg = {
        "mode": "online",
        "seed": 3,
        "days": 120,
        "rounds": 4,
        "eps": 0.2,
        "dataset": {"generator": "additive-linear-noise",
                    "params": {"signal_a": 0.3, "signal_b": 0.3}},
        "alice": {"kind": "conversation", "m": 5, "g": 0.25},
        "bob": {"kind": "conversation", "m": 5, "g": 0.25},
        "bucketing": {"g": 0.25, "m": 5},
        "out": str(tmp_path / "report.json"),
        "transcript": str(tmp_path / "transcript.txt"),
        "csv": str(tmp_path / "metrics.csv"),
    }
    cfg.update(extra)
    return cfg


class TestRun:
    def test_online_run_writes_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, _online_config(tmp_path))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "sqe" in report and "slack_beta" in report
        lines = (tmp_path / "transcript.txt").read_text().splitlines()
        assert lines[0] == "120 4"
        csv_lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert csv_lines[0].startswith("round,sqe,ece,disagreement@")
        assert len(csv_lines) == 5

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_field_rejected_with_name(self, tmp_path, capsys):
        cfg = _online_config(tmp_path)
        cfg["tyop"] = 1
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "tyop" in capsys.readouterr().err

    def test_missing_required_field_named(self, tmp_path, capsys):
        cfg = _online_config(tmp_path)
        del cfg["eps"]
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "eps" in capsys.readouterr().err

    def test_missing_dataset_path_exits_2(self, tmp_path, capsys):
        cfg = _online_config(tmp_path, dataset={"path": str(tmp_path / "absent.json")})
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("mode, message", [
        ("online", "a dataset must be a JSON object, found list"),
        ("batch", "a batch sample must be a JSON object, found list"),
        ("bayes", "a prior must be a JSON object, found list"),
    ])
    def test_list_shaped_input_file_exits_2(self, tmp_path, capsys, mode, message):
        bad = tmp_path / "list.json"
        _write(bad, [1, 2])
        cfg = {
            "online": _online_config(tmp_path, dataset={"path": str(bad)}),
            "batch": {"mode": "batch", "seed": 1, "m": 4, "data": str(bad)},
            "bayes": {"mode": "bayes", "seed": 1, "rounds": 2, "m": 4,
                      "prior": {"path": str(bad)}},
        }[mode]
        _write(tmp_path / "cfg.json", cfg)
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bayes_prior_with_integer_labels(self, tmp_path):
        _write(tmp_path / "prior.json", {
            "atoms": [{"a": a, "b": b, "y": float(a * b), "p": 0.25}
                      for a in (0, 1) for b in (0, 1)],
            "encoding": {side: {"0": [-1.0], "1": [1.0]} for side in ("a", "b")},
        })
        _write(tmp_path / "cfg.json", {
            "mode": "bayes", "seed": 1, "rounds": 2, "m": 4,
            "prior": {"path": str(tmp_path / "prior.json")},
            "out": str(tmp_path / "bayes.json"),
        })
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        assert (tmp_path / "bayes.json").exists()

    def test_uncertified_fit_exits_3(self, tmp_path, capsys, monkeypatch):
        import collabpred.weaklearn as weaklearn

        monkeypatch.setattr(weaklearn, "_KKT_RTOL", -1.0)
        _write(tmp_path / "cfg.json", {"mode": "bayes", "seed": 1, "rounds": 2, "m": 4,
                                       "prior": {"rho": 2}})
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not certified" in err

    def test_constant_learner_outside_unit_interval_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, _online_config(tmp_path, alice={"kind": "constant", "value": 1.5}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == \
            "error: alice: field 'value' must lie in [0,1], found 1.5\n"

    def test_unknown_generator_parameter_exits_2(self, tmp_path, capsys):
        cfg = _online_config(tmp_path, dataset={"generator": "xor", "params": {"noise": 0.1}})
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset: generator 'xor': ") and "noise" in err

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, _online_config(tmp_path))
        main(["run", "--config", str(cfg_path)])
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("report.json", "transcript.txt", "metrics.csv")
        }
        main(["run", "--config", str(cfg_path)])
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_batch_mode_config(self, tmp_path):
        ma = tmp_path / "a.json"
        mb = tmp_path / "b.json"
        cfg = {
            "mode": "batch", "seed": 4, "m": 6, "C": 1.0,
            "data": {"n": 200},
            "out": str(tmp_path / "batch.json"),
            "out_model_a": str(ma), "out_model_b": str(mb),
        }
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "batch.json").read_text())
        assert rep["rounds"] >= 1
        assert rep["swap_regret_union"] <= 3.0 / 6
        assert ma.exists() and mb.exists()

    def test_verify_mode_config(self, tmp_path, capsys):
        # the checks run as `collab verify` only
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, {"mode": "verify"})
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {MODE_MUST}, found \"verify\"\n"

    def test_bayes_mode_with_prior_path(self, tmp_path):
        prior_path = tmp_path / "prior.json"
        main(["gen-data", "--generator", "prior", "--prior-name", "additive",
              "--seed", "1", "--out", str(prior_path)])
        cfg = {
            "mode": "bayes", "seed": 1, "rounds": 4, "m": 16,
            "prior": {"path": str(prior_path)},
            "out": str(tmp_path / "bayes.json"),
        }
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "bayes.json").read_text())
        assert all(v <= rep["swap_regret_cap"] + 1e-12
                   for v in rep["expected_conversation_swap_regret"].values())

    def test_bayes_mode(self, tmp_path):
        cfg = {
            "mode": "bayes", "seed": 1, "rounds": 4, "m": 16,
            "prior": "additive", "out": str(tmp_path / "bayes.json"),
        }
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "bayes.json").read_text())
        assert rep["expected_sqe_by_round"]["2"] == 0.0

    def test_decision_mode(self, tmp_path):
        cfg = {
            "mode": "decision", "seed": 5, "days": 300, "rounds": 2,
            "task": {"d": 2, "actions": ["x", "y"], "utility": [[1, 0], [0, 1]]},
            "out": str(tmp_path / "dec.json"),
        }
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "dec.json").read_text())
        assert rep["decision_swap_regret"] <= rep["bound"] + 1e-9

    def test_decision_mode_with_policy_file(self, tmp_path):
        policies = {"policies": {"alternate": [t % 2 for t in range(200)]}}
        pol_path = tmp_path / "policies.json"
        _write(pol_path, policies)
        cfg = {
            "mode": "decision", "seed": 6, "days": 200, "rounds": 2,
            "task": {"d": 2, "actions": ["x", "y"], "utility": [[1, 0], [0, 1]]},
            "policies": str(pol_path),
            "out": str(tmp_path / "dec.json"),
        }
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "dec.json").read_text())
        assert rep["decision_swap_regret"] <= rep["bound"] + 1e-9


def _read_dataset(path) -> SequenceDataset:
    with open(path) as fh:
        x_a, x_b, y, seed = read_examples(fh, "a dataset")
    return SequenceDataset(x_a, x_b, y, seed=seed)


class TestGenData:
    def test_dataset_roundtrip(self, tmp_path):
        out = tmp_path / "data.json"
        assert main(["gen-data", "--generator", "xor", "--days", "50",
                     "--seed", "2", "--out", str(out)]) == 0
        ds = _read_dataset(out)
        assert ds.T == 50
        assert set(ds.y.tolist()) <= {0.0, 1.0}

    def test_norm_bounds_hold(self, tmp_path):
        out = tmp_path / "data.json"
        main(["gen-data", "--generator", "additive-linear-noise", "--days", "80",
              "--seed", "4", "--out", str(out)])
        ds = _read_dataset(out)
        assert np.all(np.linalg.norm(ds.x_a, axis=1) <= 1 + 1e-9)
        assert np.all((0.0 <= ds.y) & (ds.y <= 1.0))

    def test_unknown_generator_exits_2(self, tmp_path, capsys):
        # the message lists every generator gen-data takes
        assert main(["gen-data", "--generator", "mystery", "--seed", "1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == (
            "error: gen-data: field 'generator' must be one of \"additive-linear-noise\", "
            "\"d-rho\", \"xor\", \"swap-necessity\", \"decision-iid\", \"batch-additive\", "
            "\"prior\", found \"mystery\"\n")

    @pytest.mark.parametrize("name", ["foo", ""])
    def test_unknown_prior_name_exits_2(self, tmp_path, capsys, name):
        # the message lists every prior gen-data builds; an empty name is no default
        assert main(["gen-data", "--generator", "prior", "--prior-name", name, "--seed", "1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == (
            "error: gen-data: field 'prior-name' must be one of \"xor\", \"additive\", "
            f"\"rho\", \"custom\", found {json.dumps(name)}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--generator", "xor", "--prior-name", "custom"],
         "--prior-name does not apply to --generator xor"),
        (["--generator", "prior", "--prior-name", "xor", "--rho", "5"],
         "--rho does not apply to --prior-name xor"),
        (["--generator", "prior", "--prior-name", "rho", "--atoms", "missing.json"],
         "--atoms does not apply to --prior-name rho"),
    ], ids=["prior-name", "rho", "atoms"])
    def test_flags_the_generator_does_not_read_exit_2(self, tmp_path, capsys, argv, message):
        # a prior flag that the chosen generator or prior ignores is refused
        out = tmp_path / "out.json"
        assert main(["gen-data", *argv, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: gen-data: {message}\n"
        assert not out.exists()

    def test_batch_params_are_read(self, tmp_path):
        out = tmp_path / "pairs.json"
        assert main(["gen-data", "--generator", "batch-additive", "--days", "5", "--seed", "1",
                     "--params", '{"d_a": 5}', "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["examples"]
        # d_a features and the constant; Bob keeps the default d_b = 3
        assert {(len(r["xa"]), len(r["xb"])) for r in rows} == {(6, 4)}

    @pytest.mark.parametrize("generator, message", [
        ("batch-additive", "gen-data: generator 'batch-additive': unknown field 'bogus'"),
        ("xor", "gen-data: generator 'xor': unknown field 'bogus'"),
        ("prior", "gen-data: --params does not apply to --generator prior"),
    ], ids=["batch-additive", "xor", "prior"])
    def test_unknown_params_exit_2(self, tmp_path, capsys, generator, message):
        out = tmp_path / "out.json"
        assert main(["gen-data", "--generator", generator, "--seed", "1",
                     "--params", '{"bogus": 1}', "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("generator", ["batch-additive", "xor", "prior"])
    @pytest.mark.parametrize("days", [0, -3])
    def test_days_below_one_exit_2(self, tmp_path, capsys, generator, days):
        out = tmp_path / "out.json"
        assert main(["gen-data", "--generator", generator, "--days", str(days), "--seed", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: gen-data: --days must be at least 1, found {days}\n"
        assert not out.exists()

    @pytest.mark.parametrize("generator", ["batch-additive", "xor", "prior"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, generator):
        out = tmp_path / "out.json"
        assert main(["gen-data", "--generator", generator, "--days", "5", "--seed", "-3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: gen-data: --seed must be at least 0, found -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("rho, message", [
        ("nan", "gen-data: field 'rho' must be a number, found NaN"),
        ("inf", "gen-data: field 'rho' must be a number, found Infinity"),
        ("0.5", "gen-data: field 'rho' must be at least 1, found 0.5"),
        ("2e6", _RHO_2E6),
    ])
    def test_bad_rho_exit_2(self, tmp_path, capsys, rho, message):
        # --rho is checked as the config's prior.rho is
        out = tmp_path / "prior.json"
        assert main(["gen-data", "--generator", "prior", "--prior-name", "rho", "--rho", rho,
                     "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_malformed_params_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["gen-data", "--generator", "xor", "--seed", "1", "--params", "{bad",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: gen-data: --params is not valid JSON: Expecting property name enclosed "
            "in double quotes: line 1 column 2 (char 1)\n")
        assert not out.exists()

    def test_prior_generator(self, tmp_path):
        out = tmp_path / "prior.json"
        assert main(["gen-data", "--generator", "prior", "--prior-name", "xor",
                     "--seed", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["atoms"]) == 4

    def test_custom_prior_encoder(self, tmp_path):
        atoms = {"atoms": [
            {"a": "lo", "b": "x", "y": 0.1, "p": 0.5},
            {"a": "hi", "b": "x", "y": 0.9, "p": 0.5},
        ]}
        atoms_path = tmp_path / "atoms.json"
        _write(atoms_path, atoms)
        out = tmp_path / "prior.json"
        assert main(["gen-data", "--generator", "prior", "--prior-name", "custom",
                     "--atoms", str(atoms_path), "--seed", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["encoding"]["a"]["hi"] == [-1.0] or data["encoding"]["a"]["hi"] == [1.0]
        assert data["encoding"]["b"]["x"] == [0.0]

    def test_run_with_dataset_path(self, tmp_path):
        data_path = tmp_path / "data.json"
        main(["gen-data", "--generator", "additive-linear-noise", "--days", "60",
              "--seed", "9", "--out", str(data_path)])
        cfg = _online_config(tmp_path, dataset={"path": str(data_path)}, days=60)
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0

    def test_solo_and_swap_learner_kinds(self, tmp_path):
        cfg = _online_config(
            tmp_path,
            alice={"kind": "vaw"},
            bob={"kind": "swap", "m": 5},
            solo_baselines=True,
        )
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert "solo_sqe" in rep and rep["solo_sqe"]["alice"] > 0

    def test_multiple_configs_one_invocation(self, tmp_path):
        paths = []
        for i in (1, 2):
            cfg = _online_config(tmp_path)
            cfg["seed"] = i
            cfg["out"] = str(tmp_path / f"report{i}.json")
            cfg["transcript"] = str(tmp_path / f"t{i}.txt")
            cfg["csv"] = str(tmp_path / f"m{i}.csv")
            p = tmp_path / f"cfg{i}.json"
            _write(p, cfg)
            paths.append(str(p))
        assert main(["run", "--config", *paths]) == 0
        assert (tmp_path / "report1.json").exists()
        assert (tmp_path / "report2.json").exists()

    def test_multiple_configs_return_the_largest_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        _write(bad, _online_config(tmp_path, bogus=1))
        good = tmp_path / "good.json"
        _write(good, _online_config(tmp_path, out=str(tmp_path / "good.json.out")))
        assert main(["run", "--config", str(bad), str(good)]) == 2
        assert "unknown field 'bogus'" in capsys.readouterr().err
        assert (tmp_path / "good.json.out").exists()


# one small config per mode, each output named relative to the working directory
_SEAM_CONFIGS = {
    "online": _online_config(Path(".")),
    "batch": {"mode": "batch", "seed": 4, "m": 6, "C": 1.0, "data": {"n": 200},
              "out": "batch.json", "out_model_a": "a.json", "out_model_b": "b.json"},
    "decision": {"mode": "decision", "seed": 5, "days": 300, "rounds": 2,
                 "task": {"d": 2, "actions": ["x", "y"], "utility": [[1, 0], [0, 1]]},
                 "out": "dec.json"},
    "bayes": {"mode": "bayes", "seed": 1, "rounds": 4, "m": 16, "prior": "additive",
              "out": "bayes.json"},
}

_ONE_FILE = "must name a file that no other output field names"
# an input that does not exist, so that a run which reaches it exits with another message
_MISSING_INPUT = {"online": {"dataset": {"path": "missing.json"}}, "batch": {"data": "missing.json"}}


class TestRunSeam:
    """Each `run_<mode>` returns its outputs and writes nothing; `run_config`
    writes each output whose field is set, through `cli._write`."""

    @staticmethod
    def _run(tmp_path, monkeypatch, name, cfg):
        """The files, name to bytes, that `collab run` of cfg writes in tmp_path/name."""
        _write(tmp_path / f"{name}.json", cfg)
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(["run", "--config", str(tmp_path / f"{name}.json")]) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    @pytest.mark.parametrize("mode", list(_SEAM_CONFIGS))
    def test_runner_returns_its_outputs_and_writes_nothing(self, tmp_path, monkeypatch, mode):
        cfg = _SEAM_CONFIGS[mode]
        monkeypatch.chdir(tmp_path)
        outputs = getattr(cli, f"run_{mode}")(read_section(cfg, f"{mode} config"))
        assert tuple(outputs) == cli._OUTPUTS[mode]
        assert list(tmp_path.iterdir()) == []
        # written one by one, the outputs have the bytes that `collab run` writes
        (tmp_path / "seam").mkdir()
        for f, output in outputs.items():
            cli._write(str(tmp_path / "seam" / cfg[f]), output)
        written = {p.name: p.read_bytes() for p in (tmp_path / "seam").iterdir()}
        assert written == self._run(tmp_path, monkeypatch, "run", cfg)

    @pytest.mark.parametrize("mode, field", [
        ("online", "transcript"), ("online", "csv"), ("online", "out"),
        ("batch", "out_model_a"), ("batch", "out_model_b"), ("batch", "out"),
        ("decision", "out"), ("bayes", "out"),
    ])
    def test_a_null_output_field_writes_no_file(self, tmp_path, monkeypatch, mode, field):
        cfg = _SEAM_CONFIGS[mode]
        every = self._run(tmp_path, monkeypatch, "every", cfg)
        assert set(every) == {cfg[f] for f in cli._OUTPUTS[mode]}
        del every[cfg[field]]
        assert self._run(tmp_path, monkeypatch, "null", {**cfg, field: None}) == every

    @pytest.mark.parametrize("mode, names, named", [
        ("online", {"out": "same.txt", "csv": "same.txt"}, ("csv", '"same.txt"')),
        ("online", {"transcript": "same.txt", "out": "./same.txt"},
         ("transcript", '"same.txt"')),
        ("batch", {"out_model_a": "m.json", "out_model_b": "m.json"},
         ("out_model_a", '"m.json"')),
        ("batch", {"out_model_b": "sub/../m.json", "out": "m.json"},
         ("out_model_b", '"sub/../m.json"')),
    ], ids=["online", "online-dot", "batch-models", "batch-dotdot"])
    def test_two_output_fields_naming_one_file_exit_2(self, tmp_path, monkeypatch, capsys,
                                                       mode, names, named):
        # refused before the run's input is read
        cfg = {**_SEAM_CONFIGS[mode], **_MISSING_INPUT[mode], **names}
        (tmp_path / "sub").mkdir()
        _write(tmp_path / "cfg.json", cfg)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "cfg.json"]) == 2
        field, found = named
        assert capsys.readouterr().err == (
            f"error: {mode} config: field '{field}' {_ONE_FILE}, found {found}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]


class TestInputContract:
    """Malformed datasets, configs and transcripts exit 2 naming what is wrong;
    only an uncertified fit exits 3."""

    @staticmethod
    def _run(tmp_path, cfg):
        _write(tmp_path / "cfg.json", cfg)
        return main(["run", "--config", str(tmp_path / "cfg.json")])

    @staticmethod
    def _dataset(tmp_path, generator, edit):
        path = tmp_path / "data.json"
        assert main(["gen-data", "--generator", generator, "--days", "6", "--seed", "1",
                     "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        edit(data)
        _write(path, data)
        return {"path": str(path)}

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["examples"][3].update(y=None),
         "a dataset: entry 3: field 'y' must be a number or a list of numbers, found null"),
        (lambda d: d["examples"][1].update(xa={"v": 1}),
         "a dataset: entry 1: field 'xa' must be a list of numbers, found {\"v\": 1}"),
        (lambda d: d["examples"][2].pop("xb"), "a dataset: entry 2: field 'xb' is missing"),
        (lambda d: d["examples"][0].update(y="0.5"),
         "a dataset: entry 0: field 'y' must be a number or a list of numbers, found \"0.5\""),
        (lambda d: d["examples"][4].update(xa=[[0.5]]),
         "a dataset: entry 4: field 'xa' must be a list of numbers, found [[0.5]]"),
        (lambda d: d["examples"][5].update(xb=[0.5, 0.5]),
         "a dataset: entry 5: field 'xb' has shape (2,), entry 0 has (1,)"),
        (lambda d: d.update(seed="1"), "a dataset: field 'seed' must be an integer, found \"1\""),
        (lambda d: d.update(examples=[]),
         "a dataset: field 'examples' must be a non-empty list of objects, found []"),
        (lambda d: d["examples"][2].update(y=1.5), "day 3: label y = 1.5 outside [0,1]"),
        (lambda d: [e.update(y=[e["y"], 0.5]) for e in d["examples"]],
         "dataset: field 'y' must have shape (T,) for an online run, found (6, 2)"),
    ], ids=["null", "object", "missing", "string", "nested", "ragged", "seed", "empty",
            "out-of-range", "vector-labels-online"])
    def test_bad_online_dataset_exits_2(self, tmp_path, capsys, edit, message):
        cfg = _online_config(tmp_path, dataset=self._dataset(tmp_path, "xor", edit))
        assert self._run(tmp_path, cfg) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("generator, found", [("xor", "(6,)"), ("decision-iid", "(6, 3)")],
                             ids=["scalar-labels", "wrong-width"])
    def test_decision_labels_must_match_the_task(self, tmp_path, capsys, generator, found):
        cfg = {"mode": "decision", "seed": 1, "days": 6, "rounds": 2,
               "task": {"d": 2, "utility": [[1, 0], [0, 1]]},
               "dataset": self._dataset(tmp_path, generator, lambda d: None)}
        assert self._run(tmp_path, cfg) == 2
        assert capsys.readouterr().err == (
            f"error: dataset: field 'y' must have shape (T, 2) for this task, found {found}\n")

    BAYES = {"mode": "bayes", "seed": 1, "rounds": 2, "m": 4, "prior": "xor"}
    BATCH = {"mode": "batch", "seed": 1, "m": 4, "data": {"n": 30}}
    DECISION = {"mode": "decision", "seed": 1, "days": 6, "rounds": 2,
                "task": {"d": 2, "utility": [[1, 0], [0, 1]]}}
    POLICY_P = "a policies file: field 'p' must be a list of 6 action indices in [0,2)"

    @pytest.mark.parametrize("cfg, message", [
        ([1, 2], "config must be a JSON object, found list"),
        ({"alice": [1]}, "online config: field 'alice' must be a JSON object, found [1]"),
        (dict(DECISION, task=[1, 2]),
         "decision config: field 'task' must be a JSON object, found [1, 2]"),
        (dict(DECISION, task={"utility": [[1, 0], ["x", 1]]}),
         "task: field 'utility' must be a non-empty list of equal-length, non-empty lists of "
         "finite numbers, found [[1, 0], [\"x\", 1]]"),
        (dict(DECISION, task={"utility": [[1, 0]], "actions": 3}),
         "task: field 'actions' must be a list of names, found 3"),
        (dict(DECISION, task={"d": 7, "utility": [[1, 0], [0, 1]]}),
         "task: field 'd' must be the utility matrix's column count 2, found 7"),
        (dict(DECISION, task={"utility": [[1, 0], [0, 1]], "actions": []}),
         "task: field 'actions' must name the utility matrix's 2 rows, found 0 names"),
        (dict(BAYES, prior=5), "prior must be a JSON object, found int"),
        (dict(BAYES, prior="foo"),
         "bayes config: field 'prior' must be one of \"xor\", \"additive\", found \"foo\""),
        ({"rounds": None}, "online config: field 'rounds' must be an integer, found null"),
        ({"eps": [0.2]}, "online config: field 'eps' must be a number, found [0.2]"),
        ({"eps": 1.5}, "online config: field 'eps' must lie in (0,1), found 1.5"),
        (dict(BAYES, eps=0), "bayes config: field 'eps' must lie in (0,1), found 0"),
        (dict(BAYES, eps=-1), "bayes config: field 'eps' must lie in (0,1), found -1"),
        (dict(BAYES, eps=1.5), "bayes config: field 'eps' must lie in (0,1), found 1.5"),
        ({"rounds": 1}, "online config: field 'rounds' must be at least 2, found 1"),
        ({"seed": None}, "online config: field 'seed' must be an integer, found null"),
        ({"days": 2.5}, "online config: field 'days' must be an integer, found 2.5"),
        ({"days": 0}, "online config: field 'days' must be at least 1, found 0"),
        ({"mode": ["online"]}, f"{MODE_MUST}, found [\"online\"]"),
        ({"out": 1}, "online config: field 'out' must be a file path, found 1"),
        ({"bucketing": {"g": 0}}, f"bucketing: field 'g' must be {_WIDTH}, found 0"),
        ({"dataset": {"generator": ["xor"]}},
         "dataset: field 'generator' must be one of \"additive-linear-noise\", \"d-rho\", "
         "\"xor\", \"swap-necessity\", \"decision-iid\", found [\"xor\"]"),
        ({"dataset": {"generator": "xor", "params": [1]}},
         "dataset: field 'params' must be a JSON object, found [1]"),
        ({"dataset": {"generator": "d-rho", "params": {"rho": "2"}}},
         "dataset: generator 'd-rho': field 'rho' must be a number, found \"2\""),
        (dict(BAYES, prior={"rho": None}), "prior: field 'rho' must be a number, found null"),
        # the rho prior labels Bob's signals to six decimals: past ρ ≈ 10⁶ they merge
        (dict(BAYES, prior={"rho": 2e6}), _RHO_2E6),
        # a learner kind accepts only the fields it reads; its dimension is the dataset's
        ({"alice": {"kind": "conversation", "C": 1.0}}, "alice: unknown field 'C'"),
        ({"bob": {"kind": "swap", "d": 3}}, "bob: unknown field 'd'"),
        ({"bob": {"kind": "swap", "m": 4, "g": 0.3}}, "bob: unknown field 'g'"),
        ({"alice": {"kind": "constant", "m": 4}}, "alice: unknown field 'm'"),
        ({"alice": {"kind": "vaw", "value": 0.5}}, "alice: unknown field 'value'"),
        # every grid size lies in [1, GRID_MAX], checked before anything is allocated
        (dict(BAYES, m=1e20), "bayes config: field 'm' must lie in [1,2000], found 1e+20"),
        (dict(BAYES, m=1e308), "bayes config: field 'm' must lie in [1,2000], found 1e+308"),
        (dict(BAYES, m=2001), "bayes config: field 'm' must lie in [1,2000], found 2001"),
        (dict(BATCH, m=2 ** 32), "batch config: field 'm' must lie in [1,2000], found 4294967296"),
        ({"alice": {"kind": "conversation", "m": 4294967296}},
         "alice: field 'm' must lie in [1,2000], found 4294967296"),
        ({"solo_baselines": "no"},
         "online config: field 'solo_baselines' must be true or false, found \"no\""),
        (dict(BAYES, rounds=0), "bayes config: field 'rounds' must be at least 1, found 0"),
        # an optional path may be null, a required one may not
        (dict(BAYES, prior={"path": None}),
         "prior: field 'path' or 'rho' must be given, found {\"path\": null}"),
        ({"dataset": {"path": None}}, "dataset: field 'path' must be a file path, found null"),
    ], ids=["config-list", "alice-list", "task-list", "task-matrix", "task-actions", "task-d",
            "task-action-count",
            "prior-int", "prior-name-unknown", "rounds-null", "eps-list", "eps-outside", "bayes-eps-zero",
            "bayes-eps-negative", "bayes-eps-outside", "rounds-one", "seed-null",
            "days-fraction", "days-zero", "mode-list", "out-int", "bucket-width-zero", "generator-list", "params-list",
            "param-string", "rho-null", "rho-unrepresentable", "learner-C", "learner-d",
            "swap-g", "constant-m",
            "vaw-value", "bayes-m-1e20", "bayes-m-1e308", "bayes-m-above-bound", "batch-m-2^32",
            "learner-m-2^32", "solo-baselines-string", "bayes-rounds-zero", "prior-path-null",
            "dataset-path-null"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, cfg, message):
        if isinstance(cfg, dict) and "mode" not in cfg:
            cfg = _online_config(tmp_path, **cfg)
        assert self._run(tmp_path, cfg) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("site", ["bucketing", "alice"])
    def test_bucket_width_off_the_grid_exits_2(self, tmp_path, capsys, site):
        # 1/g must be a whole number of buckets up to GRID_MAX: past it, a
        # tiny g would build a tuple of 1/g bucket edges
        for g in (0.3, 1 / 2001, 0):
            cfg = _online_config(tmp_path)
            cfg[site]["g"] = g
            assert self._run(tmp_path, cfg) == 2
            assert capsys.readouterr().err == (
                f"error: {site}: field 'g' must be {_WIDTH}, found {json.dumps(g)}\n")

    @pytest.mark.parametrize("g", [None, 1 / 2000], ids=["default", "grid-max"])
    def test_bucket_width_on_the_grid_runs(self, tmp_path, g):
        cfg = _online_config(tmp_path, days=30)
        for site in ("bucketing", "alice"):
            cfg[site].pop("g")
            if g is not None:
                cfg[site]["g"] = g
        assert self._run(tmp_path, cfg) == 0

    @pytest.mark.parametrize("field, value", [("n", 5), ("params", {"bogus": 1})])
    def test_stray_batch_fields_exit_2(self, tmp_path, capsys, field, value):
        # the sample size and generator parameters live under `data` only
        cfg = {"mode": "batch", "seed": 1, "m": 4, "data": {"n": 30}, field: value}
        assert self._run(tmp_path, cfg) == 2
        assert capsys.readouterr().err == f"error: batch config: unknown field '{field}'\n"

    @pytest.mark.parametrize("policies, message", [
        ([1, 2], "a policies file must be a JSON object, found list"),
        ({"policies": [0, 1]},
         "a policies file: field 'policies' must be a JSON object, found [0, 1]"),
        ({"policies": {"p": [0.5] * 6}}, f"{POLICY_P}, found 0.5 at row 0"),
        # a boolean among integers is not an action index
        ({"policies": {"p": [True, 1, 0, 1, 0, 1]}}, f"{POLICY_P}, found true at row 0"),
        ({"policies": {"p": [0, 1, 0, 1, 0, 2 ** 63]}},
         f"{POLICY_P}, found 9223372036854775808 at row 5"),
        ({"policies": {"p": "0"}}, f"{POLICY_P}, found \"0\""),
        # a named policy may not replace a built-in constant policy
        ({"policies": {"const:1": [0] * 6}}, "a policies file: field 'const:1' must be named "
                                             "without the reserved prefix 'const:', found "
                                             "\"const:1\""),
        ({"policies": {"p": [0] * 5}}, f"{POLICY_P}, found a list of 5"),
        ({"policies": {"q": [0] * 6, "p": [0, 1, 0, 1, 0, 2]}}, f"{POLICY_P}, found 2 at row 5"),
        ({"policies": {"p": [0, -1, 0, 1, 0, 1]}}, f"{POLICY_P}, found -1 at row 1"),
    ], ids=["list", "policies-list", "fractional-actions", "boolean-action", "huge-action",
            "string-policy", "constant-name", "short-policy", "action-past-the-set",
            "negative-action"])
    def test_malformed_policies_exit_2(self, tmp_path, capsys, policies, message):
        _write(tmp_path / "pol.json", policies)
        assert self._run(tmp_path, dict(self.DECISION, policies=str(tmp_path / "pol.json"))) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["atoms"][2].update(y=None),
         "a prior: entry 2: field 'y' must be a number, found null"),
        (lambda d: d["atoms"][0].update(p=[0.25]),
         "a prior: entry 0: field 'p' must be a number, found [0.25]"),
        (lambda d: d["atoms"][1].update(a=["a0"]),
         "a prior: entry 1: field 'a' must be a string or a number, found [\"a0\"]"),
        (lambda d: d.update(encoding=[1]),
         "a prior: field 'encoding' must be a JSON object, found [1]"),
        (lambda d: d["encoding"]["b"].update(b0="x"),
         "a prior: encoding 'b': field 'b0' must be a non-empty list of finite numbers, "
         "found \"x\""),
        (lambda d: d["atoms"][0].update(p=float("nan")), "negative prior probability"),
        (lambda d: d["encoding"]["a"].update(a0=[0.0], a1=[1.0, 2.0]),
         "a prior: encoding 'a': field 'a1' must hold 1 numbers as 'a0' does, found [1.0, 2.0]"),
        # past the table: the Bayes run's joint benchmark needs every signal's vector
        (lambda d: d["encoding"]["b"].pop("b1"),
         "a prior: field 'encoding' must encode every signal of side 'b', found none for \"b1\""),
        # a file keys an encoding by the label's text, which 1 and "1" share
        (lambda d: [d["atoms"][i].update(a=a) for i, a in enumerate([1, 1, "1", "1"])]
         + [d["encoding"].update(a={"1": [0.5]})],
         "a prior: field 'encoding' must name each signal of side 'a' once, found 1 and \"1\" "
         "both written \"1\""),
    ], ids=["null-label", "list-probability", "list-signal", "encoding-list",
            "encoding-string", "nan-probability", "encoding-lengths",
            "encoding-missing-signal", "encoding-label-clash"])
    def test_malformed_prior_file_exits_2(self, tmp_path, capsys, edit, message):
        assert main(["gen-data", "--generator", "prior", "--prior-name", "xor", "--seed", "1",
                     "--out", str(tmp_path / "prior.json")]) == 0
        prior = json.loads((tmp_path / "prior.json").read_text())
        edit(prior)
        _write(tmp_path / "prior.json", prior)
        assert self._run(tmp_path, dict(self.BAYES, prior={"path": str(tmp_path / "prior.json")})) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_atom_missing_signal_exits_2(self, tmp_path, capsys):
        _write(tmp_path / "atoms.json", {"atoms": [{"b": "x", "y": 0.5, "p": 1}]})
        assert main(["gen-data", "--generator", "prior", "--prior-name", "custom",
                     "--atoms", str(tmp_path / "atoms.json"), "--seed", "1",
                     "--out", str(tmp_path / "prior.json")]) == 2
        assert capsys.readouterr().err == "error: an atoms file: entry 0: field 'a' is missing\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_transcript_exits_2(self, tmp_path, capsys, value):
        (tmp_path / "t.txt").write_text(f"2 2\n0.5 0.1 {value}\n0.5 0.2 0.3\n")
        assert main(["report", "--transcript", str(tmp_path / "t.txt")]) == 2
        assert capsys.readouterr().err == "error: transcript values must be finite\n"

    @pytest.mark.parametrize("cfg, message", [
        (None, "dataset: generator 'additive-linear-noise': field 'd_a' must lie in [1,64], "
               "found 0"),
        (dict(BAYES, m=0), "bayes config: field 'm' must lie in [1,2000], found 0"),
        ({"mode": "batch", "seed": 1, "m": 4, "data": {"n": 20, "params": {"d_b": 0}}},
         "batch data: generator 'batch-additive': field 'd_b' must lie in [1,64], found 0"),
        (dict(DECISION, dataset={"generator": "decision-iid", "params": {"d": 0}}),
         "dataset: generator 'decision-iid': field 'd' must lie in [1,64], found 0"),
    ], ids=["online-d_a", "bayes-m", "batch-d_b", "decision-d"])
    def test_degenerate_sizes_exit_2_not_3(self, tmp_path, capsys, cfg, message):
        if cfg is None:
            cfg = _online_config(tmp_path, dataset={"generator": "additive-linear-noise",
                                                    "params": {"d_a": 0}})
        assert self._run(tmp_path, cfg) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_only_an_uncertified_fit_exits_3(self, tmp_path, monkeypatch):
        # any other ArithmeticError is a defect, not a verdict on the input
        import collabpred.cli as cli

        def fail(*_args, **_kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "run_bayes_protocol", fail)
        with pytest.raises(ZeroDivisionError):
            self._run(tmp_path, self.BAYES)

    @pytest.mark.parametrize("eps, message", [
        ("nan", "report: field 'eps' must be a number, found NaN"),
        ("inf", "report: field 'eps' must be a number, found Infinity"),
        ("1.5", "report: field 'eps' must lie in (0,1), found 1.5"),
        ("0", "report: field 'eps' must lie in (0,1), found 0.0"),
        ("-1", "report: field 'eps' must lie in (0,1), found -1.0"),
    ], ids=["nan", "inf", "above-one", "zero", "negative"])
    def test_report_eps_outside_unit_interval_exits_2(self, tmp_path, capsys, eps, message):
        assert self._run(tmp_path, _online_config(tmp_path, days=6)) == 0
        assert main(["report", "--transcript", str(tmp_path / "transcript.txt"),
                     "--csv", str(tmp_path / "r.csv"), f"--eps={eps}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.csv").exists()


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestParser:
    def test_readme_cli_block_shows_every_subcommand(self):
        # the fenced block under README's "## CLI", and no other
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        # a line continued with a backslash is one command
        lines = re.findall(r"^collab ([\w-]+)(.*)", block.replace("\\\n", " "), re.M)
        [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert {name for name, _ in lines} == set(sub.choices)
        # and every option a line gives is one of its subcommand's
        for name, rest in lines:
            assert set(re.findall(r"--[\w-]+", rest)) <= set(
                sub.choices[name]._option_string_actions), (name, rest)

    def test_run_takes_only_config(self, capsys):
        # a run's parameters live in its config file, and only there
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--config", "c.json", "--seed", "3"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_train_is_not_a_subcommand(self, capsys):
        # batch training is `collab run` on a batch config
        with pytest.raises(SystemExit) as exit_:
            main(["train", "--m", "4", "--data", "pairs.json", "--out", "a.json", "b.json"])
        assert exit_.value.code == 2
        assert "invalid choice: 'train'" in capsys.readouterr().err


class TestReport:
    def test_report_from_transcript(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, _online_config(tmp_path))
        main(["run", "--config", str(cfg_path)])
        out = tmp_path / "rereport.json"
        assert main(["report", "--transcript", str(tmp_path / "transcript.txt"),
                     "--out", str(out), "--g", "0.25", "--m", "5"]) == 0
        rep = json.loads(out.read_text())
        assert rep["T"] == 120 and rep["K"] == 4
        original = json.loads((tmp_path / "report.json").read_text())
        assert rep["sqe_by_round"]["4"] == pytest.approx(original["sqe"])

    def test_out_and_csv_naming_one_file_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # refused before the transcript is read: it does not exist
        assert main(["report", "--transcript", "missing.txt",
                     "--out", "same.txt", "--csv", str(tmp_path / "same.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: report: field 'out' {_ONE_FILE}, found \"same.txt\"\n")
        assert list(tmp_path.iterdir()) == []

    def test_truncated_transcript_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, _online_config(tmp_path))
        assert main(["run", "--config", str(cfg_path)]) == 0
        transcript = tmp_path / "transcript.txt"
        transcript.write_text("\n".join(transcript.read_text().splitlines()[:3]) + "\n")
        assert main(["report", "--transcript", str(transcript)]) == 2
        assert capsys.readouterr().err == "error: expected 120 day lines, found 2\n"

    def test_one_number_header_exits_2(self, tmp_path, capsys):
        transcript = tmp_path / "transcript.txt"
        transcript.write_text("600\n0.5 0.1 0.2\n")
        assert main(["report", "--transcript", str(transcript)]) == 2
        assert capsys.readouterr().err == (
            "error: transcript header must be two integers 'T K', found '600'\n"
        )

    def test_bad_bucket_width_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, _online_config(tmp_path))
        assert main(["run", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        for g in (0.3, 1 / 2001, 0.0):
            assert main(["report", "--transcript", str(tmp_path / "transcript.txt"),
                         "--g", repr(g)]) == 2
            assert capsys.readouterr().err == (
                f"error: report: field 'g' must be {_WIDTH}, found {g!r}\n")


class TestTrainEval:
    def test_train_then_eval(self, tmp_path):
        data = tmp_path / "pairs.json"
        main(["gen-data", "--generator", "batch-additive", "--days", "150",
              "--seed", "6", "--out", str(data)])
        ma = tmp_path / "model_a.json"
        mb = tmp_path / "model_b.json"
        assert _train(data, ma, mb, m=6, seed=6) == 0
        preds_csv = tmp_path / "preds.csv"
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(preds_csv)]) == 0
        lines = preds_csv.read_text().splitlines()
        assert lines[0] == "index,prediction"
        assert len(lines) == 151
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("content, message", [
        ('{"examples": []}', "a batch model: field 'format' is missing"),
        ('{"format": "collab-batch-model"', "Expecting"),
        ("[1, 2]", "a batch model must be a JSON object, found list"),
    ])
    def test_malformed_model_exits_2(self, tmp_path, capsys, content, message):
        model = tmp_path / "model.json"
        model.write_text(content)
        assert main(["eval", "--models", str(model), str(model),
                     "--points", str(model), "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "p.csv").exists()

    @staticmethod
    def _trained(tmp_path, days=60, m=4):
        data = tmp_path / "pairs.json"
        main(["gen-data", "--generator", "batch-additive", "--days", str(days),
              "--seed", "6", "--out", str(data)])
        ma, mb = tmp_path / "model_a.json", tmp_path / "model_b.json"
        assert _train(data, ma, mb, m=m) == 0
        return data, ma, mb

    def test_model_missing_field_exits_2(self, tmp_path, capsys):
        data, ma, mb = self._trained(tmp_path)
        model = json.loads(ma.read_text())
        del model["rounds"]
        _write(ma, model)
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == "error: a batch model: field 'rounds' is missing\n"

    @pytest.mark.parametrize("side, field, value, message", [
        ("b", "initial", None,
         "a batch model: field 'initial' must hold Bob's round-0 model, found null"),
        ("a", "m", 5,
         "a batch model: field 'm' must be the same in Alice's and Bob's files, found 5 then 4"),
        ("a", "rounds", {}, "a batch model: field 'rounds' must hold every one of Alice's rounds "
                            "up to 1, found no round 1"),
        # the pair must come from one run: Alice's model, then Bob's
        ("b", "rounds_total", 0, "a batch model: field 'rounds_total' must be the same in "
                                 "Alice's and Bob's files, found 1 then 0"),
        ("a", "side", "bob", "a batch model: field 'side' must be \"alice\" in the first file "
                             "and \"bob\" in the second, found \"bob\" then \"bob\""),
        ("a", "side", "carol",
         "a batch model: field 'side' must be one of \"alice\", \"bob\", found \"carol\""),
        # a round the side does not play: Alice plays the odd ones, Bob the even
        # ones, both up to rounds_total (1 here)
        ("a", "rounds", lambda rounds: dict(rounds, **{"2": rounds["1"]}),
         "a batch model: field 'rounds' must hold only Alice's rounds, the odd ones up to 1, "
         "found round 2"),
        ("a", "rounds", lambda rounds: dict(rounds, **{"7": rounds["1"]}),
         "a batch model: field 'rounds' must hold only Alice's rounds, the odd ones up to 1, "
         "found round 7"),
        ("b", "rounds", lambda rounds: dict(rounds, **{"0": {}}),
         "a batch model: field 'rounds' must hold only Bob's rounds, the even ones up to 1, "
         "found round 0"),
        # every grid size lies in [1, GRID_MAX], a model file's too
        ("a", "m", 5000, "a batch model: field 'm' must lie in [1,2000], found 5000"),
    ])
    def test_models_that_cannot_replay_exit_2(self, tmp_path, capsys, side, field, value,
                                              message):
        data, ma, mb = self._trained(tmp_path)
        path = {"a": ma, "b": mb}[side]
        model = json.loads(path.read_text())
        model[field] = value(model[field]) if callable(value) else value
        _write(path, model)
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("where, key, message", [
        ("round", "1x", "a batch model: field 'rounds': round key '1x' is not an integer"),
        ("level", "1x", "a batch model: round 1: level key '1x' is not an integer"),
        ("phase", "1x",
         "a batch model: round 1, level 1, phase 0: level key '1x' is not an integer"),
        # int() reads these as 1, so they would collapse onto key "1"
        ("round", "01", "a batch model: field 'rounds': round key '01' must be written '1'"),
        ("level", " 1", "a batch model: round 1: level key ' 1' must be written '1'"),
        ("phase", "+1",
         "a batch model: round 1, level 1, phase 0: level key '+1' must be written '1'"),
        ("round", "1_0", "a batch model: field 'rounds': round key '1_0' must be written '10'"),
    ], ids=["round", "level", "phase", "round-leading-zero", "level-space", "phase-plus",
            "round-underscore"])
    def test_non_integer_model_key_exits_2(self, tmp_path, capsys, where, key, message):
        data, ma, mb = self._trained(tmp_path)
        model = json.loads(ma.read_text())
        levels = model["rounds"]["1"]
        if where == "round":
            model["rounds"][key] = levels
        elif where == "level":
            levels[key] = None
        else:
            fit = json.loads(mb.read_text())["initial"]
            levels["1"] = {"initial": fit, "phases": [{key: fit}]}
        _write(ma, model)
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "p.csv").exists()

    def test_nan_feature_exits_2(self, tmp_path, capsys):
        data, ma, mb = self._trained(tmp_path)
        points = json.loads(data.read_text())
        points["examples"][1]["xb"][0] = float("nan")
        _write(data, points)
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: a batch sample: entry 1: field 'xb' must be finite\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_first_row_feature_exits_2(self, tmp_path, capsys, value):
        data, ma, mb = self._trained(tmp_path)
        points = json.loads(data.read_text())
        points["examples"][0]["xa"][1] = value
        _write(data, points)
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: a batch sample: entry 0: field 'xa' must be finite\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("key, name", [("xa", "Alice"), ("xb", "Bob")])
    def test_points_of_another_width_exit_2(self, tmp_path, capsys, key, name):
        # on 60 pairs Alice keeps no model; on 2000 at m = 10 both sides keep some
        data, ma, mb = self._trained(tmp_path, days=2000, m=10)
        points = json.loads(data.read_text())
        width = len(points["examples"][0][key])
        for example in points["examples"]:
            del example[key][-1]
        _write(data, points)
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: a batch model: field 'coef' must hold {width - 1} numbers, one per '{key}' "
            f"column of the points, found {width} in {name}'s models\n")
        assert not (tmp_path / "p.csv").exists()

    def test_nan_label_exits_2(self, tmp_path, capsys):
        data = tmp_path / "pairs.json"
        main(["gen-data", "--generator", "batch-additive", "--days", "60",
              "--seed", "6", "--out", str(data)])
        pairs = json.loads(data.read_text())
        pairs["examples"][3]["y"] = float("nan")
        _write(data, pairs)
        ma, mb = tmp_path / "model_a.json", tmp_path / "model_b.json"
        assert _train(data, ma, mb, m=4) == 2
        assert capsys.readouterr().err == \
            "error: a batch sample: entry 3: field 'y' must be finite\n"
        assert not ma.exists()

    def test_eval_peak_memory_above_import_stays_below_two_and_a_half_file_sizes(
            self, tmp_path, peak_rss):
        _data, ma, mb = self._trained(tmp_path)
        points = tmp_path / "points.json"
        assert main(["gen-data", "--generator", "batch-additive", "--days", "20000",
                     "--seed", "7", "--out", str(points)]) == 0
        code, eval_kib = peak_rss("-m", "collabpred.cli", "eval", "--models", str(ma), str(mb),
                                  "--points", str(points), "--out", str(tmp_path / "p.csv"))
        assert code == 0
        code, import_kib = peak_rss("-c", "import collabpred.cli")
        assert code == 0
        # a parsed tree of dicts and lists took 3.3 file sizes
        assert (eval_kib - import_kib) * 1024 < 2.5 * points.stat().st_size

    def test_list_shaped_points_exit_2(self, tmp_path, capsys):
        _data, ma, mb = self._trained(tmp_path)
        points = tmp_path / "points.json"
        _write(points, [1, 2])
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(points), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == "error: a batch sample must be a JSON object, found list\n"


class TestGoldenAudits:
    """Byte-identity of generated data, the decision, Bayes and batch runs
    against hashes of a reference build."""

    DECISION_SHA256 = "ff06ece99c7775cab2c61ee15b95e765b68a98cdd64de2c122b6d84f51bb2197"
    BAYES_SHA256 = "5c54a1edc8eb870d0ab81fee82d070fda3b9a3f914fc1621ac7d7bb045e4f808"

    @staticmethod
    def _decision_config(tmp_path):
        pol_path = tmp_path / "policies.json"
        _write(pol_path, {"policies": {"cycle": [t % 3 for t in range(400)]}})
        cfg = {
            "mode": "decision", "seed": 5, "days": 400, "rounds": 3,
            "task": {"d": 2, "actions": ["x", "y", "z"],
                     "utility": [[1, 0], [0, 1], [0.6, 0.6]]},
            "policies": str(pol_path),
            "out": str(tmp_path / "decision.json"),
        }
        _write(tmp_path / "cfg.json", cfg)
        return str(tmp_path / "cfg.json")

    def _check_decision(self, tmp_path):
        digest = hashlib.sha256((tmp_path / "decision.json").read_bytes()).hexdigest()
        assert digest == self.DECISION_SHA256

    def test_decision_run_matches_pinned_hash(self, tmp_path):
        assert main(["run", "--config", self._decision_config(tmp_path)]) == 0
        self._check_decision(tmp_path)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_decision_bytes_do_not_depend_on_blas_threads(self, tmp_path, python, threads):
        proc = python("-m", "collabpred.cli", "run", "--config", self._decision_config(tmp_path),
                      OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        self._check_decision(tmp_path)

    @pytest.mark.solver_bytes
    def test_bayes_run_matches_pinned_hash(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 12
        u_a, u_b = rng.uniform(size=n), rng.uniform(size=n)
        y = np.clip(0.5 * u_a[:, None] + 0.5 * u_b[None, :]
                    + 0.1 * rng.standard_normal((n, n)), 0.0, 1.0)
        p = rng.uniform(size=(n, n))
        p /= p.sum()
        _write(tmp_path / "atoms.json", {"atoms": [
            {"a": f"a{i:02d}", "b": f"b{j:02d}", "y": float(y[i, j]), "p": float(p[i, j])}
            for i in range(n) for j in range(n)
        ]})
        assert main(["gen-data", "--generator", "prior", "--prior-name", "custom",
                     "--atoms", str(tmp_path / "atoms.json"), "--seed", "1",
                     "--out", str(tmp_path / "prior.json")]) == 0
        _write(tmp_path / "cfg.json", {
            "mode": "bayes", "seed": 1, "rounds": 6, "m": 8,
            "prior": {"path": str(tmp_path / "prior.json")},
            "out": str(tmp_path / "bayes.json"),
        })
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        report = json.loads((tmp_path / "bayes.json").read_text())
        # the joint benchmark is a solver output whose low bits depend on the
        # linear-algebra backend; every other entry is exact enumeration
        del report["joint_benchmark_error"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == self.BAYES_SHA256

    GEN_DATA_SHA256 = {
        "additive-linear-noise": "2df4314083cb7cfd0e7e5aa98f887f807c70dc82e7b99bd2f8f4145fa7b8a8f4",
        "d-rho": "d3228c93c82c2fb798e4fd1d2cbdb0eba41e672a6a18d418057682134a3348ff",
        "xor": "f46247a947cb4778b153a4e7c29dd944537c0804fef9469f8378b21020177991",
        "swap-necessity": "08e8d755ce9747c3f51a5d580ffe7f2360f8d6703f6eeb6ea8bee3ef1826bb34",
        "decision-iid": "bf550a6ac3d2cc21bb491265386927b36f1f57f3e28275bcd43c913038deef32",
        "batch-additive": "d9b5d998c4c4c6498d926e62235e023bdb2c15f3c6543bb2a5f406020f82eb5f",
    }

    @pytest.mark.parametrize("generator", [
        pytest.param(g, marks=pytest.mark.datagen_bytes)
        if g in ("additive-linear-noise", "batch-additive") else g
        for g in sorted(GEN_DATA_SHA256)])
    def test_gen_data_matches_pinned_hash(self, tmp_path, generator):
        out = tmp_path / "data.json"
        assert main(["gen-data", "--generator", generator, "--days", "40", "--seed", "6",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GEN_DATA_SHA256[generator]

    BATCH_SHA256 = {
        "additive": {
            "model_a.json": "e365b97b170112b3dab8c97fcd545ff8419530a3f13f07cfb576043b21d0824d",
            "model_b.json": "cc41beade53a412281ad1b8ba020cf7f2aeca3ee6d1adba8c2359139717ff562",
            "batch.json": "6d81929b5275b9e6c6b8228b1c646bb36afa9c1d7221c58376437511effebd2e",
            "preds.csv": "4b0279b02db56fc070791e301fe656cfd4acb30050c0d9a6ecb2f326bf1c1fbd",
        },
        "nonlinear": {
            "model_a.json": "a362b4b3b6af6a14d574050373c7c4a2fc753618db475e542441c5a569f08284",
            "model_b.json": "5b20e3d297b37a946013321a4505a2459bf4b8e8160a013b3605fedd2f3b2135",
            "batch.json": "d3626ca34dbc74704de33a8300f59525770a293e94c0f6d7b9ff68c24b6d1f4a",
            "preds.csv": "8fc4b2649a7c2dc4fd21c1d9053ec94f9a421fe4402a0691a4da87886ed4d671",
        },
    }

    @staticmethod
    def _nonlinear_pairs(path, n, seed):
        # several rounds, kept levels on both sides and internal-boost phases,
        # which the noiseless additive instance at this size never reaches
        rng = np.random.default_rng(seed)
        xa, xb = rng.uniform(-1, 1, size=(n, 2)), rng.uniform(-1, 1, size=(n, 2))
        y = np.clip(0.5 + 0.3 * np.sin(3 * xa[:, 0]) + 0.3 * xb[:, 0] * xb[:, 1]
                    + 0.2 * xa[:, 1] * xb[:, 0] + 0.05 * rng.standard_normal(n), 0.0, 1.0)
        _write(path, BatchSample(x_a=xa, x_b=xb, y=y).to_json_dict())

    @pytest.mark.solver_bytes
    @pytest.mark.parametrize("instance, m", [("additive", 6), ("nonlinear", 8)])
    def test_batch_run_and_eval_match_pinned_hashes(self, tmp_path, instance, m):
        pairs, points = tmp_path / "pairs.json", tmp_path / "points.json"
        if instance == "additive":
            for path, n, seed in ((pairs, 400, 4), (points, 2000, 5)):
                assert main(["gen-data", "--generator", "batch-additive", "--days", str(n),
                             "--seed", str(seed), "--out", str(path)]) == 0
        else:
            self._nonlinear_pairs(pairs, 200, 1)
            self._nonlinear_pairs(points, 2000, 2)
        _write(tmp_path / "cfg.json", {
            "mode": "batch", "seed": 0, "m": m, "data": str(pairs),
            "out": str(tmp_path / "batch.json"),
            "out_model_a": str(tmp_path / "model_a.json"),
            "out_model_b": str(tmp_path / "model_b.json"),
        })
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        assert main(["eval", "--models", str(tmp_path / "model_a.json"),
                     str(tmp_path / "model_b.json"), "--points", str(points),
                     "--out", str(tmp_path / "preds.csv")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.BATCH_SHA256[instance]}
        assert digests == self.BATCH_SHA256[instance]


def _fuzz_inputs(root):
    """Small valid inputs of every kind `collab` reads, as (kind, files, argv):
    files maps a file name to its parsed JSON or its text, the fuzzed one first."""
    online = {
        "mode": "online", "seed": 2, "days": 30, "rounds": 3, "eps": 0.2, "C": 1.0,
        "dataset": {"generator": "additive-linear-noise", "days": 30,
                    "params": {"d_a": 1, "signal_a": 0.3, "noise": 0.1}},
        "alice": {"kind": "conversation", "m": 4, "g": 0.5, "a": 1.0},
        "bob": {"kind": "swap", "m": 4},
        "bucketing": {"g": 0.5, "m": 4}, "solo_baselines": True,
        "out": "report.json", "transcript": "transcript.txt", "csv": "metrics.csv",
    }
    decision = {
        "mode": "decision", "seed": 2, "days": 30, "rounds": 2,
        "task": {"d": 2, "actions": ["x", "y"], "utility": [[1, 0], [0, 1]]},
        "dataset": {"generator": "decision-iid", "params": {"d": 2}},
        "policies": "policies.json", "out": "decision.json",
    }
    bayes = {"mode": "bayes", "seed": 2, "rounds": 3, "m": 4, "eps": 0.1,
             "prior": {"rho": 2.0}, "out": "bayes.json"}
    batch = {"mode": "batch", "seed": 2, "m": 4, "C": 1.0, "out": "batch.json",
             "data": {"n": 30, "params": {"d_a": 1, "d_b": 2}},
             "out_model_a": "model_a.json", "out_model_b": "model_b.json"}
    # models with kept levels on both sides and an internal-boost phase
    TestGoldenAudits._nonlinear_pairs(root / "pairs.json", 100, 1)
    TestGoldenAudits._nonlinear_pairs(root / "points.json", 20, 2)
    train = dict(batch, m=6, data="pairs.json")
    assert main(["run", "--config", str(_json_file(root / "train.cfg", train))]) == 0
    assert main(["run", "--config", str(_json_file(root / "online.cfg", online))]) == 0
    assert main(["gen-data", "--generator", "additive-linear-noise", "--days", "20",
                 "--seed", "1", "--out", str(root / "data.json")]) == 0
    atoms = {"atoms": [{"a": f"a{i}", "b": f"b{j}", "y": (i + j) / 4, "p": 1 / 9}
                       for i in range(3) for j in range(3)]}
    prior_argv = ["gen-data", "--generator", "prior", "--prior-name", "custom",
                  "--atoms", "atoms.json", "--seed", "1", "--out", "prior.json"]
    _write(root / "atoms.json", atoms)
    assert main(prior_argv) == 0
    a, b, points, prior = (json.loads((root / name).read_text())
                           for name in ("model_a.json", "model_b.json", "points.json",
                                        "prior.json"))
    run = ["run", "--config", "cfg.json"]
    eval_argv = ["eval", "--models", "model_a.json", "model_b.json", "--points", "points.json",
                 "--out", "preds.csv"]
    return [
        ("online", {"cfg.json": online}, run),
        ("decision", {"cfg.json": decision,
                      "policies.json": {"policies": {"cycle": [t % 2 for t in range(30)]}}}, run),
        ("bayes", {"cfg.json": bayes}, run),
        ("prior", {"prior.json": prior,
                   "cfg.json": dict(bayes, prior={"path": "prior.json"})}, run),
        ("atoms", {"atoms.json": atoms}, prior_argv),
        ("batch", {"cfg.json": batch}, run),
        ("dataset", {"data.json": json.loads((root / "data.json").read_text()),
                     "cfg.json": dict(online, dataset={"path": "data.json"})}, run),
        ("model_a", {"model_a.json": a, "model_b.json": b, "points.json": points}, eval_argv),
        ("model_b", {"model_b.json": b, "model_a.json": a, "points.json": points}, eval_argv),
        ("transcript", {"transcript.txt": (root / "transcript.txt").read_text()},
         ["report", "--transcript", "transcript.txt", "--g", "0.5", "--m", "4"]),
    ]


def _json_file(path, obj):
    _write(path, obj)
    return path


def _train(data, model_a, model_b, m, seed=0):
    """The exit code of `collab run` on a batch config that trains on the
    pairs file `data` and writes the two models."""
    cfg = {"mode": "batch", "seed": seed, "m": m, "data": str(data),
           "out_model_a": str(model_a), "out_model_b": str(model_b)}
    return main(["run", "--config", str(_json_file(data.parent / "train.json", cfg))])


def _fuzz_sites(doc, at=()):
    """Every node below the root of a parsed JSON document, as a key path;
    every value token of a transcript text, as (line, token)."""
    if isinstance(doc, str):
        return [(i, j) for i, ln in enumerate(doc.splitlines()) for j in range(len(ln.split()))]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    sites = []
    for k, v in items:
        sites.append(at + (k,))
        if isinstance(v, (dict, list)):
            sites.extend(_fuzz_sites(v, at + (k,)))
    return sites


# as a fuzz value: delete the key, list item or transcript token at the site
DELETE = object()


def _fuzz_replace(doc, site, value):
    if isinstance(doc, str):
        lines = [ln.split() for ln in doc.splitlines()]
        if value is DELETE:
            del lines[site[0]][site[1]]
        else:
            lines[site[0]][site[1]] = json.dumps(value)
        return "\n".join(" ".join(ln) for ln in lines) + "\n"
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in site[:-1]:
        node = node[k]
    if value is DELETE:
        del node[site[-1]]
    else:
        node[site[-1]] = value
    return doc


# wrong-typed JSON values: null, string, list, object, bool, zero, negative numbers
FUZZ_VALUES = [None, "x", [], [0.5, "x"], {}, {"k": 1}, True, False, 0, -1, -0.5]


def _run_fuzzed(root, inputs, kind, site_index, value):
    """Write input `kind` with one site replaced by `value` into a fresh
    directory and run its command there; returns the exit code."""
    _name, files, argv = next(inp for inp in inputs if inp[0] == kind)
    target = next(iter(files))
    wd = Path(tempfile.mkdtemp(dir=root))
    for name, doc in files.items():
        if name == target:
            sites = _fuzz_sites(doc)
            doc = _fuzz_replace(doc, sites[site_index % len(sites)], value)
        if isinstance(doc, str):
            (wd / name).write_text(doc)
        else:
            _write(wd / name, doc)
    cwd = os.getcwd()
    os.chdir(wd)
    try:
        return main(argv)
    finally:
        os.chdir(cwd)
        shutil.rmtree(wd)


class TestFuzzedInputs:
    """One field of a valid input replaced by a wrong-typed value never
    crashes `collab`: it exits 0, 2 (validation) or 3 (uncertified fit)."""

    KINDS = ["online", "decision", "bayes", "prior", "atoms", "batch", "dataset", "model_a",
             "model_b", "transcript"]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        cwd = os.getcwd()
        os.chdir(root)
        try:
            return root, _fuzz_inputs(root)
        finally:
            os.chdir(cwd)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(KINDS), site=st.integers(0, 10**6),
           value=st.sampled_from(FUZZ_VALUES))
    def test_wrong_typed_field_exits_0_2_or_3(self, inputs, capsys, kind, site, value):
        root, cases = inputs
        assert _run_fuzzed(root, cases, kind, site, value) in (0, 2, 3)
        capsys.readouterr()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(KINDS), site=st.integers(0, 10**6))
    def test_deleted_key_exits_0_2_or_3_naming_it(self, inputs, capsys, kind, site):
        # a missing field is reported with its entry, never as a bare `error: '<key>'`
        root, cases = inputs
        code = _run_fuzzed(root, cases, kind, site, DELETE)
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert code != 2 or not re.fullmatch(r"error: '[^']*'\n", err), err


class TestBlasThreadDefault:
    """`import collabpred` loads no numpy; only the CLI sets OPENBLAS_NUM_THREADS=1,
    and only when the user set none of the variables OpenBLAS reads."""

    VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    SHOW = ("import json, os, sys; print(json.dumps(['numpy' in sys.modules] + "
            f"[os.environ.get(v) for v in {VARS!r}]))")

    def _show(self, python, code, **env):
        proc = python("-c", f"{code}; {self.SHOW}", **env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_package_root_loads_no_numpy(self, python):
        assert self._show(python, "import collabpred") == [False, None, None, None]

    def test_public_names_resolve_on_first_access(self, python):
        proc = python("-c", (
            "import collabpred, collabpred.weaklearn\n"
            "assert collabpred.LinearClassSpec is collabpred.weaklearn.LinearClassSpec\n"
            "assert collabpred.ConversationWrapper.__module__ == 'collabpred.learners'\n"
            "try:\n"
            "    collabpred.NoSuchName\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no AttributeError')\n"))
        assert proc.returncode == 0, proc.stderr

    def test_library_modules_leave_the_environment_alone(self, python):
        modules = ", ".join(f"collabpred.{m}" for m in (
            "batch", "bayes", "core", "datagen", "decisions", "learners", "protocol",
            "verify", "weaklearn"))
        assert self._show(python, f"import {modules}") == [True, None, None, None]

    def test_cli_defaults_to_one_thread(self, python):
        assert self._show(python, "import collabpred.cli") == [True, "1", None, None]

    @pytest.mark.parametrize("var", VARS)
    def test_a_users_thread_variable_wins(self, python, var):
        shown = self._show(python, "import collabpred.cli", **{var: "2"})
        assert shown == [True] + ["2" if v == var else None for v in self.VARS]


# an output that `_outputs` refuses, before any input is read
_NO_DIR = "must name a file in an existing directory"


class TestOutputsCheckedFirst:
    """Every command checks its output files before it reads an input: an
    output in a missing directory, or that names a directory, exits 2 with one
    line and leaves no file behind."""

    @pytest.mark.parametrize("csv", ["nodir/m.csv", ".", "sub"])
    def test_online_output_outside_a_directory_exits_2_writing_nothing(
            self, tmp_path, monkeypatch, capsys, csv):
        (tmp_path / "sub").mkdir()
        _write(tmp_path / "cfg.json", _online_config(tmp_path, transcript="t.txt", csv=csv,
                                                     out="r.json"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: online config: field 'csv' {_NO_DIR}, found {json.dumps(csv)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]

    def test_empty_output_path_exits_2_writing_nothing(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path / "cfg.json", _online_config(tmp_path, transcript="t.txt", csv=""))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err == (
            "error: online config: field 'csv' must be a file path, found \"\"\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_batch_model_outside_a_directory_exits_2(self, tmp_path, monkeypatch, capsys):
        # refused before the batch sample is read: it does not exist
        cfg = {**_SEAM_CONFIGS["batch"], **_MISSING_INPUT["batch"], "out_model_b": "nodir/b.json"}
        _write(tmp_path / "cfg.json", cfg)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: batch config: field 'out_model_b' {_NO_DIR}, found \"nodir/b.json\"\n")

    @pytest.mark.parametrize("argv, field, found", [
        (["report", "--transcript", "missing.txt", "--out", "nodir/r.json"], "out",
         "nodir/r.json"),
        (["report", "--transcript", "missing.txt", "--out", "r.json", "--csv", "."], "csv", "."),
        (["report", "--transcript", "missing.txt", "--csv", ""], "csv", ""),
        (["gen-data", "--generator", "xor", "--seed", "1", "--out", "nodir/d.json"], "out",
         "nodir/d.json"),
        (["gen-data", "--generator", "prior", "--prior-name", "custom", "--atoms",
          "missing.json", "--seed", "1", "--out", "."], "out", "."),
        (["eval", "--models", "a.json", "b.json", "--points", "p.json", "--out",
          "nodir/p.csv"], "out", "nodir/p.csv"),
    ], ids=["report-out", "report-csv-dir", "report-csv-empty", "gen-data", "gen-data-dir",
            "eval"])
    def test_command_output_outside_a_directory_exits_2(self, tmp_path, monkeypatch, capsys,
                                                         argv, field, found):
        # every input named here is missing, so only a check made first gives this message
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {argv[0]}: field '{field}' {_NO_DIR}, found {json.dumps(found)}\n")
        assert list(tmp_path.iterdir()) == []


# prints the exit code of `collab <argv>` run in this interpreter, and the
# package's modules it loaded besides the package and the CLI
_MODULES_LOADED = (
    "import json, sys\n"
    "from collabpred.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m.removeprefix('collabpred.') for m in sys.modules\n"
    "                               if m.startswith('collabpred.') and m != 'collabpred.cli')]))\n"
)


class TestModuleSets:
    """Each command imports only the modules it runs."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("modules")
        pairs, prior = root / "pairs.json", root / "prior.json"
        assert main(["gen-data", "--generator", "batch-additive", "--days", "60", "--seed", "2",
                     "--out", str(pairs)]) == 0
        assert main(["gen-data", "--generator", "prior", "--prior-name", "additive",
                     "--seed", "1", "--out", str(prior)]) == 0
        assert _train(pairs, root / "model_a.json", root / "model_b.json", m=4) == 0
        configs = {
            "online": _online_config(root),
            "batch": {"mode": "batch", "seed": 0, "m": 4, "data": str(pairs),
                      "out": str(root / "batch.json")},
            "decision": {"mode": "decision", "seed": 5, "days": 50, "rounds": 2,
                         "task": {"d": 2, "utility": [[1, 0], [0, 1]]},
                         "out": str(root / "dec.json")},
            "bayes-file": {"mode": "bayes", "seed": 1, "rounds": 3, "m": 8,
                           "prior": {"path": str(prior)}, "out": str(root / "bayes.json")},
            "bayes-named": {"mode": "bayes", "seed": 1, "rounds": 3, "m": 8,
                            "prior": "xor", "out": str(root / "bayes.json")},
            "bayes-rho": {"mode": "bayes", "seed": 1, "rounds": 3, "m": 8,
                          "prior": {"rho": 2.0}, "out": str(root / "bayes.json")},
        }
        for name, cfg in configs.items():
            _write(root / f"{name}.json", cfg)
        assert main(["run", "--config", str(root / "online.json")]) == 0
        return root

    @pytest.mark.parametrize("argv, modules", [
        (["report", "--transcript", "transcript.txt", "--out", "rep.json"], ["core"]),
        (["run", "--config", "online.json"],
         ["core", "datagen", "learners", "protocol", "weaklearn"]),
        (["run", "--config", "batch.json"], ["batch", "core", "weaklearn"]),
        (["eval", "--models", "model_a.json", "model_b.json", "--points", "pairs.json",
          "--out", "preds.csv"], ["batch", "core", "weaklearn"]),
        (["run", "--config", "decision.json"], ["core", "datagen", "decisions"]),
        (["run", "--config", "bayes-file.json"], ["bayes", "core", "weaklearn"]),
        (["run", "--config", "bayes-named.json"], ["bayes", "core", "datagen", "weaklearn"]),
        (["run", "--config", "bayes-rho.json"], ["bayes", "core", "datagen", "weaklearn"]),
        (["verify"], ["core", "verify", "weaklearn"]),
    ], ids=["report", "online", "batch", "eval", "decision", "bayes-file", "bayes-named",
            "bayes-rho", "verify"])
    def test_command_loads_only_its_modules(self, inputs, python, argv, modules):
        proc = python("-c", _MODULES_LOADED, *argv, cwd=inputs)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, modules]


# cli name -> (module, name) of each binding bench/tracing.py wraps or proxies
_TRACED = {
    "run_collaboration": ("protocol", "run_collaboration"),
    "final_regret_report": ("protocol", "final_regret_report"),
    "ConversationWrapper": ("learners", "ConversationWrapper"),
    "collaborate": ("batch", "collaborate"),
    "eval_test_points": ("batch", "eval_test_points"),
    "final_swap_regret": ("batch", "final_swap_regret"),
    "LsqOracle": ("batch", "LsqOracle"),
    "run_decision_protocol": ("decisions", "run_decision_protocol"),
    "decision_cal_error": ("decisions", "decision_cal_error"),
    "decision_cross_cal_error": ("decisions", "decision_cross_cal_error"),
    "decision_swap_regret": ("decisions", "decision_swap_regret"),
    "run_bayes_protocol": ("bayes", "run_bayes_protocol"),
    "expected_conversation_swap_regret": ("bayes", "expected_conversation_swap_regret"),
    "run_verify_checks": ("verify", "run_all"),
}


class TestTracerBindings:
    """The names the tracer looks up in `vars(cli)` are bound when the CLI is
    imported, and each forwards a call to its module's current object."""

    def test_every_traced_name_is_bound_at_import(self, python):
        proc = python("-c", "import json, collabpred.cli as cli\n"
                            "print(json.dumps(sorted(vars(cli))))")
        assert proc.returncode == 0, proc.stderr
        bound = set(json.loads(proc.stdout))
        assert set(_TRACED) <= bound
        # names the tracer still looks for, which the CLI no longer binds
        assert not {"agreement_profile", "round_error_profile", "BaselineForecaster"} & bound

    @pytest.mark.parametrize("name", list(_TRACED))
    def test_a_call_reaches_the_defining_module(self, monkeypatch, name):
        module, attr = _TRACED[name]
        monkeypatch.setattr(f"collabpred.{module}.{attr}",
                            lambda *args, **kwargs: (module, attr, args, kwargs))
        assert getattr(cli, name)(1, k=2) == (module, attr, (1,), {"k": 2})
