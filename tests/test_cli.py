import hashlib
import json

import numpy as np
import pytest

from collabpred.batch import BatchSample
from collabpred.cli import main
from collabpred.datagen import dataset_from_json


def _write(path, obj):
    path.write_text(json.dumps(obj))


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
        assert capsys.readouterr().err == "error: alice: field 'value' must lie in [0,1], got 1.5\n"

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

    def test_verify_mode_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        _write(cfg_path, {"mode": "verify"})
        assert main(["run", "--config", str(cfg_path)]) == 0

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


class TestGenData:
    def test_dataset_roundtrip(self, tmp_path):
        out = tmp_path / "data.json"
        assert main(["gen-data", "--generator", "xor", "--days", "50",
                     "--seed", "2", "--out", str(out)]) == 0
        ds = dataset_from_json(json.loads(out.read_text()))
        assert ds.T == 50
        assert set(float(ex.y) for ex in ds) <= {0.0, 1.0}

    def test_norm_bounds_hold(self, tmp_path):
        out = tmp_path / "data.json"
        main(["gen-data", "--generator", "additive-linear-noise", "--days", "80",
              "--seed", "4", "--out", str(out)])
        ds = dataset_from_json(json.loads(out.read_text()))
        for ex in ds:
            assert np.linalg.norm(ex.x_a) <= 1 + 1e-9
            assert 0.0 <= float(ex.y) <= 1.0

    def test_unknown_generator_exits_2(self, tmp_path):
        assert main(["gen-data", "--generator", "mystery", "--seed", "1",
                     "--out", str(tmp_path / "x.json")]) == 2

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


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


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
        assert main(["report", "--transcript", str(tmp_path / "transcript.txt"),
                     "--g", "0.3"]) == 2
        assert "1/g must be an integer" in capsys.readouterr().err


class TestTrainEval:
    def test_train_then_eval(self, tmp_path):
        data = tmp_path / "pairs.json"
        main(["gen-data", "--generator", "batch-additive", "--days", "150",
              "--seed", "6", "--out", str(data)])
        ma = tmp_path / "model_a.json"
        mb = tmp_path / "model_b.json"
        assert main(["train", "--m", "6", "--data", str(data),
                     "--out", str(ma), str(mb), "--seed", "6"]) == 0
        preds_csv = tmp_path / "preds.csv"
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(preds_csv)]) == 0
        lines = preds_csv.read_text().splitlines()
        assert lines[0] == "index,prediction"
        assert len(lines) == 151
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("content, message", [
        ('{"examples": []}', "not a batch model transcript: None"),
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
    def _trained(tmp_path):
        data = tmp_path / "pairs.json"
        main(["gen-data", "--generator", "batch-additive", "--days", "60",
              "--seed", "6", "--out", str(data)])
        ma, mb = tmp_path / "model_a.json", tmp_path / "model_b.json"
        assert main(["train", "--m", "4", "--data", str(data),
                     "--out", str(ma), str(mb)]) == 0
        return data, ma, mb

    def test_model_missing_field_exits_2(self, tmp_path, capsys):
        data, ma, mb = self._trained(tmp_path)
        model = json.loads(ma.read_text())
        del model["rounds"]
        _write(ma, model)
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(data), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == "error: 'rounds'\n"

    @pytest.mark.parametrize("side, field, value, message", [
        ("b", "initial", None, "Bob's transcript is missing the round-0 model"),
        ("a", "m", 5, "transcripts disagree on the grid size"),
        ("a", "rounds", {}, "Alice's transcript is missing round 1"),
    ])
    def test_models_that_cannot_replay_exit_2(self, tmp_path, capsys, side, field, value,
                                              message):
        data, ma, mb = self._trained(tmp_path)
        path = {"a": ma, "b": mb}[side]
        model = json.loads(path.read_text())
        model[field] = value
        _write(path, model)
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
        assert capsys.readouterr().err == "error: cannot convert float NaN to integer\n"

    def test_list_shaped_points_exit_2(self, tmp_path, capsys):
        _data, ma, mb = self._trained(tmp_path)
        points = tmp_path / "points.json"
        _write(points, [1, 2])
        assert main(["eval", "--models", str(ma), str(mb),
                     "--points", str(points), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == "error: a batch sample must be a JSON object, found list\n"


class TestGoldenAudits:
    """Byte-identity of the decision and Bayes audits against hashes of a reference build."""

    DECISION_SHA256 = "ff06ece99c7775cab2c61ee15b95e765b68a98cdd64de2c122b6d84f51bb2197"
    BAYES_SHA256 = "5c54a1edc8eb870d0ab81fee82d070fda3b9a3f914fc1621ac7d7bb045e4f808"

    def test_decision_run_matches_pinned_hash(self, tmp_path):
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
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        digest = hashlib.sha256((tmp_path / "decision.json").read_bytes()).hexdigest()
        assert digest == self.DECISION_SHA256

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
