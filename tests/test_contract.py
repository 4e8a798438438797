"""The exit-code contract of `collab`, fuzzed from the field table.

One or two fields of a small valid input take a value of the wrong kind (a
string, null, a list, a bool, NaN) or a number at or just past a bound of
the field's range in `core.SECTIONS`. The inputs are a config per mode with
its generator `params`, and the examples, batch model, prior, atoms and
policies files. A number is only ever set to a value the table rejects or to
its range's closed lower end or one above it, a bucket width to 1 or 1/2, and
a list only to a shorter one, so no mutation makes a run allocate more than
its seed input does.
`cli.main` runs in-process and exits 0, 2 or 3. On 2 it prints one line
that names a mutated field; on 0 the run's invariants hold: every Bayes
conversation swap regret is at most its cap, every online message and
replayed batch prediction lies in [0,1], and `collab eval` of a batch run's
models on its training pairs reproduces its `train_sqe_mean` exactly.
"""

import copy
import csv
import inspect
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collabpred import datagen
from collabpred.batch import BatchSample
from collabpred.cli import main
from collabpred.core import GRID_MAX, SECTIONS

ONLINE = {
    "mode": "online", "seed": 2, "days": 30, "rounds": 3, "eps": 0.2,
    "dataset": {"generator": "additive-linear-noise", "params": {"d_a": 1, "d_b": 1}},
    "alice": {"kind": "conversation", "m": 4, "g": 0.5}, "bob": {"kind": "swap", "m": 4},
    "bucketing": {"g": 0.5, "m": 4}, "solo_baselines": False,
    "out": "report.json", "transcript": "transcript.txt",
}

# mode -> (seed config, [(key path of a section, its table)]); "data.json" is
# made once, and an absolute path stands in for it
SEEDS = {
    "online": (ONLINE, [((), "online config"), (("alice",), "conversation learner"),
                        (("bob",), "swap learner"), (("bucketing",), "bucketing"),
                        (("dataset",), "dataset"),
                        (("dataset", "params"), "additive-linear-noise params")]),
    "online-file": (dict(ONLINE, dataset={"path": "data.json"}, alice={"kind": "vaw"},
                         bob={"kind": "constant", "value": 0.5}),
                    [(("dataset",), "dataset file"), (("alice",), "vaw learner"),
                     (("bob",), "constant learner")]),
    "online-rho": (dict(ONLINE, dataset={"generator": "d-rho", "params": {"rho": 2.0}}),
                   [(("dataset",), "dataset"), (("dataset", "params"), "d-rho params")]),
    "batch": ({"mode": "batch", "seed": 2, "m": 4, "C": 1.0, "out": "batch.json",
               "out_model_a": "model_a.json", "out_model_b": "model_b.json",
               "data": {"n": 30, "params": {"d_a": 1, "d_b": 1}}},
              [((), "batch config"), (("data",), "batch data"),
               (("data", "params"), "batch-additive params")]),
    "decision": ({"mode": "decision", "seed": 2, "days": 30, "rounds": 2,
                  "task": {"d": 2, "actions": ["x", "y"], "utility": [[1, 0], [0, 1]]},
                  "dataset": {"generator": "decision-iid", "params": {"d": 2}},
                  "out": "decision.json"},
                 [((), "decision config"), (("task",), "task"), (("dataset",), "dataset"),
                  (("dataset", "params"), "decision-iid params")]),
    "bayes": ({"mode": "bayes", "seed": 2, "rounds": 3, "m": 4, "eps": 0.1,
               "prior": {"rho": 2.0}, "out": "bayes.json"},
              [((), "bayes config"), (("prior",), "prior")]),
}

# values of the wrong kind; the table passes a value of the any kind through
# to the code that reads it, where a string may name a file
WRONG = {
    "int": ["x", None, [], True, math.nan, 2.5],
    "float": ["x", None, [], True, math.nan],
    "width": ["x", None, [], True, math.nan],
    "bool": [1, "no", None, []],
    "path": [1, [], True],
    "object": [[], "x", 5],
    "objects": ["x", None, 5, {}, [1], [[]]],
    "numbers": ["x", None, {}, [None], ["x"], [True], [math.nan], [math.inf], [10 ** 400]],
    # mostly two names, which the decision seed's two actions do not refuse by count
    "names": ["x", 5, {}, [1], [1, 2], ["x", None], [["x"], ["y"]], ["x", True]],
    # no matrix passes in general: the task's d and action names must fit it
    "matrix": ["x", None, {}, [], [[]], [1], [[1], [1, 2]], [[1, 2], []], [[None]], [["x"]],
               [[True]], [[math.nan]], [[math.inf]], [[10 ** 400]]],
    "choice": ["x", None, [], {}, 2.5],
    "any": [[], 5, None],
}


def mutations(spec):
    """(values the table rejects, small values it passes) for a field of `spec`."""
    if spec.kind == "any":
        return [], list(WRONG["any"])
    rejected, passed = list(WRONG[spec.kind]), []
    if spec.kind == "choice":   # a bool is not the number 1, nor 1 a name
        return rejected + [True if 1 in spec.values else 1], list(spec.values)
    if spec.kind == "bool":
        passed = [True, False]
    if spec.kind in ("path", "object", "names"):
        (passed if spec.default is None else rejected).append(None)
    if spec.kind in ("objects", "numbers"):   # `lo` is a least length
        (rejected if spec.lo else passed).append([])
        return rejected, passed
    if spec.kind == "width":   # 1/g buckets, a whole number in [1, GRID_MAX]
        return rejected + [0, -0.5, 0.3, 1.5, 1 / (GRID_MAX + 1)], [1, 0.5]
    if spec.lo is not None:
        rejected.append(spec.lo - 1)
        (rejected if spec.open else passed).append(spec.lo)
        if not spec.open and (spec.hi is None or spec.lo + 1 <= spec.hi):
            passed.append(spec.lo + 1)       # small, so cheap
    if spec.hi is not None:
        rejected.append(spec.hi + 1)
        if spec.open:
            rejected.append(spec.hi)
        if spec.kind == "int":
            rejected += [2 ** 32, 1e20, 1e308]
    return rejected, passed


def sites(mode):
    """Every field of the mode's sections, as (key path of its section, field, spec)."""
    return [(path, f, SECTIONS[section][f]) for path, section in SEEDS[mode][1]
            for f in SECTIONS[section]]


def mutate(mode, edits):
    """The mode's seed config with each (path, field, value, …) of `edits`
    applied where its section is still an object, and the edits applied."""
    cfg, applied = copy.deepcopy(SEEDS[mode][0]), []
    for edit in edits:
        path, f, value = edit[:3]
        node = cfg
        for k in path:
            node = node.get(k) if isinstance(node, dict) else None
        if isinstance(node, dict):   # else an earlier edit replaced the section
            node[f] = value
            applied.append(edit)
    return cfg, applied


@st.composite
def two_field_edits(draw):
    """(mode, [(path, field, value, spec, whether the table rejects the value)])."""
    mode = draw(st.sampled_from(sorted(SEEDS)))
    edits = []
    for path, f, spec in draw(st.lists(st.sampled_from(sites(mode)), min_size=2, max_size=2,
                                       unique_by=lambda s: (s[0], s[1]))):
        rejected, passed = mutations(spec)
        reject = draw(st.booleans()) if rejected and passed else bool(rejected)
        edits.append((path, f, draw(st.sampled_from(rejected if reject else passed)),
                      spec, reject))
    return mode, edits


def names(err: str, field: str, spec) -> bool:
    """Whether a message names the field: the table's own form for a field it
    checks, the field's name as a word for one checked where it is read."""
    if spec.kind == "any":
        return re.search(rf"\b{re.escape(field)}\b", err) is not None
    return f"field '{field}'" in err


def check_invariants(mode: str, wd: Path, cfg: dict):
    if mode == "bayes" and (wd / "bayes.json").exists():
        report = json.loads((wd / "bayes.json").read_text())
        cap = report["swap_regret_cap"]
        assert all(v <= cap + 1e-12 for v in report["expected_conversation_swap_regret"].values())
    if mode.startswith("online") and (wd / "transcript.txt").exists():
        days = (wd / "transcript.txt").read_text().splitlines()[1:]
        messages = [float(v) for line in days for v in line.split()[1:]]
        assert messages and all(0.0 <= v <= 1.0 for v in messages)
    if mode == "batch" and all((wd / f).exists() for f in ("batch.json", "model_a.json",
                                                           "model_b.json")):
        # batch replay equals training: the training pairs again, replayed
        data = cfg["data"]
        assert main(["gen-data", "--generator", "batch-additive", "--days", str(int(data["n"])),
                     "--seed", str(int(cfg["seed"])), "--params", json.dumps(data["params"]),
                     "--out", "pairs.json"]) == 0
        preds = replayed(["model_a.json", "model_b.json"], "pairs.json")
        y = np.array([e["y"] for e in json.loads((wd / "pairs.json").read_text())["examples"]])
        train = json.loads((wd / "batch.json").read_text())["train_sqe_mean"]
        assert float(np.mean((preds - y) ** 2)) == train


def replayed(models, points) -> np.ndarray:
    """`collab eval`'s predictions of a model pair on a points file, which it must accept."""
    assert main(["eval", "--models", *models, "--points", points, "--out", "preds.csv"]) == 0
    with open("preds.csv", newline="") as fh:
        preds = np.array([float(row["prediction"]) for row in csv.DictReader(fh)])
    assert ((0.0 <= preds) & (preds <= 1.0)).all()
    return preds


class TestConfigContract:
    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("contract")
        assert main(["gen-data", "--generator", "additive-linear-noise", "--days", "30",
                     "--seed", "1", "--params", '{"d_a": 1, "d_b": 1}',
                     "--out", str(root / "data.json")]) == 0
        return root

    @staticmethod
    def _run(root, capsys, mode, edits):
        """Run the mode's seed config with `edits` applied and check the contract."""
        cfg, edits = mutate(mode, edits)
        if cfg.get("dataset") == {"path": "data.json"}:
            cfg["dataset"] = {"path": str(root / "data.json")}
        wd = Path(tempfile.mkdtemp(dir=root))
        (wd / "cfg.json").write_text(json.dumps(cfg))
        cwd = os.getcwd()
        os.chdir(wd)
        capsys.readouterr()
        try:
            code = main(["run", "--config", "cfg.json"])
            err = capsys.readouterr().err
            where = (mode, cfg, err)
            assert code in (0, 2, 3), where
            assert code == 2 or not any(reject for *_, reject in edits), where
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, where
                assert any(names(err, f, spec) for _, f, _, spec, _ in edits), where
            if code == 0:
                check_invariants(mode, wd, cfg)
        finally:
            os.chdir(cwd)
            shutil.rmtree(wd)

    @pytest.mark.parametrize("mode", sorted(SEEDS))
    def test_every_field_takes_every_mutation(self, root, capsys, mode):
        for path, f, spec in sites(mode):
            rejected, passed = mutations(spec)
            for value, reject in [(v, True) for v in rejected] + [(v, False) for v in passed]:
                self._run(root, capsys, mode, [(path, f, value, spec, reject)])

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=two_field_edits())
    def test_two_fields_at_once(self, root, capsys, case):
        self._run(root, capsys, *case)


def nonlinear_pairs(n: int, seed: int, d: int = 2) -> dict:
    """Batch pairs whose models keep levels on both sides and run
    internal-boost phases, as a parsed examples file; views of d ≥ 2
    columns, of which the labels read the first two."""
    rng = np.random.default_rng(seed)
    xa, xb = rng.uniform(-1, 1, size=(n, d)), rng.uniform(-1, 1, size=(n, d))
    y = np.clip(0.5 + 0.3 * np.sin(3 * xa[:, 0]) + 0.3 * xb[:, 0] * xb[:, 1]
                + 0.2 * xa[:, 1] * xb[:, 0] + 0.05 * rng.standard_normal(n), 0.0, 1.0)
    return BatchSample(x_a=xa, x_b=xb, y=y).to_json_dict()


def model_sections(model: dict) -> list:
    """(key path, section) of a batch model's header, its round-0 fit, and a
    boost record with a phase: the record, its initial fit and a phase's fit."""
    found = [((), "batch model")] + ([(("initial",), "linear model")] if model["initial"] else [])
    for r, levels in model["rounds"].items():
        for v, record in levels.items():
            if record is not None and record["phases"]:
                at = ("rounds", r, v)
                phase = ("phases", 0, next(iter(record["phases"][0])))
                return found + [(at, "boost record"), (at + ("initial",), "linear model"),
                                (at + phase, "linear model")]
    return found


class TestFileContract:
    """Every table field of every file `collab` reads, mutated as config
    fields are: a value the table rejects exits 2 with one line naming the
    field; one it accepts exits 0, or 2 with one line when a check past the
    table rejects the file (a model pair that cannot replay, a prior whose
    sides have no encoding)."""

    ONLINE_FILE = dict(ONLINE, dataset={"path": "data.json"})
    BAYES_FILE = {"mode": "bayes", "seed": 2, "rounds": 3, "m": 4, "prior": {"path": "prior.json"},
                  "out": "bayes.json"}
    DECISION_FILE = dict(SEEDS["decision"][0], policies="policies.json")

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """kind -> (files: name -> parsed JSON, argv, the mode whose invariants
        hold on exit 0, [(the files a site edits, key path of a section, its table)])."""
        root = tmp_path_factory.mktemp("files")
        cwd = os.getcwd()
        os.chdir(root)
        try:
            (root / "pairs.json").write_text(json.dumps(nonlinear_pairs(100, 1)))
            (root / "atoms.json").write_text(json.dumps({"atoms": [
                {"a": f"a{i}", "b": f"b{j}", "y": (i + j) / 4, "p": 1 / 9}
                for i in range(3) for j in range(3)]}))
            (root / "train.json").write_text(json.dumps({
                "mode": "batch", "seed": 0, "m": 6, "data": "pairs.json",
                "out_model_a": "model_a.json", "out_model_b": "model_b.json"}))
            assert main(["run", "--config", "train.json"]) == 0
            prior_argv = ["gen-data", "--generator", "prior", "--prior-name", "custom",
                          "--atoms", "atoms.json", "--seed", "1", "--out", "prior.json"]
            assert main(prior_argv) == 0
            assert main(["gen-data", "--generator", "additive-linear-noise", "--days", "30",
                         "--seed", "1", "--params", '{"d_a": 1, "d_b": 1}',
                         "--out", "data.json"]) == 0
            read = {f.name: json.loads(f.read_text()) for f in root.iterdir()}
        finally:
            os.chdir(cwd)
        a, b = read["model_a.json"], read["model_b.json"]
        models = {"model_a.json": a, "model_b.json": b, "pairs.json": read["pairs.json"]}
        model_sites = [((f,) if path else ("model_a.json", "model_b.json"), path, section)
                       for f, model in (("model_a.json", a), ("model_b.json", b))
                       for path, section in model_sections(model)
                       if path or f == "model_a.json"]
        assert {s for *_, s in model_sites} == {"batch model", "boost record", "linear model"}
        run = ["run", "--config", "cfg.json"]
        return {
            "examples": ({"data.json": read["data.json"], "cfg.json": self.ONLINE_FILE}, run,
                         "online", [(("data.json",), (), "examples file")]),
            "batch model": (models, ["eval", "--models", "model_a.json", "model_b.json",
                                     "--points", "pairs.json", "--out", "preds.csv"],
                            "eval", model_sites),
            "prior": ({"prior.json": read["prior.json"], "cfg.json": self.BAYES_FILE}, run,
                      "bayes", [(("prior.json",), (), "prior file"),
                                (("prior.json",), ("encoding",), "prior encoding")]),
            "atoms": ({"atoms.json": read["atoms.json"]}, prior_argv, "atoms",
                      [(("atoms.json",), (), "atoms file")]),
            "policies": ({"policies.json": {"policies": {"cycle": [t % 2 for t in range(30)]}},
                          "cfg.json": self.DECISION_FILE}, run, "decision",
                         [(("policies.json",), (), "policies file")]),
        }

    @staticmethod
    def _run(root, capsys, case, edits):
        """Write the files of `case` with each (file names, section path, field,
        value, spec, whether the table rejects it) of `edits` applied, run its
        command in a fresh directory and check the contract."""
        files, argv, mode, _sites = case
        files = copy.deepcopy(files)
        for names_, path, f, value, _spec, _reject in edits:
            for name in names_:
                node = files[name]
                for k in path:
                    node = node[k]
                node[f] = value
        wd = Path(tempfile.mkdtemp(dir=root))
        for name, doc in files.items():
            (wd / name).write_text(json.dumps(doc))
        cwd = os.getcwd()
        os.chdir(wd)
        capsys.readouterr()
        try:
            code = main(argv)
            err = capsys.readouterr().err
            where = (edits, err)
            assert code in (0, 2), where
            if any(reject for *_, reject in edits):
                assert code == 2, where
                assert any(names(err, f, spec) for _, _, f, _, spec, _ in edits), where
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, where
            elif mode == "eval":
                replayed(["model_a.json", "model_b.json"], "pairs.json")
            elif mode != "atoms":
                check_invariants(mode, wd, files.get("cfg.json", {}))
        finally:
            os.chdir(cwd)
            shutil.rmtree(wd)

    @staticmethod
    def _sites(case):
        """(file names, section path, field, spec) of every table field of a case's files."""
        return [(names_, path, f, spec) for names_, path, section in case[3]
                for f, spec in SECTIONS[section].items()]

    @pytest.mark.parametrize("kind", ["examples", "batch model", "prior", "atoms", "policies"])
    def test_every_field_takes_every_mutation(self, inputs, tmp_path, capsys, kind):
        case = inputs[kind]
        for names_, path, f, spec in self._sites(case):
            rejected, passed = mutations(spec)
            for value, reject in [(v, True) for v in rejected] + [(v, False) for v in passed]:
                self._run(tmp_path, capsys, case, [(names_, path, f, value, spec, reject)])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_two_fields_at_once(self, inputs, tmp_path, capsys, data):
        case = inputs[data.draw(st.sampled_from(sorted(inputs)))]
        edits = []
        sites = self._sites(case)
        for names_, path, f, spec in data.draw(st.lists(
                st.sampled_from(sites), min_size=min(2, len(sites)), max_size=2,
                unique_by=lambda s: (s[0], s[1], s[2]))):
            rejected, passed = mutations(spec)
            reject = data.draw(st.booleans()) if rejected and passed else bool(rejected)
            value = data.draw(st.sampled_from(rejected if reject else passed))
            edits.append((names_, path, f, value, spec, reject))
        # a section replaced by an earlier edit has no fields left to edit
        if not any(e[1][:len(p[1]) + 1] == p[1] + (p[2],) for p in edits for e in edits if e is not p):
            self._run(tmp_path, capsys, case, edits)


# The malformed inputs that once escaped the table: LAPACK's own error lines,
# a bare conversion message or a traceback. Each exits 2 with one line.
MODEL_COEF = "a batch model: initial model: field 'coef'"
PRIOR_ENCODING = "a prior: encoding 'a': field 'a0'"
# a 4-wide coef is too long to show whole: its whole first items, each number
# to 3 significant digits, and the item count
CUT = r"(, -?\d[.\d]*(e[-+]\d+)?…)+(, …)?\] \(4 numbers\)"


@pytest.mark.parametrize("case, value, message", [
    ("model", "1e400", MODEL_COEF + " must be a non-empty list of finite numbers, found [Infinity"
     + CUT),
    ("model", "NaN", MODEL_COEF + " must be a non-empty list of finite numbers, found [NaN" + CUT),
    ("prior", "NaN", PRIOR_ENCODING + " must be a non-empty list of finite numbers, found [NaN]"),
    ("prior", "1e400",
     PRIOR_ENCODING + " must be a non-empty list of finite numbers, found [Infinity]"),
    ("config", '{"d_a": 1e14}', "dataset: generator 'additive-linear-noise': field 'd_a' "
                                "must lie in [1,64], found 100000000000000.0"),
    ("gen-data", '{"d_a": 1e14}', "gen-data: generator 'additive-linear-noise': field 'd_a' "
                                  "must lie in [1,64], found 100000000000000.0"),
    ("config", '{"rho": 0.5}', "dataset: generator 'd-rho': field 'rho' must be at least 1, "
                               "found 0.5"),
    ("gen-data", '{"rho": 0.5}', "gen-data: generator 'd-rho': field 'rho' must be at least 1, "
                                 "found 0.5"),
], ids=["model-coef-1e400", "model-coef-nan", "prior-encoding-nan", "prior-encoding-1e400",
        "config-d_a-1e14", "gen-data-d_a-1e14", "config-rho-half", "gen-data-rho-half"])
def test_once_escaped_inputs_exit_2_with_one_line(tmp_path, python, case, value, message):
    def collab(*argv):
        return python("-m", "collabpred.cli", *argv, cwd=tmp_path)

    generator = "d-rho" if "rho" in value else "additive-linear-noise"
    if case == "model":
        (tmp_path / "pairs.json").write_text(json.dumps(nonlinear_pairs(40, 1, d=4)))
        (tmp_path / "train.json").write_text(json.dumps(
            {"mode": "batch", "seed": 0, "m": 4, "data": "pairs.json",
             "out_model_a": "a.json", "out_model_b": "b.json"}))
        assert collab("run", "--config", "train.json").returncode == 0
        model = json.loads((tmp_path / "b.json").read_text())
        model["initial"]["coef"][0] = "VALUE"
        (tmp_path / "b.json").write_text(json.dumps(model).replace('"VALUE"', value))
        proc = collab("eval", "--models", "a.json", "b.json", "--points", "pairs.json",
                      "--out", "preds.csv")
    elif case == "prior":
        assert collab("gen-data", "--generator", "prior", "--prior-name", "additive",
                      "--seed", "1", "--out", "prior.json").returncode == 0
        prior = json.loads((tmp_path / "prior.json").read_text())
        prior["encoding"]["a"] = {"a0": ["VALUE"], "a1": [1.0]}
        (tmp_path / "prior.json").write_text(json.dumps(prior).replace('"VALUE"', value))
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"mode": "bayes", "seed": 1, "rounds": 2, "m": 4, "prior": {"path": "prior.json"}}))
        proc = collab("run", "--config", "cfg.json")
    elif case == "config":
        (tmp_path / "cfg.json").write_text(json.dumps(dict(
            ONLINE, dataset={"generator": generator, "params": json.loads(value)})))
        proc = collab("run", "--config", "cfg.json")
    else:
        proc = collab("gen-data", "--generator", generator, "--seed", "1", "--params", value,
                      "--out", "data.json")
    assert proc.returncode == 2, proc.stderr
    head, cut, _ = message.partition(CUT)
    assert re.fullmatch(f"error: {re.escape(head)}{cut}\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("name", [*datagen.GENERATORS, "batch-additive"])
def test_generator_section_names_its_parameters(name):
    # the table and the signatures cannot drift: after (T or n, seed), each
    # parameter has a row, whose default leaves it to the generator
    gen = datagen.GENERATORS.get(name, datagen.additive_batch_sample)
    assert list(SECTIONS[f"{name} params"]) == list(inspect.signature(gen).parameters)[2:]
    assert all(spec.default is None for spec in SECTIONS[f"{name} params"].values())


def test_default_decision_dataset_takes_the_tasks_d(tmp_path, monkeypatch):
    # the [1,64] row bounds a `params` d the config gives; the default
    # stream's d is the task's, which the utility matrix written out bounds
    utility = [[1.0 if i == j else 0.0 for j in range(70)] for i in range(2)]
    (tmp_path / "cfg.json").write_text(json.dumps({
        "mode": "decision", "seed": 1, "days": 20, "rounds": 2, "task": {"utility": utility},
        "out": "decision.json"}))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "cfg.json"]) == 0
    assert (tmp_path / "decision.json").exists()
