"""The exit-code contract of `collab run`, fuzzed from the config field table.

One or two fields of a small valid config per mode take a value of the
wrong kind (a string, null, a list, a bool, NaN) or a number at or just past
a bound of the field's range in `cli.SECTIONS`. A number is only ever set
to a value the table rejects or to its range's closed lower end or one
above it, so no mutation makes a run allocate more than its seed config
does. `cli.main`
runs in-process and exits 0, 2 or 3. On 2 it prints one line that names a
mutated field; on 0 the run's invariants hold: every Bayes conversation
swap regret is at most its cap, and every online message lies in [0,1].
"""

import copy
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collabpred.cli import SECTIONS, main

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
                        (("dataset",), "dataset")]),
    "online-file": (dict(ONLINE, dataset={"path": "data.json"}, alice={"kind": "vaw"},
                         bob={"kind": "constant", "value": 0.5}),
                    [(("dataset",), "dataset file"), (("alice",), "vaw learner"),
                     (("bob",), "constant learner")]),
    "batch": ({"mode": "batch", "seed": 2, "m": 4, "C": 1.0, "out": "batch.json",
               "data": {"n": 30, "params": {"d_a": 1, "d_b": 1}}},
              [((), "batch config"), (("data",), "batch data")]),
    "decision": ({"mode": "decision", "seed": 2, "days": 30, "rounds": 2,
                  "task": {"d": 2, "actions": ["x", "y"], "utility": [[1, 0], [0, 1]]},
                  "dataset": {"generator": "decision-iid", "params": {"d": 2}},
                  "out": "decision.json"},
                 [((), "decision config"), (("task",), "task"), (("dataset",), "dataset")]),
    "bayes": ({"mode": "bayes", "seed": 2, "rounds": 3, "m": 4, "eps": 0.1,
               "prior": {"rho": 2.0}, "out": "bayes.json"},
              [((), "bayes config"), (("prior",), "prior")]),
}

# values of the wrong kind; the table passes a value of the object and any
# kinds through to the code that reads it, where a string may name a file
WRONG = {
    "int": ["x", None, [], True, math.nan, 2.5],
    "float": ["x", None, [], True, math.nan],
    "bool": [1, "no", None, []],
    "path": [1, [], True],
    "object": [[], "x", 5, None],
    "any": [[], 5, None],
}


def mutations(spec):
    """(values the table rejects, small values it passes) for a field of `spec`."""
    if spec.kind in ("object", "any"):
        return [], list(WRONG[spec.kind])
    rejected, passed = list(WRONG[spec.kind]), []
    if spec.kind == "bool":
        passed = [True, False]
    if spec.kind == "path":
        (passed if spec.default is None else rejected).append(None)
    if spec.lo is not None:
        rejected.append(spec.lo - 1)
        (rejected if spec.open else passed).append(spec.lo)
        if not spec.open:
            passed.append(spec.lo + 1)       # small, so cheap, and inside every range
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
    if spec.kind in ("object", "any"):
        return re.search(rf"\b{re.escape(field)}\b", err) is not None
    return f"field '{field}'" in err


def check_invariants(mode: str, wd: Path):
    if mode == "bayes" and (wd / "bayes.json").exists():
        report = json.loads((wd / "bayes.json").read_text())
        cap = report["swap_regret_cap"]
        assert all(v <= cap + 1e-12 for v in report["expected_conversation_swap_regret"].values())
    if mode.startswith("online") and (wd / "transcript.txt").exists():
        days = (wd / "transcript.txt").read_text().splitlines()[1:]
        messages = [float(v) for line in days for v in line.split()[1:]]
        assert messages and all(0.0 <= v <= 1.0 for v in messages)


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
                check_invariants(mode, wd)
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
