"""The four benchmark workloads: seeded inputs, command sequences and output checks.

A workload is a fixed sequence of ``collab`` commands. Every repetition runs
the sequence in a fresh directory ``repN`` under the work directory, which
holds the inputs built from the benchmark seed; commands refer to those
inputs as ``../<file>``.

The checks read only the files the program wrote and the inputs the
benchmark generated; they never import the program. They accept any correct
implementation: solver-dependent numbers are compared with a tolerance,
everything else byte for byte where the behavioural contract fixes it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PINS_FILE = Path(__file__).resolve().parent / "pins.json"

# (absolute, relative) tolerances for pinned solver-dependent fields, which
# move when the projected-gradient solver is replaced by an exact one.
# Online fields are sums over 8000 days. The online audits make no projected
# fits at the pinned seed (see ONLINE_C), so they hold a margin for the joint
# fit and for solvers that differ from closed-form least squares in rounding.
ONLINE_SOLVER_TOL = (1e-2, 1e-4)
# Batch training is discrete: a better fit can change level sets and rounds.
# Exact replay and the 3/m guarantee are its real checks; the pin only
# catches gross changes.
BATCH_SOLVER_TOL = (0.0, 0.25)
# The Bayes joint benchmark is an expectation, and its fit converges exactly
# at the pinned seed.
BAYES_SOLVER_TOL = (1e-6, 1e-4)

Failure = Tuple[str, str]  # (artifact, message)
Gen = Callable[[List[str]], None]  # runs one `collab gen-data ...` in the work directory


@dataclass(frozen=True)
class Command:
    """One `collab` invocation and the files it writes in its directory."""

    argv: Tuple[str, ...]
    artifacts: Tuple[str, ...]
    stdout: Optional[str] = None  # file that captures stdout; also an artifact

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self.artifacts + ((self.stdout,) if self.stdout else ())


@dataclass(frozen=True)
class Workload:
    name: str
    ref_seed: int                 # seed at which pins.json fixes outputs
    build: Callable[[int, Path, Gen], None]
    commands: Tuple[Command, ...]             # the timed sequence
    check_commands: Tuple[Command, ...]       # untimed, run once in rep0
    setup_probe: str              # Python run in a fresh process for setup_s
    check: Callable[[Path, Path, int], List[Failure]]

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(f for c in self.commands + self.check_commands for f in c.outputs)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def group_failures(failures: List[Failure]) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for artifact, message in failures:
        out.setdefault(artifact, []).append(message)
    return out


def load_pins(workload: str, seed: int) -> Optional[dict]:
    pins = json.loads(PINS_FILE.read_text()).get(workload)
    return pins if pins and pins["seed"] == seed else None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _solver_close(value: float, pinned: float, tol: Tuple[float, float]) -> bool:
    return abs(value - pinned) <= tol[0] + tol[1] * abs(pinned)


def _leaves(obj, prefix=""):
    """Flatten nested dicts to {dotted key: value}."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_leaves(v, f"{prefix}{k}."))
        return out
    return {prefix[:-1]: obj}


def _check_pinned_leaves(artifact: str, values: dict, pins: dict,
                         solver_prefixes: Tuple[str, ...] = (),
                         tol: Tuple[float, float] = (0.0, 0.0)) -> List[Failure]:
    """Exact match for pinned leaves, tolerance `tol` for solver-dependent ones."""
    bad = []
    got = _leaves(values)
    for key, want in _leaves(pins).items():
        if key not in got:
            bad.append((artifact, f"missing field {key}"))
        elif key.startswith(solver_prefixes):
            if not _solver_close(got[key], want, tol):
                bad.append((artifact, f"{key} = {got[key]!r}, pinned {want!r} beyond solver tolerance"))
        elif got[key] != want:
            bad.append((artifact, f"{key} = {got[key]!r}, pinned {want!r}"))
    return bad


def _read_json(rd: Path, name: str, bad: List[Failure]):
    try:
        return json.loads((rd / name).read_text())
    except (OSError, ValueError) as e:
        bad.append((name, f"unreadable: {e}"))
        return None


# --- online-conv ------------------------------------------------------------

ONLINE_T, ONLINE_K, ONLINE_EPS = 8000, 8, 0.2
ONLINE_G, ONLINE_M = 0.25, 20
ONLINE_PARAMS = {"signal_a": 0.45, "signal_b": 0.45, "noise": 0.1}
# Norm bound of the audits' linear class. At the default C=1 the final report
# makes 22 to 45 projected-gradient fits depending on the seed, and one run
# takes from 8.4 s to 13.6 s; that spread swamps the timing. At C=1000 the
# least-squares fits stay in closed form, so every seed does about the same
# work. The learners keep their own bound, so C reaches only the audits.
ONLINE_C = 1000.0


def build_online(seed: int, wd: Path, gen: Gen) -> None:
    # the run generates its own stream from the config seed, as a user's would
    _write_json(wd / "config.json", {
        "mode": "online", "seed": seed, "days": ONLINE_T, "rounds": ONLINE_K,
        "eps": ONLINE_EPS, "C": ONLINE_C,
        "dataset": {"generator": "additive-linear-noise", "params": ONLINE_PARAMS},
        "alice": {"kind": "conversation", "m": ONLINE_M, "g": ONLINE_G},
        "bob": {"kind": "conversation", "m": ONLINE_M, "g": ONLINE_G},
        "bucketing": {"g": ONLINE_G, "m": ONLINE_M},
        "out": "report.json", "transcript": "transcript.txt", "csv": "metrics.csv",
    })


def _read_transcript(path: Path, bad: List[Failure]):
    lines = path.read_text().splitlines()
    try:
        T, K = map(int, lines[0].split())
        rows = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    except (IndexError, ValueError) as e:
        bad.append(("transcript.txt", f"unparseable: {e}"))
        return None
    if (T, K) != (ONLINE_T, ONLINE_K) or rows.shape != (T, K + 1):
        bad.append(("transcript.txt", f"shape {rows.shape} for header {T} {K}"))
        return None
    if rows.min() < 0.0 or rows.max() > 1.0:
        bad.append(("transcript.txt", "value outside [0,1]"))
    return rows


def _round_metrics(rows: np.ndarray) -> List[Tuple[float, float, Optional[float]]]:
    """Reference (sqe, ece, disagreement) per round, recomputed from the transcript."""
    y = rows[:, 0]
    out = []
    for k in range(1, rows.shape[1]):
        p = rows[:, k]
        ece = sum(abs(float(np.sum(v - y[p == v]))) for v in np.unique(p))
        dis = None if k == 1 else float(np.mean(np.abs(p - rows[:, k - 1]) >= ONLINE_EPS))
        out.append((float(np.sum((p - y) ** 2)), ece, dis))
    return out


def _read_metrics_csv(path: Path, bad: List[Failure]):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["round", "sqe", "ece", f"disagreement@{ONLINE_EPS}"]] or len(rows) != ONLINE_K + 1:
        bad.append((path.name, "unexpected header or row count"))
        return None
    try:
        return [(float(r[1]), float(r[2]), float(r[3]) if r[3] else None) for r in rows[1:]]
    except (IndexError, ValueError) as e:
        bad.append((path.name, f"unparseable: {e}"))
        return None


def check_online(rd: Path, wd: Path, seed: int) -> List[Failure]:
    bad: List[Failure] = []
    pins = load_pins("online-conv", seed)
    if pins:
        for name, digest in pins["sha256"].items():
            if sha256_file(rd / name) != digest:
                bad.append((name, "SHA-256 differs from the pinned reference"))
    if (rd / "metrics.csv").read_bytes() != (rd / "report_metrics.csv").read_bytes():
        bad.append(("report_metrics.csv", "collab report CSV differs from the run's CSV"))
    rows = _read_transcript(rd / "transcript.txt", bad)
    csv_rows = _read_metrics_csv(rd / "metrics.csv", bad)
    if rows is None or csv_rows is None:
        return bad
    for k, (want, got) in enumerate(zip(_round_metrics(rows), csv_rows), start=1):
        if not all((w is None) == (g is None) and (w is None or _close(w, g))
                   for w, g in zip(want, got)):
            bad.append(("metrics.csv", f"round {k}: {got} but transcript gives {want}"))

    report = _read_json(rd, "report.json", bad)
    rep = _read_json(rd, "report_metrics.json", bad)
    if report is None or rep is None:
        return bad
    sqe = [r[0] for r in csv_rows]
    if report["sqe"] != sqe[-1]:
        bad.append(("report.json", "final sqe differs from the CSV"))
    if [report["round_errors"]["sqe"][str(k)] for k in range(1, ONLINE_K + 1)] != sqe:
        bad.append(("report.json", "round_errors.sqe differs from the CSV"))
    for k in range(2, ONLINE_K + 1):
        if report["disagreement_fraction_by_round"][f"{k},{ONLINE_EPS}"] != csv_rows[k - 1][2]:
            bad.append(("report.json", f"disagreement at round {k} differs from the CSV"))
    if (rep["T"], rep["K"]) != (ONLINE_T, ONLINE_K):
        bad.append(("report_metrics.json", "wrong T or K"))
    if [rep["sqe_by_round"][str(k)] for k in range(1, ONLINE_K + 1)] != sqe:
        bad.append(("report_metrics.json", "sqe_by_round differs from the CSV"))
    if [rep["ece_by_round"][str(k)] for k in range(1, ONLINE_K + 1)] != [r[1] for r in csv_rows]:
        bad.append(("report_metrics.json", "ece_by_round differs from the CSV"))
    if pins:
        bad += _check_pinned_leaves("report.json", report, pins["report.json"], (
            "swap_regret_by_class.linear_", "conversation_swap_regret.",
            "joint_benchmark_error", "external_regret_joint"), ONLINE_SOLVER_TOL)
        bad += _check_pinned_leaves("report_metrics.json", rep, pins["report_metrics.json"])
    return bad


# --- batch-train-replay -----------------------------------------------------

BATCH_REF_DATA_SEED, BATCH_N, BATCH_M, BATCH_POINTS = 404, 2000, 10, 20_000


def build_batch(seed: int, wd: Path, gen: Gen) -> None:
    # The training pairs are the reference draw in a seed-dependent row order.
    # Batch training is invariant to row order, so every seed does the same
    # work; fresh draws range from 7 to 25 projected fits (1.4 s to 4.6 s).
    gen(["gen-data", "--generator", "batch-additive", "--days", str(BATCH_N),
         "--seed", str(BATCH_REF_DATA_SEED), "--out", "ref_pairs.json"])
    data = json.loads((wd / "ref_pairs.json").read_text())
    order = np.random.default_rng(seed).permutation(BATCH_N)
    data["examples"] = [data["examples"][i] for i in order]
    _write_json(wd / "pairs.json", data)
    gen(["gen-data", "--generator", "batch-additive", "--days", str(BATCH_POINTS),
         "--seed", str(seed + 1), "--out", "points.json"])
    _write_json(wd / "config.json", {
        "mode": "batch", "seed": seed, "m": BATCH_M, "data": "../pairs.json",
        "out": "batch.json", "out_model_a": "model_a.json", "out_model_b": "model_b.json",
    })


def _read_preds(path: Path, n: int, bad: List[Failure]) -> Optional[np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        idx = [int(r[0]) for r in rows[1:]]
        vals = np.array([float(r[1]) for r in rows[1:]])
    except (IndexError, ValueError) as e:
        bad.append((path.name, f"unparseable: {e}"))
        return None
    if rows[0] != ["index", "prediction"] or idx != list(range(n)):
        bad.append((path.name, f"expected header and indices 0..{n - 1}"))
        return None
    grid = vals * BATCH_M
    if vals.min() < 0.0 or vals.max() > 1.0 or np.abs(grid - np.round(grid)).max() > 1e-9:
        bad.append((path.name, f"prediction off the 1/{BATCH_M} grid"))
    return vals


def level_set_counts(model: dict) -> Tuple[int, int]:
    """(kept, deferred) level-set entries recorded in a saved model transcript."""
    entries = [t for levels in model["rounds"].values() for t in levels.values()]
    return sum(t is not None for t in entries), sum(t is None for t in entries)


def check_batch(rd: Path, wd: Path, seed: int) -> List[Failure]:
    bad: List[Failure] = []
    report = _read_json(rd, "batch.json", bad)
    models = [_read_json(rd, f"model_{s}.json", bad) for s in "ab"]
    if report is None or None in models:
        return bad
    if not report["swap_regret_union"] <= 3.0 / BATCH_M:
        bad.append(("batch.json", f"swap_regret_union {report['swap_regret_union']} > 3/m"))
    for name, model, side in zip(("model_a.json", "model_b.json"), models, ("alice", "bob")):
        if (model.get("format"), model.get("side"), model.get("m")) != (
                "collabpred-batch-model", side, BATCH_M):
            bad.append((name, "wrong format, side or grid size"))
        if model.get("rounds_total") != report["rounds"]:
            bad.append((name, "rounds_total differs from the report's rounds"))
    y = np.array([e["y"] for e in json.loads((wd / "pairs.json").read_text())["examples"]])
    train = _read_preds(rd / "train_preds.csv", BATCH_N, bad)
    if train is not None and float(np.mean((train - y) ** 2)) != report["train_sqe_mean"]:
        bad.append(("train_preds.csv", "replay on the training pairs does not reproduce train_sqe_mean"))
    _read_preds(rd / "preds.csv", BATCH_POINTS, bad)
    pins = load_pins("batch-train-replay", seed)
    if pins:
        bad += _check_pinned_leaves("batch.json", report, pins["batch.json"],
                                    ("train_sqe_mean", "swap_regret_union"), BATCH_SOLVER_TOL)
    return bad


# --- decision-actions -------------------------------------------------------

DECISION_T, DECISION_K, DECISION_POLICIES = 40_000, 4, 8
DECISION_TASK = {"d": 3, "actions": ["a", "b", "c", "d"],
                 "utility": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0]]}


def build_decision(seed: int, wd: Path, gen: Gen) -> None:
    rng = np.random.default_rng(seed)
    n_actions = len(DECISION_TASK["actions"])
    _write_json(wd / "policies.json", {"policies": {
        f"random{i}": rng.integers(0, n_actions, DECISION_T).tolist()
        for i in range(DECISION_POLICIES)
    }})
    _write_json(wd / "config.json", {
        "mode": "decision", "seed": seed, "days": DECISION_T, "rounds": DECISION_K,
        "task": DECISION_TASK, "policies": "../policies.json", "out": "decision.json",
    })


def check_decision(rd: Path, wd: Path, seed: int) -> List[Failure]:
    bad: List[Failure] = []
    report = _read_json(rd, "decision.json", bad)
    if report is None:
        return bad
    keys = {"decision_cal_error", "decision_cross_cal_error", "decision_swap_regret", "bound"}
    if set(report) != keys or not all(math.isfinite(v) for v in report.values()):
        bad.append(("decision.json", f"expected finite {sorted(keys)}"))
        return bad
    # constant policies are always in the set, so cross calibration covers calibration
    if report["decision_cross_cal_error"] < report["decision_cal_error"]:
        bad.append(("decision.json", "cross calibration error below calibration error"))
    if report["bound"] < 0.0:
        bad.append(("decision.json", "negative bound"))
    pins = load_pins("decision-actions", seed)
    if pins and sha256_file(rd / "decision.json") != pins["sha256"]["decision.json"]:
        bad.append(("decision.json", "SHA-256 differs from the pinned reference"))
    return bad


# --- bayes-verify -----------------------------------------------------------

BAYES_SIGNALS, BAYES_K, BAYES_M, VERIFY_CHECKS = 64, 8, 16, 7


def build_bayes(seed: int, wd: Path, gen: Gen) -> None:
    rng = np.random.default_rng(seed)
    n = BAYES_SIGNALS
    u_a, u_b = rng.uniform(size=n), rng.uniform(size=n)
    y = np.clip(0.5 * u_a[:, None] + 0.5 * u_b[None, :] + 0.1 * rng.standard_normal((n, n)), 0.0, 1.0)
    p = rng.uniform(size=(n, n))
    p /= p.sum()
    _write_json(wd / "atoms.json", {"atoms": [
        {"a": f"a{i:02d}", "b": f"b{j:02d}", "y": float(y[i, j]), "p": float(p[i, j])}
        for i in range(n) for j in range(n)
    ]})
    gen(["gen-data", "--generator", "prior", "--prior-name", "custom",
         "--atoms", "atoms.json", "--seed", str(seed), "--out", "prior.json"])
    _write_json(wd / "config.json", {
        "mode": "bayes", "seed": seed, "rounds": BAYES_K, "m": BAYES_M,
        "prior": {"path": "../prior.json"}, "out": "bayes.json",
    })


def canonical_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_bayes(rd: Path, wd: Path, seed: int) -> List[Failure]:
    bad: List[Failure] = []
    lines = (rd / "verify.txt").read_text().splitlines()
    if len(lines) != VERIFY_CHECKS or not all(ln.startswith("PASS ") for ln in lines):
        bad.append(("verify.txt", f"expected {VERIFY_CHECKS} PASS lines"))
    report = _read_json(rd, "bayes.json", bad)
    if report is None:
        return bad
    cap = 1.0 / (BAYES_M * BAYES_M)
    if report["swap_regret_cap"] != cap:
        bad.append(("bayes.json", "swap_regret_cap is not 1/m²"))
    worst = max(report["expected_conversation_swap_regret"].values())
    if worst > cap + 1e-12:
        bad.append(("bayes.json", f"conversation swap regret {worst} exceeds 1/m²"))
    ese = [report["expected_sqe_by_round"][str(k)] for k in range(1, BAYES_K + 1)]
    if any(b > a + 1e-12 for a, b in zip(ese, ese[1:])):
        bad.append(("bayes.json", "expected squared error increases across rounds"))
    floor = report["full_information_risk"]
    if not floor <= min(ese[-1], report["joint_benchmark_error"]) + 1e-12:
        bad.append(("bayes.json", "an error lies below the full-information risk"))
    pins = load_pins("bayes-verify", seed)
    if pins:
        rest = {k: v for k, v in report.items() if k != "joint_benchmark_error"}
        if canonical_sha256(rest) != pins["sha256"]["bayes.json minus joint_benchmark_error"]:
            bad.append(("bayes.json", "SHA-256 differs from the pinned reference"))
        if not _solver_close(report["joint_benchmark_error"], pins["joint_benchmark_error"],
                             BAYES_SOLVER_TOL):
            bad.append(("bayes.json", "joint_benchmark_error beyond solver tolerance of the pin"))
    return bad


def _probe(body: str) -> str:
    return "import json, sys\nimport collabpred.cli\n" + body


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="online-conv", ref_seed=7, build=build_online,
        commands=(
            Command(("run", "--config", "../config.json"),
                    ("report.json", "transcript.txt", "metrics.csv")),
            Command(("report", "--transcript", "transcript.txt", "--out", "report_metrics.json",
                     "--csv", "report_metrics.csv", "--eps", str(ONLINE_EPS),
                     "--g", str(ONLINE_G), "--m", str(ONLINE_M)),
                    ("report_metrics.json", "report_metrics.csv")),
        ),
        check_commands=(),
        setup_probe=_probe(
            "from collabpred import datagen\n"
            f"datagen.GENERATORS['additive-linear-noise']({ONLINE_T}, int(sys.argv[1]),\n"
            f"                                           **{ONLINE_PARAMS!r})\n"),
        check=check_online,
    ),
    Workload(
        name="batch-train-replay", ref_seed=404, build=build_batch,
        commands=(
            Command(("run", "--config", "../config.json"),
                    ("batch.json", "model_a.json", "model_b.json")),
            Command(("eval", "--models", "model_a.json", "model_b.json",
                     "--points", "../points.json", "--out", "preds.csv"), ("preds.csv",)),
        ),
        check_commands=(
            Command(("eval", "--models", "model_a.json", "model_b.json",
                     "--points", "../pairs.json", "--out", "train_preds.csv"), ("train_preds.csv",)),
        ),
        setup_probe=_probe(
            "from collabpred.batch import BatchSample\n"
            "for name in ('pairs.json', 'points.json'):\n"
            "    with open(name) as fh:\n"
            "        BatchSample.from_json_dict(json.load(fh))\n"),
        check=check_batch,
    ),
    Workload(
        name="decision-actions", ref_seed=5, build=build_decision,
        commands=(Command(("run", "--config", "../config.json"), ("decision.json",)),),
        check_commands=(),
        setup_probe=_probe(
            "from collabpred import datagen\n"
            f"datagen.decision_iid_dataset({DECISION_T}, int(sys.argv[1]), d={DECISION_TASK['d']})\n"
            "with open('policies.json') as fh:\n"
            "    json.load(fh)\n"),
        check=check_decision,
    ),
    Workload(
        name="bayes-verify", ref_seed=1, build=build_bayes,
        commands=(
            Command(("run", "--config", "../config.json"), ("bayes.json",)),
            Command(("verify",), (), stdout="verify.txt"),
        ),
        check_commands=(),
        setup_probe=_probe(
            "from collabpred.bayes import PriorTable\n"
            "with open('prior.json') as fh:\n"
            "    PriorTable.from_json_dict(json.load(fh))\n"),
        check=check_bayes,
    ),
)}
