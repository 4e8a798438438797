"""Experiment harness: config-driven runs, data generation, verification.

Exit codes: 0 success, 2 config/validation failure, 3 verification failure
(an uncertified solver fit included).
Every run is seeded and writes byte-identical artifacts when repeated with
the same config. Set COLLAB_LOG=DEBUG|INFO|WARNING to control verbosity.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import logging
import math
import os
import sys
from array import array
from typing import NamedTuple, Optional

# OpenBLAS starts its thread pool when numpy loads, and no product here gains from a second thread
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import datagen
from .batch import (
    BatchModelTranscript,
    BatchSample,
    LsqOracle,
    collaborate,
    eval_test_points,
    final_swap_regret,
)
from .bayes import PriorTable, expected_conversation_swap_regret, run_bayes_protocol
from .core import (
    ALICE,
    BOB,
    GRID_MAX,
    BucketingSpec,
    ConversationTranscript,
    SequenceDataset,
    conversation_swap_regret,
    read_examples,
    round_table,
)
from .decisions import (
    BaselineForecaster,
    DecisionTask,
    PolicySet,
    decision_cal_error,
    decision_cross_cal_error,
    decision_swap_regret,
    run_decision_protocol,
)
from .learners import BANK_KINDS, ConversationWrapper
from .protocol import (
    ConstantLearner,
    ProtocolError,
    final_regret_report,
    run_collaboration,
    run_solo,
)
from .verify import run_all as run_verify_checks
from .weaklearn import LinearClassSpec, UncertifiedFit

log = logging.getLogger("collabpred")


class ConfigError(ValueError):
    pass


def _setup_logging():
    level = os.environ.get("COLLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, found {type(value).__name__}")
    return value


REQUIRED = object()   # the default of a field a section must give


class Field(NamedTuple):
    """A config field's kind, default and, for a number, range from `lo` to
    `hi` (None: unbounded), both ends open or both closed. Kinds: int, float
    (finite), bool, path (a string; null means absent when the field is
    optional), object (a JSON object its reader checks, a section against its
    own table) and any (checked where read: a name, a matrix, a file)."""

    kind: str
    default: object = REQUIRED
    lo: Optional[float] = None
    hi: Optional[float] = None
    open: bool = False


_M, _OUT = Field("int", REQUIRED, 1, GRID_MAX), Field("path", None)
_SEED = Field("int", REQUIRED, 0)   # numpy's default_rng takes no negative seed
_EPS = Field("float", REQUIRED, 0, 1, open=True)
_A = Field("float", 1.0, 0, open=True)

# section -> field -> spec; the learner sections are keyed "<kind> learner", and
# a bank kind's fixed arguments are in `learners.BANK_KINDS`
SECTIONS = {
    "online config": {
        "mode": Field("any"), "seed": _SEED, "days": Field("int", REQUIRED, 1),
        "rounds": Field("int", REQUIRED, 2), "eps": _EPS, "dataset": Field("object"),
        "alice": Field("object"), "bob": Field("object"), "bucketing": Field("object", {}),
        "C": Field("float", 1.0, 0.5), "solo_baselines": Field("bool", False),
        "out": _OUT, "transcript": _OUT, "csv": _OUT,
    },
    "bucketing": {"g": Field("float", 0.1), "m": Field("int", 10, 1, GRID_MAX)},
    "dataset": {"generator": Field("any"), "days": Field("int", None, 1),
                "params": Field("any", {})},
    "dataset file": {"path": Field("path")},
    "constant learner": {"kind": Field("any"), "value": Field("float", 0.5, 0, 1)},
    "vaw learner": {"kind": Field("any"), "a": _A},
    "swap learner": {"kind": Field("any"), "a": _A, "m": Field("int", 10, 1, GRID_MAX)},
    "conversation learner": {"kind": Field("any"), "a": _A, "m": Field("int", 10, 1, GRID_MAX),
                             "g": Field("float", 0.1)},
    "batch config": {
        "mode": Field("any"), "seed": _SEED, "m": _M, "data": Field("any"),
        "C": Field("float", 1.0, 0.5), "out": _OUT, "out_model_a": _OUT, "out_model_b": _OUT,
    },
    "batch data": {"n": Field("int", 1000, 1), "params": Field("any", {})},
    "decision config": {
        "mode": Field("any"), "seed": _SEED, "days": Field("int", REQUIRED, 1),
        "rounds": Field("int", REQUIRED, 2), "task": Field("object"),
        "dataset": Field("object", None), "out": _OUT, "policies": _OUT,
    },
    "task": {"utility": Field("any"), "d": Field("any", None), "actions": Field("any", None)},
    "policies file": {"policies": Field("object")},
    "bayes config": {
        "mode": Field("any"), "seed": _SEED, "rounds": Field("int", REQUIRED, 1),
        "m": _M, "eps": Field("float", 0.1, 0, 1, open=True), "prior": Field("any"),
        "out": _OUT,
    },
    "prior": {"path": Field("path", None), "rho": Field("float", None, 1)},
    "report": {"eps": _EPS, "g": Field("float"), "m": _M},
}


def _check(v, spec: Field, where: str, name: str):
    """v as a value of `spec`; ConfigError naming the field otherwise. Values
    of the object and any kinds pass through to the code that reads them."""
    if spec.kind in ("object", "any"):
        return v
    ok, what = {
        "int": (type(v) is int or type(v) is float and v.is_integer(), "an integer"),
        "float": (type(v) is int or type(v) is float and math.isfinite(v), "a number"),
        "bool": (type(v) is bool, "true or false"),
        "path": (type(v) is str or v is None and spec.default is None, "a file path"),
    }[spec.kind]
    if not ok:
        raise ConfigError(f"{where}: field '{name}' must be {what}, found {json.dumps(v)[:40]}")
    if spec.kind not in ("int", "float"):
        return v
    lo, hi, closed = spec.lo, spec.hi, not spec.open
    if not ((lo is None or v > lo or closed and v == lo)
            and (hi is None or v < hi or closed and v == hi)):
        ends = "[]" if closed else "()"
        must = (f"lie in {ends[0]}{lo},{hi}{ends[1]}" if hi is not None
                else f"be {'at least' if closed else 'greater than'} {lo}")
        raise ConfigError(f"{where}: field '{name}' must {must}, found {json.dumps(v)[:40]}")
    return int(v) if spec.kind == "int" else float(v)


def _read(cfg, section: str, where: Optional[str] = None) -> dict:
    """Every field of `SECTIONS[section]`: its value in the JSON object `cfg`,
    checked, or its default when absent. A missing required field, an unknown
    one or a bad value is a ConfigError naming it; `where` (the section's name
    by default) begins each message."""
    where = where or section
    table = SECTIONS[section]
    _object(cfg, where)
    for f, spec in table.items():
        if spec.default is REQUIRED and f not in cfg:
            raise ConfigError(f"{where}: missing required field '{f}'")
    for f in cfg:
        if f not in table:
            raise ConfigError(f"{where}: unknown field '{f}'")
    return {f: _check(cfg[f], spec, where, f) if f in cfg else spec.default
            for f, spec in table.items()}


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_dataset(spec, seed: int, days: int):
    """The dataset a config's `dataset` names: a file, or a generator's output."""
    if isinstance(spec, dict) and "path" in spec:
        with open(_read(spec, "dataset file", "dataset")["path"]) as fh:
            x_a, x_b, y, file_seed = read_examples(fh, "a dataset")
        return SequenceDataset(x_a, x_b, y, seed=file_seed)
    c = _read(spec, "dataset")
    T = days if c["days"] is None else c["days"]
    return _generate(c["generator"], T, seed, c["params"], "dataset")


def _read_sample(path: str) -> BatchSample:
    """The batch sample of an `examples` file; its seed is ignored."""
    with open(path) as fh:
        x_a, x_b, y, _seed = read_examples(fh, "a batch sample")
    return BatchSample(x_a=x_a, x_b=x_b, y=y)


def _generate(name, T: int, seed: int, params, where: str):
    """Run a named dataset generator; see `_call_generator`."""
    gen = datagen.GENERATORS.get(name) if isinstance(name, str) else None
    if gen is None:
        raise ConfigError(f"{where}: unknown generator '{name}'")
    return _call_generator(gen, T, seed, params, f"{where}: generator '{name}'")


def _call_generator(gen, T: int, seed: int, params, where: str):
    """gen(T, seed, **params), naming the parameter a bad `params` gets wrong;
    each value is read as a number of its default's type."""
    _object(params, f"{where}: params")
    sig = inspect.signature(gen)
    try:
        sig.bind(T, seed, **params)
    except TypeError as e:
        raise ConfigError(f"{where}: {e}") from None
    kinds = {k: Field(type(p.default).__name__) for k, p in sig.parameters.items()}
    return gen(T, seed, **{k: _check(v, kinds[k], where, k) for k, v in params.items()})


def _learner(cfg, where: str):
    """The builder, given a dimension d and a peer, of the learner a config
    names; a bank learner joins the peer's pool when m, d and mode agree."""
    section = f"{_object(cfg, where).get('kind')} learner"
    if section not in SECTIONS:
        if "kind" in cfg:
            raise ConfigError(f"{where}: unknown learner kind '{cfg['kind']}'")
        raise ConfigError(f"{where}: missing required field 'kind'")
    args = _read(cfg, section, where)
    kind = args.pop("kind")
    if kind == "constant":
        return lambda d, peer=None: ConstantLearner(**args)
    # built through the module name at call time: bench/tracing.py proxies it
    return lambda d, peer=None: ConversationWrapper(d=d, peer=peer, **args, **BANK_KINDS[kind])


def _write_metrics_csv(path: str, table: dict, eps: float) -> None:
    """The per-round metrics CSV of a `round_table`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "sqe", "ece", f"disagreement@{eps}"])
        for k, v in table["sqe"].items():
            dis = table["disagreement"].get(k)
            w.writerow([k, repr(v), repr(table["ece"][k]), "" if dis is None else repr(dis)])


def run_online(cfg: dict) -> int:
    c = _read(cfg, "online config")
    build_alice, build_bob = _learner(c["alice"], "alice"), _learner(c["bob"], "bob")
    bucketing = BucketingSpec(**_read(c["bucketing"], "bucketing"))
    dataset = _load_dataset(c["dataset"], c["seed"], c["days"])
    if dataset.y.ndim != 1:
        raise ConfigError(f"dataset: field 'y' must have shape (T,) for an online run, "
                          f"found {dataset.y.shape}")
    d_a, d_b = dataset.x_a.shape[1], dataset.x_b.shape[1]
    alice = build_alice(d_a)
    bob = build_bob(d_b, peer=alice)
    eps = c["eps"]

    transcript = run_collaboration(dataset, alice, bob, c["rounds"])
    spec_a = LinearClassSpec(d=d_a, C=c["C"])
    spec_b = LinearClassSpec(d=d_b, C=c["C"])
    table = round_table(transcript, eps)
    payload = final_regret_report(transcript, dataset, spec_a, spec_b, bucketing, eps, table)
    if c["solo_baselines"]:
        payload["solo_sqe"] = dict(zip(("alice", "bob"), run_solo(dataset)))
    if c["transcript"] is not None:
        with open(c["transcript"], "w") as fh:
            fh.write(transcript.to_text())
    if c["csv"] is not None:
        _write_metrics_csv(c["csv"], table, eps)
    if c["out"] is not None:
        _write_json(c["out"], payload)
    log.info("online run complete: final sqe %.4f", payload["sqe"])
    return 0


def run_batch(cfg: dict) -> int:
    c = _read(cfg, "batch config")
    if isinstance(c["data"], str):
        sample = _read_sample(c["data"])
    else:
        data = _read(c["data"], "batch data")
        sample = _call_generator(datagen.additive_batch_sample, data["n"], c["seed"],
                                 data["params"], "batch data")
    spec_a = LinearClassSpec(d=sample.x_a.shape[1], C=c["C"])
    spec_b = LinearClassSpec(d=sample.x_b.shape[1], C=c["C"])
    result = collaborate(sample, LsqOracle(spec_a), LsqOracle(spec_b), c["m"])
    if c["out_model_a"] is not None:
        result.transcript_a.save(c["out_model_a"])
    if c["out_model_b"] is not None:
        result.transcript_b.save(c["out_model_b"])
    if c["out"] is not None:
        final = result.final_values
        _write_json(c["out"], {
            "rounds": result.rounds,
            "train_sqe_mean": float(np.mean((final - sample.y) ** 2)),
            "swap_regret_union": final_swap_regret(final, sample, spec_a, spec_b),
        })
    log.info("batch training halted after %d rounds", result.rounds)
    return 0


def _load_policies(path: str) -> dict:
    """{name: action per row} from a `{"policies": {name: [action, …]}}` file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    data = json.loads(raw)
    policies = _read(data, "policies file")["policies"]
    # array("q") takes exactly the JSON integers that fit, and true/false as
    # ints, so those are looked for only in a file that spells one
    has_bools = b"true" in raw or b"false" in raw
    named = {}
    for name, labels in _object(policies, "policies file: field 'policies'").items():
        if isinstance(labels, list) and not (has_bools and any(type(v) is bool for v in labels)):
            try:
                named[name] = np.asarray(array("q", labels))
                continue
            except (TypeError, OverflowError):
                pass
        raise ConfigError(f"policies file: policy '{name}' must be a list of action indices")
    return named


def run_decision(cfg: dict) -> int:
    c = _read(cfg, "decision config")
    _read(c["task"], "task")
    task = DecisionTask.from_json_dict(c["task"])
    if c["dataset"] is None:
        c["dataset"] = {"generator": "decision-iid", "params": {"d": task.d}}
    dataset = _load_dataset(c["dataset"], c["seed"], c["days"])
    if dataset.y.shape[1:] != (task.d,):
        raise ConfigError(f"dataset: field 'y' must have shape (T, {task.d}) for this task, "
                          f"found {dataset.y.shape}")
    named = {} if c["policies"] is None else _load_policies(c["policies"])
    alice = BaselineForecaster(task.d)
    bob = BaselineForecaster(task.d)
    transcript = run_decision_protocol(dataset, task, alice, bob, c["rounds"])
    final = transcript.round(c["rounds"])
    policies = PolicySet(task.n_actions, transcript.T, named=named)
    _per_action, cal = decision_cal_error(final, task)
    _per_triple, cross = decision_cross_cal_error(final, task, policies)
    swap = decision_swap_regret(final, task, policies)
    if c["out"] is not None:
        _write_json(c["out"], {
            "decision_cal_error": cal,
            "decision_cross_cal_error": cross,
            "decision_swap_regret": swap,
            "bound": task.lipschitz * task.n_actions * cal
            + task.lipschitz * task.n_actions**2 * cross,
        })
    return 0


def _load_prior(spec) -> PriorTable:
    if isinstance(spec, str):
        if spec not in datagen.PRIORS:
            raise ConfigError(f"prior: unknown named prior '{spec}'")
        return datagen.PRIORS[spec]()
    c = _read(spec, "prior")
    if c["path"] is not None:
        with open(c["path"]) as fh:
            return PriorTable.from_json_dict(json.load(fh))
    if c["rho"] is not None:
        return datagen.rho_prior(c["rho"])
    raise ConfigError("prior: expected a name, a path, or a rho value")


def run_bayes(cfg: dict) -> int:
    c = _read(cfg, "bayes config")   # its seed is checked only: the exchange is deterministic
    m = c["m"]
    prior = _load_prior(c["prior"])
    res = run_bayes_protocol(prior, c["rounds"], m, eps=c["eps"])
    csr = {}
    for side in (ALICE, BOB):
        entries = expected_conversation_swap_regret(prior, res.message_indices, m, side)
        csr.update({f"{side}:{k},{i}": v for (k, i), v in entries.items()})
    if c["out"] is not None:
        _write_json(c["out"], {
            "expected_sqe_by_round": {str(k): v for k, v in res.expected_sqe_by_round.items()},
            "disagreement_mass_by_round": {
                str(k): v for k, v in res.disagreement_mass_by_round.items()
            },
            "joint_benchmark_error": res.joint_benchmark_error,
            "full_information_risk": res.full_information_risk,
            "expected_conversation_swap_regret": csr,
            "swap_regret_cap": 1.0 / (m * m),
        })
    return 0


def run_config(path: str, overrides: Optional[dict] = None) -> int:
    with open(path) as fh:
        cfg = _object(json.load(fh), "config")
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    mode = cfg.get("mode")
    runners = {"online": run_online, "batch": run_batch, "decision": run_decision,
               "bayes": run_bayes}
    if mode == "verify":
        return 0 if run_verify_checks() else 3
    if not isinstance(mode, str) or mode not in runners:
        raise ConfigError(f"config: unknown or missing mode '{mode}'")
    return runners[mode](cfg)


def cmd_run(args) -> int:
    overrides = {k: getattr(args, k) for k in ("days", "rounds", "eps", "seed", "out",
                                               "transcript")}
    # several configs run one after another; each owns its own output files,
    # and a malformed one does not stop the rest
    return max(_exit_code(run_config, path, overrides) for path in args.config)


def cmd_gen_data(args) -> int:
    seed = args.seed
    if args.days < 1:
        raise ConfigError(f"gen-data: --days must be at least 1, found {args.days}")
    if seed < 0:
        raise ConfigError(f"gen-data: --seed must be at least 0, found {seed}")
    if args.generator == "prior":
        if args.params is not None:
            raise ConfigError("gen-data: --params does not apply to --generator prior")
        if args.prior_name in datagen.PRIORS:
            prior = datagen.PRIORS[args.prior_name]()
        elif args.prior_name == "rho":
            prior = datagen.rho_prior(_check(args.rho, SECTIONS["prior"]["rho"], "gen-data", "rho"))
        elif args.prior_name == "custom":
            if not args.atoms:
                raise ConfigError("custom prior requires --atoms FILE")
            with open(args.atoms) as fh:
                prior = datagen.encode_prior(json.load(fh))
        else:
            raise ConfigError(f"unknown prior name '{args.prior_name}'")
        _write_json(args.out, prior.to_json_dict())
        return 0
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as e:
        raise ConfigError(f"gen-data: --params is not valid JSON: {e}") from None
    if args.generator == "batch-additive":
        data = _call_generator(datagen.additive_batch_sample, args.days, seed, params,
                               "gen-data: generator 'batch-additive'").to_json_dict()
    else:
        data = datagen.dataset_to_json(_generate(args.generator, args.days, seed, params,
                                                 "gen-data"))
    _write_json(args.out, data)
    return 0


def cmd_verify(_args) -> int:
    return 0 if run_verify_checks() else 3


def cmd_report(args) -> int:
    c = _read({f: getattr(args, f) for f in SECTIONS["report"]}, "report")
    with open(args.transcript) as fh:
        transcript = ConversationTranscript.from_text(fh.read())
    bucketing = BucketingSpec(g=c["g"], m=c["m"])
    table = round_table(transcript, c["eps"])
    payload = {
        "T": transcript.T,
        "K": transcript.K,
        **{f"{name}_by_round": {str(k): v for k, v in table[name].items()}
           for name in ("sqe", "ece", "disagreement")},
        "conversation_swap_regret_constant": {
            f"{side}:{k},{i}": v
            for side in (ALICE, BOB)
            for (k, i), v in conversation_swap_regret(
                transcript, side, "constant", bucketing
            ).items()
        },
    }
    if args.out:
        _write_json(args.out, payload)
    if args.csv:
        _write_metrics_csv(args.csv, table, c["eps"])
    return 0


def cmd_train(args) -> int:
    return run_batch({"mode": "batch", "seed": args.seed, "m": args.m, "C": args.C,
                      "data": args.data, "out_model_a": args.out[0], "out_model_b": args.out[1]})


def cmd_eval(args) -> int:
    ta = BatchModelTranscript.load(args.models[0])
    tb = BatchModelTranscript.load(args.models[1])
    preds = eval_test_points(_read_sample(args.points), ta, tb)
    # the bytes csv.writer writes: a float's repr needs no quoting
    with open(args.out, "w", newline="") as fh:
        fh.write("index,prediction\r\n")
        fh.write("".join([f"{i},{v!r}\r\n" for i, v in enumerate(preds.tolist())]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="collab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one or more config-driven experiments")
    run_p.add_argument("--config", required=True, nargs="+")
    run_p.add_argument("--days", type=int)
    run_p.add_argument("--rounds", type=int)
    run_p.add_argument("--eps", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out")
    run_p.add_argument("--transcript")
    run_p.set_defaults(fn=cmd_run)

    gen_p = sub.add_parser("gen-data", help="write a seeded dataset or prior file")
    gen_p.add_argument("--generator", required=True,
                       help="additive-linear-noise | d-rho | xor | swap-necessity | "
                            "decision-iid | batch-additive | prior")
    gen_p.add_argument("--days", type=int, default=1000)
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--params", help="JSON object of generator parameters")
    gen_p.add_argument("--prior-name", default="xor",
                       help="xor | additive | rho | custom (with --atoms)")
    gen_p.add_argument("--rho", type=float, default=2.0)
    gen_p.add_argument("--atoms", help="atoms JSON for --prior-name custom")
    gen_p.set_defaults(fn=cmd_gen_data)

    ver_p = sub.add_parser("verify", help="run every counterexample and property check")
    ver_p.set_defaults(fn=cmd_verify)

    rep_p = sub.add_parser("report", help="recompute metrics from a stored transcript")
    rep_p.add_argument("--transcript", required=True)
    rep_p.add_argument("--out")
    rep_p.add_argument("--csv")
    rep_p.add_argument("--eps", type=float, default=0.2)
    rep_p.add_argument("--g", type=float, default=0.1)
    rep_p.add_argument("--m", type=int, default=10)
    rep_p.set_defaults(fn=cmd_report)

    train_p = sub.add_parser("train", help="batch collaboration training")
    train_p.add_argument("--m", type=int, required=True)
    train_p.add_argument("--data", required=True)
    train_p.add_argument("--out", nargs=2, required=True, metavar=("MODEL_A", "MODEL_B"))
    train_p.add_argument("--C", type=float, default=1.0)
    train_p.add_argument("--seed", type=int, default=0)
    train_p.set_defaults(fn=cmd_train)

    eval_p = sub.add_parser("eval", help="replay trained batch models on new points")
    eval_p.add_argument("--models", nargs=2, required=True, metavar=("MODEL_A", "MODEL_B"))
    eval_p.add_argument("--points", required=True)
    eval_p.add_argument("--out", required=True)
    eval_p.set_defaults(fn=cmd_eval)
    return p


def _exit_code(fn, *args) -> int:
    """fn(*args), or `error: <message>` with exit code 2 on malformed input
    and 3 on an uncertified solver fit."""
    # ConfigError and json.JSONDecodeError are ValueErrors, FileNotFoundError an OSError
    try:
        return fn(*args)
    except (ValueError, KeyError, OSError, ProtocolError, UncertifiedFit) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, UncertifiedFit) else 2


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return _exit_code(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
