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
from typing import Optional

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


def _check_fields(cfg, required: set, optional: set, where: str):
    _object(cfg, where)
    for f in required:
        if f not in cfg:
            raise ConfigError(f"{where}: missing required field '{f}'")
    for f in cfg:
        if f not in required and f not in optional:
            raise ConfigError(f"{where}: unknown field '{f}'")


def _num(cfg: dict, key: str, where: str, default=None, kind=float, least=None):
    """cfg[key], or the default when absent, as a finite float or an int;
    ConfigError naming the field otherwise."""
    v = cfg.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (
            isinstance(v, float) and not (math.isfinite(v) and (kind is float or v.is_integer()))):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: field '{key}' must be {what}, found {json.dumps(v)[:40]}")
    if least is not None and v < least:
        raise ConfigError(f"{where}: field '{key}' must be at least {least}, found {v}")
    return kind(v)


def _eps(cfg: dict, where: str, default=None) -> float:
    """The disagreement threshold cfg["eps"], in (0,1)."""
    eps = _num(cfg, "eps", where, default)
    if not 0.0 < eps < 1.0:
        raise ConfigError("eps must lie in (0,1)")
    return eps


def _path(cfg: dict, key: str, where: str) -> Optional[str]:
    """cfg[key] as a file path, None when absent; ConfigError naming the field otherwise."""
    v = cfg.get(key)
    if v is not None and not isinstance(v, str):
        raise ConfigError(f"{where}: field '{key}' must be a file path, found {type(v).__name__}")
    return v


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_dataset(spec, seed: int, days: int):
    if isinstance(spec, dict) and "path" in spec:
        _check_fields(spec, {"path"}, set(), "dataset")
        with open(_path(spec, "path", "dataset")) as fh:
            x_a, x_b, y, file_seed = read_examples(fh, "a dataset")
        return SequenceDataset(x_a, x_b, y, seed=file_seed)
    _check_fields(spec, {"generator"}, {"days", "params"}, "dataset")
    T = _num(spec, "days", "dataset", days, kind=int, least=1)
    return _generate(spec["generator"], T, seed, spec.get("params", {}), "dataset")


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
    return gen(T, seed, **{k: _num(params, k, where, kind=type(sig.parameters[k].default))
                           for k in params})


# learner kind -> the fields it reads besides `kind`, with their defaults; a
# bank kind's fixed arguments are in `learners.BANK_KINDS`
_LEARNER_FIELDS = {
    "constant": {"value": 0.5},
    "vaw": {"a": 1.0},
    "swap": {"a": 1.0, "m": 10},
    "conversation": {"a": 1.0, "m": 10, "g": 0.1},
}


def _build_learner(cfg, d: int, where: str, peer=None):
    """The learner a config names; a bank learner joins `peer`'s pool when m, d and mode agree."""
    kind = _object(cfg, where).get("kind")
    fields = _LEARNER_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None and "kind" in cfg:
        raise ConfigError(f"{where}: unknown learner kind '{kind}'")
    _check_fields(cfg, {"kind"}, fields, where)
    args = {f: _num(cfg, f, where, default, kind=type(default)) for f, default in fields.items()}
    if kind == "constant":
        if not 0.0 <= args["value"] <= 1.0:
            raise ConfigError(f"{where}: field 'value' must lie in [0,1], got {args['value']}")
        return ConstantLearner(**args)
    # built through the module name at call time: bench/tracing.py proxies it
    return ConversationWrapper(d=d, peer=peer, **args, **BANK_KINDS[kind])


def _write_metrics_csv(path: str, table: dict, eps: float) -> None:
    """The per-round metrics CSV of a `round_table`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "sqe", "ece", f"disagreement@{eps}"])
        for k, v in table["sqe"].items():
            dis = table["disagreement"].get(k)
            w.writerow([k, repr(v), repr(table["ece"][k]), "" if dis is None else repr(dis)])


def run_online(cfg: dict) -> int:
    where = "online config"
    _check_fields(
        cfg,
        {"mode", "seed", "days", "rounds", "eps", "dataset", "alice", "bob"},
        {"bucketing", "out", "transcript", "csv", "solo_baselines", "C"},
        where,
    )
    seed = _num(cfg, "seed", where, kind=int)
    days = _num(cfg, "days", where, kind=int, least=1)
    out, transcript_path, csv_path = (_path(cfg, k, where) for k in ("out", "transcript", "csv"))
    dataset = _load_dataset(cfg["dataset"], seed, days)
    if dataset.y.ndim != 1:
        raise ConfigError(f"dataset: field 'y' must have shape (T,) for an online run, "
                          f"found {dataset.y.shape}")
    d_a, d_b = dataset.x_a.shape[1], dataset.x_b.shape[1]
    K = _num(cfg, "rounds", where, kind=int)
    eps = _eps(cfg, where)
    alice = _build_learner(cfg["alice"], d_a, "alice")
    bob = _build_learner(cfg["bob"], d_b, "bob", peer=alice)
    bucket_cfg = cfg.get("bucketing", {})
    _check_fields(bucket_cfg, set(), {"g", "m"}, "bucketing")
    bucketing = BucketingSpec(g=_num(bucket_cfg, "g", "bucketing", 0.1),
                              m=_num(bucket_cfg, "m", "bucketing", 10, kind=int))
    C = _num(cfg, "C", where, 1.0)

    transcript = run_collaboration(dataset, alice, bob, K)
    spec_a = LinearClassSpec(d=d_a, C=C, with_intercept=True)
    spec_b = LinearClassSpec(d=d_b, C=C, with_intercept=True)
    table = round_table(transcript, eps)
    payload = final_regret_report(transcript, dataset, spec_a, spec_b, bucketing, eps, table)
    if cfg.get("solo_baselines"):
        payload["solo_sqe"] = dict(zip(("alice", "bob"), run_solo(dataset)))
    if transcript_path is not None:
        with open(transcript_path, "w") as fh:
            fh.write(transcript.to_text())
    if csv_path is not None:
        _write_metrics_csv(csv_path, table, eps)
    if out is not None:
        _write_json(out, payload)
    log.info("online run complete: final sqe %.4f", payload["sqe"])
    return 0


def run_batch(cfg: dict) -> int:
    where = "batch config"
    _check_fields(
        cfg,
        {"mode", "seed", "m", "data"},
        {"C", "out", "out_model_a", "out_model_b"},
        where,
    )
    seed = _num(cfg, "seed", where, kind=int)
    m = _num(cfg, "m", where, kind=int)
    C = _num(cfg, "C", where, 1.0)
    out, out_a, out_b = (_path(cfg, k, where) for k in ("out", "out_model_a", "out_model_b"))
    data_cfg = cfg["data"]
    if isinstance(data_cfg, str):
        sample = _read_sample(data_cfg)
    else:
        _check_fields(data_cfg, set(), {"n", "params"}, "batch data")
        n = _num(data_cfg, "n", "batch data", 1000, kind=int, least=1)
        sample = _call_generator(datagen.additive_batch_sample, n, seed,
                                 data_cfg.get("params", {}), "batch data")
    spec_a = LinearClassSpec(d=sample.x_a.shape[1], C=C, with_intercept=True)
    spec_b = LinearClassSpec(d=sample.x_b.shape[1], C=C, with_intercept=True)
    result = collaborate(sample, LsqOracle(spec_a), LsqOracle(spec_b), m)
    if out_a is not None:
        result.transcript_a.save(out_a)
    if out_b is not None:
        result.transcript_b.save(out_b)
    if out is not None:
        final = result.final_values
        _write_json(out, {
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
    _check_fields(data, {"policies"}, set(), "policies file")
    # array("q") takes exactly the JSON integers that fit, and true/false as
    # ints, so those are looked for only in a file that spells one
    has_bools = b"true" in raw or b"false" in raw
    named = {}
    for name, labels in _object(data["policies"], "policies file: field 'policies'").items():
        if isinstance(labels, list) and not (has_bools and any(type(v) is bool for v in labels)):
            try:
                named[name] = np.asarray(array("q", labels))
                continue
            except (TypeError, OverflowError):
                pass
        raise ConfigError(f"policies file: policy '{name}' must be a list of action indices")
    return named


def run_decision(cfg: dict) -> int:
    where = "decision config"
    _check_fields(
        cfg,
        {"mode", "seed", "days", "rounds", "task"},
        {"dataset", "out", "policies"},
        where,
    )
    seed = _num(cfg, "seed", where, kind=int)
    days = _num(cfg, "days", where, kind=int, least=1)
    K = _num(cfg, "rounds", where, kind=int)
    out, policies_path = _path(cfg, "out", where), _path(cfg, "policies", where)
    _check_fields(cfg["task"], {"utility"}, {"d", "actions"}, "task")
    task = DecisionTask.from_json_dict(cfg["task"])
    dataset_cfg = cfg.get("dataset", {"generator": "decision-iid", "params": {"d": task.d}})
    dataset = _load_dataset(dataset_cfg, seed, days)
    if dataset.y.shape[1:] != (task.d,):
        raise ConfigError(f"dataset: field 'y' must have shape (T, {task.d}) for this task, "
                          f"found {dataset.y.shape}")
    named = {} if policies_path is None else _load_policies(policies_path)
    alice = BaselineForecaster(task.d)
    bob = BaselineForecaster(task.d)
    transcript = run_decision_protocol(dataset, task, alice, bob, K)
    final = transcript.round(K)
    policies = PolicySet(task.n_actions, transcript.T, named=named)
    _per_action, cal = decision_cal_error(final, task)
    _per_triple, cross = decision_cross_cal_error(final, task, policies)
    swap = decision_swap_regret(final, task, policies)
    if out is not None:
        _write_json(out, {
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
    _check_fields(spec, set(), {"path", "rho"}, "prior")
    if "path" in spec:
        with open(_path(spec, "path", "prior")) as fh:
            return PriorTable.from_json_dict(json.load(fh))
    if "rho" in spec:
        return datagen.rho_prior(_num(spec, "rho", "prior"))
    raise ConfigError("prior: expected a name, a path, or a rho value")


def run_bayes(cfg: dict) -> int:
    where = "bayes config"
    _check_fields(
        cfg,
        {"mode", "seed", "rounds", "m", "prior"},
        {"out", "eps"},
        where,
    )
    _num(cfg, "seed", where, kind=int)  # the exchange is deterministic; checked only
    K = _num(cfg, "rounds", where, kind=int)
    m = _num(cfg, "m", where, kind=int)
    eps = _eps(cfg, where, 0.1)
    out = _path(cfg, "out", where)
    prior = _load_prior(cfg["prior"])
    res = run_bayes_protocol(prior, K, m, eps=eps)
    csr = {}
    for side in (ALICE, BOB):
        entries = expected_conversation_swap_regret(prior, res.message_indices, m, side)
        csr.update({f"{side}:{k},{i}": v for (k, i), v in entries.items()})
    if out is not None:
        _write_json(out, {
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
    runners = {
        "online": run_online,
        "batch": run_batch,
        "decision": run_decision,
        "bayes": run_bayes,
    }
    if mode == "verify":
        return 0 if run_verify_checks() else 3
    if not isinstance(mode, str) or mode not in runners:
        raise ConfigError(f"config: unknown or missing mode '{mode}'")
    return runners[mode](cfg)


def cmd_run(args) -> int:
    overrides = {
        "days": args.days,
        "rounds": args.rounds,
        "eps": args.eps,
        "seed": args.seed,
        "out": args.out,
        "transcript": args.transcript,
    }
    # several configs run one after another; each owns its own output files,
    # and a malformed one does not stop the rest
    return max(_exit_code(run_config, path, overrides) for path in args.config)


def cmd_gen_data(args) -> int:
    seed = args.seed
    if args.days < 1:
        raise ConfigError(f"gen-data: --days must be at least 1, found {args.days}")
    if args.generator == "prior":
        if args.params is not None:
            raise ConfigError("gen-data: --params does not apply to --generator prior")
        if args.prior_name in datagen.PRIORS:
            prior = datagen.PRIORS[args.prior_name]()
        elif args.prior_name == "rho":
            prior = datagen.rho_prior(args.rho)
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
    eps = _eps({"eps": args.eps}, "report")
    with open(args.transcript) as fh:
        transcript = ConversationTranscript.from_text(fh.read())
    bucketing = BucketingSpec(g=args.g, m=args.m)
    table = round_table(transcript, eps)
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
        _write_metrics_csv(args.csv, table, eps)
    return 0


def cmd_train(args) -> int:
    cfg = {
        "mode": "batch",
        "seed": args.seed,
        "m": args.m,
        "C": args.C,
        "data": args.data,
        "out_model_a": args.out[0],
        "out_model_b": args.out[1],
    }
    return run_batch(cfg)


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
