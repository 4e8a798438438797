"""Experiment harness: config-driven runs, data generation, verification.

Exit codes: 0 success, 2 config/validation failure, 3 verification failure
(an uncertified solver fit included).
Every run is seeded and writes byte-identical artifacts when repeated with
the same config. Set COLLAB_LOG=DEBUG|INFO|WARNING to control verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from array import array
from typing import Optional

# OpenBLAS starts its thread pool when numpy loads, and no product here gains from a second thread
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import (  # before numpy, so compiling core's table stays below numpy's peak memory
    ALICE,
    BOB,
    SECTIONS,
    BucketingSpec,
    ConversationTranscript,
    SequenceDataset,
    check_field,
    conversation_swap_regret,
    read_examples,
    read_section,
    round_table,
)
import numpy as np

from . import datagen, decisions
from .batch import (
    BatchModelTranscript,
    BatchSample,
    LsqOracle,
    collaborate,
    eval_test_points,
    final_swap_regret,
)
from .bayes import PriorTable, expected_conversation_swap_regret, run_bayes_protocol
from .decisions import (
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


def _setup_logging():
    level = os.environ.get("COLLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_dataset(spec: dict, seed: int, days: int):
    """The dataset a config's `dataset` names: a file, or a generator's output."""
    if "path" in spec:
        with open(read_section(spec, "dataset file", "dataset")["path"]) as fh:
            x_a, x_b, y, file_seed = read_examples(fh, "a dataset")
        return SequenceDataset(x_a, x_b, y, seed=file_seed)
    c = read_section(spec, "dataset")
    T = days if c["days"] is None else c["days"]
    return _generate(c["generator"], T, seed, c["params"], "dataset")


def _read_sample(path: str) -> BatchSample:
    """The batch sample of an `examples` file; its seed is ignored."""
    with open(path) as fh:
        x_a, x_b, y, _seed = read_examples(fh, "a batch sample")
    return BatchSample(x_a=x_a, x_b=x_b, y=y)


def _generate(name, T: int, seed: int, params, where: str):
    """The dataset of the named generator; see `_params`."""
    gen = datagen.GENERATORS.get(name) if isinstance(name, str) else None
    if gen is None:
        raise ValueError(f"{where}: unknown generator '{name}'")
    return gen(T, seed, **_params(name, params, where))


def _params(generator: str, params, where: str) -> dict:
    """A generator's `params` object, read through its section of the
    table; a parameter it does not give is left to the generator's default."""
    c = read_section(params, f"{generator} params", f"{where}: generator '{generator}'")
    return {k: v for k, v in c.items() if k in params}


def _learner(cfg, where: str):
    """The builder, given a dimension d and a peer, of the learner a config
    names; a bank learner joins the peer's pool when m, d and mode agree."""
    section = f"{cfg.get('kind')} learner"   # cfg is an object: its config row says so
    if section not in SECTIONS:
        if "kind" in cfg:
            raise ValueError(f"{where}: unknown learner kind '{cfg['kind']}'")
        raise ValueError(f"{where}: field 'kind' is missing")
    args = read_section(cfg, section, where)
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
    c = read_section(cfg, "online config")
    build_alice, build_bob = _learner(c["alice"], "alice"), _learner(c["bob"], "bob")
    bucketing = BucketingSpec(**read_section(c["bucketing"], "bucketing"))
    dataset = _load_dataset(c["dataset"], c["seed"], c["days"])
    if dataset.y.ndim != 1:
        raise ValueError(f"dataset: field 'y' must have shape (T,) for an online run, "
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
    c = read_section(cfg, "batch config")
    if isinstance(c["data"], str):
        sample = _read_sample(c["data"])
    else:
        data = read_section(c["data"], "batch data")
        sample = datagen.additive_batch_sample(
            data["n"], c["seed"], **_params("batch-additive", data["params"], "batch data"))
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
    policies = read_section(data, "policies file")["policies"]
    # array("q") takes exactly the JSON integers that fit, and true/false as
    # ints, so those are looked for only in a file that spells one
    has_bools = b"true" in raw or b"false" in raw
    named = {}
    for name, labels in policies.items():
        if isinstance(labels, list) and not (has_bools and any(type(v) is bool for v in labels)):
            try:
                named[name] = np.asarray(array("q", labels))
                continue
            except (TypeError, OverflowError):
                pass
        raise ValueError(f"policies file: policy '{name}' must be a list of action indices")
    return named


def run_decision(cfg: dict) -> int:
    c = read_section(cfg, "decision config")
    read_section(c["task"], "task")
    task = DecisionTask.from_json_dict(c["task"])
    if c["dataset"] is None:   # at the task's d, which its utility matrix bounds
        dataset = datagen.GENERATORS["decision-iid"](c["days"], c["seed"], d=task.d)
    else:
        dataset = _load_dataset(c["dataset"], c["seed"], c["days"])
    if dataset.y.shape[1:] != (task.d,):
        params = c["dataset"].get("params", {})
        if "d" in params:   # the generator's label width
            raise ValueError(f"dataset: generator '{c['dataset']['generator']}': field 'd' must "
                             f"be the task's d, {task.d}, found {params['d']}")
        raise ValueError(f"dataset: field 'y' must have shape (T, {task.d}) for this task, "
                         f"found {dataset.y.shape}")
    named = {} if c["policies"] is None else _load_policies(c["policies"])
    # not bound in cli: bench/tracing.py proxies a `cli.BaselineForecaster` by
    # the one-step predict/update it no longer has
    alice, bob = decisions.BaselineForecaster(task.d), decisions.BaselineForecaster(task.d)
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
            raise ValueError(f"prior: unknown named prior '{spec}'")
        return datagen.PRIORS[spec]()
    c = read_section(spec, "prior")
    if c["path"] is not None:
        with open(c["path"]) as fh:
            return PriorTable.from_json_dict(json.load(fh))
    if c["rho"] is not None:
        return datagen.rho_prior(c["rho"])
    raise ValueError("prior: expected a name, a path, or a rho value")


def run_bayes(cfg: dict) -> int:
    c = read_section(cfg, "bayes config")   # its seed is only checked: the exchange draws nothing
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
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, found {type(cfg).__name__}")
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    mode = cfg.get("mode")
    runners = {"online": run_online, "batch": run_batch, "decision": run_decision,
               "bayes": run_bayes}
    if mode == "verify":
        return 0 if run_verify_checks() else 3
    if not isinstance(mode, str) or mode not in runners:
        raise ValueError(f"config: unknown or missing mode '{mode}'")
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
        raise ValueError(f"gen-data: --days must be at least 1, found {args.days}")
    if seed < 0:
        raise ValueError(f"gen-data: --seed must be at least 0, found {seed}")
    if args.generator == "prior":
        if args.params is not None:
            raise ValueError("gen-data: --params does not apply to --generator prior")
        if args.prior_name in datagen.PRIORS:
            prior = datagen.PRIORS[args.prior_name]()
        elif args.prior_name == "rho":
            prior = datagen.rho_prior(check_field(args.rho, SECTIONS["prior"]["rho"], "gen-data",
                                                  "rho"))
        elif args.prior_name == "custom":
            if not args.atoms:
                raise ValueError("custom prior requires --atoms FILE")
            with open(args.atoms) as fh:
                prior = datagen.encode_prior(json.load(fh))
        else:
            raise ValueError(f"unknown prior name '{args.prior_name}'")
        _write_json(args.out, prior.to_json_dict())
        return 0
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as e:
        raise ValueError(f"gen-data: --params is not valid JSON: {e}") from None
    check_field(params, SECTIONS["dataset"]["params"], "gen-data", "params")
    if args.generator == "batch-additive":
        data = datagen.additive_batch_sample(
            args.days, seed, **_params("batch-additive", params, "gen-data")).to_json_dict()
    else:
        data = datagen.dataset_to_json(_generate(args.generator, args.days, seed, params,
                                                 "gen-data"))
    _write_json(args.out, data)
    return 0


def cmd_verify(_args) -> int:
    return 0 if run_verify_checks() else 3


def cmd_report(args) -> int:
    c = read_section({f: getattr(args, f) for f in SECTIONS["report"]}, "report")
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
    # json.JSONDecodeError is a ValueError, FileNotFoundError an OSError
    try:
        return fn(*args)
    except (ValueError, OSError, ProtocolError, UncertifiedFit) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, UncertifiedFit) else 2


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return _exit_code(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
