"""Experiment harness: config-driven runs, data generation, verification.

Exit codes: 0 success, 2 config/validation failure, 3 verification failure
(an uncertified solver fit included).
Every run is seeded and writes byte-identical artifacts when repeated with
the same config. Set COLLAB_LOG=DEBUG|INFO|WARNING to control verbosity.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import sys

# OpenBLAS starts its thread pool when numpy loads, and no product here gains from a second thread
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import (  # before numpy, so compiling core's table stays below numpy's peak memory
    ALICE,
    BOB,
    SECTIONS,
    BucketingSpec,
    ConversationTranscript,
    Field,
    ProtocolError,
    SequenceDataset,
    UncertifiedFit,
    _shown,
    check_field,
    conversation_swap_regret,
    read_examples,
    read_section,
    round_table,
)
import numpy as np

# Every other module loads where a command first needs it, so each command
# imports only the modules it runs.


def _lazy(module: str, name: str):
    """A stand-in for `module.name` that imports the module when first called."""
    def forward(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)
    forward.__name__ = forward.__qualname__ = name
    return forward


# The names bench/tracing.py wraps or proxies in this module's namespace. The
# runners call each through its global binding, so a timing wrapper put in
# its place sees every call.
run_collaboration = _lazy("protocol", "run_collaboration")
final_regret_report = _lazy("protocol", "final_regret_report")
ConversationWrapper = _lazy("learners", "ConversationWrapper")
collaborate = _lazy("batch", "collaborate")
eval_test_points = _lazy("batch", "eval_test_points")
final_swap_regret = _lazy("batch", "final_swap_regret")
LsqOracle = _lazy("batch", "LsqOracle")
run_decision_protocol = _lazy("decisions", "run_decision_protocol")
decision_cal_error = _lazy("decisions", "decision_cal_error")
decision_cross_cal_error = _lazy("decisions", "decision_cross_cal_error")
decision_swap_regret = _lazy("decisions", "decision_swap_regret")
run_bayes_protocol = _lazy("bayes", "run_bayes_protocol")
expected_conversation_swap_regret = _lazy("bayes", "expected_conversation_swap_regret")
run_verify_checks = _lazy("verify", "run_all")

log = logging.getLogger("collabpred")


def _setup_logging():
    level = os.environ.get("COLLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write(path: str, output) -> None:
    """The one writer of every file `collab` writes: a dict as sorted JSON, a
    `(header, rows)` table in the bytes `csv.writer` writes (no field here needs
    quoting: a float's `format` is its repr, a missing value ''), and a
    transcript or batch model as its `to_text()`."""
    table = isinstance(output, tuple)
    with open(path, "w", newline="" if table else None) as fh:
        if isinstance(output, dict):
            json.dump(output, fh, sort_keys=True, indent=2)
            fh.write("\n")
        elif table:
            header, rows = output
            line = ",".join(["{}"] * len(header)) + "\r\n"
            fh.write("".join([line.format(*row) for row in (header, *rows)]))
        else:
            fh.write(output.to_text())


def _outputs(paths: dict, where: str) -> dict:
    """`paths`, output field to file, once each names a file in an existing
    directory that no other field names; a ValueError naming the first that
    does not. Checked before a command reads its inputs, so a refused
    command computes and writes nothing."""
    for f, p in paths.items():
        if not p or os.path.isdir(p) or not os.path.isdir(os.path.dirname(p) or os.curdir):
            raise ValueError(f"{where}: field '{f}' must name a file in an existing "
                             f"directory, found {_shown(p)}")
    real = [os.path.realpath(p) for p in paths.values()]
    for (f, p), r in zip(paths.items(), real):
        if real.count(r) > 1:
            raise ValueError(f"{where}: field '{f}' must name a file that no other output "
                             f"field names, found {_shown(p)}")
    return paths


def _load_dataset(spec: dict, seed: int, days: int):
    """The dataset a config's `dataset` names: a file, or a generator's output."""
    if "path" in spec:
        with open(read_section(spec, "dataset file", "dataset")["path"]) as fh:
            x_a, x_b, y, file_seed = read_examples(fh, "a dataset")
        return SequenceDataset(x_a, x_b, y, seed=file_seed)
    from . import datagen

    c = read_section(spec, "dataset")
    T = days if c["days"] is None else c["days"]
    return _generate(_choice(c, "generator", datagen.GENERATORS, "dataset"), T, seed,
                     c["params"], "dataset")


def _read_sample(path: str):
    """The batch sample of an `examples` file; its seed is ignored."""
    from .batch import BatchSample

    with open(path) as fh:
        x_a, x_b, y, _seed = read_examples(fh, "a batch sample")
    return BatchSample(x_a=x_a, x_b=x_b, y=y)


def _choice(data: dict, f: str, values, where: str):
    """data[f], a dispatch field, checked as one of `values` before the
    section it picks is read."""
    if f not in data:
        raise ValueError(f"{where}: field '{f}' is missing")
    return check_field(data[f], Field("choice", values=tuple(values)), where, f)


def _generate(name: str, T: int, seed: int, params, where: str):
    """The dataset of the named generator; see `_params`."""
    from . import datagen

    return datagen.GENERATORS[name](T, seed, **_params(name, params, where))


def _params(generator: str, params, where: str) -> dict:
    """A generator's `params` object, read through its section of the
    table; a parameter it does not give is left to the generator's default."""
    c = read_section(params, f"{generator} params", f"{where}: generator '{generator}'")
    return {k: v for k, v in c.items() if k in params}


_LEARNER_KINDS = [s.removesuffix(" learner") for s in SECTIONS if s.endswith(" learner")]


def _learner(cfg, where: str):
    """The builder, given a dimension d and a peer, of the learner a config
    names; a bank learner joins the peer's pool when m, d and mode agree."""
    # cfg is an object: its config row says so
    args = read_section(cfg, f"{_choice(cfg, 'kind', _LEARNER_KINDS, where)} learner", where)
    kind = args.pop("kind")
    if kind == "constant":
        from .protocol import ConstantLearner
        return lambda d, peer=None: ConstantLearner(**args)
    from .learners import BANK_KINDS
    # built through the module name at call time: bench/tracing.py proxies it
    return lambda d, peer=None: ConversationWrapper(d=d, peer=peer, **args, **BANK_KINDS[kind])


def _metrics_table(table: dict, eps: float):
    """The per-round metrics CSV table, `(header, rows)`, of a `round_table`."""
    dis = table["disagreement"]
    return (("round", "sqe", "ece", f"disagreement@{eps}"),
            [(k, v, table["ece"][k], dis.get(k, "")) for k, v in table["sqe"].items()])


# each runner's outputs, keyed by the config field that names its file, in write order
_OUTPUTS = {"online": ("transcript", "csv", "out"),
            "batch": ("out_model_a", "out_model_b", "out"),
            "decision": ("out",), "bayes": ("out",)}


def run_online(c: dict) -> dict:
    from .weaklearn import LinearClassSpec

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
    spec_a, spec_b = (LinearClassSpec(d=d, C=c["C"]) for d in (d_a, d_b))
    table = round_table(transcript, eps)
    payload = final_regret_report(transcript, dataset, spec_a, spec_b, bucketing, eps, table)
    if c["solo_baselines"]:
        from .protocol import run_solo
        payload["solo_sqe"] = dict(zip(("alice", "bob"), run_solo(dataset)))
    log.info("online run complete: final sqe %.4f", payload["sqe"])
    return {"transcript": transcript, "csv": _metrics_table(table, eps), "out": payload}


def run_batch(c: dict) -> dict:
    from .weaklearn import LinearClassSpec

    if isinstance(c["data"], str):
        sample = _read_sample(c["data"])
    else:
        from . import datagen
        data = read_section(c["data"], "batch data")
        sample = datagen.additive_batch_sample(
            data["n"], c["seed"], **_params("batch-additive", data["params"], "batch data"))
    spec_a, spec_b = (LinearClassSpec(d=x.shape[1], C=c["C"]) for x in (sample.x_a, sample.x_b))
    result = collaborate(sample, LsqOracle(spec_a), LsqOracle(spec_b), c["m"])
    log.info("batch training halted after %d rounds", result.rounds)
    final = result.final_values
    return {"out_model_a": result.transcript_a, "out_model_b": result.transcript_b, "out": {
        "rounds": result.rounds,
        "train_sqe_mean": float(np.mean((final - sample.y) ** 2)),
        "swap_regret_union": final_swap_regret(final, sample, spec_a, spec_b),
    }}


def run_decision(c: dict) -> dict:
    from . import decisions

    task = decisions.DecisionTask.from_json_dict(c["task"])
    if c["dataset"] is None:   # at the task's d, which its utility matrix bounds
        from . import datagen
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
    T = dataset.y.shape[0]
    policies = (decisions.PolicySet(task.n_actions, T) if c["policies"] is None
                else decisions.PolicySet.read(c["policies"], task.n_actions, T))
    # not bound in cli: bench/tracing.py proxies a `cli.BaselineForecaster` by
    # the one-step predict/update it no longer has
    alice, bob = decisions.BaselineForecaster(task.d), decisions.BaselineForecaster(task.d)
    transcript = run_decision_protocol(dataset, task, alice, bob, c["rounds"])
    final = transcript.round(c["rounds"])
    _per_action, cal = decision_cal_error(final, task)
    _per_triple, cross = decision_cross_cal_error(final, task, policies)
    swap = decision_swap_regret(final, task, policies)
    return {"out": {
        "decision_cal_error": cal,
        "decision_cross_cal_error": cross,
        "decision_swap_regret": swap,
        "bound": task.lipschitz * task.n_actions * cal
        + task.lipschitz * task.n_actions**2 * cross,
    }}


def _load_prior(spec, where: str = "prior"):
    """The `PriorTable` that `spec` names: a named prior (the bayes config's
    'prior'), a file or a rho value; `where` begins each message about the object."""
    if isinstance(spec, str):
        from . import datagen
        named = Field("choice", values=tuple(datagen.PRIORS))
        return datagen.PRIORS[check_field(spec, named, "bayes config", "prior")]()
    c = read_section(spec, "prior", where)
    if c["path"] is not None:
        from .bayes import PriorTable
        with open(c["path"]) as fh:
            return PriorTable.from_json_dict(json.load(fh))
    if c["rho"] is not None:
        from . import datagen
        return datagen.rho_prior(c["rho"])
    raise ValueError(f"{where}: field 'path' or 'rho' must be given, found {_shown(spec)}")


def run_bayes(c: dict) -> dict:
    m = c["m"]   # the config's seed is only checked: the exchange draws nothing
    prior = _load_prior(c["prior"])
    res = run_bayes_protocol(prior, c["rounds"], m, eps=c["eps"])
    csr = {}
    for side in (ALICE, BOB):
        entries = expected_conversation_swap_regret(prior, res.message_indices, m, side)
        csr.update({f"{side}:{k},{i}": v for (k, i), v in entries.items()})
    return {"out": {
        "expected_sqe_by_round": {str(k): v for k, v in res.expected_sqe_by_round.items()},
        "disagreement_mass_by_round": {
            str(k): v for k, v in res.disagreement_mass_by_round.items()
        },
        "joint_benchmark_error": res.joint_benchmark_error,
        "full_information_risk": res.full_information_risk,
        "expected_conversation_swap_regret": csr,
        "swap_regret_cap": 1.0 / (m * m),
    }}


def run_config(path: str) -> int:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, found {type(cfg).__name__}")
    runners = {"online": run_online, "batch": run_batch, "decision": run_decision,
               "bayes": run_bayes}
    mode = _choice(cfg, "mode", runners, "config")
    c = read_section(cfg, f"{mode} config")
    paths = _outputs({f: c[f] for f in _OUTPUTS[mode] if c[f] is not None}, f"{mode} config")
    outputs = runners[mode](c)
    for f, path in paths.items():
        _write(path, outputs[f])
    return 0


def cmd_run(args) -> int:
    # several configs run one after another; each owns its own output files,
    # and a malformed one does not stop the rest
    return max(_exit_code(run_config, path) for path in args.config)


def cmd_gen_data(args) -> int:
    from . import datagen

    generator, seed = args.generator, args.seed
    name = "xor" if args.prior_name is None else args.prior_name
    takes = (*datagen.GENERATORS, "batch-additive", "prior")
    check_field(generator, Field("choice", values=takes), "gen-data", "generator")
    priors = (*datagen.PRIORS, "rho", "custom")   # the default, xor, among them
    check_field(name, Field("choice", values=priors), "gen-data", "prior-name")
    if args.days < 1:
        raise ValueError(f"gen-data: --days must be at least 1, found {args.days}")
    if seed < 0:
        raise ValueError(f"gen-data: --seed must be at least 0, found {seed}")
    of_prior = generator == "prior"
    chosen = f"--prior-name {name}" if of_prior else f"--generator {generator}"
    # a flag that the chosen generator or prior does not read is refused, not ignored
    for flag, value, read, by in (
            ("--params", args.params, not of_prior, f"--generator {generator}"),
            ("--prior-name", args.prior_name, of_prior, f"--generator {generator}"),
            ("--rho", args.rho, of_prior and name == "rho", chosen),
            ("--atoms", args.atoms, of_prior and name == "custom", chosen)):
        if value is not None and not read:
            raise ValueError(f"gen-data: {flag} does not apply to {by}")
    _outputs({"out": args.out}, "gen-data")
    if of_prior:
        if name == "custom":
            if not args.atoms:
                raise ValueError("gen-data: --prior-name custom requires --atoms FILE")
            with open(args.atoms) as fh:
                prior = datagen.encode_prior(json.load(fh))
        else:   # a named prior, or the rho prior at --rho (2 by default)
            rho = 2.0 if args.rho is None else args.rho
            prior = _load_prior({"rho": rho} if name == "rho" else name, "gen-data")
        _write(args.out, prior.to_json_dict())
        return 0
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as e:
        raise ValueError(f"gen-data: --params is not valid JSON: {e}") from None
    check_field(params, SECTIONS["dataset"]["params"], "gen-data", "params")
    if generator == "batch-additive":
        data = datagen.additive_batch_sample(
            args.days, seed, **_params("batch-additive", params, "gen-data")).to_json_dict()
    else:
        data = datagen.dataset_to_json(_generate(generator, args.days, seed, params, "gen-data"))
    _write(args.out, data)
    return 0


def cmd_verify(_args) -> int:
    return 0 if run_verify_checks() else 3


def cmd_report(args) -> int:
    c = read_section({f: getattr(args, f) for f in SECTIONS["report"]}, "report")
    paths = _outputs({f: getattr(args, f) for f in ("out", "csv")
                      if getattr(args, f) is not None}, "report")
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
    for f, path in paths.items():
        _write(path, payload if f == "out" else _metrics_table(table, c["eps"]))
    return 0


def cmd_eval(args) -> int:
    from .batch import BatchModelTranscript

    _outputs({"out": args.out}, "eval")
    ta, tb = map(BatchModelTranscript.load, args.models)
    preds = eval_test_points(_read_sample(args.points), ta, tb)
    _write(args.out, (("index", "prediction"), enumerate(preds.tolist())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="collab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one or more config-driven experiments")
    run_p.add_argument("--config", required=True, nargs="+")
    run_p.set_defaults(fn=cmd_run)

    gen_p = sub.add_parser("gen-data", help="write a seeded dataset or prior file")
    gen_p.add_argument("--generator", required=True)
    gen_p.add_argument("--days", type=int, default=1000)
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--params", help="JSON object of generator parameters")
    gen_p.add_argument("--prior-name", help="xor (default) | additive | rho | custom (with --atoms)")
    gen_p.add_argument("--rho", type=float, help="the rho prior's rho (default 2)")
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
