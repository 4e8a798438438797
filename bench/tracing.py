"""Traced in-process run of one workload: spans, counters, per-layer metrics.

    python3 bench/tracing.py --workload NAME --seed N --workdir DIR --out FILE --spans FILE

run.py starts this with --trace 1 and src/ on PYTHONPATH. In one process
it builds the inputs with tracing on (`gen-data` through `cli.main`), runs
the workload's commands through `cli.main` untraced in DIR/rep1, then
traced in DIR/rep0. It writes the per-layer metrics, the counter checks
and the exit codes to FILE, and every span to the span file.

Tracing replaces the module-level bindings of public functions with timing
wrappers and hands the CLI proxies for the learners, the batch oracle and
the decision forecaster. All of it is installed and removed here; nothing
under src/ changes. A span is [id, parent id, name, start ns, end ns, tag];
the spans of one run share the run id in the span file's header. Self time
is a span's time minus the time of the child spans of the named layer.
"""

import sys
import time

_t0 = time.perf_counter()
import collabpred.cli  # noqa: E402  -- first import of the package, timed as cli.import_s
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Sequence  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402

AUDITS = ("ece", "swap_regret", "conversation_swap_regret", "conversation_calibration_error")
AUDIT_SPANS = frozenset(f"core.{a}" for a in AUDITS)
SOLVER_SPANS = frozenset({"weaklearn.constrained_lsq", "weaklearn.joint_lsq"})
LEARNER_SPANS = frozenset({"learners.predict", "learners.update"})
FORECASTER_SPANS = frozenset({"decisions.forecaster.predict", "decisions.forecaster.update"})

# name -> unit; every traced run reports all of them, 0 for layers it bypasses
LAYER_UNITS = {
    "cli.import_s": "s", "datagen.gen_s": "s", "bayes.prior_load_s": "s",
    "cli.run_s": "s", "cli.report_s": "s", "cli.eval_s": "s", "cli.verify_s": "s",
    "cli.artifact_bytes": "bytes",
    "learners.predict_us_p50": "us", "learners.predict_us_p99": "us",
    "learners.update_us_p50": "us", "learners.update_us_p99": "us",
    "learners.instances": "count", "learners.steps": "count",
    "protocol.run_collaboration_s": "s", "protocol.driver_self_us_per_day_round": "us",
    "protocol.final_regret_report_s": "s", "protocol.agreement_profile_s": "s",
    "protocol.round_error_profile_s": "s", "protocol.joint_benchmark_s": "s",
    "core.audit_self_s": "s", "core.to_text_s": "s", "core.from_text_s": "s",
    "weaklearn.lsq_calls": "count", "weaklearn.lsq_projected": "count",
    "weaklearn.lsq_s": "s", "weaklearn.lsq_projected_s": "s", "weaklearn.lsq_us_p50": "us",
    "weaklearn.joint_calls": "count", "weaklearn.joint_unconverged": "count",
    "weaklearn.joint_s": "s",
    "batch.collaborate_s": "s", "batch.collaborate_self_s": "s", "batch.oracle_fits": "count",
    "batch.rounds": "count", "batch.levels_kept": "count", "batch.levels_deferred": "count",
    "batch.model_load_s": "s", "batch.replay_us_per_point": "us",
    "batch.final_swap_regret_s": "s",
    "decisions.protocol_s": "s", "decisions.driver_self_us_per_day_round": "us",
    "decisions.forecaster_us_p50": "us", "decisions.cal_s": "s",
    "decisions.cross_cal_s": "s", "decisions.swap_regret_s": "s",
    "bayes.simulate_calls": "count", "bayes.simulate_s": "s", "bayes.run_s": "s",
    "bayes.csr_s": "s", "verify.run_all_s": "s", "verify.extraction_s": "s",
    "verify.checks_passed": "count",
    "trace.overhead_frac": "ratio",
}
EXACT_UNITS = ("count", "bytes")


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack = [0]

    def wrap(self, name: str, fn: Callable, tag: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, clock(), 0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if tag is not None:
                rec[5] = tag(result)
            return result

        return traced


class Patches:
    """Replaced attributes and items, restored in reverse order."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def set(self, owner, key, value) -> None:
        if isinstance(owner, (dict, list)):
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = vars(owner)[key]
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class TimedProxy:
    """Stands in for a learner, oracle or forecaster and traces the named methods."""

    def __init__(self, inner, tracer: Tracer, prefix: str, methods: Sequence[str]):
        self.inner = inner
        for m in methods:
            setattr(self, m, tracer.wrap(f"{prefix}.{m}", getattr(inner, m)))

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every layer boundary the workloads cross; yields the proxies made."""
    from collabpred import batch, bayes, cli, core, datagen, protocol, verify, weaklearn

    patches = Patches()
    wrappers: Dict[Callable, Callable] = {}
    proxies: Dict[str, List[TimedProxy]] = defaultdict(list)
    counters = tracer.counters

    def wrapper(name, fn, tag=None):
        if fn not in wrappers:
            wrappers[fn] = tracer.wrap(name, fn, tag)
        return wrappers[fn]

    # A binding the program no longer has is skipped; its metrics then read 0.
    def bind(module, attr, name, tag=None):
        if attr in vars(module):
            patches.set(module, attr, wrapper(name, getattr(module, attr), tag))

    def bind_classmethod(cls, attr, name):
        if attr in vars(cls):
            patches.set(cls, attr, staticmethod(tracer.wrap(name, getattr(cls, attr))))

    def proxy(module, attr, prefix, methods):
        if attr not in vars(module):
            return
        cls = getattr(module, attr)

        def make(*args, **kwargs):
            obj = TimedProxy(cls(*args, **kwargs), tracer, prefix, methods)
            proxies[prefix].append(obj)
            return obj

        patches.set(module, attr, make)

    def day_rounds(key):
        def tag(transcript):
            counters[key] += transcript.T * transcript.K
        return tag

    def levels(result):
        kept = sum(t is not None for t in result[1].values())
        deferred = len(result[1]) - kept
        counters["levels_kept"] += kept
        counters["levels_deferred"] += deferred
        return f"kept={kept} deferred={deferred}"

    def rounds(result):
        counters["batch_rounds"] += result.rounds

    def points(preds):
        counters["replay_points"] += len(preds)

    lsq_tag = lambda fit: "projected" if fit.projected else None  # noqa: E731
    joint_tag = lambda fit: None if fit.converged else "unconverged"  # noqa: E731
    try:
        for module in (weaklearn, batch, bayes, verify):
            bind(module, "constrained_lsq", "weaklearn.constrained_lsq", lsq_tag)
        for module in (weaklearn, protocol, bayes, verify):
            bind(module, "joint_lsq", "weaklearn.joint_lsq", joint_tag)
        for module in (core, protocol, cli):
            for a in AUDITS:
                bind(module, a, f"core.{a}")
        bind_classmethod(core.ConversationTranscript, "from_text", "core.from_text")
        bind(core.ConversationTranscript, "to_text", "core.to_text")

        bind(cli, "run_collaboration", "protocol.run_collaboration", day_rounds("online_day_rounds"))
        for a in ("final_regret_report", "agreement_profile", "round_error_profile"):
            bind(cli, a, f"protocol.{a}")
        bind(protocol, "joint_benchmark", "protocol.joint_benchmark")
        proxy(cli, "ConversationWrapper", "learners", ("predict", "update"))

        bind(cli, "collaborate", "batch.collaborate", rounds)
        bind(batch, "cross_boost", "batch.cross_boost", levels)
        bind(cli, "eval_test_points", "batch.eval_test_points", points)
        bind(cli, "final_swap_regret", "batch.final_swap_regret")
        bind_classmethod(batch.BatchModelTranscript, "load", "batch.model_load")
        proxy(cli, "LsqOracle", "batch.oracle", ("fit",))

        bind(cli, "run_decision_protocol", "decisions.run_decision_protocol",
             day_rounds("decision_day_rounds"))
        for a in ("decision_cal_error", "decision_cross_cal_error", "decision_swap_regret"):
            bind(cli, a, f"decisions.{a}")
        proxy(cli, "BaselineForecaster", "decisions.forecaster", ("predict", "update"))

        bind(bayes, "simulate_messages", "bayes.simulate_messages")
        bind(cli, "run_bayes_protocol", "bayes.run_bayes_protocol")
        bind(cli, "expected_conversation_swap_regret", "bayes.expected_conversation_swap_regret")
        bind_classmethod(bayes.PriorTable, "from_json_dict", "bayes.prior_load")
        bind(cli, "run_verify_checks", "verify.run_all")
        for i, (name, fn) in enumerate(list(verify.CHECKS)):
            patches.set(verify.CHECKS, i, (name, wrapper(
                f"verify.check.{name}", fn, lambda r: "pass" if r[0] else "fail")))

        for a in ("additive_batch_sample", "encode_prior"):
            bind(datagen, a, f"datagen.{a}")
        for key, fn in list(datagen.GENERATORS.items()):
            patches.set(datagen.GENERATORS, key, wrapper(f"datagen.{fn.__name__}", fn))
        yield proxies
    finally:
        patches.restore()


def call_cli(argv: Sequence[str], cwd: Path, stdout: Optional[str],
             tracer: Optional[Tracer]) -> int:
    os.chdir(cwd)
    main = collabpred.cli.main
    if tracer is not None:
        main = tracer.wrap(f"cli.{argv[0]}", main)
    sink = open(stdout, "w") if stdout else io.StringIO()
    with sink, contextlib.redirect_stdout(sink):
        try:
            return main(list(argv))
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        except Exception:  # noqa: BLE001 -- a crash is a failed invocation, not a benchmark error
            traceback.print_exc()
            return 1


def run_sequence(wl: W.Workload, rd: Path, tracer: Optional[Tracer]):
    rd.mkdir()
    t0 = time.perf_counter()
    codes = [call_cli(c.argv, rd, c.stdout, tracer) for c in wl.commands]
    return codes, time.perf_counter() - t0


def percentile_us(durations_ns: List[int], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 when there are no samples."""
    if not durations_ns:
        return 0.0
    ranked = sorted(durations_ns)
    return ranked[max(0, math.ceil(q / 100.0 * len(ranked)) - 1)] / 1e3


class SpanIndex:
    def __init__(self, spans: List[list]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)

    def durations(self, *names: str) -> List[int]:
        return [s[4] - s[3] for n in names for s in self.by_name.get(n, ())]

    def total_s(self, *names: str) -> float:
        return sum(self.durations(*names)) / 1e9

    def count(self, *names: str, tag: Optional[str] = None) -> int:
        return sum(1 for n in names for s in self.by_name.get(n, ())
                   if tag is None or s[5] == tag)

    def _under(self, span: list, names) -> bool:
        parent = span[1]
        while parent:
            p = self.by_id[parent]
            if p[2] in names:
                return True
            parent = p[1]
        return False

    def self_s(self, outer, inner) -> float:
        """Time in the outermost `outer` spans minus the outermost `inner` spans below them."""
        total = 0
        for s in self.spans:
            if s[2] in outer and not self._under(s, outer):
                total += s[4] - s[3]
            elif s[2] in inner and not self._under(s, inner) and self._under(s, outer):
                total -= s[4] - s[3]
        return total / 1e9


def layer_metrics(ix: SpanIndex, counters: Counter, proxies, rd: Path, wl: W.Workload,
                  traced_s: float, untraced_s: float) -> Dict[str, float]:
    def per_us(seconds: float, n: int) -> float:
        return seconds / n * 1e6 if n else 0.0

    day_online, day_decision = counters["online_day_rounds"], counters["decision_day_rounds"]
    values = {
        "cli.import_s": IMPORT_S,
        "datagen.gen_s": ix.total_s(*(n for n in ix.by_name if n.startswith("datagen."))),
        "bayes.prior_load_s": ix.total_s("bayes.prior_load"),
        "cli.run_s": ix.total_s("cli.run"),
        "cli.report_s": ix.total_s("cli.report"),
        "cli.eval_s": ix.total_s("cli.eval"),
        "cli.verify_s": ix.total_s("cli.verify"),
        "cli.artifact_bytes": sum((rd / f).stat().st_size for c in wl.commands
                                  for f in c.outputs if (rd / f).is_file()),
        "learners.predict_us_p50": percentile_us(ix.durations("learners.predict"), 50),
        "learners.predict_us_p99": percentile_us(ix.durations("learners.predict"), 99),
        "learners.update_us_p50": percentile_us(ix.durations("learners.update"), 50),
        "learners.update_us_p99": percentile_us(ix.durations("learners.update"), 99),
        "learners.instances": sum(len(getattr(p.inner, "instances", ()))
                                  for p in proxies["learners"]),
        "learners.steps": ix.count("learners.update"),
        "protocol.run_collaboration_s": ix.total_s("protocol.run_collaboration"),
        "protocol.driver_self_us_per_day_round": per_us(
            ix.self_s({"protocol.run_collaboration"}, LEARNER_SPANS), day_online),
        "protocol.final_regret_report_s": ix.total_s("protocol.final_regret_report"),
        "protocol.agreement_profile_s": ix.total_s("protocol.agreement_profile"),
        "protocol.round_error_profile_s": ix.total_s("protocol.round_error_profile"),
        "protocol.joint_benchmark_s": ix.total_s("protocol.joint_benchmark"),
        "core.audit_self_s": ix.self_s(AUDIT_SPANS, SOLVER_SPANS),
        "core.to_text_s": ix.total_s("core.to_text"),
        "core.from_text_s": ix.total_s("core.from_text"),
        "weaklearn.lsq_calls": ix.count("weaklearn.constrained_lsq"),
        "weaklearn.lsq_projected": ix.count("weaklearn.constrained_lsq", tag="projected"),
        "weaklearn.lsq_s": ix.total_s("weaklearn.constrained_lsq"),
        "weaklearn.lsq_projected_s": sum(
            s[4] - s[3] for s in ix.by_name.get("weaklearn.constrained_lsq", ())
            if s[5] == "projected") / 1e9,
        "weaklearn.lsq_us_p50": percentile_us(ix.durations("weaklearn.constrained_lsq"), 50),
        "weaklearn.joint_calls": ix.count("weaklearn.joint_lsq"),
        "weaklearn.joint_unconverged": ix.count("weaklearn.joint_lsq", tag="unconverged"),
        "weaklearn.joint_s": ix.total_s("weaklearn.joint_lsq"),
        "batch.collaborate_s": ix.total_s("batch.collaborate"),
        "batch.collaborate_self_s": ix.self_s({"batch.collaborate"}, {"batch.oracle.fit"}),
        "batch.oracle_fits": ix.count("batch.oracle.fit"),
        "batch.rounds": counters["batch_rounds"],
        "batch.levels_kept": counters["levels_kept"],
        "batch.levels_deferred": counters["levels_deferred"],
        "batch.model_load_s": ix.total_s("batch.model_load"),
        "batch.replay_us_per_point": per_us(ix.total_s("batch.eval_test_points"),
                                            counters["replay_points"]),
        "batch.final_swap_regret_s": ix.total_s("batch.final_swap_regret"),
        "decisions.protocol_s": ix.total_s("decisions.run_decision_protocol"),
        "decisions.driver_self_us_per_day_round": per_us(
            ix.self_s({"decisions.run_decision_protocol"}, FORECASTER_SPANS), day_decision),
        "decisions.forecaster_us_p50": percentile_us(ix.durations(*FORECASTER_SPANS), 50),
        "decisions.cal_s": ix.total_s("decisions.decision_cal_error"),
        "decisions.cross_cal_s": ix.total_s("decisions.decision_cross_cal_error"),
        "decisions.swap_regret_s": ix.total_s("decisions.decision_swap_regret"),
        "bayes.simulate_calls": ix.count("bayes.simulate_messages"),
        "bayes.simulate_s": ix.total_s("bayes.simulate_messages"),
        "bayes.run_s": ix.total_s("bayes.run_bayes_protocol"),
        "bayes.csr_s": ix.total_s("bayes.expected_conversation_swap_regret"),
        "verify.run_all_s": ix.total_s("verify.run_all"),
        "verify.extraction_s": ix.total_s("verify.check.weak-learning-extraction"),
        "verify.checks_passed": sum(ix.count(n, tag="pass") for n in ix.by_name
                                    if n.startswith("verify.check.")),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    if values.keys() != LAYER_UNITS.keys():
        raise RuntimeError("layer metrics and LAYER_UNITS disagree")
    return values


def counter_checks(values: Dict[str, float], rd: Path, wl: W.Workload, seed: int):
    """[(ok, description)] for every counter check that applies to this run."""
    checks = [(values["weaklearn.lsq_projected"] <= values["weaklearn.lsq_calls"],
               "weaklearn.lsq_projected <= weaklearn.lsq_calls")]
    if values["protocol.run_collaboration_s"]:
        T, K = map(int, (rd / "transcript.txt").read_text().split("\n", 1)[0].split())
        checks.append((values["learners.steps"] == T * K,
                       f"learners.steps {values['learners.steps']} == T·K = {T * K}"))
    if values["batch.collaborate_s"]:
        saved = [W.level_set_counts(json.loads((rd / f"model_{s}.json").read_text())) for s in "ab"]
        n_levels = sum(k + d for k, d in saved)
        got = values["batch.levels_kept"] + values["batch.levels_deferred"]
        checks.append((got == n_levels, f"levels kept + deferred {got} == {n_levels} "
                                        "level sets in the model transcripts"))
    if values["verify.run_all_s"]:
        checks.append((values["verify.checks_passed"] == W.VERIFY_CHECKS,
                       f"verify.checks_passed {values['verify.checks_passed']} == {W.VERIFY_CHECKS}"))

    counts = {k: v for k, v in values.items() if LAYER_UNITS[k] in EXACT_UNITS}
    memo = run.RESULTS / f"counts_{wl.name}_seed{seed}_{run.source_sha256()[:16]}.json"
    if memo.is_file():
        before = json.loads(memo.read_text())
        changed = sorted(k for k in counts if before.get(k) != counts[k])
        checks.append((not changed,
                       f"counts equal an earlier run of the same sources; differing: {changed}"))
    else:
        memo.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
    return checks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True)
    args = p.parse_args(argv)
    wl, wd = W.WORKLOADS[args.workload], args.workdir.resolve()
    run_id = f"{wl.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer()

    def gen(gen_argv):
        code = call_cli(gen_argv, wd, None, tracer)
        if code != 0:
            raise RuntimeError(f"collab {' '.join(gen_argv)} exited {code}")

    with installed(tracer):
        wl.build(args.seed, wd, gen)
    codes_plain, untraced_s = run_sequence(wl, wd / "rep1", None)
    with installed(tracer) as proxies:
        codes_traced, traced_s = run_sequence(wl, wd / "rep0", tracer)

    ix = SpanIndex(tracer.spans)
    values = layer_metrics(ix, tracer.counters, proxies, wd / "rep0", wl, traced_s, untraced_s)
    checks = counter_checks(values, wd / "rep0", wl, args.seed)
    args.spans.write_text(json.dumps({
        "run_id": run_id, "workload": wl.name, "seed": args.seed,
        "fields": ["id", "parent", "name", "start_ns", "end_ns", "tag"],
        "spans": tracer.spans,
    }) + "\n")
    args.out.write_text(json.dumps({
        "run_id": run_id,
        "metrics": {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()},
        "codes": [codes_traced, codes_plain],
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "counter_checks": checks,
        "span_file": str(args.spans),
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
