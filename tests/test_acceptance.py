"""Acceptance suite: one check per release criterion, one line printed each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import json
import time

import numpy as np

from collabpred.batch import LsqOracle, collaborate, eval_test_points, final_swap_regret
from collabpred.bayes import expected_conversation_swap_regret, run_bayes_protocol
from collabpred.cli import main as cli_main
from collabpred.core import ALICE, BOB, BucketingSpec, sqe
from collabpred.datagen import (
    additive_batch_sample,
    additive_linear_noise,
    additive_prior,
    decision_iid_dataset,
    xor_prior,
)
from collabpred.decisions import (
    BaselineForecaster,
    DecisionTask,
    PolicySet,
    best_response,
    decision_cal_error,
    decision_cross_cal_error,
    decision_swap_regret,
    run_decision_protocol,
)
from collabpred.learners import BANK_KINDS, ConversationWrapper
from collabpred.protocol import final_regret_report, run_collaboration, run_solo
from collabpred.verify import (
    check_information_substitutes_violation,
    check_rho_exactness,
    check_swap_necessity,
    check_weak_learning_extraction,
)
from collabpred.weaklearn import LinearClassSpec

from test_bayes import _random_prior


def _report(num, label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_vaw_regret_bound():
    start = time.time()
    d, T = 4, 500
    violations = 0
    worst_slack = np.inf
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        vaw = ConversationWrapper(d, **BANK_KINDS["vaw"])   # the `vaw` kind: a one-expert bank lane
        X = np.empty((T, d))
        Y = np.empty(T)
        loss = 0.0
        for t in range(T):
            x = rng.standard_normal(d)
            x /= max(np.linalg.norm(x), 1.0)
            vaw.begin_day(x)
            pred = vaw.predict(1, None)
            y = 0.0 if pred >= 0.5 else 1.0  # flip against the learner
            loss += (pred - y) ** 2
            vaw.update(1, y)
            X[t], Y[t] = x, y
        theta, *_ = np.linalg.lstsq(X, Y, rcond=None)
        best = float(np.sum((X @ theta - Y) ** 2))
        bound = 2 * d * np.log(T + 1) + float(theta @ theta)
        slack = bound - (loss - best)
        worst_slack = min(worst_slack, slack)
        if slack < 0:
            violations += 1
    elapsed = time.time() - start
    _report(
        1, "forward-ridge regret bound",
        violations == 0 and elapsed < 5.0,
        f"0 violations over 20 seeds, min slack {worst_slack:.2f}, {elapsed:.2f}s",
    )


def test_criterion_2_weak_learning_extraction():
    start = time.time()
    ok, detail = check_weak_learning_extraction(trials=200)
    elapsed = time.time() - start
    _report(2, "weak-learning extraction", ok and elapsed < 10.0,
            f"{detail}, {elapsed:.2f}s")


def test_criterion_3_counterexample_exactness():
    ok_rho, d_rho = check_rho_exactness()
    ok_swap, d_swap = check_swap_necessity()
    ok_is, d_is = check_information_substitutes_violation()
    _report(3, "counterexample exactness", ok_rho and ok_swap and ok_is,
            f"rho[{d_rho}] swap[{d_swap}] IS[{d_is}]")


def test_criterion_4_batch_pipeline():
    start = time.time()
    n, m, C = 2000, 10, 1.0
    sample = additive_batch_sample(n, seed=404, d_a=3, d_b=3)
    spec_a = LinearClassSpec(d=sample.x_a.shape[1], C=C)
    spec_b = LinearClassSpec(d=sample.x_b.shape[1], C=C)
    result = collaborate(sample, LsqOracle(spec_a), LsqOracle(spec_b), m=m)

    halts = result.rounds <= 100
    agree = np.array_equal(result.indices[:, -1], result.indices[:, -2])
    regret_union = final_swap_regret(result.final_values, sample, spec_a, spec_b)
    swap_ok = regret_union <= 3.0 / m

    from collabpred.weaklearn import joint_lsq

    joint = joint_lsq(sample.x_a, sample.x_b, sample.y, None, spec_a, spec_b)
    mean_regret_joint = float(np.mean((result.final_values - sample.y) ** 2)) - joint.error / n
    joint_ok = mean_regret_joint <= 2.0 * 4.0 * C * np.sqrt(3.0 / m)

    replay = eval_test_points(sample, result.transcript_a, result.transcript_b)
    replay_ok = np.array_equal(replay, result.final_values)
    elapsed = time.time() - start
    _report(
        4, "batch pipeline",
        halts and agree and swap_ok and joint_ok and replay_ok and elapsed < 60.0,
        f"R={result.rounds}, swap={regret_union:.4f}≤{3 / m}, "
        f"joint regret={mean_regret_joint:.4f}, replay exact={replay_ok}, {elapsed:.1f}s",
    )


def test_criterion_5_online_collaboration():
    start = time.time()
    T, K, m, eps, g = 20000, 8, 20, 0.2, 0.25
    ds = additive_linear_noise(T, seed=7, d_a=2, d_b=2,
                               signal_a=0.45, signal_b=0.45, noise=0.1)
    d_a = ds.x_a.shape[1]
    d_b = ds.x_b.shape[1]
    alice = ConversationWrapper(d=d_a, m=m, g=g)
    bob = ConversationWrapper(d=d_b, m=m, g=g)
    transcript = run_collaboration(ds, alice, bob, K)
    bucketing = BucketingSpec(g=g, m=m)

    final_sqe = sqe(transcript.round_predictions(K), transcript.outcomes)
    solo = min(run_solo(ds))
    beats_solo = final_sqe < solo - 0.01 * T

    # at C=1000 the report's least-squares fits stay in closed form
    spec_a = LinearClassSpec(d=d_a, C=1000.0)
    spec_b = LinearClassSpec(d=d_b, C=1000.0)
    report = final_regret_report(transcript, ds, spec_a, spec_b, bucketing, eps)
    agreement = report["agreement"]
    least = agreement["fractions"][str(agreement["k_star"])]
    agreement_ok = least <= agreement["bound"]

    slack_ok = report["round_errors"]["flagged_rounds"] == []
    elapsed = time.time() - start
    _report(
        5, "online collaboration",
        beats_solo and agreement_ok and slack_ok and elapsed < 300.0,
        f"final={final_sqe:.0f} vs solo={solo:.0f} (margin {solo - 0.01 * T - final_sqe:.0f}), "
        f"min disagreement {least:.3f}≤{agreement['bound']:.3f}, "
        f"no slack violations, {elapsed:.0f}s",
    )


def test_criterion_6_bayesian_one_shot():
    m = 16
    xor_res = run_bayes_protocol(xor_prior(), K=4, m=m)
    xor_ok = (
        all(v == 0.25 for v in xor_res.expected_sqe_by_round.values())
        and np.all(xor_res.message_indices[:, 0] / m == 0.5)
    )
    add_res = run_bayes_protocol(additive_prior(), K=4, m=m)
    add_ok = add_res.expected_sqe_by_round[2] == 0.0

    rng = np.random.default_rng(99)
    mono_ok = True
    cap_ok = True
    for _ in range(50):
        prior = _random_prior(rng)
        res = run_bayes_protocol(prior, K=4, m=m)
        errs = [res.expected_sqe_by_round[k] for k in range(1, 5)]
        if any(cur > prev + 1e-12 for prev, cur in zip(errs, errs[1:])):
            mono_ok = False
        for side in (ALICE, BOB):
            entries = expected_conversation_swap_regret(prior, res.message_indices, m, side)
            if any(v > 1.0 / (m * m) + 1e-12 for v in entries.values()):
                cap_ok = False
    _report(
        6, "Bayesian one-shot",
        xor_ok and add_ok and mono_ok and cap_ok,
        f"xor exact 0.25, additive round-2 exact 0, 50 priors monotone, "
        f"swap regret ≤ 1/{m * m}",
    )


def test_criterion_7_decision_audits():
    rng = np.random.default_rng(17)
    br_ok = True
    for _ in range(1000):
        n_actions = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        task = DecisionTask.from_matrix(rng.uniform(-1, 1, size=(n_actions, d)))
        y = rng.uniform(size=d)
        utils = [task.matrix[a] @ y for a in range(n_actions)]
        best = 0
        for a in range(1, n_actions):
            if utils[a] > utils[best]:
                best = a
        if best_response(task, y) != best:
            br_ok = False

    T, d = 20000, 3
    task = DecisionTask.from_matrix(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]
    )
    ds = decision_iid_dataset(T, seed=31, d=d)
    transcript = run_decision_protocol(ds, task, BaselineForecaster(d), BaselineForecaster(d), K=2)
    invariant_ok = all(
        transcript.actions[t, k] == best_response(task, transcript.predictions[t, k])
        for t in range(transcript.T) for k in range(transcript.K)
    )
    final = transcript.round(transcript.K)
    policies = PolicySet(task.n_actions, transcript.T)
    _per_a, f_hat = decision_cal_error(final, task)
    _per_x, f_hat_prime = decision_cross_cal_error(final, task, policies)
    swap = decision_swap_regret(final, task, policies)
    A = task.n_actions
    bound = task.lipschitz * A * f_hat + task.lipschitz * A * A * f_hat_prime
    bound_ok = swap <= bound + 1e-9
    _report(
        7, "decision audits",
        br_ok and invariant_ok and bound_ok,
        f"BR matches brute force ×1000, transcript invariant holds, "
        f"swap {swap:.2f} ≤ L|A|f̂ + L|A|²f̂' = {bound:.2f}",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "mode": "online",
        "seed": 12,
        "days": 300,
        "rounds": 4,
        "eps": 0.2,
        "dataset": {"generator": "additive-linear-noise",
                    "params": {"signal_a": 0.35, "signal_b": 0.35}},
        "alice": {"kind": "conversation", "m": 8, "g": 0.25},
        "bob": {"kind": "conversation", "m": 8, "g": 0.25},
        "bucketing": {"g": 0.25, "m": 8},
        "out": str(tmp_path / "report.json"),
        "transcript": str(tmp_path / "transcript.txt"),
        "csv": str(tmp_path / "metrics.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    names = ("report.json", "transcript.txt", "metrics.csv")
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    first = {name: (tmp_path / name).read_bytes() for name in names}
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    identical = all((tmp_path / name).read_bytes() == first[name] for name in names)
    _report(8, "determinism", identical,
            "transcript, report and CSV byte-identical across reruns")
