"""Drives the K-round online collaboration over a dataset.

Each day Alice predicts on odd rounds from her features and Bob's previous
message, Bob on even rounds from his features and Alice's previous
message; only after the final round do both observe the outcome and update
whichever learner instances were active that day. The full T×K transcript
is always produced: conversations are never halted early at agreement.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .core import (
    ALICE,
    BOB,
    BucketingSpec,
    ConversationTranscript,
    ProtocolError,
    SequenceDataset,
    conversation_calibration_error,
    conversation_swap_regret,
    level_errors,
    ordered_sum,
    round_table,
    sqe,
)
from .learners import BANK_KINDS, ConversationWrapper
from .weaklearn import JointFit, LinearClassSpec, joint_lsq

__all__ = [
    "ProtocolError",
    "ConstantLearner",
    "run_collaboration",
    "run_solo",
    "joint_benchmark",
    "final_regret_report",
]


class ConstantLearner:
    """Stub learner that always answers the same value."""

    def __init__(self, value: float = 0.5):
        self.value = value

    def begin_day(self, x):
        pass

    def predict(self, k, prev_message):
        return self.value

    def update(self, k, y):
        return self


def run_collaboration(dataset: SequenceDataset, alice, bob, K: int) -> ConversationTranscript:
    """Run the full K-round protocol and return the complete T×K transcript.

    Each day: `begin_day(x)` on both sides, `predict(k, prev_message)` for
    k = 1..K with the round-(k−1) message, then `update(k, y)` for k = 1..K.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    T = len(dataset)
    preds = np.empty((T, K))
    for t, (x_a, x_b, y) in enumerate(zip(dataset.x_a, dataset.x_b, dataset.y.tolist())):
        for k, learner, x in ((1, alice, x_a), (2, bob, x_b)):
            try:
                learner.begin_day(x)
            except Exception as e:  # noqa: BLE001
                raise ProtocolError(f"learner failed at day {t + 1}, round {k}: {e}") from e
        day = []
        prev = None
        for k in range(1, K + 1):
            learner = alice if k % 2 == 1 else bob
            try:
                yhat = float(learner.predict(k, prev))
            except Exception as e:  # noqa: BLE001 - re-raise with run context
                raise ProtocolError(f"learner failed at day {t + 1}, round {k}: {e}") from e
            if not 0.0 <= yhat <= 1.0:
                raise ProtocolError(
                    f"prediction {yhat} outside [0,1] at day {t + 1}, round {k}"
                )
            day.append(yhat)
            prev = yhat
        for k in range(1, K + 1):
            learner = alice if k % 2 == 1 else bob
            try:
                learner.update(k, y)
            except Exception as e:  # noqa: BLE001
                raise ProtocolError(f"update failed at day {t + 1}, round {k}: {e}") from e
        preds[t] = day
    return ConversationTranscript(preds, dataset.y)


def run_solo(dataset: SequenceDataset) -> Tuple[float, float]:
    """Squared errors of Alice's and Bob's single-party forward-ridge learners.

    Each side is a `vaw` learner (ridge a = 1) on its own features that ignores the
    conversation, so a two-round run gives Alice's solo forecasts as round 1
    and Bob's as round 2. With d_a = d_b both are lanes of one expert pool.
    """
    vaw = BANK_KINDS["vaw"]
    alice = ConversationWrapper(dataset.x_a.shape[1], **vaw)
    bob = ConversationWrapper(dataset.x_b.shape[1], peer=alice, **vaw)
    transcript = run_collaboration(dataset, alice, bob, K=2)
    return tuple(sqe(transcript.round_predictions(k), transcript.outcomes) for k in (1, 2))


def joint_benchmark(dataset: SequenceDataset, spec_a: LinearClassSpec,
                    spec_b: LinearClassSpec) -> JointFit:
    """Best additive norm-bounded predictor on the pooled features.

    Error is the total (summed) squared error over the dataset, matching
    the transcript SQE scale.
    """
    return joint_lsq(dataset.x_a, dataset.x_b, dataset.y,
                     weights=None, spec_a=spec_a, spec_b=spec_b)


def final_regret_report(transcript: ConversationTranscript, dataset: SequenceDataset,
                        spec_a: LinearClassSpec, spec_b: LinearClassSpec,
                        bucketing: BucketingSpec, eps: float, table=None) -> dict:
    """Every measured metric of a finished run, each computed once: the
    `report.json` payload of an online run.

    `table` is the transcript's `round_table` at eps, computed here when not
    given. On top of `_agreement_audit` come the final round's swap regrets,
    read from one `level_errors` table, each side's per-bucket linear swap
    regret and the joint benchmark. Raises UncertifiedFit when the joint
    benchmark fit is not certified.
    """
    final = transcript.round_predictions(transcript.K)
    y = transcript.outcomes
    xa, xb = dataset.x_a, dataset.x_b
    payload = _agreement_audit(transcript, bucketing, eps, table)
    csr = {**conversation_swap_regret(transcript, ALICE, bucketing, ((spec_a, xa),)),
           **conversation_swap_regret(transcript, BOB, bucketing, ((spec_b, xb),))}
    joint_err = joint_benchmark(dataset, spec_a, spec_b).certified_error()
    _, constant, (fits_a, fits_b) = level_errors((final,), y, None, ((spec_a, xa), (spec_b, xb)))
    loss = payload["sqe"]   # the final round's, Σ(ŷ − y)²
    payload.update({
        "swap_regret_by_class": {
            "constant": loss - ordered_sum(constant),
            "linear_alice": loss - ordered_sum([fit.error for fit in fits_a]),
            "linear_bob": loss - ordered_sum([fit.error for fit in fits_b]),
        },
        "conversation_swap_regret": {f"{k},{i}": v for (k, i), v in sorted(csr.items())},
        "joint_benchmark_error": joint_err,
        "external_regret_joint": payload["sqe"] - joint_err,
        "extras": {},
    })
    return payload


def _agreement_audit(transcript: ConversationTranscript, bucketing: BucketingSpec,
                     eps: float, table=None) -> dict:
    """The report entries that follow from the round table and from each
    side's per-bucket conversation-calibration error, computed once per side.

    Round k's calibration mass is the acting side's error summed over its
    buckets, left to right. It gives the measured slack
    β̂ = 2g + Σ_side max_k mass(k)/T, and with it the agreement bound
    1/(2Kε²) + β̂/(2ε²), and the slack g·T + 3·mass(k) within which SQE may
    rise from round k−1 to round k; a round that rises further is flagged.
    With perfectly conversation-calibrated sides nothing is ever flagged.
    """
    K, T, g = transcript.K, transcript.T, bucketing.g
    table = round_table(transcript, eps) if table is None else table
    sqes, fractions = table["sqe"], table["disagreement"]
    beta = 2.0 * g
    mass: Dict[int, float] = {}
    for side in (ALICE, BOB):
        per_round: Dict[int, float] = {}
        for (k, _i), v in conversation_calibration_error(transcript, side, bucketing).items():
            per_round[k] = per_round.get(k, 0.0) + v
        if per_round:
            beta += max(per_round.values()) / T
        mass.update(per_round)
    flagged = []
    max_inc = 0.0
    for k in range(2, K + 1):
        inc = sqes[k] - sqes[k - 1]
        max_inc = max(max_inc, inc)
        if inc > g * T + 3.0 * mass[k]:
            flagged.append(k)
    return {
        "sqe": sqes[K],
        "ece": table["ece"][K],
        "disagreement_fraction_by_round": {f"{k},{eps}": v for k, v in fractions.items()},
        "slack_beta": beta,
        "agreement": {
            "fractions": {str(k): v for k, v in fractions.items()},
            "k_star": min(fractions, key=lambda k: (fractions[k], k)),
            "bound": 1.0 / (2.0 * K * eps * eps) + beta / (2.0 * eps * eps),
            "beta_hat": beta,
        },
        "round_errors": {
            "sqe": {str(k): v for k, v in sqes.items()},
            "max_adjacent_increase": max_inc,
            "flagged_rounds": flagged,
        },
    }
