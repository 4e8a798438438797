"""Drives the K-round online collaboration over a dataset.

Each day Alice predicts on odd rounds from her features and Bob's previous
message, Bob on even rounds from his features and Alice's previous
message; only after the final round do both observe the outcome and update
whichever learner instances were active that day. The full T×K transcript
is always produced: conversations are never halted early at agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .core import (
    ALICE,
    BOB,
    BucketingSpec,
    ConversationTranscript,
    RegretReport,
    SequenceDataset,
    conversation_calibration_error,
    conversation_swap_regret,
    disagreement_fraction,
    ece,
    ordered_sum,
    sqe,
    swap_regret,
)
from .learners import LinearClassSpec, VawState
from .weaklearn import JointFit, joint_lsq

__all__ = [
    "ProtocolError",
    "ConstantLearner",
    "SoloVawLearner",
    "run_collaboration",
    "run_solo",
    "agreement_profile",
    "round_error_profile",
    "joint_benchmark",
    "final_regret_report",
]


class ProtocolError(RuntimeError):
    pass


class ConstantLearner:
    """Stub learner that always answers the same value."""

    def __init__(self, value: float = 0.5):
        self.value = value

    def predict(self, k, prev_message, x):
        return self.value

    def update(self, k, prev_message, x, y):
        return self


class SoloVawLearner:
    """A single forward-ridge learner that ignores the conversation entirely."""

    def __init__(self, d: int, a: float = 1.0):
        self.state = VawState(d, a)

    def predict(self, k, prev_message, x):
        return self.state.predict(x)

    def update(self, k, prev_message, x, y):
        # one update per day: only act on the first own round
        if k <= 2:
            self.state.update(x, y)
        return self


def run_collaboration(dataset: SequenceDataset, alice, bob, K: int) -> ConversationTranscript:
    """Run the full K-round protocol and return the complete T×K transcript."""
    if K < 2:
        raise ValueError("K must be at least 2")
    T = len(dataset)
    preds = np.empty((T, K))
    # a learner with a `begin_day` gets the day's features ahead of round 1,
    # so that learners sharing a bank make one selection pass a day
    begins = [(k, begin) for k, begin in ((1, getattr(alice, "begin_day", None)),
                                          (2, getattr(bob, "begin_day", None)))
              if begin is not None]
    for t, (x_a, x_b, y) in enumerate(zip(dataset.x_a, dataset.x_b, dataset.y.tolist())):
        for k, begin in begins:
            try:
                begin(x_a if k == 1 else x_b)
            except Exception as e:  # noqa: BLE001
                raise ProtocolError(f"learner failed at day {t + 1}, round {k}: {e}") from e
        day = []
        prev = None
        for k in range(1, K + 1):
            learner = alice if k % 2 == 1 else bob
            x = x_a if k % 2 == 1 else x_b
            try:
                yhat = float(learner.predict(k, prev, x))
            except Exception as e:  # noqa: BLE001 - re-raise with run context
                raise ProtocolError(f"learner failed at day {t + 1}, round {k}: {e}") from e
            if not 0.0 <= yhat <= 1.0:
                raise ProtocolError(
                    f"prediction {yhat} outside [0,1] at day {t + 1}, round {k}"
                )
            day.append(yhat)
            prev = yhat
        prev = None
        for k in range(1, K + 1):
            learner = alice if k % 2 == 1 else bob
            x = x_a if k % 2 == 1 else x_b
            try:
                learner.update(k, prev, x, y)
            except Exception as e:  # noqa: BLE001
                raise ProtocolError(f"update failed at day {t + 1}, round {k}: {e}") from e
            prev = day[k - 1]
        preds[t] = day
    preds.setflags(write=False)
    return ConversationTranscript(preds, dataset.y)


def run_solo(dataset: SequenceDataset, side: str, d: int, a: float = 1.0) -> float:
    """Squared error of a single-party forward-ridge learner on its own features."""
    state = VawState(d, a)
    xs = dataset.x_a if side == ALICE else dataset.x_b
    total = 0.0
    for x, y in zip(xs, dataset.y.tolist()):
        pred = state.predict(x)
        total += (pred - y) ** 2
        state.update(x, y)
    return total


@dataclass
class AgreementProfile:
    fractions: Dict[int, float]
    k_star: int
    bound: float
    beta_hat: float


def _beta_hat(transcript: ConversationTranscript, bucketing: BucketingSpec) -> float:
    """Measured slack: per-bucket calibration-error mass plugged into the
    g_A + g_B + f_A-term + f_B-term slack expression."""
    g = bucketing.g
    beta = 2.0 * g
    T = transcript.T
    for side in (ALICE, BOB):
        cal = conversation_calibration_error(transcript, side, bucketing)
        per_round: Dict[int, float] = {}
        for (k, _i), v in cal.items():
            per_round[k] = per_round.get(k, 0.0) + v
        if per_round:
            beta += max(per_round.values()) / T
    return beta


def agreement_profile(transcript: ConversationTranscript, eps: float,
                      bucketing: BucketingSpec) -> AgreementProfile:
    """Per-round ε-disagreement fractions, the best round, and the measured bound.

    The bound is 1/(2Kε²) + β̂/(2ε²) with β̂ assembled from the measured
    per-bucket calibration errors of both sides.
    """
    if transcript.K < 2:
        raise ValueError("agreement profile needs K ≥ 2")
    fractions = {
        k: disagreement_fraction(transcript, k, eps) for k in range(2, transcript.K + 1)
    }
    k_star = min(fractions, key=lambda k: (fractions[k], k))
    beta = _beta_hat(transcript, bucketing)
    bound = 1.0 / (2.0 * transcript.K * eps * eps) + beta / (2.0 * eps * eps)
    return AgreementProfile(fractions=fractions, k_star=k_star, bound=bound, beta_hat=beta)


@dataclass
class RoundErrorProfile:
    sqe_by_round: Dict[int, float]
    slack_by_round: Dict[int, float]
    max_adjacent_increase: float
    flagged_rounds: Tuple[int, ...]


def round_error_profile(transcript: ConversationTranscript,
                        bucketing: BucketingSpec) -> RoundErrorProfile:
    """Per-round squared error and the measured slack for adjacent increases.

    Round k is flagged when SQE(k) > SQE(k−1) + slack(k), where slack(k) is
    g·T plus three times the acting side's calibration-error mass at round
    k. With perfectly conversation-calibrated sides nothing is ever flagged.
    """
    sqes = {
        k: sqe(transcript.round_predictions(k), transcript.outcomes)
        for k in range(1, transcript.K + 1)
    }
    cal = {
        ALICE: conversation_calibration_error(transcript, ALICE, bucketing),
        BOB: conversation_calibration_error(transcript, BOB, bucketing),
    }
    slack: Dict[int, float] = {}
    flagged = []
    max_inc = 0.0
    for k in range(2, transcript.K + 1):
        side = ConversationTranscript.side_of_round(k)
        mass = ordered_sum([v for (kk, _i), v in cal[side].items() if kk == k])
        slack[k] = bucketing.g * transcript.T + 3.0 * mass
        inc = sqes[k] - sqes[k - 1]
        max_inc = max(max_inc, inc)
        if inc > slack[k]:
            flagged.append(k)
    return RoundErrorProfile(
        sqe_by_round=sqes,
        slack_by_round=slack,
        max_adjacent_increase=max_inc,
        flagged_rounds=tuple(flagged),
    )


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
                        bucketing: BucketingSpec, eps: float) -> RegretReport:
    """Assemble every measured metric of a finished run into one report.

    Raises UncertifiedFit when the joint benchmark fit is not certified.
    """
    K = transcript.K
    final = transcript.round_predictions(K)
    y = transcript.outcomes
    xa, xb = dataset.x_a, dataset.x_b

    swap_by_class = {
        "constant": swap_regret(final, y, benchmark="constant"),
        "linear_alice": swap_regret(final, y, xa, spec_a),
        "linear_bob": swap_regret(final, y, xb, spec_b),
    }
    csr: Dict[Tuple[int, int], float] = {}
    csr.update(conversation_swap_regret(transcript, ALICE, spec_a, bucketing, xa))
    csr.update(conversation_swap_regret(transcript, BOB, spec_b, bucketing, xb))

    fractions = {
        (k, eps): disagreement_fraction(transcript, k, eps)
        for k in range(2, K + 1)
    }
    joint_err = joint_benchmark(dataset, spec_a, spec_b).certified_error()
    final_sqe = sqe(final, y)
    return RegretReport(
        sqe=final_sqe,
        ece=ece(final, y),
        swap_regret_by_class=swap_by_class,
        conversation_swap_regret=csr,
        disagreement_fraction_by_round=fractions,
        joint_benchmark_error=joint_err,
        external_regret_joint=final_sqe - joint_err,
        slack_beta=_beta_hat(transcript, bucketing),
    )
