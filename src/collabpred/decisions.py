"""Action-mediated collaboration: best responses and decision audits.

Parties predict a d-dimensional outcome but communicate only the
utility-maximizing action for their prediction. The audits (decision
calibration, decision cross calibration, decision swap regret and their
conversation-conditioned variants) are exact functions of the transcript
and hold regardless of which forecaster produced it; the bundled baseline
forecaster is a per-key running outcome mean.

Forecasters are round-separable: a forecaster's round-k state depends only
on its round-k updates (the baseline keys its state by round and previous
action). Round-major order therefore equals day-major order, and the
protocol driver asks each side for a whole round at once through
`forecast_round`, then ranks the actions of every day in one matrix
product (`best_responses`). `predict` and `update` remain the one-step API.
"""

from __future__ import annotations

import json
import warnings
from itertools import product
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import ConversationTranscript, _frozen, level_sets, ordered_sum

__all__ = [
    "DecisionTask",
    "DecisionSequence",
    "DecisionTranscript",
    "PolicySet",
    "best_response",
    "best_responses",
    "decision_cal_error",
    "decision_cross_cal_error",
    "decision_swap_regret",
    "decision_conv_cal_error",
    "decision_conv_swap_regret",
    "BaselineForecaster",
    "run_decision_protocol",
    "utility_round_profile",
]


@dataclass(frozen=True)
class DecisionTask:
    """Finite action set with a utility linear in the outcome vector.

    The raw |A|×d matrix is rescaled (per-column shift shared by all
    actions, then a positive scale) so that u(a,y) ∈ [0,1] for y ∈ [0,1]^d
    while staying strictly linear in y and preserving every best response.
    """

    actions: Tuple[str, ...]
    matrix: np.ndarray          # rescaled, nonnegative, rows sum ≤ 1
    lipschitz: float
    column_offsets: np.ndarray  # recorded affine rescaling
    scale: float

    @classmethod
    def from_matrix(cls, matrix, actions: Optional[Sequence[str]] = None) -> "DecisionTask":
        raw = np.atleast_2d(np.asarray(matrix, dtype=float))
        n_actions, d = raw.shape
        if actions is None:
            actions = tuple(f"a{i}" for i in range(n_actions))
        else:
            actions = tuple(actions)
            if len(actions) != n_actions:
                raise ValueError("action names must match the matrix rows")
        offsets = raw.min(axis=0)
        shifted = raw - offsets
        scale = float(shifted.sum(axis=1).max())
        if scale <= 0.0:
            scale = 1.0
        rescaled = shifted / scale
        lip = float((rescaled.max(axis=1) - rescaled.min(axis=1)).max())
        rescaled.setflags(write=False)
        offsets.setflags(write=False)
        return cls(actions=actions, matrix=rescaled, lipschitz=lip,
                   column_offsets=offsets, scale=scale)

    @property
    def n_actions(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def utility(self, action: int, y) -> float:
        return float(self.matrix[action] @ np.asarray(y, dtype=float))

    def utilities(self, y) -> np.ndarray:
        return self.matrix @ np.asarray(y, dtype=float)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DecisionTask":
        """The task of a config's {"utility": rows, "actions": names, "d": columns};
        "actions" and "d" are optional."""
        actions = data.get("actions")
        if actions is not None and not (
                isinstance(actions, list) and all(isinstance(a, str) for a in actions)):
            raise ValueError("task: field 'actions' must be a list of names")
        try:
            matrix = np.array(data["utility"])
        except ValueError:  # ragged rows
            matrix = None
        if (matrix is None or matrix.dtype.kind not in "biuf" or matrix.ndim != 2
                or matrix.size == 0 or not np.isfinite(matrix).all()):
            raise ValueError("task: field 'utility' must be a matrix of numbers, one row per action")
        d = data.get("d", matrix.shape[1])
        if isinstance(d, bool) or not isinstance(d, int) or d != matrix.shape[1]:
            raise ValueError(f"task: field 'd' must be the utility matrix's column count "
                             f"{matrix.shape[1]}, found {json.dumps(d)[:40]}")
        return cls.from_matrix(matrix.astype(float), actions)


def _utilities(task: DecisionTask, actions: np.ndarray, y: np.ndarray) -> np.ndarray:
    """task.utility(actions[t], y[t]) for every row t, one dot product per row as there."""
    return np.vecdot(task.matrix[actions], y)


def best_response(task: DecisionTask, y) -> int:
    """Utility-maximizing action for outcome estimate y; ties take the lowest index."""
    return int(np.argmax(task.utilities(y)))


@dataclass(frozen=True)
class DecisionSequence:
    """A single prediction/action/outcome sequence (one round across days)."""

    predictions: np.ndarray  # (T, d)
    actions: np.ndarray      # (T,)
    outcomes: np.ndarray     # (T, d)

    @property
    def T(self) -> int:
        return self.actions.shape[0]


class DecisionTranscript:
    """Per-day, per-round predictions, communicated actions, and outcomes.

    Every stored action is the best response to the stored prediction. The
    arrays are read-only and owned as `core._frozen` keeps them.
    """

    def __init__(self, predictions, actions, outcomes, task: DecisionTask):
        self.predictions = _frozen(np.asarray(predictions, dtype=float))   # (T, K, d)
        self.actions = _frozen(np.asarray(actions, dtype=int))             # (T, K)
        self.outcomes = _frozen(np.asarray(outcomes, dtype=float))         # (T, d)
        self.task = task
        if self.predictions.ndim != 3 or self.actions.shape != self.predictions.shape[:2]:
            raise ValueError("transcript arrays are misaligned")

    @property
    def T(self) -> int:
        return self.actions.shape[0]

    @property
    def K(self) -> int:
        return self.actions.shape[1]

    def round(self, k: int) -> DecisionSequence:
        return DecisionSequence(
            predictions=self.predictions[:, k - 1, :],
            actions=self.actions[:, k - 1],
            outcomes=self.outcomes,
        )

    rounds_of = ConversationTranscript.rounds_of


class PolicySet:
    """Named finite policies given as explicit per-row action labels.

    All constant policies are always included.
    """

    def __init__(self, n_actions: int, T: int, named: Optional[Dict[str, np.ndarray]] = None):
        self.n_actions = n_actions
        self.T = T
        self.policies: Dict[str, np.ndarray] = {}
        for a in range(n_actions):
            self.policies[f"const:{a}"] = np.full(T, a, dtype=int)
        for name, labels in (named or {}).items():
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (T,):
                raise ValueError(f"policy {name!r} must label all {T} rows")
            if labels.min() < 0 or labels.max() >= n_actions:
                raise ValueError(f"policy {name!r} uses out-of-range actions")
            self.policies[name] = labels

    def items(self):
        return self.policies.items()


def decision_cal_error(seq: DecisionSequence, task: DecisionTask):
    """Per-action ℓ∞ prediction bias conditioned on the chosen action.

    Returns (per-action dict, max over actions).
    """
    per_action: Dict[int, float] = dict.fromkeys(range(task.n_actions), 0.0)
    for (a,), rows in level_sets(seq.actions):
        per_action[a] = _linf_bias(seq, rows)
    return per_action, max(per_action.values())


def decision_cross_cal_error(seq: DecisionSequence, task: DecisionTask,
                             policies: PolicySet):
    """ℓ∞ bias conditioned on (own action, policy, policy's action).

    Returns (dict keyed by (a, policy name, a'), max).
    """
    actions = range(task.n_actions)
    out: Dict[Tuple[int, str, int], float] = {
        (a, name, a2): 0.0 for name, _ in policies.items() for a in actions for a2 in actions
    }
    for name, labels in policies.items():
        for (a, a2), rows in level_sets(seq.actions, labels):
            out[(a, name, a2)] = _linf_bias(seq, rows)
    return out, max(out.values(), default=0.0)


def decision_swap_regret(seq: DecisionSequence, task: DecisionTask,
                         policies: PolicySet) -> float:
    """Σ over actions of the best policy's conditional utility minus realized utility."""
    realized = ordered_sum(_utilities(task, seq.actions, seq.outcomes))
    total = 0.0
    util_by_policy = {}
    # per-day utility of following each policy, computed once
    all_utils = seq.outcomes @ task.matrix.T  # (T, n_actions)
    for name, labels in policies.items():
        util_by_policy[name] = all_utils[np.arange(seq.T), labels]
    for _, rows in level_sets(seq.actions):
        total += max(float(np.sum(u[rows])) for u in util_by_policy.values())
    return total - realized


def decision_conv_cal_error(transcript: DecisionTranscript, side: str):
    """Per (round, own action, previous action) ℓ∞ bias for the given side."""
    return _conv_audit(
        transcript, side, transcript.task.n_actions,
        lambda seq, prev_actions: (seq.actions, prev_actions), _linf_bias,
    )


def decision_conv_swap_regret(transcript: DecisionTranscript, task: DecisionTask,
                              policies: PolicySet, side: str) -> Dict[Tuple[int, int], float]:
    """Decision swap regret of each round restricted to previous-action subsequences."""

    def audit(seq, rows):
        sub = DecisionSequence(seq.predictions[rows], seq.actions[rows], seq.outcomes[rows])
        sub_policies = PolicySet(task.n_actions, sub.T)
        for name, labels in policies.items():
            if not name.startswith("const:"):
                sub_policies.policies[name] = labels[rows]
        return decision_swap_regret(sub, task, sub_policies)

    return _conv_audit(
        transcript, side, task.n_actions, lambda seq, prev_actions: (prev_actions,), audit
    )


def _linf_bias(seq: DecisionSequence, rows: np.ndarray) -> float:
    """ℓ∞ norm of the summed prediction bias on the given rows."""
    bias = np.sum(seq.predictions[rows] - seq.outcomes[rows], axis=0)
    return float(np.abs(bias).max())


def _conv_audit(transcript: DecisionTranscript, side: str, n_actions: int, keys, audit) -> dict:
    """audit(round-k sequence, rows) per level set of keys(seq, previous-round actions).

    Covers the side's rounds k ≥ 2; every (k, *key) over the action range is
    present, 0.0 when its level set is empty.
    """
    out = {}
    for k in transcript.rounds_of(side):
        if k < 2:
            continue
        seq = transcript.round(k)
        by = keys(seq, transcript.actions[:, k - 2])
        out.update(((k, *key), 0.0) for key in product(range(n_actions), repeat=len(by)))
        for key, rows in level_sets(*by):
            out[(k, *key)] = audit(seq, rows)
    return out


class BaselineForecaster:
    """Running outcome mean per (round, previous action) key, starting at 0.5.

    `predict` and `update` are the one-step API; `forecast_round` makes a
    whole round's forecasts and updates at once, with the same bits.
    """

    def __init__(self, d: int):
        self.d = d
        self.counts: Dict[Tuple[int, Optional[int]], int] = {}
        self.sums: Dict[Tuple[int, Optional[int]], np.ndarray] = {}

    def predict(self, k: int, prev_action: Optional[int], x=None) -> np.ndarray:
        key = (k, prev_action)
        c = self.counts.get(key, 0)
        if c == 0:
            return np.full(self.d, 0.5)
        return self.sums[key] / c

    def update(self, k: int, prev_action: Optional[int], x, y) -> "BaselineForecaster":
        key = (k, prev_action)
        self.counts[key] = self.counts.get(key, 0) + 1
        if key not in self.sums:
            self.sums[key] = np.zeros(self.d)
        self.sums[key] += np.asarray(y, dtype=float)
        return self

    def forecast_round(self, k: int, prev_actions: Optional[np.ndarray], x, y) -> np.ndarray:
        """Every day's round-k forecast (T, d), made online, with y folded in.

        Row t equals `predict(k, prev_actions[t])` after `update` on rows
        < t, and `counts`/`sums` end as T calls to `update` leave them:
        each key's outcomes are summed by one sequential `cumsum` from its
        stored sum, the same additions as `sums[key] += y`. Round 1
        (`prev_actions` None) is a single key.
        """
        y = np.asarray(y, dtype=float)
        T = y.shape[0]
        out = np.empty((T, self.d))
        groups = [((None,), np.arange(T))] if prev_actions is None else level_sets(prev_actions)
        for (prev,), rows in groups:
            key = (k, prev)
            start = self.counts.get(key, 0)
            running = np.cumsum(np.vstack([self.sums.get(key, np.zeros(self.d)), y[rows]]), axis=0)
            seen = start + np.arange(len(rows))
            out[rows] = running[:-1] / np.maximum(seen, 1)[:, None]
            out[rows[seen == 0]] = 0.5
            self.counts[key] = start + len(rows)
            self.sums[key] = running[-1].copy()
        return out


def best_responses(task: DecisionTask, yhat: np.ndarray) -> np.ndarray:
    """`best_response` of every row of yhat (T, d), as a (T,) int array.

    One matrix product ranks the actions. It may round differently from the
    per-row product, so any row whose top two utilities lie within 1e-9 is
    recomputed by `best_response`. Utilities of forecasts in [0,1]^d lie in
    [0,1], where a d-term dot product rounds by far less than 1e-9, so no
    row outside that band can change its argmax.
    """
    util = yhat @ task.matrix.T
    acts = util.argmax(axis=1)
    if task.n_actions > 1:
        top2 = np.partition(util, -2, axis=1)[:, -2:]
        # written so that a NaN gap is recomputed too
        for t in np.flatnonzero(~(top2[:, 1] - top2[:, 0] > 1e-9)).tolist():
            acts[t] = best_response(task, yhat[t])
    return acts


def run_decision_protocol(dataset, task: DecisionTask, alice, bob, K: int) -> DecisionTranscript:
    """Run the action-exchange protocol: only best-response actions travel.

    Each side's forecaster is keyed by (round, previous action); round 1
    has no previous action. Forecasters are round-separable: a side's
    round-k state changes only through its round-k updates. The protocol
    therefore runs round-major: round k takes every day's forecast from
    `forecast_round(k, previous actions, x, y)` at once, which equals
    calling `predict` and `update` day by day. Out-of-range forecasts are
    clipped, with one warning per (day, round) in day-major order.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    T = len(dataset)
    preds = np.empty((T, K, task.d))
    acts = np.empty((T, K), dtype=int)
    clipped = np.zeros((T, K), dtype=bool)
    prev_actions: Optional[np.ndarray] = None
    for k in range(1, K + 1):
        side, x = (alice, dataset.x_a) if k % 2 == 1 else (bob, dataset.x_b)
        yhat = np.asarray(side.forecast_round(k, prev_actions, x, dataset.y), dtype=float)
        bad = (yhat.min(axis=1) < 0.0) | (yhat.max(axis=1) > 1.0)
        yhat = np.where(bad[:, None], np.clip(yhat, 0.0, 1.0), yhat)
        clipped[:, k - 1] = bad
        preds[:, k - 1] = yhat
        acts[:, k - 1] = prev_actions = best_responses(task, yhat)
    for t, k in np.argwhere(clipped).tolist():
        warnings.warn(f"forecast clipped to [0,1]^d at day {t + 1}, round {k + 1}")
    preds.setflags(write=False)
    acts.setflags(write=False)
    return DecisionTranscript(preds, acts, dataset.y, task)


@dataclass
class UtilityRoundProfile:
    utility_by_round: Dict[int, float]
    disagreements: Dict[int, int]
    slack_by_round: Dict[int, float]
    violations: Tuple[int, ...]


def utility_round_profile(transcript: DecisionTranscript, eps: float) -> UtilityRoundProfile:
    """Round-over-round utility gains versus the measured calibration slack.

    A day counts as an ε-disagreement at round k when the acting side's
    prediction rates the previous action more than ε below its own best
    response. The gain from round k−1 to k must be at least
    ε·(#disagreements) − 2L|A|²·f̂ with f̂ the side's worst measured
    conversation-calibration bias at round k.
    """
    task = transcript.task
    util = {}
    for k in range(1, transcript.K + 1):
        seq = transcript.round(k)
        util[k] = ordered_sum(_utilities(task, seq.actions, seq.outcomes))
    cal_a = decision_conv_cal_error(transcript, "alice")
    cal_b = decision_conv_cal_error(transcript, "bob")
    disagreements = {}
    slack = {}
    violations = []
    for k in range(2, transcript.K + 1):
        seq = transcript.round(k)
        own = _utilities(task, seq.actions, seq.predictions)
        prev = _utilities(task, transcript.actions[:, k - 2], seq.predictions)
        count = int(np.count_nonzero(own - prev > eps))
        disagreements[k] = count
        cal = cal_a if k % 2 == 1 else cal_b
        f_hat = max((v for (kk, _a, _ap), v in cal.items() if kk == k), default=0.0)
        slack[k] = 2.0 * task.lipschitz * task.n_actions**2 * f_hat
        if util[k] - util[k - 1] < eps * count - slack[k] - 1e-9:
            violations.append(k)
    return UtilityRoundProfile(
        utility_by_round=util,
        disagreements=disagreements,
        slack_by_round=slack,
        violations=tuple(violations),
    )
