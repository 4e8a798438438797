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

The ℓ∞ audits (calibration, cross calibration and conversation
calibration) key every row by one integer and sum its prediction bias
with one weighted `bincount` per outcome coordinate, adding each key's
rows in day order. For d ≥ 2 those are the bits of a per-level-set
`np.sum(axis=0)`; at d = 1 numpy sums a level set pairwise, so there the
low bits can differ from such a sum.
"""

from __future__ import annotations

import json
import warnings
from itertools import product
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConversationTranscript, _frozen, conditioned, level_set_runs, level_sets,
                   ordered_sum)

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
        if actions is not None and len(actions) != matrix.shape[0]:
            raise ValueError(f"task: field 'actions' must name the utility matrix's "
                             f"{matrix.shape[0]} rows, found {len(actions)} names")
        return cls.from_matrix(matrix.astype(float), actions)


def _utilities(task: DecisionTask, actions: np.ndarray, y: np.ndarray) -> np.ndarray:
    """task.matrix[actions[t]] @ y[t] for every row t, one dot product per row."""
    return np.vecdot(task.matrix[actions], y)


def best_response(task: DecisionTask, y) -> int:
    """Utility-maximizing action for outcome estimate y; ties take the lowest index."""
    return int(np.argmax(task.matrix @ np.asarray(y, dtype=float)))


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

    All constant policies are always included, named `const:<a>`; a named
    policy may not use that prefix, so none can replace a constant.
    """

    def __init__(self, n_actions: int, T: int, named: Optional[Dict[str, np.ndarray]] = None):
        self.n_actions = n_actions
        self.T = T
        self.policies: Dict[str, np.ndarray] = {}
        for a in range(n_actions):
            self.policies[f"const:{a}"] = np.full(T, a, dtype=int)
        for name, labels in (named or {}).items():
            if name.startswith("const:"):
                raise ValueError(f"policy {name!r} uses the reserved prefix 'const:'")
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
    [bias] = _linf_bias_by_key(seq, [seq.actions], task.n_actions)
    per_action = dict(enumerate(bias))
    return per_action, max(per_action.values())


def decision_cross_cal_error(seq: DecisionSequence, task: DecisionTask,
                             policies: PolicySet):
    """ℓ∞ bias conditioned on (own action, policy, policy's action).

    Returns (dict keyed by (a, policy name, a'), max).
    """
    A = task.n_actions
    cells = list(product(range(A), repeat=2))
    out: Dict[Tuple[int, str, int], float] = {}
    keys = (seq.actions * A + labels for _, labels in policies.items())
    for (name, _), bias in zip(policies.items(), _linf_bias_by_key(seq, keys, A * A)):
        out.update(((a, name, a2), b) for (a, a2), b in zip(cells, bias))
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
    """Per (round, own action, previous action) ℓ∞ bias for the given side.

    Covers the side's rounds k ≥ 2; every (k, a, a') over the action range
    is present, 0.0 when no day has it.
    """
    A = transcript.task.n_actions
    cells = list(product(range(A), repeat=2))
    out = {}
    for k in transcript.rounds_of(side):
        if k < 2:
            continue
        seq = transcript.round(k)
        [bias] = _linf_bias_by_key(seq, [seq.actions * A + transcript.actions[:, k - 2]], A * A)
        out.update(((k, a, a2), b) for (a, a2), b in zip(cells, bias))
    return out


def decision_conv_swap_regret(transcript: DecisionTranscript, task: DecisionTask,
                              policies: PolicySet, side: str) -> Dict[Tuple[int, int], float]:
    """Decision swap regret of each round restricted to previous-action subsequences.

    Covers the side's rounds k ≥ 2 through `core.conditioned`; every (k, a')
    over the action range is present, 0.0 when no day has it.
    """
    named = {name: labels for name, labels in policies.items() if not name.startswith("const:")}

    def audit(k, rows):
        seq = transcript.round(k)
        sub = DecisionSequence(seq.predictions[rows], seq.actions[rows], seq.outcomes[rows])
        sub_named = {name: labels[rows] for name, labels in named.items()}
        return decision_swap_regret(sub, task, PolicySet(task.n_actions, sub.T, sub_named))

    return conditioned(side, transcript.K, lambda j: transcript.actions[:, j - 1], audit,
                       range(task.n_actions))


def _linf_bias_by_key(seq: DecisionSequence, keys, n_keys: int) -> List[List[float]]:
    """For each array in `keys` (one integer key per row): the ℓ∞ norm of
    the summed prediction bias over the rows of each key in range(n_keys),
    0.0 for a key no row has.

    One weighted bincount per outcome coordinate adds each key's rows in
    ascending order, as `np.sum(block, axis=0)` adds a (rows, d ≥ 2) block,
    so the bits are those of the per-key sum; at d = 1 numpy sums the block
    pairwise, whose low bits may differ.
    """
    bias = (seq.predictions - seq.outcomes).T.copy()  # one contiguous row per coordinate
    out = []
    for key in keys:
        sums = np.stack([np.bincount(key, weights=col, minlength=n_keys) for col in bias])
        out.append(np.abs(sums).max(axis=0).tolist())
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
        < t, and `counts`/`sums` end as T calls to `update` leave them. One
        gather puts the round's outcomes in level-set order into a buffer,
        each key's stored sum in the row before its outcomes; one in-place
        `cumsum` per key then makes the same additions as `sums[key] += y`,
        leaving each day's running sum in the row before its outcome. Round
        1 (`prev_actions` None) is a single key.
        """
        y = np.asarray(y, dtype=float)
        T = y.shape[0]
        if prev_actions is None:
            order, starts, prevs = np.arange(T), np.zeros(1, dtype=np.intp), [None]
        else:
            order, starts = level_set_runs(prev_actions)
            prevs = prev_actions[order[starts]].tolist()
        keys = [(k, prev) for prev in prevs]
        first = [self.counts.get(key, 0) for key in keys]
        sizes = np.diff(starts, append=T)
        heads = starts + np.arange(len(keys))  # the buffer row of each key's stored sum
        at = np.arange(T) + np.repeat(np.arange(1, len(keys) + 1), sizes)  # and of each outcome
        source = np.zeros(T + len(keys), dtype=np.intp)
        source[at] = order
        buf = np.take(y, source, axis=0)
        for key, c, h, n in zip(keys, first, heads.tolist(), sizes.tolist()):
            block = buf[h:h + n + 1]
            block[0] = self.sums.get(key, 0.0)
            np.cumsum(block, axis=0, out=block)
            self.counts[key] = c + n
            self.sums[key] = block[-1].copy()
        # the number of outcomes in each buffer row's running sum
        seen = np.arange(T + len(keys)) - np.repeat(heads - first, sizes + 1)
        buf /= np.maximum(seen, 1)[:, None]
        before = np.empty(T, dtype=np.intp)
        before[order] = at - 1
        out = np.take(buf, before, axis=0)
        out[order[starts[np.equal(first, 0)]]] = 0.5
        return out


def best_responses(task: DecisionTask, yhat: np.ndarray) -> np.ndarray:
    """`best_response` of every row of yhat (T, d), as a (T,) int array.

    One matrix product ranks the actions. It may round differently from the
    per-row product, so any row where another action's utility lies within
    1e-9 of the best (or a gap is NaN) is recomputed by `best_response`.
    Utilities of forecasts in [0,1]^d lie in [0,1], where a d-term dot
    product rounds by far less than 1e-9, so no row outside that band can
    change its argmax, and in every other row the argmax is the one action
    within the band.
    """
    util = task.matrix @ yhat.T  # (n_actions, T)
    near = ~(util.max(axis=0) - util > 1e-9)  # written so that a NaN gap is near
    acts = np.arange(task.n_actions) @ near
    for t in np.flatnonzero(near.sum(axis=0) > 1).tolist():
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
        if not (yhat.min() >= 0.0 and yhat.max() <= 1.0):  # written so that NaN is checked per row
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
