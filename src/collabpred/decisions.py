"""Action-mediated collaboration: best responses and decision audits.

Parties predict a d-dimensional outcome but communicate only the
utility-maximizing action for their prediction. The audits (decision
calibration, decision cross calibration, decision swap regret and their
conversation-conditioned variants) are exact functions of the transcript
and hold regardless of which forecaster produced it; the bundled baseline
forecaster is a per-key running outcome mean.

A forecaster is one call, `forecast_round(k, prev_actions, x, y)`: every
day's round-k forecast, each made from the days before it, with the round's
outcomes folded in. Forecasters are round-separable: a forecaster's round-k
state depends only on its round-k outcomes (the baseline keys its state by
round and previous action). So the protocol driver runs round-major, asking
each side for a whole round at once, and ranks the actions of every day in
one matrix product (`best_responses`).

The ℓ∞ audits (calibration, cross calibration and conversation
calibration) key every row by one integer and sum its prediction bias
with one weighted `bincount` per outcome coordinate, adding each key's
rows in day order. For d ≥ 2 those are the bits of a per-level-set
`np.sum(axis=0)`; at d = 1 numpy sums a level set pairwise, so there the
low bits can differ from such a sum.
"""

from __future__ import annotations

import warnings
from itertools import product
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import _frozen, _shown, conditioned, level_sets, ordered_sum, own_rounds

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
        shifted = raw - raw.min(axis=0)
        scale = float(shifted.sum(axis=1).max())
        if scale <= 0.0:
            scale = 1.0
        rescaled = shifted / scale
        lip = float((rescaled.max(axis=1) - rescaled.min(axis=1)).max())
        rescaled.setflags(write=False)
        return cls(actions=actions, matrix=rescaled, lipschitz=lip)

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
                             f"{matrix.shape[1]}, found {_shown(d)}")
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
    return _swap_regret(task, seq.actions, seq.outcomes, [p for _, p in policies.items()])


def _swap_regret(task: DecisionTask, actions, outcomes, labels) -> float:
    """`decision_swap_regret` of these rows, each policy given by its labels of them."""
    realized = ordered_sum(_utilities(task, actions, outcomes))
    # per-day utility of following each policy, computed once
    all_utils = outcomes @ task.matrix.T  # (T, n_actions)
    utils = [all_utils[np.arange(actions.shape[0]), p] for p in labels]
    total = 0.0
    for _, rows in level_sets(actions):
        total += max(float(np.sum(u[rows])) for u in utils)
    return total - realized


def decision_conv_cal_error(transcript: DecisionTranscript, side: str):
    """Per (round, own action, previous action) ℓ∞ bias for the given side.

    Covers the side's rounds k ≥ 2; every (k, a, a') over the action range
    is present, 0.0 when no day has it.
    """
    A = transcript.task.n_actions
    cells = list(product(range(A), repeat=2))
    out = {}
    for k in own_rounds(side, transcript.K):
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
    def audit(k, rows):
        return _swap_regret(task, transcript.actions[rows, k - 1], transcript.outcomes[rows],
                            [p[rows] for _, p in policies.items()])

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

    `forecast_round` is the whole forecaster: it makes a round's forecasts
    for every day at once, each from the days before it, and folds the
    round's outcomes into `counts` and `sums`.
    """

    def __init__(self, d: int):
        self.d = d
        self.counts: Dict[Tuple[int, Optional[int]], int] = {}
        self.sums: Dict[Tuple[int, Optional[int]], np.ndarray] = {}

    def forecast_round(self, k: int, prev_actions: Optional[np.ndarray], x, y) -> np.ndarray:
        """Every day's round-k forecast (T, d), made online, with y folded in.

        Row t is the mean of key (k, prev_actions[t])'s outcomes before day
        t, stored ones included, or 0.5 for a key with none. On each level
        set of `prev_actions` (all of round 1, where it is None, is one key),
        one in-place `cumsum` over the key's stored sum and then its
        outcomes makes the additions of `sums[key] += y` day by day.
        """
        y = np.asarray(y, dtype=float)
        groups = ([((None,), np.arange(y.shape[0]))] if prev_actions is None
                  else level_sets(prev_actions))
        out = np.empty_like(y)
        for (prev,), rows in groups:
            key, c, n = (k, prev), self.counts.get((k, prev), 0), rows.shape[0]
            block = np.empty((n + 1, self.d))
            block[0] = self.sums.get(key, 0.0)
            block[1:] = y[rows]
            np.cumsum(block, axis=0, out=block)
            self.counts[key], self.sums[key] = c + n, block[-1].copy()
            block /= np.maximum(np.arange(c, c + n + 1), 1)[:, None]
            if c == 0:
                block[0] = 0.5
            out[rows] = block[:-1]
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
    `forecast_round(k, previous actions, x, y)` at once, which gives the
    forecasts of a day-by-day run. Out-of-range forecasts are clipped, with
    one warning per (day, round) in day-major order.
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
