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
one utility table (`best_responses`).

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
from array import array
from itertools import product
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (_owned, _shown, conditioned, level_sets, ordered_sum, own_rounds,
                   read_section)

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
                raise ValueError(f"task: field 'actions' must name the utility matrix's "
                                 f"{n_actions} rows, found {len(actions)} names")
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
        """The task of a config's {"utility": rows, "actions": names, "d": columns},
        read through the `task` row; "actions" and "d" are optional."""
        c = read_section(data, "task")
        columns = len(c["utility"][0])
        if c["d"] not in (None, columns):
            raise ValueError(f"task: field 'd' must be the utility matrix's column count "
                             f"{columns}, found {c['d']}")
        return cls.from_matrix(c["utility"], c["actions"])


def _utility_table(task: DecisionTask, y: np.ndarray) -> np.ndarray:
    """The (|A|, T) table of u(a, y[t]) for the rows of y (T, d): each entry
    adds its products in coordinate order, one elementwise pass each, so its
    bits depend on its own row alone, never on T or a BLAS kernel."""
    table = np.multiply.outer(task.matrix[:, 0], y[:, 0])
    for j in range(1, task.d):
        table += np.multiply.outer(task.matrix[:, j], y[:, j])
    return table


def best_response(task: DecisionTask, y) -> int:
    """Utility-maximizing action for outcome estimate y; ties take the lowest index."""
    return int(best_responses(task, np.asarray(y, dtype=float).reshape(1, task.d))[0])


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
    arrays are read-only copies made by `core._owned`.
    """

    def __init__(self, predictions, actions, outcomes, task: DecisionTask):
        self.predictions = _owned(predictions)   # (T, K, d)
        self.actions = _owned(actions, int)      # (T, K)
        self.outcomes = _owned(outcomes)         # (T, d)
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

    All constant policies are always included, named `const:<a>`. A named
    policy gives one action in [0, n_actions) per row of T and may not use
    that prefix, so none can replace a constant: a ValueError naming the
    policy says otherwise. Every policy is a read-only copy made by `core._owned`.
    """

    def __init__(self, n_actions: int, T: int, named: Optional[Dict[str, np.ndarray]] = None):
        self.policies = {f"const:{a}": _owned(np.full(T, a), int) for a in range(n_actions)}
        for name, labels in (named or {}).items():
            must = f"policy {name!r} must"
            if name.startswith("const:"):
                raise ValueError(f"{must} be named without the reserved prefix 'const:'")
            given = np.asarray(labels)
            with np.errstate(invalid="ignore"):   # NaN or a float past int64 casts to junk
                actions = _owned(given, int)
            if actions.shape != (T,):
                raise ValueError(f"{must} give one action on each of {T} rows, "
                                 f"found shape {actions.shape}")
            bad = np.flatnonzero(actions != given)   # a label its integer copy does not equal
            if bad.size:
                raise ValueError(f"{must} give whole-number actions, "
                                 f"found {given[bad[0]]} at row {bad[0]}")
            bad = np.flatnonzero((actions < 0) | (actions >= n_actions))
            if bad.size:
                raise ValueError(f"{must} give actions in [0,{n_actions}), "
                                 f"found {actions[bad[0]]} at row {bad[0]}")
            self.policies[name] = actions

    @classmethod
    def read(cls, path: str, n_actions: int, T: int) -> "PolicySet":
        """The policies of a `{"policies": {name: [action, …]}}` file, each
        action a JSON integer; a ValueError `a policies file: field '<name>'
        must …, found <v>` names the first policy that breaks the rules above."""
        with open(path, "rb") as fh:
            raw = fh.read()
        named = read_section(json.loads(raw), "policies file", "a policies file")["policies"]
        # array("q") takes exactly the JSON integers that fit, and true/false as
        # ints, so those are looked for only in a file that spells one
        has_bools = b"true" in raw or b"false" in raw
        for name, labels in named.items():
            must = f"a policies file: field '{name}' must"
            if name.startswith("const:"):
                raise ValueError(f"{must} be named without the reserved prefix 'const:', "
                                 f"found {_shown(name)}")
            try:   # TypeError, OverflowError: a label that is no integer of int64
                if type(labels) is list and not (has_bools and bool in map(type, labels)):
                    named[name] = actions = np.asarray(array("q", labels))
                    if actions.shape == (T,) and 0 <= actions.min() and actions.max() < n_actions:
                        continue
            except (TypeError, OverflowError):
                pass
            found = _shown(labels)
            if type(labels) is list:   # the first label that is no action index, or the length
                i = next((i for i, v in enumerate(labels)
                          if type(v) is not int or not 0 <= v < n_actions), None)
                found = (f"a list of {len(labels)}" if i is None
                         else f"{_shown(labels[i])} at row {i}")
            raise ValueError(f"{must} be a list of {T} action indices in [0,{n_actions}), "
                             f"found {found}")
        return cls(n_actions, T, named)

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
    table, days = _utility_table(task, outcomes), np.arange(actions.shape[0])
    realized = ordered_sum(table[actions, days])
    utils = [table[p, days] for p in labels]   # per-day utility of following each policy
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
    """`best_response` of every row of yhat (T, d), as a (T,) int array:
    the argmax of each column of the utility table, ties (and a NaN
    utility) to the lowest index."""
    return _utility_table(task, yhat).argmax(axis=0)


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
    realized, days = _utility_table(task, transcript.outcomes), np.arange(transcript.T)
    util = {k: ordered_sum(realized[transcript.actions[:, k - 1], days])
            for k in range(1, transcript.K + 1)}
    cal_a = decision_conv_cal_error(transcript, "alice")
    cal_b = decision_conv_cal_error(transcript, "bob")
    disagreements = {}
    slack = {}
    violations = []
    for k in range(2, transcript.K + 1):
        forecast = _utility_table(task, transcript.predictions[:, k - 1])
        own = forecast[transcript.actions[:, k - 1], days]
        prev = forecast[transcript.actions[:, k - 2], days]
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
