"""Online learner stack.

Forward ridge regression (Vovk; Azoury and Warmuth) is the base learner
for bounded linear classes. A bucketed swap-regret wrapper keeps one
forward-ridge expert per own-prediction bucket and plays the proposal
closest to its own bucket. A learner of the online protocol is a
`ConversationWrapper`: a routing rule from (own round, counterparty's
previous message) to a slot, each slot one such wrapper of m experts. The
`conversation` kind keys a slot by round and message bucket, as the paper's
one wrapper per (round, counterparty-message bucket); the `swap` kind sends
every round to one slot, updated once a day. The `vaw` kind is the `swap`
routing with one expert whose forecast is clipped to [0,1] instead of
rounded to the grid: plain forward ridge, whose forecast u·s / (1 + xᵀu),
with u = G⁻¹x, is xᵀ(G + xxᵀ)⁻¹s by Sherman–Morrison.

The experts live in the rows of an append-only pool (`_Lanes`), which holds
the only copy of the proposal → grid-round (or clip) → select arithmetic
and of the rank-one update. A learner is one lane of a pool: it adds one
fresh row (G = aI, s = 0) when it joins, and its table maps each expert of
each slot to a row, the fresh row until the expert's first update gives it
its own. So a selection costs one row per expert that has learned, plus
one per lane. When both sides have the same m, d and forecast mode, Bob's
learner is a second lane of Alice's pool: one set of arrays, and passes
that serve both lanes at once.

A learner sees its features once a day, as in the paper's protocol:
`begin_day(x)` checks and stages the day's feature vector, `predict(k,
prev_message)` and `update(k, y)` work at it, and a selection serves only
the day it was made on. Expert state does not change between a prediction
and the next update, so one day of both sides costs two array passes:

- a selection pass, on the first prediction after the day's feature
  vectors are staged: over every row of the pool, each at its lane's x,
  one einsum each for G⁻¹x, xᵀG⁻¹x and the numerators, then the rounding
  (or clip); then, through the lanes' tables, each proposal's distance to
  its own bucket and one argmin per slot. The day's other rounds read each
  lane's memo;
- an update pass, before the next selection, read of the arrays or
  `begin_day`: every queued (row, y) in one batch, at the x of the row's
  lane (whose staged row is the only copy of the day's x) and the G⁻¹x and
  1 + xᵀG⁻¹x of the selection that chose the expert, and every 256 steps
  of an expert a batched Gauss–Jordan re-inversion.

No pass calls BLAS or LAPACK: the products are einsum rows, each summed
alone in the order of its own terms, and the rest is elementwise, so a
row's bits depend neither on how many rows or lanes share a call nor on
the BLAS kernel. The passes cost numpy call overhead, not arithmetic, so
they run their ufuncs in place and call numpy's kernels (`c_einsum`, the
clip ufunc) without np.einsum's and np.clip's Python wrappers.

Learner state is single-owner mutable: one instance, or two that share a
pool, drives one run at a time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy._core.multiarray import c_einsum  # what np.einsum calls when not optimizing

from .core import BucketingSpec, _bucket, _clip, round_to_grid

__all__ = ["ConversationWrapper", "BANK_KINDS"]

_REFRESH_EVERY = 256  # periodic exact re-inversion to curb rank-one drift


def _inverse(g: np.ndarray) -> np.ndarray:
    """Inverses of positive definite matrices g, (n, d, d), by Gauss–Jordan elimination.

    In-place elimination without pivoting, which a positive definite matrix
    does not need, in elementwise ufuncs only, so each entry's bits depend
    on its own matrix alone, not on n or on the BLAS kernel. Step k keeps
    column k as f and the pivot, writes zeros over the column and 1 over
    the pivot, divides row k by the pivot, and subtracts f_i times row k
    from every row i, row k included with f_k = 0.
    """
    a = g.copy()
    for k in range(a.shape[-1]):
        f = a[:, :, k].copy()
        pivot = f[:, k, None].copy()
        f[:, k] = 0.0
        a[:, :, k] = 0.0
        a[:, k, k] = 1.0
        a[:, k] /= pivot
        a -= f[:, :, None] * a[:, None, k]
    return a


class _Lanes:
    """The expert pool of one or more lanes and the two passes over it.

    Row r of each array is one expert state: `_gm[r]` is the Gram matrix
    with the moment as an extra last row, so that one scatter-add of the
    outer product of [x, y] and x updates both, `_inv[r]` its inverse,
    `_steps[r]` its update count and `_lane_of[r]` its lane; `_u[r]` and
    `_den[r]` are its G⁻¹x and 1 + xᵀG⁻¹x from the last selection pass,
    which the update pass reads back for the (row, y) entries of `queue`,
    kept in call order. The first `size` rows are in use, rows never move,
    and the arrays double when they are full. `_staged` holds each lane's
    x, the only copy of it, zeros before its first day. All lanes have one
    forecast mode, `grid`.
    """

    def __init__(self, m: int, d: int, grid: bool):
        self.m, self.d, self.grid = m, d, grid
        self.lo, self.hi = np.arange(m) / m, (np.arange(m) + 1) / m
        self.lanes: List["ConversationWrapper"] = []
        self.queue: List[Tuple[int, float]] = []
        self.size = 0
        self._staged = np.empty((0, d))
        self._gm, self._inv, self._steps, self._u, self._den, self._lane_of = (
            np.empty((1, d + 1, d)), np.empty((1, d, d)), np.empty(1, dtype=int),
            np.empty((1, d)), np.empty(1), np.empty(1, dtype=int))
        self._tables = None   # every lane's table stacked and each slot's first flat index

    def _append(self, lane: int) -> int:
        """Index of a new row of `lane`, its state unset."""
        if self.size == len(self._lane_of):
            self._gm, self._inv, self._steps, self._u, self._den, self._lane_of = (
                np.concatenate((arr, arr)) for arr in
                (self._gm, self._inv, self._steps, self._u, self._den, self._lane_of))
        self._lane_of[self.size] = lane
        self.size += 1
        return self.size - 1

    def add_lane(self, lane: "ConversationWrapper") -> Tuple[int, int]:
        """The index of the new lane and its fresh row: G = aI, G⁻¹ = I/a, s = 0."""
        self.lanes.append(lane)
        self._staged = np.concatenate((self._staged, np.zeros((1, self.d))))
        row = self._append(len(self.lanes) - 1)
        self._gm[row, :self.d] = lane.a * np.eye(self.d)
        self._gm[row, self.d] = 0.0
        self._inv[row] = np.eye(self.d) / lane.a
        self._steps[row] = 0
        return len(self.lanes) - 1, row

    def own_row(self, fresh: int) -> int:
        """A new row that copies row `fresh`, its last G⁻¹x and 1 + xᵀG⁻¹x included."""
        row = self._append(self._lane_of[fresh])
        for arr in (self._gm, self._inv, self._steps, self._u, self._den):
            arr[row] = arr[fresh]
        self._tables = None
        return row

    def read(self, table: np.ndarray, attr: str) -> np.ndarray:
        """The rows of `table` of one state array, (*table.shape, ...), after the queued updates."""
        self.apply_updates()
        arr = {"gram": self._gm[:, :self.d], "inv": self._inv, "moment": self._gm[:, self.d],
               "steps": self._steps}[attr]
        return arr.take(table, axis=0)

    def forecasts(self) -> np.ndarray:
        """Forward-ridge predictions of every row at its lane's x, (size,), unrounded.

        One einsum gives G⁻¹x for every row, one xᵀG⁻¹x and one the
        numerators, then one division by 1 + xᵀG⁻¹x. An einsum row is summed
        alone, in the order of its own d terms, so no bit depends on the row
        count, the lane count or the BLAS kernel.
        """
        self.apply_updates()
        n = self.size
        x = self._staged.take(self._lane_of[:n], axis=0)
        u, den = self._u[:n], self._den[:n]
        c_einsum("kij,kj->ki", self._inv[:n], x, out=u)
        c_einsum("ki,ki->k", u, x, out=den)
        den += 1.0
        raw = c_einsum("kd,kd->k", u, self._gm[:n, self.d])
        raw /= den
        return raw

    def propose(self, raw: np.ndarray) -> np.ndarray:
        """Forecasts as their experts propose them: rounded to the grid of m,
        or in the clip mode clipped to [0,1], in place."""
        return round_to_grid(raw, self.m) if self.grid else _clip(raw, 0.0, 1.0, out=raw)

    def select(self) -> None:
        """Memo every lane with a staged x: per slot, the selected expert and its proposal."""
        props = self.propose(self.forecasts())
        if self._tables is None:   # dropped by a new slot or row
            tables = np.concatenate([lane._table for lane in self.lanes])
            self._tables = tables, np.arange(0, tables.size, self.m)
        tables, starts = self._tables
        props = props.take(tables)   # (slots of every lane, m)
        dist = self.lo - props   # distance to own bucket
        np.maximum(dist, props - self.hi, out=dist)
        np.maximum(0.0, dist, out=dist)
        idx = dist.argmin(axis=1)   # least float, not exact, distance; then lowest index
        experts, played = idx.tolist(), props.take(starts + idx).tolist()
        end = 0
        for lane in self.lanes:
            start, end = end, end + len(lane._table)
            if lane.staged:
                lane._memo = (experts[start:end], played[start:end])

    def apply_updates(self) -> None:
        """Apply the queued rank-one updates of every lane in one array pass.

        It makes no product: each row's x is its lane's staged x, and its
        G⁻¹x and 1 + xᵀG⁻¹x are those of the selection pass that chose its
        expert, since neither changes between a selection and its update.
        The queued rows are distinct, so their order does not matter.
        """
        if not self.queue:
            return
        rows, ys = zip(*self.queue)
        self.queue = []
        idx = np.array(rows)
        xy = np.empty((idx.size, self.d + 1))
        xy[:, :self.d] = self._staged.take(self._lane_of.take(idx), axis=0)
        xy[:, self.d] = ys
        inv, steps = self._inv, self._steps
        np.add.at(self._gm, idx, xy[:, :, None] * xy[:, None, :self.d])   # x·xᵀ and y·x
        u = self._u.take(idx, axis=0)
        uu = u[:, :, None] * u[:, None, :]
        uu /= self._den.take(idx)[:, None, None]
        g_inv = inv.take(idx, axis=0)
        g_inv -= uu
        inv[idx] = g_inv
        n = steps.take(idx)
        n += 1
        steps[idx] = n
        refresh = idx[n % _REFRESH_EVERY == 0]
        if refresh.size:
            inv[refresh] = _inverse(self._gm[refresh, :self.d])


class ConversationWrapper:
    """One side's learner: forward-ridge swap wrappers, one per slot, and a rule routing each
    own round to a slot.

    With a message bucket width g (the `conversation` kind), own round k
    goes to slot (k, i), which only ever sees the days on which the
    counterparty's round-(k−1) message fell in bucket i; the first round of
    the protocol (Alice's round 1) has the single slot (1, 0). With g = None
    (the `swap` kind), every round goes to slot (1, 0) and only the side's
    first own round of a day (k ≤ 2) updates it: one conversation-blind swap
    wrapper that sees each day once. `instances` maps each routing key to its
    slot, created on first use. A slot's m experts each propose their
    grid-rounded forward-ridge prediction, the slot plays the proposal p of
    least float distance max(i/m − p, p − (i+1)/m, 0) to bucket
    [i/m, (i+1)/m] of its expert i, the lowest index among equal floats, and
    that round's update goes to that expert only. Two proposals at one exact
    grid distance can differ in that float's last bit, and the lower float
    plays. `grid=False` (the clip mode, the `vaw` kind) needs m = 1: a slot
    is then one plain forward-ridge learner whose prediction is clipped to
    [0,1] instead of rounded. Inverses follow Sherman–Morrison rank-one updates and are
    recomputed by Gauss–Jordan elimination every _REFRESH_EVERY steps of an
    expert. Identical seeds and inputs reproduce bit-identical transcripts.

    The learner is one lane of a `_Lanes` pool; `_table[slot, i]` is the
    pool row of expert i of the slot, the lane's fresh row `_prior_row` (the
    ridge prior G = aI, s = 0) until the expert's first update copies it into
    a row of its own. Given a `peer` learner of the same m,
    d and mode, the lane joins the peer's pool, so that after both sides'
    `begin_day` one selection pass and one update pass a day serve both;
    each lane keeps its own slots, regularizer `a` and memo.

    `begin_day(x)` checks x, runs the update pass, stages x and drops the
    lane's memo and the day's predictions. `predict(k, prev_message)` routes
    own round k to its slot, plays the slot's selection from the lane's memo
    (a miss runs `_Lanes.select`, which memos every lane with a staged x)
    and records (slot, expert) for round k. `update(k, y)` appends that
    expert's row and y to `_Lanes.queue` and drops the record and the
    lane's memo; an expert still on the fresh row first gets its own. The
    update pass applies the queue before the next selection pass, any read
    of the arrays and any `begin_day`, so a queued row reads the x it was
    selected at. A selection after an update always misses the memo, so the
    queued rows are distinct and no queued expert's state changes between
    its selection and its update.

    A failing `predict` (before any `begin_day`, or without a finite message
    where the round needs one) raises before a slot is created. An `update`
    without that day's prediction raises RuntimeError and changes nothing;
    so does one of round 1 or 2 of a `swap` learner after the other round
    updated the same selection. One with a bad label (outside [0,1], NaN
    included) raises ValueError on every round, the rounds that update no
    expert included, and can be retried.
    """

    def __init__(self, d: int, a: float = 1.0, m: int = 10, g: Optional[float] = 0.1,
                 peer=None, grid: bool = True):
        if g is not None:
            self._n_buckets = BucketingSpec(g=g, m=m).n_buckets   # validates 1/g once
        if m < 1:
            raise ValueError("bucket count m must be ≥ 1")
        if d < 1:
            raise ValueError("dimension must be positive")
        if not a > 0:   # NaN too
            raise ValueError("regularizer must be positive")
        if not grid and m != 1:
            raise ValueError(f"the clip mode (grid=False) has one expert per slot, got m={m}")
        self.d, self.a, self.m, self.g = d, a, m, g
        lanes = getattr(peer, "_lanes", None)   # an attribute: a traced peer is a proxy
        if not (isinstance(lanes, _Lanes) and (lanes.m, lanes.d, lanes.grid) == (m, d, grid)):
            lanes = _Lanes(m, d, grid)
        self._lanes = lanes
        self.instances: Dict[Tuple[int, int], int] = {}
        self.staged = False    # whether begin_day has staged an x
        self._table = np.empty((0, m), dtype=int)
        self._memo: Optional[Tuple[List[int], List[float]]] = None
        self._routed: Dict[int, Tuple[int, int]] = {}   # own round -> (slot, expert) that day
        self._lane, self._prior_row = lanes.add_lane(self)

    def _slot(self, k: int, prev_message: Optional[float]) -> int:
        """The slot of own round k, created on first use."""
        if k == 1 or self.g is None:
            key = (1, 0)
        elif prev_message is None or not math.isfinite(prev_message):
            raise ValueError(f"round {k} requires a finite counterparty message, "
                             f"got {prev_message}")
        else:
            key = (k, _bucket(prev_message, self._n_buckets))
        slot = self.instances.get(key)
        if slot is None:
            slot = self.instances[key] = len(self._table)
            self._table = np.concatenate((self._table, np.full((1, self.m), self._prior_row)))
            self._lanes._tables = self._memo = None
        return slot

    def begin_day(self, x) -> None:
        """Stage the day's feature vector, of shape (d,); the day's earlier predictions no
        longer update."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"feature dimension {x.shape} != ({self.d},)")
        self._lanes.apply_updates()   # queued rows read the x this call replaces
        self._lanes._staged[self._lane] = x
        self.staged, self._memo, self._routed = True, None, {}

    def predict(self, k: int, prev_message: Optional[float]) -> float:
        if not self.staged:
            raise RuntimeError("no feature vector staged: call begin_day first")
        slot = self._slot(k, prev_message)
        if self._memo is None:
            self._lanes.select()
        experts, played = self._memo
        self._routed[k] = (slot, experts[slot])
        return played[slot]

    def update(self, k: int, y: float) -> "ConversationWrapper":
        """Outcome y of own round k for the expert its `predict` chose that day."""
        routed = self._routed.get(k)
        if routed is None:
            raise RuntimeError(f"update of round {k} without a preceding predict")
        y = float(y)
        if not 0.0 <= y <= 1.0:     # written so that NaN fails it
            raise ValueError(f"label {y} outside [0,1]")
        if self.g is not None or k <= 2:
            slot, i = routed
            row = int(self._table[slot, i])
            if row == self._prior_row:
                row = self._table[slot, i] = self._lanes.own_row(row)
            self._lanes.queue.append((row, y))
            self._memo = None
            if self.g is None:   # rounds 1 and 2 share the slot's selection, which takes one update
                self._routed.pop(3 - k, None)
        del self._routed[k]
        return self

    def proposals(self) -> np.ndarray:
        """Every expert's proposal at the staged x, rounded or clipped, (slots, m)."""
        if not self.staged:
            raise RuntimeError("no feature vector staged: call begin_day first")
        return self._lanes.propose(self._lanes.forecasts().take(self._table))

    def experts(self, attr: str) -> np.ndarray:
        """A copy of every expert's `gram` (a·I + Σ x xᵀ) or `inv` (its inverse), (slots, m, d,
        d), `moment` (Σ y·x), (slots, m, d), or `steps` (updates received), (slots, m)."""
        return self._lanes.read(self._table, attr)


# bank learner kind -> the `ConversationWrapper` arguments it fixes
BANK_KINDS = {
    "conversation": {},
    "swap": {"g": None},
    "vaw": {"m": 1, "g": None, "grid": False},
}
