"""Online learner stack.

Forward ridge regression (Vovk; Azoury and Warmuth) is the base learner
for bounded linear classes. A bucketed swap-regret wrapper keeps one
forward-ridge expert per own-prediction bucket and plays the proposal
closest to its own bucket. Each wrapper is one slot of a `RidgeBank`:
preallocated arrays of Gram matrices, their inverses, moments and step
counts for all experts of all slots, holding the only copy of the proposal
→ grid-round (or clip) → select arithmetic and of the rank-one update.

A learner of the online protocol is a `ConversationWrapper`: one bank and a
routing rule from (own round, counterparty's previous message) to a slot.
The `conversation` kind keys a slot by round and message bucket, as the
paper's one wrapper per (round, counterparty-message bucket); the `swap`
kind sends every round to one slot, updated once a day. The `vaw` kind is
the `swap` routing with one expert whose forecast is clipped to [0,1]
instead of rounded to the grid: plain forward ridge, whose forecast
u·s / (1 + xᵀu), with u = G⁻¹x, is xᵀ(G + xxᵀ)⁻¹s by Sherman–Morrison. When
both sides' banks have the same m, d and forecast mode, Bob's bank is a
second lane of Alice's: one set of arrays, and passes that serve both lanes
at once.

A learner sees its features once a day, as in the paper's protocol:
`begin_day(x)` checks and stages the day's feature vector, `predict(k,
prev_message)` and `update(k, y)` work at it, and a selection serves only
the day it was made on. Bank state does not change between a prediction
and the next update, so one day of both sides costs two array passes:

- a selection pass, on the first prediction after the day's feature
  vectors are staged: over every used row of every lane at once, one
  einsum each for G⁻¹x, xᵀG⁻¹x and the numerators, then the rounding (or
  clip), each proposal's distance to its own bucket and one argmin per
  slot. The day's other rounds read each lane's memo;
- an update pass, before the next selection, read of the arrays or
  `begin_day`: every queued (lane, expert row, y) in one batch, at the x
  of the lane's staged row (the only copy of the day's x) and the G⁻¹x and
  1 + xᵀG⁻¹x of the selection that chose each expert, and every 256 steps
  of an expert a batched Gauss–Jordan re-inversion.

No pass calls BLAS or LAPACK: the products are einsum rows, each summed
alone in the order of its own terms, and the rest is elementwise, so a
row's bits depend neither on how many rows or lanes share a call nor on
the BLAS kernel. The passes cost numpy call overhead, not arithmetic, so
they run their ufuncs in place and call numpy's kernels (`c_einsum`, the
clip ufunc) without np.einsum's and np.clip's Python wrappers.

Learner state is single-owner mutable: one instance, or two that share a
bank, drives one run at a time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy._core.multiarray import c_einsum  # what np.einsum calls when not optimizing

from .core import BucketingSpec, _bucket, _clip, round_to_grid

__all__ = ["RidgeBank", "ConversationWrapper", "BANK_KINDS"]

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
    """The arrays of the lanes of one bank and the two passes over them.

    Lane l's expert row r is row l·span + r of every array, where span =
    capacity·m: each lane's rows are contiguous and lane-major, so a lane
    reads its slots as a view, and the capacity, shared by all lanes,
    doubles when one lane's slots fill it (which moves the offsets of the
    later lanes). A row of `_gm` is the Gram matrix with the moment as an
    extra last row, so that one scatter-add of the outer product of
    [x, y] and x updates both; `_gram` and `_moment` are views of it.
    `_staged` holds each lane's x, the only copy of it, zeros before its
    first day, and `_u` and `_den` each row's G⁻¹x and 1 + xᵀG⁻¹x from the
    last selection pass; the update pass reads both back for the (lane,
    expert row, y) entries of `queue`, kept in call order. All lanes have
    one forecast mode, `grid`.
    """

    def __init__(self, m: int, d: int, grid: bool):
        self.m, self.d, self.grid = m, d, grid
        self.lo, self.hi = np.arange(m) / m, (np.arange(m) + 1) / m
        self.lanes: List["RidgeBank"] = []
        self.capacity = 1
        self.queue: List[Tuple[int, int, float]] = []
        self._staged = np.empty((0, d))
        self._gm, self._inv, self._steps, self._u, self._den = (
            np.empty((0, d + 1, d)), np.empty((0, d, d)), np.empty(0, dtype=int),
            np.empty((0, d)), np.empty(0))
        self._rows = None

    def _fresh(self, a: float, n: int):
        """Arrays of n slots of a lane with regularizer a whose experts have seen no data."""
        rows, d = n * self.m, self.d
        gm = np.zeros((rows, d + 1, d))
        gm[:, :d] = a * np.eye(d)
        return (gm, np.broadcast_to(np.eye(d) / a, (rows, d, d)).copy(), np.zeros(rows, dtype=int),
                np.zeros((rows, d)), np.ones(rows))

    def _resize(self, capacity: int, joining: Optional["RidgeBank"] = None) -> None:
        """Grow every lane to `capacity` slots, adding lane `joining` if given."""
        lanes = self.lanes + ([joining] if joining is not None else [])
        span = self.capacity * self.m
        arrays = (self._gm, self._inv, self._steps, self._u, self._den)
        blocks = [[] for _ in arrays]
        for l, lane in enumerate(lanes):
            have = 0 if lane is joining else self.capacity
            for block, arr, new in zip(blocks, arrays, self._fresh(lane.a, capacity - have)):
                block += [arr[l * span:(l + 1) * span], new] if have else [new]
        self._gm, self._inv, self._steps, self._u, self._den = (np.concatenate(b) for b in blocks)
        self._gram, self._moment = self._gm[:, :self.d], self._gm[:, self.d]
        if joining is not None:
            self._staged = np.concatenate((self._staged, np.zeros((1, self.d))))
        self.lanes, self.capacity = lanes, capacity
        self._rows = None

    def add_lane(self, lane: "RidgeBank") -> int:
        self._resize(self.capacity, lane)
        return len(self.lanes) - 1

    def add_slot(self, lane: "RidgeBank") -> None:
        if lane.slots == self.capacity:
            self._resize(2 * self.capacity)
        self._rows = None

    def view(self, lane: int, attr: str) -> np.ndarray:
        """Lane's rows of a bank array as (capacity, m, ...), after the queued updates."""
        self.apply_updates()
        span = self.capacity * self.m
        arr = getattr(self, attr)[lane * span:(lane + 1) * span]
        return arr.reshape(-1, self.m, *arr.shape[1:])

    def _used_rows(self):
        """Views (lanes, rows, ...) of `_inv`, `_u`, `_den` and `_moment` over the
        first rows of each lane, as many as the lane with the most slots uses, and
        the flat index of each slot's first row in a (lanes, rows) array. Rebuilt
        when slots are added."""
        span = self.capacity * self.m
        used = max(lane.slots for lane in self.lanes) * self.m
        lanes = [arr.reshape(len(self.lanes), span, *arr.shape[1:])[:, :used]
                 for arr in (self._inv, self._u, self._den, self._moment)]
        starts = np.arange(0, len(self.lanes) * used, self.m).reshape(len(self.lanes), -1)
        self._rows = (*lanes, starts)

    def forecasts(self) -> np.ndarray:
        """Forward-ridge predictions of the used rows at each lane's x, (lanes, rows), unrounded.

        One einsum gives G⁻¹x for every row of every lane, one xᵀG⁻¹x and
        one the numerators, then one division by 1 + xᵀG⁻¹x. An einsum row
        is summed alone, in the order of its own d terms, so no bit depends
        on the row count, the lane count or the BLAS kernel.
        """
        self.apply_updates()
        if self._rows is None:
            self._used_rows()
        inv, u, den, moment, _ = self._rows
        c_einsum("lkij,lj->lki", inv, self._staged, out=u)
        c_einsum("lki,li->lk", u, self._staged, out=den)
        den += 1.0
        raw = c_einsum("lkd,lkd->lk", u, moment)
        raw /= den
        return raw

    def propose(self, raw: np.ndarray) -> np.ndarray:
        """Forecasts as their experts propose them: rounded to the grid of m,
        or in the clip mode clipped to [0,1], in place."""
        return round_to_grid(raw, self.m) if self.grid else _clip(raw, 0.0, 1.0, out=raw)

    def select(self) -> None:
        """Memo every lane with a staged x: per slot, the selected expert and its proposal."""
        props = self.propose(self.forecasts())
        dist = self.lo - props.reshape(len(self.lanes), -1, self.m)   # distance to own bucket
        np.maximum(dist, props.reshape(dist.shape) - self.hi, out=dist)
        np.maximum(0.0, dist, out=dist)
        idx = dist.argmin(axis=2)   # ties to the lowest index
        experts, played = idx.tolist(), props.take(self._rows[-1] + idx).tolist()
        for lane, lane_experts, lane_played in zip(self.lanes, experts, played):
            if lane.staged:
                lane._memo = (lane_experts, lane_played)

    def apply_updates(self) -> None:
        """Apply every lane's queued rank-one updates in one array pass.

        It makes no product: each row's x is its lane's staged x, and its
        G⁻¹x and 1 + xᵀG⁻¹x are those of the selection pass that chose its
        expert, since neither changes between a selection and its update.
        The queued rows are distinct experts, so their order does not matter.
        """
        if not self.queue:
            return
        lanes, rows, ys = zip(*self.queue)
        self.queue = []
        lanes = np.array(lanes)
        idx = lanes * (self.capacity * self.m) + rows   # offsets as of now, after any resize
        xy = np.empty((idx.size, self.d + 1))
        xy[:, :self.d] = self._staged.take(lanes, axis=0)
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
            inv[refresh] = _inverse(self._gram[refresh])


def _applied(attr: str, doc: str) -> property:
    """Read access to the lane's rows of a bank array, after the queued updates are applied."""
    return property(lambda bank: bank._lanes.view(bank._lane, attr), doc=doc)


class RidgeBank:
    """Forward-ridge experts of dimension d, m per slot, in preallocated arrays.

    `gram` and `inv` read as (capacity, m, d, d), `moment` as (capacity, m, d)
    and `steps` as (capacity, m), stored by expert row slot·m + i. The first
    `slots` slots are in use and the capacity doubles when they are full. A
    slot is one swap wrapper: expert i proposes its grid-rounded
    forward-ridge prediction, the slot plays the proposal closest to bucket
    [i/m, (i+1)/m] (ties to the lowest index), and the next update of the
    slot goes to that expert only. `grid=False` (the clip mode) needs m = 1:
    a slot is then one plain forward-ridge learner whose prediction is
    clipped to [0,1] instead of rounded. Inverses follow Sherman–Morrison
    rank-one updates and are recomputed by Gauss–Jordan elimination every
    _REFRESH_EVERY steps of an expert.

    A bank built with `share=` another bank of the same m, d and mode (see
    `can_share`) is a second lane of that bank's arrays: each lane keeps its
    own slots, regularizer `a`, array views and memo, and the two
    passes serve all lanes at once. A bank built alone is a one-lane bank.

    `begin_day(x)` checks x, runs the update pass, stages x for `select`
    and `proposals` and drops the lane's memo and its selections awaiting
    an update, so that a selection serves only its own day. A selection
    that misses the memo runs `_Lanes.select`, which memos every lane with
    a staged x; an update, a new slot or a new staged x drops the lane's
    memo. `update` only appends the lane, the row of the slot's selected
    expert and y to `_Lanes.queue`, which the update pass applies before
    the next selection pass, any read of the arrays and any `begin_day`,
    so a queued row reads the x it was selected at. A slot's update needs a
    selection first, and a selection after an update always misses, so the
    queue holds at most one update per slot: the queued updates touch
    distinct experts and commute, and no queued expert's state changes
    between its selection and its update.
    """

    gram = _applied("_gram", "Gram matrices a·I + Σ x xᵀ, (capacity, m, d, d).")
    inv = _applied("_inv", "Inverses of the Gram matrices, (capacity, m, d, d).")
    moment = _applied("_moment", "Moments Σ y·x, (capacity, m, d).")
    steps = _applied("_steps", "Updates received per expert, (capacity, m).")

    def __init__(self, m: int, d: int, a: float = 1.0, share: Optional["RidgeBank"] = None,
                 grid: bool = True):
        if m < 1:
            raise ValueError("bucket count m must be ≥ 1")
        if d < 1:
            raise ValueError("dimension must be positive")
        if a <= 0:
            raise ValueError("regularizer must be positive")
        if not grid and m != 1:
            raise ValueError(f"the clip mode (grid=False) has one expert per slot, got m={m}")
        if share is not None and not share.can_share(m, d, grid):
            raise ValueError(f"a bank of m={m}, d={d}, grid={grid} cannot share the arrays of "
                             f"one of m={share.m}, d={share.d}, grid={share.grid}")
        self.m = m
        self.d = d
        self.a = a
        self.grid = grid
        self.slots = 0
        self.active: List[Optional[int]] = []   # expert awaiting each slot's update
        self.staged = False    # whether begin_day has staged an x
        self._memo: Optional[Tuple[List[int], List[float]]] = None
        self._lanes = _Lanes(m, d, grid) if share is None else share._lanes
        self._lane = self._lanes.add_lane(self)

    def can_share(self, m: int, d: int, grid: bool) -> bool:
        """Whether a bank of m, d and mode `grid` may be a lane of this bank's arrays."""
        return (self.m, self.d, self.grid) == (m, d, grid)

    def add_slot(self) -> int:
        """Index of a new slot whose experts have seen no data."""
        self._lanes.add_slot(self)
        self.active.append(None)
        self._memo = None
        self.slots += 1
        return self.slots - 1

    def begin_day(self, x) -> None:
        """Stage the day's feature vector, of shape (d,); drop the earlier day's selections."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"feature dimension {x.shape} != ({self.d},)")
        self._lanes.apply_updates()   # queued rows read the x this call replaces
        self._lanes._staged[self._lane] = x
        self.staged, self._memo = True, None
        self.active = [None] * self.slots

    def _forecasts(self) -> np.ndarray:
        """Forward-ridge predictions at the staged x of every expert, (slots·m,), unrounded."""
        if not self.staged:
            raise RuntimeError("no feature vector staged: call begin_day first")
        return self._lanes.forecasts()[self._lane, :self.slots * self.m]

    def proposals(self) -> np.ndarray:
        """Proposals at the staged x of every expert, rounded or clipped, (slots, m)."""
        return self._lanes.propose(self._forecasts()).reshape(self.slots, self.m)

    def select(self, slot: int) -> float:
        """The proposal slot plays at the staged x; its expert receives the slot's next update."""
        if self._memo is None:
            if not self.staged:
                raise RuntimeError("no feature vector staged: call begin_day first")
            self._lanes.select()
        experts, played = self._memo
        self.active[slot] = experts[slot]
        return played[slot]

    def update(self, slot: int, y: float) -> None:
        """Queue outcome y at the staged x for the expert of the slot's selection that day."""
        i = self.active[slot]
        if i is None:
            raise RuntimeError("update without a preceding predict")
        y = float(y)
        if not 0.0 <= y <= 1.0:     # written so that NaN fails it
            raise ValueError(f"label {y} outside [0,1]")
        self._lanes.queue.append((self._lane, slot * self.m + i, y))
        self.active[slot] = None
        self._memo = None


class ConversationWrapper:
    """One side's learner: a `RidgeBank` and a rule routing each own round to a slot.

    With a message bucket width g (the `conversation` kind), own round k
    goes to slot (k, i), which only ever sees the days on which the
    counterparty's round-(k−1) message fell in bucket i; the first round of
    the protocol (Alice's round 1) has the single slot (1, 0). With g = None
    (the `swap` kind), every round goes to slot (1, 0) and only the side's
    first own round of a day (k ≤ 2) updates it: one conversation-blind swap
    wrapper that sees each day once. The `vaw` kind is that routing with
    m = 1 and `grid=False`: one forward-ridge learner whose forecast is
    clipped to [0,1], not rounded. `instances` maps each routing key to its
    slot, created on first use. The rounds of a day cost one batched
    selection. Identical seeds and inputs reproduce bit-identical
    transcripts.

    `begin_day(x)` stages the day's features and drops earlier days'
    selections. Routing runs once per round: `predict(k, prev_message)`
    records the slot of own round k, and `update(k, y)` applies y there and
    drops the record once the bank has accepted it. A failing `predict`
    (before any `begin_day`, or without a finite message where the round
    needs one) raises before a slot is created. An `update` without that
    day's prediction raises RuntimeError and changes nothing; one with a bad
    label raises ValueError and can be retried.

    Given a `peer` learner with a bank of the same m, d and mode, the bank
    is a second lane of the peer's, so that after both sides' `begin_day`
    one selection pass and one update pass a day serve both.
    """

    def __init__(self, d: int, a: float = 1.0, m: int = 10, g: Optional[float] = 0.1,
                 peer=None, grid: bool = True):
        if g is not None:
            self._n_buckets = BucketingSpec(g=g, m=m).n_buckets   # validates 1/g once
        self.g = g
        share = getattr(peer, "bank", None)
        if not (isinstance(share, RidgeBank) and share.can_share(m, d, grid)):
            share = None
        self.bank = RidgeBank(m, d, a, share=share, grid=grid)
        self.instances: Dict[Tuple[int, int], int] = {}
        self._routed: Dict[int, int] = {}   # own round -> slot of its prediction that day

    def _slot(self, k: int, prev_message: Optional[float]) -> int:
        """The slot of own round k, created on first use."""
        if k == 1 or self.g is None:
            key = (1, 0)
        elif prev_message is None or not math.isfinite(prev_message):
            raise ValueError(f"round {k} requires a finite counterparty message, "
                             f"got {prev_message}")
        else:
            key = (k, _bucket(prev_message, self.g, self._n_buckets))
        slot = self.instances.get(key)
        if slot is None:
            slot = self.instances[key] = self.bank.add_slot()
        return slot

    def begin_day(self, x) -> None:
        """Stage the day's feature vector; selections of earlier days no longer update."""
        self.bank.begin_day(x)
        self._routed = {}

    def predict(self, k: int, prev_message: Optional[float]) -> float:
        if not self.bank.staged:
            raise RuntimeError("no feature vector staged: call begin_day first")
        slot = self._slot(k, prev_message)
        played = self.bank.select(slot)
        self._routed[k] = slot
        return played

    def update(self, k: int, y: float) -> "ConversationWrapper":
        """Outcome y of own round k for the slot its `predict` chose that day."""
        slot = self._routed.get(k)
        if slot is None:
            raise RuntimeError(f"update of round {k} without a preceding predict")
        if self.g is not None or k <= 2:
            self.bank.update(slot, y)
        del self._routed[k]
        return self


# bank learner kind -> the `ConversationWrapper` arguments it fixes
BANK_KINDS = {
    "conversation": {},
    "swap": {"g": None},
    "vaw": {"m": 1, "g": None, "grid": False},
}
