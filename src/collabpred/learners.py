"""Online learner stack.

Forward ridge regression (Vovk; Azoury and Warmuth) is the base learner
for bounded linear classes. A bucketed swap-regret wrapper keeps one
forward-ridge expert per own-prediction bucket and plays the proposal
closest to its own bucket. Each wrapper is one slot of a `RidgeBank`:
preallocated arrays of Gram matrices, their inverses, moments and step
counts for all experts of all slots, holding the only copy of the proposal
→ grid-round → select arithmetic and of the rank-one update.

A learner of the online protocol is a `ConversationWrapper`: one bank and a
routing rule from (own round, counterparty's previous message) to a slot.
The `conversation` kind keys a slot by round and message bucket, as the
paper's one wrapper per (round, counterparty-message bucket); the `swap`
kind sends every round to one slot, updated once a day. When both sides'
banks have the same m and d, Bob's bank is a second lane of Alice's: one
set of arrays, and passes that serve both lanes at once.

Bank state does not change between a prediction and the next update, so
one day of both sides costs two array passes:

- a selection pass, on the first prediction after the day's feature
  vectors are staged (`begin_day`, or a prediction at new bytes): per lane
  the forecasts of every expert at that lane's x (below 8 features one
  matrix-vector product over all its experts' rows for G⁻¹x and one for the
  normalisers 1 + xᵀG⁻¹x), then over all lanes one einsum for the
  numerators, `core.round_to_grid`, the distance of each proposal to its
  own bucket and one argmin per slot. The other rounds of the day are
  served from each lane's memo until an update or a new slot drops it;
- an update pass, before the next selection or read of the bank's arrays:
  every lane's queued rank-one updates in one batch.

Both passes give the bits of the per-slot arithmetic, whatever the number
of lanes. Their cost is numpy call overhead, not arithmetic, so both run
their ufuncs in place, and `round_to_grid` and the einsum call numpy's
kernels (the clip ufunc, `c_einsum`) without the Python wrappers of np.clip
and np.einsum. A float64 array of shape (d,), which is what the protocol
driver passes, reaches the memo and the queue without going through
np.asarray again, and one that is read-only down its `.base` chain is not
copied.

`VawState` solves its d×d system on every prediction; it is the reference
the bank is tested against and the learner of single-party baselines.

Learner state is single-owner mutable: one instance, or two that share a
bank, drives one run at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy._core.multiarray import c_einsum  # what np.einsum calls when not optimizing

from .core import BucketingSpec, _bucket, _frozen, round_to_grid

__all__ = ["LinearClassSpec", "VawState", "RidgeBank", "ConversationWrapper"]

_REFRESH_EVERY = 256  # periodic exact re-inversion to curb rank-one drift
# Below this many features one matrix-vector product over the rows of all
# experts rounds like one product per expert or per slot. From 8 terms on,
# OpenBLAS's gemv kernels sum a row in an order that depends on how the
# rows are grouped (tests/test_crosschecks.py::TestBankKernelIdentities).
_FLAT_BELOW_D = 8
_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class LinearClassSpec:
    """Norm-bounded linear predictors: {x ↦ θᵀx (+ b) : ‖θ‖₂ ≤ C}."""

    d: int
    C: float = 1.0
    with_intercept: bool = True

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.C < 0.5:
            raise ValueError("norm bound C must be at least 1/2")


class VawState:
    """Forward ridge regression: predict clip₀¹(xᵀ(G + xxᵀ)⁻¹ s).

    G accumulates a·I + Σ x_s x_sᵀ and s accumulates Σ y_s x_s. The
    prediction incorporates the current feature vector into the Gram term
    before solving, which is what yields the 2d·ln(T+1) + ‖θ‖² regret
    guarantee for squared loss.
    """

    def __init__(self, d: int, a: float = 1.0):
        if d < 1:
            raise ValueError("dimension must be positive")
        if a <= 0:
            raise ValueError("regularizer must be positive")
        self.d = d
        self.a = a
        self.gram = a * np.eye(d)
        self.moment = np.zeros(d)
        self.steps = 0

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"feature dimension {x.shape} != ({self.d},)")
        return x

    def predict(self, x) -> float:
        x = self._check(x)
        theta = np.linalg.solve(self.gram + np.outer(x, x), self.moment)
        return float(np.clip(x @ theta, 0.0, 1.0))

    def update(self, x, y: float) -> "VawState":
        x = self._check(x)
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"label {y} outside [0,1]")
        self.gram += np.outer(x, x)
        self.moment += y * x
        self.steps += 1
        return self


class _Lanes:
    """The arrays of the lanes of one bank and the two passes over them.

    Lane l's expert row r is row l·span + r of every array, where span =
    capacity·m: each lane's rows are contiguous and lane-major, so a lane
    reads its slots as a view, and the capacity, shared by all lanes,
    doubles when one lane's slots fill it (which moves the offsets of the
    later lanes). A row of `_gm` is the Gram matrix with the moment as an
    extra last row, so that one scatter-add of the outer product of
    [x, y] and x updates both; `_gram` and `_moment` are views of it. `_u`
    and `_s` hold the products G⁻¹x and xᵀG⁻¹x of each lane's last
    selection; rows of unused slots stay zero.
    """

    def __init__(self, m: int, d: int):
        self.m, self.d = m, d
        self.lo, self.hi = np.arange(m) / m, (np.arange(m) + 1) / m
        self.lanes: List["RidgeBank"] = []
        self.capacity = 1
        self.pending = False    # some lane has queued updates
        self._gm, self._inv, self._steps = (
            np.empty((0, d + 1, d)), np.empty((0, d, d)), np.empty(0, dtype=int))
        self._plan = None

    def _fresh(self, a: float, n: int):
        """Arrays of n slots of a lane with regularizer a whose experts have seen no data."""
        rows, d = n * self.m, self.d
        gm = np.zeros((rows, d + 1, d))
        gm[:, :d] = a * np.eye(d)
        return gm, np.broadcast_to(np.eye(d) / a, (rows, d, d)).copy(), np.zeros(rows, dtype=int)

    def _resize(self, capacity: int, joining: Optional["RidgeBank"] = None) -> None:
        """Grow every lane to `capacity` slots, adding lane `joining` if given."""
        lanes = self.lanes + ([joining] if joining is not None else [])
        span = self.capacity * self.m
        arrays = (self._gm, self._inv, self._steps)
        blocks = [[] for _ in arrays]
        for l, lane in enumerate(lanes):
            have = 0 if lane is joining else self.capacity
            for block, arr, new in zip(blocks, arrays, self._fresh(lane.a, capacity - have)):
                block += [arr[l * span:(l + 1) * span], new] if have else [new]
        self._gm, self._inv, self._steps = (np.concatenate(b) for b in blocks)
        self._gram, self._moment = self._gm[:, :self.d], self._gm[:, self.d]
        self.lanes, self.capacity = lanes, capacity
        self._u, self._s = np.zeros(self._moment.shape), np.zeros(self._steps.shape)
        self._plan = None

    def add_lane(self, lane: "RidgeBank") -> int:
        self._resize(self.capacity, lane)
        return len(self.lanes) - 1

    def add_slot(self, lane: "RidgeBank") -> None:
        if lane.slots == self.capacity:
            self._resize(2 * self.capacity)
        self._plan = None

    def view(self, lane: int, attr: str) -> np.ndarray:
        """Lane's rows of a bank array as (capacity, m, ...), after the queued updates."""
        self.apply_updates()
        span = self.capacity * self.m
        arr = getattr(self, attr)[lane * span:(lane + 1) * span]
        return arr.reshape(-1, self.m, *arr.shape[1:])

    def _make_plan(self):
        """Views for a selection pass over the slots in use; rebuilt when slots are added.

        Per lane its two product calls on its n used slots: below
        _FLAT_BELOW_D features one flat gemv `(n·m·d, d) @ x` and one
        `(n·m, d) @ x` (`np.vecdot` when m = 1: numpy computes a one-row
        product, which a slot of one expert makes, as a dot, and a dot
        rounds differently from a gemv), from _FLAT_BELOW_D on one product
        per expert and per slot. Then the rows up to the last lane's used
        ones, and their slot starts.
        """
        m, d, span = self.m, self.d, self.capacity * self.m
        plan = []
        for l, lane in enumerate(self.lanes):
            n = lane.slots
            rows = slice(l * span, l * span + n * m)
            inv, u, s = self._inv[rows], self._u[rows], self._s[rows]
            if d < _FLAT_BELOW_D:
                calls = ((np.matmul, inv.reshape(-1, d), u.reshape(-1)),
                         (np.vecdot if m == 1 else np.matmul, u, s))
            else:
                calls = ((np.matmul, inv, u), (np.matmul, u.reshape(n, m, d), s.reshape(n, m)))
            plan.append((lane, calls, l * self.capacity, n))
        used = (len(self.lanes) - 1) * span + self.lanes[-1].slots * m
        self._plan = (plan, self._u[:used], self._moment[:used], self._s[:used],
                      np.arange(0, used, m))

    def forecasts(self) -> np.ndarray:
        """Forward-ridge predictions of the rows up to the last lane's used ones, unrounded.

        Each lane with a staged x makes its products on its own used rows,
        as a lone bank does, so no bit depends on the lane count; the einsum
        and the division run over all rows at once.
        """
        self.apply_updates()
        if self._plan is None:
            self._make_plan()
        plan, u, moment, s, _ = self._plan
        for lane, ((f, a, out), (g, b, out2)), _, _ in plan:
            x = lane._x
            if x is not None:
                f(a, x, out=out)
                g(b, x, out=out2)
        raw = c_einsum("kd,kd->k", u, moment)
        raw /= s + 1.0
        return raw

    def select(self) -> None:
        """Memo every lane with a staged x: per slot, the selected expert and its proposal."""
        m = self.m
        props = round_to_grid(self.forecasts(), m).reshape(-1, m)
        dist = self.lo - props      # distance of each proposal to its own bucket
        np.maximum(dist, props - self.hi, out=dist)
        np.maximum(0.0, dist, out=dist)
        idx = dist.argmin(axis=1)   # ties to the lowest index
        plan, starts = self._plan[0], self._plan[-1]
        experts, played = idx.tolist(), props.take(starts + idx).tolist()
        for lane, _, first, n in plan:
            if lane._x is not None:
                lane._memo = (experts[first:first + n], played[first:first + n])

    def apply_updates(self) -> None:
        """Apply every lane's queued rank-one updates in one array pass."""
        if not self.pending:
            return
        self.pending = False
        span = self.capacity * self.m
        idx, xys, groups = [], [], []
        for l, lane in enumerate(self.lanes):
            for x, _, xy, rows in lane._queue:
                groups.append((x, len(idx), len(idx) + len(rows)))
                idx += [l * span + r for r in rows]
                xys += [xy] * len(rows)
            lane._queue = []
        inv, steps = self._inv, self._steps
        XY, idx = np.array(xys), np.array(idx)
        X = XY[:, :self.d]
        np.add.at(self._gm, idx, XY[:, :, None] * X[:, None, :])   # x·xᵀ and y·x
        g_inv = inv.take(idx, axis=0)
        # one product per expert, as a single update makes it
        u = (g_inv @ X[:, :, None]).reshape(X.shape)
        # one dot per x: a dot over rows of several x rounds differently
        den = np.concatenate([np.vecdot(x, u[start:stop]) for x, start, stop in groups])
        den += 1.0
        uu = u[:, :, None] * u[:, None, :]
        uu /= den[:, None, None]
        g_inv -= uu
        inv[idx] = g_inv
        n = steps.take(idx)
        n += 1
        steps[idx] = n
        for row, count in zip(idx.tolist(), n.tolist()):
            if count % _REFRESH_EVERY == 0:
                inv[row] = np.linalg.inv(self._gram[row])


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
    slot goes to that expert only. Inverses follow Sherman–Morrison rank-one
    updates and are recomputed exactly every _REFRESH_EVERY steps of an
    expert.

    A bank built with `share=` another bank of the same m and d is a second
    lane of that bank's arrays: each lane keeps its own slots, regularizer
    `a`, array views, queue and memo, and the two passes serve all lanes at
    once. A bank built alone is a one-lane bank.

    A lane's selection is memoised at its staged feature vector: `begin_day`
    stages x ahead of the day's predictions, and `select` stages its x when
    the bytes differ. A selection that misses the memo runs one selection
    pass for every lane with a staged x: per lane its products G⁻¹x and
    xᵀG⁻¹x on its own used slots (see `_Lanes._make_plan`), then over all
    rows one einsum, the division by 1 + xᵀG⁻¹x, `core.round_to_grid`, the
    bucket distance with `out=`, `ndarray.argmin` per slot and one flat
    `take` of the played proposals. An update, a new slot or a new staged x
    drops the lane's memo.

    `update` only queues x, y and the row of the slot's selected expert;
    the updates of one day share x and y and form one group. The update
    pass applies every lane's queue: one `np.add.at` of the outer products
    of [x, y] and x for the Gram matrices and moments, and for the inverses
    one `G⁻¹ @ x` per expert, one `np.vecdot` per group, the outer products
    and one scatter. It runs before the next selection pass and before any
    read of the arrays. A slot's update needs a selection first, and a
    selection after an update always misses, so the queue holds at most one
    update per slot: the queued updates touch distinct experts and commute.
    """

    gram = _applied("_gram", "Gram matrices a·I + Σ x xᵀ, (capacity, m, d, d).")
    inv = _applied("_inv", "Inverses of the Gram matrices, (capacity, m, d, d).")
    moment = _applied("_moment", "Moments Σ y·x, (capacity, m, d).")
    steps = _applied("_steps", "Updates received per expert, (capacity, m).")

    def __init__(self, m: int, d: int, a: float = 1.0, share: Optional["RidgeBank"] = None):
        if m < 1:
            raise ValueError("bucket count m must be ≥ 1")
        if d < 1:
            raise ValueError("dimension must be positive")
        if a <= 0:
            raise ValueError("regularizer must be positive")
        if share is not None and (share.m, share.d) != (m, d):
            raise ValueError(f"a bank of m={m}, d={d} cannot share the arrays of "
                             f"one of m={share.m}, d={share.d}")
        self.m = m
        self.d = d
        self.a = a
        self._shape = (d,)
        self.slots = 0
        self.active: List[Optional[int]] = []   # expert awaiting each slot's update
        self._x: Optional[np.ndarray] = None    # staged feature vector and its bytes
        self._key: Optional[bytes] = None
        self._memo: Optional[Tuple[List[int], List[float]]] = None
        # groups of queued updates: x, y, [x, y] and the expert rows
        self._queue: List[Tuple[np.ndarray, float, np.ndarray, List[int]]] = []
        self._lanes = _Lanes(m, d) if share is None else share._lanes
        self._lane = self._lanes.add_lane(self)

    def add_slot(self) -> int:
        """Index of a new slot whose experts have seen no data."""
        self._lanes.add_slot(self)
        self.active.append(None)
        self._memo = None
        self.slots += 1
        return self.slots - 1

    def _check(self, x) -> np.ndarray:
        """x as a float64 array of shape (d,); such an array is returned as it is."""
        if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.shape != self._shape:
            x = np.asarray(x, dtype=float)
            if x.shape != self._shape:
                raise ValueError(f"feature dimension {x.shape} != ({self.d},)")
        return x

    def _stage(self, x: np.ndarray) -> None:
        """Make a checked x the lane's feature vector, unless it has its bytes already."""
        key = x.tobytes()
        if key != self._key:
            self._x, self._key, self._memo = _frozen(x), key, None

    def begin_day(self, x) -> None:
        """Stage the day's feature vector, so that one selection pass serves every lane."""
        self._stage(self._check(x))

    def _forecasts(self, x) -> np.ndarray:
        """Forward-ridge predictions at x of every expert, (slots·m,), unrounded."""
        self._stage(self._check(x))
        first = self._lane * self._lanes.capacity * self.m
        return self._lanes.forecasts()[first:first + self.slots * self.m]

    def proposals(self, x) -> np.ndarray:
        """Grid-rounded predictions at x of every expert, (slots, m)."""
        return round_to_grid(self._forecasts(x), self.m).reshape(self.slots, self.m)

    def select(self, slot: int, x) -> float:
        """The proposal slot plays at x; its expert receives the slot's next update."""
        x = self._check(x)
        if x is not self._x:    # a staged x is a copy or cannot change
            self._stage(x)
        if self._memo is None:
            self._lanes.select()
        experts, played = self._memo
        self.active[slot] = experts[slot]
        return played[slot]

    def update(self, slot: int, x, y: float) -> None:
        """Queue outcome y at x for the expert of the slot's last selection."""
        i = self.active[slot]
        if i is None:
            raise RuntimeError("update without a preceding predict")
        x = self._check(x)
        y = float(y)
        if not 0.0 <= y <= 1.0:     # written so that NaN fails it
            raise ValueError(f"label {y} outside [0,1]")
        if x is not self._x:    # the caller may change x before the queue is applied
            x = _frozen(x)
        row = slot * self.m + i
        queue = self._queue
        # the rounds of one day pass the same x and y objects: one group
        if queue and queue[-1][0] is x and queue[-1][1] is y:
            queue[-1][3].append(row)
        else:
            queue.append((x, y, np.concatenate((x, (y,))), [row]))
        self._lanes.pending = True
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
    wrapper that sees each day once. `instances` maps each routing key to its
    slot, created on first use. The rounds of a day that share a feature
    vector cost one batched selection. Identical seeds and inputs reproduce
    bit-identical transcripts.

    Routing runs once per round: `predict(k, …)` records the slot it routed
    own round k to, and `update(k, …)` applies the outcome to that slot,
    whatever message it is passed, and drops the record once the bank has
    accepted the outcome. An `update` without a prediction raises
    RuntimeError and changes nothing; one with a bad label raises ValueError
    and can be retried.

    Given a `peer` learner with a bank of the same m and d, the bank is a
    second lane of the peer's, so that after both sides' `begin_day` one
    selection pass and one update pass a day serve both.
    """

    def __init__(self, d: int, a: float = 1.0, m: int = 10, g: Optional[float] = 0.1,
                 peer=None):
        if g is not None:
            self._n_buckets = BucketingSpec(g=g, m=m).n_buckets   # validates 1/g once
        self.g = g
        share = getattr(peer, "bank", None)
        if not (isinstance(share, RidgeBank) and (share.m, share.d) == (m, d)):
            share = None
        self.bank = RidgeBank(m, d, a, share=share)
        self.instances: Dict[Tuple[int, int], int] = {}
        self._routed: Dict[int, int] = {}   # own round -> slot of its last prediction

    def _slot(self, k: int, prev_message: Optional[float]) -> int:
        """The slot of own round k, created on first use."""
        if k == 1 or self.g is None:
            key = (1, 0)
        elif prev_message is None:
            raise ValueError(f"round {k} requires the counterparty's previous message")
        else:
            key = (k, _bucket(prev_message, self.g, self._n_buckets))
        slot = self.instances.get(key)
        if slot is None:
            slot = self.instances[key] = self.bank.add_slot()
        return slot

    def begin_day(self, x) -> None:
        """The day's feature vector, before its first prediction; optional."""
        self.bank.begin_day(x)

    def predict(self, k: int, prev_message: Optional[float], x) -> float:
        slot = self._slot(k, prev_message)
        played = self.bank.select(slot, x)
        self._routed[k] = slot
        return played

    def update(self, k: int, prev_message: Optional[float], x, y: float) -> "ConversationWrapper":
        """Outcome y of own round k for the slot its last `predict` chose; prev_message is unread."""
        slot = self._routed.get(k)
        if slot is None:
            raise RuntimeError(f"update of round {k} without a preceding predict")
        if self.g is not None or k <= 2:
            self.bank.update(slot, x, y)
        del self._routed[k]
        return self
