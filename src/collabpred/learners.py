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
kind sends every round to one slot, updated once a day.

Bank state does not change between a prediction and the next update, so
one side's day costs two array passes:

- a selection pass, on the first prediction at a feature vector: the
  forecasts of every expert (below 8 features one matrix-vector product
  over all experts' rows for G⁻¹x, one for the normalisers 1 + xᵀG⁻¹x and
  one einsum for the numerators), `core.round_to_grid`, the distance of
  each proposal to its own bucket and one argmin per slot. The other
  rounds of the day are served from that memo until an update or a new
  slot drops it;
- an update pass, before the next selection or read of the bank's arrays:
  the queued rank-one updates, one batch per group of updates that share
  x and y.

Both passes give the bits of the per-slot arithmetic. Their cost is numpy
call overhead, not arithmetic, so both run their ufuncs in place, and
`round_to_grid` and the einsum call numpy's kernels (the clip ufunc,
`c_einsum`) without the Python wrappers of np.clip and np.einsum. A
float64 array of shape (d,), which is what the protocol driver passes,
reaches the memo and the queue without going through np.asarray again.
`VawState` solves its d×d system on every prediction; it is the reference
the bank is tested against and the learner of single-party baselines.

Learner state is single-owner mutable: one instance drives one run at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy._core.multiarray import c_einsum  # what np.einsum calls when not optimizing

from .core import BucketingSpec, _bucket, round_to_grid

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


def _applied(attr: str, doc: str) -> property:
    """Read access to a bank array as (capacity, m, ...), after the queued updates are applied."""

    def get(bank: "RidgeBank") -> np.ndarray:
        bank._apply_updates()
        arr = getattr(bank, attr)
        return arr.reshape(-1, bank.m, *arr.shape[1:])

    return property(get, doc=doc)


class RidgeBank:
    """Forward-ridge experts of dimension d, m per slot, in preallocated arrays.

    `gram` and `inv` read as (capacity, m, d, d), `moment` as (capacity, m, d)
    and `steps` as (capacity, m); the bank stores them by expert row
    slot·m + i. The first `slots` slots are in use and the capacity doubles
    when they are full. A slot is one swap wrapper: expert i proposes its
    grid-rounded forward-ridge prediction, the slot plays the proposal
    closest to bucket [i/m, (i+1)/m] (ties to the lowest index), and the
    next update of the slot goes to that expert only. Inverses follow
    Sherman–Morrison rank-one updates and are recomputed exactly every
    _REFRESH_EVERY steps of an expert.

    The selection pass (`select` on a memo miss) calls, in this order: below
    8 features one flat gemv `(n·m·d, d) @ x`, one `(n·m, d) @ x`
    (`np.vecdot` when m = 1, where numpy would compute a dot) and one flat
    einsum, from 8 features on one product per expert and per slot
    instead; then `s += 1; raw /= s`, `core.round_to_grid`, the bucket
    distance with `out=`, `ndarray.argmin` per slot and one flat `take` of
    the played proposals.

    `update` only queues x, y and the row of the slot's selected expert.
    The update pass applies the queue, one batch per group of updates that
    share x and y: `np.add.at` for the Gram matrices and moments, and for
    the inverses one `g_inv @ x` per expert, `np.vecdot`, the outer products
    and one scatter. It runs before the next selection that misses the memo
    and before any read of the arrays. A slot's update needs a selection
    first, and a selection after an update always misses, so the queue
    holds at most one update per slot: the queued updates touch distinct
    experts and commute.
    """

    gram = _applied("_gram", "Gram matrices a·I + Σ x xᵀ, (capacity, m, d, d).")
    inv = _applied("_inv", "Inverses of the Gram matrices, (capacity, m, d, d).")
    moment = _applied("_moment", "Moments Σ y·x, (capacity, m, d).")
    steps = _applied("_steps", "Updates received per expert, (capacity, m).")

    def __init__(self, m: int, d: int, a: float = 1.0):
        if m < 1:
            raise ValueError("bucket count m must be ≥ 1")
        if d < 1:
            raise ValueError("dimension must be positive")
        if a <= 0:
            raise ValueError("regularizer must be positive")
        self.m = m
        self.d = d
        self.a = a
        self._shape = (d,)
        self.lo, self.hi = np.arange(m) / m, (np.arange(m) + 1) / m
        self.slots = 0
        self._gram, self._inv, self._moment, self._steps = self._fresh(1)
        self.active: List[Optional[int]] = []   # expert awaiting each slot's update
        self._memo: Optional[Tuple[bytes, List[int], List[float]]] = None
        self._queue: List[Tuple[np.ndarray, float, List[int]]] = []

    def _fresh(self, n: int):
        """Arrays of n slots whose experts have seen no data, by expert row."""
        rows, d, a = n * self.m, self.d, self.a
        return (np.broadcast_to(a * np.eye(d), (rows, d, d)).copy(),
                np.broadcast_to(np.eye(d) / a, (rows, d, d)).copy(),
                np.zeros((rows, d)),
                np.zeros(rows, dtype=int))

    def add_slot(self) -> int:
        """Index of a new slot whose experts have seen no data."""
        capacity = self._steps.shape[0] // self.m
        if self.slots == capacity:
            self._gram, self._inv, self._moment, self._steps = (
                np.concatenate([old, new]) for old, new in zip(
                    (self._gram, self._inv, self._moment, self._steps), self._fresh(capacity)))
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

    def _forecasts(self, x: np.ndarray) -> np.ndarray:
        """Forward-ridge predictions at a checked x of every expert, (slots·m,), unrounded.

        With fewer than _FLAT_BELOW_D features each product is one flat call
        over all experts, otherwise one call per expert and per slot; the
        bits are those of the per-slot products either way.
        """
        self._apply_updates()
        n, m, d = self.slots, self.m, self.d
        inv = self._inv[:n * m]
        if d < _FLAT_BELOW_D:
            u = (inv.reshape(-1, d) @ x).reshape(-1, d)      # (n·m, d)
            # numpy computes a one-row (1, d) @ (d,) product, which a slot of
            # one expert makes, as a dot; a dot rounds differently from a gemv
            s = np.vecdot(u, x) if m == 1 else u @ x
        else:
            u = inv @ x
            s = (u.reshape(n, m, d) @ x).reshape(-1)
        raw = c_einsum("kd,kd->k", u, self._moment[:n * m])
        s += 1.0
        raw /= s
        return raw

    def _proposals(self, x: np.ndarray) -> np.ndarray:
        """Grid-rounded predictions at a checked x of every expert, (slots, m)."""
        return round_to_grid(self._forecasts(x), self.m).reshape(self.slots, self.m)

    def proposals(self, x) -> np.ndarray:
        """Grid-rounded predictions at x of every expert, (slots, m)."""
        return self._proposals(self._check(x))

    def _select_all(self, x: np.ndarray) -> Tuple[List[int], List[float]]:
        """Per slot at a checked x, the selected expert and the proposal it plays."""
        props = self._proposals(x)
        dist = self.lo - props      # distance of each proposal to its own bucket
        np.maximum(dist, props - self.hi, out=dist)
        np.maximum(0.0, dist, out=dist)
        idx = dist.argmin(axis=1)   # ties to the lowest index
        rows = np.arange(0, props.size, self.m)
        rows += idx
        return idx.tolist(), props.take(rows).tolist()

    def select(self, slot: int, x) -> float:
        """The proposal slot plays at x; its expert receives the slot's next update."""
        x = self._check(x)
        key = x.tobytes()
        memo = self._memo
        if memo is None or memo[0] != key:
            memo = self._memo = (key, *self._select_all(x))
        self.active[slot] = memo[1][slot]
        return memo[2][slot]

    def update(self, slot: int, x, y: float) -> None:
        """Queue outcome y at x for the expert of the slot's last selection."""
        i = self.active[slot]
        if i is None:
            raise RuntimeError("update without a preceding predict")
        x = self._check(x)
        y = float(y)
        if not 0.0 <= y <= 1.0:     # written so that NaN fails it
            raise ValueError(f"label {y} outside [0,1]")
        if x.flags.writeable:   # the caller may reuse its buffer before the queue is applied
            x = x.copy()
        row = slot * self.m + i
        queue = self._queue
        # the rounds of one day pass the same x and y objects: one group
        if queue and queue[-1][0] is x and queue[-1][1] is y:
            queue[-1][2].append(row)
        else:
            queue.append((x, y, [row]))
        self.active[slot] = None
        self._memo = None

    def _apply_updates(self) -> None:
        """Apply the queued rank-one updates, one array pass per group sharing x and y."""
        if not self._queue:
            return
        gram, inv, moment, steps = self._gram, self._inv, self._moment, self._steps
        for x, y, rows in self._queue:
            idx = np.array(rows)
            np.add.at(gram, idx, x[:, None] * x)
            g_inv = inv.take(idx, axis=0)
            u = g_inv @ x           # one product per expert, as a single update makes it
            den = np.vecdot(x, u)
            den += 1.0
            uu = u[:, :, None] * u[:, None, :]
            uu /= den[:, None, None]
            g_inv -= uu
            inv[idx] = g_inv
            np.add.at(moment, idx, y * x)
            n = steps.take(idx)
            n += 1
            steps[idx] = n
            for row, count in zip(rows, n.tolist()):
                if count % _REFRESH_EVERY == 0:
                    inv[row] = np.linalg.inv(gram[row])
        self._queue = []


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
    """

    def __init__(self, d: int, a: float = 1.0, m: int = 10, g: Optional[float] = 0.1):
        if g is not None:
            self._n_buckets = BucketingSpec(g=g, m=m).n_buckets   # validates 1/g once
        self.g = g
        self.bank = RidgeBank(m, d, a)
        self.instances: Dict[Tuple[int, int], int] = {}

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

    def predict(self, k: int, prev_message: Optional[float], x) -> float:
        return self.bank.select(self._slot(k, prev_message), x)

    def update(self, k: int, prev_message: Optional[float], x, y: float) -> "ConversationWrapper":
        if self.g is not None or k <= 2:
            self.bank.update(self._slot(k, prev_message), x, y)
        return self
