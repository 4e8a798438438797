"""Online learner stack.

Forward ridge regression (Vovk; Azoury and Warmuth) is the base learner
for bounded linear classes. A bucketed swap-regret wrapper keeps one
forward-ridge expert per own-prediction bucket, and a conversation wrapper
routes each round of a two-party exchange to an independent swap wrapper
keyed by the counterparty's previous message bucket.

Every swap wrapper is one slot of a `RidgeBank`: preallocated arrays of
Gram matrices, their inverses, moments and step counts for all slots and
experts. The bank holds the only copy of the proposal → grid-round →
select arithmetic and of the rank-one update. Learner state does not
change between a prediction and the next update, so the first prediction
on a feature vector evaluates the selection of every slot in one batched
call, and later predictions on the same vector (the other rounds of a
day) are served from that memo until an update or a new slot drops it.
`VawState` solves its d×d system on every prediction; it is the reference
the bank is tested against and the learner of single-party baselines.

Learner state is single-owner mutable: one instance drives one run at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import BucketingSpec, _bucket, round_to_grid

__all__ = ["LinearClassSpec", "VawState", "RidgeBank", "SwapWrapper", "ConversationWrapper"]

_REFRESH_EVERY = 256  # periodic exact re-inversion to curb rank-one drift


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

    def ridge_solution(self) -> np.ndarray:
        """Batch ridge fit argmin a‖θ‖² + Σ(θᵀx_s − y_s)² on the data seen so far."""
        return np.linalg.solve(self.gram, self.moment)


def _closest_to_own_bucket(props: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the index of the proposal closest to its own bucket [lo, hi]; ties to the lowest."""
    dist = np.maximum(0.0, np.maximum(lo - props, props - hi))
    return np.argmin(dist, axis=-1)


def _bucket_edges(m: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.arange(m) / m, (np.arange(m) + 1) / m


class RidgeBank:
    """Forward-ridge experts of dimension d, m per slot, in preallocated arrays.

    `gram` and `inv` have shape (capacity, m, d, d), `moment` (capacity, m, d)
    and `steps` (capacity, m); the first `slots` rows are in use and the
    capacity doubles when they are full. A slot is one swap wrapper: expert
    i proposes its grid-rounded forward-ridge prediction, the slot plays the
    proposal closest to bucket [i/m, (i+1)/m] (ties to the lowest index),
    and the next update of the slot goes to that expert only. Inverses
    follow Sherman–Morrison rank-one updates and are recomputed exactly
    every _REFRESH_EVERY steps of an expert.
    """

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
        self.lo, self.hi = _bucket_edges(m)
        self.slots = 0
        self.gram, self.inv, self.moment, self.steps = self._fresh(1)
        self.active: List[Optional[int]] = []   # expert awaiting each slot's update
        self._memo: Optional[Tuple[bytes, List[int], List[float]]] = None

    def _fresh(self, n: int):
        m, d, a = self.m, self.d, self.a
        return (np.broadcast_to(a * np.eye(d), (n, m, d, d)).copy(),
                np.broadcast_to(np.eye(d) / a, (n, m, d, d)).copy(),
                np.zeros((n, m, d)),
                np.zeros((n, m), dtype=int))

    def add_slot(self) -> int:
        """Index of a new slot whose experts have seen no data."""
        capacity = self.steps.shape[0]
        if self.slots == capacity:
            self.gram, self.inv, self.moment, self.steps = (
                np.concatenate([old, new]) for old, new in zip(
                    (self.gram, self.inv, self.moment, self.steps), self._fresh(capacity)))
        self.active.append(None)
        self._memo = None
        self.slots += 1
        return self.slots - 1

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"feature dimension {x.shape} != ({self.d},)")
        return x

    def proposals(self, x, slot: Optional[int] = None) -> np.ndarray:
        """Grid-rounded predictions at x of every expert, (slots, m), or of one slot's, (m,)."""
        x = self._check(x)
        rows = slice(0, self.slots) if slot is None else slice(slot, slot + 1)
        u = self.inv[rows] @ x                                  # (n, m, d)
        s = u @ x                                               # (n, m)
        raw = np.einsum("smd,smd->sm", u, self.moment[rows])
        props = round_to_grid(raw / (1.0 + s), self.m)
        return props if slot is None else props[0]

    def select(self, slot: int, x) -> float:
        """The proposal slot plays at x; its expert receives the slot's next update."""
        x = self._check(x)
        key = x.tobytes()
        if self._memo is None or self._memo[0] != key:
            props = self.proposals(x)
            idx = _closest_to_own_bucket(props, self.lo, self.hi)
            self._memo = (key, idx.tolist(), props[np.arange(self.slots), idx].tolist())
        _key, idx, values = self._memo
        self.active[slot] = idx[slot]
        return values[slot]

    def update(self, slot: int, x, y: float) -> None:
        """Route outcome y at x to the expert of the slot's last selection."""
        i = self.active[slot]
        if i is None:
            raise RuntimeError("update without a preceding predict")
        x = self._check(x)
        self._memo = None
        self.gram[slot, i] += x[:, None] * x
        inv = self.inv[slot, i]
        u = inv @ x
        inv -= u[:, None] * u / (1.0 + x @ u)
        self.moment[slot, i] += y * x
        self.steps[slot, i] += 1
        if self.steps[slot, i] % _REFRESH_EVERY == 0:
            inv[...] = np.linalg.inv(self.gram[slot, i])
        self.active[slot] = None


class SwapWrapper:
    """Bucketed self-consistency reduction from swap regret to external regret.

    Keeps m independent forward-ridge experts, one per prediction bucket
    [(i−1)/m, i/m), as one slot of a `RidgeBank`: its own one-slot bank, or
    a shared one via `in_bank`. Each step every expert proposes its
    grid-rounded prediction; the wrapper plays the proposal closest to its
    own bucket (ties to the lowest index) and later routes the observed
    outcome only to that expert. The array attributes are views of the
    slot's rows in the bank.
    """

    def __init__(self, m: int, d: int, a: float = 1.0):
        self._attach(RidgeBank(m, d, a))

    @classmethod
    def in_bank(cls, bank: RidgeBank) -> "SwapWrapper":
        """A wrapper on a new slot of a shared bank."""
        wrapper = cls.__new__(cls)
        wrapper._attach(bank)
        return wrapper

    def _attach(self, bank: RidgeBank) -> None:
        self.bank = bank
        self.m, self.d, self.a = bank.m, bank.d, bank.a
        self.slot = bank.add_slot()
        self.update_log: Optional[List[Tuple[np.ndarray, float]]] = None

    @property
    def grams(self) -> np.ndarray:
        return self.bank.gram[self.slot]

    @property
    def inv_grams(self) -> np.ndarray:
        return self.bank.inv[self.slot]

    @property
    def moments(self) -> np.ndarray:
        return self.bank.moment[self.slot]

    @property
    def steps(self) -> np.ndarray:
        return self.bank.steps[self.slot]

    @property
    def last_active(self) -> Optional[int]:
        return self.bank.active[self.slot]

    def proposals(self, x) -> np.ndarray:
        """Grid-rounded predictions of all m experts at x."""
        return self.bank.proposals(x, self.slot)

    @staticmethod
    def select_index(proposals, m: int) -> int:
        """Index of the proposal closest to its own bucket; ties to the lowest."""
        return int(_closest_to_own_bucket(np.asarray(proposals, dtype=float), *_bucket_edges(m)))

    def predict(self, x) -> float:
        return self.bank.select(self.slot, x)

    def update(self, x, y: float) -> "SwapWrapper":
        self.bank.update(self.slot, x, y)
        if self.update_log is not None:
            self.update_log.append((np.array(x, dtype=float), float(y)))
        return self

    def regret_envelope(self, C: float = 1.0) -> float:
        """Reported envelope on this instance's swap regret.

        Sums each activated expert's forward-ridge bound 2d·ln(n_j+1) + C²
        and adds the grid-rounding mass; the self-consistency selection
        carries no formal guarantee of its own, so treat this as an
        empirical envelope rather than a certified bound.
        """
        active = self.steps[self.steps > 0]
        per_expert = float(np.sum(2.0 * self.d * np.log(active + 1.0) + C * C))
        n = int(self.steps.sum())
        rounding = n * (1.0 / self.m + 1.0 / (4.0 * self.m * self.m))
        return per_expert + rounding


class ConversationWrapper:
    """Routes each own round of a conversation to an independent swap wrapper.

    Instance (k, i) only ever sees the subsequence of days on which the
    counterparty's round-(k−1) message fell in bucket i; the first round of
    the protocol (Alice's round 1) has a single unconditioned instance. All
    instances are slots of one `RidgeBank`, so the rounds of a day that
    share a feature vector cost one batched selection. Identical seeds and
    inputs reproduce bit-identical transcripts.
    """

    def __init__(self, d: int, C: float = 1.0, a: float = 1.0, m: int = 10,
                 g: float = 0.1, trace: bool = False):
        self.spec = LinearClassSpec(d=d, C=C, with_intercept=True)
        self._n_buckets = BucketingSpec(g=g, m=m).n_buckets   # validates 1/g once
        self.d = d
        self.a = a
        self.m = m
        self.g = g
        self.trace = trace
        self.bank = RidgeBank(m, d, a)
        self.instances: Dict[Tuple[int, int], SwapWrapper] = {}

    def _instance(self, k: int, prev_message: Optional[float]) -> SwapWrapper:
        if k == 1:
            key = (1, 0)
        else:
            if prev_message is None:
                raise ValueError(f"round {k} requires the counterparty's previous message")
            key = (k, _bucket(prev_message, self.g, self._n_buckets))
        inst = self.instances.get(key)
        if inst is None:
            inst = SwapWrapper.in_bank(self.bank)
            if self.trace:
                inst.update_log = []
            self.instances[key] = inst
        return inst

    def predict(self, k: int, prev_message: Optional[float], x) -> float:
        return self._instance(k, prev_message).predict(x)

    def update(self, k: int, prev_message: Optional[float], x, y: float) -> "ConversationWrapper":
        self._instance(k, prev_message).update(x, y)
        return self

    def regret_envelopes(self) -> Dict[Tuple[int, int], float]:
        """Per-(round, bucket) reported regret envelopes of all instances."""
        return {key: inst.regret_envelope(self.spec.C) for key, inst in self.instances.items()}
