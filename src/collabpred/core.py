"""Domain types and sequence-level error/regret/calibration metrics.

All metrics here are pure functions of transcripts: no incremental state,
safe to call concurrently. Level sets are taken over exact floating-point
equality of realized prediction values, so learners are expected to emit
grid values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

import numpy as np

__all__ = [
    "LabeledExample",
    "SequenceDataset",
    "ConversationTranscript",
    "BucketingSpec",
    "RegretReport",
    "round_to_grid",
    "grid_index",
    "sqe",
    "ece",
    "swap_regret",
    "conversation_swap_regret",
    "conversation_calibration_error",
    "disagreement_fraction",
]

_NORM_TOL = 1e-9

ALICE = "alice"
BOB = "bob"


def round_to_grid(value, m: int):
    """Clip to [0,1] and round to the nearest multiple of 1/m, ties down."""
    v = np.clip(value, 0.0, 1.0)
    idx = np.ceil(v * m - 0.5)
    idx = np.clip(idx, 0, m)
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(idx) / m
    return np.asarray(idx, dtype=float) / m


def grid_index(value, m: int):
    """Index j such that round_to_grid(value, m) == j/m."""
    v = np.clip(value, 0.0, 1.0)
    idx = np.clip(np.ceil(v * m - 0.5), 0, m)
    if np.isscalar(value) or np.ndim(value) == 0:
        return int(idx)
    return np.asarray(idx, dtype=int)


def bucket_index(value: float, g: float) -> int:
    """1-based bucket of [0,1] for width g: bucket i = [(i-1)g, ig), last closed at 1."""
    n = int(round(1.0 / g))
    if abs(n * g - 1.0) > _NORM_TOL:
        raise ValueError(f"bucket width {g} does not evenly partition [0,1]")
    i = int(math.floor(value / g)) + 1
    return min(max(i, 1), n)


@dataclass(frozen=True)
class LabeledExample:
    """One day's example: feature blocks for each party plus the outcome.

    Feature blocks must have Euclidean norm at most 1; the scalar label (or
    every coordinate of a vector label) must lie in [0,1]. Out-of-range
    inputs are rejected, never rescaled.
    """

    x_a: np.ndarray
    x_b: np.ndarray
    y: Union[float, np.ndarray]

    def __post_init__(self):
        xa = np.asarray(self.x_a, dtype=float)
        xb = np.asarray(self.x_b, dtype=float)
        if np.linalg.norm(xa) > 1.0 + _NORM_TOL:
            raise ValueError(f"‖x_a‖₂ = {np.linalg.norm(xa):.6g} exceeds 1")
        if np.linalg.norm(xb) > 1.0 + _NORM_TOL:
            raise ValueError(f"‖x_b‖₂ = {np.linalg.norm(xb):.6g} exceeds 1")
        y = self.y
        if np.ndim(y) == 0:
            yv = float(y)
            if not (0.0 <= yv <= 1.0):
                raise ValueError(f"label {yv} outside [0,1]")
            object.__setattr__(self, "y", yv)
        else:
            ya = np.asarray(y, dtype=float)
            if ya.min() < 0.0 or ya.max() > 1.0:
                raise ValueError("vector label has coordinates outside [0,1]")
            ya.setflags(write=False)
            object.__setattr__(self, "y", ya)
        xa.setflags(write=False)
        xb.setflags(write=False)
        object.__setattr__(self, "x_a", xa)
        object.__setattr__(self, "x_b", xb)


@dataclass(frozen=True)
class SequenceDataset:
    """An ordered sequence of labeled examples with its generating seed."""

    examples: Tuple[LabeledExample, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        if len(self.examples) == 0:
            raise ValueError("dataset must contain at least one example")

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    @property
    def T(self) -> int:
        return len(self.examples)

    def features_a(self) -> np.ndarray:
        return np.stack([ex.x_a for ex in self.examples])

    def features_b(self) -> np.ndarray:
        return np.stack([ex.x_b for ex in self.examples])

    def labels(self) -> np.ndarray:
        return np.asarray([ex.y for ex in self.examples])


class ConversationTranscript:
    """Per-day, per-round predictions plus outcomes for a T-day, K-round run.

    Round parity is fixed: odd rounds (1-based) belong to Alice, even rounds
    to Bob.
    """

    def __init__(self, predictions, outcomes):
        preds = np.asarray(predictions, dtype=float)
        outs = np.asarray(outcomes, dtype=float)
        if preds.ndim != 2:
            raise ValueError("predictions must be a T×K grid")
        if outs.shape != (preds.shape[0],):
            raise ValueError("outcomes must have one entry per day")
        if preds.size and (preds.min() < -_NORM_TOL or preds.max() > 1.0 + _NORM_TOL):
            raise ValueError("predictions must lie in [0,1]")
        preds.setflags(write=False)
        outs.setflags(write=False)
        self.predictions = preds
        self.outcomes = outs

    @property
    def T(self) -> int:
        return self.predictions.shape[0]

    @property
    def K(self) -> int:
        return self.predictions.shape[1]

    def round_predictions(self, k: int) -> np.ndarray:
        """Predictions of round k (1-based) across all days."""
        if not 1 <= k <= self.K:
            raise ValueError(f"round {k} out of range 1..{self.K}")
        return self.predictions[:, k - 1]

    @staticmethod
    def side_of_round(k: int) -> str:
        return ALICE if k % 2 == 1 else BOB

    def rounds_of(self, side: str) -> list:
        start = 1 if side == ALICE else 2
        return list(range(start, self.K + 1, 2))

    # --- line-oriented text serialization -------------------------------

    def to_text(self) -> str:
        lines = [f"{self.T} {self.K}"]
        for t in range(self.T):
            parts = [repr(float(self.outcomes[t]))]
            parts.extend(repr(float(v)) for v in self.predictions[t])
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ConversationTranscript":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty transcript text")
        header = lines[0].split()
        T, K = int(header[0]), int(header[1])
        if len(lines) != T + 1:
            raise ValueError(f"expected {T} day lines, found {len(lines) - 1}")
        outs = np.empty(T)
        preds = np.empty((T, K))
        for t, ln in enumerate(lines[1:]):
            vals = [float(v) for v in ln.split()]
            if len(vals) != K + 1:
                raise ValueError(f"day {t + 1}: expected {K + 1} values, found {len(vals)}")
            outs[t] = vals[0]
            preds[t] = vals[1:]
        return cls(preds, outs)


@dataclass(frozen=True)
class BucketingSpec:
    """Bucket width g for conditioning plus grid size m for emitted predictions."""

    g: float
    m: int

    def __post_init__(self):
        n = round(1.0 / self.g)
        if not (0.0 < self.g <= 1.0) or abs(n * self.g - 1.0) > _NORM_TOL:
            raise ValueError(f"1/g must be an integer, got g={self.g}")
        if self.m < 1:
            raise ValueError("grid size m must be ≥ 1")

    @property
    def n_buckets(self) -> int:
        return int(round(1.0 / self.g))

    def bucket_of(self, value: float) -> int:
        return bucket_index(value, self.g)

    def bucket_members(self, values: np.ndarray, i: int) -> np.ndarray:
        """Boolean mask for values falling in bucket i.

        Uses the same floor(v/g)+1 arithmetic as bucket_of, so metric
        subsequences agree with learner routing even when a value sits on a
        floating-point bucket boundary.
        """
        values = np.asarray(values, dtype=float)
        idx = np.clip(np.floor(values / self.g).astype(int) + 1, 1, self.n_buckets)
        return idx == i


@dataclass
class RegretReport:
    """All measured regrets, calibration errors and agreement statistics of a run."""

    sqe: float
    ece: float
    swap_regret_by_class: Dict[str, float]
    conversation_swap_regret: Dict[Tuple[int, int], float]
    disagreement_fraction_by_round: Dict[Tuple[int, float], float]
    joint_benchmark_error: float
    external_regret_joint: float
    slack_beta: float
    extras: Dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "sqe": self.sqe,
            "ece": self.ece,
            "swap_regret_by_class": dict(self.swap_regret_by_class),
            "conversation_swap_regret": {
                f"{k},{i}": v for (k, i), v in sorted(self.conversation_swap_regret.items())
            },
            "disagreement_fraction_by_round": {
                f"{k},{eps}": v
                for (k, eps), v in sorted(self.disagreement_fraction_by_round.items())
            },
            "joint_benchmark_error": self.joint_benchmark_error,
            "external_regret_joint": self.external_regret_joint,
            "slack_beta": self.slack_beta,
            "extras": dict(self.extras),
        }


# --- metrics -------------------------------------------------------------


def _aligned(predictions, outcomes):
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"length mismatch: predictions {p.shape}, outcomes {y.shape}")
    if p.size == 0:
        raise ValueError("empty sequences")
    return p, y


def sqe(predictions, outcomes) -> float:
    """Total squared error Σ_t (ŷ_t − y_t)²."""
    p, y = _aligned(predictions, outcomes)
    return float(np.sum((p - y) ** 2))


def ece(predictions, outcomes) -> float:
    """Expected calibration error: Σ over realized values p of |Σ 1[ŷ=p](ŷ−y)|."""
    p, y = _aligned(predictions, outcomes)
    total = 0.0
    for v in np.unique(p):
        mask = p == v
        total += abs(float(np.sum(v - y[mask])))
    return total


def _best_level_error(x: np.ndarray, y: np.ndarray, benchmark) -> float:
    """Least achievable Σ squared error on one level set for the benchmark class."""
    if benchmark == "constant":
        mean = float(np.mean(y))
        return float(np.sum((mean - y) ** 2))
    # LinearClassSpec: exact norm-bounded least squares.
    from .weaklearn import constrained_lsq

    fit = constrained_lsq(x, y, spec=benchmark)
    return fit.error


def swap_regret(predictions, outcomes, inputs=None, benchmark="constant") -> float:
    """Σ(ŷ−y)² minus the best per-level-set fit from the benchmark class.

    Level sets range over distinct realized prediction values. `benchmark`
    is either the string "constant" or a LinearClassSpec, in which case
    `inputs` must hold the feature rows the class is defined on.
    """
    p, y = _aligned(predictions, outcomes)
    if isinstance(benchmark, str):
        if benchmark != "constant":
            raise ValueError(f"unsupported benchmark class: {benchmark!r}")
        x = None
    else:
        if inputs is None:
            raise ValueError("linear benchmark requires feature inputs")
        x = np.asarray(inputs, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != p.shape[0]:
            raise ValueError("inputs misaligned with predictions")

    total = float(np.sum((p - y) ** 2))
    bench = 0.0
    for v in np.unique(p):
        mask = p == v
        if benchmark == "constant":
            bench += _best_level_error(None, y[mask], "constant")
        else:
            bench += _best_level_error(x[mask], y[mask], benchmark)
    return total - bench


def conversation_swap_regret(
    transcript: ConversationTranscript,
    side: str,
    benchmark="constant",
    bucketing: BucketingSpec = None,
    inputs=None,
) -> Dict[Tuple[int, int], float]:
    """Swap regret of the side's round-k predictions on each counterparty bucket.

    Entry (k, i) conditions round k on the counterparty's round-(k−1)
    prediction falling in bucket i; empty subsequences contribute 0.
    """
    if bucketing is None:
        raise ValueError("bucketing spec required")
    if transcript.K < 2:
        raise ValueError("conversation swap regret needs K ≥ 2")
    if side not in (ALICE, BOB):
        raise ValueError(f"unknown side {side!r}")
    out: Dict[Tuple[int, int], float] = {}
    feats = None
    if benchmark != "constant":
        if inputs is None:
            raise ValueError("linear benchmark requires feature inputs")
        feats = np.asarray(inputs, dtype=float)
        if feats.ndim == 1:
            feats = feats[:, None]
    for k in transcript.rounds_of(side):
        if k < 2:
            continue
        preds_k = transcript.round_predictions(k)
        prev = transcript.round_predictions(k - 1)
        for i in range(1, bucketing.n_buckets + 1):
            mask = bucketing.bucket_members(prev, i)
            if not mask.any():
                out[(k, i)] = 0.0
                continue
            sub_inputs = feats[mask] if feats is not None else None
            out[(k, i)] = swap_regret(
                preds_k[mask], transcript.outcomes[mask], sub_inputs, benchmark
            )
    return out


def conversation_calibration_error(
    transcript: ConversationTranscript, side: str, bucketing: BucketingSpec
) -> Dict[Tuple[int, int], float]:
    """ECE of the side's round-k predictions on each counterparty bucket.

    Upper-bounds the calibration distance on each conditioned subsequence.
    """
    if transcript.K < 2:
        raise ValueError("conversation calibration needs K ≥ 2")
    out: Dict[Tuple[int, int], float] = {}
    for k in transcript.rounds_of(side):
        if k < 2:
            continue
        preds_k = transcript.round_predictions(k)
        prev = transcript.round_predictions(k - 1)
        for i in range(1, bucketing.n_buckets + 1):
            mask = bucketing.bucket_members(prev, i)
            if not mask.any():
                out[(k, i)] = 0.0
                continue
            out[(k, i)] = ece(preds_k[mask], transcript.outcomes[mask])
    return out


def disagreement_fraction(transcript: ConversationTranscript, k: int, eps: float) -> float:
    """Fraction of days on which rounds k and k−1 differ by at least eps."""
    if not 2 <= k <= transcript.K:
        raise ValueError(f"round {k} needs 2 ≤ k ≤ K={transcript.K}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    diff = np.abs(transcript.round_predictions(k) - transcript.round_predictions(k - 1))
    return float(np.mean(diff >= eps))
