"""Domain types and sequence-level error/regret/calibration metrics.

A `SequenceDataset` is columnar: feature blocks x_a (T, d_a) and x_b (T, d_b)
and labels y (T,) or (T, d) as read-only, C-ordered float arrays, validated
once. Dataset files and batch samples share one column-wise codec,
`examples_to_json` / `examples_from_json`, for the format
{"seed": s, "examples": [{"xa": […], "xb": […], "y": y}]}.

All metrics here are pure functions of transcripts: no incremental state,
safe to call concurrently. Level sets are taken over exact floating-point
equality of realized prediction values, so learners are expected to emit
grid values.

`level_sets`, with its run form `level_set_runs`, is the package's one
grouping primitive (audits, batch boosting, Bayes enumeration). Its rows come
in ascending order, so `a[rows]` equals `a[key == v]` and every reduction
keeps the bits of a boolean-mask loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
from numpy._core.umath import clip as _clip  # the ufunc np.clip calls; see _grid

__all__ = [
    "SequenceDataset",
    "ConversationTranscript",
    "BucketingSpec",
    "RegretReport",
    "round_to_grid",
    "grid_index",
    "level_sets",
    "level_set_runs",
    "ordered_sum",
    "json_list",
    "json_field",
    "json_column",
    "examples_to_json",
    "examples_from_json",
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


def _grid(value, m: int) -> Tuple[np.ndarray, bool]:
    """clip(ceil(clip(value, 0, 1)·m − ½), 0, m) in a fresh array, and whether value is 0-d.

    The arithmetic and dtype of `np.clip(value, 0.0, 1.0)` followed by
    `np.clip(np.ceil(v * m - 0.5), 0, m)`, bit for bit; a 0-d value comes
    back as shape (1,). `_clip` is the ufunc that np.clip ends in: calling
    it directly skips np.clip's Python wrappers (`fromnumeric.clip`,
    `_wrapfunc`, `_methods._clip`), which cost more than the arithmetic on
    a ridge bank's few hundred forecasts, and the steps after the first run
    in place on the array it returns. np.maximum and np.minimum are no
    substitute: ceil gives -0.0 for v·m < ½, the clip ufunc keeps it, and
    they turn it into 0.0. The caller's array is never written.
    """
    v = np.asarray(value)
    scalar = v.ndim == 0
    idx = _clip(v.reshape(1) if scalar else v, 0.0, 1.0)
    idx *= m
    idx -= 0.5
    np.ceil(idx, out=idx)
    _clip(idx, 0, m, out=idx)
    return idx, scalar


def round_to_grid(value, m: int):
    """Clip to [0,1] and round to the nearest multiple of 1/m, ties down.

    A scalar or 0-d value gives a float, an array a new float array of its
    shape. Every value below 1/(2m), 0.0 included, rounds to -0.0 (ceil's
    sign of zero), and NaN stays NaN. One `_grid` pass and one division.
    """
    idx, scalar = _grid(value, m)
    if scalar:
        return float(idx[0]) / m
    idx = idx.astype(float, copy=False)   # float32 input rounds in float32, divides in float64
    idx /= m
    return idx


def grid_index(value, m: int):
    """Index j such that round_to_grid(value, m) == j/m, as an int or an int array.

    NaN has no index: it raises ValueError, as int() does for a scalar.
    """
    idx, scalar = _grid(value, m)
    if scalar:
        return int(idx[0])
    if np.isnan(idx).any():
        raise ValueError("cannot convert float NaN to integer")
    return idx.astype(int)


def ordered_sum(values) -> float:
    """Σ values added left to right from 0.0: the bits of a plain Python loop.

    Builtin sum() compensates rounding from Python 3.12 on and np.sum adds
    pairwise, so neither gives these bits on every version. cumsum adds in
    order; the leading 0.0 + turns a -0.0 total into the loop's +0.0.
    """
    values = np.asarray(values, dtype=float)
    return 0.0 + float(np.cumsum(values)[-1]) if values.size else 0.0


def level_set_runs(*keys) -> Tuple[np.ndarray, np.ndarray]:
    """The groups of `level_sets` as runs: (order, starts), with group g in
    rows order[starts[g]:starts[g + 1]] and the last group running to the end.

    One stable lexsort, split where any key changes.
    """
    cols = [np.asarray(k) for k in keys]
    order = np.lexsort(cols[::-1])
    n = order.shape[0]
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for c in cols:
        c = c[order]
        change |= c[1:] != c[:-1]
    starts = np.flatnonzero(change) + 1
    return order, np.concatenate(([0], starts)) if n else starts


def level_sets(*keys) -> List[Tuple[tuple, np.ndarray]]:
    """Rows grouped by equal key tuples, as (key tuple, row indices) pairs.

    Keys are equal-length 1-D arrays, the first the most significant. Groups
    come in ascending key order and rows within a group in ascending order
    (see `level_set_runs`). Keys compare by value, so -0.0 and 0.0 share a
    group; NaN keys are not supported.
    """
    order, starts = level_set_runs(*keys)
    heads = order[starts]
    values = zip(*(np.asarray(k)[heads].tolist() for k in keys))
    bounds = starts.tolist() + [order.shape[0]]
    return [(key, order[s:e]) for key, s, e in zip(values, bounds, bounds[1:])]


def json_list(data, key: str, what: str) -> list:
    """The non-empty list of objects under `key` of a parsed JSON object;
    ValueError naming the field otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, found {type(data).__name__}")
    items = data.get(key)
    if not isinstance(items, list) or not all(isinstance(e, dict) for e in items):
        raise ValueError(f"{what}: field '{key}' must be a list of objects")
    if not items:
        raise ValueError(f"{what}: field '{key}' is empty")
    return items


def json_field(data, key: str, what: str):
    """data[key] of a parsed JSON object; ValueError naming `what` and the
    field when data is not an object or lacks the field."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, found {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{what}: field '{key}' is missing")
    return data[key]


def json_column(entries: list, key: str, what: str, ndims=(1,)) -> np.ndarray:
    """Field `key` of every entry of a `json_list` as one float array, of
    ndim 1 (a number per entry) or 2 (a non-empty list of numbers per entry,
    one length for all) as `ndims` allows; ValueError naming the first
    entry that breaks this otherwise."""
    try:
        col = np.array([e[key] for e in entries])
    except (KeyError, ValueError, TypeError, OverflowError):  # missing, ragged, huge
        col = None
    if (col is not None and col.dtype.kind in "biuf" and col.ndim in ndims
            and col.shape[-1] > 0):
        return col.astype(float)
    # the slow path only names the first entry that breaks the contract
    kind = " or ".join(("a number", "a list of numbers")[n - 1] for n in ndims)
    shape0 = _json_shape(entries[0].get(key))
    for i, e in enumerate(entries):
        where = f"{what}: entry {i}: field '{key}'"
        if key not in e:
            raise ValueError(f"{where} is missing")
        shape = _json_shape(e[key])
        if shape is None or len(shape) + 1 not in ndims:
            raise ValueError(f"{where} must be {kind}, found {json.dumps(e[key])[:40]}")
        if shape != shape0:
            raise ValueError(f"{where} has shape {shape}, entry 0 has {shape0}")
    raise ValueError(f"{what}: field '{key}' holds an integer too large for numpy")


def _json_shape(v):
    """() for a JSON number, (n,) for a non-empty list of numbers, else None."""
    if isinstance(v, (int, float)):
        return ()
    if isinstance(v, list) and v and all(isinstance(u, (int, float)) for u in v):
        return (len(v),)
    return None


def examples_to_json(x_a, x_b, y, seed=None) -> dict:
    """The `{"seed": s, "examples": [{"xa": […], "xb": […], "y": y}]}` file
    of three aligned arrays, one entry per row; no seed key when seed is None."""
    data = {} if seed is None else {"seed": seed}
    data["examples"] = [
        {"xa": a, "xb": b, "y": v}
        for a, b, v in zip(x_a.tolist(), x_b.tolist(), y.tolist())
    ]
    return data


def examples_from_json(data, what: str):
    """(x_a, x_b, y, seed) of a parsed `examples_to_json` file: "xa" and "xb"
    are lists of numbers, "y" a number or a list of numbers, the seed an
    integer (default 0); ValueError naming the entry and field otherwise."""
    entries = json_list(data, "examples", what)
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"{what}: field 'seed' must be an integer")
    return (json_column(entries, "xa", what, (2,)), json_column(entries, "xb", what, (2,)),
            json_column(entries, "y", what, (1, 2)), seed)


def _bucket(value: float, g: float, n: int) -> int:
    """1-based bucket of value for a width g that gives n buckets: bucket i =
    [(i-1)g, ig), the last closed at 1; `BucketingSpec` validates g."""
    i = int(math.floor(value / g)) + 1
    return min(max(i, 1), n)


def _frozen(x: np.ndarray) -> np.ndarray:
    """x itself when no array it views can be written, else a read-only copy of it.

    The one ownership rule of the package's value types and of the ridge
    bank: a read-only view of a writable array still changes with that
    array, so x is kept by reference only when it and every array in its
    `.base` chain are read-only (rows of a `SequenceDataset` are). Code that
    builds an array for such a type marks it read-only before handing it
    over, so that it is not copied again.
    """
    base = x
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is None:
        return x
    x = x.copy(order="K")
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class SequenceDataset:
    """T days of two parties' feature blocks and outcomes, with the generating seed.

    `x_a` (T, d_a), `x_b` (T, d_b) and `y` (T,) or (T, d) are read-only,
    C-ordered float copies, validated once: every feature row has Euclidean
    norm at most 1 and every label lies in [0,1]. Out-of-range inputs are
    rejected, naming the first bad day, never rescaled.
    """

    x_a: np.ndarray
    x_b: np.ndarray
    y: np.ndarray
    seed: int = 0

    def __post_init__(self):
        for name in ("x_a", "x_b", "y"):
            arr = np.array(getattr(self, name), dtype=float, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.x_a.ndim != 2 or self.x_b.ndim != 2 or self.y.ndim not in (1, 2):
            raise ValueError(f"expected x_a (T, d_a), x_b (T, d_b) and y (T,) or (T, d), found "
                             f"{self.x_a.shape}, {self.x_b.shape} and {self.y.shape}")
        T = self.y.shape[0]
        if T == 0:
            raise ValueError("dataset must contain at least one example")
        if self.x_a.shape[0] != T or self.x_b.shape[0] != T:
            raise ValueError(f"rows misaligned: x_a {self.x_a.shape[0]}, "
                             f"x_b {self.x_b.shape[0]}, y {T}")
        for name in ("x_a", "x_b"):
            norms = np.linalg.norm(getattr(self, name), axis=1)
            bad = ~(norms <= 1.0 + _NORM_TOL)
            if bad.any():
                t = int(np.argmax(bad))
                raise ValueError(f"day {t + 1}: ‖{name}‖₂ = {norms[t]:.6g} exceeds 1")
        bad = ~((self.y >= 0.0) & (self.y <= 1.0))
        bad = bad.any(axis=1) if bad.ndim == 2 else bad
        if bad.any():
            t = int(np.argmax(bad))
            raise ValueError(f"day {t + 1}: label y = {self.y[t].tolist()} outside [0,1]")

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def T(self) -> int:
        return self.y.shape[0]


class ConversationTranscript:
    """Per-day, per-round predictions plus outcomes for a T-day, K-round run.

    Round parity is fixed: odd rounds (1-based) belong to Alice, even rounds
    to Bob. Both arrays are read-only and owned as `_frozen` keeps them.
    """

    def __init__(self, predictions, outcomes):
        preds = np.asarray(predictions, dtype=float)
        outs = np.asarray(outcomes, dtype=float)
        if preds.ndim != 2:
            raise ValueError("predictions must be a T×K grid")
        if outs.shape != (preds.shape[0],):
            raise ValueError("outcomes must have one entry per day")
        if not (np.isfinite(preds).all() and np.isfinite(outs).all()):
            raise ValueError("transcript values must be finite")
        if preds.size and (preds.min() < -_NORM_TOL or preds.max() > 1.0 + _NORM_TOL):
            raise ValueError("predictions must lie in [0,1]")
        self.predictions = _frozen(preds)
        self.outcomes = _frozen(outs)

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
        # rows are joined in blocks, so the strings of all rows never exist
        # beside the text they make: half the peak memory of one join
        blocks = [f"{self.T} {self.K}\n"]
        for s in range(0, self.T, 512):
            blocks.append("".join([
                " ".join(map(repr, [float(y), *row.tolist()])) + "\n"
                for y, row in zip(self.outcomes[s:s + 512], self.predictions[s:s + 512])]))
        return "".join(blocks)

    @classmethod
    def from_text(cls, text: str) -> "ConversationTranscript":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty transcript text")
        header = lines[0].split()
        if len(header) != 2 or not all(h.isdecimal() for h in header):
            raise ValueError(f"transcript header must be two integers 'T K', found {lines[0]!r}")
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
        outs.setflags(write=False)
        preds.setflags(write=False)
        return cls(preds, outs)


@dataclass(frozen=True)
class BucketingSpec:
    """Bucket width g for conditioning plus grid size m for emitted predictions."""

    g: float
    m: int

    def __post_init__(self):
        if not (0.0 < self.g <= 1.0) or abs(round(1.0 / self.g) * self.g - 1.0) > _NORM_TOL:
            raise ValueError(f"1/g must be an integer, got g={self.g}")
        if self.m < 1:
            raise ValueError("grid size m must be ≥ 1")

    @property
    def n_buckets(self) -> int:
        return int(round(1.0 / self.g))

    def bucket_of(self, value: float) -> int:
        return _bucket(value, self.g, self.n_buckets)

    def bucket_ids(self, values: np.ndarray) -> np.ndarray:
        """1-based bucket of every value.

        Uses the same floor(v/g)+1 arithmetic as bucket_of, so metric
        subsequences agree with learner routing even when a value sits on a
        floating-point bucket boundary.
        """
        values = np.asarray(values, dtype=float)
        return np.clip(np.floor(values / self.g).astype(int) + 1, 1, self.n_buckets)


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
    for (v,), rows in level_sets(p):
        total += abs(float(np.sum(v - y[rows])))
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
    for _, rows in level_sets(p):
        bench += _best_level_error(None if x is None else x[rows], y[rows], benchmark)
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
    feats = None
    if benchmark != "constant":
        if inputs is None:
            raise ValueError("linear benchmark requires feature inputs")
        feats = np.asarray(inputs, dtype=float)
        if feats.ndim == 1:
            feats = feats[:, None]

    def audit(p, y, rows):
        return swap_regret(p, y, None if feats is None else feats[rows], benchmark)

    return _per_bucket(transcript, side, bucketing, audit)


def conversation_calibration_error(
    transcript: ConversationTranscript, side: str, bucketing: BucketingSpec
) -> Dict[Tuple[int, int], float]:
    """ECE of the side's round-k predictions on each counterparty bucket.

    Upper-bounds the calibration distance on each conditioned subsequence.
    """
    if transcript.K < 2:
        raise ValueError("conversation calibration needs K ≥ 2")
    return _per_bucket(transcript, side, bucketing, lambda p, y, _rows: ece(p, y))


def _per_bucket(transcript: ConversationTranscript, side: str, bucketing: BucketingSpec,
                audit) -> Dict[Tuple[int, int], float]:
    """audit(predictions, outcomes, rows) of the side's round k ≥ 2 on each
    counterparty bucket i, keyed (k, i); an empty bucket gives 0.0.
    """
    out: Dict[Tuple[int, int], float] = {}
    for k in transcript.rounds_of(side):
        if k < 2:
            continue
        preds_k = transcript.round_predictions(k)
        out.update(((k, i), 0.0) for i in range(1, bucketing.n_buckets + 1))
        buckets = bucketing.bucket_ids(transcript.round_predictions(k - 1))
        for (i,), rows in level_sets(buckets):
            out[(k, i)] = audit(preds_k[rows], transcript.outcomes[rows], rows)
    return out


def disagreement_fraction(transcript: ConversationTranscript, k: int, eps: float) -> float:
    """Fraction of days on which rounds k and k−1 differ by at least eps."""
    if not 2 <= k <= transcript.K:
        raise ValueError(f"round {k} needs 2 ≤ k ≤ K={transcript.K}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    diff = np.abs(transcript.round_predictions(k) - transcript.round_predictions(k - 1))
    return float(np.mean(diff >= eps))
