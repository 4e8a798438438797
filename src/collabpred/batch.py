"""Batch collaboration: alternating per-level-set boosting with replay.

Training alternates rounds in which one player boosts their predictions on
the level sets of the other player's current predictions, keeping a fitted
model for a level set only when it beats the counterparty's constant by
more than 1/m², and deferring (recording ⊥) otherwise. The per-round model
transcripts are self-contained: test-time evaluation replays the exchange
round by round and reproduces the training predictions bit for bit.

Communicated predictions always live on the {0, 1/m, …, 1} grid and are
stored internally as integer grid indices so that level sets and the
halting test (exact equality of consecutive prediction vectors) are exact.
The internal boosting passes refine on the finer 1/m² grid.

All predictions bound for a transcript are computed through one scalar
per-row code path, so training and replay cannot diverge in the low bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .core import grid_index, round_to_grid
from .learners import LinearClassSpec
from .weaklearn import constrained_lsq

__all__ = [
    "BatchSample",
    "LinearModel",
    "LsqOracle",
    "InternalBoostTranscript",
    "BatchModelTranscript",
    "PredictionRound",
    "round_fn",
    "internal_boost",
    "cross_boost",
    "collaborate",
    "CollaborateResult",
    "eval_test_point",
    "eval_test_points",
    "final_swap_regret",
]

_FORMAT = "collabpred-batch-model"
_VERSION = 1


@dataclass(frozen=True)
class BatchSample:
    """Paired training rows; the two feature views share the row index."""

    x_a: np.ndarray
    x_b: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        xa = np.atleast_2d(np.asarray(self.x_a, dtype=float))
        xb = np.atleast_2d(np.asarray(self.x_b, dtype=float))
        y = np.asarray(self.y, dtype=float)
        if xa.shape[0] != y.shape[0] or xb.shape[0] != y.shape[0]:
            raise ValueError("views must align on the row index")
        object.__setattr__(self, "x_a", xa)
        object.__setattr__(self, "x_b", xb)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "examples": [
                {"xa": list(map(float, self.x_a[i])),
                 "xb": list(map(float, self.x_b[i])),
                 "y": float(self.y[i])}
                for i in range(self.n)
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BatchSample":
        ex = data["examples"]
        return cls(
            x_a=np.array([e["xa"] for e in ex], dtype=float),
            x_b=np.array([e["xb"] for e in ex], dtype=float),
            y=np.array([e["y"] for e in ex], dtype=float),
        )


@dataclass(frozen=True)
class PredictionRound:
    """One player's grid predictions on the training rows at round r."""

    r: int
    indices: np.ndarray  # integer grid indices, value = idx / m
    m: int

    @property
    def values(self) -> np.ndarray:
        return self.indices / self.m


@dataclass
class LinearModel:
    coef: np.ndarray
    intercept: float

    def predict_row(self, x) -> float:
        # the one canonical scalar path used for every transcript-bound value
        return float(np.dot(x, self.coef)) + self.intercept

    def to_json_dict(self) -> dict:
        return {"coef": list(map(float, self.coef)), "intercept": float(self.intercept)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinearModel":
        return cls(coef=np.array(data["coef"], dtype=float), intercept=float(data["intercept"]))


class LsqOracle:
    """Squared-error regression oracle: the exact norm-bounded least-squares fit.

    `constrained_lsq` returns the closed-form fit when it meets the bound
    and otherwise the certified optimum on the bound.
    """

    def __init__(self, spec: LinearClassSpec):
        self.spec = spec

    def fit(self, x, y) -> LinearModel:
        fit = constrained_lsq(x, y, spec=self.spec)
        return LinearModel(coef=fit.theta, intercept=fit.intercept)


@dataclass
class InternalBoostTranscript:
    """Initial fitted model plus one per-level model map per committed phase."""

    initial: LinearModel
    phases: List[Dict[int, LinearModel]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "initial": self.initial.to_json_dict(),
            "phases": [
                {str(v): mdl.to_json_dict() for v, mdl in phase.items()}
                for phase in self.phases
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "InternalBoostTranscript":
        return cls(
            initial=LinearModel.from_json_dict(data["initial"]),
            phases=[
                {int(v): LinearModel.from_json_dict(mdl) for v, mdl in phase.items()}
                for phase in data["phases"]
            ],
        )


@dataclass
class BatchModelTranscript:
    """One player's model record across all rounds of a training run."""

    side: str
    m: int
    rounds_total: int = 0
    initial: Optional[LinearModel] = None  # Bob's round-0 global fit
    rounds: Dict[int, Dict[int, Optional[InternalBoostTranscript]]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "side": self.side,
            "m": self.m,
            "rounds_total": self.rounds_total,
            "initial": None if self.initial is None else self.initial.to_json_dict(),
            "rounds": {
                str(r): {
                    str(v): (None if t is None else t.to_json_dict())
                    for v, t in levels.items()
                }
                for r, levels in self.rounds.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BatchModelTranscript":
        if data.get("format") != _FORMAT:
            raise ValueError(f"not a batch model transcript: {data.get('format')!r}")
        if data.get("version") != _VERSION:
            raise ValueError(f"unsupported transcript version {data.get('version')!r}")
        out = cls(
            side=data["side"],
            m=int(data["m"]),
            rounds_total=int(data["rounds_total"]),
            initial=None if data["initial"] is None else LinearModel.from_json_dict(data["initial"]),
        )
        for r, levels in data["rounds"].items():
            out.rounds[int(r)] = {
                int(v): (None if t is None else InternalBoostTranscript.from_json_dict(t))
                for v, t in levels.items()
            }
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "BatchModelTranscript":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def round_fn(value: float, m: int) -> float:
    """Clip to [0,1] and round to the nearest multiple of 1/m; ties go down."""
    if m < 1:
        raise ValueError("grid size must be ≥ 1")
    return round_to_grid(value, m)


def internal_boost(x, y, oracle: LsqOracle, m: int):
    """Level-set boosting of one player's own predictions on the 1/m² grid.

    Repeats per-level-set regression until the unrounded ensemble error
    improves by less than 1/m², then discards the failing phase. Returns
    the output model's grid indices on the rows, the replayable transcript,
    and the number of committed phases.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n == 0:
        raise ValueError("empty sample")
    m2 = m * m
    threshold = 1.0 / m2

    initial = oracle.fit(X, y)
    raw = np.array([initial.predict_row(X[i]) for i in range(n)])
    err_prev = float(np.mean((raw - y) ** 2))
    cur_idx = np.array([grid_index(v, m2) for v in raw], dtype=int)
    transcript = InternalBoostTranscript(initial=initial)

    phases = 0
    while True:
        models: Dict[int, LinearModel] = {}
        raw_new = np.empty(n)
        for v_idx in np.unique(cur_idx):
            mask = cur_idx == v_idx
            mdl = oracle.fit(X[mask], y[mask])
            models[int(v_idx)] = mdl
            rows = np.where(mask)[0]
            for i in rows:
                raw_new[i] = mdl.predict_row(X[i])
        err_new = float(np.mean((raw_new - y) ** 2))
        if err_prev - err_new < threshold:
            break  # failing phase is discarded
        transcript.phases.append(models)
        cur_idx = np.array([grid_index(v, m2) for v in raw_new], dtype=int)
        err_prev = err_new
        phases += 1
        if phases > m2:
            raise RuntimeError("internal boosting exceeded its m² phase budget")
    return cur_idx, transcript, phases


def internal_boost_eval(x, transcript: InternalBoostTranscript, m: int) -> float:
    """Replay one internal-boost model on a single point; returns a 1/m² grid value."""
    m2 = m * m
    v_idx = grid_index(transcript.initial.predict_row(x), m2)
    for phase in transcript.phases:
        mdl = phase.get(int(v_idx))
        if mdl is None:
            # level set unseen in training: the ensemble passes the value through
            continue
        v_idx = grid_index(mdl.predict_row(x), m2)
    return v_idx / m2


def cross_boost(x, y, other_idx: np.ndarray, oracle: LsqOracle, m: int):
    """Boost on the counterparty's prediction level sets; keep or defer per set.

    For each level value v of the counterparty's predictions, runs
    internal_boost on the rows of that level set and keeps the resulting
    model only when its deployed (1/m-grid) error beats the constant v by
    more than 1/m²; otherwise the transcript records ⊥ and the player
    repeats v. Returns the player's new grid indices and the round
    transcript.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    new_idx = np.empty(n, dtype=int)
    levels: Dict[int, Optional[InternalBoostTranscript]] = {}
    for v_idx in range(m + 1):
        mask = other_idx == v_idx
        if not mask.any():
            continue  # empty level set: skipped, equivalent to ⊥ at replay
        rows = np.where(mask)[0]
        v_val = v_idx / m
        ib_idx, ib_transcript, _ = internal_boost(X[rows], y[rows], oracle, m)
        deployed = np.array(
            [grid_index(ib_idx[j] / (m * m), m) for j in range(len(rows))], dtype=int
        )
        err_const = float(np.mean((v_val - y[rows]) ** 2))
        err_model = float(np.mean((deployed / m - y[rows]) ** 2))
        if err_const - err_model > 1.0 / (m * m):
            levels[v_idx] = ib_transcript
            new_idx[rows] = deployed
        else:
            levels[v_idx] = None
            new_idx[rows] = v_idx
    return new_idx, levels


def cross_boost_eval(x, prev_value: float, levels, m: int) -> float:
    """Replay one cross-boost round on a single point; returns a 1/m grid value."""
    v_idx = grid_index(prev_value, m)
    entry = None if levels is None else levels.get(int(v_idx))
    if entry is None:
        return v_idx / m
    raw = internal_boost_eval(x, entry, m)
    return grid_index(raw, m) / m


@dataclass
class CollaborateResult:
    transcript_a: BatchModelTranscript
    transcript_b: BatchModelTranscript
    rounds: int
    prediction_rounds: List[PredictionRound]
    m: int

    @property
    def final_indices(self) -> np.ndarray:
        return self.prediction_rounds[-1].indices

    @property
    def final_values(self) -> np.ndarray:
        return self.prediction_rounds[-1].values


def collaborate(sample: BatchSample, oracle_a: LsqOracle, oracle_b: LsqOracle,
                m: int) -> CollaborateResult:
    """Alternating cross-boosting until consecutive prediction vectors agree.

    Bob opens with his rounded global fit; Alice plays the odd rounds. The
    run halts as soon as a round reproduces the previous round's training
    predictions exactly, which also certifies that the two final models
    agree on every training row.
    """
    if m < 1:
        raise ValueError("grid size must be ≥ 1")
    X_a, X_b, y = sample.x_a, sample.x_b, sample.y
    n = sample.n

    h0 = oracle_b.fit(X_b, y)
    p0 = np.array([grid_index(h0.predict_row(X_b[i]), m) for i in range(n)], dtype=int)
    transcript_a = BatchModelTranscript(side="alice", m=m)
    transcript_b = BatchModelTranscript(side="bob", m=m, initial=h0)
    rounds = [PredictionRound(r=0, indices=p0, m=m)]

    r = 0
    while True:
        if r % 2 == 0:  # Alice boosts against Bob's current predictions
            new_idx, levels = cross_boost(X_a, y, rounds[r].indices, oracle_a, m)
            transcript_a.rounds[r + 1] = levels
        else:
            new_idx, levels = cross_boost(X_b, y, rounds[r].indices, oracle_b, m)
            transcript_b.rounds[r + 1] = levels
        rounds.append(PredictionRound(r=r + 1, indices=new_idx, m=m))
        r += 1
        if np.array_equal(rounds[r].indices, rounds[r - 1].indices):
            break
        if r > m * m + 1:
            raise RuntimeError(
                "collaboration failed to halt within m²+1 rounds; "
                "this indicates an implementation bug"
            )
    transcript_a.rounds_total = r
    transcript_b.rounds_total = r
    return CollaborateResult(
        transcript_a=transcript_a,
        transcript_b=transcript_b,
        rounds=r,
        prediction_rounds=rounds,
        m=m,
    )


def eval_test_point(x_a, x_b, transcript_a: BatchModelTranscript,
                    transcript_b: BatchModelTranscript, trace=None) -> float:
    """Replay the trained exchange on one fresh point; returns a grid value.

    Pass a list as `trace` to collect the prediction of every round,
    starting with the round-0 value.
    """
    if transcript_b.initial is None:
        raise ValueError("Bob's transcript is missing the round-0 model")
    if transcript_a.m != transcript_b.m:
        raise ValueError("transcripts disagree on the grid size")
    m = transcript_b.m
    R = transcript_b.rounds_total
    yhat = grid_index(transcript_b.initial.predict_row(x_b), m) / m
    if trace is not None:
        trace.append(yhat)
    r = 0
    while r < R:
        if r % 2 == 0:
            levels = transcript_a.rounds.get(r + 1)
            if levels is None:
                raise ValueError(f"Alice's transcript is missing round {r + 1}")
            yhat = cross_boost_eval(x_a, yhat, levels, m)
        else:
            levels = transcript_b.rounds.get(r + 1)
            if levels is None:
                raise ValueError(f"Bob's transcript is missing round {r + 1}")
            yhat = cross_boost_eval(x_b, yhat, levels, m)
        if trace is not None:
            trace.append(yhat)
        r += 1
    return yhat


def eval_test_points(sample: BatchSample, transcript_a: BatchModelTranscript,
                     transcript_b: BatchModelTranscript) -> np.ndarray:
    return np.array([
        eval_test_point(sample.x_a[i], sample.x_b[i], transcript_a, transcript_b)
        for i in range(sample.n)
    ])


def final_swap_regret(values: np.ndarray, sample: BatchSample,
                      spec_a: LinearClassSpec, spec_b: LinearClassSpec) -> float:
    """Mean swap regret of grid predictions against the union of both classes.

    On each level set the benchmark is the better of the two one-sided
    constrained least-squares fits.
    """
    values = np.asarray(values, dtype=float)
    y = sample.y
    total = float(np.sum((values - y) ** 2))
    bench = 0.0
    for v in np.unique(values):
        mask = values == v
        fit_a = constrained_lsq(sample.x_a[mask], y[mask], spec=spec_a)
        fit_b = constrained_lsq(sample.x_b[mask], y[mask], spec=spec_b)
        bench += min(fit_a.error, fit_b.error)
    return (total - bench) / sample.n
