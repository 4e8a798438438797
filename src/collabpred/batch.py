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
The internal boosting passes refine on the finer 1/m² grid. Every level
set, in training, in replay and in the final swap-regret audit, comes from
`core.level_sets`: ascending level, rows in ascending order.

Every batch model is evaluated by `LinearModel.predict`, one dot-product
call per row, so a row's raw prediction has the same bits whichever rows
share the call. Replay runs the exchange on all points at once, grouped by
level sets as in training, and reproduces the training predictions bit
for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .core import examples_from_json, examples_to_json, grid_index, json_field, level_sets
from .weaklearn import LinearClassSpec, constrained_lsq

__all__ = [
    "BatchSample",
    "LinearModel",
    "LsqOracle",
    "InternalBoostTranscript",
    "BatchModelTranscript",
    "PredictionRound",
    "internal_boost",
    "cross_boost",
    "collaborate",
    "CollaborateResult",
    "replay_rounds",
    "eval_test_points",
    "final_swap_regret",
]

_FORMAT = "collabpred-batch-model"
_VERSION = 1


@dataclass(frozen=True)
class BatchSample:
    """Paired training rows; the two feature views share the row index.

    Unlike a `core.SequenceDataset`, features have no norm bound, a 1-D
    feature array is one row, and there is no seed; the file format is the
    same (`core.examples_to_json`). Features and labels must be finite.
    """

    x_a: np.ndarray
    x_b: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # C order: a row's dot product then has the same bits as the row's
        # copy in a level set, whatever layout the caller passed
        xa = np.ascontiguousarray(np.atleast_2d(np.asarray(self.x_a, dtype=float)))
        xb = np.ascontiguousarray(np.atleast_2d(np.asarray(self.x_b, dtype=float)))
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1:
            raise ValueError(f"batch labels must be one number per row, found shape {y.shape}")
        if xa.shape[0] != y.shape[0] or xb.shape[0] != y.shape[0]:
            raise ValueError("views must align on the row index")
        for key, col in (("xa", xa), ("xb", xb), ("y", y[:, None])):
            ok = np.isfinite(col).all(axis=1)
            if not ok.all():   # json reads NaN and Infinity
                raise ValueError(f"a batch sample: entry {ok.argmin()}: field '{key}' "
                                 "must be finite")
        object.__setattr__(self, "x_a", xa)
        object.__setattr__(self, "x_b", xb)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def to_json_dict(self) -> dict:
        return examples_to_json(self.x_a, self.x_b, self.y)

    @classmethod
    def from_json_dict(cls, data: dict) -> "BatchSample":
        x_a, x_b, y, _seed = examples_from_json(data, "a batch sample")
        return cls(x_a=x_a, x_b=x_b, y=y)


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

    def predict(self, X) -> np.ndarray:
        """Raw predictions on the rows of X, each from the BLAS dot call that
        `np.dot(x, coef)` makes (`X @ coef` and `einsum` sum in other orders)."""
        return np.vecdot(X, self.coef) + self.intercept

    def to_json_dict(self) -> dict:
        return {"coef": list(map(float, self.coef)), "intercept": float(self.intercept)}

    @classmethod
    def from_json_dict(cls, data: dict, what: str = "a batch model") -> "LinearModel":
        coef, b = np.array(json_field(data, "coef", what)), json_field(data, "intercept", what)
        if (coef.dtype.kind not in "biuf" or coef.ndim != 1
                or isinstance(b, bool) or not isinstance(b, (int, float))):
            raise ValueError(f"{what}: a linear model needs a list of numbers 'coef' "
                             "and a number 'intercept'")
        return cls(coef=coef.astype(float), intercept=float(b))


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


def _int_key(key: str, kind: str, what: str) -> int:
    """A round or level number stored as a JSON object key, spelled as str(int) writes it.

    int() also reads '01', ' 1' and '+1' as 1, so two keys of one object
    could name one round and the later would silently replace the earlier.
    """
    try:
        n = int(key)
    except ValueError:
        raise ValueError(f"{what}: {kind} key {key!r} is not an integer") from None
    if str(n) != key:
        raise ValueError(f"{what}: {kind} key {key!r} must be written {str(n)!r}")
    return n


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
    def from_json_dict(cls, data: dict, what: str = "a batch model") -> "InternalBoostTranscript":
        return cls(
            initial=LinearModel.from_json_dict(json_field(data, "initial", what),
                                               f"{what}, initial model"),
            phases=[
                {_int_key(v, "level", f"{what}, phase {i}"):
                 LinearModel.from_json_dict(mdl, f"{what}, phase {i}, level {v}")
                 for v, mdl in phase.items()}
                for i, phase in enumerate(json_field(data, "phases", what))
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

    def models(self):
        """Every linear model of the record: the round-0 fit, then each round's."""
        if self.initial is not None:
            yield self.initial
        for levels in self.rounds.values():
            for t in levels.values():
                if t is not None:
                    yield t.initial
                    for phase in t.phases:
                        yield from phase.values()

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
        if not isinstance(data, dict):
            raise ValueError(f"a batch model must be a JSON object, found {type(data).__name__}")
        if data.get("format") != _FORMAT:
            raise ValueError(f"not a batch model transcript: {data.get('format')!r}")
        if data.get("version") != _VERSION:
            raise ValueError(f"unsupported transcript version {data.get('version')!r}")
        m, total = data.get("m"), data.get("rounds_total")
        if type(m) is not int or m < 1 or type(total) is not int or total < 0:
            raise ValueError("a batch model: fields 'm' and 'rounds_total' must be integers "
                             "with m ≥ 1 and rounds_total ≥ 0")
        what = "a batch model"
        try:
            initial = json_field(data, "initial", what)
            out = cls(
                side=json_field(data, "side", what), m=m, rounds_total=total,
                initial=(None if initial is None
                         else LinearModel.from_json_dict(initial, f"{what}: initial model")),
            )
            for r, levels in json_field(data, "rounds", what).items():
                out.rounds[_int_key(r, "round", f"{what}: field 'rounds'")] = {
                    _int_key(v, "level", f"{what}: round {r}"): (
                        None if t is None else InternalBoostTranscript.from_json_dict(
                            t, f"{what}: round {r}, level {v}"))
                    for v, t in levels.items()
                }
        except (TypeError, AttributeError) as e:  # a list, number or string where an object belongs
            raise ValueError(f"a batch model: malformed entry ({e})") from None
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "BatchModelTranscript":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


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
    raw = initial.predict(X)
    err_prev = float(np.mean((raw - y) ** 2))
    cur_idx = grid_index(raw, m2)
    transcript = InternalBoostTranscript(initial=initial)

    phases = 0
    while True:
        models: Dict[int, LinearModel] = {}
        raw_new = np.empty(n)
        for (v_idx,), rows in level_sets(cur_idx):
            mdl = oracle.fit(X[rows], y[rows])
            models[v_idx] = mdl
            raw_new[rows] = mdl.predict(X[rows])
        err_new = float(np.mean((raw_new - y) ** 2))
        if err_prev - err_new < threshold:
            break  # failing phase is discarded
        transcript.phases.append(models)
        cur_idx = grid_index(raw_new, m2)
        err_prev = err_new
        phases += 1
        if phases > m2:
            raise RuntimeError("internal boosting exceeded its m² phase budget")
    return cur_idx, transcript, phases


def _internal_boost_replay(X, transcript: InternalBoostTranscript, m: int) -> np.ndarray:
    """Replay one internal-boost model on the rows of X; returns 1/m² grid indices."""
    m2 = m * m
    idx = grid_index(transcript.initial.predict(X), m2)
    for phase in transcript.phases:
        for (v_idx,), rows in level_sets(idx):
            mdl = phase.get(v_idx)
            # a level set unseen in training passes its value through
            if mdl is not None:
                idx[rows] = grid_index(mdl.predict(X[rows]), m2)
    return idx


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
    # an empty level set gets no entry, which replay treats as ⊥
    for (v_idx,), rows in level_sets(other_idx):
        v_val = v_idx / m
        ib_idx, ib_transcript, _ = internal_boost(X[rows], y[rows], oracle, m)
        deployed = grid_index(ib_idx / (m * m), m)
        err_const = float(np.mean((v_val - y[rows]) ** 2))
        err_model = float(np.mean((deployed / m - y[rows]) ** 2))
        if err_const - err_model > 1.0 / (m * m):
            levels[v_idx] = ib_transcript
            new_idx[rows] = deployed
        else:
            levels[v_idx] = None
            new_idx[rows] = v_idx
    return new_idx, levels


@dataclass
class CollaborateResult:
    transcript_a: BatchModelTranscript
    transcript_b: BatchModelTranscript
    rounds: int
    prediction_rounds: List[PredictionRound]
    m: int

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

    h0 = oracle_b.fit(X_b, y)
    p0 = grid_index(h0.predict(X_b), m)
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


def replay_rounds(sample: BatchSample, transcript_a: BatchModelTranscript,
                  transcript_b: BatchModelTranscript) -> np.ndarray:
    """Replay the trained exchange on every point of `sample` at once.

    Returns an (n, R+1) array of grid values whose column r is the
    prediction after round r, starting with Bob's round-0 value. Each round
    groups the points by the previous round's level sets, as training did.
    """
    if transcript_b.initial is None:
        raise ValueError("Bob's transcript is missing the round-0 model")
    if transcript_a.m != transcript_b.m:
        raise ValueError("transcripts disagree on the grid size")
    for name, transcript, X, key in (("Alice", transcript_a, sample.x_a, "xa"),
                                     ("Bob", transcript_b, sample.x_b, "xb")):
        for model in transcript.models():
            if model.coef.shape[0] != X.shape[1]:
                raise ValueError(f"{name}'s models take {model.coef.shape[0]} features, "
                                 f"but the points' '{key}' rows hold {X.shape[1]}")
    m = transcript_b.m
    R = transcript_b.rounds_total
    idx = np.empty((sample.n, R + 1), dtype=int)
    idx[:, 0] = grid_index(transcript_b.initial.predict(sample.x_b), m)
    for r in range(R):
        # Alice plays the odd rounds
        name, transcript, X = (("Alice", transcript_a, sample.x_a) if r % 2 == 0
                               else ("Bob", transcript_b, sample.x_b))
        levels = transcript.rounds.get(r + 1)
        if levels is None:
            raise ValueError(f"{name}'s transcript is missing round {r + 1}")
        idx[:, r + 1] = idx[:, r]
        for (v_idx,), rows in level_sets(idx[:, r]):
            entry = levels.get(v_idx)
            if entry is not None:  # ⊥ or an unseen level repeats the value
                idx[rows, r + 1] = grid_index(
                    _internal_boost_replay(X[rows], entry, m) / (m * m), m)
    return idx / m


def eval_test_points(sample: BatchSample, transcript_a: BatchModelTranscript,
                     transcript_b: BatchModelTranscript) -> np.ndarray:
    """Final replayed grid value of every point of `sample`."""
    return replay_rounds(sample, transcript_a, transcript_b)[:, -1]


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
    for _, rows in level_sets(values):
        fit_a = constrained_lsq(sample.x_a[rows], y[rows], spec=spec_a)
        fit_b = constrained_lsq(sample.x_b[rows], y[rows], spec=spec_b)
        bench += min(fit_a.error, fit_b.error)
    return (total - bench) / sample.n
