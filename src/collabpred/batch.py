"""Batch collaboration: alternating per-level-set boosting with replay.

Training alternates rounds in which one player boosts their predictions on
the level sets of the other player's current predictions, keeping a fitted
model for a level set only when it beats the counterparty's constant by
more than 1/m², and deferring (recording ⊥) otherwise. The per-round model
transcripts are self-contained: test-time evaluation replays the exchange
round by round.

Communicated predictions always live on the {0, 1/m, …, 1} grid and are
stored internally as integer grid indices so that level sets and the
halting test (exact equality of consecutive prediction vectors) are exact.
The internal boosting passes refine on the finer 1/m² grid. Every level
set, in training, in replay and in the final swap-regret audit, comes from
`core.level_sets`: ascending level, rows in ascending order.

Every batch model is evaluated by `LinearModel.predict`, one dot-product
call per row, so a row's raw prediction has the same bits whichever rows
share the call. Training plays each round through the replay step:
`_play_round` turns a round's level records into the player's next
indices in `cross_boost` and in `replay_rounds`, and `_phase_raw` applies
a boosting phase in `internal_boost` and in the replay of its record. So
replay, which runs the exchange on all points at once, reproduces the
training predictions bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .core import (ALICE, BOB, Field, _frozen, check_field, examples_from_json,
                   examples_to_json, grid_index, level_sets, read_section, swap_regret)
from .weaklearn import LinearClassSpec, constrained_lsq

__all__ = [
    "BatchSample",
    "LinearModel",
    "LsqOracle",
    "InternalBoostTranscript",
    "BatchModelTranscript",
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
    same (`core.examples_to_json`). Features and labels must be finite. The
    arrays are read-only and owned as `core._frozen` keeps them.
    """

    x_a: np.ndarray
    x_b: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # C order: a row's dot product then has the same bits as the row's
        # copy in a level set, whatever layout the caller passed
        xa = _frozen(np.ascontiguousarray(np.atleast_2d(np.asarray(self.x_a, dtype=float))))
        xb = _frozen(np.ascontiguousarray(np.atleast_2d(np.asarray(self.x_b, dtype=float))))
        y = _frozen(np.asarray(self.y, dtype=float))
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
        c = read_section(data, "linear model", what)
        return cls(coef=np.array(c["coef"], dtype=float), intercept=c["intercept"])


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
        c = read_section(data, "boost record", what)
        return cls(
            initial=LinearModel.from_json_dict(c["initial"], f"{what}, initial model"),
            phases=[
                {_int_key(v, "level", f"{what}, phase {i}"):
                 LinearModel.from_json_dict(mdl, f"{what}, phase {i}, level {v}")
                 for v, mdl in phase.items()}
                for i, phase in enumerate(c["phases"])
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
        what = "a batch model"
        c = read_section(data, "batch model", what)
        for f, allowed in (("format", (_FORMAT,)), ("version", (_VERSION,)),
                           ("side", (ALICE, BOB))):
            if c[f] not in allowed:
                raise ValueError(f"{what}: field '{f}' must be {' or '.join(map(repr, allowed))}, "
                                 f"found {c[f]!r}")
        out = cls(side=c["side"], m=c["m"], rounds_total=c["rounds_total"],
                  initial=(None if c["initial"] is None
                           else LinearModel.from_json_dict(c["initial"], f"{what}: initial model")))
        for r, levels in c["rounds"].items():
            out.rounds[_int_key(r, "round", f"{what}: field 'rounds'")] = {
                _int_key(v, "level", f"{what}: round {r}"): (
                    None if t is None else InternalBoostTranscript.from_json_dict(
                        t, f"{what}: round {r}, level {v}"))
                for v, t in check_field(levels, Field("object"), f"{what}: field 'rounds'",
                                        r).items()
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


def _phase_raw(X, idx, phase: Dict[int, LinearModel], m2: int) -> np.ndarray:
    """Raw predictions of one boosting phase on the rows of X.

    Each level set of the 1/m² grid indices `idx` is predicted by its model
    of `phase`; a level without one passes its value idx/m² through, which
    `grid_index` maps back to idx.
    """
    raw = idx / m2
    for (v_idx,), rows in level_sets(idx):
        mdl = phase.get(v_idx)
        if mdl is not None:
            raw[rows] = mdl.predict(X[rows])
    return raw


def _boost_replay(X, transcript: InternalBoostTranscript, m: int) -> np.ndarray:
    """Replay one internal-boost record on the rows of X; returns 1/m-grid indices."""
    m2 = m * m
    idx = grid_index(transcript.initial.predict(X), m2)
    for phase in transcript.phases:
        idx = grid_index(_phase_raw(X, idx, phase, m2), m2)
    return grid_index(idx / m2, m)


def _play_round(X, prev_idx: np.ndarray, levels: Dict[int, Optional[InternalBoostTranscript]],
                m: int) -> np.ndarray:
    """One player's 1/m-grid indices after a round, on the rows of X.

    Each level set of the counterparty's indices `prev_idx` replays its
    level's internal-boost record; a level recorded as ⊥ or missing keeps
    its value.
    """
    new_idx = prev_idx.copy()
    for (v_idx,), rows in level_sets(prev_idx):
        entry = levels.get(v_idx)
        if entry is not None:
            new_idx[rows] = _boost_replay(X[rows], entry, m)
    return new_idx


def internal_boost(x, y, oracle: LsqOracle, m: int):
    """Level-set boosting of one player's own predictions on the 1/m² grid.

    Repeats per-level-set regression until the unrounded ensemble error
    improves by less than 1/m², then discards the failing phase. Returns
    the output model's grid indices on the rows and the replayable
    transcript.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.shape[0] == 0:
        raise ValueError("empty sample")
    m2 = m * m

    initial = oracle.fit(X, y)
    raw = initial.predict(X)
    err_prev = float(np.mean((raw - y) ** 2))
    idx = grid_index(raw, m2)
    transcript = InternalBoostTranscript(initial=initial)
    while True:
        models = {v_idx: oracle.fit(X[rows], y[rows]) for (v_idx,), rows in level_sets(idx)}
        raw = _phase_raw(X, idx, models, m2)
        err_new = float(np.mean((raw - y) ** 2))
        if err_prev - err_new < 1.0 / m2:
            break  # failing phase is discarded
        transcript.phases.append(models)
        idx = grid_index(raw, m2)
        err_prev = err_new
        if len(transcript.phases) > m2:
            raise RuntimeError("internal boosting exceeded its m² phase budget")
    return idx, transcript


def cross_boost(x, y, other_idx: np.ndarray, oracle: LsqOracle, m: int):
    """Boost on the counterparty's prediction level sets; keep or defer per set.

    For each level value v of the counterparty's predictions, runs
    internal_boost on the rows of that level set and keeps the resulting
    model only when its deployed (1/m-grid) error beats the constant v by
    more than 1/m²; otherwise the transcript records ⊥ and the player
    repeats v. Returns the player's new grid indices, played from the round
    transcript as replay plays them, and the round transcript.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    levels: Dict[int, Optional[InternalBoostTranscript]] = {}
    # an empty level set gets no entry, which replay treats as ⊥
    for (v_idx,), rows in level_sets(other_idx):
        ib_idx, ib_transcript = internal_boost(X[rows], y[rows], oracle, m)
        deployed = grid_index(ib_idx / (m * m), m)
        err_const = float(np.mean((v_idx / m - y[rows]) ** 2))
        err_model = float(np.mean((deployed / m - y[rows]) ** 2))
        levels[v_idx] = ib_transcript if err_const - err_model > 1.0 / (m * m) else None
    return _play_round(X, other_idx, levels, m), levels


@dataclass
class CollaborateResult:
    """The two model transcripts and the training rows' grid indices, (n, R+1):
    column r holds the predictions after round r, starting with Bob's round-0 fit."""

    transcript_a: BatchModelTranscript
    transcript_b: BatchModelTranscript
    indices: np.ndarray  # value = idx / m
    m: int

    @property
    def rounds(self) -> int:
        return self.indices.shape[1] - 1

    @property
    def final_values(self) -> np.ndarray:
        return self.indices[:, -1] / self.m


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
    transcript_a = BatchModelTranscript(side=ALICE, m=m)
    transcript_b = BatchModelTranscript(side=BOB, m=m, initial=h0)
    indices = [grid_index(h0.predict(X_b), m)]
    while True:
        r = len(indices)
        # Alice boosts against Bob's current predictions in the odd rounds
        X, oracle, transcript = ((X_a, oracle_a, transcript_a) if r % 2
                                 else (X_b, oracle_b, transcript_b))
        new_idx, transcript.rounds[r] = cross_boost(X, y, indices[-1], oracle, m)
        indices.append(new_idx)
        if np.array_equal(new_idx, indices[-2]):
            break
        if r > m * m + 1:
            raise RuntimeError(
                "collaboration failed to halt within m²+1 rounds; "
                "this indicates an implementation bug"
            )
    transcript_a.rounds_total = transcript_b.rounds_total = r
    return CollaborateResult(transcript_a=transcript_a, transcript_b=transcript_b,
                             indices=np.column_stack(indices), m=m)


def replay_rounds(sample: BatchSample, transcript_a: BatchModelTranscript,
                  transcript_b: BatchModelTranscript) -> np.ndarray:
    """Replay the trained exchange on every point of `sample` at once.

    Returns an (n, R+1) array of grid values whose column r is the
    prediction after round r, starting with Bob's round-0 value. Each round
    is `_play_round`, the step training played.
    """
    what = "a batch model"
    if (transcript_a.side, transcript_b.side) != (ALICE, BOB):
        raise ValueError(f"{what}: field 'side' must be 'alice' in the first file and 'bob' in "
                         f"the second, found {transcript_a.side!r} then {transcript_b.side!r}")
    for f in ("rounds_total", "m"):
        if getattr(transcript_a, f) != getattr(transcript_b, f):
            raise ValueError(f"{what}: field '{f}' must be the same in Alice's and Bob's files, "
                             f"found {getattr(transcript_a, f)} then {getattr(transcript_b, f)}")
    if transcript_b.initial is None:
        raise ValueError(f"{what}: field 'initial' must hold Bob's round-0 model, found null")
    m = transcript_b.m
    R = transcript_b.rounds_total
    for name, transcript, X, key, parity in (("Alice", transcript_a, sample.x_a, "xa", 1),
                                             ("Bob", transcript_b, sample.x_b, "xb", 0)):
        for r in transcript.rounds:
            if not (0 < r <= R and r % 2 == parity):
                raise ValueError(f"{what}: field 'rounds' must hold only {name}'s rounds, the "
                                 f"{('even', 'odd')[parity]} ones up to {R}, found round {r}")
        for model in transcript.models():
            if model.coef.shape[0] != X.shape[1]:
                raise ValueError(f"{what}: field 'coef' must hold {X.shape[1]} numbers, one per "
                                 f"'{key}' column of the points, found {model.coef.shape[0]} in "
                                 f"{name}'s models")
    idx = np.empty((sample.n, R + 1), dtype=int)
    idx[:, 0] = grid_index(transcript_b.initial.predict(sample.x_b), m)
    for r in range(1, R + 1):
        # Alice plays the odd rounds
        name, transcript, X = (("Alice", transcript_a, sample.x_a) if r % 2
                               else ("Bob", transcript_b, sample.x_b))
        levels = transcript.rounds.get(r)
        if levels is None:
            raise ValueError(f"{what}: field 'rounds' must hold every one of {name}'s rounds up "
                             f"to {R}, found no round {r}")
        idx[:, r] = _play_round(X, idx[:, r - 1], levels, m)
    return idx / m


def eval_test_points(sample: BatchSample, transcript_a: BatchModelTranscript,
                     transcript_b: BatchModelTranscript) -> np.ndarray:
    """Final replayed grid value of every point of `sample`."""
    return replay_rounds(sample, transcript_a, transcript_b)[:, -1]


def final_swap_regret(values: np.ndarray, sample: BatchSample,
                      spec_a: LinearClassSpec, spec_b: LinearClassSpec) -> float:
    """Mean swap regret of grid predictions against the union of both classes:
    `core.swap_regret`, which on each level set takes the better of the two
    one-sided constrained least-squares fits."""
    return swap_regret(values, sample.y, (sample.x_a, sample.x_b), (spec_a, spec_b)) / sample.n
