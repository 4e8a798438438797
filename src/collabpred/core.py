"""Domain types and sequence-level error/regret/calibration metrics.

A `SequenceDataset` is columnar: feature blocks x_a (T, d_a) and x_b (T, d_b)
and labels y (T,) or (T, d) as read-only, C-ordered float arrays, validated
once. Dataset files and batch samples share one column-wise codec,
`examples_to_json` / `examples_from_json`, for the format
{"seed": s, "examples": [{"xa": […], "xb": […], "y": y}]}; `read_examples`
reads such a file straight into the arrays `examples_from_json` returns.

`SECTIONS` is the one field table of every JSON object `collab` reads:
config sections, generator `params`, and the headers of examples, policies,
prior, atoms and batch model files. `read_section` is its one reader, and a
bad field is a ValueError `<where>: field '<f>' must …, found <v>`.

All metrics here are pure functions of transcripts: no incremental state,
safe to call concurrently. Level sets are taken over exact floating-point
equality of realized prediction values, so learners are expected to emit
grid values.

`level_sets`, with its run form `level_set_runs`, is the package's one
grouping primitive (audits, batch boosting, Bayes enumeration). Its rows come
in ascending order, so `a[rows]` equals `a[key == v]` and every reduction
keeps the bits of a boolean-mask loop. On it rest every family's one
swap-regret audit, `swap_regret`, and one conditioning loop, `conditioned`.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from numpy._core.umath import clip as _clip  # the ufunc np.clip calls; see _grid

__all__ = [
    "SequenceDataset",
    "ConversationTranscript",
    "BucketingSpec",
    "round_to_grid",
    "grid_index",
    "GRID_MAX",
    "level_sets",
    "level_set_runs",
    "ordered_sum",
    "Field",
    "SECTIONS",
    "check_field",
    "read_section",
    "json_column",
    "examples_to_json",
    "examples_from_json",
    "read_examples",
    "sqe",
    "ece",
    "swap_regret",
    "own_rounds",
    "conditioned",
    "conversation_swap_regret",
    "conversation_calibration_error",
    "disagreement_fraction",
    "round_table",
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
    an expert pool's few hundred forecasts, and the steps after the first run
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


# the largest grid size m of every family: `grid_index` maps j/m back to j
# for every j at every m up to here, and j/m² back to j on batch's 1/m² grid
GRID_MAX = 2000


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


REQUIRED = object()   # the default of a field a section must give


class Field(NamedTuple):
    """A field's kind, default and, for a number, range from `lo` to `hi`
    (None: unbounded), both ends open or both closed. Kinds: int, float
    (finite), width (a bucket width g, see `_whole_buckets`), bool, path (a
    string), object (a JSON object), objects (a list of objects) and numbers
    (a list of finite numbers), whose `lo` is their least length, names (a
    list of strings), matrix (a non-empty list of equal-length, non-empty
    lists of finite numbers), choice (one of `values`, a bool never equal to
    a number), and any (checked where read: a dispatch field, whose choice
    picks the section to read, or a polymorphic `data` or `prior`).
    A path, object or names may be null, meaning absent, when its default is None."""

    kind: str
    default: object = REQUIRED
    lo: Optional[float] = None
    hi: Optional[float] = None
    open: bool = False
    values: tuple = ()


def _finite(v) -> bool:
    """Whether v is a JSON number with a finite float value (an int past
    the float range has none)."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _whole_buckets(g) -> bool:
    """Whether n = 1/g is a whole number (to _NORM_TOL) with 1 ≤ n ≤ GRID_MAX;
    the range comes first, so `round` never meets the inf of a subnormal g."""
    return 1.0 / (GRID_MAX + 0.5) < g <= 1.0 and abs(round(1.0 / g) * g - 1.0) <= _NORM_TOL


_WIDTH = f"a bucket width 1/n, n a whole number in [1,{GRID_MAX}]"

# kind -> (whether a value is of the kind, given its Field; what it must be)
_KINDS = {
    "int": (lambda v, s: type(v) is int or type(v) is float and v.is_integer(), "an integer"),
    "float": (lambda v, s: _finite(v), "a number"),
    "width": (lambda v, s: _finite(v) and _whole_buckets(v), _WIDTH),
    "bool": (lambda v, s: type(v) is bool, "true or false"),
    "path": (lambda v, s: type(v) is str or v is None and s.default is None, "a file path"),
    "object": (lambda v, s: type(v) is dict or v is None and s.default is None, "a JSON object"),
    "objects": (lambda v, s: type(v) is list and len(v) >= (s.lo or 0)
                and all(type(e) is dict for e in v), "a list of objects"),
    "numbers": (lambda v, s: type(v) is list and len(v) >= (s.lo or 0) and all(map(_finite, v)),
                "a list of finite numbers"),
    "names": (lambda v, s: type(v) is list and all(type(e) is str for e in v)
              or v is None and s.default is None, "a list of names"),
    "matrix": (lambda v, s: type(v) is list and v and type(v[0]) is list and v[0]
               and all(type(r) is list and len(r) == len(v[0]) and all(map(_finite, r))
                       for r in v),
               "a non-empty list of equal-length, non-empty lists of finite numbers"),
    "choice": (lambda v, s: any(v == c and (type(v) is bool) == (type(c) is bool)
                                for c in s.values), "one of"),
}

_M, _OUT = Field("int", REQUIRED, 1, GRID_MAX), Field("path", None)
_SEED = Field("int", REQUIRED, 0)   # numpy's default_rng takes no negative seed
_EPS = Field("float", REQUIRED, 0, 1, open=True)
_A = Field("float", 1.0, 0, open=True)
_RHO = Field("float", None, 1)
_ENTRIES = Field("objects", lo=1)
# a generator's dimension: an emitted feature block (one more, for the constant
# coordinate) stays within the d = 65 the learners' kernel identities cover
_D = Field("int", None, 1, 64)
# a signal (θ's norm) or noise scale: labels clip long before 10⁶, and products stay finite
_SCALE = Field("float", None, 0, 1e6)

# section -> field -> spec: every JSON object `collab` reads. The learner
# sections are keyed "<kind> learner" (a bank kind's fixed arguments are in
# `learners.BANK_KINDS`), and a generator's `params` "<generator> params",
# where an absent parameter takes the generator's default. A "*" row lets
# fields of any other name pass unread.
SECTIONS = {
    "online config": {
        "mode": Field("any"), "seed": _SEED, "days": Field("int", REQUIRED, 1),
        "rounds": Field("int", REQUIRED, 2), "eps": _EPS, "dataset": Field("object"),
        "alice": Field("object"), "bob": Field("object"), "bucketing": Field("object", {}),
        "C": Field("float", 1.0, 0.5), "solo_baselines": Field("bool", False),
        "out": _OUT, "transcript": _OUT, "csv": _OUT,
    },
    "bucketing": {"g": Field("width", 0.1), "m": Field("int", 10, 1, GRID_MAX)},
    "dataset": {"generator": Field("any"), "days": Field("int", None, 1),
                "params": Field("object", {})},
    "dataset file": {"path": Field("path")},
    "constant learner": {"kind": Field("any"), "value": Field("float", 0.5, 0, 1)},
    "vaw learner": {"kind": Field("any"), "a": _A},
    "swap learner": {"kind": Field("any"), "a": _A, "m": Field("int", 10, 1, GRID_MAX)},
    "conversation learner": {"kind": Field("any"), "a": _A, "m": Field("int", 10, 1, GRID_MAX),
                             "g": Field("width", 0.1)},
    "batch config": {
        "mode": Field("any"), "seed": _SEED, "m": _M, "data": Field("any"),
        "C": Field("float", 1.0, 0.5), "out": _OUT, "out_model_a": _OUT, "out_model_b": _OUT,
    },
    "batch data": {"n": Field("int", 1000, 1), "params": Field("object", {})},
    "decision config": {
        "mode": Field("any"), "seed": _SEED, "days": Field("int", REQUIRED, 1),
        "rounds": Field("int", REQUIRED, 2), "task": Field("object"),
        "dataset": Field("object", None), "out": _OUT, "policies": _OUT,
    },
    "task": {"utility": Field("matrix"), "d": Field("int", None, 1),
             "actions": Field("names", None)},
    "bayes config": {
        "mode": Field("any"), "seed": _SEED, "rounds": Field("int", REQUIRED, 1),
        "m": _M, "eps": Field("float", 0.1, 0, 1, open=True), "prior": Field("any"),
        "out": _OUT,
    },
    "prior": {"path": Field("path", None), "rho": _RHO},
    "report": {"eps": _EPS, "g": Field("width"), "m": _M},
    # generator parameters
    "additive-linear-noise params": {"d_a": _D, "d_b": _D, "signal_a": _SCALE,
                                     "signal_b": _SCALE, "noise": _SCALE},
    "batch-additive params": {"d_a": _D, "d_b": _D, "signal_a": _SCALE, "signal_b": _SCALE},
    "d-rho params": {"rho": _RHO},
    "xor params": {}, "swap-necessity params": {},
    "decision-iid params": {"d": _D},
    # files; per-entry data (examples, atoms, policies) is read column-wise
    "examples file": {"seed": Field("int", 0), "examples": _ENTRIES, "*": Field("any", None)},
    "policies file": {"policies": Field("object")},
    "prior file": {"atoms": _ENTRIES, "encoding": Field("object", {})},
    "prior encoding": {"a": Field("object", {}), "b": Field("object", {})},
    "atoms file": {"atoms": _ENTRIES},
    "batch model": {
        "format": Field("choice", values=("collabpred-batch-model",)),
        "version": Field("choice", values=(1,)), "side": Field("choice", values=(ALICE, BOB)),
        "m": _M, "rounds_total": Field("int", REQUIRED, 0), "initial": Field("object", None),
        "rounds": Field("object"),
    },
    "boost record": {"initial": Field("object"), "phases": Field("objects")},
    "linear model": {"coef": Field("numbers", lo=1), "intercept": Field("float")},
}


def _shown(v, width: int = 40) -> str:
    """v's JSON for an error message, cut at `width` characters; a longer
    list shows the whole items that fit, a long float to 3 significant
    digits, and its item count."""
    text = json.dumps(v)
    if len(text) <= width or type(v) is not list:
        return text[:width]
    items, used = [], 2
    for e in v:
        item = json.dumps(e)
        item = f"{e:.3g}…" if type(e) is float and len(item) > 8 else item
        used += len(item) + 2
        if used > width:
            items.append("…")
            break
        items.append(item)
    kind = "numbers" if all(type(e) in (int, float) for e in v) else "items"
    return f"[{', '.join(items)}] ({len(v)} {kind})"


def check_field(v, spec: Field, where: str, name: str):
    """v as a value of `spec` (an int or float kind's as int or float); a
    ValueError `<where>: field '<name>' must …, found <v>` otherwise."""
    if spec.kind == "any":
        return v
    test, what = _KINDS[spec.kind]
    if spec.lo and spec.kind in ("objects", "numbers"):
        what = "a non-empty" + what[1:]
    if spec.kind == "choice":
        what = f"{what} {', '.join(map(json.dumps, spec.values))}"
    if not test(v, spec):
        raise ValueError(f"{where}: field '{name}' must be {what}, found {_shown(v)}")
    if spec.kind not in ("int", "float", "width"):
        return v
    lo, hi, closed = spec.lo, spec.hi, not spec.open
    if not ((lo is None or v > lo or closed and v == lo)
            and (hi is None or v < hi or closed and v == hi)):
        ends = "[]" if closed else "()"
        must = (f"lie in {ends[0]}{lo},{hi}{ends[1]}" if hi is not None
                else f"be {'at least' if closed else 'greater than'} {lo}")
        raise ValueError(f"{where}: field '{name}' must {must}, found {_shown(v)}")
    return int(v) if spec.kind == "int" else float(v)


def read_section(data, section: str, where: Optional[str] = None) -> dict:
    """Every field of `SECTIONS[section]`: its value in the JSON object
    `data`, checked, or its default when absent. A missing required field,
    an unknown one or a bad value is a ValueError naming it; `where` (the
    section's name by default) begins each message."""
    where = where or section
    table = SECTIONS[section]
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, found {type(data).__name__}")
    for f, spec in table.items():
        if spec.default is REQUIRED and f not in data:
            raise ValueError(f"{where}: field '{f}' is missing")
    unknown = [f for f in data if f not in table and "*" not in table]
    if unknown:
        raise ValueError(f"{where}: unknown field '{unknown[0]}'")
    return {f: check_field(data[f], spec, where, f) if f in data else spec.default
            for f, spec in table.items()}


def json_column(entries: list, key: str, what: str, ndims=(1,)) -> np.ndarray:
    """Field `key` of every entry of a non-empty list of objects as one float array, of
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
            raise ValueError(f"{where} must be {kind}, found {_shown(e[key])}")
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
    c = read_section(data, "examples file", what)
    entries = c["examples"]
    return (json_column(entries, "xa", what, (2,)), json_column(entries, "xb", what, (2,)),
            json_column(entries, "y", what, (1, 2)), c["seed"])


class _Irregular(Exception):
    """A file that `read_examples` leaves to `examples_from_json`."""


def _short_int(literal: str) -> int:
    # a float64 holds every integer of up to 15 digits exactly; numpy reads
    # longer ones by column (int64, uint64 or an error), not by value
    if len(literal) > 15:
        raise _Irregular
    return int(literal)


def read_examples(fh, what: str):
    """examples_from_json(json.load(fh), what), the same arrays bit for bit,
    without the parsed tree.

    As the parser closes an object with "xa", "xb" and "y", its numbers go
    into three float buffers and a marker takes its place. On anything
    irregular (a width unlike entry 0's or empty, a value that is not a
    number or a list of numbers, a "y" that switches between number and
    list, an integer literal of more than 15 characters, such an object
    outside the "examples" list) the file is read again from where it
    started, through `examples_from_json`, which names the error. JSON
    syntax errors propagate.
    """
    start = fh.tell()
    columns = _read_columns(fh)
    if columns is None:
        fh.seek(start)
        return examples_from_json(json.load(fh), what)
    return columns


def _read_columns(fh):
    """`read_examples`'s one pass: its result, or None when the file is irregular."""
    marker = object()
    xa, xb, y = array("d"), array("d"), array("d")
    add_a, add_b, add_y = xa.extend, xb.extend, None
    da = db = dy = None   # entry 0's widths; dy is None for a number "y"

    def add_row(v):
        if len(v) != dy:
            raise _Irregular
        y.extend(v)

    def entry(e):
        nonlocal da, db, dy, add_y
        try:
            a, b, v = e["xa"], e["xb"], e["y"]
        except KeyError:
            return e
        if len(a) != da or len(b) != db:
            if da is not None or not (a and b):
                raise _Irregular
            da, db = len(a), len(b)
            dy = len(v) if type(v) is list else None
            if dy == 0:
                raise _Irregular
            add_y = y.append if dy is None else add_row
        add_a(a)
        add_b(b)
        add_y(v)
        return marker

    try:
        data = json.load(fh, object_hook=entry, parse_int=_short_int)
    except (_Irregular, TypeError):   # len, extend and append raise TypeError on a non-number
        return None
    if type(data) is not dict:
        return None
    n = len(xa) // da if da else 0
    entries, seed = data.get("examples"), data.get("seed", 0)
    if not (n and type(entries) is list and entries.count(marker) == len(entries) == n
            and type(seed) is int):
        return None
    return (np.frombuffer(xa).reshape(n, da), np.frombuffer(xb).reshape(n, db),
            np.frombuffer(y) if dy is None else np.frombuffer(y).reshape(n, dy), seed)


@functools.lru_cache(maxsize=None)
def _edges(n: int) -> Tuple[float, ...]:
    """The inner edges i/n, i = 1..n−1, of n buckets: the doubles a grid of n levels holds."""
    return tuple(i / n for i in range(1, n))


def _bucket(value: float, n: int) -> int:
    """1-based bucket of value among n buckets of width 1/n: bucket i = [(i−1)/n, i/n),
    so a value on an edge falls in the bucket it opens; values below 0 fall in the
    first bucket, and 1 and above in the last."""
    return bisect_right(_edges(n), value) + 1


def _owned(x, dtype=float) -> np.ndarray:
    """A read-only, C-ordered copy of x as dtype: the one way a value type keeps an
    array, so that it shares no memory with its caller's and neither can change the other."""
    x = np.array(x, dtype=dtype, order="C")
    x.setflags(write=False)
    return x


_PROB_TOL = 1e-12


def _check_probabilities(p: np.ndarray, what: str) -> None:
    """ValueError unless every entry of p is at least −1e-12 and their sum lies
    within 1e-12 of 1; written so that NaN fails both checks."""
    if not (p >= -_PROB_TOL).all():
        raise ValueError(f"negative {what} probability")
    if not abs(p.sum() - 1.0) <= _PROB_TOL:
        raise ValueError(f"{what} probabilities sum to {p.sum()}, not 1")


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
            object.__setattr__(self, name, _owned(getattr(self, name)))
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
    to Bob. Both arrays are read-only copies made by `_owned`.
    """

    def __init__(self, predictions, outcomes):
        preds = _owned(predictions)
        outs = _owned(outcomes)
        if preds.ndim != 2:
            raise ValueError("predictions must be a T×K grid")
        if outs.shape != (preds.shape[0],):
            raise ValueError("outcomes must have one entry per day")
        if not (np.isfinite(preds).all() and np.isfinite(outs).all()):
            raise ValueError("transcript values must be finite")
        if preds.size and (preds.min() < -_NORM_TOL or preds.max() > 1.0 + _NORM_TOL):
            raise ValueError("predictions must lie in [0,1]")
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
        return cls(preds, outs)


@dataclass(frozen=True)
class BucketingSpec:
    """Bucket width g for conditioning plus grid size m for emitted predictions."""

    g: float
    m: int

    def __post_init__(self):
        if not _whole_buckets(self.g):
            raise ValueError(f"g must be {_WIDTH}, found {self.g}")
        if self.m < 1:
            raise ValueError("grid size m must be ≥ 1")

    @property
    def n_buckets(self) -> int:
        return int(round(1.0 / self.g))

    def bucket_ids(self, values: np.ndarray) -> np.ndarray:
        """1-based bucket of every value.

        Compares against the edges of `_bucket`, so metric subsequences
        agree with learner routing, a value on a bucket edge included.
        """
        edges = np.array(_edges(self.n_buckets))
        return np.searchsorted(edges, np.asarray(values, dtype=float), side="right") + 1


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


def swap_regret(predictions, outcomes, inputs=None, benchmark="constant",
                weights=None) -> float:
    """Loss Σ(ŷ−y)², or w @ (ŷ−y)² with per-row `weights`, minus the least
    loss of the benchmark class on each level set of the predictions.

    `benchmark` is "constant" (the level set's mean, weighted as
    `ws @ ys / ws.sum()`), a LinearClassSpec over the feature rows `inputs`
    (`weaklearn.constrained_lsq`), or a union: a tuple of specs with a tuple
    of feature arrays in `inputs`, where each level set counts its best fit.
    """
    from . import weaklearn   # at call time: weaklearn imports this module

    p, y = _aligned(predictions, outcomes)
    fits = _benchmark_fits(benchmark, inputs, p.shape[0])
    w = None if weights is None else np.asarray(weights, dtype=float)
    if w is not None and w.shape != p.shape:
        raise ValueError(f"weights {w.shape} misaligned with predictions {p.shape}")
    total = float(np.sum((p - y) ** 2)) if w is None else float(w @ (p - y) ** 2)
    bench = 0.0
    for _, rows in level_sets(p):
        ys, ws = y[rows], None if w is None else w[rows]
        if fits:
            bench += min(weaklearn.constrained_lsq(x[rows], ys, ws, spec).error
                         for spec, x in fits)
        elif ws is None:
            mean = float(np.mean(ys))
            bench += float(np.sum((mean - ys) ** 2))
        else:
            mean = float(ws @ ys / ws.sum())
            bench += float(ws @ (mean - ys) ** 2)
    return total - bench


def _benchmark_fits(benchmark, inputs, n: int) -> List[tuple]:
    """(spec, (n, d) feature rows) of each class of a `swap_regret`
    benchmark; none for "constant"."""
    if isinstance(benchmark, str):
        if benchmark != "constant":
            raise ValueError(f"unsupported benchmark class: {benchmark!r}")
        return []
    if inputs is None:
        raise ValueError("linear benchmark requires feature inputs")
    union = isinstance(benchmark, tuple)
    fits = []
    for spec, x in zip(benchmark, inputs, strict=True) if union else [(benchmark, inputs)]:
        x = np.asarray(x, dtype=float)
        x = x[:, None] if x.ndim == 1 else x
        if x.shape[0] != n:
            raise ValueError("inputs misaligned with predictions")
        fits.append((spec, x))
    return fits


def own_rounds(side: str, K: int) -> range:
    """The rounds of 1..K that `side` plays: odd ones Alice's, even ones
    Bob's. ValueError naming any other side."""
    if side not in (ALICE, BOB):
        raise ValueError(f"unknown side {side!r}")
    return range(1 if side == ALICE else 2, K + 1, 2)


def conditioned(side: str, K: int, keys, audit, fill=()) -> Dict[Tuple[int, int], float]:
    """audit(k, rows) of the side's rounds k ≥ 2 on each level set of
    keys(k − 1), the 1-D keys of the previous round, keyed (k, key): the
    package's one conditioning loop.

    Each round first holds 0.0 for every key of `fill`, in its order, so a
    key no row has reads 0.0 and sums over the dict keep that order; the
    level sets then come in ascending key order.
    """
    out: Dict[Tuple[int, int], float] = {}
    for k in own_rounds(side, K):
        if k < 2:
            continue
        out.update(((k, key), 0.0) for key in fill)
        for (key,), rows in level_sets(keys(k - 1)):
            out[(k, key)] = audit(k, rows)
    return out


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
    x = None if benchmark == "constant" or inputs is None else np.asarray(inputs, dtype=float)
    y = transcript.outcomes

    def audit(k, rows):
        return swap_regret(transcript.round_predictions(k)[rows], y[rows],
                           None if x is None else x[rows], benchmark)

    return conditioned(side, transcript.K,
                       lambda j: bucketing.bucket_ids(transcript.round_predictions(j)),
                       audit, range(1, bucketing.n_buckets + 1))


def conversation_calibration_error(
    transcript: ConversationTranscript, side: str, bucketing: BucketingSpec
) -> Dict[Tuple[int, int], float]:
    """ECE of the side's round-k predictions on each counterparty bucket.

    Upper-bounds the calibration distance on each conditioned subsequence.
    """
    if transcript.K < 2:
        raise ValueError("conversation calibration needs K ≥ 2")
    y = transcript.outcomes
    return conditioned(side, transcript.K,
                       lambda j: bucketing.bucket_ids(transcript.round_predictions(j)),
                       lambda k, rows: ece(transcript.round_predictions(k)[rows], y[rows]),
                       range(1, bucketing.n_buckets + 1))


def disagreement_fraction(transcript: ConversationTranscript, k: int, eps: float) -> float:
    """Fraction of days on which rounds k and k−1 differ by at least eps."""
    if not 2 <= k <= transcript.K:
        raise ValueError(f"round {k} needs 2 ≤ k ≤ K={transcript.K}")
    if not eps > 0:   # NaN too
        raise ValueError("eps must be positive")
    diff = np.abs(transcript.round_predictions(k) - transcript.round_predictions(k - 1))
    return float(np.mean(diff >= eps))


def round_table(transcript: ConversationTranscript, eps: float) -> Dict[str, Dict[int, float]]:
    """Every per-round metric of a transcript, each computed once.

    {"sqe": {k: …}, "ece": {k: …}, "disagreement": {k: …}} for rounds
    k = 1..K, with disagreement@eps from round 2 on. The metrics CSV, `collab
    report` and the online run report all read their round figures here.
    """
    y = transcript.outcomes
    table: Dict[str, Dict[int, float]] = {"sqe": {}, "ece": {}, "disagreement": {}}
    for k in range(1, transcript.K + 1):
        preds = transcript.round_predictions(k)
        table["sqe"][k] = sqe(preds, y)
        table["ece"][k] = ece(preds, y)
        if k > 1:
            table["disagreement"][k] = disagreement_fraction(transcript, k, eps)
    return table
