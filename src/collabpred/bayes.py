"""Exact simulation of the one-shot Bayesian exchange on finite priors.

Both parties know the prior; each round the acting party computes the
exact posterior mean of the label given its own signal and the rounded
message history, and sends the mean rounded to the 1/m grid. Consistency
of a history is decided the way the parties themselves would decide it:
by forward-simulating the deterministic message rule over the whole
support. Everything here is exact enumeration; no sampling. Atoms are
grouped by `core.level_set_runs` over integer signal codes, which a prior
numbers once, when it is built, by first occurrence, so that any hashable
labels work and `1` and `"1"` stay apart.

Each posterior is computed only where it can change, with the bits of one
`w @ y / w.sum()` per group: a group that did not split since the acting
party's previous round keeps its posterior, and one-row groups take their
means in one array pass (see `simulate_messages`). A run simulates once and
hands its message indices to the audits that read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import (Field, _frozen, _shown, check_field, conditioned, grid_index, json_column,
                   level_set_runs, ordered_sum, read_section, swap_regret)
from .weaklearn import LinearClassSpec, joint_lsq

__all__ = [
    "PriorTable",
    "read_atoms",
    "simulate_messages",
    "run_bayes_protocol",
    "BayesRunResult",
    "expected_conversation_swap_regret",
]


@dataclass(frozen=True, eq=False)
class PriorTable:
    """Finite joint distribution over (signal_a, signal_b, y) with optional encodings.

    `y` and `p` are read-only and owned as `core._frozen` keeps them; the
    support and signal indices, derived once and read-only, are not fields.
    """

    signals_a: Tuple
    signals_b: Tuple
    y: np.ndarray
    p: np.ndarray
    encoding_a: Optional[Dict] = None  # label -> feature vector
    encoding_b: Optional[Dict] = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if not (len(self.signals_a) == len(self.signals_b) == y.shape[0] == p.shape[0]):
            raise ValueError("atom fields must align")
        # written so that NaN fails every check
        if not (p >= -1e-12).all():
            raise ValueError("negative prior probability")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"prior probabilities sum to {p.sum()}, not 1")
        if not ((y >= 0.0) & (y <= 1.0)).all():
            raise ValueError("labels must lie in [0,1]")
        object.__setattr__(self, "signals_a", tuple(self.signals_a))
        object.__setattr__(self, "signals_b", tuple(self.signals_b))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "p", _frozen(p))
        support = np.flatnonzero(self.p > 0.0)
        support.setflags(write=False)
        object.__setattr__(self, "_support", support)
        # (Alice's, Bob's) signals keyed: (labels, index of each atom's label)
        object.__setattr__(self, "_keyed", (_numbered(self.signals_a), _numbered(self.signals_b)))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def support(self) -> np.ndarray:
        """The read-only indices of the atoms of positive probability."""
        return self._support

    def features(self, side: str) -> np.ndarray:
        enc = self.encoding_a if side == "alice" else self.encoding_b
        labels, index = self._keyed[0 if side == "alice" else 1]
        must = f"a prior: field 'encoding' must encode every signal of side '{side[0]}', found"
        if enc is None:
            raise ValueError(f"{must} no '{side[0]}' entry")
        # in first-occurrence order: the first label missing is the first atom's
        missing = [s for s in labels if s not in enc]
        if missing:
            raise ValueError(f"{must} none for {_shown(missing[0])}")
        return np.array([np.atleast_1d(enc[s]) for s in labels], dtype=float)[index]

    def full_information_risk(self) -> float:
        """E[(E[y | both signals] − y)²], the pooled-information floor.

        One term per signal pair, added in the order the support first meets
        the pair; one-row groups take their terms in one array pass.
        """
        support = self.support()
        order, starts = level_set_runs(*(index[support] for _, index in self._keyed))
        sizes = np.diff(starts, append=order.shape[0])
        heads = order[starts]
        w, y = self.p[support], self.y[support]
        terms = np.empty(sizes.shape[0])
        single = sizes == 1
        ws, ys = w[heads[single]], y[heads[single]]
        terms[single] = _one_term_dots(ws, (_one_term_dots(ws, ys) / ws - ys) ** 2)
        for g in np.flatnonzero(~single).tolist():
            rows = order[starts[g]:starts[g] + sizes[g]]
            ws = w[rows]
            mean = float(ws @ y[rows] / ws.sum())
            terms[g] = ws @ (mean - y[rows]) ** 2
        return ordered_sum(terms[np.argsort(heads)])

    def to_json_dict(self) -> dict:
        out = {
            "atoms": [
                {"a": self.signals_a[i], "b": self.signals_b[i],
                 "y": float(self.y[i]), "p": float(self.p[i])}
                for i in range(self.n)
            ]
        }
        enc = {}
        if self.encoding_a is not None:
            enc["a"] = {str(k): list(map(float, np.atleast_1d(v))) for k, v in self.encoding_a.items()}
        if self.encoding_b is not None:
            enc["b"] = {str(k): list(map(float, np.atleast_1d(v))) for k, v in self.encoding_b.items()}
        if enc:
            out["encoding"] = enc
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PriorTable":
        c, signals, y, p = read_atoms(data, "prior file", "a prior")
        enc = read_section(c["encoding"], "prior encoding", "a prior: field 'encoding'")

        def encoding(side):
            where = f"a prior: encoding '{side}'"
            vectors = {k: check_field(v, Field("numbers", lo=1), where, k)
                       for k, v in enc[side].items()}
            first = next(iter(vectors), None)
            for k, v in vectors.items():
                if len(v) != len(vectors[first]):
                    raise ValueError(f"{where}: field '{k}' must hold {len(vectors[first])} "
                                     f"numbers as '{first}' does, found {_shown(v)}")
            # to_json_dict keys an encoding by str(label): key it by the label again
            label = {str(s): s for s in signals[side]}
            return {label.get(k, k): np.array(v, dtype=float) for k, v in vectors.items()} or None

        y.setflags(write=False)
        p.setflags(write=False)
        return cls(signals_a=signals["a"], signals_b=signals["b"], y=y, p=p,
                   encoding_a=encoding("a"), encoding_b=encoding("b"))


def read_atoms(data, section: str, what: str):
    """(fields, signals, y, p) of a prior or atoms file: its fields read
    through `SECTIONS[section]`, each side's signal labels ("a", "b": strings
    or numbers) and the atoms' y and p columns; ValueError naming the entry
    and field at fault otherwise."""
    c = read_section(data, section, what)
    atoms = c["atoms"]
    signals = {side: tuple(a.get(side) for a in atoms) for side in "ab"}
    for side, labels in signals.items():
        for i, s in enumerate(labels):
            if not isinstance(s, (str, int, float)):
                must = ("is missing" if side not in atoms[i]
                        else f"must be a string or a number, found {_shown(s)}")
                raise ValueError(f"{what}: entry {i}: field '{side}' {must}")
    return c, signals, json_column(atoms, "y", what), json_column(atoms, "p", what)


def _one_term_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a·b + 0.0 elementwise: each entry has the bits of a one-element `a @ b`.

    numpy's 1-D dot adds the single rounded product to 0.0, which turns a
    -0.0 product into 0.0, and a one-element sum is that element. So the
    mean `w @ y / w.sum()` of a one-row group is `_one_term_dots(w, y) / w`.
    """
    out = a * b
    out += 0.0
    return out


def _numbered(labels: tuple) -> Tuple[tuple, np.ndarray]:
    """(the distinct labels in order of first occurrence, the read-only
    index of every label among them); labels equal as dict keys share one."""
    index = {}
    codes = np.array([index.setdefault(s, len(index)) for s in labels], dtype=int)
    codes.setflags(write=False)
    return tuple(index), codes


def simulate_messages(prior: PriorTable, K: int, m: int):
    """Forward-simulate the deterministic exchange on every support atom.

    Returns the read-only n×K array of message grid indices: the acting
    party's posterior mean rounded at each round (odd rounds Alice, even
    rounds Bob); atoms off the support hold -1. Messages do not depend on
    the horizon, so the first K' columns are the simulation at horizon K'.

    Round k's posterior is `w @ y / w.sum()` over each group of support
    atoms that share the acting party's signal and the k − 1 messages so
    far, and every posterior here has those bits. Two things spare work:

    - The acting party's round-k groups refine its round-(k−2) groups: the
      key gains two messages. Rows of a group come in ascending order, so a
      group as large as the round-(k−2) group of its first row has the same
      rows in the same order, and its posterior is copied.
    - A one-row group's mean is `_one_term_dots(w, y) / w`, taken for all
      such groups in one array pass. Larger groups keep their own dot.
    """
    if K < 1:
        raise ValueError("K must be positive")
    if m < 1:
        raise ValueError("grid size m must be ≥ 1")
    support = prior.support()
    n = support.shape[0]
    w, y = prior.p[support], prior.y[support]
    codes = [index[support] for _, index in prior._keyed]
    posts = np.empty((K, n))
    msgs = np.empty((K, n), dtype=int)
    row_sizes = np.empty((K, n), dtype=int)  # size of each row's group
    for k in range(K):  # round k + 1, acted by side k % 2
        order, starts = level_set_runs(codes[k % 2], *msgs[:k])
        sizes = np.diff(starts, append=n)
        heads = order[starts]
        means = np.empty(sizes.shape[0])
        single = sizes == 1
        ws, ys = w[heads[single]], y[heads[single]]
        means[single] = _one_term_dots(ws, ys) / ws
        todo = ~single
        if k >= 2:  # the acting side's previous round
            unsplit = sizes == row_sizes[k - 2, heads]
            means[unsplit] = posts[k - 2, heads[unsplit]]
            todo &= ~unsplit
        for g in np.flatnonzero(todo).tolist():
            rows = order[starts[g]:starts[g] + sizes[g]]
            ws = w[rows]
            means[g] = ws @ y[rows] / ws.sum()
        posts[k, order] = np.repeat(means, sizes)
        row_sizes[k, order] = np.repeat(sizes, sizes)
        msgs[k] = grid_index(posts[k], m)
    all_msgs = np.full((prior.n, K), -1, dtype=int)
    all_msgs[support] = msgs.T
    all_msgs.setflags(write=False)
    return all_msgs


@dataclass
class BayesRunResult:
    message_indices: np.ndarray   # (n, K) grid indices
    expected_sqe_by_round: Dict[int, float]            # rounded messages vs y
    disagreement_mass_by_round: Dict[int, float]       # P[|ȳ^k − ȳ^{k−1}| ≥ eps]
    joint_benchmark_error: Optional[float] = None
    full_information_risk: Optional[float] = None


def run_bayes_protocol(prior: PriorTable, K: int, m: int, eps: float = 0.1) -> BayesRunResult:
    """Simulate every support point; report per-round expected errors.

    The per-round expected squared error of the rounded messages is
    non-increasing in k: each round's posterior sees the previous message,
    and rounding to the nearest grid point can never overshoot a grid value
    that is already available. When both encodings are present the gap to
    the best additive linear predictor on the encoded signals is reported;
    an uncertified benchmark fit raises UncertifiedFit.
    """
    msg_idx = simulate_messages(prior, K, m)
    support = prior.support()
    w = prior.p[support]
    y = prior.y[support]
    ese_rounded = {}
    for k in range(1, K + 1):
        vals = msg_idx[support, k - 1] / m
        ese_rounded[k] = float(w @ (vals - y) ** 2)
    dis = {}
    for k in range(2, K + 1):
        gap = np.abs(msg_idx[support, k - 1] - msg_idx[support, k - 2]) / m
        dis[k] = float(w @ (gap >= eps))
    joint_err = None
    if prior.encoding_a is not None and prior.encoding_b is not None:
        fa = prior.features("alice")
        fb = prior.features("bob")
        sa = LinearClassSpec(d=fa.shape[1], C=1.0)
        sb = LinearClassSpec(d=fb.shape[1], C=1.0)
        joint_err = joint_lsq(fa, fb, prior.y, prior.p, sa, sb).certified_error()
    return BayesRunResult(
        message_indices=msg_idx,
        expected_sqe_by_round=ese_rounded,
        disagreement_mass_by_round=dis,
        joint_benchmark_error=joint_err,
        full_information_risk=prior.full_information_risk(),
    )


def expected_conversation_swap_regret(prior: PriorTable, msg_idx: np.ndarray, m: int,
                                      side: str, benchmark: str = "constant",
                                      spec: Optional[LinearClassSpec] = None,
                                      ) -> Dict[Tuple[int, int], float]:
    """Expected swap regret per (round, previous-message value) event.

    `msg_idx` holds the (n, K) message grid indices of the exchange audited,
    as `simulate_messages(prior, K, m)` returns them. Each entry is
    `core.swap_regret` of the side's rounded messages on the support atoms
    of one previous message, weighted by their probabilities: per level set
    the best constant, or with benchmark "linear" the best function of
    `spec` on the side's encoded signal. Every entry is at most 1/m² for an
    exact Bayesian, which that simulation realizes.
    """
    support = prior.support()
    feats = prior.features(side) if benchmark == "linear" else None

    def audit(k, rows):
        idxs = support[rows]
        return swap_regret(msg_idx[idxs, k - 1] / m, prior.y[idxs],
                           None if feats is None else feats[idxs],
                           benchmark if feats is None else spec, prior.p[idxs])

    return conditioned(side, msg_idx.shape[1], lambda j: msg_idx[support, j - 1], audit)
