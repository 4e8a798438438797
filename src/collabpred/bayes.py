"""Exact simulation of the one-shot Bayesian exchange on finite priors.

Both parties know the prior; each round the acting party computes the
exact posterior mean of the label given its own signal and the rounded
message history, and sends the mean rounded to the 1/m grid. Consistency
of a history is decided the way the parties themselves would decide it:
by forward-simulating the deterministic message rule over the whole
support. Everything here is exact enumeration; no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import grid_index
from .learners import LinearClassSpec
from .weaklearn import constrained_lsq, joint_lsq

__all__ = [
    "PriorTable",
    "MessageHistory",
    "posterior_mean",
    "simulate_messages",
    "run_bayes_protocol",
    "BayesRunResult",
    "expected_conversation_swap_regret",
    "one_shot_report",
]


@dataclass(frozen=True)
class PriorTable:
    """Finite joint distribution over (signal_a, signal_b, y) with optional encodings."""

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
        if p.min() < -1e-12:
            raise ValueError("negative prior probability")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"prior probabilities sum to {p.sum()}, not 1")
        if y.min() < 0.0 or y.max() > 1.0:
            raise ValueError("labels must lie in [0,1]")
        y.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "signals_a", tuple(self.signals_a))
        object.__setattr__(self, "signals_b", tuple(self.signals_b))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def support(self) -> np.ndarray:
        return np.where(self.p > 0.0)[0]

    def features(self, side: str) -> np.ndarray:
        enc = self.encoding_a if side == "alice" else self.encoding_b
        sigs = self.signals_a if side == "alice" else self.signals_b
        if enc is None:
            raise ValueError(f"no numeric encoding recorded for side {side}")
        return np.array([np.atleast_1d(enc[s]) for s in sigs], dtype=float)

    def full_information_risk(self) -> float:
        """E[(E[y | both signals] − y)²], the pooled-information floor."""
        groups: Dict[Tuple, List[int]] = {}
        for i in self.support():
            groups.setdefault((self.signals_a[i], self.signals_b[i]), []).append(i)
        risk = 0.0
        for idxs in groups.values():
            w = self.p[idxs]
            mean = float(w @ self.y[idxs] / w.sum())
            risk += float(w @ (mean - self.y[idxs]) ** 2)
        return risk

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
        atoms = data["atoms"]
        enc = data.get("encoding", {})
        return cls(
            signals_a=tuple(a["a"] for a in atoms),
            signals_b=tuple(a["b"] for a in atoms),
            y=np.array([a["y"] for a in atoms], dtype=float),
            p=np.array([a["p"] for a in atoms], dtype=float),
            encoding_a={k: np.array(v, dtype=float) for k, v in enc.get("a", {}).items()} or None,
            encoding_b={k: np.array(v, dtype=float) for k, v in enc.get("b", {}).items()} or None,
        )


@dataclass(frozen=True)
class MessageHistory:
    """Ordered rounded messages ȳ^{1..k} on the 1/m grid."""

    messages: Tuple[float, ...]
    m: int

    def indices(self) -> Tuple[int, ...]:
        idx = []
        for v in self.messages:
            j = int(round(v * self.m))
            if abs(v * self.m - j) > 1e-9:
                raise ValueError(f"message {v} is not on the 1/{self.m} grid")
            idx.append(j)
        return tuple(idx)


def simulate_messages(prior: PriorTable, K: int, m: int):
    """Forward-simulate the deterministic exchange on every support atom.

    Returns (posteriors, message_indices): n×K arrays of the acting party's
    unrounded posterior mean and the rounded message grid index at each
    round (odd rounds Alice, even rounds Bob).
    """
    if K < 1:
        raise ValueError("K must be positive")
    support = prior.support()
    posts = np.full((prior.n, K), np.nan)
    msg_idx = np.full((prior.n, K), -1, dtype=int)
    for k in range(1, K + 1):
        sigs = prior.signals_a if k % 2 == 1 else prior.signals_b
        groups: Dict[Tuple, List[int]] = {}
        for i in support:
            key = (sigs[i], tuple(msg_idx[i, : k - 1]))
            groups.setdefault(key, []).append(i)
        for idxs in groups.values():
            w = prior.p[idxs]
            post = float(w @ prior.y[idxs] / w.sum())
            posts[idxs, k - 1] = post
            msg_idx[idxs, k - 1] = grid_index(post, m)
    return posts, msg_idx


def posterior_mean(prior: PriorTable, side: str, own_signal, history: MessageHistory) -> float:
    """Exact posterior mean given own signal and a consistent message history."""
    k_next = len(history.messages) + 1
    posts, msg_idx = simulate_messages(prior, max(k_next, 1), history.m)
    hist_idx = history.indices()
    sigs = prior.signals_a if side == "alice" else prior.signals_b
    sel = [
        i for i in prior.support()
        if sigs[i] == own_signal and tuple(msg_idx[i, : len(hist_idx)]) == hist_idx
    ]
    if not sel:
        raise ValueError("inconsistent history: no support point produces these messages")
    w = prior.p[sel]
    return float(w @ prior.y[sel] / w.sum())


@dataclass
class BayesRunResult:
    posteriors: np.ndarray        # (n, K) unrounded
    message_indices: np.ndarray   # (n, K) grid indices
    m: int
    expected_sqe_by_round: Dict[int, float]            # rounded messages vs y
    expected_sqe_unrounded_by_round: Dict[int, float]
    disagreement_mass_by_round: Dict[int, float]       # P[|ȳ^k − ȳ^{k−1}| ≥ eps]
    eps: float
    joint_benchmark_error: Optional[float] = None
    full_information_risk: Optional[float] = None

    def message_values(self) -> np.ndarray:
        return self.message_indices / self.m


def run_bayes_protocol(prior: PriorTable, K: int, m: int, eps: float = 0.1,
                       spec_a: Optional[LinearClassSpec] = None,
                       spec_b: Optional[LinearClassSpec] = None) -> BayesRunResult:
    """Simulate every support point; report per-round expected errors.

    The per-round expected squared error of the rounded messages is
    non-increasing in k: each round's posterior sees the previous message,
    and rounding to the nearest grid point can never overshoot a grid value
    that is already available. When both encodings are present the gap to
    the best additive linear predictor on the encoded signals is reported;
    an uncertified benchmark fit raises ArithmeticError.
    """
    posts, msg_idx = simulate_messages(prior, K, m)
    support = prior.support()
    w = prior.p[support]
    y = prior.y[support]
    ese_rounded = {}
    ese_unrounded = {}
    for k in range(1, K + 1):
        vals = msg_idx[support, k - 1] / m
        ese_rounded[k] = float(w @ (vals - y) ** 2)
        ese_unrounded[k] = float(w @ (posts[support, k - 1] - y) ** 2)
    dis = {}
    for k in range(2, K + 1):
        gap = np.abs(msg_idx[support, k - 1] - msg_idx[support, k - 2]) / m
        dis[k] = float(w @ (gap >= eps))
    joint_err = None
    if prior.encoding_a is not None and prior.encoding_b is not None:
        fa = prior.features("alice")
        fb = prior.features("bob")
        sa = spec_a or LinearClassSpec(d=fa.shape[1], C=1.0, with_intercept=True)
        sb = spec_b or LinearClassSpec(d=fb.shape[1], C=1.0, with_intercept=True)
        joint = joint_lsq(fa, fb, prior.y, prior.p, sa, sb)
        if not joint.converged:
            raise ArithmeticError("joint benchmark fit not certified: relative duality gap "
                                  f"{joint.kkt_residual:.3e}")
        joint_err = joint.error
    return BayesRunResult(
        posteriors=posts,
        message_indices=msg_idx,
        m=m,
        expected_sqe_by_round=ese_rounded,
        expected_sqe_unrounded_by_round=ese_unrounded,
        disagreement_mass_by_round=dis,
        eps=eps,
        joint_benchmark_error=joint_err,
        full_information_risk=prior.full_information_risk(),
    )


def expected_conversation_swap_regret(prior: PriorTable, K: int, m: int, side: str,
                                      benchmark: str = "constant",
                                      spec: Optional[LinearClassSpec] = None,
                                      ) -> Dict[Tuple[int, int], float]:
    """Expected swap regret per (round, previous-message value) event.

    The benchmark swap function picks, per level set of the rounded
    prediction, the best constant (or the best linear function of the
    side's encoded signal). Every entry is at most 1/m² for an exact
    Bayesian, which this simulation realizes.
    """
    posts, msg_idx = simulate_messages(prior, K, m)
    support = prior.support()
    feats = prior.features(side) if benchmark == "linear" else None
    out: Dict[Tuple[int, int], float] = {}
    start = 3 if side == "alice" else 2
    for k in range(start, K + 1, 2):
        prev_col = msg_idx[support, k - 2]
        for prev in np.unique(prev_col):
            mask = prev_col == prev
            idxs = support[mask]
            w = prior.p[idxs]
            vals = msg_idx[idxs, k - 1] / m
            e_loss = float(w @ (vals - prior.y[idxs]) ** 2)
            bench = 0.0
            for v in np.unique(vals):
                sub = vals == v
                ws = w[sub]
                ys = prior.y[idxs][sub]
                if benchmark == "constant":
                    mean = float(ws @ ys / ws.sum())
                    bench += float(ws @ (mean - ys) ** 2)
                else:
                    fit = constrained_lsq(feats[idxs][sub], ys, ws, spec)
                    bench += fit.error
            out[(k, int(prev))] = e_loss - bench
    return out


@dataclass
class OneShotReport:
    rounds: Tuple[int, ...]
    ese_by_K: Dict[int, float]
    regret_to_joint_by_K: Dict[int, float]
    gap_to_full_info_by_K: Dict[int, float]
    joint_benchmark_error: float
    full_information_risk: float


def one_shot_report(prior: PriorTable, Ks: Sequence[int], m: int,
                    spec_a: Optional[LinearClassSpec] = None,
                    spec_b: Optional[LinearClassSpec] = None) -> OneShotReport:
    """Regret of the round-K message to the additive linear benchmark, per K.

    Messages do not depend on the horizon, so one simulation at max(Ks)
    serves every K by prefix.
    """
    Ks = tuple(sorted(set(int(k) for k in Ks)))
    res = run_bayes_protocol(prior, max(Ks), m, spec_a=spec_a, spec_b=spec_b)
    if res.joint_benchmark_error is None:
        raise ValueError("one-shot report needs signal encodings for the benchmark")
    ese = {K: res.expected_sqe_by_round[K] for K in Ks}
    return OneShotReport(
        rounds=Ks,
        ese_by_K=ese,
        regret_to_joint_by_K={K: ese[K] - res.joint_benchmark_error for K in Ks},
        gap_to_full_info_by_K={K: ese[K] - res.full_information_risk for K in Ks},
        joint_benchmark_error=res.joint_benchmark_error,
        full_information_risk=res.full_information_risk,
    )
