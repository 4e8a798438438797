"""Seeded dataset and prior generators for the experiment harness.

A generator imports the modules of the types it builds (`bayes`, `batch`,
`weaklearn`) when it runs, so a run on a sequence dataset loads none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import SequenceDataset, examples_to_json

if TYPE_CHECKING:
    from .batch import BatchSample
    from .bayes import PriorTable

__all__ = [
    "additive_linear_noise",
    "sample_rho_dataset",
    "xor_dataset",
    "swap_necessity_dataset",
    "decision_iid_dataset",
    "xor_prior",
    "additive_prior",
    "rho_prior",
    "dataset_to_json",
    "PRIORS",
    "GENERATORS",
]


def _check_dims(**dims):
    for name, d in dims.items():
        if d < 1:
            raise ValueError(f"{name} must be at least 1, got {d}")


def _unit_features(rng: np.random.Generator, T: int, d: int, radius: float = 0.8,
                   const: float = 0.6) -> np.ndarray:
    """Random vectors with a fixed constant coordinate, total norm ≤ 1.

    The raw part fills a ball of the given radius; the appended constant
    coordinate lets norm-bounded linear classes express intercepts.
    """
    raw = rng.standard_normal((T, d))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    scale = radius * rng.uniform(0.2, 1.0, size=(T, 1)) ** (1.0 / d)
    raw = raw / norms * scale
    return np.hstack([raw, np.full((T, 1), const)])


def _additive_mean(rng: np.random.Generator, T: int, d_a: int, d_b: int, signal_a: float,
                   signal_b: float):
    """(x_a, x_b, 0.5 + θ_aᵀx_a + θ_bᵀx_b) of the additive instance, before noise and clip.

    Each θ is a random direction of norm `signal` on the raw coordinates; the
    constant coordinate of each block carries no weight.
    """
    _check_dims(d_a=d_a, d_b=d_b)
    xa = _unit_features(rng, T, d_a)
    xb = _unit_features(rng, T, d_b)
    theta_a = rng.standard_normal(d_a)
    theta_a *= signal_a / np.linalg.norm(theta_a)
    theta_b = rng.standard_normal(d_b)
    theta_b *= signal_b / np.linalg.norm(theta_b)
    return xa, xb, 0.5 + xa[:, :d_a] @ theta_a + xb[:, :d_b] @ theta_b


def additive_linear_noise(T: int, seed: int, d_a: int = 2, d_b: int = 2,
                          signal_a: float = 0.25, signal_b: float = 0.25,
                          noise: float = 0.1) -> SequenceDataset:
    """y = 0.5 + θ_aᵀx_a + θ_bᵀx_b + η, clipped to [0,1].

    Both parties' raw feature blocks carry signal; a constant coordinate is
    appended to each block so the emitted dimension is d+1 per side.
    """
    rng = np.random.default_rng(seed)
    xa, xb, mean = _additive_mean(rng, T, d_a, d_b, signal_a, signal_b)
    y = mean + noise * rng.standard_normal(T)
    return SequenceDataset(xa, xb, np.clip(y, 0.0, 1.0), seed=seed)


def additive_batch_sample(n: int, seed: int, d_a: int = 3, d_b: int = 3,
                          signal_a: float = 0.2, signal_b: float = 0.2) -> BatchSample:
    """Noiseless additive instance for batch training: realizable by the joint class."""
    from .batch import BatchSample
    xa, xb, mean = _additive_mean(np.random.default_rng(seed), n, d_a, d_b, signal_a, signal_b)
    return BatchSample(x_a=xa, x_b=xb, y=np.clip(mean, 0.0, 1.0))


def sample_rho_dataset(T: int, seed: int, rho: float = 2.0) -> SequenceDataset:
    """I.i.d. draws from the scaled-noise instance, labels mapped to {0,1}."""
    from .weaklearn import gen_counterexample_rho
    dist = gen_counterexample_rho(rho)
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.n, size=T, p=dist.p)
    off, sc = dist.label_map
    return SequenceDataset(dist.xa[idx], dist.xb[idx], off + sc * dist.y[idx], seed=seed)


def xor_dataset(T: int, seed: int) -> SequenceDataset:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=T).astype(float)
    b = rng.integers(0, 2, size=T).astype(float)
    y = np.logical_xor(a > 0.5, b > 0.5).astype(float)
    return SequenceDataset(a[:, None], b[:, None], y, seed=seed)


def swap_necessity_dataset(T: int, seed: int) -> SequenceDataset:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=T).astype(float)
    b = rng.integers(0, 2, size=T).astype(float)
    return SequenceDataset(a[:, None], b[:, None], a * b, seed=seed)


def decision_iid_dataset(T: int, seed: int, d: int = 3) -> SequenceDataset:
    """Vector-label exchangeable stream for the action-exchange protocol."""
    _check_dims(d=d)
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.2, 0.8, size=d)
    y = np.clip(means + 0.15 * rng.standard_normal((T, d)), 0.0, 1.0)
    xa = _unit_features(rng, T, 2)
    xb = _unit_features(rng, T, 2)
    return SequenceDataset(xa, xb, y, seed=seed)


def _two_bit_prior(label, low: float) -> PriorTable:
    """Independent uniform bits a, b with y = label(a, b); each side encodes
    its bit 0 as `low` and 1 as 1."""
    from .bayes import PriorTable
    bits = [(a, b) for a in (0, 1) for b in (0, 1)]
    return PriorTable(
        signals_a=tuple(f"a{a}" for a, _ in bits), signals_b=tuple(f"b{b}" for _, b in bits),
        y=np.array([float(label(a, b)) for a, b in bits]), p=np.full(4, 0.25),
        encoding_a={"a0": np.array([low]), "a1": np.array([1.0])},
        encoding_b={"b0": np.array([low]), "b1": np.array([1.0])},
    )


def xor_prior() -> PriorTable:
    """Independent uniform bits, y = a ⊕ b: agreement without aggregation."""
    return _two_bit_prior(lambda a, b: a ^ b, -1.0)


def additive_prior() -> PriorTable:
    """Independent uniform bits, y = (a + b)/2: realizable by two rounds."""
    return _two_bit_prior(lambda a, b: (a + b) / 2.0, 0.0)


def rho_prior(rho: float = 2.0) -> PriorTable:
    """The scaled-noise instance as a common prior, labels mapped to [0,1].

    Signals are labelled to six decimals; a ρ (about 10⁶ and up) that gives
    Bob's two signals beside one of Alice's one label is a ValueError."""
    from .bayes import PriorTable
    from .weaklearn import gen_counterexample_rho
    dist = gen_counterexample_rho(rho)
    off, sc = dist.label_map
    sa = tuple(f"{dist.xa[i, 0]:+.6f}" for i in range(dist.n))
    sb = tuple(f"{dist.xb[i, 0]:+.6f}" for i in range(dist.n))
    if sb[0] == sb[1] or sb[2] == sb[3]:
        raise ValueError(f"rho {rho!r} is too large for the rho prior: Bob's signals "
                         f"print to six decimals as {len(set(sb))} labels, not 4")
    return PriorTable(
        signals_a=sa, signals_b=sb,
        y=off + sc * dist.y, p=dist.p,
        encoding_a={s: np.array([float(s)]) for s in set(sa)},
        encoding_b={s: np.array([float(s)]) for s in set(sb)},
    )


def encode_prior(data: dict) -> PriorTable:
    """Attach canonical numeric encodings to a bare atoms table.

    Distinct signal labels on each side are sorted and mapped to evenly
    spaced scalars in [−1, 1], so downstream linear benchmarks have a
    deterministic feature space.
    """
    from .bayes import PriorTable, read_atoms
    _fields, signals, y, p = read_atoms(data, "atoms file", "an atoms file")

    def spread(labels):
        uniq = sorted(set(labels))
        if len(uniq) == 1:
            return {uniq[0]: np.array([0.0])}
        return {
            s: np.array([-1.0 + 2.0 * i / (len(uniq) - 1)])
            for i, s in enumerate(uniq)
        }

    sa, sb = (tuple(map(str, signals[side])) for side in "ab")
    return PriorTable(signals_a=sa, signals_b=sb, y=y, p=p,
                      encoding_a=spread(sa), encoding_b=spread(sb))


def dataset_to_json(dataset: SequenceDataset) -> dict:
    return examples_to_json(dataset.x_a, dataset.x_b, dataset.y, seed=dataset.seed)


# the priors `collab` knows by name
PRIORS = {"xor": xor_prior, "additive": additive_prior}

GENERATORS = {
    "additive-linear-noise": additive_linear_noise,
    "d-rho": sample_rho_dataset,
    "xor": xor_dataset,
    "swap-necessity": swap_necessity_dataset,
    "decision-iid": decision_iid_dataset,
}
