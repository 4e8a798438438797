"""Exact checkers for the lower-bound instances and the extraction guarantee.

Each checker returns (name, passed, detail); run_all aggregates them. These
are the same checks the CLI's verify mode executes and the acceptance
tests assert.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from .learners import LinearClassSpec
from .weaklearn import (
    FiniteDistribution,
    constrained_lsq,
    gen_counterexample_rho,
    gen_xor_counterexamples,
    information_substitutes_check,
    joint_lsq,
    rho_gains,
    swap_necessity_regrets,
    weak_learner_extract,
)

__all__ = ["run_all", "CHECKS", "random_distribution"]

_EXACT = 1e-12


def check_rho_exactness() -> Tuple[bool, str]:
    """Side gains 1/(ρ²+1) and bounded joint gain (4ρ−1)/4ρ² at ρ ∈ {1,2,4}."""
    worst = 0.0
    for rho in (1.0, 2.0, 4.0):
        g = rho_gains(rho, C=1.0)
        expect_b = 1.0 / (rho * rho + 1.0)
        expect_j = (4.0 * rho - 1.0) / (4.0 * rho * rho)
        worst = max(
            worst,
            abs(g["gain_a"]),
            abs(g["gain_b"] - expect_b),
            abs(g["gain_joint"] - expect_j),
            abs(g["slope_b"] - 2.0 * rho / (rho * rho + 1.0)),
        )
    return worst <= _EXACT, f"max deviation {worst:.3e}"


def check_rho_ratio_trend() -> Tuple[bool, str]:
    """gain_B/gain_J ~ Θ(1/ρ): gain_B/gain_J² stays within constant factors."""
    ratios = []
    for rho in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        g = rho_gains(rho, C=1.0)
        ratios.append(g["gain_b"] / g["gain_joint"] ** 2)
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    return ok, "ratios " + ", ".join(f"{r:.4f}" for r in ratios)


def check_swap_necessity() -> Tuple[bool, str]:
    """External regrets (0, 0, 1/16) for the ŷ = x_a/2 rule."""
    r = swap_necessity_regrets(C=1.0)
    worst = max(
        abs(r["rule_error"] - 0.125),
        abs(r["regret_a"]),
        abs(r["regret_b"]),
        abs(r["regret_joint"] - 1.0 / 16.0),
        abs(r["joint_error"] - 1.0 / 16.0),
    )
    return worst <= _EXACT, f"max deviation {worst:.3e}"


def check_xor_instances() -> Tuple[bool, str]:
    """Marginal optima are constants; the pooled/product predictor is exact."""
    xor_dist, prod_dist = gen_xor_counterexamples()
    spec = LinearClassSpec(d=1, C=1.0, with_intercept=True)
    worst = 0.0
    for dist in (xor_dist, prod_dist):
        const_err = dist.constant_error()
        fit_a = constrained_lsq(dist.xa, dist.y, dist.p, spec)
        fit_b = constrained_lsq(dist.xb, dist.y, dist.p, spec)
        worst = max(worst, abs(const_err - fit_a.error), abs(const_err - fit_b.error))
    # the product of the sign features recovers the label exactly
    prod_err = float(prod_dist.p @ (prod_dist.xa[:, 0] * prod_dist.xb[:, 0] - prod_dist.y) ** 2)
    worst = max(worst, prod_err)
    # the parity label is a deterministic function of the pooled bits
    pooled = np.abs(xor_dist.xa[:, 0] - xor_dist.xb[:, 0])
    worst = max(worst, float(xor_dist.p @ (pooled - xor_dist.y) ** 2))
    # both parties individually believe Pr[y=1] = 1/2
    mean = xor_dist.mean_label()
    worst = max(worst, abs(mean - 0.5))
    return worst <= _EXACT, f"max deviation {worst:.3e}"


def check_information_substitutes_violation() -> Tuple[bool, str]:
    """On the ρ=1 instance with C=2, lhs = 1 exceeds rhs = 0.5."""
    dist = gen_counterexample_rho(1.0)
    spec = LinearClassSpec(d=1, C=2.0, with_intercept=True)
    holds, lhs, rhs = information_substitutes_check(dist, spec, spec)
    ok = (not holds) and abs(lhs - 1.0) <= 1e-9 and abs(rhs - 0.5) <= 1e-9
    return ok, f"lhs={lhs:.12f} rhs={rhs:.12f} holds={holds}"


def random_distribution(rng: np.random.Generator, max_atoms: int = 64,
                        max_d: int = 3) -> FiniteDistribution:
    """Random finite distribution with unit-ball features and labels in [0,1]."""
    n = int(rng.integers(4, max_atoms + 1))
    d_a = int(rng.integers(1, max_d + 1))
    d_b = int(rng.integers(1, max_d + 1))

    def rows(d):
        x = rng.standard_normal((n, d))
        norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
        return x / norms * (0.9 * rng.uniform(0.3, 1.0, size=(n, 1)))

    xa = rows(d_a)
    xb = rows(d_b)
    u = rng.standard_normal(d_a) * rng.uniform(0.1, 0.5)
    v = rng.standard_normal(d_b) * rng.uniform(0.1, 0.5)
    y = np.clip(0.5 + xa @ u + xb @ v + 0.1 * rng.standard_normal(n), 0.0, 1.0)
    p = rng.uniform(0.05, 1.0, size=n)
    p /= p.sum()
    return FiniteDistribution(xa=xa, xb=xb, y=y, p=p)


def check_weak_learning_extraction(trials: int = 200, seed: int = 20240501
                                   ) -> Tuple[bool, str]:
    """Extraction achieves γ²/16C² on every random instance with γ ≥ 0.01."""
    rng = np.random.default_rng(seed)
    done = 0
    attempts = 0
    worst_margin = np.inf
    while done < trials:
        attempts += 1
        if attempts > 50 * trials:
            return False, f"only {done} usable instances after {attempts} attempts"
        C = float(rng.choice([0.5, 1.0, 2.0]))
        dist = random_distribution(rng)
        spec_a = LinearClassSpec(d=dist.xa.shape[1], C=C, with_intercept=True)
        spec_b = LinearClassSpec(d=dist.xb.shape[1], C=C, with_intercept=True)
        joint = joint_lsq(dist.xa, dist.xb, dist.y, dist.p, spec_a, spec_b)
        if not joint.converged:
            return False, (f"attempt {attempts}: joint fit not certified "
                           f"(relative duality gap {joint.kkt_residual:.3e})")
        gamma = dist.constant_error() - joint.error
        if gamma < 0.01:
            continue
        res = weak_learner_extract(dist, joint.theta_a, joint.theta_b, joint.intercept, C)
        margin = res.achieved_gain - res.required_gain
        worst_margin = min(worst_margin, margin)
        if margin < -1e-9:
            return False, (
                f"instance {done}: achieved {res.achieved_gain:.3e} "
                f"< required {res.required_gain:.3e}"
            )
        done += 1
    return True, f"{trials} instances, worst margin {worst_margin:.3e}"


def check_weak_is_weaker(trials: int = 60, seed: int = 904) -> Tuple[bool, str]:
    """Wherever information substitutes holds, the γ/2 margin condition holds too."""
    rng = np.random.default_rng(seed)
    tested = 0
    for trial in range(trials):
        dist = random_distribution(rng)
        spec_a = LinearClassSpec(d=dist.xa.shape[1], C=1.0, with_intercept=True)
        spec_b = LinearClassSpec(d=dist.xb.shape[1], C=1.0, with_intercept=True)
        try:
            holds, _lhs, _rhs = information_substitutes_check(dist, spec_a, spec_b)
        except ArithmeticError as e:
            return False, f"trial {trial}: {e}"
        if not holds:
            continue
        const_err = dist.constant_error()
        # the fit information_substitutes_check has just certified
        joint = joint_lsq(dist.xa, dist.xb, dist.y, dist.p, spec_a, spec_b)
        gamma = const_err - joint.error
        if gamma <= 1e-9:
            continue
        tested += 1
        gain_a = const_err - constrained_lsq(dist.xa, dist.y, dist.p, spec_a).error
        gain_b = const_err - constrained_lsq(dist.xb, dist.y, dist.p, spec_b).error
        if max(gain_a, gain_b) < gamma / 2.0 - 1e-9:
            return False, f"margin condition failed: γ={gamma:.4f}, best={max(gain_a, gain_b):.4f}"
    return True, f"{tested} substitute instances checked"


CHECKS: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("rho-counterexample-exactness", check_rho_exactness),
    ("rho-quadratic-ratio", check_rho_ratio_trend),
    ("swap-necessity-regrets", check_swap_necessity),
    ("xor-instances", check_xor_instances),
    ("information-substitutes-violation", check_information_substitutes_violation),
    ("weak-learning-extraction", check_weak_learning_extraction),
    ("weak-is-weaker-direction", check_weak_is_weaker),
]


def run_all(printer=print) -> bool:
    ok_all = True
    for name, fn in CHECKS:
        ok, detail = fn()
        ok_all = ok_all and ok
        printer(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok_all
