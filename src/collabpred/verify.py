"""Exact checks of the lower-bound instances and the extraction guarantee.

Every instance check reads its least errors from `least_errors`, and
`substitutes` compares them as the information-substitutes inequality does.
run_all runs CHECKS, the checks of the CLI's verify mode, which the
acceptance tests assert too.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from .core import level_errors
from .weaklearn import (
    FiniteDistribution,
    LinearClassSpec,
    gen_counterexample_rho,
    gen_swap_necessity,
    gen_xor_counterexamples,
    joint_lsq,
    weak_learner_extract,
)

__all__ = ["run_all", "CHECKS", "least_errors", "substitutes", "random_distribution"]

_EXACT = 1e-12


def least_errors(dist: FiniteDistribution, C: float, joint: bool = True):
    """(constant, Alice's, Bob's, joint error, Bob's fit): the least errors of
    `dist` over the constants, each side's class and the joint class (None
    unless `joint`), every class norm-bounded by C, and Bob's one-sided fit,
    one `core.level_errors` set. Raises UncertifiedFit when a bounded fit is not certified."""
    spec_a = LinearClassSpec(d=dist.xa.shape[1], C=C)
    spec_b = LinearClassSpec(d=dist.xb.shape[1], C=C)
    _, _, ((fit_a,), (fit_b,)) = level_errors((np.zeros(dist.n),), dist.y, dist.p,
                                              ((spec_a, dist.xa), (spec_b, dist.xb)))
    err_joint = (joint_lsq(dist.xa, dist.xb, dist.y, dist.p, spec_a, spec_b).certified_error()
                 if joint else None)
    return dist.constant_error(), fit_a.error, fit_b.error, err_joint, fit_b


def substitutes(errors) -> Tuple[bool, float, float]:
    """(holds, lhs, rhs) of `least_errors`' output: B's marginal value on top
    of A, lhs = err_A − err_J, against B's standalone value,
    rhs = err_const − err_B; holds ⇔ lhs ≤ rhs + 1e-9."""
    const, err_a, err_b, err_joint, _fit_b = errors
    lhs, rhs = err_a - err_joint, const - err_b
    return lhs <= rhs + 1e-9, lhs, rhs


def check_rho_exactness() -> Tuple[bool, str]:
    """Side gains 1/(ρ²+1) and bounded joint gain (4ρ−1)/4ρ² at ρ ∈ {1,2,4}."""
    worst = 0.0
    for rho in (1.0, 2.0, 4.0):
        const, err_a, err_b, err_joint, fit_b = least_errors(gen_counterexample_rho(rho), 1.0)
        expect_b = 1.0 / (rho * rho + 1.0)
        expect_j = (4.0 * rho - 1.0) / (4.0 * rho * rho)
        worst = max(
            worst,
            abs(const - err_a),
            abs(const - err_b - expect_b),
            abs(const - err_joint - expect_j),
            abs(float(fit_b.theta[0]) - 2.0 * rho / (rho * rho + 1.0)),
        )
    return worst <= _EXACT, f"max deviation {worst:.3e}"


def check_rho_ratio_trend() -> Tuple[bool, str]:
    """gain_B/gain_J ~ Θ(1/ρ): gain_B/gain_J² stays within constant factors."""
    ratios = []
    for rho in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        const, _err_a, err_b, err_joint, _fit_b = least_errors(gen_counterexample_rho(rho), 1.0)
        ratios.append((const - err_b) / (const - err_joint) ** 2)
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    return ok, "ratios " + ", ".join(f"{r:.4f}" for r in ratios)


def check_swap_necessity() -> Tuple[bool, str]:
    """External regrets (0, 0, 1/16) of the ŷ = x_a/2 rule against H_A, H_B
    and the joint class."""
    dist, preds = gen_swap_necessity()
    rule_err = float(dist.p @ (preds - dist.y) ** 2)
    _const, err_a, err_b, err_joint, _fit_b = least_errors(dist, 1.0)
    worst = max(
        abs(rule_err - 0.125),
        abs(rule_err - err_a),
        abs(rule_err - err_b),
        abs(rule_err - err_joint - 1.0 / 16.0),
        abs(err_joint - 1.0 / 16.0),
    )
    return worst <= _EXACT, f"max deviation {worst:.3e}"


def check_xor_instances() -> Tuple[bool, str]:
    """Marginal optima are constants; the pooled/product predictor is exact."""
    xor_dist, prod_dist = gen_xor_counterexamples()
    worst = 0.0
    for dist in (xor_dist, prod_dist):
        const, err_a, err_b, _, _ = least_errors(dist, 1.0, joint=False)
        worst = max(worst, abs(const - err_a), abs(const - err_b))
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
    holds, lhs, rhs = substitutes(least_errors(gen_counterexample_rho(1.0), 2.0))
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
        spec_a = LinearClassSpec(d=dist.xa.shape[1], C=C)
        spec_b = LinearClassSpec(d=dist.xb.shape[1], C=C)
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
        try:
            errors = least_errors(dist, 1.0)
        except ArithmeticError as e:
            return False, f"trial {trial}: {e}"
        holds, _lhs, _rhs = substitutes(errors)
        const, err_a, err_b, err_joint, _fit_b = errors
        gamma = const - err_joint
        if not holds or gamma <= 1e-9:
            continue
        tested += 1
        best = max(const - err_a, const - err_b)
        if best < gamma / 2.0 - 1e-9:
            return False, f"margin condition failed: γ={gamma:.4f}, best={best:.4f}"
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
    """Run every check and print one PASS/FAIL line each; an uncertified
    bounded fit fails its check rather than stopping the run."""
    ok_all = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except ArithmeticError as e:
            ok, detail = False, str(e)
        ok_all = ok_all and ok
        printer(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok_all
