"""Weak-learning extraction for bounded star-shaped linear classes.

Also houses the exact constrained least-squares oracle and the generators of
the lower-bound instances: the scaled-noise family D_ρ, the product instance
showing external regret does not aggregate, and the XOR instances.
`collabpred.verify` checks them.

Labels in this module are analysis-scale (often ±1); an affine map to the
[0,1] protocol scale is recorded on each generated distribution. Gains are
scale-covariant and always reported in the analysis scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import UncertifiedFit, _check_probabilities, _owned

__all__ = [
    "LinearClassSpec",
    "FiniteDistribution",
    "WeakLearnResult",
    "LsqFit",
    "JointFit",
    "UncertifiedFit",
    "constrained_lsq",
    "joint_lsq",
    "weak_learner_extract",
    "gen_counterexample_rho",
    "gen_swap_necessity",
    "gen_xor_counterexamples",
]

@dataclass(frozen=True)
class LinearClassSpec:
    """Norm-bounded linear predictors, free intercept: {x ↦ θᵀx + b : ‖θ‖₂ ≤ C}."""

    d: int
    C: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not self.C >= 0.5:   # NaN too
            raise ValueError("norm bound C must be at least 1/2")


# A bounded fit is certified when its duality gap is at most this fraction of
# the objective at zero (a feasible point), i.e. of the trivial predictor's error.
_KKT_RTOL = 1e-9
_NORM_SLACK = 1e-12
# Curvature, relative to the largest eigenvalue of the Gram matrix, given to
# its null space when several blocks are solved together.
_NULL_CURVATURE = 1e-10


def _rows(x, n: int, d: Optional[int], what: str) -> np.ndarray:
    """x as a float array of n rows and d columns (any number when d is None),
    a 1-D x being one column; ValueError naming both shapes otherwise. An
    input is never transposed to fit."""
    X = np.asarray(x, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] != n or d not in (None, X.shape[1]):
        want = f"({n}, {'d' if d is None else d})"
        raise ValueError(f"{what} has shape {np.shape(x)}, expected {want}")
    return X


@dataclass(frozen=True)
class FiniteDistribution:
    """Finitely supported joint distribution over (x_a, x_b, y) with finite
    features and labels; its arrays are read-only copies made by `core._owned`."""

    xa: np.ndarray          # (n, d_a)
    xb: np.ndarray          # (n, d_b)
    y: np.ndarray           # (n,)
    p: np.ndarray           # (n,) probabilities
    label_map: Optional[Tuple[float, float]] = None  # y_protocol = offset + scale·y

    def __post_init__(self):
        y = _owned(self.y)
        p = _owned(self.p)
        xa = _owned(_rows(self.xa, y.shape[0], None, "xa"))
        xb = _owned(_rows(self.xb, y.shape[0], None, "xb"))
        _check_probabilities(p, "atom")
        if not all(np.isfinite(a).all() for a in (xa, xb, y)):
            raise ValueError("atom features and labels must be finite")
        object.__setattr__(self, "xa", xa)
        object.__setattr__(self, "xb", xb)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def mean_label(self) -> float:
        return float(self.p @ self.y)

    def constant_error(self) -> float:
        mu = self.mean_label()
        return float(self.p @ (mu - self.y) ** 2)


@dataclass
class LsqFit:
    """One-sided fit: coefficients, intercept and weighted squared error.

    `projected` is True when the unconstrained least-squares coefficients
    broke the norm bound and the bounded solver ran; `kkt_residual` is that
    solver's relative duality gap (0.0 on the closed-form path).
    """

    theta: np.ndarray
    intercept: float
    error: float
    projected: bool = False
    kkt_residual: float = 0.0


@dataclass
class JointFit:
    """Additive two-block fit h_A(x_a) + h_B(x_b) + b with a shared intercept b.

    `converged` is False when the bounded solver could not certify its
    point; `kkt_residual` is its relative duality gap (0.0 on the
    closed-form path).
    """

    theta_a: np.ndarray
    theta_b: np.ndarray
    intercept: float
    error: float
    converged: bool = True
    kkt_residual: float = 0.0

    def certified_error(self) -> float:
        """`error`; raises UncertifiedFit naming the relative duality gap
        when the fit is not certified."""
        if not self.converged:
            raise UncertifiedFit(
                f"joint fit not certified: relative duality gap {self.kkt_residual:.3e}")
        return self.error


def _weighted_lstsq(Z: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    sw = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(Z * sw[:, None], y * sw, rcond=None)
    return sol


def _dual_newton(solve, g, owner, r, lam):
    """Projected Newton ascent on q(λ) = −gᵀv(λ) − Σ λ_j r_j², v(λ) = solve(λ, g).

    The full step that solves the secular equations 1/‖v_j(λ)‖ = 1/r_j of
    the free blocks is taken when it raises q by a sufficient amount. With
    several blocks those equations are coupled and their Newton step can
    point almost across the ascent directions; the Newton step on q itself
    is then taken instead, halving t on the projected arc max(λ + t·step, 0)
    until q rises by a sufficient amount. The loop ends when the KKT
    conditions hold to rounding, or when a step neither raises q above its
    rounding level nor lowers the KKT slack. Near a singular Gram matrix q
    is so flat that its rises fall below that level while the slack still
    shrinks, so progress is judged by the slack too. Returns (λ, v, ‖v_j‖).
    """
    eps = np.finfo(float).eps
    p, k = g.shape[0], r.shape[0]

    def lagrangian_min(lam):
        v = solve(lam, g[:, None])[:, 0]
        norms = np.sqrt(np.bincount(owner, v * v, minlength=k))
        slack = np.where(lam > 0.0, np.abs(norms - r), np.maximum(norms - r, 0.0))
        return v, norms, float(np.max(slack / r))

    v, norms, slack = lagrangian_min(lam)
    while slack > 4.0 * eps:
        grad = norms**2 - r**2
        live = norms > 0.0
        free = ((lam > 0.0) | (grad > 0.0)) & live
        newton = np.where(live, 0.0, -lam)    # a vanished block drops its multiplier
        trials = []
        if free.any():
            P = np.zeros((p, k))
            P[np.arange(p), owner] = v
            J = (P.T @ solve(lam, P))[np.ix_(free, free)]
            nf, rf = norms[free], r[free]
            secular = newton.copy()
            secular[free] = np.linalg.solve(J, nf**2 * (nf - rf) / rf)
            newton[free] = np.linalg.solve(J, grad[free]) / 2.0
            trials.append((secular, 1.0))
        trials += [(newton, 2.0**-i) for i in range(41)]
        for step, t in trials:
            lam_t = np.maximum(lam + t * step, 0.0)
            v_t, norms_t, slack_t = lagrangian_min(lam_t)
            # q(λ_t) − q(λ) = Σ_j Δλ_j(⟨v_t,j, v_j⟩ − r_j²), free of cancellation
            rise = (lam_t - lam) @ (np.bincount(owner, v_t * v, minlength=k) - r**2)
            if rise > max(1e-4 * (grad @ (lam_t - lam)), 0.0):
                break
        else:
            break
        stalled = rise <= eps * (abs(g @ v) + lam @ r**2) and slack_t >= slack
        lam, v, norms, slack = lam_t, v_t, norms_t, slack_t
        if stalled:
            break
    return lam, v, norms


def _ball_lsq(H: np.ndarray, g: np.ndarray, f0: float, sizes, radii
              ) -> Tuple[np.ndarray, float, bool]:
    """Minimise f(v) = vᵀHv − 2gᵀv + f0 subject to ‖v_j‖ ≤ r_j on consecutive blocks.

    `sizes` are the block lengths (they cover v in order) and `radii` their
    bounds; H = ZᵀWZ and g = ZᵀWy come from a weighted least-squares
    problem, so g lies in the range of H. The concave dual
    q(λ) = min_v f(v) + Σ λ_j(‖v_j‖² − r_j²) is maximised over λ ≥ 0.

    First one multiplier is shared by all coordinates, which is the
    trust-region subproblem for the ball of radius ‖r‖: with the
    eigendecomposition of H each Newton step on its secular equation is
    O(p), and Newton rises monotonically to the root (Moré & Sorensen,
    "Computing a Trust Region Step", 1983). For one block that is the
    answer; for several it is the starting point of projected Newton over
    the block multipliers. Directions where H vanishes do not change f; the
    component of g along them is rounding and is dropped, and they get a
    small curvature (_NULL_CURVATURE), so that among the minimisers the one
    with the smallest null-space component is taken.

    The blocks are then scaled into their balls, which makes v primal
    feasible, and the certificate is the duality gap f(v) − q(λ), computed
    with the unregularised H; by weak duality it bounds f(v) − min f. It is
    the sum of a stationarity term and the complementary slackness terms
    λ_j(r_j² − ‖v_j‖²), so it bounds both. Returns (v, gap / f0, certified)
    with certified ⇔ gap / f0 ≤ _KKT_RTOL; f0 = f(0) is the error of the
    zero (always feasible) predictor.
    """
    p, k = g.shape[0], len(sizes)
    r = np.asarray(radii, dtype=float)
    owner = np.repeat(np.arange(k), sizes)
    lam_h, Q = np.linalg.eigh(H)
    # H = 0 only with g = 0, where any curvature gives v = 0
    top = float(lam_h[-1]) if lam_h[-1] > 0.0 else 1.0
    null = lam_h <= p * np.finfo(float).eps * top
    a = Q.T @ g
    a[null] = 0.0
    spectrum = np.where(null, _NULL_CURVATURE * top, lam_h)
    g_range = Q @ a

    def shared_solve(lam, rhs):
        return Q @ ((Q.T @ rhs) / (spectrum + lam[0])[:, None])

    lam, v, norms = _dual_newton(shared_solve, g_range, np.zeros(p, dtype=int),
                                 np.array([np.sqrt(r @ r)]), np.zeros(1))
    lam = np.full(k, lam[0])
    if k > 1:
        H_reg = (Q * spectrum) @ Q.T

        def block_solve(lam, rhs):
            return np.linalg.solve(H_reg + np.diag(lam[owner]), rhs)

        lam, v, norms = _dual_newton(block_solve, g_range, owner, r, lam)

    v = v * np.minimum(1.0, r / np.where(norms > 0.0, norms, 1.0))[owner]
    # Weak duality makes q(μ) a lower bound for every μ ≥ 0. With a null
    # space, λ may carry tiny multipliers caused only by its curvature, so
    # the smallest multipliers are also tried at zero.
    gap = np.inf
    for cut in np.concatenate([[-1.0], np.unique(lam) if null.any() else []]):
        mu = np.where(lam > cut, lam, 0.0)
        u = np.linalg.lstsq(H + np.diag(mu[owner]), g, rcond=None)[0]
        gap = min(gap, abs(float(v @ H @ v - 2.0 * g @ v + g @ u + mu @ r**2)))
    residual = gap / max(f0, np.finfo(float).tiny)
    return v, residual, residual <= _KKT_RTOL


def constrained_lsq(x, y, weights=None, spec: LinearClassSpec = None) -> LsqFit:
    """Weighted least squares over {θᵀx + b : ‖θ‖₂ ≤ C}.

    When the closed-form (minimum-norm) least-squares coefficients satisfy
    the bound they are returned as they are. Otherwise the free intercept is
    eliminated by centring at the weighted means and the d×d trust-region
    problem is solved exactly by `_ball_lsq`, which certifies the optimum
    with a duality gap or raises UncertifiedFit. Error is Σ w_i·(residual)²,
    so unit weights give a plain sum and probability weights give an
    expectation.
    """
    if spec is None:
        raise ValueError("LinearClassSpec required")
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n == 0:
        raise ValueError("empty support")
    X = _rows(x, n, spec.d, "x")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    Z = np.hstack([X, np.ones((n, 1))])

    sol = _weighted_lstsq(Z, y, w)
    theta, b = sol[:-1], float(sol[-1])
    projected = False
    residual = 0.0
    if np.linalg.norm(theta) > spec.C + _NORM_SLACK:
        projected = True
        x_mean = w @ X / w.sum()
        y_mean = float(w @ y / w.sum())
        Xc, yc = X - x_mean, y - y_mean
        Xw = Xc * w[:, None]
        theta, residual, certified = _ball_lsq(
            Xw.T @ Xc, Xw.T @ yc, float(w @ yc**2), [spec.d], [spec.C])
        if not certified:
            raise UncertifiedFit(
                f"bounded least squares not certified: relative duality gap {residual:.3e}")
        b = y_mean - float(x_mean @ theta)
        sol = np.append(theta, b)
    err = float(w @ (Z @ sol - y) ** 2)
    return LsqFit(theta=theta, intercept=b, error=err, projected=projected,
                  kkt_residual=residual)


def joint_lsq(xa, xb, y, weights=None, spec_a: LinearClassSpec = None,
              spec_b: LinearClassSpec = None) -> JointFit:
    """Best additive predictor h_A + h_B with per-block norm bounds.

    The shared intercept is constrained to |b| ≤ 1. If the closed-form
    least-squares solution is feasible it is returned exactly; otherwise
    `_ball_lsq` solves the problem with θ_a, θ_b and the intercept as three
    norm balls, and `converged` reports whether its duality-gap certificate
    holds. Error is in the weight scale (sum for unit weights, expectation
    for probabilities).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    Xa = _rows(xa, n, spec_a.d, "xa")
    Xb = _rows(xb, n, spec_b.d, "xb")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    da, db = Xa.shape[1], Xb.shape[1]
    Z = np.hstack([Xa, Xb, np.ones((n, 1))])
    sizes = [da, db, 1]
    radii = [spec_a.C, spec_b.C, 1.0]
    edges = np.cumsum([0] + sizes)

    sol = _weighted_lstsq(Z, y, w)
    converged = True
    residual = 0.0
    if any(np.linalg.norm(sol[lo:hi]) > bound + _NORM_SLACK
           for lo, hi, bound in zip(edges, edges[1:], radii)):
        Zw = Z * w[:, None]
        sol, residual, converged = _ball_lsq(Zw.T @ Z, Zw.T @ y, float(w @ y**2), sizes, radii)
    ta, tb = sol[:da], sol[da:da + db]
    b = float(sol[-1])
    err = float(w @ (Z @ sol - y) ** 2)
    return JointFit(theta_a=ta, theta_b=tb, intercept=b, error=err, converged=converged,
                    kkt_residual=residual)


@dataclass
class WeakLearnResult:
    """Outcome of turning a joint improvement into a one-sided improvement."""

    side: str                      # "A" or "B"
    alpha: float
    coef: np.ndarray               # scaled one-sided linear part α·f
    intercept: float               # label mean μ
    achieved_gain: float
    required_gain: float
    gamma: float


def weak_learner_extract(dist: FiniteDistribution, f_a: np.ndarray, f_b: np.ndarray,
                         b: float, C: float) -> WeakLearnResult:
    """Extract a single-side predictor h = α·f + μ beating the constant baseline.

    The supplied joint predictor h_J(x) = f_a·x_a + f_b·x_b + b must improve
    over the best constant by some γ > 0 (computed here; otherwise an error
    is raised). The side whose centered-label correlation reaches γ/4 is
    scaled by α = γ/(4C²), which guarantees a gain of at least γ²/(16C²)
    whenever the parts are C-bounded on the support.
    """
    if not C >= 0.5:   # NaN too
        raise ValueError("C must be at least 1/2")
    f_a = np.asarray(f_a, dtype=float)
    f_b = np.asarray(f_b, dtype=float)
    mu = dist.mean_label()
    ybar = dist.y - mu
    preds_j = dist.xa @ f_a + dist.xb @ f_b + b
    gamma = float(dist.p @ ybar**2 - dist.p @ (preds_j - dist.y) ** 2)
    if not gamma > 0:   # NaN too
        raise ValueError(f"no joint improvement: gamma = {gamma:.3g}")

    vals_a = dist.xa @ f_a
    vals_b = dist.xb @ f_b
    corr_a = float(dist.p @ (vals_a * ybar))
    corr_b = float(dist.p @ (vals_b * ybar))
    side = "A" if corr_a >= corr_b else "B"
    vals = vals_a if side == "A" else vals_b
    coef_side = f_a if side == "A" else f_b

    alpha = gamma / (4.0 * C * C)
    h_vals = alpha * vals + mu
    achieved = float(dist.p @ ybar**2 - dist.p @ (h_vals - dist.y) ** 2)
    return WeakLearnResult(
        side=side,
        alpha=alpha,
        coef=alpha * coef_side,
        intercept=mu,
        achieved_gain=achieved,
        required_gain=gamma * gamma / (16.0 * C * C),
        gamma=gamma,
    )


# --- lower-bound instances ------------------------------------------------

_QUARTERS = np.full(4, 0.25)


def gen_counterexample_rho(rho: float) -> FiniteDistribution:
    """Four-atom scaled-noise instance: x_a = ξ_a/2, x_b = x_a + ξ_b/(2ρ), y = ξ_b.

    Individually, the A side has zero gain over the constant predictor and
    the B side gains 1/(ρ²+1), while the norm-1 joint class gains
    (4ρ−1)/4ρ², quadratically more. Labels are ±1; the recorded affine map
    (y+1)/2 moves them to [0,1] for protocol use.
    """
    if not rho >= 1.0:   # NaN too
        raise ValueError("rho must be at least 1")
    atoms = []
    for xi_a in (-1.0, 1.0):
        for xi_b in (-1.0, 1.0):
            xa = 0.5 * xi_a
            xb = xa + xi_b / (2.0 * rho)
            atoms.append((xa, xb, xi_b))
    arr = np.array(atoms)
    return FiniteDistribution(
        xa=arr[:, 0:1], xb=arr[:, 1:2], y=arr[:, 2], p=_QUARTERS, label_map=(0.5, 0.5),
    )


def gen_swap_necessity() -> Tuple[FiniteDistribution, np.ndarray]:
    """Product-label instance with the prediction rule ŷ = x_a/2.

    x_a, x_b independent uniform on {0,1} and y = x_a·x_b. The rule has no
    external regret to either one-sided linear class yet positive external
    regret (1/16) to the joint class.
    """
    atoms = []
    for a in (0.0, 1.0):
        for b_ in (0.0, 1.0):
            atoms.append((a, b_, a * b_))
    arr = np.array(atoms)
    dist = FiniteDistribution(xa=arr[:, 0:1], xb=arr[:, 1:2], y=arr[:, 2], p=_QUARTERS)
    predictions = arr[:, 0] / 2.0
    return dist, predictions


def gen_xor_counterexamples() -> Tuple[FiniteDistribution, FiniteDistribution]:
    """Two agreement-without-aggregation instances.

    (i) independent uniform bits with y = x_a ⊕ x_b: both marginal optima
    are the constant 1/2, yet the parties would know y exactly by pooling.
    (ii) independent ±1 signs with y = x_a·x_b: the multiplicative joint
    predictor is perfect while every additive combination gains nothing.
    """
    bits = []
    for a in (0.0, 1.0):
        for b_ in (0.0, 1.0):
            bits.append((a, b_, float(int(a) ^ int(b_))))
    arr = np.array(bits)
    xor_dist = FiniteDistribution(xa=arr[:, 0:1], xb=arr[:, 1:2], y=arr[:, 2], p=_QUARTERS)
    signs = []
    for a in (-1.0, 1.0):
        for b_ in (-1.0, 1.0):
            signs.append((a, b_, a * b_))
    arr2 = np.array(signs)
    prod_dist = FiniteDistribution(
        xa=arr2[:, 0:1], xb=arr2[:, 1:2], y=arr2[:, 2], p=_QUARTERS, label_map=(0.5, 0.5),
    )
    return xor_dist, prod_dist
