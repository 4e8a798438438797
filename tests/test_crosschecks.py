"""Independent brute-force recomputation of metrics produced by the library.

Every oracle here is hand-rolled with plain loops, numpy.linalg.lstsq,
numpy.linalg.solve or scipy.optimize so it shares no code path with the
implementation it checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from collabpred.batch import LsqOracle, collaborate, final_swap_regret
from collabpred.core import BOB, BucketingSpec, conversation_swap_regret
from collabpred.datagen import additive_batch_sample, additive_linear_noise
from collabpred.learners import ConversationWrapper, LinearClassSpec
from collabpred.protocol import ProtocolConfig, run_collaboration
from collabpred.weaklearn import constrained_lsq, joint_lsq


def _brute_level_set_regret(preds, outs, xs=None):
    """Swap regret with per-level best constant (or unconstrained affine fit)."""
    total = 0.0
    bench = 0.0
    for v in sorted(set(preds.tolist())):
        idx = [t for t in range(len(preds)) if preds[t] == v]
        sub_y = outs[idx]
        total += sum((v - y) ** 2 for y in sub_y)
        if xs is None:
            mean = sum(sub_y) / len(sub_y)
            bench += sum((mean - y) ** 2 for y in sub_y)
        else:
            Z = np.array([[*xs[t], 1.0] for t in idx])
            sol, *_ = np.linalg.lstsq(Z, sub_y, rcond=None)
            bench += float(np.sum((Z @ sol - sub_y) ** 2))
    return total - bench


class TestConversationSwapRegretRecomputation:
    def test_entries_match_brute_force_on_learner_run(self):
        T = 2000
        ds = additive_linear_noise(T, seed=42, signal_a=0.4, signal_b=0.4, noise=0.1)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, ProtocolConfig(K=4, eps=0.2))
        bucketing = BucketingSpec(g=0.25, m=10)
        xb = ds.features_b()
        spec = LinearClassSpec(d=3, C=1.0, with_intercept=True)

        got_const = conversation_swap_regret(tr, BOB, "constant", bucketing)
        got_lin = conversation_swap_regret(tr, BOB, spec, bucketing, xb)
        envelopes = bob.regret_envelopes()
        for k in (2, 4):
            prev = tr.round_predictions(k - 1)
            cur = tr.round_predictions(k)
            for i in range(1, 5):
                lo, hi = (i - 1) * 0.25, i * 0.25
                idx = [
                    t for t in range(T)
                    if (prev[t] >= lo and (prev[t] < hi or (i == 4 and prev[t] <= 1.0)))
                ]
                if not idx:
                    assert got_const[(k, i)] == 0.0
                    continue
                sub_p = cur[np.array(idx)]
                sub_y = tr.outcomes[np.array(idx)]
                expect_const = _brute_level_set_regret(sub_p, sub_y)
                assert got_const[(k, i)] == pytest.approx(expect_const, abs=1e-9)
                expect_lin = _brute_level_set_regret(sub_p, sub_y, xb[np.array(idx)])
                # the library's constrained solver can only lose to the
                # unconstrained fit, never beat it; the norm bound binds
                # rarely here so the two stay close
                assert got_lin[(k, i)] <= expect_lin + 1e-9
                assert got_lin[(k, i)] == pytest.approx(expect_lin, abs=0.05)
                # every entry stays within the envelope the learner reports
                assert got_lin[(k, i)] <= envelopes[(k, i)]

    def test_per_instance_regret_matches_internal_state(self):
        # the (k, i) entry of the audit equals the swap regret of the
        # routed subsequence that instance (k, i) actually saw
        T = 600
        ds = additive_linear_noise(T, seed=43, signal_a=0.4, signal_b=0.4)
        alice = ConversationWrapper(d=3, m=8, g=0.25, trace=True)
        bob = ConversationWrapper(d=3, m=8, g=0.25, trace=True)
        tr = run_collaboration(ds, alice, bob, ProtocolConfig(K=4, eps=0.2))
        bucketing = BucketingSpec(g=0.25, m=8)
        prev = tr.round_predictions(1)
        for i in range(1, 5):
            inst = bob.instances.get((2, i))
            mask = bucketing.bucket_members(prev, i)
            if inst is None:
                assert not mask.any()
            else:
                assert len(inst.update_log) == int(mask.sum())


class TestBatchSwapRegretRecomputation:
    def test_final_swap_regret_matches_brute_force(self):
        sample = additive_batch_sample(500, seed=77)
        spec = LinearClassSpec(d=sample.x_a.shape[1], C=1.0, with_intercept=True)
        result = collaborate(sample, LsqOracle(spec), LsqOracle(spec), m=8)
        vals = result.final_values
        got = final_swap_regret(vals, sample, spec, spec)
        total = 0.0
        bench = 0.0
        for v in sorted(set(vals.tolist())):
            idx = [i for i in range(sample.n) if vals[i] == v]
            ys = sample.y[idx]
            total += float(np.sum((v - ys) ** 2))
            best = np.inf
            for view in (sample.x_a, sample.x_b):
                Z = np.array([[*view[i], 1.0] for i in idx])
                sol, *_ = np.linalg.lstsq(Z, ys, rcond=None)
                best = min(best, float(np.sum((Z @ sol - ys) ** 2)))
            bench += best
        expect = (total - bench) / sample.n
        # unconstrained per-level fits are only stronger than the bounded class
        assert got >= expect - 1e-9
        assert got == pytest.approx(expect, abs=1e-6)
        assert got <= 3.0 / 8


class TestJointBenchmarkBoundedOptimum:
    def test_rho_two_constrained_error_is_nine_sixteenths(self):
        # bounded joint optimum on the ρ=2 instance: (2ρ−1)²/4ρ² = 9/16
        from collabpred.weaklearn import gen_counterexample_rho

        dist = gen_counterexample_rho(2.0)
        spec = LinearClassSpec(d=1, C=1.0, with_intercept=True)
        joint = joint_lsq(dist.xa, dist.xb, dist.y, dist.p, spec, spec)
        assert joint.error == pytest.approx(9.0 / 16.0, abs=1e-12)
        # the analytic optimum (−1, +1, 0) is a KKT point; enumeration of a
        # fine grid over the feasible box cannot beat it
        best_grid = np.inf
        for wa in np.linspace(-1, 1, 41):
            for wb in np.linspace(-1, 1, 41):
                preds = wa * dist.xa[:, 0] + wb * dist.xb[:, 0]
                best_grid = min(best_grid, float(dist.p @ (preds - dist.y) ** 2))
        assert joint.error <= best_grid + 1e-12


# --- bounded least squares against independent references -------------------

_REL_TOL = 1e-9


def _bisection_one_ball(X, y, w, C, with_intercept):
    """(θ, b) of min Σw(xθ + b − y)² s.t. ‖θ‖ ≤ C, by bisection on the multiplier.

    θ(λ) = (XcᵀWXc + λI)⁻¹XcᵀWyc shrinks as λ grows; the bound is reached at
    the λ where ‖θ(λ)‖ = C. λ = 0 (the minimum-norm least-squares θ) when
    that θ is feasible; otherwise only positive λ is evaluated, so a
    singular Gram is fine.
    """
    x_mean = w @ X / w.sum() if with_intercept else np.zeros(X.shape[1])
    y_mean = w @ y / w.sum() if with_intercept else 0.0
    Xc, yc = X - x_mean, y - y_mean
    G = (Xc * w[:, None]).T @ Xc
    c = (Xc * w[:, None]).T @ yc
    theta = np.linalg.lstsq(G, c, rcond=None)[0]
    if np.linalg.norm(theta) <= C:
        return theta, y_mean - x_mean @ theta
    lo, hi = 0.0, np.linalg.norm(c) / C + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(np.linalg.solve(G + mid * np.eye(len(c)), c)) > C:
            lo = mid
        else:
            hi = mid
    theta = np.linalg.solve(G + hi * np.eye(len(c)), c)
    return theta, y_mean - x_mean @ theta


def _slsqp_blocks(Z, y, w, sizes, radii):
    """Weighted squared error of an SLSQP solution of the block-ball problem."""
    H = (Z * w[:, None]).T @ Z
    g = (Z * w[:, None]).T @ y
    owner = np.repeat(np.arange(len(sizes)), sizes)
    cons = [{"type": "ineq",
             "fun": lambda v, j=j: radii[j] ** 2 - np.sum(v[owner == j] ** 2),
             "jac": lambda v, j=j: -2.0 * v * (owner == j)} for j in range(len(sizes))]
    res = minimize(lambda v: v @ H @ v - 2.0 * g @ v, np.zeros(len(owner)),
                   jac=lambda v: 2.0 * (H @ v - g), constraints=cons, method="SLSQP",
                   options={"ftol": 1e-15, "maxiter": 500})
    v = res.x
    norms = np.sqrt(np.bincount(owner, v * v))
    v = v * np.minimum(1.0, np.asarray(radii) / np.maximum(norms, 1e-300))[owner]
    return float(w @ (Z @ v - y) ** 2)


@st.composite
def _bounded_problem(draw, blocks):
    n = draw(st.integers(1, 10))
    ds = [draw(st.integers(1, 6 if blocks == 1 else 3)) for _ in range(blocks)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(-1.0, 1.0, size=(n, d)) for d in ds]
    if draw(st.booleans()):
        xs[0][:, 0] = rng.uniform(-1.0, 1.0)    # a column collinear with the intercept
    slope = draw(st.floats(0.0, 8.0))
    y = sum(x @ rng.standard_normal(x.shape[1]) for x in xs) * slope
    y = y + rng.normal(draw(st.floats(-3.0, 3.0)), 0.3, size=n)
    w = np.ones(n) if draw(st.booleans()) else rng.dirichlet(np.ones(n))
    C = draw(st.floats(0.5, 3.0))
    return xs, y, w, C, draw(st.booleans())


class TestBoundedLsqDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_bounded_problem(blocks=1))
    def test_one_ball_matches_multiplier_bisection(self, problem):
        (X,), y, w, C, with_b = problem
        spec = LinearClassSpec(d=X.shape[1], C=C, with_intercept=with_b)
        fit = constrained_lsq(X, y, w, spec)
        scale = max(float(w @ y**2), 1e-12)
        assert np.linalg.norm(fit.theta) <= C * (1.0 + 1e-12)
        assert fit.kkt_residual <= _REL_TOL
        assert fit.error == pytest.approx(
            float(w @ (X @ fit.theta + fit.intercept - y) ** 2), rel=1e-9, abs=1e-12)
        theta, b = _bisection_one_ball(X, y, w, C, with_b)
        ref = float(w @ (X @ theta + b - y) ** 2)
        assert fit.error <= ref + _REL_TOL * scale
        if fit.projected:
            # the optimum is unique in its predictions, so the reference is tight
            assert fit.error >= ref - _REL_TOL * scale

    @settings(max_examples=120, deadline=None)
    @given(_bounded_problem(blocks=2))
    def test_joint_matches_scipy(self, problem):
        (xa, xb), y, w, C, with_b = problem
        spec_a = LinearClassSpec(d=xa.shape[1], C=C, with_intercept=with_b)
        spec_b = LinearClassSpec(d=xb.shape[1], C=C + 0.5, with_intercept=with_b)
        fit = joint_lsq(xa, xb, y, w, spec_a, spec_b)
        scale = max(float(w @ y**2), 1e-12)
        assert fit.converged
        assert fit.kkt_residual <= _REL_TOL
        assert np.linalg.norm(fit.theta_a) <= C * (1.0 + 1e-12)
        assert np.linalg.norm(fit.theta_b) <= (C + 0.5) * (1.0 + 1e-12)
        assert abs(fit.intercept) <= 1.0 + 1e-12
        n = y.shape[0]
        Z = np.hstack([xa, xb] + ([np.ones((n, 1))] if with_b else []))
        sizes = [xa.shape[1], xb.shape[1]] + ([1] if with_b else [])
        radii = [C, C + 0.5] + ([1.0] if with_b else [])
        assert fit.error <= _slsqp_blocks(Z, y, w, sizes, radii) + _REL_TOL * scale
