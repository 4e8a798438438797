"""Independent brute-force recomputation of metrics produced by the library.

Every oracle here is hand-rolled with plain loops, numpy.linalg.lstsq,
numpy.linalg.solve or scipy.optimize so it shares no code path with the
implementation it checks.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from collabpred.batch import (
    BatchSample,
    LinearModel,
    LsqOracle,
    collaborate,
    final_swap_regret,
    replay_rounds,
)
from collabpred.core import BOB, BucketingSpec, conversation_swap_regret, grid_index, level_sets
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
        xb = ds.x_b
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
            mask = bucketing.bucket_ids(prev) == i
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


class _ReferenceConversationLearner:
    """Conversation learner as a plain loop over a dict of per-instance arrays.

    Each (round, bucket) instance holds m experts as m×d×d Gram matrices and
    inverses, m×d moments and m step counts, with the proposal, np.clip grid
    rounding, bucket-distance selection, Sherman–Morrison update and exact
    re-inversion every 256 steps of an expert written out in full.
    """

    def __init__(self, d, m, g, a):
        self.d, self.m, self.g, self.a = d, m, g, a
        self.n_buckets = int(round(1.0 / g))
        self.instances = {}

    def _instance(self, k, prev):
        key = (1, 0) if k == 1 else (
            k, min(max(int(math.floor(prev / self.g)) + 1, 1), self.n_buckets))
        if key not in self.instances:
            d, m, a = self.d, self.m, self.a
            self.instances[key] = {
                "grams": np.broadcast_to(a * np.eye(d), (m, d, d)).copy(),
                "invs": np.broadcast_to(np.eye(d) / a, (m, d, d)).copy(),
                "moments": np.zeros((m, d)),
                "steps": np.zeros(m, dtype=int),
                "active": None,
                "log": [],
            }
        return self.instances[key]

    def predict(self, k, prev, x):
        inst, m = self._instance(k, prev), self.m
        x = np.asarray(x, dtype=float)
        u = inst["invs"] @ x
        s = u @ x
        raw = np.einsum("md,md->m", u, inst["moments"])
        idx = np.clip(np.ceil(np.clip(raw / (1.0 + s), 0.0, 1.0) * m - 0.5), 0, m)
        props = np.asarray(idx, dtype=float) / m
        lo = np.arange(m) / m
        hi = (np.arange(m) + 1) / m
        i_star = int(np.argmin(np.maximum(0.0, np.maximum(lo - props, props - hi))))
        inst["active"] = i_star
        return float(props[i_star])

    def update(self, k, prev, x, y):
        inst = self._instance(k, prev)
        x = np.asarray(x, dtype=float)
        i = inst["active"]
        inst["grams"][i] += np.outer(x, x)
        u = inst["invs"][i] @ x
        inst["invs"][i] -= np.outer(u, u) / (1.0 + x @ u)
        inst["moments"][i] += y * x
        inst["steps"][i] += 1
        if inst["steps"][i] % 256 == 0:
            inst["invs"][i] = np.linalg.inv(inst["grams"][i])
        inst["log"].append((x.copy(), float(y)))
        inst["active"] = None


class TestRidgeBankDifferential:
    """The bank-backed conversation learner against the per-instance loop.

    Each day one side predicts on its rounds 1, 3, 5, ... at one feature
    vector (later rounds are served from the day's memo, and a bucket seen
    for the first time creates an instance in the middle of the day), then
    updates every round. x arrives as a list or as a fresh array, and a
    few vectors recur across days. The examples with m = 1, or with
    all-zero labels (every proposal is 0, so expert 0 is always chosen),
    give one expert more than 256 updates.
    """

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), m=st.sampled_from([1, 2, 3, 7, 20]),
           g=st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1]), a=st.sampled_from([0.5, 1.0, 2.0]),
           K=st.integers(2, 8), days=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
           zero_labels=st.booleans())
    @example(d=2, m=1, g=1.0, a=1.0, K=5, days=300, seed=0, zero_labels=False)
    @example(d=3, m=20, g=0.25, a=1.0, K=8, days=300, seed=1, zero_labels=True)
    def test_matches_per_instance_loop(self, d, m, g, a, K, days, seed, zero_labels):
        rng = np.random.default_rng(seed)
        got = ConversationWrapper(d=d, m=m, g=g, a=a, trace=True)
        ref = _ReferenceConversationLearner(d, m, g, a)
        rounds = range(1, K + 1, 2)
        fresh = (lambda x: list(x), lambda x: np.array(x))
        # a feature vector recurs on later days, after updates changed the state
        pool = rng.uniform(-1.0, 1.0, size=(3, d)) / math.sqrt(d)
        for _ in range(days):
            x = rng.uniform(-1.0, 1.0, size=d) / math.sqrt(d)
            if rng.uniform() < 0.3:
                x = pool[rng.integers(3)].copy()
            elif rng.uniform() < 0.1:
                x[:] = 0.0
            # counterparty messages on a coarse grid, so buckets repeat
            prevs = {k: None if k == 1 else float(rng.integers(0, 5)) / 4.0 for k in rounds}
            for k in rounds:
                want = ref.predict(k, prevs[k], x)
                assert repr(got.predict(k, prevs[k], fresh[rng.integers(2)](x))) == repr(want)
            y = 0.0 if zero_labels else float(rng.uniform())
            for k in rounds:
                ref.update(k, prevs[k], x, y)
                got.update(k, prevs[k], fresh[rng.integers(2)](x), y)
        assert set(got.instances) == set(ref.instances)
        for key, inst in ref.instances.items():
            view = got.instances[key]
            np.testing.assert_array_equal(view.steps, inst["steps"])
            np.testing.assert_array_equal(view.grams, inst["grams"])
            np.testing.assert_array_equal(view.inv_grams, inst["invs"])
            np.testing.assert_array_equal(view.moments, inst["moments"])
            assert len(view.update_log) == len(inst["log"])
            for (gx, gy), (rx, ry) in zip(view.update_log, inst["log"]):
                assert gy == ry
                np.testing.assert_array_equal(gx, rx)


# --- level sets against np.unique and boolean masks ---------------------------

_INT_KEYS = [-3, 0, 1, 2, 7]
_FLOAT_KEYS = [-1.5, -0.0, 0.0, 1e-300, 0.25, 0.5, 1.0]


def _mask_reference(keys):
    """(key tuple, mask) per distinct key tuple: nested np.unique, first key outermost."""
    groups = [((), np.ones(len(keys[0]), dtype=bool))]
    for key in keys:
        groups = [
            ((*prefix, v), mask & (key == v))
            for prefix, mask in groups
            for v in np.unique(key[mask])
        ]
    return groups


@st.composite
def _keyed_rows(draw):
    n = draw(st.integers(0, 40))
    keys = [
        np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        for pool in draw(st.lists(st.sampled_from([_INT_KEYS, _FLOAT_KEYS]),
                                  min_size=1, max_size=2))
    ]
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).standard_normal((n, 3)) * 10.0 ** np.arange(3)
    return keys, values


class TestLevelSetsDifferential:
    """`level_sets` against a np.unique + boolean-mask loop.

    Groups, keys, row order and the bits of every reduction over a group
    must match, so replacing a mask loop by it leaves every output alone.
    """

    @settings(max_examples=300, deadline=None)
    @given(_keyed_rows())
    @example(([np.array([], dtype=int)], np.empty((0, 3))))
    @example(([np.array([0.5])], np.ones((1, 3))))
    @example(([np.array([0.0, -0.0, 0.0, -0.0]), np.array([1, 1, 0, 1])],
              np.arange(12.0).reshape(4, 3)))
    def test_matches_unique_and_masks(self, keyed):
        keys, values = keyed
        got = level_sets(*keys)
        want = _mask_reference(keys)
        assert [key for key, _ in got] == [key for key, _ in want]
        for (_, rows), (_, mask) in zip(got, want):
            np.testing.assert_array_equal(rows, np.flatnonzero(mask))
            assert repr(np.sum(values[rows, 0])) == repr(np.sum(values[mask, 0]))
            assert repr(np.sum(values[rows], axis=0)) == repr(np.sum(values[mask], axis=0))
        # every row lands in exactly one group
        assert sorted(np.concatenate([rows for _, rows in got] or [[]]).tolist()) == list(
            range(len(keys[0]))
        )


# --- batch replay against the per-point scalar recursion ----------------------


def _predict_row(mdl, x):
    return float(np.dot(x, mdl.coef)) + mdl.intercept


def _internal_boost_eval(x, transcript, m):
    """Replay one internal-boost model on a single point; returns a 1/m² grid value."""
    m2 = m * m
    v_idx = grid_index(_predict_row(transcript.initial, x), m2)
    for phase in transcript.phases:
        mdl = phase.get(int(v_idx))
        if mdl is None:
            # level set unseen in training: the ensemble passes the value through
            continue
        v_idx = grid_index(_predict_row(mdl, x), m2)
    return v_idx / m2


def _cross_boost_eval(x, prev_value, levels, m):
    """Replay one cross-boost round on a single point; returns a 1/m grid value."""
    v_idx = grid_index(prev_value, m)
    entry = None if levels is None else levels.get(int(v_idx))
    if entry is None:
        return v_idx / m
    raw = _internal_boost_eval(x, entry, m)
    return grid_index(raw, m) / m


def _eval_test_point(x_a, x_b, transcript_a, transcript_b, trace=None):
    """Replay the trained exchange on one fresh point; returns a grid value.

    Pass a list as `trace` to collect the prediction of every round,
    starting with the round-0 value.
    """
    if transcript_b.initial is None:
        raise ValueError("Bob's transcript is missing the round-0 model")
    if transcript_a.m != transcript_b.m:
        raise ValueError("transcripts disagree on the grid size")
    m = transcript_b.m
    R = transcript_b.rounds_total
    yhat = grid_index(_predict_row(transcript_b.initial, x_b), m) / m
    if trace is not None:
        trace.append(yhat)
    r = 0
    while r < R:
        if r % 2 == 0:
            levels = transcript_a.rounds.get(r + 1)
            if levels is None:
                raise ValueError(f"Alice's transcript is missing round {r + 1}")
            yhat = _cross_boost_eval(x_a, yhat, levels, m)
        else:
            levels = transcript_b.rounds.get(r + 1)
            if levels is None:
                raise ValueError(f"Bob's transcript is missing round {r + 1}")
            yhat = _cross_boost_eval(x_b, yhat, levels, m)
        if trace is not None:
            trace.append(yhat)
        r += 1
    return yhat


def _nonlinear_sample(rng, n, d_a, d_b, scale, fortran):
    xa = rng.uniform(-scale, scale, size=(n, d_a)) / math.sqrt(d_a)
    xb = rng.uniform(-scale, scale, size=(n, d_b)) / math.sqrt(d_b)
    y = np.clip(0.5 + 0.4 * np.sin(4 * xa[:, 0]) + 0.4 * xb[:, 0] * xb[:, -1]
                + 0.1 * rng.standard_normal(n), 0.0, 1.0)
    if fortran:
        xa, xb = np.asfortranarray(xa), np.asfortranarray(xb)
    return BatchSample(x_a=xa, x_b=xb, y=y)


class TestBatchReplayDifferential:
    """Level-set replay against the per-point scalar recursion it replaced.

    Tiny samples with nonlinear labels keep levels on both sides and run
    internal-boost phases in about a third of the examples; fresh points
    drawn from a wider box reach levels unseen in training, and
    `defer_all` turns every entry into ⊥.
    """

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), n_fresh=st.integers(1, 30), m=st.integers(2, 12),
           d_a=st.integers(1, 6), d_b=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           fortran=st.booleans(), defer_all=st.booleans())
    @example(n=1, n_fresh=1, m=2, d_a=1, d_b=1, seed=0, fortran=False, defer_all=False)
    @example(n=30, n_fresh=20, m=12, d_a=5, d_b=6, seed=3, fortran=True, defer_all=False)
    def test_matches_scalar_recursion(self, n, n_fresh, m, d_a, d_b, seed, fortran, defer_all):
        rng = np.random.default_rng(seed)
        train = _nonlinear_sample(rng, n, d_a, d_b, 1.0, fortran)
        fresh = _nonlinear_sample(rng, n_fresh, d_a, d_b, 1.5, fortran)
        oracle_a, oracle_b = (LsqOracle(LinearClassSpec(d=d, C=1.0, with_intercept=True))
                              for d in (d_a, d_b))
        result = collaborate(train, oracle_a, oracle_b, m)
        ta, tb = result.transcript_a, result.transcript_b
        if defer_all:
            for levels in (*ta.rounds.values(), *tb.rounds.values()):
                levels.update(dict.fromkeys(levels))
        else:
            got = replay_rounds(train, ta, tb)
            for r, pr in enumerate(result.prediction_rounds):
                np.testing.assert_array_equal(got[:, r], pr.values)
        for points in (train, fresh):
            got = replay_rounds(points, ta, tb)
            assert got.shape == (points.n, result.rounds + 1)
            for i in range(points.n):
                trace = []
                _eval_test_point(points.x_a[i], points.x_b[i], ta, tb, trace)
                assert got[i].tolist() == trace

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["C", "F", "strided"]))
    def test_predict_rows_match_scalar_dot(self, n, d, seed, layout):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2 * d))
        X = {"C": np.ascontiguousarray(X[:, :d]), "F": np.asfortranarray(X[:, :d]),
             "strided": X[:, ::2]}[layout]
        mdl = LinearModel(coef=rng.standard_normal(d), intercept=float(rng.standard_normal()))
        got = mdl.predict(X)
        assert [repr(v) for v in got.tolist()] == [repr(_predict_row(mdl, x)) for x in X]
