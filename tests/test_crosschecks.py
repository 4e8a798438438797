"""Independent brute-force recomputation of metrics produced by the library.

Every oracle here is hand-rolled with plain loops, numpy.linalg.lstsq,
numpy.linalg.solve or scipy.optimize so it shares no code path with the
implementation it checks.
"""

import copy
import hashlib
import itertools
import json
import math
import warnings
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy._core.multiarray import c_einsum  # the kernel the bank calls
from scipy.optimize import minimize

from collabpred.batch import (
    BatchSample,
    LinearModel,
    LsqOracle,
    collaborate,
    final_swap_regret,
    replay_rounds,
)
from collabpred.bayes import PriorTable, _codes, _one_term_dots, simulate_messages
from collabpred.core import (
    BOB,
    BucketingSpec,
    SequenceDataset,
    conversation_swap_regret,
    grid_index,
    level_sets,
    round_to_grid,
)
from collabpred.datagen import additive_batch_sample, additive_linear_noise
from collabpred.decisions import (
    BaselineForecaster,
    DecisionTask,
    DecisionTranscript,
    PolicySet,
    best_response,
    best_responses,
    decision_swap_regret,
    run_decision_protocol,
    utility_round_profile,
)
from collabpred.cli import main
from collabpred.learners import _FLAT_BELOW_D, ConversationWrapper, LinearClassSpec, RidgeBank
from collabpred.protocol import run_collaboration
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


def _regret_envelope(steps, d, m, C=1.0):
    """Envelope on one slot's swap regret from its experts' step counts.

    Sums each activated expert's forward-ridge bound 2d·ln(n_j+1) + C² and
    adds the grid-rounding mass; the self-consistency selection carries no
    formal guarantee of its own, so this is an empirical envelope rather
    than a certified bound.
    """
    active = steps[steps > 0]
    per_expert = float(np.sum(2.0 * d * np.log(active + 1.0) + C * C))
    return per_expert + int(steps.sum()) * (1.0 / m + 1.0 / (4.0 * m * m))


class TestConversationSwapRegretRecomputation:
    def test_entries_match_brute_force_on_learner_run(self):
        T = 2000
        ds = additive_linear_noise(T, seed=42, signal_a=0.4, signal_b=0.4, noise=0.1)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, 4)
        bucketing = BucketingSpec(g=0.25, m=10)
        xb = ds.x_b
        spec = LinearClassSpec(d=3, C=1.0, with_intercept=True)

        got_const = conversation_swap_regret(tr, BOB, "constant", bucketing)
        got_lin = conversation_swap_regret(tr, BOB, spec, bucketing, xb)
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
                # every entry stays within the envelope of the instance's step counts
                assert got_lin[(k, i)] <= _regret_envelope(
                    bob.bank.steps[bob.instances[(k, i)]], d=3, m=10)

    def test_per_instance_regret_matches_internal_state(self):
        # the (k, i) entry of the audit equals the swap regret of the
        # routed subsequence that instance (k, i) actually saw
        T = 600
        ds = additive_linear_noise(T, seed=43, signal_a=0.4, signal_b=0.4)
        alice = ConversationWrapper(d=3, m=8, g=0.25)
        bob = ConversationWrapper(d=3, m=8, g=0.25)
        tr = run_collaboration(ds, alice, bob, 4)
        bucketing = BucketingSpec(g=0.25, m=8)
        prev = tr.round_predictions(1)
        for i in range(1, 5):
            slot = bob.instances.get((2, i))
            mask = bucketing.bucket_ids(prev) == i
            if slot is None:
                assert not mask.any()
            else:
                assert bob.bank.steps[slot].sum() == int(mask.sum())


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
    re-inversion every 256 steps of an expert written out in full. With
    g = None (the swap kind) every round goes to instance (1, 0), and only
    the first own round of a day (k ≤ 2) updates it.
    """

    def __init__(self, d, m, g, a):
        self.d, self.m, self.g, self.a = d, m, g, a
        self.instances = {}

    def _instance(self, k, prev):
        if k == 1 or self.g is None:
            key = (1, 0)
        else:
            key = (k, min(max(int(math.floor(prev / self.g)) + 1, 1), int(round(1.0 / self.g))))
        if key not in self.instances:
            d, m, a = self.d, self.m, self.a
            self.instances[key] = {
                "grams": np.broadcast_to(a * np.eye(d), (m, d, d)).copy(),
                "invs": np.broadcast_to(np.eye(d) / a, (m, d, d)).copy(),
                "moments": np.zeros((m, d)),
                "steps": np.zeros(m, dtype=int),
                "active": None,
            }
        return self.instances[key]

    def forecasts(self, inst, x):
        x = np.asarray(x, dtype=float)
        u = inst["invs"] @ x
        s = u @ x
        raw = np.einsum("md,md->m", u, inst["moments"])
        return raw / (1.0 + s)

    def proposals(self, inst, x):
        m = self.m
        idx = np.clip(np.ceil(np.clip(self.forecasts(inst, x), 0.0, 1.0) * m - 0.5), 0, m)
        return np.asarray(idx, dtype=float) / m

    def predict(self, k, prev, x):
        inst, m = self._instance(k, prev), self.m
        props = self.proposals(inst, x)
        lo = np.arange(m) / m
        hi = (np.arange(m) + 1) / m
        i_star = int(np.argmin(np.maximum(0.0, np.maximum(lo - props, props - hi))))
        inst["active"] = i_star
        return float(props[i_star])

    def update(self, k, prev, x, y):
        if self.g is None and k > 2:
            return
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
        inst["active"] = None


def _assert_same_instance(bank, slot, inst):
    np.testing.assert_array_equal(bank.steps[slot], inst["steps"])
    np.testing.assert_array_equal(bank.moment[slot], inst["moments"])
    np.testing.assert_array_equal(bank.gram[slot], inst["grams"])
    np.testing.assert_array_equal(bank.inv[slot], inst["invs"])


class TestRidgeBankDifferential:
    """The bank-backed learner against the per-instance loop.

    Each day one side (Alice or Bob, with conversation or swap routing)
    predicts on its own rounds at one feature vector (later rounds are
    served from the day's memo, and a bucket seen for the first time
    creates an instance in the middle of the day), then updates every
    round. x arrives as a list, a fresh array, one read-only array shared
    by the whole day (its updates share one group of the queue) or a buffer
    the caller overwrites right after each update, and a few vectors recur
    across days. On some days the proposals and the bank arrays of one
    instance are read between the updates and the next prediction, which
    applies the queued updates early. Each day's unrounded forecasts of
    every expert must equal the loop's bit for bit; d runs past
    `_FLAT_BELOW_D`, so this checks the flat and the per-expert products of
    the selection. The examples with m = 1, or with all-zero labels (every
    proposal is 0, so expert 0 is always chosen), give one expert more than
    256 updates.
    """

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 10), m=st.sampled_from([1, 2, 3, 7, 20]),
           g=st.sampled_from([None, 1.0, 0.5, 0.25, 0.2, 0.1]),
           a=st.sampled_from([0.5, 1.0, 2.0]), K=st.integers(2, 8), days=st.integers(1, 80),
           seed=st.integers(0, 2**32 - 1), zero_labels=st.booleans(), bob=st.booleans())
    @example(d=2, m=1, g=1.0, a=1.0, K=5, days=300, seed=0, zero_labels=False, bob=False)
    @example(d=3, m=20, g=0.25, a=1.0, K=8, days=300, seed=1, zero_labels=True, bob=False)
    @example(d=3, m=1, g=0.25, a=1.0, K=6, days=100, seed=0, zero_labels=False, bob=False)
    @example(d=9, m=3, g=0.25, a=1.0, K=8, days=300, seed=2, zero_labels=False, bob=False)
    @example(d=3, m=4, g=None, a=1.0, K=8, days=300, seed=3, zero_labels=True, bob=True)
    def test_matches_per_instance_loop(self, d, m, g, a, K, days, seed, zero_labels, bob):
        rng = np.random.default_rng(seed)
        got = ConversationWrapper(d=d, m=m, g=g, a=a)
        ref = _ReferenceConversationLearner(d, m, g, a)
        rounds = range(2 if bob else 1, K + 1, 2)
        buffer = np.empty(d)

        def reused(x):
            buffer[:] = x
            return buffer

        # a feature vector recurs on later days, after updates changed the state
        pool = rng.uniform(-1.0, 1.0, size=(3, d)) / math.sqrt(d)
        for _ in range(days):
            x = rng.uniform(-1.0, 1.0, size=d) / math.sqrt(d)
            if rng.uniform() < 0.3:
                x = pool[rng.integers(3)].copy()
            elif rng.uniform() < 0.1:
                x[:] = 0.0
            shared = x.copy()
            shared.setflags(write=False)
            supply = (list, np.array, reused, lambda _x: shared)
            # counterparty messages on a coarse grid, so buckets repeat
            prevs = {k: None if k == 1 else float(rng.integers(0, 5)) / 4.0 for k in rounds}
            for k in rounds:
                want = ref.predict(k, prevs[k], x)
                assert repr(got.predict(k, prevs[k], supply[rng.integers(4)](x))) == repr(want)
            forecasts = got.bank._forecasts(x).reshape(-1, m)
            for key, inst in ref.instances.items():
                want = ref.forecasts(inst, x)
                assert forecasts[got.instances[key]].tobytes() == want.tobytes()
            y = 0.0 if zero_labels else float(rng.uniform())
            for k in rounds:
                ref.update(k, prevs[k], x, y)
                got.update(k, prevs[k], supply[rng.integers(4)](x), y)
                buffer[:] = np.nan
            if rng.uniform() < 0.2:
                keys = sorted(ref.instances)
                key = keys[rng.integers(len(keys))]
                slot, inst = got.instances[key], ref.instances[key]
                got_props = got.bank.proposals(x)[slot]
                assert repr(got_props.tolist()) == repr(ref.proposals(inst, x).tolist())
                _assert_same_instance(got.bank, slot, inst)
        assert set(got.instances) == set(ref.instances)
        for key, inst in ref.instances.items():
            _assert_same_instance(got.bank, got.instances[key], inst)

    # SHA-256 of the transcript, taken before updates were queued
    SWAP_TRANSCRIPT_SHA256 = "bc3a86d04efa18b055c4955edb68f4f14ac0839a775995e000366a48c519f9b2"

    def test_swap_learner_run_matches_pinned_hash(self, tmp_path):
        # one slot per bank and one update per side-day; Bob's m = 1
        cfg = {
            "mode": "online", "seed": 5, "days": 600, "rounds": 5, "eps": 0.2,
            "dataset": {"generator": "additive-linear-noise"},
            "alice": {"kind": "swap", "m": 20}, "bob": {"kind": "swap", "m": 1},
            "bucketing": {"g": 0.25, "m": 20},
            "transcript": str(tmp_path / "transcript.txt"),
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        transcript = (tmp_path / "transcript.txt").read_bytes()
        assert hashlib.sha256(transcript).hexdigest() == self.SWAP_TRANSCRIPT_SHA256


class TestLockstepDifferential:
    """Two banks sharing arrays as lanes against two lone banks.

    Alice's and Bob's lanes take a random interleaving of `begin_day`,
    `select`, `update`, `add_slot` and reads of the proposals and arrays,
    and a lone bank per party takes the same calls. Each call must return
    the same proposal and select the same expert, and the arrays of the
    used slots must have the same bytes. Each lane has its own regularizer;
    slots are created while updates are queued, up to `slots` per lane, so
    the capacity doubles and Bob's rows move under his queue. x arrives as a
    list, a fresh array, a read-only array or a buffer the caller
    overwrites right after the call. d runs past `_FLAT_BELOW_D`, m = 1 is
    the `np.vecdot` case, and the examples with many steps give one expert
    more than 256 updates.
    """

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 12), m=st.sampled_from([1, 2, 3, 7, 20]),
           a=st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0])),
           slots=st.integers(1, 9), steps=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(d=3, m=20, a=(1.0, 2.0), slots=9, steps=1200, seed=0)
    @example(d=9, m=1, a=(0.5, 1.0), slots=1, steps=3500, seed=1)
    @example(d=1, m=1, a=(2.0, 2.0), slots=2, steps=3500, seed=2)
    def test_matches_lone_banks(self, d, m, a, slots, steps, seed):
        rng = np.random.default_rng(seed)
        alice = RidgeBank(m, d, a[0])
        pairs = [(alice, RidgeBank(m, d, a[0])),
                 (RidgeBank(m, d, a[1], share=alice), RidgeBank(m, d, a[1]))]
        pool = rng.uniform(-1.0, 1.0, size=(4, d)) / math.sqrt(d)
        days = [pool[0], pool[1]]   # each party's feature vector of the day
        buffer = np.empty(d)

        def supplied(x):
            form = rng.integers(4)
            if form == 0:
                return x.tolist()
            if form == 1:
                return x.copy()
            if form == 2:
                buffer[:] = x
                return buffer
            frozen = x.copy()
            frozen.setflags(write=False)
            return frozen

        def both(pair, call, x=None):
            # call(bank) or call(bank, x as a caller supplies it) on each bank of the pair
            out = []
            for bank in pair:
                out.append(call(bank) if x is None else call(bank, supplied(x)))
                buffer[:] = np.nan
            return out

        def same_arrays(pair):
            n = pair[0].slots
            for attr in ("gram", "inv", "moment", "steps"):
                got, want = (getattr(bank, attr)[:n] for bank in pair)
                assert got.tobytes() == want.tobytes(), attr

        for _ in range(steps):
            p = int(rng.integers(2))
            pair, lane = pairs[p], pairs[p][0]
            u = rng.uniform()
            x = (days[p] if u < 0.6 else pool[rng.integers(4)] if u < 0.8
                 else rng.uniform(-1.0, 1.0, size=d) / math.sqrt(d))
            op = rng.choice(["begin", "slot", "select", "update", "read"],
                            p=[0.1, 0.05, 0.35, 0.45, 0.05])
            if op == "begin" or (op != "slot" and lane.slots == 0):
                days[p] = x
                both(pair, RidgeBank.begin_day, x)
            elif op == "slot":
                if lane.slots < slots:
                    got, want = both(pair, RidgeBank.add_slot)
                    assert got == want
            elif op == "select":
                slot = int(rng.integers(lane.slots))
                got, want = both(pair, lambda bank, x: bank.select(slot, x), x)
                assert repr(got) == repr(want)
                assert pair[0].active == pair[1].active
            elif op == "update":
                waiting = [s for s, i in enumerate(lane.active) if i is not None]
                if waiting:
                    slot = waiting[rng.integers(len(waiting))]
                    y = 0.0 if rng.uniform() < 0.5 else float(rng.uniform())
                    both(pair, lambda bank, x: bank.update(slot, x, y), x)
                    assert pair[0].active == pair[1].active
            else:
                got, want = both(pair, RidgeBank.proposals, x)
                assert got.tobytes() == want.tobytes()
                same_arrays(pair)
        for pair in pairs:
            same_arrays(pair)


def _per_matrix_gemv(rng, n, m, d):
    inv, x = rng.standard_normal((n, m, d, d)), rng.standard_normal(d)
    return inv.reshape(-1, d) @ x, np.concatenate([inv[s, i] @ x for s in range(n)
                                                   for i in range(m)])


def _per_slot_product(rng, n, m, d):
    u, x = rng.standard_normal((n, m, d)), rng.standard_normal(d)
    flat = np.vecdot(u.reshape(-1, d), x) if m == 1 else u.reshape(-1, d) @ x
    return flat, np.concatenate([u[s] @ x for s in range(n)])


def _vecdot_rows(rng, n, m, d):
    x, u = rng.standard_normal(d), rng.standard_normal((n * m, d))
    return np.vecdot(x, u), np.array([x @ row for row in u])


def _einsum_gm_rows(rng, n, m, d):
    # the bank keeps each moment as the last row of its Gram block, so the
    # einsum reads the moments with a row stride of (d+1)·d
    u, gm = rng.standard_normal((n, m, d)), rng.standard_normal((n, m, d + 1, d))
    return (c_einsum("kd,kd->k", u.reshape(-1, d), gm.reshape(-1, d + 1, d)[:, d]),
            np.concatenate([np.einsum("md,md->m", u[s], gm[s, :, d].copy()) for s in range(n)]))


def _update_rows(rng, n, m, d):
    # the update pass: one G⁻¹ @ x per expert with each row's own x, against
    # one product per party at that party's x
    g_inv, xs = rng.standard_normal((n * m, d, d)), rng.standard_normal((2, d))
    half = n * m // 2
    X = np.repeat(xs, [half, n * m - half], axis=0)
    return ((g_inv @ X[:, :, None]).reshape(-1, d),
            np.concatenate([g_inv[:half] @ xs[0], g_inv[half:] @ xs[1]]))


def _products_into_lane_rows(rng, n, m, d):
    # the selection pass writes a lane's products into its rows of buffers
    # that hold every lane; written with out=, they round as fresh products
    inv, x = rng.standard_normal((n * m, d, d)), rng.standard_normal(d)
    u, s = np.zeros((3 * n * m, d)), np.zeros(3 * n * m)
    rows = slice(n * m, 2 * n * m)
    if d < _FLAT_BELOW_D:
        np.matmul(inv.reshape(-1, d), x, out=u[rows].reshape(-1))
        want_u = (inv.reshape(-1, d) @ x).reshape(-1, d)
        if m == 1:
            np.vecdot(u[rows], x, out=s[rows])
            want_s = np.vecdot(want_u, x)
        else:
            np.matmul(u[rows], x, out=s[rows])
            want_s = want_u @ x
    else:
        np.matmul(inv, x, out=u[rows])
        np.matmul(u[rows].reshape(n, m, d), x, out=s[rows].reshape(n, m))
        want_u = inv @ x
        want_s = (want_u.reshape(n, m, d) @ x).reshape(-1)
    return np.concatenate([u[rows].ravel(), s[rows]]), np.concatenate([want_u.ravel(), want_s])


def _flat_einsum(rng, n, m, d):
    u, moment = rng.standard_normal((n, m, d)), rng.standard_normal((n, m, d))
    return (np.einsum("kd,kd->k", u.reshape(-1, d), moment.reshape(-1, d)),
            np.concatenate([np.einsum("md,md->m", u[s], moment[s]) for s in range(n)]))


class TestBankKernelIdentities:
    """The flat products of `RidgeBank` round like the per-slot ones.

    The bank evaluates every expert of every slot in one call, where the
    per-instance loop makes one call per slot or expert. With OpenBLAS,
    matrix-vector products round a row the same whatever the number of
    rows as long as a row has fewer than 8 terms, so the bank uses flat
    products only below `_FLAT_BELOW_D` features. numpy computes a one-row
    product as a dot, which rounds differently, and the bank then uses
    `np.vecdot`. The dot products of the update and the einsum of the
    selection are flat at every d. Lanes of a bank share the selection's
    einsum and the update's products, whose rows then hold several x; the
    update keeps one `np.vecdot` per x, which a single call over rows of
    several x does not round alike under every OpenBLAS kernel. A BLAS or
    numpy whose kernels do not keep these identities fails here, under the
    name of the kernel.
    """

    @pytest.mark.parametrize("kernel, dims", [
        (_per_matrix_gemv, range(1, _FLAT_BELOW_D)),
        (_per_slot_product, range(1, _FLAT_BELOW_D)),
        (_vecdot_rows, range(1, 13)),
        (_flat_einsum, range(1, 13)),
        (_einsum_gm_rows, range(1, 13)),
        (_update_rows, range(1, 17)),
        (_products_into_lane_rows, range(1, 13)),
    ], ids=lambda v: v.__name__.strip("_") if callable(v) else "")
    def test_flat_equals_per_slot(self, kernel, dims):
        rng = np.random.default_rng(2024)
        for d in dims:
            for n in (1, 2, 5, 16):
                for m in (1, 2, 3, 20):
                    got, want = kernel(rng, n, m, d)
                    assert got.tobytes() == want.tobytes(), f"{kernel.__name__} n={n} m={m} d={d}"


# --- grid rounding against the np.clip formulas ------------------------------


def _reference_grid(value, m):
    """Grid indices as np.clip computes them, and whether value is a scalar."""
    idx = np.clip(np.ceil(np.clip(value, 0.0, 1.0) * m - 0.5), 0, m)
    return idx, bool(np.isscalar(value) or np.ndim(value) == 0)


def _reference_round_to_grid(value, m):
    idx, scalar = _reference_grid(value, m)
    return float(idx) / m if scalar else np.asarray(idx, dtype=float) / m


def _reference_grid_index(value, m):
    idx, scalar = _reference_grid(value, m)
    if scalar:
        return int(idx)
    if np.isnan(idx).any():
        raise ValueError("cannot convert float NaN to integer")
    return np.asarray(idx, dtype=int)


def _outcome(fn, value, m):
    """fn(value, m) as (type, bytes), or (exception type, message)."""
    try:
        out = fn(value, m)
    except ValueError as e:
        return ValueError, str(e)
    if isinstance(out, np.ndarray):
        return (np.ndarray, out.dtype.str, out.shape), out.tobytes()
    return type(out), np.array(out).tobytes()


@st.composite
def _grid_inputs(draw):
    """(value, m): special values, ties at (j+½)/m and their neighbours, in every form."""
    m = draw(st.integers(1, 40))
    j = st.integers(-2, m + 1)
    tie = j.map(lambda j: (j + 0.5) / m)
    near = st.tuples(tie, st.sampled_from([-np.inf, np.inf])).map(
        lambda t: float(np.nextafter(*t)))
    special = st.sampled_from([0.0, -0.0, 1.0, -1e-300, 1e-300, 1.5, -0.5, 1e300, -1e300,
                               np.inf, -np.inf, np.nan])
    floats = st.one_of(special, tie, near, st.floats(allow_nan=True, allow_infinity=True),
                       st.floats(-0.1, 1.1))
    values = draw(st.lists(floats, min_size=1, max_size=12))
    form = draw(st.sampled_from(["float", "0-d", "0-d read-only", "list", "array",
                                 "read-only", "strided", "2-d", "float32", "int"]))
    a = np.array(values)
    if form == "float":
        return values[0], m
    if form.startswith("0-d"):
        a = np.array(values[0])
    elif form == "list":
        return values, m
    elif form == "strided":
        a = np.repeat(a, 2)[::2]
    elif form == "2-d":
        a = np.resize(a, (3, len(values)))
    elif form == "float32":
        with np.errstate(over="ignore"):   # beyond float32's range is ±inf
            a = a.astype(np.float32)
    elif form == "int":
        a = np.clip(np.nan_to_num(a), -7.0, 7.0).round().astype(int)
    if "read-only" in form or form == "strided":
        a.setflags(write=False)
    return a, m


class TestGridKernelDifferential:
    """`round_to_grid` and `grid_index` against the np.clip formulas they replaced.

    The core kernel calls the clip ufunc in place; the outputs must match
    the np.clip formulas in type, dtype, shape and bytes, including -0.0
    (ceil gives it below v·m = ½), ties, ±inf and NaN, and the caller's
    value must be left as it was.
    """

    @settings(max_examples=600, deadline=None)
    @given(_grid_inputs())
    @example((-0.0, 20))
    @example((np.array([-0.0, 0.01, 0.025, 0.975, 1.0]), 20))
    @example((np.array(np.nan), 4))
    @example((np.array([0.3, np.nan]), 4))
    @example((np.array([np.inf, -np.inf]), 1))
    def test_matches_clip_formulas(self, inputs):
        value, m = inputs
        before = copy.deepcopy(value)
        writeable = getattr(value, "flags", None) and value.flags.writeable
        for got_fn, want_fn in ((round_to_grid, _reference_round_to_grid),
                                (grid_index, _reference_grid_index)):
            assert _outcome(got_fn, value, m) == _outcome(want_fn, value, m)
        if isinstance(value, np.ndarray):
            assert value.tobytes() == before.tobytes()
            assert value.flags.writeable == writeable
        else:
            assert repr(value) == repr(before)

    def test_nan_rounds_to_nan_and_has_no_index(self):
        assert math.isnan(round_to_grid(float("nan"), 5))
        assert np.isnan(round_to_grid(np.array([0.5, np.nan]), 5)[1])
        for value in (float("nan"), np.array(np.nan), np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="NaN"):
                grid_index(value, 5)

    def test_below_half_a_step_rounds_to_negative_zero(self):
        out = round_to_grid(np.array([-0.0, 0.01, 0.0]), 20)
        assert np.signbit(out).tolist() == [True, True, True]
        assert math.copysign(1.0, round_to_grid(-0.0, 20)) == -1.0


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


# --- Bayes enumeration against the per-group loops it replaced ----------------


def _reference_simulate_messages(prior, K, m):
    """One posterior per group and round, each from its own dot."""
    support = prior.support()
    posts = np.full((prior.n, K), np.nan)
    msg_idx = np.full((prior.n, K), -1, dtype=int)
    codes = (_codes(prior.signals_a)[support], _codes(prior.signals_b)[support])
    for k in range(1, K + 1):
        history = msg_idx[support, : k - 1].T
        for _, rows in level_sets(codes[(k - 1) % 2], *history):
            idxs = support[rows]
            w = prior.p[idxs]
            posts[idxs, k - 1] = float(w @ prior.y[idxs] / w.sum())
        msg_idx[support, k - 1] = grid_index(posts[support, k - 1], m)
    return posts, msg_idx


def _reference_full_information_risk(prior):
    support = prior.support()
    groups = level_sets(_codes(prior.signals_a)[support], _codes(prior.signals_b)[support])
    risk = 0.0
    # summed in the order the support first meets each signal pair
    for _, rows in sorted(groups, key=lambda group: group[1][0]):
        idxs = support[rows]
        w = prior.p[idxs]
        mean = float(w @ prior.y[idxs] / w.sum())
        risk += float(w @ (mean - prior.y[idxs]) ** 2)
    return risk


_SIGNALS = [0, 1, 2, "0", "1", "x"]


@st.composite
def _priors(draw):
    """Priors with repeated (a, b) pairs, integer and string labels, and
    zero-probability atoms; labels on quarters or uniform, weights equal or
    uniform."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signals = []
    for _ in "ab":
        pool = draw(st.lists(st.sampled_from(_SIGNALS), min_size=1, max_size=4, unique=True))
        signals.append(tuple(pool[i] for i in rng.integers(0, len(pool), n)))
    y = rng.integers(0, 5, n) / 4.0 if draw(st.booleans()) else rng.uniform(size=n)
    p = np.ones(n) if draw(st.booleans()) else rng.uniform(size=n)
    p[rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    if not p.any():
        p[rng.integers(n)] = 1.0
    return PriorTable(*signals, y=y, p=p / p.sum())


_SIGNED_ZERO_PRIOR = PriorTable(signals_a=(0, 0, 1, "1"), signals_b=("x", "y", "x", "x"),
                                y=np.array([-0.0, 0.25, -0.0, 1.0]), p=np.full(4, 0.25))


def _bits(x):
    return np.asarray(x).tobytes()


class TestBayesEnumerationDifferential:
    """`simulate_messages` and `full_information_risk` against per-group loops.

    The library memoizes a simulation per prior and grid size, copies the
    posterior of a group that did not split since the acting party's last
    round, and takes one-row means in one array pass; each output must keep
    the bytes of one dot per group. Each prior is asked, at two grid sizes,
    for a horizon, then a shorter one (a prefix of the memo), then a longer
    one (computed afresh).
    """

    @settings(max_examples=300, deadline=None)
    @given(_priors(), st.lists(st.integers(1, 10), min_size=3, max_size=3),
           st.lists(st.integers(1, 20), min_size=2, max_size=2))
    @example(_SIGNED_ZERO_PRIOR, [1, 2, 3], [4, 1])
    def test_simulation_matches_per_group_loop(self, prior, horizons, grids):
        short, mid, long = sorted(horizons)
        for m, K in itertools.product(grids, (mid, short, long)):
            posts, msg_idx = simulate_messages(prior, K, m)
            want_posts, want_idx = _reference_simulate_messages(prior, K, m)
            assert _bits(posts) == _bits(want_posts), f"posteriors at K={K}, m={m}"
            assert _bits(msg_idx) == _bits(want_idx), f"messages at K={K}, m={m}"
            assert not posts.flags.writeable and not msg_idx.flags.writeable

    @settings(max_examples=400, deadline=None)
    @given(_priors())
    @example(_SIGNED_ZERO_PRIOR)
    def test_full_information_risk_matches_per_group_loop(self, prior):
        got, want = prior.full_information_risk(), _reference_full_information_risk(prior)
        assert type(got) is float and got.hex() == want.hex()

    def test_risk_adds_terms_in_first_occurrence_order(self):
        # pair terms 2⁻⁵⁶ (p, u), 1/8 (q, u), 2⁻⁵⁶ (p, v) and a zero: each tiny
        # term added to 1/8 is a tie that rounds back to 1/8, while key order,
        # which puts both tiny terms first, gives 1/8 + 2⁻⁵⁵
        t = 2.0**-55
        prior = PriorTable(signals_a=("p", "q", "p") * 2 + ("r",),
                           signals_b=("u", "u", "v") * 2 + ("w",),
                           y=np.array([0.0] * 3 + [1.0] * 3 + [0.0]),
                           p=np.array([t, 0.25, t] * 2 + [0.5 - 2.0**-53]))
        assert prior.full_information_risk() == _reference_full_information_risk(prior) == 0.125


class TestPosteriorKernelIdentities:
    """The one-row means of the Bayes enumeration round like a one-term dot.

    `bayes._one_term_dots` takes the mean `w @ y / w.sum()` of every one-row
    group in one array pass, as (w·y + 0.0) / w. That holds when numpy's 1-D
    dot of one-element arrays (a BLAS ddot) adds the single rounded product
    to 0.0, and a one-element sum is its element. A numpy or BLAS that
    breaks either fails here, under the name of the kernel.
    """

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(11)
        w = np.concatenate([rng.uniform(size=300), [1.0, 0.5, 1e-300, 5e-324, 0.7, 0.3]])
        y = np.concatenate([rng.uniform(size=300), [0.0, -0.0, 1.0, 0.25, 1e-310, -0.0]])
        return w, y

    def test_one_term_dot_is_the_product(self):
        w, y = self._pairs()
        for i in range(w.shape[0]):
            dot = w[i:i + 1] @ y[i:i + 1]
            assert _bits(dot) == _bits(w[i] * y[i] + 0.0), f"ddot of w={w[i]!r}, y={y[i]!r}"
        want = [w[i:i + 1] @ y[i:i + 1] for i in range(w.shape[0])]
        assert _bits(_one_term_dots(w, y)) == _bits(want)

    def test_one_term_sum_is_the_term(self):
        w, _ = self._pairs()
        for i in range(w.shape[0]):
            assert _bits(w[i:i + 1].sum()) == _bits(w[i]), f"sum of the one term {w[i]!r}"

    def test_one_row_mean_is_elementwise(self):
        w, y = self._pairs()
        want = [w[i:i + 1] @ y[i:i + 1] / w[i:i + 1].sum() for i in range(w.shape[0])]
        assert _bits(_one_term_dots(w, y) / w) == _bits(want)


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


# --- round-major decision protocol against the day-major loop ----------------


def _day_major_protocol(dataset, task, alice, bob, K):
    """The day-by-day predict/update loop the round-major driver replaced."""
    if K < 2:
        raise ValueError("K must be at least 2")
    T = len(dataset)
    preds = np.empty((T, K, task.d))
    acts = np.empty((T, K), dtype=int)
    for t, (x_a, x_b, y) in enumerate(zip(dataset.x_a, dataset.x_b, dataset.y)):
        prev_action: Optional[int] = None
        day_actions = []
        for k in range(1, K + 1):
            side = alice if k % 2 == 1 else bob
            x = x_a if k % 2 == 1 else x_b
            yhat = np.asarray(side.predict(k, prev_action, x), dtype=float)
            if yhat.min() < 0.0 or yhat.max() > 1.0:
                warnings.warn(f"forecast clipped to [0,1]^d at day {t + 1}, round {k}")
                yhat = np.clip(yhat, 0.0, 1.0)
            a = best_response(task, yhat)
            preds[t, k - 1] = yhat
            acts[t, k - 1] = a
            day_actions.append(a)
            prev_action = a
        prev_action = None
        for k in range(1, K + 1):
            side = alice if k % 2 == 1 else bob
            x = x_a if k % 2 == 1 else x_b
            side.update(k, prev_action, x, y)
            prev_action = day_actions[k - 1]
    return DecisionTranscript(preds, acts, dataset.y, task)


# the decision-actions benchmark task
_BENCH_UTILITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0]]


def _decision_task(rng, d, n_actions, kind):
    if kind == "bench":
        return DecisionTask.from_matrix(_BENCH_UTILITY)
    raw = rng.integers(-4, 5, size=(n_actions, d)) / 4.0 if kind == "quarters" else (
        rng.uniform(-1, 1, size=(n_actions, d)))
    return DecisionTask.from_matrix(raw)


def _decision_days(rng, T, d, eighths):
    y = rng.uniform(size=(T, d))
    if eighths:
        y = np.round(y * 8) / 8
    x_a, x_b = rng.uniform(-0.5, 0.5, size=(T, 2)), rng.uniform(-0.5, 0.5, size=(T, 1))
    return SequenceDataset(x_a, x_b, y)


def _assert_same_run(got, want, sides_got, sides_want):
    assert got.predictions.tobytes() == want.predictions.tobytes()
    assert got.actions.tobytes() == want.actions.tobytes()
    for f, r in zip(sides_got, sides_want):
        assert f.counts == r.counts
        assert f.sums.keys() == r.sums.keys()
        for key in r.sums:
            assert f.sums[key].tobytes() == r.sums[key].tobytes()


class _Overshooting(BaselineForecaster):
    """The baseline mean stretched past [0,1], so forecasts get clipped."""

    def predict(self, k, prev_action, x=None):
        return 1.5 * super().predict(k, prev_action, x) - 0.25

    def forecast_round(self, k, prev_actions, x, y):
        return 1.5 * super().forecast_round(k, prev_actions, x, y) - 0.25


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


class TestDecisionProtocolDifferential:
    """The round-major driver against the day-major loop it replaced.

    Predictions, actions and every forecaster sum must match bit for bit,
    also from forecasters left in some state by an earlier run, on
    matrices with exact ties and on outcomes rounded to eighths.
    """

    @settings(max_examples=120, deadline=None)
    @given(d=st.integers(1, 4), n_actions=st.integers(1, 6),
           kind=st.sampled_from(["quarters", "uniform", "bench"]), T=st.integers(1, 400),
           K=st.integers(2, 6), eighths=st.booleans(), seed_T=st.integers(0, 60),
           seed_K=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    @example(d=3, n_actions=4, kind="bench", T=400, K=4, eighths=False, seed_T=0, seed_K=2,
             seed=5)
    @example(d=1, n_actions=1, kind="quarters", T=1, K=2, eighths=True, seed_T=0, seed_K=2,
             seed=0)
    def test_matches_day_major_loop(self, d, n_actions, kind, T, K, eighths, seed_T, seed_K,
                                    seed):
        rng = np.random.default_rng(seed)
        task = _decision_task(rng, d, n_actions, kind)
        alice, bob = BaselineForecaster(task.d), BaselineForecaster(task.d)
        if seed_T:
            _day_major_protocol(_decision_days(rng, seed_T, task.d, eighths), task, alice, bob,
                                seed_K)
        ds = _decision_days(rng, T, task.d, eighths)
        sides = (copy.deepcopy(alice), copy.deepcopy(bob))
        got = run_decision_protocol(ds, task, *sides, K)
        want = _day_major_protocol(ds, task, alice, bob, K)
        _assert_same_run(got, want, sides, (alice, bob))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), n_actions=st.integers(2, 6), T=st.integers(1, 200),
           K=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_clipped_forecasts_match(self, d, n_actions, T, K, seed):
        rng = np.random.default_rng(seed)
        task = _decision_task(rng, d, n_actions, "quarters")
        ds = _decision_days(rng, T, d, True)
        sides_got, sides_want = ([_Overshooting(d), _Overshooting(d)] for _ in range(2))
        got, got_warnings = _recorded(run_decision_protocol, ds, task, *sides_got, K)
        want, want_warnings = _recorded(_day_major_protocol, ds, task, *sides_want, K)
        _assert_same_run(got, want, sides_got, sides_want)
        assert got_warnings == want_warnings
        assert got.predictions.min() >= 0.0 and got.predictions.max() <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 4), n_actions=st.integers(1, 6), T=st.integers(1, 200),
           grid=st.sampled_from([2, 4, 8, None]), seed=st.integers(0, 2**32 - 1))
    def test_best_responses_match_per_row(self, d, n_actions, T, grid, seed):
        # forecasts on a coarse grid against a quarter-valued matrix tie often
        rng = np.random.default_rng(seed)
        task = _decision_task(rng, d, n_actions, "quarters")
        yhat = rng.uniform(size=(T, d))
        if grid is not None:
            yhat = np.round(yhat * grid) / grid
        assert best_responses(task, yhat).tolist() == [best_response(task, y) for y in yhat]


# --- decision utility sums against the per-day loops -------------------------


def _loop_decision_swap_regret(seq, task, policies):
    """decision_swap_regret with realized utility summed day by day."""
    realized = 0.0
    for t in range(seq.T):
        realized += task.utility(int(seq.actions[t]), seq.outcomes[t])
    total = 0.0
    all_utils = seq.outcomes @ task.matrix.T
    util_by_policy = {name: all_utils[np.arange(seq.T), labels]
                      for name, labels in policies.items()}
    for v in np.unique(seq.actions):
        rows = np.flatnonzero(seq.actions == v)
        total += max(float(np.sum(u[rows])) for u in util_by_policy.values())
    return total - realized


def _loop_utility_profile(transcript, eps):
    """(utility by round, ε-disagreements by round) with one loop step per day."""
    task = transcript.task
    util, disagreements = {}, {}
    for k in range(1, transcript.K + 1):
        seq = transcript.round(k)
        util[k] = 0.0
        for t in range(seq.T):
            util[k] += task.utility(int(seq.actions[t]), seq.outcomes[t])
        if k > 1:
            disagreements[k] = 0
            for t in range(transcript.T):
                own = task.utility(int(seq.actions[t]), seq.predictions[t])
                prev = task.utility(int(transcript.actions[t, k - 2]), seq.predictions[t])
                disagreements[k] += own - prev > eps
    return util, disagreements


class TestDecisionUtilitySumsDifferential:
    """Per-row dot products summed in day order equal the per-day loops bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(d=st.integers(1, 4), n_actions=st.integers(1, 6),
           kind=st.sampled_from(["quarters", "uniform", "bench"]), T=st.integers(1, 300),
           K=st.integers(2, 5), eighths=st.booleans(), best=st.booleans(),
           eps=st.sampled_from([0.0, 0.05, 0.25]), seed=st.integers(0, 2**32 - 1))
    @example(d=3, n_actions=4, kind="bench", T=300, K=4, eighths=True, best=True, eps=0.0,
             seed=5)
    def test_matches_day_loops(self, d, n_actions, kind, T, K, eighths, best, eps, seed):
        rng = np.random.default_rng(seed)
        task = _decision_task(rng, d, n_actions, kind)
        preds = rng.uniform(size=(T, K, task.d))
        outs = rng.uniform(size=(T, task.d))
        if eighths:
            preds, outs = np.round(preds * 8) / 8, np.round(outs * 8) / 8
        acts = (best_responses(task, preds.reshape(-1, task.d)).reshape(T, K) if best
                else rng.integers(0, task.n_actions, size=(T, K)))
        tr = DecisionTranscript(preds, acts, outs, task)
        policies = PolicySet(task.n_actions, T, {"random": rng.integers(0, task.n_actions, T)})
        for k in range(1, K + 1):
            got = decision_swap_regret(tr.round(k), task, policies)
            assert repr(got) == repr(_loop_decision_swap_regret(tr.round(k), task, policies))
        prof = utility_round_profile(tr, eps)
        util, disagreements = _loop_utility_profile(tr, eps)
        assert repr(prof.utility_by_round) == repr(util)
        assert prof.disagreements == disagreements


class TestOrderedSums:
    """Sums whose bits do not depend on the Python version.

    Builtin sum() adds floats with compensation from Python 3.12 on:
    sum([1e16, 1.0, -1e16]) is 1.0 there and 0.0 on 3.11, as a plain loop
    gives. The masses below tell the two apart; the audits must give the
    loop's value.
    """

    def test_utility_by_round_adds_days_in_order(self):
        # utilities 1e16, 1, -1e16 on days 1-3 of every round
        matrix = np.array([[1e16], [1.0], [-1e16]])
        task = DecisionTask(actions=("a", "b", "c"), matrix=matrix, lipschitz=2e16,
                            column_offsets=np.zeros(1), scale=1.0)
        acts = np.tile(np.arange(3)[:, None], (1, 2))
        tr = DecisionTranscript(np.ones((3, 2, 1)), acts, np.ones((3, 1)), task)
        assert utility_round_profile(tr, eps=0.1).utility_by_round == {1: 0.0, 2: 0.0}

    def test_round_error_slack_adds_masses_in_order(self, monkeypatch):
        from collabpred import protocol
        from collabpred.core import ConversationTranscript

        masses = {(2, 1): 1e16, (2, 2): 1.0, (2, 3): 1.0, (4, 1): 5.0}
        monkeypatch.setattr(protocol, "conversation_calibration_error",
                            lambda transcript, side, bucketing: masses)
        tr = ConversationTranscript(np.full((4, 4), 0.5), np.zeros(4))
        prof = protocol.round_error_profile(tr, BucketingSpec(g=0.25, m=4))
        # ((0 + 1e16) + 1) + 1 rounds to 1e16 twice; compensated it is 1e16 + 2
        assert prof.slack_by_round[2] == 0.25 * 4 + 3.0 * 1e16
        assert prof.slack_by_round[4] == 0.25 * 4 + 3.0 * 5.0
