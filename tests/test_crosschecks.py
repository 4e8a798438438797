"""Independent brute-force recomputation of metrics produced by the library.

Every oracle here is hand-rolled with plain loops, numpy.linalg.lstsq,
numpy.linalg.solve or scipy.optimize so it shares no code path with the
implementation it checks.
"""

import collections
import copy
import dataclasses
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
from collabpred.bayes import (PriorTable, _one_term_dots, expected_conversation_swap_regret,
                              simulate_messages)
from collabpred.core import (
    ALICE,
    BOB,
    BucketingSpec,
    ConversationTranscript,
    SequenceDataset,
    conversation_calibration_error,
    conversation_swap_regret,
    disagreement_fraction,
    ece,
    grid_index,
    level_sets,
    ordered_sum,
    own_rounds,
    round_table,
    round_to_grid,
    sqe,
    swap_regret,
)
from collabpred.datagen import (additive_batch_sample, additive_linear_noise, additive_prior,
                                encode_prior)
from collabpred.decisions import (
    BaselineForecaster,
    DecisionSequence,
    DecisionTask,
    DecisionTranscript,
    PolicySet,
    best_response,
    best_responses,
    decision_cal_error,
    decision_conv_cal_error,
    decision_conv_swap_regret,
    decision_cross_cal_error,
    decision_swap_regret,
    run_decision_protocol,
    utility_round_profile,
)
from collabpred import protocol
from collabpred.cli import main
from collabpred.learners import BANK_KINDS, ConversationWrapper, _inverse
from collabpred.protocol import run_collaboration
from collabpred.weaklearn import LinearClassSpec, UncertifiedFit, constrained_lsq, joint_lsq


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
        spec = LinearClassSpec(d=3, C=1.0)

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
                    bob.experts("steps")[bob.instances[(k, i)]], d=3, m=10)

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
                assert bob.experts("steps")[slot].sum() == int(mask.sum())


class TestBatchSwapRegretRecomputation:
    def test_final_swap_regret_matches_brute_force(self):
        sample = additive_batch_sample(500, seed=77)
        spec = LinearClassSpec(d=sample.x_a.shape[1], C=1.0)
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
        spec = LinearClassSpec(d=1, C=1.0)
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


def _bisection_one_ball(X, y, w, C):
    """(θ, b) of min Σw(xθ + b − y)² s.t. ‖θ‖ ≤ C, by bisection on the multiplier.

    θ(λ) = (XcᵀWXc + λI)⁻¹XcᵀWyc shrinks as λ grows; the bound is reached at
    the λ where ‖θ(λ)‖ = C. λ = 0 (the minimum-norm least-squares θ) when
    that θ is feasible; otherwise only positive λ is evaluated, so a
    singular Gram is fine.
    """
    x_mean = w @ X / w.sum()
    y_mean = w @ y / w.sum()
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
    return xs, y, w, C


class TestBoundedLsqDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_bounded_problem(blocks=1))
    def test_one_ball_matches_multiplier_bisection(self, problem):
        (X,), y, w, C = problem
        spec = LinearClassSpec(d=X.shape[1], C=C)
        fit = constrained_lsq(X, y, w, spec)
        scale = max(float(w @ y**2), 1e-12)
        assert np.linalg.norm(fit.theta) <= C * (1.0 + 1e-12)
        assert fit.kkt_residual <= _REL_TOL
        assert fit.error == pytest.approx(
            float(w @ (X @ fit.theta + fit.intercept - y) ** 2), rel=1e-9, abs=1e-12)
        theta, b = _bisection_one_ball(X, y, w, C)
        ref = float(w @ (X @ theta + b - y) ** 2)
        assert fit.error <= ref + _REL_TOL * scale
        if fit.projected:
            # the optimum is unique in its predictions, so the reference is tight
            assert fit.error >= ref - _REL_TOL * scale

    @settings(max_examples=120, deadline=None)
    @given(_bounded_problem(blocks=2))
    def test_joint_matches_scipy(self, problem):
        (xa, xb), y, w, C = problem
        spec_a = LinearClassSpec(d=xa.shape[1], C=C)
        spec_b = LinearClassSpec(d=xb.shape[1], C=C + 0.5)
        fit = joint_lsq(xa, xb, y, w, spec_a, spec_b)
        scale = max(float(w @ y**2), 1e-12)
        assert fit.converged
        assert fit.kkt_residual <= _REL_TOL
        assert np.linalg.norm(fit.theta_a) <= C * (1.0 + 1e-12)
        assert np.linalg.norm(fit.theta_b) <= (C + 0.5) * (1.0 + 1e-12)
        assert abs(fit.intercept) <= 1.0 + 1e-12
        n = y.shape[0]
        Z = np.hstack([xa, xb, np.ones((n, 1))])
        sizes = [xa.shape[1], xb.shape[1], 1]
        radii = [C, C + 0.5, 1.0]
        assert fit.error <= _slsqp_blocks(Z, y, w, sizes, radii) + _REL_TOL * scale


def _gauss_jordan(g):
    """Inverse of a positive definite matrix by Gauss–Jordan elimination in place, on floats.

    Step k takes the pivot and the column k, writes zeros over the column
    and 1 over the pivot, divides row k by the pivot, then subtracts f_i
    times the divided row k from every row i, row k included with f_k = 0.
    """
    a = g.tolist()
    d = len(a)
    for k in range(d):
        f = [row[k] for row in a]
        pivot, f[k] = f[k], 0.0
        for row in a:
            row[k] = 0.0
        a[k][k] = 1.0
        a[k] = pivot_row = [v / pivot for v in a[k]]
        for i in range(d):
            a[i] = [a[i][j] - f[i] * pivot_row[j] for j in range(d)]
    return np.array(a)


def _reference_key(k, prev, g):
    """The routing key of own round k: bucket i of n = 1/g holds [(i−1)/n, i/n), 1 in the last."""
    if k == 1 or g is None:
        return (1, 0)
    n = int(round(1.0 / g))
    return (k, 1 + sum(prev >= i / n for i in range(1, n)))


class _ReferenceConversationLearner:
    """Conversation learner as a plain loop over a dict of per-instance arrays.

    Each (round, bucket) instance holds m experts as m×d×d Gram matrices and
    inverses, m×d moments and m step counts, with the proposal, np.clip grid
    rounding, bucket-distance selection, Sherman–Morrison update and exact
    re-inversion every 256 steps of an expert written out in full. u = G⁻¹x
    and s = xᵀG⁻¹x are the bank's einsum row formulas on one instance's
    rows, and the re-inversion is `_gauss_jordan`. With g = None (the swap
    kind) every round goes to instance (1, 0), and only the first own round
    of a day (k ≤ 2) updates it.
    """

    def __init__(self, d, m, g, a):
        self.d, self.m, self.g, self.a = d, m, g, a
        self.instances = {}

    def _instance(self, k, prev):
        key = _reference_key(k, prev, self.g)
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

    @staticmethod
    def products(invs, x):
        """u = G⁻¹x and s = xᵀG⁻¹x of each expert of invs."""
        u = c_einsum("kij,j->ki", invs, x)
        return u, c_einsum("ki,i->k", u, x)

    def forecasts(self, inst, x):
        x = np.asarray(x, dtype=float)
        u, s = self.products(inst["invs"], x)
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
        (u,), (s,) = self.products(inst["invs"][i:i + 1], x)
        inst["invs"][i] -= np.outer(u, u) / (1.0 + s)
        inst["moments"][i] += y * x
        inst["steps"][i] += 1
        if inst["steps"][i] % 256 == 0:
            inst["invs"][i] = _gauss_jordan(inst["grams"][i])
        inst["active"] = None


def _assert_same_instance(learner, slot, inst):
    np.testing.assert_array_equal(learner.experts("steps")[slot], inst["steps"])
    np.testing.assert_array_equal(learner.experts("moment")[slot], inst["moments"])
    np.testing.assert_array_equal(learner.experts("gram")[slot], inst["grams"])
    np.testing.assert_array_equal(learner.experts("inv")[slot], inst["invs"])


class TestLearnerDifferential:
    """The pool-backed learner against the per-instance loop.

    Each day one side (Alice or Bob, with conversation or swap routing)
    stages its feature vector with `begin_day`, predicts on its own rounds
    (later rounds are served from the day's memo, and a bucket seen for the
    first time creates an instance in the middle of the day), then updates
    every round. x arrives as a list, a fresh array, a read-only array or a
    buffer the caller overwrites right after `begin_day`, and a few vectors
    recur across days. On some days the proposals and the arrays of one
    instance are read between the updates and the next prediction, which
    applies the queued updates early. Each day's unrounded forecasts of
    every expert must equal the loop's bit for bit, and so must the arrays,
    whose inverses the pool updates from the products of the selection
    pass and the loop from its own. The examples with m = 1, or with
    all-zero labels (every proposal is 0, so expert 0 is always chosen),
    give one expert more than 256 updates, so both re-invert.
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
            frozen = x.copy()
            frozen.setflags(write=False)
            supply = (list, np.array, reused, lambda _x: frozen)
            got.begin_day(supply[rng.integers(4)](x))
            buffer[:] = np.nan
            # counterparty messages on a coarse grid, so buckets repeat
            prevs = {k: None if k == 1 else float(rng.integers(0, 5)) / 4.0 for k in rounds}
            for k in rounds:
                want = ref.predict(k, prevs[k], x)
                assert repr(got.predict(k, prevs[k])) == repr(want)
            forecasts = got._lanes.forecasts().take(got._table)
            for key, inst in ref.instances.items():
                want = ref.forecasts(inst, x)
                assert forecasts[got.instances[key]].tobytes() == want.tobytes()
            y = 0.0 if zero_labels else float(rng.uniform())
            for k in rounds:
                ref.update(k, prevs[k], x, y)
                got.update(k, y)
            if rng.uniform() < 0.2:
                keys = sorted(ref.instances)
                key = keys[rng.integers(len(keys))]
                slot, inst = got.instances[key], ref.instances[key]
                got_props = got.proposals()[slot]
                assert repr(got_props.tolist()) == repr(ref.proposals(inst, x).tolist())
                _assert_same_instance(got, slot, inst)
        assert set(got.instances) == set(ref.instances)
        for key, inst in ref.instances.items():
            _assert_same_instance(got, got.instances[key], inst)

    # SHA-256 of the transcript, taken before updates were queued
    SWAP_TRANSCRIPT_SHA256 = "bc3a86d04efa18b055c4955edb68f4f14ac0839a775995e000366a48c519f9b2"

    @pytest.mark.datagen_bytes
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
    """Two learners sharing a pool as lanes against two lone learners.

    Alice's and Bob's lanes take a random interleaving of `begin_day`,
    `predict`, `update` and reads of the proposals and arrays, and a lone
    learner per party takes the same calls. Each call must return the same
    play and record the same (slot, expert), each lane's staged x must be
    the lone learner's and its queued (slot, expert, y) the end of the lone
    learner's queue, and the arrays must have the same bytes. Each lane has
    its own regularizer and routing; predictions create slots, and updates
    give experts their own rows, while the other lane's updates are queued,
    so the pool grows under them. `begin_day` gets x as a list, a fresh
    array, a read-only array or a buffer the caller overwrites right after
    the call, and a few vectors recur. The examples with many steps give
    one expert more than 256 updates.
    """

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 12), m=st.sampled_from([1, 2, 3, 7, 20]),
           a=st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0])),
           g=st.tuples(st.sampled_from([None, 1.0, 0.5, 0.25]),
                       st.sampled_from([None, 1.0, 0.5, 0.25])),
           K=st.integers(2, 6), steps=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(d=3, m=20, a=(1.0, 2.0), g=(0.25, 0.25), K=6, steps=1200, seed=0)
    @example(d=9, m=1, a=(0.5, 1.0), g=(None, 0.5), K=2, steps=3500, seed=1)
    @example(d=1, m=1, a=(2.0, 2.0), g=(None, None), K=3, steps=3500, seed=2)
    def test_matches_lone_banks(self, d, m, a, g, K, steps, seed):
        rng = np.random.default_rng(seed)
        alice = ConversationWrapper(d, a[0], m, g[0])
        pairs = [(alice, ConversationWrapper(d, a[0], m, g[0])),
                 (ConversationWrapper(d, a[1], m, g[1], peer=alice),
                  ConversationWrapper(d, a[1], m, g[1]))]
        assert pairs[1][0]._lanes is alice._lanes
        pool = rng.uniform(-1.0, 1.0, size=(4, d)) / math.sqrt(d)
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
            # call(learner) or call(learner, x as a caller supplies it) on each learner of the pair
            out = []
            for learner in pair:
                out.append(call(learner) if x is None else call(learner, supplied(x)))
                buffer[:] = np.nan
            return out

        def queued(learner):
            # the lane's queue as (slot, expert, y): rows differ between pools
            lanes = learner._lanes
            where = {int(row): (s, i) for (s, i), row in np.ndenumerate(learner._table)}
            return [(*where[row], y) for row, y in lanes.queue
                    if lanes._lane_of[row] == learner._lane]

        def same_day(pair):
            # the same staged x; the other lane's calls also run the shared
            # update pass, so the lane's queue is the end of the lone learner's
            staged = [learner._lanes._staged[learner._lane].tobytes() for learner in pair]
            assert staged[0] == staged[1] and pair[0].staged and pair[1].staged
            got, want = (queued(learner) for learner in pair)
            assert want[len(want) - len(got):] == got

        def same_arrays(pair):
            for attr in ("gram", "inv", "moment", "steps"):
                got, want = (learner.experts(attr) for learner in pair)
                assert got.tobytes() == want.tobytes(), attr

        for _ in range(steps):
            p = int(rng.integers(2))
            pair, lane = pairs[p], pairs[p][0]
            op = rng.choice(["begin", "predict", "update", "read"], p=[0.1, 0.4, 0.45, 0.05])
            if op == "begin" or not lane.staged:
                x = (pool[rng.integers(4)] if rng.uniform() < 0.5
                     else rng.uniform(-1.0, 1.0, size=d) / math.sqrt(d))
                both(pair, ConversationWrapper.begin_day, x)
                same_day(pair)
            elif op == "predict":
                k = int(rng.integers(1, K + 1))
                message = None if k == 1 else float(rng.integers(5)) / 4.0
                got, want = both(pair, lambda learner: learner.predict(k, message))
                assert repr(got) == repr(want)
                assert pair[0]._routed == pair[1]._routed
                assert pair[0].instances == pair[1].instances
            elif op == "update":
                if lane._routed:
                    k = list(lane._routed)[rng.integers(len(lane._routed))]
                    y = 0.0 if rng.uniform() < 0.5 else float(rng.uniform())
                    both(pair, lambda learner: learner.update(k, y))
                    assert pair[0]._routed == pair[1]._routed
                    same_day(pair)
            elif lane.instances:
                got, want = both(pair, ConversationWrapper.proposals)
                assert got.tobytes() == want.tobytes()
                same_arrays(pair)
        for pair in pairs:
            same_arrays(pair)


class VawState:
    """Forward ridge regression by a d×d solve: predict clip₀¹(xᵀ(G + xxᵀ)⁻¹s).

    G accumulates a·I + Σ x_s x_sᵀ and s accumulates Σ y_s x_s. The
    prediction incorporates the current feature vector into the Gram term
    before solving, which is what yields the 2d·ln(T+1) + ‖θ‖² regret
    guarantee for squared loss.
    """

    def __init__(self, d, a=1.0):
        self.gram = a * np.eye(d)
        self.moment = np.zeros(d)

    def predict(self, x):
        theta = np.linalg.solve(self.gram + np.outer(x, x), self.moment)
        return float(np.clip(x @ theta, 0.0, 1.0))

    def update(self, x, y):
        self.gram += np.outer(x, x)
        self.moment += y * x


class TestVawLaneDifferential:
    """The `vaw` kind, a one-expert bank lane that clips its forecast, against `VawState`.

    Alice's and Bob's `vaw` learners run the two rounds of each day through
    `run_collaboration`, as `protocol.run_solo` runs them: as two lanes of
    one bank when d_a = d_b, each with its own regularizer. Every forecast
    must lie within a relative 1e-9 of the reference's, with an absolute
    floor of 1e-12 near 0. Every run is longer than the 256 steps after
    which the lane re-inverts its Gram matrix; a few feature vectors recur,
    and some are zero.
    """

    REL_TOL, ABS_FLOOR = 1e-9, 1e-12

    @settings(max_examples=30, deadline=None)
    @given(d_a=st.integers(1, 12), d_b=st.integers(1, 12), same_d=st.booleans(),
           a=st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0])),
           steps=st.integers(257, 700), seed=st.integers(0, 2**32 - 1))
    @example(d_a=12, d_b=12, same_d=True, a=(0.5, 2.0), steps=1500, seed=0)
    @example(d_a=1, d_b=9, same_d=False, a=(1.0, 0.5), steps=1500, seed=1)
    def test_matches_solve_reference(self, d_a, d_b, same_d, a, steps, seed):
        rng = np.random.default_rng(seed)
        dims = (d_a, d_a if same_d else d_b)
        xs = []
        for d in dims:
            x = rng.uniform(-1.0, 1.0, size=(steps, d)) / math.sqrt(d)
            recur = rng.uniform(size=steps) < 0.3
            x[recur] = x[rng.integers(4, size=recur.sum())]
            x[rng.uniform(size=steps) < 0.05] = 0.0
            xs.append(x)
        y = np.where(rng.uniform(size=steps) < 0.5, rng.uniform(size=steps),
                     rng.integers(0, 2, size=steps))
        vaw = BANK_KINDS["vaw"]
        alice = ConversationWrapper(dims[0], a[0], **vaw)
        bob = ConversationWrapper(dims[1], a[1], peer=alice, **vaw)
        assert (bob._lanes is alice._lanes) == (dims[0] == dims[1])
        transcript = run_collaboration(SequenceDataset(*xs, y), alice, bob, K=2)
        for k, x, reg in zip((1, 2), xs, a):
            ref, want = VawState(x.shape[1], reg), np.empty(steps)
            for t in range(steps):
                want[t] = ref.predict(x[t])
                ref.update(x[t], y[t])
            got = transcript.round_predictions(k)
            err = np.abs(got - want)
            assert np.all(err <= self.REL_TOL * np.abs(want) + self.ABS_FLOOR), \
                f"round {k}: largest difference {err.max()!r}"


def _solve_forecast(state, x):
    """The unclipped forecast xᵀ(G + xxᵀ)⁻¹s of a `VawState`, by a d×d solve."""
    return float(x @ np.linalg.solve(state.gram + np.outer(x, x), state.moment))


class TestPoolDifferential:
    """Two lanes of one expert pool against one `VawState` per expert.

    Alice's lane routes by message bucket and Bob's by bucket or, with
    g = None, to one slot; the lanes have different regularizers and slot
    counts. Each day both stage x, predict their rounds in protocol order
    and then update in protocol order, so an expert's first update, which
    gives it its own row and may double the pool, often comes while the
    other lane's update is queued. Labels are 0 for the first `quiet`
    days, which keeps every forecast at 0 and expert 0 of each slot
    selected: the other experts read their lane's fresh row for those days
    and copy it, with that day's products, at their first update. Each
    expert's Gram matrix, moment and step count must equal the reference's
    bit for bit (both add the same terms in the same order), its inverse
    and unrounded forecasts must lie within a relative 1e-9 of the solve's,
    and each play must be the slot's proposal closest to its own bucket,
    lowest index on ties. On some days one lane's x holds a NaN or an
    infinity: every proposal of that lane, fresh or learned, is NaN, and so
    is its play, while the other lane's rows keep their values.
    """

    REL_TOL, ABS_FLOOR = 1e-9, 1e-12

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), m=st.sampled_from([1, 2, 4, 7, 20]),
           g=st.tuples(st.sampled_from([1.0, 0.5, 0.2, 0.1]),
                       st.sampled_from([None, 0.5, 0.25, 0.1])),
           a=st.tuples(st.sampled_from([0.5, 1.0]), st.sampled_from([2.0, 4.0])),
           K=st.integers(2, 6), days=st.integers(1, 100), quiet=st.integers(0, 50),
           seed=st.integers(0, 2**32 - 1))
    @example(d=3, m=20, g=(0.1, None), a=(1.0, 2.0), K=6, days=400, quiet=150, seed=0)
    @example(d=2, m=4, g=(0.5, 0.25), a=(0.5, 4.0), K=4, days=300, quiet=0, seed=1)
    def test_matches_solve_reference(self, d, m, g, a, K, days, quiet, seed):
        rng = np.random.default_rng(seed)
        alice = ConversationWrapper(d, a[0], m, g[0])
        bob = ConversationWrapper(d, a[1], m, g[1], peer=alice)
        assert bob._lanes is alice._lanes
        sides = [(alice, {}, {}), (bob, {}, {})]   # learner, key -> experts, key -> steps
        for day in range(days):
            xs = rng.uniform(-1.0, 1.0, size=(2, d)) / math.sqrt(d)
            broken = rng.uniform(size=2) < 0.03
            for x, bad in zip(xs, broken):
                if bad:
                    x[rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
            for (learner, _, _), x in zip(sides, xs):
                learner.begin_day(x)
            y = 0.0 if day < quiet else float(rng.uniform())
            errs = {"invalid": "ignore" if broken.any() else "warn"}   # NaN from a broken x
            chosen = {}
            for k in range(1, K + 1):
                p = (k + 1) % 2
                (learner, experts, steps), x = sides[p], xs[p]
                message = None if k == 1 else float(rng.integers(11)) / 10.0
                with np.errstate(**errs):
                    play = learner.predict(k, message)
                key = _reference_key(k, message, learner.g)
                slot, i = learner._routed[k]
                assert learner.instances[key] == slot
                with np.errstate(**errs):
                    props = learner.proposals()[slot].tolist()
                if broken[p]:
                    assert all(map(math.isnan, props)) and math.isnan(play)
                    continue
                refs = experts.setdefault(key, [VawState(d, learner.a) for _ in range(m)])
                steps.setdefault(key, [0] * m)
                dist = [max(0.0, j / m - q, q - (j + 1) / m) for j, q in enumerate(props)]
                assert i == dist.index(min(dist)) and play == props[i]
                with np.errstate(**errs):
                    got = learner._lanes.forecasts().take(learner._table)[slot]
                want = np.array([_solve_forecast(ref, x) for ref in refs])
                assert np.all(np.abs(got - want) <= self.REL_TOL * np.abs(want) + self.ABS_FLOOR)
                if learner.g is not None or k <= 2:
                    chosen[k] = key, i
            for k in range(1, K + 1):
                p = (k + 1) % 2
                learner, experts, steps = sides[p]
                if not broken[p]:
                    learner.update(k, y)
                if k in chosen:
                    key, i = chosen[k]
                    experts[key][i].update(xs[p], y)
                    steps[key][i] += 1
        for learner, experts, steps in sides:
            gram, moment, inv = (learner.experts(attr) for attr in ("gram", "moment", "inv"))
            for key, refs in experts.items():
                slot = learner.instances[key]
                assert learner.experts("steps")[slot].tolist() == steps[key]
                assert gram[slot].tobytes() == np.array([ref.gram for ref in refs]).tobytes()
                assert moment[slot].tobytes() == np.array([ref.moment for ref in refs]).tobytes()
                want = np.linalg.inv(gram[slot])
                assert np.all(np.abs(inv[slot] - want) <= self.REL_TOL * np.abs(want).max())


_LANES = 3
_POOL_DIMS = (*range(1, 17), 24, 33, 48, 65)   # up to a degree-2 map of 10 features


def _pool_rows(rng, n, m, *shape):
    # the first n·m rows of 2·n·m, as the selection pass views the pool's arrays
    return rng.standard_normal((2 * n * m, *shape))[:n * m]


def _row_x(rng, n, m, d):
    # x per row as the selection pass takes it, each slot's m rows at the x
    # of one of _LANES lanes, and the x of each slot
    xs, lanes = rng.standard_normal((_LANES, d)), rng.integers(_LANES, size=n)
    return xs.take(lanes.repeat(m), axis=0), xs[lanes]


def _per_slot(subscripts, rows, xs, m):
    # the per-instance reference's einsum on one slot's m rows at a time, at the slot's x
    return np.concatenate([c_einsum(subscripts, rows[s * m:(s + 1) * m], x).ravel()
                           for s, x in enumerate(xs)])


def _inv_x_rows(rng, n, m, d):
    # G⁻¹x of the selection pass: every row of the pool at its lane's x
    inv, (x, xs) = _pool_rows(rng, n, m, d, d), _row_x(rng, n, m, d)
    return c_einsum("kij,kj->ki", inv, x).ravel(), _per_slot("kij,j->ki", inv, xs, m)


def _quadratic_rows(rng, n, m, d):
    # xᵀG⁻¹x of the selection pass, from the rows of G⁻¹x
    u, (x, xs) = _pool_rows(rng, n, m, d), _row_x(rng, n, m, d)
    return c_einsum("ki,ki->k", u, x), _per_slot("ki,i->k", u, xs, m)


def _einsum_gm_rows(rng, n, m, d):
    # the numerators: the pool keeps each moment as the last row of its Gram
    # block, so the einsum reads the moments with a row stride of (d+1)·d
    u, moment = _pool_rows(rng, n, m, d), _pool_rows(rng, n, m, d + 1, d)[:, d]
    return (c_einsum("kd,kd->k", u, moment),
            np.concatenate([c_einsum("kd,kd->k", u[r:r + 1], moment[r:r + 1])
                            for r in range(n * m)]))


def _flat_einsum(rng, n, m, d):
    # the numerators against the per-instance reference's np.einsum per slot
    u, moment = rng.standard_normal((n, m, d)), rng.standard_normal((n, m, d))
    return (c_einsum("kd,kd->k", u.reshape(-1, d), moment.reshape(-1, d)),
            np.concatenate([np.einsum("md,md->m", u[s], moment[s]) for s in range(n)]))


def _gauss_jordan_rows(rng, n, m, d):
    # the re-inversion of many positive definite matrices at once and one at a time
    x = rng.standard_normal((n * m, 2 * d, d))
    g = np.eye(d) + np.einsum("kti,ktj->kij", x, x)
    return _inverse(g).ravel(), np.concatenate([_inverse(g[r:r + 1]).ravel() for r in range(n * m)])


def _vecdot_rows(rng, n, m, d):
    # not the bank's: `batch.LinearModel.predict` takes one np.vecdot over
    # rows for one dot per row
    x, u = rng.standard_normal(d), rng.standard_normal((n * m, d))
    return np.vecdot(x, u), np.array([x @ row for row in u])


class TestBankKernelIdentities:
    """A product row of the expert pool keeps its bits whatever the row count.

    The selection pass makes three einsums over every row of the pool
    (G⁻¹x, xᵀG⁻¹x and the numerators), each row at its own lane's x, and
    the re-inversion runs on every refreshed matrix at once; the
    per-instance reference makes one call per slot at the slot's x. Each
    einsum row is summed alone, in its own d terms, and the Gauss–Jordan
    steps are elementwise, so a row of a pool of any size has the bits of
    that row alone, under every BLAS kernel, since none of them calls BLAS,
    up to the d = 65 of a degree-2 feature map of 10 features. The
    `np.vecdot` rows of the batch replay do call BLAS; their identity holds
    under the kernels CI runs. A numpy whose
    kernels do not keep these identities fails here, under the name of the
    kernel.
    """

    @pytest.mark.parametrize("kernel, dims", [
        (_inv_x_rows, _POOL_DIMS),
        (_quadratic_rows, _POOL_DIMS),
        (_einsum_gm_rows, _POOL_DIMS),
        (_flat_einsum, _POOL_DIMS),
        (_gauss_jordan_rows, _POOL_DIMS),
        (_vecdot_rows, range(1, 13)),
    ], ids=lambda v: v.__name__.strip("_") if callable(v) else "")
    def test_flat_equals_per_slot(self, kernel, dims):
        rng = np.random.default_rng(2024)
        for d in dims:
            for n in (1, 2, 5, 16):
                for m in (1, 2, 3, 20):
                    got, want = kernel(rng, n, m, d)
                    assert got.tobytes() == want.tobytes(), f"{kernel.__name__} n={n} m={m} d={d}"


_BANK_RUN = """
import hashlib
import numpy as np
from collabpred.core import SequenceDataset
from collabpred.learners import BANK_KINDS, ConversationWrapper
from collabpred.protocol import run_collaboration


def bank_run():
    # features and outcomes from the generator and elementwise ufuncs only
    rng = np.random.default_rng(17)
    T = 700
    xa = rng.uniform(-1.0, 1.0, size=(T, 9)) / 3.0
    xb = rng.uniform(-1.0, 1.0, size=(T, 4)) / 2.0
    y = np.clip(0.5 + 0.6 * xa[:, 0] - 0.5 * xb[:, 1] + 0.1 * rng.standard_normal(T), 0.0, 1.0)
    alice = ConversationWrapper(9, m=3, g=0.25)
    bob = ConversationWrapper(4, 0.5, **BANK_KINDS["vaw"])
    text = run_collaboration(SequenceDataset(xa, xb, y), alice, bob, 4).to_text()
    digest = hashlib.sha256(text.encode())
    for side in (alice, bob):
        for attr in ("gram", "inv", "moment", "steps"):
            digest.update(side.experts(attr).tobytes())
    return digest.hexdigest(), [int(side.experts("steps").max()) for side in (alice, bob)]
"""


class TestBankBytesAcrossKernels:
    """A bank-only online run has the same bytes under every OpenBLAS kernel.

    A `conversation` side of d = 9 and a `vaw` side of d = 4 run 700 days on
    features drawn from `np.random.default_rng`, not from `datagen`, whose
    outcomes are BLAS products. Each side's busiest expert passes 256 steps,
    so the re-inversion runs. The transcript and both sides' arrays, hashed,
    must be those of this process in a fresh interpreter under each kernel.
    """

    @pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
    def test_run_matches_this_process(self, python, kernel):
        namespace = {}
        exec(_BANK_RUN, namespace)
        want = namespace["bank_run"]()
        assert min(want[1]) > 256
        proc = python("-c", _BANK_RUN + "\nprint(repr(bank_run()))",
                      OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(want)


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


def _codes(labels) -> np.ndarray:
    """Integer code of every hashable label, numbered by first occurrence."""
    index = {s: i for i, s in enumerate(dict.fromkeys(labels))}
    return np.array([index[s] for s in labels], dtype=int)


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

    The library copies the posterior of a group that did not split since
    the acting party's last round, and takes one-row means in one array
    pass; its messages and the risk must keep the bytes of one dot per
    group. Each prior is asked, at two grid sizes, for three horizons.
    """

    @settings(max_examples=300, deadline=None)
    @given(_priors(), st.lists(st.integers(1, 10), min_size=3, max_size=3),
           st.lists(st.integers(1, 20), min_size=2, max_size=2))
    @example(_SIGNED_ZERO_PRIOR, [1, 2, 3], [4, 1])
    def test_simulation_matches_per_group_loop(self, prior, horizons, grids):
        short, mid, long = sorted(horizons)
        for m, K in itertools.product(grids, (mid, short, long)):
            msg_idx = simulate_messages(prior, K, m)
            _, want_idx = _reference_simulate_messages(prior, K, m)
            assert _bits(msg_idx) == _bits(want_idx), f"messages at K={K}, m={m}"
            assert not msg_idx.flags.writeable

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


def _reference_features(prior, side):
    """The per-atom walk: every atom's label looked up in the side's encoding."""
    enc = prior.encoding_a if side == ALICE else prior.encoding_b
    sigs = prior.signals_a if side == ALICE else prior.signals_b
    must = f"a prior: field 'encoding' must encode every signal of side '{side[0]}', found"
    if enc is None:
        raise ValueError(f"{must} no '{side[0]}' entry")
    missing = [s for s in sigs if s not in enc]
    if missing:
        raise ValueError(f"{must} none for {json.dumps(missing[0])}")
    return np.array([np.atleast_1d(enc[s]) for s in sigs], dtype=float)


def _written_alike(prior) -> bool:
    """Whether a side with an encoding has two labels, its atoms' or its
    encoding's, that `str` writes alike."""
    for signals, enc in ((prior.signals_a, prior.encoding_a),
                         (prior.signals_b, prior.encoding_b)):
        labels = dict.fromkeys((*signals, *(enc or ())))
        if enc is not None and len(set(map(str, labels))) < len(labels):
            return True
    return False


def _features_or_message(features, *args):
    """(shape, bytes) of the features, or the ValueError's message."""
    try:
        out = features(*args)
    except ValueError as e:
        return str(e)
    return out.shape, _bits(out)


@st.composite
def _encoded_priors(draw):
    """`_priors` given by the constructor an encoding per side: none, or
    vectors of one length for some of `_SIGNALS`, so that 1 and "1" may
    both be keyed and an atom's label may lack a vector."""
    prior = draw(_priors())
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keyed = st.none() | st.lists(st.sampled_from(_SIGNALS), unique=True)
    enc_a, enc_b = (None if kept is None else {s: rng.uniform(-1, 1, d) for s in kept}
                    for kept in (draw(keyed), draw(keyed)))
    return PriorTable(prior.signals_a, prior.signals_b, prior.y, prior.p, enc_a, enc_b)


# "1" lacks a vector and first occurs on an atom of probability zero
_PARTIAL_PRIOR = PriorTable(signals_a=(1, "1", 2, 1, "1"), signals_b=("x", "y", "x", "z", "y"),
                            y=np.array([0.0, 0.5, 1.0, 0.25, 0.75]),
                            p=np.array([0.25, 0.0, 0.25, 0.5, 0.0]),
                            encoding_a={1: [0.5], 2: np.array([1.0])},
                            encoding_b={"x": [0.0], "y": [1.0], "z": [2.0]})


class TestPriorKeysDifferential:
    """A prior's stored support and signal index against what they replaced.

    A prior finds its support and numbers its signals once, when it is
    built. On priors built by the constructor, by `dataclasses.replace`,
    through JSON and by `encode_prior`, `support()` must be the np.where of
    p > 0 and `features(side)` the per-atom walk: its values and both of its
    messages. The derived arrays are read-only.
    """

    @settings(max_examples=200, deadline=None)
    @given(_encoded_priors())
    @example(_PARTIAL_PRIOR)
    def test_support_and_features_match_the_walk(self, prior):
        swapped = dataclasses.replace(prior, encoding_a=prior.encoding_b,
                                      encoding_b=prior.encoding_a)
        bare = dataclasses.replace(prior, encoding_a=None, encoding_b=None)
        # a file keys an encoding by the label's text: a prior whose encoded
        # side has two labels of one text, such as 1 and "1", travels without
        # its encodings
        try:
            written = prior.to_json_dict()
        except ValueError as e:
            assert _written_alike(prior), e
            written = bare.to_json_dict()
        else:
            assert not _written_alike(prior)
        back = PriorTable.from_json_dict(json.loads(json.dumps(written)))
        encoded = encode_prior({"atoms": bare.to_json_dict()["atoms"]})
        partial = dataclasses.replace(encoded, encoding_b=dict(list(encoded.encoding_b.items())[1:]))
        for built in (prior, swapped, back, encoded, partial):
            support = built.support()
            want = np.where(built.p > 0.0)[0]
            assert support.dtype == want.dtype and _bits(support) == _bits(want)
            for derived in (support, *(index for _, index in built._keyed)):
                assert not derived.flags.writeable
            for side in (ALICE, BOB):
                got = _features_or_message(built.features, side)
                want = _features_or_message(_reference_features, built, side)
                assert got == want, (built, side)

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
        oracle_a, oracle_b = (LsqOracle(LinearClassSpec(d=d, C=1.0))
                              for d in (d_a, d_b))
        result = collaborate(train, oracle_a, oracle_b, m)
        ta, tb = result.transcript_a, result.transcript_b
        if defer_all:
            for levels in (*ta.rounds.values(), *tb.rounds.values()):
                levels.update(dict.fromkeys(levels))
        else:
            np.testing.assert_array_equal(replay_rounds(train, ta, tb), result.indices / m)
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


class _DayMajorForecaster:
    """The baseline forecaster one day at a time: the running outcome mean
    per (round, previous action) key, 0.5 for a fresh key."""

    def __init__(self, d):
        self.d = d
        self.counts = {}
        self.sums = {}

    def predict(self, k, prev_action, x=None):
        key = (k, prev_action)
        c = self.counts.get(key, 0)
        if c == 0:
            return np.full(self.d, 0.5)
        return self.sums[key] / c

    def update(self, k, prev_action, x, y):
        key = (k, prev_action)
        self.counts[key] = self.counts.get(key, 0) + 1
        if key not in self.sums:
            self.sums[key] = np.zeros(self.d)
        self.sums[key] += np.asarray(y, dtype=float)


def _day_major_protocol(dataset, task, alice, bob, K):
    """The day-by-day predict/update loop the round-major driver replaced,
    on `_DayMajorForecaster`s."""
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

    def forecast_round(self, k, prev_actions, x, y):
        return 1.5 * super().forecast_round(k, prev_actions, x, y) - 0.25


class _DayMajorOvershooting(_DayMajorForecaster):
    """`_Overshooting` one day at a time."""

    def predict(self, k, prev_action, x=None):
        return 1.5 * super().predict(k, prev_action, x) - 0.25


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


class TestDecisionProtocolDifferential:
    """The round-major driver on `BaselineForecaster` against the day-major
    loop on its one-step reference, `_DayMajorForecaster`.

    Predictions, actions and every forecaster count and sum must match bit
    for bit, also from forecasters left in some state by an earlier run, on
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
        sides = (BaselineForecaster(task.d), BaselineForecaster(task.d))
        refs = (_DayMajorForecaster(task.d), _DayMajorForecaster(task.d))
        if seed_T:
            earlier = _decision_days(rng, seed_T, task.d, eighths)
            _assert_same_run(run_decision_protocol(earlier, task, *sides, seed_K),
                             _day_major_protocol(earlier, task, *refs, seed_K), sides, refs)
        ds = _decision_days(rng, T, task.d, eighths)
        got = run_decision_protocol(ds, task, *sides, K)
        want = _day_major_protocol(ds, task, *refs, K)
        _assert_same_run(got, want, sides, refs)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), n_actions=st.integers(2, 6), T=st.integers(1, 200),
           K=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_clipped_forecasts_match(self, d, n_actions, T, K, seed):
        rng = np.random.default_rng(seed)
        task = _decision_task(rng, d, n_actions, "quarters")
        ds = _decision_days(rng, T, d, True)
        sides_got = [_Overshooting(d), _Overshooting(d)]
        sides_want = [_DayMajorOvershooting(d), _DayMajorOvershooting(d)]
        got, got_warnings = _recorded(run_decision_protocol, ds, task, *sides_got, K)
        want, want_warnings = _recorded(_day_major_protocol, ds, task, *sides_want, K)
        _assert_same_run(got, want, sides_got, sides_want)
        assert got_warnings == want_warnings
        assert got.predictions.min() >= 0.0 and got.predictions.max() <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 8), n_actions=st.integers(1, 6), T=st.integers(1, 200),
           grid=st.sampled_from([2, 4, 8, None]), nans=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_best_responses_match_per_row(self, d, n_actions, T, grid, nans, seed):
        # forecasts on a coarse grid against a quarter-valued matrix tie often
        rng = np.random.default_rng(seed)
        task = _decision_task(rng, d, n_actions, "quarters")
        yhat = rng.uniform(size=(T, d))
        if grid is not None:
            yhat = np.round(yhat * grid) / grid
        yhat[rng.integers(0, T, nans), rng.integers(0, d, nans)] = np.nan
        got = best_responses(task, yhat)
        for t, y in enumerate(yhat):
            utils = [_row_utility(task, a, y) for a in range(n_actions)]
            want = 0 if np.isnan(utils).any() else utils.index(max(utils))
            assert got[t] == want
            # outside a 1e-9 band of the best, a BLAS product ranks the same
            gaps = max(utils) - np.array(utils)
            if n_actions == 1 or np.sort(gaps)[1] > 1e-9:
                assert got[t] == np.argmax(task.matrix @ y)


# --- decision utility sums against the per-day loops -------------------------


def _row_utility(task, a, y):
    """u(a, y) = Σ_j task.matrix[a, j]·y[j], one product added at a time in
    coordinate order."""
    total = task.matrix[a, 0] * y[0]
    for j in range(1, task.d):
        total += task.matrix[a, j] * y[j]
    return float(total)


def _loop_decision_swap_regret(seq, task, policies):
    """decision_swap_regret with realized utility summed day by day."""
    realized = 0.0
    for t in range(seq.T):
        realized += _row_utility(task, int(seq.actions[t]), seq.outcomes[t])
    total = 0.0
    util_by_policy = {name: np.array([_row_utility(task, a, y)
                                      for a, y in zip(labels.tolist(), seq.outcomes)])
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
            util[k] += _row_utility(task, int(seq.actions[t]), seq.outcomes[t])
        if k > 1:
            disagreements[k] = 0
            for t in range(transcript.T):
                own = _row_utility(task, int(seq.actions[t]), seq.predictions[t])
                prev = _row_utility(task, int(transcript.actions[t, k - 2]), seq.predictions[t])
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


def _level_set_linf_bias(seq, rows):
    """The grouped audits' former per-level-set ℓ∞ bias."""
    bias = np.sum(seq.predictions[rows] - seq.outcomes[rows], axis=0)
    return float(np.abs(bias).max())


def _level_set_cal_error(seq, task):
    per_action = dict.fromkeys(range(task.n_actions), 0.0)
    for (a,), rows in level_sets(seq.actions):
        per_action[a] = _level_set_linf_bias(seq, rows)
    return per_action, max(per_action.values())


def _level_set_cross_cal_error(seq, task, policies):
    actions = range(task.n_actions)
    out = {(a, name, a2): 0.0 for name, _ in policies.items() for a in actions for a2 in actions}
    for name, labels in policies.items():
        for (a, a2), rows in level_sets(seq.actions, labels):
            out[(a, name, a2)] = _level_set_linf_bias(seq, rows)
    return out, max(out.values(), default=0.0)


def _level_set_conv_cal_error(transcript, side):
    out = {}
    for k in own_rounds(side, transcript.K):
        if k < 2:
            continue
        seq = transcript.round(k)
        prev = transcript.actions[:, k - 2]
        out.update(((k, a, a2), 0.0) for a in range(transcript.task.n_actions)
                   for a2 in range(transcript.task.n_actions))
        for (a, a2), rows in level_sets(seq.actions, prev):
            out[(k, a, a2)] = _level_set_linf_bias(seq, rows)
    return out


def _loop_linf_biases(seq, key_of, keys):
    """{key: ℓ∞ norm of Σ (prediction − outcome) over the days of that key},
    summed day by day in plain floats; 0.0 for a key no day has."""
    sums = {key: [0.0] * seq.predictions.shape[1] for key in keys}
    for t in range(seq.T):
        acc = sums[key_of(t)]
        for j, (p, y) in enumerate(zip(seq.predictions[t].tolist(), seq.outcomes[t].tolist())):
            acc[j] += p - y
    return {key: max(abs(v) for v in acc) for key, acc in sums.items()}


class TestDecisionAuditsDifferential:
    """The grouped ℓ∞ audits against the level-set code they replaced, byte
    for byte at d ≥ 2 (at d = 1 numpy summed a level set pairwise), and
    against a day-by-day loop at every d. Transcripts come straight from the
    generator, so no BLAS call feeds the test."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 4), n_actions=st.integers(1, 6), T=st.integers(1, 300),
           K=st.integers(2, 5), n_policies=st.integers(0, 3), eighths=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(d=3, n_actions=4, T=300, K=4, n_policies=3, eighths=True, seed=5)
    @example(d=1, n_actions=3, T=300, K=3, n_policies=2, eighths=False, seed=1)
    def test_matches_level_sets_and_day_loops(self, d, n_actions, T, K, n_policies, eighths,
                                              seed):
        rng = np.random.default_rng(seed)
        task = DecisionTask.from_matrix(rng.uniform(size=(n_actions, d)))
        preds, outs = rng.uniform(size=(T, K, d)), rng.uniform(size=(T, d))
        if eighths:  # sums that tie exactly
            preds, outs = np.round(preds * 8) / 8, np.round(outs * 8) / 8
        tr = DecisionTranscript(preds, rng.integers(0, n_actions, size=(T, K)), outs, task)
        # policies over fewer actions leave cells empty
        policies = PolicySet(n_actions, T, {
            f"p{i}": rng.integers(0, rng.integers(1, n_actions + 1), size=T)
            for i in range(n_policies)})
        cells = list(itertools.product(range(n_actions), repeat=2))
        for k in range(1, K + 1):
            seq = tr.round(k)
            got = [decision_cal_error(seq, task), decision_cross_cal_error(seq, task, policies)]
            if d >= 2:
                assert repr(got) == repr([_level_set_cal_error(seq, task),
                                          _level_set_cross_cal_error(seq, task, policies)])
            loop = _loop_linf_biases(seq, lambda t: int(seq.actions[t]), range(n_actions))
            assert repr(got[0]) == repr((loop, max(loop.values())))
            cross = {}
            for name, labels in policies.items():
                loop = _loop_linf_biases(
                    seq, lambda t: (int(seq.actions[t]), int(labels[t])), cells)
                cross.update(((a, name, a2), v) for (a, a2), v in loop.items())
            assert repr(got[1]) == repr((cross, max(cross.values())))
        for side in ("alice", "bob"):
            got = decision_conv_cal_error(tr, side)
            if d >= 2:
                want = _level_set_conv_cal_error(tr, side)
                assert repr(list(got.items())) == repr(list(want.items()))
            loop = {}
            for k in own_rounds(side, tr.K):
                if k >= 2:
                    seq = tr.round(k)
                    per = _loop_linf_biases(
                        seq, lambda t: (int(seq.actions[t]), int(tr.actions[t, k - 2])), cells)
                    loop.update(((k, a, a2), v) for (a, a2), v in per.items())
            assert repr(list(got.items())) == repr(list(loop.items()))


def _reference_beta_hat(transcript, bucketing):
    """The measured slack β̂ as the run report computed it before its
    audits were merged: 2g plus each side's largest per-round calibration
    mass over T, the mass summed in a dict loop."""
    beta = 2.0 * bucketing.g
    for side in (ALICE, BOB):
        cal = conversation_calibration_error(transcript, side, bucketing)
        per_round = {}
        for (k, _i), v in cal.items():
            per_round[k] = per_round.get(k, 0.0) + v
        if per_round:
            beta += max(per_round.values()) / transcript.T
    return beta


def _reference_agreement(transcript, eps, bucketing):
    """The report's "agreement" entry as the separate agreement profile built it."""
    fractions = {k: disagreement_fraction(transcript, k, eps) for k in range(2, transcript.K + 1)}
    k_star = min(fractions, key=lambda k: (fractions[k], k))
    beta = _reference_beta_hat(transcript, bucketing)
    return {"fractions": {str(k): v for k, v in fractions.items()}, "k_star": k_star,
            "bound": 1.0 / (2.0 * transcript.K * eps * eps) + beta / (2.0 * eps * eps),
            "beta_hat": beta}


def _reference_round_errors(transcript, bucketing):
    """The report's "round_errors" entry as the separate round-error profile
    built it: its own SQEs and calibration errors, its masses by `ordered_sum`."""
    y = transcript.outcomes
    sqes = {k: sqe(transcript.round_predictions(k), y) for k in range(1, transcript.K + 1)}
    cal = {side: conversation_calibration_error(transcript, side, bucketing)
           for side in (ALICE, BOB)}
    flagged, max_inc = [], 0.0
    for k in range(2, transcript.K + 1):
        side = ALICE if k % 2 == 1 else BOB
        mass = ordered_sum([v for (kk, _i), v in cal[side].items() if kk == k])
        inc = sqes[k] - sqes[k - 1]
        max_inc = max(max_inc, inc)
        if inc > bucketing.g * transcript.T + 3.0 * mass:
            flagged.append(k)
    return {"sqe": {str(k): v for k, v in sqes.items()}, "max_adjacent_increase": max_inc,
            "flagged_rounds": flagged}


def _reference_audit(transcript, bucketing, eps):
    """The report entries that need no solver, each from its old computation."""
    final, y = transcript.round_predictions(transcript.K), transcript.outcomes
    return {
        "sqe": sqe(final, y),
        "ece": ece(final, y),
        "disagreement_fraction_by_round": {
            f"{k},{eps}": disagreement_fraction(transcript, k, eps)
            for k in range(2, transcript.K + 1)},
        "slack_beta": _reference_beta_hat(transcript, bucketing),
        "agreement": _reference_agreement(transcript, eps, bucketing),
        "round_errors": _reference_round_errors(transcript, bucketing),
    }


def _reference_payload(transcript, dataset, spec_a, spec_b, bucketing, eps):
    """The whole `report.json` payload as the report record and the run assembled it."""
    final, y = transcript.round_predictions(transcript.K), transcript.outcomes
    xa, xb = dataset.x_a, dataset.x_b
    csr = {**conversation_swap_regret(transcript, ALICE, spec_a, bucketing, xa),
           **conversation_swap_regret(transcript, BOB, spec_b, bucketing, xb)}
    joint_err = joint_lsq(xa, xb, y, None, spec_a, spec_b).certified_error()
    payload = _reference_audit(transcript, bucketing, eps)
    payload.update({
        "swap_regret_by_class": {
            "constant": swap_regret(final, y, benchmark="constant"),
            "linear_alice": swap_regret(final, y, xa, spec_a),
            "linear_bob": swap_regret(final, y, xb, spec_b),
        },
        "conversation_swap_regret": {f"{k},{i}": v for (k, i), v in sorted(csr.items())},
        "joint_benchmark_error": joint_err,
        "external_regret_joint": payload["sqe"] - joint_err,
        "extras": {},
    })
    return payload


def _leaves(tree, path=()):
    """{key path: repr(leaf)} of a nested dict: equal maps mean equal keys,
    types and bits."""
    if not isinstance(tree, dict):
        return {path: repr(tree)}
    return {p: v for k, sub in tree.items() for p, v in _leaves(sub, path + (k,)).items()}


@st.composite
def _grid_runs(draw):
    """(transcript, bucketing, eps, rng): grid predictions j/m, which fall on
    bucket edges, and outcomes that are bits or uniform in [0,1]."""
    T, K = draw(st.integers(1, 300)), draw(st.integers(2, 8))
    m = draw(st.sampled_from([1, 2, 4, 5, 10, 20]))
    bucketing = BucketingSpec(g=draw(st.sampled_from([0.5, 0.25, 0.2, 0.1])), m=m)
    eps = draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    preds = rng.integers(0, m + 1, size=(T, K)) / m
    outs = rng.integers(0, 2, size=T).astype(float) if draw(st.booleans()) else rng.uniform(size=T)
    return ConversationTranscript(preds, outs), bucketing, eps, rng


class TestRunReportDifferential:
    """The one-pass run report against the agreement profile, round-error
    profile, β̂ and report assembly it replaced, leaf for leaf."""

    @settings(max_examples=200, deadline=None)
    @given(_grid_runs())
    def test_agreement_audit_matches_old_profiles(self, run):
        # no BLAS: the transcript comes straight from the generator
        tr, bucketing, eps, _rng = run
        got = protocol._agreement_audit(tr, bucketing, eps)
        assert _leaves(got) == _leaves(_reference_audit(tr, bucketing, eps))
        table = round_table(tr, eps)
        assert _leaves(protocol._agreement_audit(tr, bucketing, eps, table)) == _leaves(got)

    @settings(max_examples=30, deadline=None)
    @given(_grid_runs(), st.integers(1, 3), st.integers(1, 3), st.sampled_from([0.5, 1000.0]))
    def test_report_matches_old_assembly(self, run, d_a, d_b, C):
        tr, bucketing, eps, rng = run
        ds = SequenceDataset(rng.uniform(-1, 1, (tr.T, d_a)) / np.sqrt(d_a),
                             rng.uniform(-1, 1, (tr.T, d_b)) / np.sqrt(d_b), tr.outcomes)
        spec_a = LinearClassSpec(d=d_a, C=C)
        spec_b = LinearClassSpec(d=d_b, C=C)
        try:
            want = _reference_payload(tr, ds, spec_a, spec_b, bucketing, eps)
        except UncertifiedFit:
            with pytest.raises(UncertifiedFit):
                protocol.final_regret_report(tr, ds, spec_a, spec_b, bucketing, eps)
            return
        got = protocol.final_regret_report(tr, ds, spec_a, spec_b, bucketing, eps)
        assert _leaves(got) == _leaves(want)

    def test_run_and_report_compute_each_audit_once(self, tmp_path, monkeypatch):
        from collabpred import cli, core

        calls = collections.Counter()
        for name in ("conversation_calibration_error", "disagreement_fraction", "sqe", "ece"):
            def counted(*args, _real=getattr(core, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            for module in (core, protocol, cli):
                if name in vars(module):
                    monkeypatch.setattr(module, name, counted)
        K, learner = 6, {"kind": "conversation", "m": 10, "g": 0.25}
        cfg = {"mode": "online", "seed": 5, "days": 300, "rounds": K, "eps": 0.2,
               "dataset": {"generator": "additive-linear-noise"},
               "alice": learner, "bob": learner, "bucketing": {"g": 0.25, "m": 10},
               "transcript": str(tmp_path / "transcript.txt"), "csv": str(tmp_path / "run.csv"),
               "out": str(tmp_path / "report.json")}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        tr = ConversationTranscript.from_text((tmp_path / "transcript.txt").read_text())
        bucketing = BucketingSpec(g=0.25, m=10)
        # one ece per round, and one per occupied counterparty bucket of each round k ≥ 2
        buckets = sum(len(set(bucketing.bucket_ids(tr.round_predictions(k - 1)).tolist()))
                      for k in range(2, K + 1))
        assert calls == {"conversation_calibration_error": 2, "disagreement_fraction": K - 1,
                         "sqe": K, "ece": K + buckets}
        calls.clear()
        assert main(["report", "--transcript", str(tmp_path / "transcript.txt"),
                     "--csv", str(tmp_path / "report.csv")]) == 0
        assert calls == {"sqe": K, "ece": K, "disagreement_fraction": K - 1}
        assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()


def test_bayes_run_simulates_once(tmp_path, monkeypatch):
    """The run's own simulation feeds both swap-regret audits."""
    from collabpred import bayes

    calls = []

    def counted(*args, _real=bayes.simulate_messages, **kwargs):
        calls.append(args[1:])
        return _real(*args, **kwargs)

    monkeypatch.setattr(bayes, "simulate_messages", counted)
    cfg = {"mode": "bayes", "seed": 1, "rounds": 5, "m": 8, "prior": "additive",
           "out": str(tmp_path / "bayes.json")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    assert calls == [(5, 8)]
    audited = json.loads((tmp_path / "bayes.json").read_text())
    assert {k.split(":")[0] for k in audited["expected_conversation_swap_regret"]} == {
        "alice", "bob"}


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
        task = DecisionTask(actions=("a", "b", "c"), matrix=matrix, lipschitz=2e16)
        acts = np.tile(np.arange(3)[:, None], (1, 2))
        tr = DecisionTranscript(np.ones((3, 2, 1)), acts, np.ones((3, 1)), task)
        assert utility_round_profile(tr, eps=0.1).utility_by_round == {1: 0.0, 2: 0.0}

    def test_round_error_slack_adds_masses_in_order(self, monkeypatch):
        masses = {ALICE: {(3, 1): 2.0}, BOB: {(2, 1): 1e16, (2, 2): 1.0, (2, 3): 1.0, (4, 1): 5.0}}
        monkeypatch.setattr(protocol, "conversation_calibration_error",
                            lambda transcript, side, bucketing: masses[side])
        tr = ConversationTranscript(np.full((4, 4), 0.5), np.zeros(4))
        # ((0 + 1e16) + 1) + 1 rounds to 1e16 twice; compensated it is 1e16 + 2
        slack = {2: 0.25 * 4 + 3.0 * 1e16, 4: 0.25 * 4 + 3.0 * 5.0}
        for up, flagged in ((False, []), (True, [2, 4])):
            # a round is flagged when its SQE rises by more than its slack, so
            # rises of exactly the slack, and of the next double up, pin it
            rise = {k: float(np.nextafter(v, np.inf)) if up else v for k, v in slack.items()}
            table = {"sqe": {1: 0.0, 2: rise[2], 3: 0.0, 4: rise[4]},
                     "ece": dict.fromkeys(range(1, 5), 0.0),
                     "disagreement": dict.fromkeys(range(2, 5), 0.0)}
            audit = protocol._agreement_audit(tr, BucketingSpec(g=0.25, m=4), 0.2, table)
            assert audit["round_errors"]["flagged_rounds"] == flagged
            # β̂ takes each side's largest round mass, from the same sums
            assert audit["slack_beta"] == 2 * 0.25 + 2.0 / 4 + 1e16 / 4


# --- the one swap-regret audit against the loops it replaced ------------------
# Each reference is the earlier code: the constant and linear forms of
# core.swap_regret, batch.final_swap_regret's union, the weighted loop of
# bayes.expected_conversation_swap_regret, and the conditioning loops of
# core._per_bucket and decisions.decision_conv_swap_regret. Both sides make
# the same numpy and solver calls, so the bits agree under every BLAS kernel.


def _reference_best_level_error(x, y, benchmark):
    if benchmark == "constant":
        mean = float(np.mean(y))
        return float(np.sum((mean - y) ** 2))
    fit = constrained_lsq(x, y, spec=benchmark)
    return fit.error


def _reference_swap_regret(p, y, x, benchmark):
    total = float(np.sum((p - y) ** 2))
    bench = 0.0
    for _, rows in level_sets(p):
        bench += _reference_best_level_error(None if x is None else x[rows], y[rows], benchmark)
    return total - bench


def _reference_final_swap_regret(values, sample, spec_a, spec_b):
    y = sample.y
    total = float(np.sum((values - y) ** 2))
    bench = 0.0
    for _, rows in level_sets(values):
        fit_a = constrained_lsq(sample.x_a[rows], y[rows], spec=spec_a)
        fit_b = constrained_lsq(sample.x_b[rows], y[rows], spec=spec_b)
        bench += min(fit_a.error, fit_b.error)
    return (total - bench) / sample.n


def _reference_weighted_regret(vals, y, w, feats, benchmark, spec):
    """The body of the Bayes loop on one event's atoms."""
    e_loss = float(w @ (vals - y) ** 2)
    bench = 0.0
    for _, sub in level_sets(vals):
        ws = w[sub]
        ys = y[sub]
        if benchmark == "constant":
            mean = float(ws @ ys / ws.sum())
            bench += float(ws @ (mean - ys) ** 2)
        else:
            fit = constrained_lsq(feats[sub], ys, ws, spec)
            bench += fit.error
    return e_loss - bench


def _reference_expected_conversation_swap_regret(prior, msg_idx, m, side, benchmark, spec):
    K = msg_idx.shape[1]
    support = prior.support()
    feats = prior.features(side) if benchmark == "linear" else None
    out = {}
    start = 3 if side == "alice" else 2
    for k in range(start, K + 1, 2):
        for (prev,), prev_rows in level_sets(msg_idx[support, k - 2]):
            idxs = support[prev_rows]
            out[(k, prev)] = _reference_weighted_regret(
                msg_idx[idxs, k - 1] / m, prior.y[idxs], prior.p[idxs],
                None if feats is None else feats[idxs], benchmark, spec)
    return out


def _reference_per_bucket(transcript, side, bucketing, audit):
    out = {}
    for k in range(1 if side == ALICE else 2, transcript.K + 1, 2):
        if k < 2:
            continue
        preds_k = transcript.round_predictions(k)
        out.update(((k, i), 0.0) for i in range(1, bucketing.n_buckets + 1))
        buckets = bucketing.bucket_ids(transcript.round_predictions(k - 1))
        for (i,), rows in level_sets(buckets):
            out[(k, i)] = audit(preds_k[rows], transcript.outcomes[rows], rows)
    return out


def _reference_conversation_swap_regret(transcript, side, benchmark, bucketing, inputs):
    feats = None if benchmark == "constant" else np.asarray(inputs, dtype=float)
    return _reference_per_bucket(transcript, side, bucketing, lambda p, y, rows: (
        _reference_swap_regret(p, y, None if feats is None else feats[rows], benchmark)))


def _reference_decision_conv_swap_regret(transcript, task, policies, side):
    named = {name: labels for name, labels in policies.items() if not name.startswith("const:")}
    out = {}
    for k in own_rounds(side, transcript.K):
        if k < 2:
            continue
        seq = transcript.round(k)
        out.update(((k, a), 0.0) for a in range(task.n_actions))
        for (a,), rows in level_sets(transcript.actions[:, k - 2]):
            sub = DecisionSequence(seq.predictions[rows], seq.actions[rows], seq.outcomes[rows])
            sub_named = {name: labels[rows] for name, labels in named.items()}
            sub_policies = PolicySet(task.n_actions, sub.T, sub_named)
            out[(k, a)] = decision_swap_regret(sub, task, sub_policies)
    return out


def _same(got, want):
    """got() equals want() bit for bit (a float, or a dict of floats in the
    same order), or both raise UncertifiedFit."""
    try:
        expected = want()
    except UncertifiedFit:
        with pytest.raises(UncertifiedFit):
            got()
        return
    value = got()
    assert type(value) is type(expected)
    as_text = lambda v: repr(list(v.items()) if isinstance(v, dict) else v)  # noqa: E731
    assert as_text(value) == as_text(expected)


@st.composite
def _level_set_rows(draw):
    """(p, y, x_a, x_b, w): grid predictions, with ties at a small m and
    one-row level sets at a large one; outcomes on quarters (ties) or
    uniform; features of norm at most 1; positive weights."""
    n = draw(st.integers(1, 60))
    m = draw(st.sampled_from([1, 2, 4, 10, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.integers(0, m + 1, size=n) / m
    y = rng.integers(0, 5, size=n) / 4.0 if draw(st.booleans()) else rng.uniform(size=n)
    xs = [rng.uniform(-1, 1, (n, d)) / np.sqrt(d) for d in (draw(st.integers(1, 3)),
                                                            draw(st.integers(1, 3)))]
    w = rng.uniform(0.05, 1.0, size=n)
    return p, y, *xs, w / w.sum() if draw(st.booleans()) else w


class TestSwapRegretDifferential:
    """`core.swap_regret` and the audits on `core.conditioned` against the
    loops they replaced, bit for bit and in the same dict order."""

    @settings(max_examples=150, deadline=None)
    @given(_level_set_rows(), st.sampled_from([0.5, 1000.0]))
    @example((np.array([0.5]), np.array([0.25]), np.array([[0.5]]), np.array([[-0.5]]),
              np.array([1.0])), 1.0)
    def test_level_set_forms_match(self, rows, C):
        p, y, x_a, x_b, w = rows
        spec_a, spec_b = (LinearClassSpec(d=x.shape[1], C=C) for x in (x_a, x_b))
        _same(lambda: swap_regret(p, y), lambda: _reference_swap_regret(p, y, None, "constant"))
        _same(lambda: swap_regret(p, y, weights=w),
              lambda: _reference_weighted_regret(p, y, w, None, "constant", None))
        for x, spec in ((x_a, spec_a), (x_b, spec_b)):
            _same(lambda: swap_regret(p, y, x, spec), lambda: _reference_swap_regret(p, y, x, spec))
            _same(lambda: swap_regret(p, y, x, spec, w),
                  lambda: _reference_weighted_regret(p, y, w, x, "linear", spec))
        sample = BatchSample(x_a, x_b, y)
        _same(lambda: final_swap_regret(p, sample, spec_a, spec_b),
              lambda: _reference_final_swap_regret(p, sample, spec_a, spec_b))

    @settings(max_examples=100, deadline=None)
    @given(_grid_runs(), st.integers(1, 3), st.sampled_from([0.5, 1000.0]))
    def test_conversation_audits_match(self, run, d, C):
        tr, bucketing, _eps, rng = run
        x = rng.uniform(-1, 1, (tr.T, d)) / np.sqrt(d)
        spec = LinearClassSpec(d=d, C=C)
        for side in (ALICE, BOB):
            _same(lambda: conversation_calibration_error(tr, side, bucketing),
                  lambda: _reference_per_bucket(tr, side, bucketing,
                                                lambda p, y, _rows: ece(p, y)))
            for benchmark, inputs in (("constant", None), (spec, x)):
                _same(lambda: conversation_swap_regret(tr, side, benchmark, bucketing, inputs),
                      lambda: _reference_conversation_swap_regret(tr, side, benchmark,
                                                                  bucketing, inputs))

    @settings(max_examples=150, deadline=None)
    @given(_priors(), st.integers(2, 6), st.sampled_from([1, 2, 4, 16]), st.integers(1, 2),
           st.sampled_from([0.5, 1000.0]), st.integers(0, 2**32 - 1))
    @example(_SIGNED_ZERO_PRIOR, 4, 4, 1, 1.0, 0)
    def test_bayes_audit_matches(self, prior, K, m, d, C, seed):
        rng = np.random.default_rng(seed)

        def encoding(labels):
            return {s: rng.uniform(-1, 1, d) / np.sqrt(d) for s in dict.fromkeys(labels)}

        prior = PriorTable(prior.signals_a, prior.signals_b, y=prior.y, p=prior.p,
                           encoding_a=encoding(prior.signals_a),
                           encoding_b=encoding(prior.signals_b))
        spec = LinearClassSpec(d=d, C=C)
        msg_idx = simulate_messages(prior, K, m)
        for side, benchmark in itertools.product((ALICE, BOB), ("constant", "linear")):
            _same(lambda: expected_conversation_swap_regret(prior, msg_idx, m, side,
                                                            benchmark, spec),
                  lambda: _reference_expected_conversation_swap_regret(prior, msg_idx, m, side,
                                                                       benchmark, spec))

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 3), n_actions=st.integers(1, 5), T=st.integers(1, 120),
           K=st.integers(2, 5), n_policies=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_decision_audit_matches(self, d, n_actions, T, K, n_policies, seed):
        rng = np.random.default_rng(seed)
        task = DecisionTask.from_matrix(rng.uniform(size=(n_actions, d)))
        # actions drawn from fewer than all leave previous-action cells empty
        acts = rng.integers(0, rng.integers(1, n_actions + 1), size=(T, K))
        tr = DecisionTranscript(rng.uniform(size=(T, K, d)), acts, rng.uniform(size=(T, d)), task)
        policies = PolicySet(n_actions, T, {
            f"p{i}": rng.integers(0, n_actions, size=T) for i in range(n_policies)})
        for side in (ALICE, BOB):
            _same(lambda: decision_conv_swap_regret(tr, task, policies, side),
                  lambda: _reference_decision_conv_swap_regret(tr, task, policies, side))


def _conditioned_audit(name, side):
    """Run the named conditioned audit for `side` on a small input."""
    tr = ConversationTranscript(np.full((4, 3), 0.5), np.array([0.0, 1.0, 1.0, 0.0]))
    bucketing = BucketingSpec(g=0.5, m=2)
    task = DecisionTask.from_matrix(np.eye(2))
    decisions = DecisionTranscript(np.full((4, 3, 2), 0.5), np.zeros((4, 3), dtype=int),
                                   np.full((4, 2), 0.5), task)
    if name == "conversation_swap_regret":
        return conversation_swap_regret(tr, side, "constant", bucketing)
    if name == "conversation_calibration_error":
        return conversation_calibration_error(tr, side, bucketing)
    if name == "expected_conversation_swap_regret":
        prior = additive_prior()
        return expected_conversation_swap_regret(prior, simulate_messages(prior, 3, 4), 4, side)
    if name == "decision_conv_swap_regret":
        return decision_conv_swap_regret(decisions, task, PolicySet(2, 4), side)
    return decision_conv_cal_error(decisions, side)


@pytest.mark.parametrize("name", ["conversation_swap_regret", "conversation_calibration_error",
                                  "expected_conversation_swap_regret",
                                  "decision_conv_swap_regret", "decision_conv_cal_error"])
def test_every_conditioned_audit_refuses_an_unknown_side(name):
    for side in (ALICE, BOB):
        assert _conditioned_audit(name, side)
    with pytest.raises(ValueError, match="^unknown side 'carol'$"):
        _conditioned_audit(name, "carol")
