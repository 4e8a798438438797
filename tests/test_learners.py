import numpy as np
import pytest

from collabpred.core import BucketingSpec, round_to_grid
from collabpred.learners import BANK_KINDS, ConversationWrapper
from collabpred.protocol import ConstantLearner
from collabpred.weaklearn import LinearClassSpec

from test_crosschecks import VawState


class TestLinearClassSpec:
    def test_norm_bound_floor(self):
        with pytest.raises(ValueError):
            LinearClassSpec(d=2, C=0.4)
        LinearClassSpec(d=2, C=0.5)

    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            LinearClassSpec(d=0)


class _VawLane:
    """The `vaw` kind's learner, stepped one x at a time: `predict(x)`, `update(x, y)`."""

    def __init__(self, d, a=1.0):
        self.learner = ConversationWrapper(d, a, **BANK_KINDS["vaw"])

    def predict(self, x):
        self.learner.begin_day(x)
        return self.learner.predict(1, None)

    def update(self, x, y):
        self.predict(x)
        self.learner.update(1, y)


class TestVaw:
    """Forward ridge as the `vaw` kind runs it: a one-expert bank lane, clipped, not rounded."""

    def test_fresh_state_predicts_zero(self):
        st = _VawLane(3)
        assert st.predict(np.array([0.5, -0.2, 0.1])) == 0.0

    def test_single_update_closed_form(self):
        # d=1, a=1: after (x=1, y=1) the forward ridge prediction at x=1 is
        # 1·(1+1+1)⁻¹·1 = 1/3, matching a direct ridge minimizer with the
        # current point included in the Gram term
        st = _VawLane(1)
        st.update(np.array([1.0]), 1.0)
        got = st.predict(np.array([1.0]))
        gram = 1.0 + 1.0 + 1.0
        assert got == pytest.approx(1.0 / gram, abs=1e-12)

    def test_orthogonal_feature_still_zero(self):
        st = _VawLane(2)
        st.update(np.array([1.0, 0.0]), 1.0)
        assert st.predict(np.array([0.0, 1.0])) == 0.0

    def test_predictions_monotone_toward_label(self):
        st = _VawLane(1)
        x = np.array([1.0])
        prev = st.predict(x)
        for _ in range(10):
            st.update(x, 1.0)
            cur = st.predict(x)
            assert cur > prev
            prev = cur

    def test_matches_batch_ridge(self):
        rng = np.random.default_rng(0)
        st = _VawLane(3, a=1.0)
        X, Y = [], []
        for _ in range(40):
            x = rng.uniform(-0.5, 0.5, size=3)
            y = float(np.clip(0.5 + x @ np.array([0.3, -0.2, 0.1]), 0, 1))
            st.update(x, y)
            X.append(x)
            Y.append(y)
        X = np.array(X)
        Y = np.array(Y)
        direct = np.linalg.solve(np.eye(3) + X.T @ X, X.T @ Y)
        gram, moment = st.learner.experts("gram")[0, 0], st.learner.experts("moment")[0, 0]
        np.testing.assert_allclose(np.linalg.solve(gram, moment), direct, atol=1e-12)

    def test_dimension_mismatch(self):
        st = _VawLane(2)
        with pytest.raises(ValueError):
            st.predict(np.array([1.0]))
        with pytest.raises(ValueError):
            st.update(np.array([1.0, 0.0, 0.0]), 0.5)

    def test_regret_bound_adversarial_scalar(self):
        # scalar adversarial stream: regret ≤ 2·1·ln(T+1) + θ*²
        rng = np.random.default_rng(70)
        T = 500
        st = _VawLane(1)
        X = np.empty((T, 1))
        Y = np.empty(T)
        loss = 0.0
        for t in range(T):
            x = np.array([float(rng.uniform(-1, 1))])
            pred = st.predict(x)
            y = 0.0 if pred >= 0.5 else 1.0
            loss += (pred - y) ** 2
            st.update(x, y)
            X[t], Y[t] = x, y
        theta, *_ = np.linalg.lstsq(X, Y, rcond=None)
        best = float(np.sum((X @ theta - Y) ** 2))
        assert loss - best <= 2 * np.log(T + 1) + float(theta @ theta)

    def test_regret_bound_adversarial(self):
        # labels flipped against the last prediction; the cumulative regret
        # against the unconstrained least-squares fit obeys 2d·ln(T+1) + ‖θ*‖²
        rng = np.random.default_rng(7)
        d, T = 4, 500
        st = _VawLane(d)
        X = np.empty((T, d))
        Y = np.empty(T)
        loss = 0.0
        for t in range(T):
            x = rng.standard_normal(d)
            x /= max(np.linalg.norm(x), 1.0)
            pred = st.predict(x)
            y = 0.0 if pred >= 0.5 else 1.0
            loss += (pred - y) ** 2
            st.update(x, y)
            X[t], Y[t] = x, y
        theta, *_ = np.linalg.lstsq(X, Y, rcond=None)
        best = float(np.sum((X @ theta - Y) ** 2))
        bound = 2 * d * np.log(T + 1) + float(theta @ theta)
        assert loss - best <= bound


def _swap(m, d):
    """A `swap` learner: one slot, the bucketed swap wrapper, routed from round 1."""
    return ConversationWrapper(d=d, m=m, g=None)


def _day(sw, x, y):
    """One day of a `swap` learner's round 1: the play, then the update with label y."""
    sw.begin_day(x)
    played = sw.predict(1, None)
    sw.update(1, y)
    return played


def _arrays(learner):
    return [learner.experts(attr).tobytes() for attr in ("gram", "inv", "moment", "steps")]


class TestSwapWrapper:
    """One slot of a pool lane, driven as the `swap` learner kind."""

    @staticmethod
    def _trained(days):
        """A `swap` learner, m = 4 and d = 1, after `days` days of label 1 at x = [1].

        An expert with n such updates forecasts n / (n + 2) at x = [1]. The
        first four days go to expert 0, whose proposal climbs to 3/4, two
        buckets above its own; the next ones go to expert 1.
        """
        sw = _swap(4, 1)
        for _ in range(days):
            _day(sw, np.array([1.0]), 1.0)
        return sw

    @staticmethod
    def _selects(sw, x, props):
        """The slot's play at x, whose experts propose `props`, and the expert it updates."""
        sw.begin_day(np.array([x]))
        assert sw.proposals()[0].tolist() == props
        played = sw.predict(1, None)
        before = sw.experts("steps")[0]
        sw.update(1, 0.5)
        (expert,) = np.flatnonzero(sw.experts("steps")[0] != before)
        return played, expert

    def test_self_consistent_tie_breaks_low(self):
        # at x = [1/4] both learned proposals sit in their own bucket: lowest index wins
        sw = self._trained(6)
        assert sw.experts("steps")[0].tolist() == [4, 2, 0, 0]
        assert self._selects(sw, 0.25, [0.25, 0.25, 0.0, 0.0]) == (0.25, 0)

    def test_argmin_distance_selection(self):
        # proposal 0.75 is 1/2 away from [0,1/4] and expert 1's fresh 0.0 is
        # 1/4 away from [1/4,1/2]: the second expert wins
        assert self._selects(self._trained(4), 1.0, [0.75, 0.0, 0.0, 0.0]) == (0.0, 1)
        # proposal 0.5 lies in [1/4,1/2]: the second expert wins
        assert self._selects(self._trained(6), 1.0, [0.75, 0.5, 0.0, 0.0]) == (0.5, 1)
        # proposals 0.5 and 0.0 are both 1/4 away from their buckets: the tie
        # goes to the lower index
        assert self._selects(self._trained(2), 1.0, [0.5, 0.0, 0.0, 0.0]) == (0.5, 0)

    def test_single_bucket_degenerates_to_base(self):
        sw = ConversationWrapper(d=1, m=1, g=None)
        st = VawState(1)
        x = np.array([0.8])
        for y in (0.3, 0.9, 0.6):
            sw.begin_day(x)
            assert sw.predict(1, None) == round_to_grid(st.predict(x), 1)
            sw.update(1, y)
            st.update(x, y)

    def test_update_requires_predict(self):
        sw = _swap(2, 1)
        x = np.array([1.0])
        with pytest.raises(RuntimeError, match="call begin_day first"):
            sw.predict(1, None)
        sw.begin_day(x)
        with pytest.raises(RuntimeError):
            sw.update(1, 0.5)
        # updates are queued, but a second update of one prediction still
        # raises at the call and leaves the queued one alone
        sw.predict(1, None)
        sw.update(1, 0.5)
        with pytest.raises(RuntimeError):
            sw.update(1, 0.5)
        assert sw.experts("steps")[0].tolist() == [1, 0]
        # rounds 1 and 2 of one `swap` learner share the slot's selection,
        # which takes one update
        sw.begin_day(x)
        sw.predict(1, None)
        sw.predict(2, None)
        sw.update(1, 0.5)
        with pytest.raises(RuntimeError, match="round 2 without a preceding predict"):
            sw.update(2, 0.5)
        assert sw.experts("steps")[0].sum() == 2
        for g in (0.5, None):   # conversation and swap routing
            cw = ConversationWrapper(d=1, m=2, g=g)
            cw.begin_day(x)
            with pytest.raises(RuntimeError):
                cw.update(2, 0.5)

    @pytest.mark.parametrize("label", [float("nan"), 3.0, -0.5, np.float64("nan")])
    def test_label_outside_unit_interval_raises_at_update(self, label):
        # nothing is queued, so predictions stay finite
        sw = _swap(4, 2)
        sw.begin_day(np.array([0.3, -0.4]))
        first = sw.predict(1, None)
        with pytest.raises(ValueError, match=rf"^label {float(label)} outside \[0,1\]$"):
            sw.update(1, label)
        assert sw.predict(1, None) == first
        sw.update(1, 1.0)
        assert sw.experts("steps").sum() == 1 and np.isfinite(sw.predict(1, None))
        # round 3 updates no expert, but its label is checked all the same
        sw.predict(3, None)
        with pytest.raises(ValueError, match="outside"):
            sw.update(3, label)
        sw.update(3, 1.0)
        assert sw.experts("steps").sum() == 1

    def test_only_active_expert_updates(self):
        sw = self._trained(5)   # expert 1 is selected at x = [1]
        sw.begin_day(np.array([1.0]))
        sw.predict(1, None)
        slot, active = sw._routed[1]
        assert active == 1
        before = sw.experts("gram")[slot]
        sw.update(1, 0.7)
        after = sw.experts("gram")[slot]
        for i in range(4):
            assert (not np.array_equal(after[i], before[i])) == (i == active)
        assert sw._routed == {}

    def test_all_updates_in_one_bucket(self):
        rng = np.random.default_rng(1)
        sw = _swap(4, 1)
        x = np.array([0.0])  # zero feature keeps every proposal at 0
        for _ in range(20):
            _day(sw, x, float(rng.uniform()))
        assert sw.experts("steps")[0].tolist() == [20, 0, 0, 0]

    def test_emitted_predictions_on_grid(self):
        rng = np.random.default_rng(2)
        m = 7
        sw = _swap(m, 2)
        for _ in range(300):
            p = _day(sw, rng.uniform(-0.6, 0.6, size=2), float(rng.uniform()))
            assert p == round_to_grid(p, m)

    def test_empirical_swap_regret_small(self):
        # stochastic scalar task: the swap learner's measured swap regret
        # against per-level linear fits stays below 5% of T, checked with an
        # independent brute-force level-set least squares
        rng = np.random.default_rng(3)
        T, m = 20000, 20
        sw = ConversationWrapper(d=2, m=m, g=None)
        xs, ys, ps = [], [], []
        for _ in range(T):
            raw = rng.uniform(-0.7, 0.7)
            x = np.array([raw, 0.6])
            y = float(np.clip(0.5 + 0.4 * raw + 0.1 * rng.standard_normal(), 0, 1))
            sw.begin_day(x)
            p = sw.predict(1, None)
            sw.update(1, y)
            xs.append(x)
            ys.append(y)
            ps.append(p)
        assert list(sw.instances) == [(1, 0)]
        xs, ys, ps = np.array(xs), np.array(ys), np.array(ps)
        total = float(np.sum((ps - ys) ** 2))
        bench = 0.0
        for v in np.unique(ps):
            mask = ps == v
            Z = np.hstack([xs[mask], np.ones((mask.sum(), 1))])
            sol, *_ = np.linalg.lstsq(Z, ys[mask], rcond=None)
            bench += float(np.sum((Z @ sol - ys[mask]) ** 2))
        assert total - bench <= 0.05 * T

    def test_feature_forms_match_float64(self):
        # `begin_day` converts every form of x to a float64 array of shape
        # (d,). float32 features make outer products that float32 arithmetic
        # would round.
        rng = np.random.default_rng(12)
        xs = rng.uniform(-0.6, 0.6, size=(300, 3)).astype(np.float32)
        ys = rng.uniform(size=300)
        forms = (lambda x: x.astype(float), lambda x: x, lambda x: x.astype(">f8"),
                 lambda x: np.repeat(x.astype(float), 2)[::2], lambda x: x.tolist(),
                 lambda x: x.astype(float).reshape(1, 3)[0])
        runs = []
        for form in forms:
            sw = _swap(5, 3)
            preds = [_day(sw, form(x), y) for x, y in zip(xs, ys)]
            runs.append((repr(preds), _arrays(sw)))
        assert all(run == runs[0] for run in runs[1:])
        with pytest.raises(ValueError):
            sw.begin_day(np.zeros((3, 1)))

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 1)), [0.5], 0.5])
    def test_wrong_shape_keeps_the_staged_day(self, bad):
        sw = _swap(4, 2)
        x = np.array([0.3, -0.4])
        for y in (1.0, 0.2, 0.7):
            _day(sw, x, y)
        sw.begin_day(x)
        first = sw.predict(1, None)
        memo, staged = sw._memo, sw._lanes._staged.tobytes()
        with pytest.raises(ValueError, match=r"^feature dimension \(.*\) != \(2,\)$"):
            sw.begin_day(bad)
        assert sw.staged and sw._memo is memo and sw._lanes._staged.tobytes() == staged
        assert sw.predict(1, None) == first
        sw.update(1, 0.5)
        # a queued update is not applied, and its x not overwritten
        queue = list(sw._lanes.queue)
        with pytest.raises(ValueError):
            sw.begin_day(bad)
        assert queue and sw._lanes.queue == queue and sw._lanes._staged.tobytes() == staged
        # the conversation routing keeps its predictions of the day as well
        cw = ConversationWrapper(d=2, m=4, g=0.25)
        cw.begin_day(x)
        cw.predict(2, 0.5)
        with pytest.raises(ValueError):
            cw.begin_day(bad)
        cw.update(2, 0.5)
        assert cw.experts("steps").sum() == 1

    def test_selection_serves_only_its_day(self):
        # a prediction left without an update is dropped by the next begin_day
        x = np.array([0.4, 0.1])
        for g in (0.25, None):
            cw = ConversationWrapper(d=2, m=4, g=g)
            cw.begin_day(x)
            cw.predict(1, None)
            cw.begin_day(x)
            before = _arrays(cw)
            with pytest.raises(RuntimeError, match="round 1 without a preceding predict"):
                cw.update(1, 1.0)
            assert _arrays(cw) == before and cw._routed == {} and cw._lanes.queue == []


class TestConversationWrapper:
    def test_round_one_ignores_message(self):
        cw = ConversationWrapper(d=1, m=4, g=0.25)
        cw.begin_day(np.array([0.5]))
        a = cw.predict(1, None)
        b = cw.predict(1, 0.9)
        assert a == b
        assert (1, 0) in cw.instances

    def test_missing_message_for_later_round(self):
        cw = ConversationWrapper(d=1, m=4, g=0.25)
        cw.begin_day(np.array([0.5]))
        with pytest.raises(ValueError):
            cw.predict(3, None)

    def test_different_buckets_touch_disjoint_instances(self):
        cw = ConversationWrapper(d=1, m=4, g=0.25)
        cw.begin_day(np.array([0.5]))
        cw.predict(3, 0.1)
        cw.predict(3, 0.9)
        keys = set(cw.instances)
        buckets = BucketingSpec(g=0.25, m=4).bucket_ids([0.1, 0.9]).tolist()
        assert keys == {(3, i) for i in buckets} and len(keys) == 2

    def test_isolation_of_instances(self):
        # instance (k, i) sees exactly the subsequence routed to bucket i
        cw = ConversationWrapper(d=1, m=4, g=0.5)
        x = np.array([0.3])
        stream = [(0.2, 0.1), (0.8, 0.9), (0.3, 0.2), (0.7, 1.0)]
        for prev, y in stream:
            cw.begin_day(x)
            cw.predict(2, prev)
            cw.update(2, y)
        for key, labels in (((2, 1), [0.1, 0.2]), ((2, 2), [0.9, 1.0])):
            slot = cw.instances[key]
            assert cw.experts("steps")[slot].sum() == len(labels)
            assert cw.experts("moment")[slot].sum() == pytest.approx(0.3 * sum(labels), abs=1e-15)

    @pytest.mark.parametrize("label", [float("nan"), 3.0])
    def test_label_outside_unit_interval_raises_at_update(self, label):
        cw = ConversationWrapper(d=2, m=4, g=0.25)
        cw.begin_day(np.array([0.3, -0.4]))
        first = cw.predict(2, 0.6)
        with pytest.raises(ValueError, match=rf"^label {label} outside \[0,1\]$"):
            cw.update(2, label)
        slot = cw.instances[(2, *BucketingSpec(g=0.25, m=4).bucket_ids([0.6]).tolist())]
        assert cw.experts("steps")[slot].sum() == 0
        assert cw.predict(2, 0.6) == first
        cw.update(2, 0.0)
        assert np.isfinite(cw.predict(2, 0.6))

    @staticmethod
    def _twins(days):
        """Two conversation learners, d = 1, after the same `days` days of round 2."""
        x = np.array([0.3])
        cw, twin = ConversationWrapper(d=1, m=2, g=0.5), ConversationWrapper(d=1, m=2, g=0.5)
        for w in (cw, twin):
            for _ in range(days):
                w.begin_day(x)
                w.predict(2, 0.2)
                w.update(2, 0.4)
        return cw, twin

    @staticmethod
    def _assert_untouched(cw, twin):
        assert cw.instances == twin.instances
        assert cw._table.tolist() == twin._table.tolist()
        assert _arrays(cw) == _arrays(twin)
        for w in (cw, twin):
            w.begin_day(np.array([0.3]))
        assert cw.predict(2, 0.7) == twin.predict(2, 0.7)

    @pytest.mark.parametrize("days", [0, 3])
    def test_update_without_predict_changes_nothing(self, days):
        cw, twin = self._twins(days)
        with pytest.raises(RuntimeError, match="round 2 without a preceding predict"):
            cw.update(2, 0.5)
        self._assert_untouched(cw, twin)

    @pytest.mark.parametrize("days, message, error, match", [
        (0, 0.5, RuntimeError, "call begin_day first"),
        (3, None, ValueError, "round 2 requires a finite counterparty message, got None"),
        (3, float("nan"), ValueError, "got nan"),
        (3, float("inf"), ValueError, "got inf"),
        (3, -float("inf"), ValueError, "got -inf"),
    ], ids=["no-day", "no-message", "nan-message", "inf-message", "minus-inf-message"])
    def test_failed_predict_leaves_no_slot(self, days, message, error, match):
        cw, twin = self._twins(days)
        if days:
            cw.begin_day(np.array([0.3]))
        with pytest.raises(error, match=match):
            cw.predict(2, message)
        self._assert_untouched(cw, twin)

    def test_update_applies_the_slot_predict_chose(self):
        # routing runs at predict only: update takes the round and the outcome
        cw = ConversationWrapper(d=1, m=4, g=0.5)
        cw.begin_day(np.array([0.3]))
        cw.predict(2, 0.2)
        cw.update(2, 1.0)
        assert {key: int(cw.experts("steps")[slot].sum()) for key, slot in cw.instances.items()} \
            == {(2, 1): 1}
        with pytest.raises(RuntimeError):   # the prediction is used up
            cw.update(2, 1.0)

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(11)
            cw = ConversationWrapper(d=2, m=5, g=0.25)
            out = []
            for _ in range(120):
                cw.begin_day(rng.uniform(-0.6, 0.6, size=2))
                prev = float(round_to_grid(rng.uniform(), 5))
                p = cw.predict(2, prev)
                cw.update(2, float(rng.uniform()))
                out.append(p)
            return out

        assert run() == run()


class TestLanes:
    """Learners of the same m, d and mode that share one pool as lanes."""

    def test_read_only_view_of_writable_array_is_copied_at_update(self):
        # a read-only view still changes with the array it views; the
        # queued update reads the lane's staged copy of x
        a = np.array([0.1])
        v = a.view()
        v.flags.writeable = False
        sw = _swap(2, 1)
        sw.begin_day(v)
        sw.predict(1, None)
        sw.update(1, 1.0)
        a[:] = 0.5
        assert sw.experts("gram")[0, 0, 0, 0] == 1.01

    def test_read_only_view_of_writable_array_is_copied_at_staging(self):
        # Bob's x is staged, changed, and then read by Alice's selection pass
        a = np.array([0.5, -0.1])
        v = a.view()
        v.flags.writeable = False
        alice = _swap(3, 2)
        bob = ConversationWrapper(d=2, m=3, g=None, peer=alice)
        lone = _swap(3, 2)
        for learner in (alice, bob, lone):
            for _ in range(5):
                _day(learner, np.array([0.6, -0.2]), 1.0)
        bob.begin_day(v)
        a[:] = -a   # Bob's forecasts at -x are below 0
        alice.begin_day(np.array([0.1, 0.1]))
        alice.predict(1, None)
        lone.begin_day(np.array([0.5, -0.1]))
        assert bob.predict(1, None) == lone.predict(1, None) > 0.0
        assert bob._routed == lone._routed

    def test_sharing_rule(self):
        class Forwarding:
            # forwards attributes, as a tracing proxy does
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, attr):
                return getattr(self.inner, attr)

        alice = ConversationWrapper(d=3, m=5, g=0.25)
        for peer in (alice, Forwarding(alice)):
            bob = ConversationWrapper(d=3, m=5, g=None, a=2.0, peer=peer)
            assert bob._lanes is alice._lanes and bob._lanes.lanes[-1] is bob
        single = ConversationWrapper(d=3, m=1, g=None)
        for peer, other in ((alice, ConversationWrapper(d=3, m=4, peer=alice)),
                            (alice, ConversationWrapper(d=2, m=5, peer=alice)),
                            (single, ConversationWrapper(d=3, m=1, g=None, grid=False,
                                                         peer=single)),
                            (alice, ConversationWrapper(d=3, m=5, peer=ConstantLearner()))):
            assert other._lanes is not peer._lanes
            assert other._lanes.lanes == [other]
        # the clip mode is one plain forward-ridge expert per slot
        with pytest.raises(ValueError, match="clip mode"):
            ConversationWrapper(d=3, m=5, g=None, grid=False)
        with pytest.raises(ValueError, match="clip mode"):
            ConversationWrapper(d=3, m=5, grid=False, peer=alice)

    def test_lanes_keep_their_own_regularizer_and_slots(self):
        # Alice's lane has three slots and Bob's, with a = 4, one: neither
        # pads to the other, and each starts from its own fresh row
        alice = ConversationWrapper(d=1, m=2, g=0.5)
        bob = ConversationWrapper(d=1, m=2, g=None, a=4.0, peer=alice)
        x = np.array([1.0])
        for learner in (alice, bob):
            learner.begin_day(x)
        for k, message in ((1, None), (3, 0.2), (3, 0.7)):
            alice.predict(k, message)
        bob.predict(2, 0.2)
        assert alice.experts("gram").shape == (3, 2, 1, 1)
        assert alice.experts("gram")[:, :, 0, 0].tolist() == [[1.0, 1.0]] * 3
        assert bob.experts("gram")[:, :, 0, 0].tolist() == [[4.0, 4.0]]
        assert bob.experts("inv")[:, :, 0, 0].tolist() == [[0.25, 0.25]]
        # after n labels 1 at x = [1], G = 4 + n and s = n: the forecast
        # n / (5 + n) first rounds up to 1/2 at n = 2
        for _ in range(2):
            bob.begin_day(x)
            bob.predict(2, None)
            bob.update(2, 1.0)
        assert bob.proposals().tolist() == [[0.5, 0.0]]
        assert alice.proposals().tolist() == [[0.0, 0.0]] * 3
        # one fresh row per lane and one row per expert that has learned
        assert alice._lanes.size == 3
