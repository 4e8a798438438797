import numpy as np
import pytest

from collabpred.core import BucketingSpec, round_to_grid
from collabpred.datagen import additive_linear_noise
from collabpred.learners import ConversationWrapper, LinearClassSpec, RidgeBank, VawState
from collabpred.protocol import SoloVawLearner


class TestLinearClassSpec:
    def test_norm_bound_floor(self):
        with pytest.raises(ValueError):
            LinearClassSpec(d=2, C=0.4)
        LinearClassSpec(d=2, C=0.5)

    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            LinearClassSpec(d=0)


class TestVaw:
    def test_fresh_state_predicts_zero(self):
        st = VawState(3)
        assert st.predict(np.array([0.5, -0.2, 0.1])) == 0.0

    def test_single_update_closed_form(self):
        # d=1, a=1: after (x=1, y=1) the forward ridge prediction at x=1 is
        # 1·(1+1+1)⁻¹·1 = 1/3, matching a direct ridge minimizer with the
        # current point included in the Gram term
        st = VawState(1)
        st.update(np.array([1.0]), 1.0)
        got = st.predict(np.array([1.0]))
        gram = 1.0 + 1.0 + 1.0
        assert got == pytest.approx(1.0 / gram, abs=1e-12)

    def test_orthogonal_feature_still_zero(self):
        st = VawState(2)
        st.update(np.array([1.0, 0.0]), 1.0)
        assert st.predict(np.array([0.0, 1.0])) == 0.0

    def test_predictions_monotone_toward_label(self):
        st = VawState(1)
        x = np.array([1.0])
        prev = st.predict(x)
        for _ in range(10):
            st.update(x, 1.0)
            cur = st.predict(x)
            assert cur > prev
            prev = cur

    def test_matches_batch_ridge(self):
        rng = np.random.default_rng(0)
        st = VawState(3, a=1.0)
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
        np.testing.assert_allclose(np.linalg.solve(st.gram, st.moment), direct, atol=1e-12)

    def test_dimension_mismatch(self):
        st = VawState(2)
        with pytest.raises(ValueError):
            st.predict(np.array([1.0]))
        with pytest.raises(ValueError):
            st.update(np.array([1.0, 0.0, 0.0]), 0.5)

    def test_regret_bound_adversarial_scalar(self):
        # scalar adversarial stream: regret ≤ 2·1·ln(T+1) + θ*²
        rng = np.random.default_rng(70)
        T = 500
        st = VawState(1)
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
        st = VawState(d)
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


def _one_slot(m, d):
    """A bank with one slot, the bucketed swap wrapper, and that slot."""
    bank = RidgeBank(m, d)
    return bank, bank.add_slot()


class TestSwapWrapper:
    """One slot of a `RidgeBank`, driven directly or as the `swap` learner kind."""

    @staticmethod
    def _proposing(props):
        """A fresh one-slot bank, d = 1, whose experts propose `props` at x = [1]."""
        bank, slot = _one_slot(len(props), 1)
        # with G⁻¹ = I the forecast at x = [1] is moment / (1 + 1)
        bank.moment[slot, :, 0] = 2.0 * np.array(props)
        assert bank.proposals(np.array([1.0]))[slot].tolist() == props
        return bank, slot

    def test_self_consistent_tie_breaks_low(self):
        # both proposals sit in their own bucket: lowest index wins
        bank, slot = self._proposing([0.0, 0.5])
        assert bank.select(slot, np.array([1.0])) == 0.0
        assert bank.active[slot] == 0

    def test_argmin_distance_selection(self):
        # proposal 1.0 is 0.75 away from [0,1/4]; proposal 0.5 lies in
        # [1/4,1/2]: the second expert wins
        bank, slot = self._proposing([1.0, 0.5, 0.0, 0.0])
        assert bank.select(slot, np.array([1.0])) == 0.5
        assert bank.active[slot] == 1
        # proposals 0.75 and 0.25 are 1/4 away from their buckets: the tie
        # goes to the lower index
        bank, slot = self._proposing([1.0, 0.75, 0.25, 0.0])
        assert bank.select(slot, np.array([1.0])) == 0.75
        assert bank.active[slot] == 1

    def test_single_bucket_degenerates_to_base(self):
        sw = ConversationWrapper(d=1, m=1, g=None)
        st = VawState(1)
        x = np.array([0.8])
        for y in (0.3, 0.9, 0.6):
            assert sw.predict(1, None, x) == round_to_grid(st.predict(x), 1)
            sw.update(1, None, x, y)
            st.update(x, y)

    def test_update_requires_predict(self):
        bank, slot = _one_slot(2, 1)
        x = np.array([1.0])
        with pytest.raises(RuntimeError):
            bank.update(slot, x, 0.5)
        # updates are queued, but a second update of one selection still
        # raises at the call and leaves the queued one alone
        bank.select(slot, x)
        bank.update(slot, x, 0.5)
        with pytest.raises(RuntimeError):
            bank.update(slot, x, 0.5)
        assert bank.steps[slot].tolist() == [1, 0]
        for g in (0.5, None):   # conversation and swap routing
            with pytest.raises(RuntimeError):
                ConversationWrapper(d=1, m=2, g=g).update(2, 0.7, x, 0.5)

    @pytest.mark.parametrize("label", [float("nan"), 3.0, -0.5, np.float64("nan")])
    def test_label_outside_unit_interval_raises_at_update(self, label):
        # the message VawState gives; nothing is queued, so predictions stay finite
        bank, slot = _one_slot(4, 2)
        x = np.array([0.3, -0.4])
        first = bank.select(slot, x)
        with pytest.raises(ValueError, match=rf"^label {float(label)} outside \[0,1\]$"):
            bank.update(slot, x, label)
        assert bank.select(slot, x) == first
        bank.update(slot, x, 1.0)
        assert bank.steps.sum() == 1 and np.isfinite(bank.select(slot, x))
        with pytest.raises(ValueError, match=r"^label nan outside \[0,1\]$"):
            VawState(2).update(x, float("nan"))

    def test_only_active_expert_updates(self):
        bank, slot = _one_slot(4, 1)
        x = np.array([1.0])
        bank.select(slot, x)
        active = bank.active[slot]
        before = bank.gram[slot].copy()
        bank.update(slot, x, 0.7)
        for i in range(4):
            changed = not np.array_equal(bank.gram[slot, i], before[i])
            assert changed == (i == active)
        assert bank.active[slot] is None

    def test_all_updates_in_one_bucket(self):
        rng = np.random.default_rng(1)
        bank, slot = _one_slot(4, 1)
        x = np.array([0.0])  # zero feature keeps every proposal at 0
        for _ in range(20):
            bank.select(slot, x)
            bank.update(slot, x, float(rng.uniform()))
        assert bank.steps[slot, 0] == 20
        assert bank.steps[slot, 1:].sum() == 0

    def test_emitted_predictions_on_grid(self):
        rng = np.random.default_rng(2)
        m = 7
        bank, slot = _one_slot(m, 2)
        for _ in range(300):
            x = rng.uniform(-0.6, 0.6, size=2)
            p = bank.select(slot, x)
            assert p == round_to_grid(p, m)
            bank.update(slot, x, float(rng.uniform()))

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
            p = sw.predict(1, None, x)
            sw.update(1, None, x, y)
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
        # x reaches the bank as is only when it is a float64 array of shape
        # (d,); every other form is converted first. float32 features make
        # outer products that float32 arithmetic would round.
        rng = np.random.default_rng(12)
        xs = rng.uniform(-0.6, 0.6, size=(300, 3)).astype(np.float32)
        ys = rng.uniform(size=300)
        forms = (lambda x: x.astype(float), lambda x: x, lambda x: x.astype(">f8"),
                 lambda x: np.repeat(x.astype(float), 2)[::2], lambda x: x.tolist(),
                 lambda x: x.astype(float).reshape(1, 3)[0])
        runs = []
        for form in forms:
            bank, slot = _one_slot(5, 3)
            preds = []
            for x, y in zip(xs, ys):
                preds.append(bank.select(slot, form(x)))
                bank.update(slot, form(x), y)
            runs.append((repr(preds), bank.gram.tobytes(), bank.inv.tobytes(),
                         bank.moment.tobytes()))
        assert all(run == runs[0] for run in runs[1:])
        with pytest.raises(ValueError):
            bank.select(slot, np.zeros((3, 1)))


class TestConversationWrapper:
    def test_round_one_ignores_message(self):
        cw = ConversationWrapper(d=1, m=4, g=0.25)
        x = np.array([0.5])
        a = cw.predict(1, None, x)
        b = cw.predict(1, 0.9, x)
        assert a == b
        assert (1, 0) in cw.instances

    def test_missing_message_for_later_round(self):
        cw = ConversationWrapper(d=1, m=4, g=0.25)
        with pytest.raises(ValueError):
            cw.predict(3, None, np.array([0.5]))

    def test_different_buckets_touch_disjoint_instances(self):
        cw = ConversationWrapper(d=1, m=4, g=0.25)
        x = np.array([0.5])
        cw.predict(3, 0.1, x)
        cw.predict(3, 0.9, x)
        keys = set(cw.instances)
        spec = BucketingSpec(g=0.25, m=4)
        assert (3, spec.bucket_of(0.1)) in keys
        assert (3, spec.bucket_of(0.9)) in keys
        assert len(keys) == 2

    def test_isolation_of_instances(self):
        # instance (k, i) sees exactly the subsequence routed to bucket i
        cw = ConversationWrapper(d=1, m=4, g=0.5)
        x = np.array([0.3])
        stream = [(0.2, 0.1), (0.8, 0.9), (0.3, 0.2), (0.7, 1.0)]
        for prev, y in stream:
            cw.predict(2, prev, x)
            cw.update(2, prev, x, y)
        for key, labels in (((2, 1), [0.1, 0.2]), ((2, 2), [0.9, 1.0])):
            slot = cw.instances[key]
            assert cw.bank.steps[slot].sum() == len(labels)
            assert cw.bank.moment[slot].sum() == pytest.approx(0.3 * sum(labels), abs=1e-15)

    @pytest.mark.parametrize("label", [float("nan"), 3.0])
    def test_label_outside_unit_interval_raises_at_update(self, label):
        cw = ConversationWrapper(d=2, m=4, g=0.25)
        x = np.array([0.3, -0.4])
        first = cw.predict(2, 0.6, x)
        with pytest.raises(ValueError, match=rf"^label {label} outside \[0,1\]$"):
            cw.update(2, 0.6, x, label)
        assert cw.bank.steps[cw.instances[(2, BucketingSpec(g=0.25, m=4).bucket_of(0.6))]].sum() == 0
        assert cw.predict(2, 0.6, x) == first
        cw.update(2, 0.6, x, 0.0)
        assert np.isfinite(cw.predict(2, 0.6, x))

    @pytest.mark.parametrize("days", [0, 3])
    def test_update_without_predict_changes_nothing(self, days):
        x = np.array([0.3])
        cw, twin = ConversationWrapper(d=1, m=2, g=0.5), ConversationWrapper(d=1, m=2, g=0.5)
        for w in (cw, twin):
            for _ in range(days):
                w.predict(2, 0.2, x)
                w.update(2, 0.2, x, 0.4)
        with pytest.raises(RuntimeError, match="round 2 without a preceding predict"):
            cw.update(2, 0.7, x, 0.5)
        assert cw.instances == twin.instances
        assert cw.bank.slots == twin.bank.slots
        for attr in ("gram", "inv", "moment", "steps"):
            assert getattr(cw.bank, attr).tobytes() == getattr(twin.bank, attr).tobytes()
        assert cw.predict(2, 0.7, x) == twin.predict(2, 0.7, x)

    def test_update_applies_the_slot_predict_chose(self):
        # routing runs at predict only: the message passed to update is not read
        x = np.array([0.3])
        cw = ConversationWrapper(d=1, m=4, g=0.5)
        cw.predict(2, 0.2, x)
        cw.update(2, 0.9, x, 1.0)
        assert {key: int(cw.bank.steps[slot].sum()) for key, slot in cw.instances.items()} \
            == {(2, 1): 1}
        with pytest.raises(RuntimeError):   # the prediction is used up
            cw.update(2, 0.2, x, 1.0)

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(11)
            cw = ConversationWrapper(d=2, m=5, g=0.25)
            out = []
            for _ in range(120):
                x = rng.uniform(-0.6, 0.6, size=2)
                prev = float(round_to_grid(rng.uniform(), 5))
                p = cw.predict(2, prev, x)
                cw.update(2, prev, x, float(rng.uniform()))
                out.append(p)
            return out

        assert run() == run()


class TestLanes:
    """Banks of the same m and d that share arrays as lanes."""

    def test_read_only_view_of_writable_array_is_copied_at_update(self):
        # a read-only view still changes with the array it views
        a = np.array([0.1])
        v = a.view()
        v.flags.writeable = False
        bank, slot = _one_slot(2, 1)
        bank.select(slot, v)
        bank.update(slot, v, 1.0)
        a[:] = 0.5
        assert bank.gram[slot][0][0, 0] == 1.01

    def test_read_only_view_of_writable_array_is_copied_at_staging(self):
        # Bob's x is staged, changed, and then read by Alice's selection pass
        a = np.array([0.5, -0.1])
        v = a.view()
        v.flags.writeable = False
        alice = RidgeBank(3, 2)
        bob = RidgeBank(3, 2, share=alice)
        lone = RidgeBank(3, 2)
        slots = [b.add_slot() for b in (alice, bob, lone)]
        for bank, slot in zip((alice, bob, lone), slots):
            for _ in range(5):
                bank.select(slot, np.array([0.6, -0.2]))
                bank.update(slot, np.array([0.6, -0.2]), 1.0)
        bob.begin_day(v)
        a[:] = -a   # Bob's forecasts at -x are below 0
        alice.select(slots[0], np.array([0.1, 0.1]))
        x = np.array([0.5, -0.1])
        assert bob.select(slots[1], x) == lone.select(slots[2], x) > 0.0
        assert bob.active[slots[1]] == lone.active[slots[2]]

    def test_dataset_rows_are_kept_by_reference(self):
        row = additive_linear_noise(3, 0).x_a[1]
        bank, slot = _one_slot(2, 3)
        bank.begin_day(row)
        bank.select(slot, row)
        bank.update(slot, row, 0.5)
        assert bank._x is row and bank._queue[0][0] is row

    def test_sharing_rule(self):
        alice = ConversationWrapper(d=3, m=5, g=0.25)
        assert ConversationWrapper(d=3, m=5, g=None, a=2.0, peer=alice).bank._lanes \
            is alice.bank._lanes
        for other in (ConversationWrapper(d=3, m=4, peer=alice),
                      ConversationWrapper(d=2, m=5, peer=alice),
                      ConversationWrapper(d=3, m=5, peer=SoloVawLearner(3))):
            assert other.bank._lanes is not alice.bank._lanes
            assert other.bank._lanes.lanes == [other.bank]
        with pytest.raises(ValueError, match="cannot share"):
            RidgeBank(4, 3, share=alice.bank)

    def test_lane_views_write_through(self):
        alice = RidgeBank(2, 1)
        bob = RidgeBank(2, 1, a=4.0, share=alice)
        for bank in (alice, bob, alice, alice):   # alice's third slot doubles the capacity
            bank.add_slot()
        assert alice.gram.shape == bob.gram.shape == (4, 2, 1, 1)
        assert bob.gram[:, :, 0, 0].tolist() == [[4.0, 4.0]] * 4
        assert bob.inv[:, :, 0, 0].tolist() == [[0.25, 0.25]] * 4
        # with G⁻¹ = I/4 the forecast at x = [1] is moment / 4 / (1 + 1/4)
        bob.moment[0, :, 0] = [0.0, 2.5]
        assert bob.proposals(np.array([1.0]))[0].tolist() == [0.0, 0.5]
        assert alice.proposals(np.array([1.0])).tolist() == [[0.0, 0.0]] * 3
