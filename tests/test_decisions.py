import hashlib

import numpy as np
import pytest

from collabpred.datagen import decision_iid_dataset
from collabpred.decisions import (
    BaselineForecaster,
    DecisionSequence,
    DecisionTask,
    PolicySet,
    best_response,
    decision_cal_error,
    decision_conv_cal_error,
    decision_conv_swap_regret,
    decision_cross_cal_error,
    decision_swap_regret,
    run_decision_protocol,
    utility_round_profile,
)


class TestDecisionTask:
    def test_rescaled_to_unit_range(self):
        task = DecisionTask.from_matrix([[3.0, -1.0], [0.0, 2.0]])
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = rng.uniform(size=2)
            for a in range(2):
                assert 0.0 <= task.matrix[a] @ y <= 1.0

    def test_rescaling_preserves_best_responses(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(-2, 2, size=(3, 4))
        task = DecisionTask.from_matrix(raw)
        for _ in range(300):
            y = rng.uniform(size=4)
            assert best_response(task, y) == int(np.argmax(raw @ y))

    def test_utility_linear_in_outcome(self):
        task = DecisionTask.from_matrix([[1.0, 0.0, 2.0], [0.5, 1.5, 0.0]])
        rng = np.random.default_rng(2)
        for _ in range(50):
            y1 = rng.uniform(size=3)
            y2 = rng.uniform(size=3)
            lam = float(rng.uniform())
            for a in range(2):
                mix = task.matrix[a] @ (lam * y1 + (1 - lam) * y2)
                split = lam * (task.matrix[a] @ y1) + (1 - lam) * (task.matrix[a] @ y2)
                assert mix == pytest.approx(split, abs=1e-12)

    def test_json_roundtrip(self):
        # the config format the CLI reads
        task = DecisionTask.from_matrix([[1.0, 0.0], [0.0, 1.0]], actions=("up", "down"))
        back = DecisionTask.from_json_dict(
            {"d": 2, "actions": ["up", "down"], "utility": [[1.0, 0.0], [0.0, 1.0]]})
        np.testing.assert_array_equal(back.matrix, task.matrix)
        assert back.actions == task.actions

    def test_d_is_read_as_every_int_field_is(self):
        # the task row types d as an integer: 2.0 reads as 2, 2.5 is refused
        task = DecisionTask.from_json_dict({"d": 2.0, "utility": [[1, 0], [0, 1]]})
        assert task.d == 2 and task.actions == ("a0", "a1")
        with pytest.raises(ValueError, match=r"^task: field 'd' must be an integer, found 2.5$"):
            DecisionTask.from_json_dict({"d": 2.5, "utility": [[1, 0], [0, 1]]})


class TestBestResponse:
    def test_identity_matrix(self):
        task = DecisionTask.from_matrix(np.eye(2))
        assert best_response(task, np.array([1.0, 0.0])) == 0

    def test_tie_breaks_to_lowest_index(self):
        task = DecisionTask.from_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert best_response(task, np.array([0.3, 0.9])) == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n_actions = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            raw = rng.uniform(-1, 1, size=(n_actions, d))
            task = DecisionTask.from_matrix(raw)
            y = rng.uniform(size=d)
            utils = [task.matrix[a] @ y for a in range(n_actions)]
            best = 0
            for a in range(1, n_actions):
                if utils[a] > utils[best]:
                    best = a
            assert best_response(task, y) == best


def _sequence(preds, task, outcomes):
    preds = np.asarray(preds, dtype=float)
    actions = np.array([best_response(task, p) for p in preds])
    return DecisionSequence(predictions=preds, actions=actions,
                            outcomes=np.asarray(outcomes, dtype=float))


class TestAudits:
    def test_unbiased_predictions_have_zero_cal_error(self):
        task = DecisionTask.from_matrix(np.eye(2))
        preds = np.array([[0.8, 0.2], [0.8, 0.2], [0.1, 0.9], [0.1, 0.9]])
        outs = np.array([[0.9, 0.1], [0.7, 0.3], [0.0, 1.0], [0.2, 0.8]])
        seq = _sequence(preds, task, outs)
        _per, worst = decision_cal_error(seq, task)
        assert worst == pytest.approx(0.0, abs=1e-12)

    def test_single_day_bias_is_linf_miss(self):
        task = DecisionTask.from_matrix(np.eye(2))
        preds = np.array([[0.9, 0.1]])
        outs = np.array([[0.2, 0.5]])
        seq = _sequence(preds, task, outs)
        _per, worst = decision_cal_error(seq, task)
        assert worst == pytest.approx(0.7)

    def test_cross_cal_conditioning(self):
        task = DecisionTask.from_matrix(np.eye(2))
        preds = np.array([[0.8, 0.2]] * 4)
        outs = np.array([[1.0, 0.0], [0.6, 0.4], [1.0, 0.0], [0.6, 0.4]])
        policies = PolicySet(2, 4, named={"alt": np.array([0, 1, 0, 1])})
        seq = _sequence(preds, task, outs)
        per, worst = decision_cross_cal_error(seq, task, policies)
        assert per[(0, "alt", 0)] == pytest.approx(0.4)
        assert per[(0, "alt", 1)] == pytest.approx(0.4)
        assert worst == pytest.approx(0.4)

    def test_swap_regret_zero_for_optimal_constant_play(self):
        task = DecisionTask.from_matrix(np.eye(2))
        outs = np.array([[1.0, 0.0]] * 5)
        preds = np.array([[1.0, 0.0]] * 5)
        seq = _sequence(preds, task, outs)
        policies = PolicySet(2, 5)
        assert decision_swap_regret(seq, task, policies) == pytest.approx(0.0, abs=1e-12)

    def test_swap_regret_single_day(self):
        task = DecisionTask.from_matrix(np.eye(2))
        preds = np.array([[0.9, 0.1]])
        outs = np.array([[0.0, 1.0]])
        seq = _sequence(preds, task, outs)
        policies = PolicySet(2, 1)
        expected = task.matrix[1] @ outs[0] - task.matrix[0] @ outs[0]
        assert decision_swap_regret(seq, task, policies) == pytest.approx(expected)

    @pytest.mark.parametrize("named, message", [
        ({"p": [-1] * 4}, r"policy 'p' must give actions in \[0,3\), found -1 at row 0"),
        ({"p": [0, 1, 3, 0]}, r"policy 'p' must give actions in \[0,3\), found 3 at row 2"),
        ({"p": [0, 1]}, r"policy 'p' must give one action on each of 4 rows, found shape \(2,\)"),
        ({"p": [[0]] * 4}, r"found shape \(4, 1\)"),
        ({"const:0": [2] * 4}, r"policy 'const:0' must be named without the reserved prefix"),
        ({"p": [0, 0.7, 1.9, 0]}, r"policy 'p' must give whole-number actions, found 0.7 at row 1"),
        ({"p": [0, 1, float("nan"), 0]},
         r"policy 'p' must give whole-number actions, found nan at row 2"),
        ({"p": [1e30, 1, 0, 0]},
         r"policy 'p' must give whole-number actions, found 1e\+30 at row 0"),
    ], ids=["negative", "too-large", "short", "2-d", "const-prefix", "fraction", "nan",
            "past-int64"])
    def test_policies_built_in_code_are_checked(self, named, message):
        # read() checks a file; a set built in code once reached the audits unchecked
        with pytest.raises(ValueError, match=message):
            PolicySet(3, 4, named)

    def test_integral_float_labels_are_kept(self):
        policies = PolicySet(3, 2, {"p": [0.0, 2.0]})
        np.testing.assert_array_equal(policies.policies["p"], [0, 2])
        assert policies.policies["p"].dtype == int

    def test_cross_calibration_dominates_calibration(self):
        # with constants included, the per-action bias is bounded by the
        # cross-conditioned biases summed over the partner action
        rng = np.random.default_rng(4)
        task = DecisionTask.from_matrix(rng.uniform(0, 1, size=(3, 3)))
        T = 60
        preds = rng.uniform(size=(T, 3))
        outs = rng.uniform(size=(T, 3))
        seq = _sequence(preds, task, outs)
        policies = PolicySet(3, T, named={"p": rng.integers(0, 3, size=T)})
        per_a, _ = decision_cal_error(seq, task)
        per_x, _ = decision_cross_cal_error(seq, task, policies)
        for a in range(3):
            total_cross = sum(per_x[(a, "p", a2)] for a2 in range(3))
            assert per_a[a] <= total_cross + 1e-9


class TestProtocolRun:
    def test_stub_run_shapes_and_invariant(self):
        ds = decision_iid_dataset(30, seed=5, d=3)
        task = DecisionTask.from_matrix(np.eye(3))
        tr = run_decision_protocol(ds, task, BaselineForecaster(3), BaselineForecaster(3), K=2)
        assert tr.T == 30 and tr.K == 2
        for t in range(tr.T):
            for k in range(tr.K):
                assert tr.actions[t, k] == best_response(task, tr.predictions[t, k])

    def test_routing_isolation_by_previous_action(self):
        # Bob's round-2 forecaster keyed by Alice's round-1 action sees only
        # the matching subsequence, and every day lands in one key
        ds = decision_iid_dataset(40, seed=6, d=2)
        task = DecisionTask.from_matrix(np.eye(2))
        bob = BaselineForecaster(2)
        tr = run_decision_protocol(ds, task, BaselineForecaster(2), bob, K=2)
        for a in range(task.n_actions):
            mask = tr.actions[:, 0] == a
            assert bob.counts.get((2, a), 0) == int(mask.sum())
            if mask.any():
                np.testing.assert_allclose(bob.sums[(2, a)], ds.y[mask].sum(axis=0))
        assert sum(bob.counts.values()) == tr.T

    def test_utility_profile_inequality(self):
        ds = decision_iid_dataset(400, seed=7, d=3)
        task = DecisionTask.from_matrix(np.eye(3))
        tr = run_decision_protocol(ds, task, BaselineForecaster(3), BaselineForecaster(3), K=4)
        prof = utility_round_profile(tr, eps=0.05)
        assert prof.violations == ()

    def test_forecaster_keys_by_round_and_action(self):
        ds = decision_iid_dataset(50, seed=8, d=2)
        task = DecisionTask.from_matrix(np.eye(2))
        alice = BaselineForecaster(2)
        run_decision_protocol(ds, task, alice, BaselineForecaster(2), K=4)
        rounds = {k for (k, _a) in alice.counts}
        assert rounds <= {1, 3}
        assert any(a is None for (_k, a) in alice.counts)


class TestBaselineEnvelope:
    def test_calibration_bias_envelope_on_exchangeable_data(self):
        # per-action bias of the baseline forecaster on i.i.d. data stays
        # inside a 6·sqrt(T(a)·ln(dT)) envelope
        T, d = 10000, 3
        ds = decision_iid_dataset(T, seed=12, d=d)
        task = DecisionTask.from_matrix(np.eye(d))
        tr = run_decision_protocol(ds, task, BaselineForecaster(d), BaselineForecaster(d), K=2)
        final = tr.round(2)
        per_action, _ = decision_cal_error(final, task)
        for a, bias in per_action.items():
            T_a = int((final.actions == a).sum())
            if T_a == 0:
                continue
            assert bias <= 6.0 * np.sqrt(T_a * np.log(d * T))


class TestBaselineForecaster:
    def test_fresh_state_is_half(self):
        f = BaselineForecaster(3)
        got = f.forecast_round(1, None, None, np.array([[0.2, 0.9, 0.4]]))
        np.testing.assert_array_equal(got, np.full((1, 3), 0.5))
        assert f.counts == {(1, None): 1}

    def test_single_outcome_becomes_mean(self):
        f = BaselineForecaster(2)
        y = np.array([0.2, 0.9])
        f.forecast_round(2, np.array([1]), None, y[None])
        got = f.forecast_round(2, np.array([1, 0]), None, np.array([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(got, [y, [0.5, 0.5]])
        np.testing.assert_allclose(f.sums[(2, 1)], y)

    def test_bias_shrinks_on_iid_data(self):
        rng = np.random.default_rng(9)
        mean = np.array([0.3, 0.7])
        biases = []
        for n in (50, 500, 5000):
            f = BaselineForecaster(2)
            y = np.clip(mean + 0.1 * rng.standard_normal((n + 1, 2)), 0, 1)
            # the last day's forecast is the mean of the n days before it
            biases.append(np.abs(f.forecast_round(1, None, None, y)[-1] - mean).max())
        assert biases[2] < biases[0]


class TestConversationAudits:
    def test_conv_swap_regret_conditioning(self):
        ds = decision_iid_dataset(200, seed=10, d=2)
        task = DecisionTask.from_matrix(np.eye(2))
        tr = run_decision_protocol(ds, task, BaselineForecaster(2), BaselineForecaster(2), K=4)
        policies = PolicySet(task.n_actions, tr.T)
        entries = decision_conv_swap_regret(tr, task, policies, "bob")
        # entries exist for Bob's rounds conditioned on every partner action
        assert set(k for (k, _a) in entries) <= {2, 4}
        # recompute one entry by hand
        k, a_prev = 2, 0
        mask = tr.actions[:, 0] == a_prev
        if mask.any():
            seq = tr.round(2)
            sub = DecisionSequence(
                predictions=seq.predictions[mask],
                actions=seq.actions[mask],
                outcomes=seq.outcomes[mask],
            )
            sub_pol = PolicySet(task.n_actions, int(mask.sum()))
            assert entries[(k, a_prev)] == pytest.approx(
                decision_swap_regret(sub, task, sub_pol)
            )

    def test_conv_cal_error_keys(self):
        ds = decision_iid_dataset(60, seed=11, d=2)
        task = DecisionTask.from_matrix(np.eye(2))
        tr = run_decision_protocol(ds, task, BaselineForecaster(2), BaselineForecaster(2), K=4)
        cal = decision_conv_cal_error(tr, "alice")
        assert set(k for (k, _a, _p) in cal) <= {3}

    # SHA-256 of the conversation audits below, recorded on a reference build
    CONV_AUDITS_SHA256 = "2690cc6304757602d24ca535dcfe05dd6adeb7287bc4cabdfdb94819fb9ff7f0"

    def test_conv_audits_match_pinned_hash(self):
        ds = decision_iid_dataset(400, seed=12, d=2)
        task = DecisionTask.from_matrix([[1, 0], [0, 1], [0.6, 0.6]])
        tr = run_decision_protocol(ds, task, BaselineForecaster(2), BaselineForecaster(2), K=5)
        policies = PolicySet(task.n_actions, tr.T, named={"cycle": np.arange(tr.T) % 3})
        entries = []
        for side in ("alice", "bob"):
            entries.append(list(decision_conv_cal_error(tr, side).items()))
            entries.append(list(decision_conv_swap_regret(tr, task, policies, side).items()))
        digest = hashlib.sha256(repr(entries).encode()).hexdigest()
        assert digest == self.CONV_AUDITS_SHA256
