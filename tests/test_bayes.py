import dataclasses
import json

import numpy as np
import pytest

from collabpred.bayes import (
    PriorTable,
    expected_conversation_swap_regret,
    run_bayes_protocol,
    simulate_messages,
)
from collabpred.datagen import additive_prior, rho_prior, xor_prior
from collabpred.weaklearn import LinearClassSpec
from test_crosschecks import _reference_simulate_messages


def _random_prior(rng, max_atoms=12):
    n = int(rng.integers(3, max_atoms + 1))
    sa = [f"a{int(rng.integers(0, 3))}" for _ in range(n)]
    sb = [f"b{int(rng.integers(0, 3))}" for _ in range(n)]
    y = rng.uniform(size=n)
    p = rng.uniform(0.05, 1.0, size=n)
    p /= p.sum()
    return PriorTable(signals_a=tuple(sa), signals_b=tuple(sb), y=y, p=p)


def _fields(prior):
    """A prior's values: its signals, the bytes of y and p and of its
    encodings, and its JSON form."""
    encodings = tuple(None if e is None else {k: np.asarray(v, dtype=float).tobytes()
                                              for k, v in e.items()}
                      for e in (prior.encoding_a, prior.encoding_b))
    return (prior.signals_a, prior.signals_b, prior.y.tobytes(), prior.p.tobytes(), encodings,
            prior.to_json_dict())


def _simulated(prior, K, m):
    """(posteriors, message indices) of the exchange: the posteriors of the
    per-group reference, whose messages `simulate_messages` must give."""
    posts, msg_idx = _reference_simulate_messages(prior, K, m)
    assert simulate_messages(prior, K, m).tobytes() == msg_idx.tobytes()
    return posts, msg_idx


class TestPriorTable:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            PriorTable(signals_a=("a",), signals_b=("b",), y=np.array([0.5]),
                       p=np.array([0.9]))

    def test_json_roundtrip(self):
        prior = xor_prior()
        back = PriorTable.from_json_dict(json.loads(json.dumps(prior.to_json_dict())))
        assert back.signals_a == prior.signals_a
        np.testing.assert_array_equal(back.y, prior.y)
        assert back.encoding_a.keys() == prior.encoding_a.keys()

    def test_integer_labels_keep_their_encoding_through_json(self):
        prior = PriorTable(signals_a=(0, 1), signals_b=("x", "y"),
                           y=np.array([0.0, 1.0]), p=np.array([0.5, 0.5]),
                           encoding_a={0: np.array([0.0]), 1: np.array([1.0])},
                           encoding_b={"x": np.array([-1.0]), "y": np.array([1.0])})
        back = PriorTable.from_json_dict(json.loads(json.dumps(prior.to_json_dict())))
        assert back.signals_a == (0, 1)
        for side in ("alice", "bob"):
            np.testing.assert_array_equal(back.features(side), prior.features(side))

    def test_features_without_an_encoding_name_the_field(self):
        prior = dataclasses.replace(xor_prior(), encoding_a=None)
        with pytest.raises(ValueError, match="^a prior: field 'encoding' must encode every "
                                             "signal of side 'a', found no 'a' entry$"):
            prior.features("alice")

    def test_fields_compare_values(self):
        # priors that share no arrays, also through JSON, have equal fields
        prior = additive_prior()
        assert _fields(prior) == _fields(additive_prior())
        back = PriorTable.from_json_dict(json.loads(json.dumps(prior.to_json_dict())))
        assert _fields(back) == _fields(prior)
        moved = prior.p.copy()
        moved[0] += 0.125
        moved[1] -= 0.125
        assert _fields(prior) != _fields(dataclasses.replace(prior, p=moved))
        recoded = dataclasses.replace(prior, encoding_b={"b0": [0.0], "b1": [2.0]})
        assert _fields(prior) != _fields(recoded)
        assert _fields(prior) != _fields(xor_prior())

    def test_fields_outlast_a_simulation(self):
        # a simulated prior keeps the fields of its twin, also through JSON
        prior, again = additive_prior(), additive_prior()
        simulate_messages(prior, 3, 4)
        assert _fields(prior) == _fields(again)
        back = PriorTable.from_json_dict(json.loads(json.dumps(prior.to_json_dict())))
        assert _fields(back) == _fields(prior)

    def test_full_information_risk(self):
        assert xor_prior().full_information_risk() == 0.0
        assert additive_prior().full_information_risk() == 0.0

    def test_signals_equal_as_text_stay_apart(self):
        # labels are grouped by value, not by their text: 1 and "1" differ
        prior = PriorTable(signals_a=(1, "1"), signals_b=("x", "x"),
                           y=np.array([0.0, 1.0]), p=np.array([0.5, 0.5]))
        assert prior.full_information_risk() == 0.0
        posts, _ = _simulated(prior, 1, 4)
        assert posts[:, 0].tolist() == [0.0, 1.0]


class TestSimulationMemo:
    """No memo: a simulation leaves the prior as it was and hands out read-only arrays."""

    def test_returned_arrays_are_read_only(self):
        prior = _random_prior(np.random.default_rng(3))
        for K in (4, 2, 6):
            msg_idx = simulate_messages(prior, K, 8)
            assert msg_idx.shape == (prior.n, K)
            assert not msg_idx.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                msg_idx[0, 0] = 1

    def test_identity_unchanged_by_a_simulation(self):
        prior = additive_prior()
        twin = dataclasses.replace(prior)
        before = (repr(prior), prior.to_json_dict())
        run_bayes_protocol(prior, K=4, m=16)
        assert _fields(prior) == _fields(twin)
        assert (repr(prior), prior.to_json_dict()) == before


class TestPosteriorMean:
    """Exact values of the acting party's posteriors, whose rounding
    `simulate_messages` returns."""

    def test_xor_marginal_is_half(self):
        prior = xor_prior()
        posts, _ = _simulated(prior, 1, 8)
        assert posts[prior.support(), 0].tolist() == [0.5] * 4

    def test_additive_marginal(self):
        prior = additive_prior()
        posts, _ = _simulated(prior, 1, 8)
        for i in prior.support():
            assert posts[i, 0] == {"a0": 0.25, "a1": 0.75}[prior.signals_a[i]]

    def test_bob_learns_from_round_one_message(self):
        # with m ≥ 4 Alice's rounded message separates her two signals, so
        # Bob's round-2 posterior is the exact label
        prior = additive_prior()
        m = 4
        posts, msg_idx = _simulated(prior, 2, m)
        for i in prior.support():
            a_bit = float(prior.signals_a[i] == "a1")
            b_bit = float(prior.signals_b[i] == "b1")
            assert msg_idx[i, 0] / m == (0.75 if a_bit else 0.25)
            # conditioning reveals Alice's bit: posterior equals (a + b)/2
            assert posts[i, 1] == pytest.approx((a_bit + b_bit) / 2.0)

    def test_round_three_query_matches_simulation(self):
        # Alice's round-3 posterior is the mean label over the support atoms
        # that share her signal and the first two messages
        rng = np.random.default_rng(37)
        prior = _random_prior(rng)
        m = 8
        posts, msg_idx = _simulated(prior, 3, m)
        support = prior.support()
        for i in support:
            sel = [j for j in support if prior.signals_a[j] == prior.signals_a[i]
                   and tuple(msg_idx[j, :2]) == tuple(msg_idx[i, :2])]
            w = prior.p[sel]
            assert float(w @ prior.y[sel] / w.sum()) == pytest.approx(posts[i, 2], abs=1e-15)

    def test_zero_probability_atoms_ignored(self):
        base = additive_prior()
        padded = PriorTable(
            signals_a=base.signals_a + ("ghost",),
            signals_b=base.signals_b + ("ghost",),
            y=np.append(base.y, 1.0),
            p=np.append(base.p, 0.0),
            encoding_a=dict(base.encoding_a, ghost=np.array([9.0])),
            encoding_b=dict(base.encoding_b, ghost=np.array([9.0])),
        )
        res_base = run_bayes_protocol(base, K=4, m=16)
        res_padded = run_bayes_protocol(padded, K=4, m=16)
        assert res_base.expected_sqe_by_round == res_padded.expected_sqe_by_round


class TestRunProtocol:
    def test_xor_agreement_without_aggregation(self):
        res = run_bayes_protocol(xor_prior(), K=4, m=16)
        for k in range(1, 5):
            assert res.expected_sqe_by_round[k] == 0.25
        assert res.joint_benchmark_error == pytest.approx(0.25, abs=1e-12)
        assert res.full_information_risk == 0.0
        # every message is exactly 1/2
        assert np.all((res.message_indices / 16)[res.message_indices[:, 0] >= 0] == 0.5)

    def test_additive_round_two_exact(self):
        res = run_bayes_protocol(additive_prior(), K=4, m=16)
        assert res.expected_sqe_by_round[2] == 0.0
        assert res.joint_benchmark_error == pytest.approx(0.0, abs=1e-12)

    def test_rho_prior_round_two_exact(self):
        res = run_bayes_protocol(rho_prior(2.0), K=4, m=16)
        assert res.expected_sqe_by_round[2] == pytest.approx(0.0, abs=1e-12)

    def test_rounded_error_non_increasing_on_random_priors(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            prior = _random_prior(rng)
            res = run_bayes_protocol(prior, K=5, m=8)
            errs = [res.expected_sqe_by_round[k] for k in range(1, 6)]
            for prev, cur in zip(errs, errs[1:]):
                assert cur <= prev + 1e-12

    def test_martingale_consistency(self):
        # averaging the next round's posterior over a fixed current message
        # recovers that message to within the rounding slack 1/m
        rng = np.random.default_rng(1)
        m = 16
        for _ in range(20):
            prior = _random_prior(rng)
            posts, msg_idx = _simulated(prior, 3, m)
            support = prior.support()
            w_all = prior.p[support]
            for k in (1, 2):
                col = msg_idx[support, k - 1]
                for v in np.unique(col):
                    mask = col == v
                    w = w_all[mask]
                    avg_next = float(w @ posts[support, k][mask] / w.sum())
                    assert abs(avg_next - v / m) <= 1.0 / m + 1e-12


class TestTranscriptIntegration:
    def test_core_calibration_of_enumerated_transcript(self):
        # replicate the prior's atoms proportionally to probability, feed the
        # simulated exchange through the sequence-level calibration audit:
        # rounded exact posterior means are biased only by discretization,
        # so every (round, bucket) entry is at most T/m
        from collabpred.core import BOB as CORE_BOB
        from collabpred.core import BucketingSpec, ConversationTranscript
        from collabpred.core import conversation_calibration_error

        m = 4
        prior = additive_prior()
        msg_idx = simulate_messages(prior, 2, m)
        preds = msg_idx / m  # all atoms have equal probability 1/4
        tr = ConversationTranscript(preds, prior.y)
        cal = conversation_calibration_error(tr, CORE_BOB, BucketingSpec(g=0.25, m=m))
        for v in cal.values():
            assert v <= tr.T / m + 1e-12


class TestExpectedSwapRegret:
    def test_cap_on_random_priors(self):
        rng = np.random.default_rng(2)
        m = 16
        for _ in range(15):
            prior = _random_prior(rng)
            msg_idx = simulate_messages(prior, 4, m)
            for side in ("alice", "bob"):
                entries = expected_conversation_swap_regret(prior, msg_idx, m, side)
                for v in entries.values():
                    assert v <= 1.0 / (m * m) + 1e-12

    def test_cap_with_linear_benchmark(self):
        m = 16
        prior = rho_prior(2.0)
        spec = LinearClassSpec(d=1, C=1.0)
        msg_idx = simulate_messages(prior, 4, m)
        entries = expected_conversation_swap_regret(
            prior, msg_idx, m, "bob", benchmark="linear", spec=spec
        )
        for v in entries.values():
            assert v <= 1.0 / (m * m) + 1e-12


class TestOneShotReport:
    """The one-shot exchange's gaps as `run_bayes_protocol` reports them: the
    round-K error less the joint linear benchmark and less full information."""

    @staticmethod
    def _gaps(prior, Ks=(2, 4, 8, 16), m=16):
        res = run_bayes_protocol(prior, max(Ks), m)
        ese = res.expected_sqe_by_round
        return ({K: ese[K] - res.joint_benchmark_error for K in Ks},
                {K: ese[K] - res.full_information_risk for K in Ks})

    def test_additive_gap_closes_at_two_rounds(self):
        to_joint, to_full_info = self._gaps(additive_prior())
        assert to_joint[2] == pytest.approx(0.0, abs=1e-12)
        assert to_full_info[2] == pytest.approx(0.0, abs=1e-12)

    def test_xor_gap_to_full_info_stays_quarter(self):
        to_joint, to_full_info = self._gaps(xor_prior())
        for K in (2, 4, 8, 16):
            assert to_full_info[K] == pytest.approx(0.25)
            assert to_joint[K] == pytest.approx(0.0, abs=1e-12)

    def test_rho_prior_gap_non_increasing(self):
        _, to_full_info = self._gaps(rho_prior(2.0))
        gaps = list(to_full_info.values())
        for prev, cur in zip(gaps, gaps[1:]):
            assert cur <= prev + 1e-12
