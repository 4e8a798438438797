import hashlib
import json

import numpy as np
import pytest

from collabpred.cli import main
from collabpred.core import (
    ALICE,
    BOB,
    BucketingSpec,
    ConversationTranscript,
    SequenceDataset,
    conversation_swap_regret,
    disagreement_fraction,
    ece,
    sqe,
    swap_regret,
)
from collabpred.datagen import additive_linear_noise, dataset_to_json
from collabpred.learners import ConversationWrapper, LinearClassSpec
from collabpred.protocol import (
    ConstantLearner,
    ProtocolError,
    agreement_profile,
    final_regret_report,
    joint_benchmark,
    round_error_profile,
    run_collaboration,
    run_solo,
)


def _tiny_dataset(T=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.uniform([-0.5] * 4 + [0.0], [0.5] * 4 + [1.0], size=(T, 5))
    return SequenceDataset(rows[:, 0:2], rows[:, 2:4], rows[:, 4], seed=seed)


class RecordingLearner:
    """Stub that records which rounds it was asked to act on."""

    def __init__(self, value=0.5):
        self.value = value
        self.predict_rounds = []
        self.update_rounds = []

    def predict(self, k, prev, x):
        self.predict_rounds.append(k)
        return self.value

    def update(self, k, prev, x, y):
        self.update_rounds.append(k)


class TestRunCollaboration:
    def test_constant_stubs_produce_constant_transcript(self):
        ds = _tiny_dataset(5)
        tr = run_collaboration(ds, ConstantLearner(0.5), ConstantLearner(0.5), 2)
        assert np.all(tr.predictions == 0.5)
        assert tr.T == 5 and tr.K == 2

    def test_single_day_alternation(self):
        ds = _tiny_dataset(1)
        alice = RecordingLearner(0.3)
        bob = RecordingLearner(0.7)
        tr = run_collaboration(ds, alice, bob, 4)
        assert alice.predict_rounds == [1, 3]
        assert bob.predict_rounds == [2, 4]
        np.testing.assert_array_equal(tr.predictions[0], [0.3, 0.7, 0.3, 0.7])

    def test_learner_failure_carries_context(self):
        class Broken:
            def predict(self, k, prev, x):
                raise RuntimeError("boom")

            def update(self, k, prev, x, y):
                pass

        ds = _tiny_dataset(2)
        with pytest.raises(ProtocolError, match="day 1, round 2"):
            run_collaboration(ds, ConstantLearner(), Broken(), 2)

    def test_begin_day_failure_carries_context(self):
        # Bob's bank is built for 3 features; the dataset has 2
        ds = _tiny_dataset(2)
        bob = ConversationWrapper(d=3, m=4, g=0.25)
        with pytest.raises(ProtocolError, match=r"day 1, round 2: feature dimension"):
            run_collaboration(ds, ConstantLearner(), bob, 2)

    def test_out_of_range_prediction_rejected(self):
        ds = _tiny_dataset(1)
        with pytest.raises(ProtocolError, match="outside"):
            run_collaboration(ds, ConstantLearner(1.5), ConstantLearner(), 2)

    def test_no_peeking_prefix_consistency(self):
        # predictions on the first half of the days do not depend on the
        # second half of the dataset
        ds = additive_linear_noise(60, seed=3, signal_a=0.3, signal_b=0.3)
        half = SequenceDataset(ds.x_a[:30], ds.x_b[:30], ds.y[:30], seed=3)

        def fresh():
            return (
                ConversationWrapper(d=3, m=5, g=0.25),
                ConversationWrapper(d=3, m=5, g=0.25),
            )

        a1, b1 = fresh()
        full = run_collaboration(ds, a1, b1, 4)
        a2, b2 = fresh()
        pref = run_collaboration(half, a2, b2, 4)
        np.testing.assert_array_equal(full.predictions[:30], pref.predictions)

    def test_routing_runs_once_per_round(self, monkeypatch):
        calls = []
        route = ConversationWrapper._slot

        def counted(self, k, prev_message):
            calls.append(k)
            return route(self, k, prev_message)

        monkeypatch.setattr(ConversationWrapper, "_slot", counted)
        ds = additive_linear_noise(50, seed=2, signal_a=0.3, signal_b=0.3)
        alice = ConversationWrapper(d=3, m=5, g=0.25)
        bob = ConversationWrapper(d=3, m=5, g=0.25, peer=alice)
        run_collaboration(ds, alice, bob, 6)
        assert len(calls) == 50 * 6
        assert {k: calls.count(k) for k in set(calls)} == {k: 50 for k in range(1, 7)}

    @pytest.mark.parametrize("kinds", [("conversation", "conversation"), ("conversation", "swap"),
                                       ("swap", "conversation")])
    def test_transcript_does_not_depend_on_begin_day(self, kinds):
        # Bob's bank is a lane of Alice's; a driver that never stages the
        # day's features gets the same bytes, with more selection passes
        class WithoutBeginDay:
            def __init__(self, inner):
                self.predict, self.update = inner.predict, inner.update

        ds = additive_linear_noise(400, seed=8, signal_a=0.4, signal_b=0.4)
        g = {"conversation": 0.25, "swap": None}
        runs = []
        for hide in (False, True):
            alice = ConversationWrapper(d=3, m=7, g=g[kinds[0]])
            bob = ConversationWrapper(d=3, m=7, g=g[kinds[1]], a=0.5, peer=alice)
            assert bob.bank._lanes is alice.bank._lanes
            sides = (WithoutBeginDay(alice), WithoutBeginDay(bob)) if hide else (alice, bob)
            text = run_collaboration(ds, *sides, 6).to_text()
            arrays = [getattr(side.bank, attr).tobytes() for side in (alice, bob)
                      for attr in ("gram", "inv", "moment", "steps")]
            runs.append((text, arrays, alice.instances, bob.instances))
        assert runs[0] == runs[1]

    def test_collaboration_beats_solo_on_additive_instance(self):
        ds = additive_linear_noise(2500, seed=5, signal_a=0.45, signal_b=0.45, noise=0.1)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, 4)
        final = sqe(tr.round_predictions(4), tr.outcomes)
        solo_a = run_solo(ds, ALICE, 3)
        solo_b = run_solo(ds, BOB, 3)
        assert final < min(solo_a, solo_b)


class TestAgreementProfile:
    def test_identical_rounds(self):
        tr = ConversationTranscript([[0.5, 0.5, 0.5]] * 4, [0.4] * 4)
        prof = agreement_profile(tr, 0.2, BucketingSpec(g=0.25, m=4))
        assert all(v == 0.0 for v in prof.fractions.values())
        assert prof.k_star == 2

    def test_adversarial_alternation(self):
        tr = ConversationTranscript([[0.0, 1.0, 0.0, 1.0]] * 3, [0.5] * 3)
        prof = agreement_profile(tr, 0.5, BucketingSpec(g=0.25, m=4))
        assert all(v == 1.0 for v in prof.fractions.values())

    def test_bound_holds_on_learner_run(self):
        ds = additive_linear_noise(2000, seed=8, signal_a=0.35, signal_b=0.35)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, 6)
        prof = agreement_profile(tr, 0.2, BucketingSpec(g=0.25, m=10))
        assert prof.fractions[prof.k_star] <= prof.bound


class TestRoundErrorProfile:
    def test_constant_transcript_flat(self):
        tr = ConversationTranscript([[0.5, 0.5, 0.5]] * 4, [0.3] * 4)
        prof = round_error_profile(tr, BucketingSpec(g=0.25, m=4))
        assert prof.max_adjacent_increase == 0.0
        assert prof.flagged_rounds == ()

    def test_exact_round_has_zero_sqe(self):
        preds = np.array([[0.5, 0.2], [0.5, 0.9]])
        tr = ConversationTranscript(preds, [0.2, 0.9])
        prof = round_error_profile(tr, BucketingSpec(g=0.5, m=2))
        assert prof.sqe_by_round[2] == 0.0

    def test_never_flags_calibrated_rounds(self):
        # per-bucket constant predictions equal to outcome means: zero
        # calibration error, so any increase is within the g·T slack
        preds = np.array([
            [0.4, 0.25], [0.4, 0.25], [0.6, 0.75], [0.6, 0.75],
        ])
        outs = np.array([0.0, 0.5, 0.5, 1.0])
        tr = ConversationTranscript(preds, outs)
        prof = round_error_profile(tr, BucketingSpec(g=0.5, m=4))
        assert prof.flagged_rounds == ()

    def test_full_run_increases_within_slack(self):
        ds = additive_linear_noise(2000, seed=13, signal_a=0.35, signal_b=0.35)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, 6)
        prof = round_error_profile(tr, BucketingSpec(g=0.25, m=10))
        assert prof.flagged_rounds == ()


class TestJointBenchmark:
    def test_constant_label(self):
        x = np.array([-0.5, 0.0, 0.5])
        ds = SequenceDataset(np.column_stack([x, np.zeros(3)]),
                             np.column_stack([-x, np.full(3, 0.1)]), np.full(3, 0.5))
        spec = LinearClassSpec(d=2, C=1.0, with_intercept=True)
        fit = joint_benchmark(ds, spec, spec)
        assert fit.error == pytest.approx(0.0, abs=1e-18)

    def test_realizable_additive(self):
        rng = np.random.default_rng(2)
        theta_a = np.array([0.3, -0.1])
        theta_b = np.array([0.2, 0.25])
        xa = rng.uniform(-0.5, 0.5, size=(40, 2))
        xb = rng.uniform(-0.5, 0.5, size=(40, 2))
        ds = SequenceDataset(xa, xb, 0.5 + xa @ theta_a + xb @ theta_b, seed=2)
        spec = LinearClassSpec(d=2, C=1.0, with_intercept=True)
        fit = joint_benchmark(ds, spec, spec)
        assert fit.error == pytest.approx(0.0, abs=1e-8)
        assert fit.converged


class TestFinalRegretReport:
    def _report_for(self, ds, tr, C=1.0, g=0.25, m=4, eps=0.2):
        d_a, d_b = ds.x_a.shape[1], ds.x_b.shape[1]
        spec_a = LinearClassSpec(d=d_a, C=C, with_intercept=True)
        spec_b = LinearClassSpec(d=d_b, C=C, with_intercept=True)
        return final_regret_report(tr, ds, spec_a, spec_b, BucketingSpec(g=g, m=m), eps)

    def test_constant_stub_report_matches_recomputation(self):
        ds = _tiny_dataset(6)
        tr = run_collaboration(ds, ConstantLearner(), ConstantLearner(),
                               2)
        rep = self._report_for(ds, tr)
        final = tr.round_predictions(2)
        assert rep.sqe == pytest.approx(sqe(final, tr.outcomes))
        assert rep.ece == pytest.approx(ece(final, tr.outcomes))
        assert rep.external_regret_joint == pytest.approx(rep.sqe - rep.joint_benchmark_error)

    def test_single_day_report(self):
        ds = _tiny_dataset(1)
        tr = run_collaboration(ds, ConstantLearner(0.4), ConstantLearner(0.6),
                               2)
        rep = self._report_for(ds, tr)
        assert rep.sqe == pytest.approx((0.6 - ds.y[0]) ** 2)
        assert rep.disagreement_fraction_by_round[(2, 0.2)] == disagreement_fraction(tr, 2, 0.2)

    def test_full_run_report_matches_recomputation(self):
        ds = additive_linear_noise(400, seed=21, signal_a=0.3, signal_b=0.3)
        alice = ConversationWrapper(d=3, m=5, g=0.25)
        bob = ConversationWrapper(d=3, m=5, g=0.25)
        tr = run_collaboration(ds, alice, bob, 4)
        rep = self._report_for(ds, tr, m=5)
        spec = LinearClassSpec(d=3, C=1.0, with_intercept=True)
        bucketing = BucketingSpec(g=0.25, m=5)
        assert rep.swap_regret_by_class["constant"] == pytest.approx(
            swap_regret(tr.round_predictions(4), tr.outcomes)
        )
        expected_csr = conversation_swap_regret(
            tr, BOB, spec, bucketing, ds.x_b
        )
        for key, v in expected_csr.items():
            assert rep.conversation_swap_regret[key] == pytest.approx(v)
        # report serializes with stable field names
        payload = rep.to_json_dict()
        for field in (
            "sqe", "ece", "swap_regret_by_class", "conversation_swap_regret",
            "disagreement_fraction_by_round", "joint_benchmark_error",
            "external_regret_joint", "slack_beta",
        ):
            assert field in payload


class TestGoldenTranscript:
    """Byte-identity of `collab run` artifacts against hashes of a reference build.

    The transcript has 73 lines with a -0.0 prediction (the grid rounding
    of a zero proposal), so a change to any rounding or selection formula
    that flips a signed zero fails here too.
    """

    TRANSCRIPT_SHA256 = "fbaaad8c48f4057aaac9b72de587dcc6f01260807d0ac4aa51e7b3c16fa5259f"
    CSV_SHA256 = "5abb37047d025ca92141c0478bd7c94d3abcfffe3d475a576cc2f9b4f1b9d8a6"
    REPORT_SHA256 = "3e3416d2e7d0e4026e2e948405b22aaecdd4fdaf67dcd07ae8d50b7575b5849a"

    @staticmethod
    def _run(tmp_path):
        learner = {"kind": "conversation", "m": 20, "g": 0.25}
        cfg = {
            "mode": "online", "seed": 3, "days": 600, "rounds": 6, "eps": 0.2,
            "dataset": {"generator": "additive-linear-noise"},
            "alice": learner, "bob": learner,
            "bucketing": {"g": 0.25, "m": 20},
            "transcript": str(tmp_path / "transcript.txt"),
            "csv": str(tmp_path / "metrics.csv"),
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0

    def test_online_run_matches_pinned_hashes(self, tmp_path):
        self._run(tmp_path)
        transcript = (tmp_path / "transcript.txt").read_bytes()
        assert sum(b"-0.0" in line.split() for line in transcript.splitlines()) == 73
        assert hashlib.sha256(transcript).hexdigest() == self.TRANSCRIPT_SHA256
        csv = (tmp_path / "metrics.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == self.CSV_SHA256

    def test_report_matches_pinned_hash(self, tmp_path):
        # every core audit on a stored transcript: ece, disagreement and the
        # per-bucket conversation swap regret of both sides
        self._run(tmp_path)
        assert main(["report", "--transcript", str(tmp_path / "transcript.txt"),
                     "--g", "0.25", "--m", "20", "--out", str(tmp_path / "report.json")]) == 0
        report = (tmp_path / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == self.REPORT_SHA256


class TestOneLanePairs:
    """Learner pairs that cannot share a bank run as one lane each.

    Two `conversation`/`swap` learners share one `RidgeBank` as two lanes
    only when their bucket counts m and feature dimensions d agree. Each
    pair here breaks that rule (different m, different d, or a `constant`
    side), so each side's bank is a lone one-lane bank. The hashes were
    taken before lanes existed. (A `vaw` side is left out: its
    `np.linalg.solve` makes the transcript depend on the OpenBLAS kernel.)
    """

    TRANSCRIPT_SHA256 = {
        "m-differs":
            "b18987c825d562b1b52a7b5f071785bf8994ba71850b137895381c9beeea9533",
        "d-differs":
            "3eac111bf0a9bec0690b0731f42f4236c85c67aec153e969902cba817d83f036",
        "constant-vs-conversation":
            "2ea68e3d7bd5156f128145f0be23e49487466db637e302ee33d31453364cfe05",
    }

    @pytest.mark.parametrize("pair", sorted(TRANSCRIPT_SHA256))
    def test_transcript_matches_pinned_hash(self, tmp_path, pair):
        conv = {"kind": "conversation", "m": 20, "g": 0.25}
        cfg = {
            "mode": "online", "seed": 4, "days": 400, "rounds": 6, "eps": 0.2,
            "dataset": {"generator": "additive-linear-noise"},
            "alice": conv, "bob": conv,
            "bucketing": {"g": 0.25, "m": 20},
            "transcript": str(tmp_path / "transcript.txt"),
        }
        if pair == "m-differs":
            cfg["alice"] = {"kind": "conversation", "m": 10, "g": 0.25}
        elif pair == "d-differs":
            data = dataset_to_json(additive_linear_noise(400, 4, d_a=1, d_b=4))
            (tmp_path / "data.json").write_text(json.dumps(data))
            cfg["dataset"] = {"path": str(tmp_path / "data.json")}
        else:
            cfg["alice"] = {"kind": "constant", "value": 0.4}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        transcript = (tmp_path / "transcript.txt").read_bytes()
        assert hashlib.sha256(transcript).hexdigest() == self.TRANSCRIPT_SHA256[pair]
