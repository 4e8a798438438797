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
    LabeledExample,
    SequenceDataset,
    conversation_swap_regret,
    disagreement_fraction,
    ece,
    sqe,
    swap_regret,
)
from collabpred.datagen import additive_linear_noise
from collabpred.learners import ConversationWrapper, LinearClassSpec
from collabpred.protocol import (
    ConstantLearner,
    ProtocolConfig,
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
    exs = tuple(
        LabeledExample(
            x_a=rng.uniform(-0.5, 0.5, size=2),
            x_b=rng.uniform(-0.5, 0.5, size=2),
            y=float(rng.uniform()),
        )
        for _ in range(T)
    )
    return SequenceDataset(examples=exs, seed=seed)


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
        tr = run_collaboration(ds, ConstantLearner(0.5), ConstantLearner(0.5),
                               ProtocolConfig(K=2, eps=0.2))
        assert np.all(tr.predictions == 0.5)
        assert tr.T == 5 and tr.K == 2

    def test_single_day_alternation(self):
        ds = _tiny_dataset(1)
        alice = RecordingLearner(0.3)
        bob = RecordingLearner(0.7)
        tr = run_collaboration(ds, alice, bob, ProtocolConfig(K=4, eps=0.2))
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
            run_collaboration(ds, ConstantLearner(), Broken(), ProtocolConfig(K=2, eps=0.2))

    def test_out_of_range_prediction_rejected(self):
        ds = _tiny_dataset(1)
        with pytest.raises(ProtocolError, match="outside"):
            run_collaboration(ds, ConstantLearner(1.5), ConstantLearner(),
                              ProtocolConfig(K=2, eps=0.2))

    def test_no_peeking_prefix_consistency(self):
        # predictions on the first half of the days do not depend on the
        # second half of the dataset
        ds = additive_linear_noise(60, seed=3, signal_a=0.3, signal_b=0.3)
        half = SequenceDataset(examples=ds.examples[:30], seed=3)

        def fresh():
            return (
                ConversationWrapper(d=3, m=5, g=0.25),
                ConversationWrapper(d=3, m=5, g=0.25),
            )

        cfg = ProtocolConfig(K=4, eps=0.2)
        a1, b1 = fresh()
        full = run_collaboration(ds, a1, b1, cfg)
        a2, b2 = fresh()
        pref = run_collaboration(half, a2, b2, cfg)
        np.testing.assert_array_equal(full.predictions[:30], pref.predictions)

    def test_collaboration_beats_solo_on_additive_instance(self):
        ds = additive_linear_noise(2500, seed=5, signal_a=0.45, signal_b=0.45, noise=0.1)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, ProtocolConfig(K=4, eps=0.2))
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
        tr = run_collaboration(ds, alice, bob, ProtocolConfig(K=6, eps=0.2))
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
        tr = run_collaboration(ds, alice, bob, ProtocolConfig(K=6, eps=0.2))
        prof = round_error_profile(tr, BucketingSpec(g=0.25, m=10))
        assert prof.flagged_rounds == ()


class TestJointBenchmark:
    def test_constant_label(self):
        exs = tuple(
            LabeledExample(np.array([x, 0.0]), np.array([-x, 0.1]), 0.5)
            for x in (-0.5, 0.0, 0.5)
        )
        ds = SequenceDataset(examples=exs, seed=0)
        spec = LinearClassSpec(d=2, C=1.0, with_intercept=True)
        fit = joint_benchmark(ds, spec, spec)
        assert fit.error == pytest.approx(0.0, abs=1e-18)

    def test_realizable_additive(self):
        rng = np.random.default_rng(2)
        theta_a = np.array([0.3, -0.1])
        theta_b = np.array([0.2, 0.25])
        exs = []
        for _ in range(40):
            xa = rng.uniform(-0.5, 0.5, size=2)
            xb = rng.uniform(-0.5, 0.5, size=2)
            exs.append(LabeledExample(xa, xb, float(0.5 + xa @ theta_a + xb @ theta_b)))
        ds = SequenceDataset(examples=tuple(exs), seed=2)
        spec = LinearClassSpec(d=2, C=1.0, with_intercept=True)
        fit = joint_benchmark(ds, spec, spec)
        assert fit.error == pytest.approx(0.0, abs=1e-8)
        assert fit.converged


class TestFinalRegretReport:
    def _report_for(self, ds, tr, C=1.0, g=0.25, m=4, eps=0.2):
        d_a = ds.examples[0].x_a.shape[0]
        d_b = ds.examples[0].x_b.shape[0]
        spec_a = LinearClassSpec(d=d_a, C=C, with_intercept=True)
        spec_b = LinearClassSpec(d=d_b, C=C, with_intercept=True)
        return final_regret_report(tr, ds, spec_a, spec_b, BucketingSpec(g=g, m=m), eps)

    def test_constant_stub_report_matches_recomputation(self):
        ds = _tiny_dataset(6)
        tr = run_collaboration(ds, ConstantLearner(), ConstantLearner(),
                               ProtocolConfig(K=2, eps=0.2))
        rep = self._report_for(ds, tr)
        final = tr.round_predictions(2)
        assert rep.sqe == pytest.approx(sqe(final, tr.outcomes))
        assert rep.ece == pytest.approx(ece(final, tr.outcomes))
        assert rep.external_regret_joint == pytest.approx(rep.sqe - rep.joint_benchmark_error)

    def test_single_day_report(self):
        ds = _tiny_dataset(1)
        tr = run_collaboration(ds, ConstantLearner(0.4), ConstantLearner(0.6),
                               ProtocolConfig(K=2, eps=0.2))
        rep = self._report_for(ds, tr)
        assert rep.sqe == pytest.approx((0.6 - float(ds.examples[0].y)) ** 2)
        assert rep.disagreement_fraction_by_round[(2, 0.2)] == disagreement_fraction(tr, 2, 0.2)

    def test_full_run_report_matches_recomputation(self):
        ds = additive_linear_noise(400, seed=21, signal_a=0.3, signal_b=0.3)
        alice = ConversationWrapper(d=3, m=5, g=0.25)
        bob = ConversationWrapper(d=3, m=5, g=0.25)
        tr = run_collaboration(ds, alice, bob, ProtocolConfig(K=4, eps=0.2))
        rep = self._report_for(ds, tr, m=5)
        spec = LinearClassSpec(d=3, C=1.0, with_intercept=True)
        bucketing = BucketingSpec(g=0.25, m=5)
        assert rep.swap_regret_by_class["constant"] == pytest.approx(
            swap_regret(tr.round_predictions(4), tr.outcomes)
        )
        expected_csr = conversation_swap_regret(
            tr, BOB, spec, bucketing, ds.features_b()
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
