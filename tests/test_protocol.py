import hashlib
import json

import numpy as np
import pytest

from collabpred.cli import main
from collabpred.core import (
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
from collabpred.learners import BANK_KINDS, ConversationWrapper, _Lanes
from collabpred.protocol import (
    ConstantLearner,
    ProtocolError,
    final_regret_report,
    joint_benchmark,
    run_collaboration,
    run_solo,
)
from collabpred.weaklearn import LinearClassSpec


def _tiny_dataset(T=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.uniform([-0.5] * 4 + [0.0], [0.5] * 4 + [1.0], size=(T, 5))
    return SequenceDataset(rows[:, 0:2], rows[:, 2:4], rows[:, 4], seed=seed)


def _report(tr, bucketing, eps=0.2, ds=None):
    """The run report of a transcript; both feature blocks are one zero
    column unless a dataset is given."""
    if ds is None:
        ds = SequenceDataset(np.zeros((tr.T, 1)), np.zeros((tr.T, 1)), tr.outcomes)
    spec_a = LinearClassSpec(d=ds.x_a.shape[1], C=1.0)
    spec_b = LinearClassSpec(d=ds.x_b.shape[1], C=1.0)
    return final_regret_report(tr, ds, spec_a, spec_b, bucketing, eps)


class RecordingLearner:
    """Stub that answers `value` and records its calls, tagged with `side`, in `log`."""

    def __init__(self, value=0.5, side=None, log=None):
        self.value, self.side = value, side
        self.log = [] if log is None else log
        self.predict_rounds = []

    def begin_day(self, x):
        self.log.append((self.side, "begin_day", np.asarray(x).tobytes()))

    def predict(self, k, prev):
        self.log.append((self.side, "predict", k, prev))
        self.predict_rounds.append(k)
        return self.value

    def update(self, k, y):
        self.log.append((self.side, "update", k, y))


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

    def test_day_contract(self):
        # each day: both sides stage their own row, then round k gets the
        # counterparty's round-(k−1) message (None at k = 1), then every own
        # round gets the day's label once
        class Answering(RecordingLearner):
            def predict(self, k, prev):
                super().predict(k, prev)
                return (10 * len(self.predict_rounds) + k) / 1000   # differs per day and round

        ds, K = _tiny_dataset(3), 5
        log = []
        alice, bob = Answering(side="alice", log=log), Answering(side="bob", log=log)
        tr = run_collaboration(ds, alice, bob, K)
        want = []
        for t in range(ds.T):
            want += [("alice", "begin_day", ds.x_a[t].tobytes()),
                     ("bob", "begin_day", ds.x_b[t].tobytes())]
            for k in range(1, K + 1):
                want.append(("alice" if k % 2 else "bob", "predict", k,
                             None if k == 1 else tr.predictions[t, k - 2]))
            want += [("alice" if k % 2 else "bob", "update", k, ds.y[t]) for k in range(1, K + 1)]
        assert log == want
        assert len(set(tr.predictions.ravel().tolist())) == ds.T * K

    def test_learner_without_begin_day_fails_on_day_one(self):
        class NoDay:
            def predict(self, k, prev):
                return 0.5

            def update(self, k, y):
                pass

        with pytest.raises(ProtocolError, match=r"day 1, round 2: .*begin_day"):
            run_collaboration(_tiny_dataset(2), ConstantLearner(), NoDay(), 2)

    def test_learner_failure_carries_context(self):
        class Broken(ConstantLearner):
            def predict(self, k, prev):
                raise RuntimeError("boom")

        ds = _tiny_dataset(2)
        with pytest.raises(ProtocolError, match="day 1, round 2: boom"):
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
    def test_shared_bank_matches_lone_banks(self, kinds):
        # Bob's bank is a lane of Alice's, or a lone bank: the same bytes
        ds = additive_linear_noise(400, seed=8, signal_a=0.4, signal_b=0.4)
        g = {"conversation": 0.25, "swap": None}
        runs = []
        for share in (True, False):
            alice = ConversationWrapper(d=3, m=7, g=g[kinds[0]])
            bob = ConversationWrapper(d=3, m=7, g=g[kinds[1]], a=0.5, peer=alice if share else None)
            assert (bob._lanes is alice._lanes) == share
            text = run_collaboration(ds, alice, bob, 6).to_text()
            arrays = [side.experts(attr).tobytes() for side in (alice, bob)
                      for attr in ("gram", "inv", "moment", "steps")]
            runs.append((text, arrays, alice.instances, bob.instances))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bob_kind", ["vaw", "swap"])
    def test_vaw_shares_lanes_only_with_vaw(self, bob_kind):
        # a `swap` side of m = 1 has a `vaw` side's m and d but rounds its
        # forecast where `vaw` clips it: the two run as lone banks, and give
        # the bytes of two lone banks; two `vaw` sides share one bank
        ds = additive_linear_noise(400, seed=8, signal_a=0.4, signal_b=0.4)
        bob_args = BANK_KINDS["vaw"] if bob_kind == "vaw" else {"m": 1, "g": None}
        runs = []
        for share in (True, False):
            alice = ConversationWrapper(d=3, **BANK_KINDS["vaw"])
            bob = ConversationWrapper(d=3, a=0.5, peer=alice if share else None, **bob_args)
            assert (bob._lanes is alice._lanes) == (share and bob_kind == "vaw")
            runs.append(run_collaboration(ds, alice, bob, 4).to_text())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kinds", [("conversation", "conversation"), ("conversation", "swap"),
                                       ("swap", "conversation")])
    def test_transcript_does_not_depend_on_begin_day(self, kinds, monkeypatch):
        # Bob's bank is a lane of Alice's; a driver that stages each side's
        # features only at its first own round, so that one lane selects while
        # the other still holds yesterday's x, gets the same bytes, with more
        # selection passes
        class StagedAtFirstRound:
            def __init__(self, inner):
                self.inner, self.update, self.x = inner, inner.update, None

            def begin_day(self, x):
                self.x = x

            def predict(self, k, prev):
                if self.x is not None:
                    self.inner.begin_day(self.x)
                    self.x = None
                return self.inner.predict(k, prev)

        passes = []
        select = _Lanes.select
        monkeypatch.setattr(_Lanes, "select", lambda lanes: passes.append(1) or select(lanes))
        ds = additive_linear_noise(400, seed=8, signal_a=0.4, signal_b=0.4)
        g = {"conversation": 0.25, "swap": None}
        runs, counts = [], []
        for lazy in (False, True):
            passes.clear()
            alice = ConversationWrapper(d=3, m=7, g=g[kinds[0]])
            bob = ConversationWrapper(d=3, m=7, g=g[kinds[1]], a=0.5, peer=alice)
            assert bob._lanes is alice._lanes
            sides = (StagedAtFirstRound(alice), StagedAtFirstRound(bob)) if lazy else (alice, bob)
            text = run_collaboration(ds, *sides, 6).to_text()
            arrays = [side.experts(attr).tobytes() for side in (alice, bob)
                      for attr in ("gram", "inv", "moment", "steps")]
            runs.append((text, arrays, alice.instances, bob.instances))
            counts.append(len(passes))
        assert runs[0] == runs[1]
        assert counts[1] > counts[0]

    def test_collaboration_beats_solo_on_additive_instance(self):
        ds = additive_linear_noise(2500, seed=5, signal_a=0.45, signal_b=0.45, noise=0.1)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, 4)
        final = sqe(tr.round_predictions(4), tr.outcomes)
        solo_a, solo_b = run_solo(ds)
        assert final < min(solo_a, solo_b)

    @pytest.mark.parametrize("d_b", [3, 2])
    def test_solo_sqe_is_each_side_alone(self, d_b):
        # run_solo's round 1 is Alice's `vaw` learner and round 2 Bob's, as
        # two lanes of one bank when d_a = d_b: each as a lone learner gives
        # the same bits
        ds = additive_linear_noise(300, seed=3, d_a=3, d_b=d_b)
        want = []
        for xs in (ds.x_a, ds.x_b):
            lone, preds = ConversationWrapper(xs.shape[1], **BANK_KINDS["vaw"]), []
            for x, y in zip(xs, ds.y.tolist()):
                lone.begin_day(x)
                preds.append(lone.predict(1, None))
                lone.update(1, y)
            want.append(sqe(preds, ds.y))
        assert run_solo(ds) == tuple(want)


class TestAgreementProfile:
    def test_identical_rounds(self):
        tr = ConversationTranscript([[0.5, 0.5, 0.5]] * 4, [0.4] * 4)
        agreement = _report(tr, BucketingSpec(g=0.25, m=4))["agreement"]
        assert agreement["fractions"] == {"2": 0.0, "3": 0.0}
        assert agreement["k_star"] == 2

    def test_adversarial_alternation(self):
        tr = ConversationTranscript([[0.0, 1.0, 0.0, 1.0]] * 3, [0.5] * 3)
        agreement = _report(tr, BucketingSpec(g=0.25, m=4), eps=0.5)["agreement"]
        assert agreement["fractions"] == {"2": 1.0, "3": 1.0, "4": 1.0}

    def test_bound_holds_on_learner_run(self):
        ds = additive_linear_noise(2000, seed=8, signal_a=0.35, signal_b=0.35)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, 6)
        agreement = _report(tr, BucketingSpec(g=0.25, m=10), ds=ds)["agreement"]
        assert agreement["fractions"][str(agreement["k_star"])] <= agreement["bound"]


class TestRoundErrorProfile:
    def test_constant_transcript_flat(self):
        tr = ConversationTranscript([[0.5, 0.5, 0.5]] * 4, [0.3] * 4)
        errors = _report(tr, BucketingSpec(g=0.25, m=4))["round_errors"]
        assert errors["max_adjacent_increase"] == 0.0
        assert errors["flagged_rounds"] == []

    def test_exact_round_has_zero_sqe(self):
        preds = np.array([[0.5, 0.2], [0.5, 0.9]])
        tr = ConversationTranscript(preds, [0.2, 0.9])
        errors = _report(tr, BucketingSpec(g=0.5, m=2))["round_errors"]
        assert errors["sqe"]["2"] == 0.0

    def test_never_flags_calibrated_rounds(self):
        # per-bucket constant predictions equal to outcome means: zero
        # calibration error, so any increase is within the g·T slack
        preds = np.array([
            [0.4, 0.25], [0.4, 0.25], [0.6, 0.75], [0.6, 0.75],
        ])
        outs = np.array([0.0, 0.5, 0.5, 1.0])
        tr = ConversationTranscript(preds, outs)
        errors = _report(tr, BucketingSpec(g=0.5, m=4))["round_errors"]
        assert errors["flagged_rounds"] == []

    def test_full_run_increases_within_slack(self):
        ds = additive_linear_noise(2000, seed=13, signal_a=0.35, signal_b=0.35)
        alice = ConversationWrapper(d=3, m=10, g=0.25)
        bob = ConversationWrapper(d=3, m=10, g=0.25)
        tr = run_collaboration(ds, alice, bob, 6)
        errors = _report(tr, BucketingSpec(g=0.25, m=10), ds=ds)["round_errors"]
        assert errors["flagged_rounds"] == []


class TestJointBenchmark:
    def test_constant_label(self):
        x = np.array([-0.5, 0.0, 0.5])
        ds = SequenceDataset(np.column_stack([x, np.zeros(3)]),
                             np.column_stack([-x, np.full(3, 0.1)]), np.full(3, 0.5))
        spec = LinearClassSpec(d=2, C=1.0)
        fit = joint_benchmark(ds, spec, spec)
        assert fit.error == pytest.approx(0.0, abs=1e-18)

    def test_realizable_additive(self):
        rng = np.random.default_rng(2)
        theta_a = np.array([0.3, -0.1])
        theta_b = np.array([0.2, 0.25])
        xa = rng.uniform(-0.5, 0.5, size=(40, 2))
        xb = rng.uniform(-0.5, 0.5, size=(40, 2))
        ds = SequenceDataset(xa, xb, 0.5 + xa @ theta_a + xb @ theta_b, seed=2)
        spec = LinearClassSpec(d=2, C=1.0)
        fit = joint_benchmark(ds, spec, spec)
        assert fit.error == pytest.approx(0.0, abs=1e-8)
        assert fit.converged


class TestFinalRegretReport:
    def test_constant_stub_report_matches_recomputation(self):
        ds = _tiny_dataset(6)
        tr = run_collaboration(ds, ConstantLearner(), ConstantLearner(),
                               2)
        rep = _report(tr, BucketingSpec(g=0.25, m=4), ds=ds)
        final = tr.round_predictions(2)
        assert rep["sqe"] == pytest.approx(sqe(final, tr.outcomes))
        assert rep["ece"] == pytest.approx(ece(final, tr.outcomes))
        assert rep["external_regret_joint"] == pytest.approx(
            rep["sqe"] - rep["joint_benchmark_error"])

    def test_single_day_report(self):
        ds = _tiny_dataset(1)
        tr = run_collaboration(ds, ConstantLearner(0.4), ConstantLearner(0.6),
                               2)
        rep = _report(tr, BucketingSpec(g=0.25, m=4), ds=ds)
        assert rep["sqe"] == pytest.approx((0.6 - ds.y[0]) ** 2)
        assert rep["disagreement_fraction_by_round"] == {"2,0.2": disagreement_fraction(tr, 2, 0.2)}

    def test_full_run_report_matches_recomputation(self):
        ds = additive_linear_noise(400, seed=21, signal_a=0.3, signal_b=0.3)
        alice = ConversationWrapper(d=3, m=5, g=0.25)
        bob = ConversationWrapper(d=3, m=5, g=0.25)
        tr = run_collaboration(ds, alice, bob, 4)
        bucketing = BucketingSpec(g=0.25, m=5)
        rep = _report(tr, bucketing, ds=ds)
        spec = LinearClassSpec(d=3, C=1.0)
        assert rep["swap_regret_by_class"]["constant"] == pytest.approx(
            swap_regret(tr.round_predictions(4), tr.outcomes)
        )
        expected_csr = conversation_swap_regret(tr, BOB, bucketing, [(spec, ds.x_b)])
        for (k, i), v in expected_csr.items():
            assert rep["conversation_swap_regret"][f"{k},{i}"] == pytest.approx(v)
        # the report is the report.json payload, with stable field names
        assert set(rep) == {
            "sqe", "ece", "swap_regret_by_class", "conversation_swap_regret",
            "disagreement_fraction_by_round", "joint_benchmark_error",
            "external_regret_joint", "slack_beta", "extras", "agreement", "round_errors",
        }
        assert rep["agreement"]["beta_hat"] == rep["slack_beta"]


@pytest.mark.datagen_bytes
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
    def _config(tmp_path):
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
        return str(tmp_path / "cfg.json")

    def _run(self, tmp_path):
        assert main(["run", "--config", self._config(tmp_path)]) == 0

    def _check(self, tmp_path):
        transcript = (tmp_path / "transcript.txt").read_bytes()
        assert sum(b"-0.0" in line.split() for line in transcript.splitlines()) == 73
        assert hashlib.sha256(transcript).hexdigest() == self.TRANSCRIPT_SHA256
        csv = (tmp_path / "metrics.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == self.CSV_SHA256

    def test_online_run_matches_pinned_hashes(self, tmp_path):
        self._run(tmp_path)
        self._check(tmp_path)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, python, threads):
        proc = python("-m", "collabpred.cli", "run", "--config", self._config(tmp_path),
                      OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        self._check(tmp_path)

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

    Two bank learners share one expert pool as two lanes only when their
    bucket counts m, feature dimensions d and forecast modes agree. Each
    pair here breaks that rule (different m, different d, a `constant`
    side, or a `vaw` side, whose one expert clips its forecast where a
    `conversation` side rounds it), so each side's bank is a lone one-lane
    bank. The `vaw` hash was taken when the bank's products stopped calling
    BLAS (a clipped forecast carries their last bits), the others before
    lanes existed.
    """

    TRANSCRIPT_SHA256 = {
        "m-differs":
            "b18987c825d562b1b52a7b5f071785bf8994ba71850b137895381c9beeea9533",
        "d-differs":
            "3eac111bf0a9bec0690b0731f42f4236c85c67aec153e969902cba817d83f036",
        "constant-vs-conversation":
            "2ea68e3d7bd5156f128145f0be23e49487466db637e302ee33d31453364cfe05",
        "vaw-vs-conversation":
            "8a84a10a67128ccd07e3d1562e50e7b0abf9af762cc5783e22a5b10d8ba4473e",
    }

    @pytest.mark.datagen_bytes
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
        elif pair == "vaw-vs-conversation":
            cfg["bob"] = {"kind": "vaw"}
        else:
            cfg["alice"] = {"kind": "constant", "value": 0.4}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        transcript = (tmp_path / "transcript.txt").read_bytes()
        assert hashlib.sha256(transcript).hexdigest() == self.TRANSCRIPT_SHA256[pair]
