import itertools
import json

import numpy as np
import pytest

from collabpred.batch import (
    BatchModelTranscript,
    BatchSample,
    LinearModel,
    LsqOracle,
    collaborate,
    cross_boost,
    eval_test_points,
    final_swap_regret,
    internal_boost,
    replay_rounds,
)
from collabpred.core import GRID_MAX
from collabpred.core import grid_index, round_to_grid
from collabpred.datagen import additive_batch_sample
from collabpred.weaklearn import LinearClassSpec


def _oracle(d, C=1.0):
    return LsqOracle(LinearClassSpec(d=d, C=C))


class TestRoundFn:
    def test_nearest(self):
        assert round_to_grid(0.26, 4) == 0.25

    def test_tie_down(self):
        assert round_to_grid(0.125, 4) == 0.0

    def test_clip_then_round(self):
        assert round_to_grid(1.2, 10) == 1.0


class TestInternalBoost:
    def test_constant_labels_halt_immediately(self):
        x = np.array([[0.1], [0.2], [-0.3], [0.4]])
        y = np.full(4, 0.6)
        idx, transcript = internal_boost(x, y, _oracle(1), m=4)
        assert transcript.phases == []
        np.testing.assert_allclose(idx / 16, 0.625, atol=1 / 16)

    def test_realizable_scalar_error_within_rounding(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.9, 0.9, size=(50, 1))
        y = np.clip(0.5 + 0.4 * x[:, 0], 0, 1)
        m = 4
        idx, transcript = internal_boost(x, y, _oracle(1), m=m)
        err = float(np.mean((idx / (m * m) - y) ** 2))
        assert err <= 3.0 / (4 * m * m)
        assert len(transcript.phases) <= 1

    def test_phase_cap_respected(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.9, 0.9, size=(60, 2))
        y = rng.uniform(size=60)
        m = 3
        _idx, transcript = internal_boost(x, y, _oracle(2), m=m)
        assert len(transcript.phases) <= m * m

    def test_swap_regret_bound_on_view(self):
        # the output model's swap regret against the player's own class on
        # its view is at most 2/m², recomputed with brute-force level fits
        rng = np.random.default_rng(2)
        m = 4
        for _ in range(5):
            x = rng.uniform(-0.9, 0.9, size=(80, 1))
            y = np.clip(0.5 + 0.3 * x[:, 0] + 0.2 * rng.standard_normal(80), 0, 1)
            idx, _t = internal_boost(x, y, _oracle(1), m=m)
            vals = idx / (m * m)
            total = float(np.mean((vals - y) ** 2))
            bench = 0.0
            for v in np.unique(vals):
                mask = vals == v
                Z = np.hstack([x[mask], np.ones((mask.sum(), 1))])
                sol, *_ = np.linalg.lstsq(Z, y[mask], rcond=None)
                bench += float(np.sum((Z @ sol - y[mask]) ** 2))
            assert total - bench / len(y) <= 2.0 / (m * m) + 1e-9


class TestCrossBoost:
    def test_optimal_counterparty_all_deferred(self):
        rng = np.random.default_rng(3)
        m = 5
        x = rng.uniform(-0.9, 0.9, size=(40, 1))
        other = np.array([round(v * m) for v in rng.uniform(size=40)])
        y = other / m  # the counterparty's prediction is already exact
        new_idx, levels = cross_boost(x, y, other, _oracle(1), m)
        assert all(entry is None for entry in levels.values())
        np.testing.assert_array_equal(new_idx, other)

    def test_single_improvable_level_set(self):
        m = 4
        # level 2 (value 0.5) hides a strong linear signal; level 0 is exact
        x = np.concatenate([np.linspace(-0.9, 0.9, 20), np.zeros(10)])[:, None]
        other = np.concatenate([np.full(20, 2), np.zeros(10, dtype=int)]).astype(int)
        y = np.concatenate([np.clip(0.5 + 0.5 * x[:20, 0], 0, 1), np.zeros(10)])
        new_idx, levels = cross_boost(x, y, other, _oracle(1), m)
        kept = [v for v, entry in levels.items() if entry is not None]
        assert kept == [2]


class TestCollaborate:
    def test_bob_realizable_halts_immediately(self):
        # the label depends only on Bob's features: his initial fit is
        # already optimal and Alice defers everywhere
        rng = np.random.default_rng(4)
        n = 200
        xb = rng.uniform(-0.9, 0.9, size=(n, 1))
        xa = rng.uniform(-0.9, 0.9, size=(n, 1))
        y = np.clip(0.5 + 0.45 * xb[:, 0], 0, 1)
        sample = BatchSample(x_a=xa, x_b=xb, y=y)
        result = collaborate(sample, _oracle(1), _oracle(1), m=10)
        assert result.rounds == 1
        alice_levels = result.transcript_a.rounds[1]
        assert all(entry is None for entry in alice_levels.values())

    def test_product_instance_low_swap_regret_high_error(self):
        # y = (x_a·x_b + 1)/2 on ±1 signs: neither side can improve any
        # level set, so the run halts with high error but small swap regret
        atoms = [(-1, -1), (-1, 1), (1, -1), (1, 1)] * 25
        xa = np.array([[a] for a, _b in atoms], dtype=float)
        xb = np.array([[b] for _a, b in atoms], dtype=float)
        y = np.array([(a * b + 1) / 2 for a, b in atoms], dtype=float)
        sample = BatchSample(x_a=xa, x_b=xb, y=y)
        m = 10
        result = collaborate(sample, _oracle(1), _oracle(1), m=m)
        spec = LinearClassSpec(d=1, C=1.0)
        regret = final_swap_regret(result.final_values, sample, spec, spec)
        err = float(np.mean((result.final_values - y) ** 2))
        assert regret <= 3.0 / m + 1e-9
        assert err >= 0.2  # the joint signal is invisible to additive models

    def test_additive_instance_converges_and_agrees(self):
        sample = additive_batch_sample(400, seed=5)
        m = 10
        spec = LinearClassSpec(d=sample.x_a.shape[1], C=1.0)
        result = collaborate(sample, LsqOracle(spec), LsqOracle(spec), m=m)
        assert result.rounds <= m * m
        # agreement at halt: the last two prediction rounds coincide
        np.testing.assert_array_equal(result.indices[:, -1], result.indices[:, -2])
        assert final_swap_regret(result.final_values, sample, spec, spec) <= 3.0 / m

    def test_train_error_monotone_up_to_slack(self):
        sample = additive_batch_sample(300, seed=6)
        m = 8
        result = collaborate(sample, _oracle(sample.x_a.shape[1]),
                             _oracle(sample.x_b.shape[1]), m=m)
        errs = [float(np.mean((col / m - sample.y) ** 2)) for col in result.indices.T]
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= prev + 1.0 / (m * m) + 1e-12


class TestReplay:
    def test_training_rows_reproduce_exactly(self):
        sample = additive_batch_sample(250, seed=7)
        result = collaborate(sample, _oracle(sample.x_a.shape[1]),
                             _oracle(sample.x_b.shape[1]), m=6)
        replayed = eval_test_points(sample, result.transcript_a, result.transcript_b)
        np.testing.assert_array_equal(replayed, result.final_values)

    def test_every_round_reproduces_exactly(self):
        # the transcript replays the whole exchange, not just its last round
        sample = additive_batch_sample(150, seed=14)
        result = collaborate(sample, _oracle(sample.x_a.shape[1]),
                             _oracle(sample.x_b.shape[1]), m=6)
        replayed = replay_rounds(sample, result.transcript_a, result.transcript_b)
        assert replayed.shape == (sample.n, result.rounds + 1)
        np.testing.assert_array_equal(replayed, result.indices / 6)

    def test_feature_layout_does_not_change_replay(self):
        # a dot product over a strided row may sum in another order than over
        # a contiguous one; these rows sum to 0.25, a rounding boundary of the
        # 1/2 grid, in some orders and to the next double above in others
        rows = np.array(sorted(set(itertools.permutations([0.25, 2.0**-55, 2.0**-55, 0.0]))))
        tb = BatchModelTranscript(side="bob", m=2, initial=LinearModel(np.ones(4), 0.0))
        ta = BatchModelTranscript(side="alice", m=2)
        zeros = np.zeros((len(rows), 1))
        want = replay_rounds(BatchSample(x_a=zeros, x_b=rows, y=zeros[:, 0]), ta, tb)
        assert set(want[:, 0].tolist()) == {0.0, 0.5}
        fortran = BatchSample(x_a=zeros, x_b=np.asfortranarray(rows), y=zeros[:, 0])
        np.testing.assert_array_equal(replay_rounds(fortran, ta, tb), want)
        for i, x in enumerate(rows):
            one = BatchSample(x_a=zeros[:1], x_b=x, y=zeros[0])
            np.testing.assert_array_equal(replay_rounds(one, ta, tb), want[i:i + 1])

    def test_pass_through_keeps_the_index(self):
        # a boosting phase passes a level set without a model through as
        # idx/m², which must round back to idx on the 1/m² grid, up to the
        # largest grid size a config may give (every m up to it was checked)
        for m in (*range(1, 200), GRID_MAX):
            j = np.arange(m * m + 1)
            np.testing.assert_array_equal(grid_index(j / (m * m), m * m), j, err_msg=f"m={m}")

    def test_all_deferred_returns_initial_fit(self):
        rng = np.random.default_rng(8)
        n = 100
        xb = rng.uniform(-0.9, 0.9, size=(n, 1))
        xa = rng.uniform(-0.9, 0.9, size=(n, 1))
        y = np.clip(0.5 + 0.45 * xb[:, 0], 0, 1)
        sample = BatchSample(x_a=xa, x_b=xb, y=y)
        result = collaborate(sample, _oracle(1), _oracle(1), m=10)
        replayed = eval_test_points(sample, result.transcript_a, result.transcript_b)
        p0 = result.indices[:, 0] / 10
        np.testing.assert_array_equal(replayed, p0)

    def test_json_roundtrip_preserves_replay(self, tmp_path):
        sample = additive_batch_sample(200, seed=9)
        result = collaborate(sample, _oracle(sample.x_a.shape[1]),
                             _oracle(sample.x_b.shape[1]), m=6)
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pa.write_text(result.transcript_a.to_text())
        pb.write_text(result.transcript_b.to_text())
        ta = BatchModelTranscript.load(pa)
        tb = BatchModelTranscript.load(pb)
        direct = eval_test_points(sample, result.transcript_a, result.transcript_b)
        loaded = eval_test_points(sample, ta, tb)
        np.testing.assert_array_equal(direct, loaded)

    def test_fresh_points_generalize(self):
        train = additive_batch_sample(5000, seed=10)
        test = additive_batch_sample(5000, seed=11)
        result = collaborate(train, _oracle(train.x_a.shape[1]),
                             _oracle(train.x_b.shape[1]), m=10)
        train_err = float(np.mean((result.final_values - train.y) ** 2))
        preds = eval_test_points(test, result.transcript_a, result.transcript_b)
        test_err = float(np.mean((preds - test.y) ** 2))
        assert test_err <= 2.0 * train_err + 0.05

    def test_sample_json_roundtrip(self):
        sample = additive_batch_sample(20, seed=12)
        back = BatchSample.from_json_dict(
            json.loads(json.dumps(sample.to_json_dict()))
        )
        np.testing.assert_array_equal(back.x_a, sample.x_a)
        np.testing.assert_array_equal(back.y, sample.y)

    def test_sample_owns_read_only_arrays(self):
        # writing into the caller's arrays afterwards leaves the sample as it was
        xa, xb, y = np.full((3, 2), 0.25), np.full((3, 1), -0.5), np.full(3, 0.75)
        sample = BatchSample(x_a=xa, x_b=xb, y=y)
        xa[0, 0], xb[1, 0], y[2] = 5.0, 5.0, 5.0
        assert sample.x_a[0, 0] == 0.25 and sample.x_b[1, 0] == -0.5 and sample.y[2] == 0.75
        for arr in (sample.x_a, sample.x_b, sample.y):
            assert not arr.flags.writeable and arr.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
