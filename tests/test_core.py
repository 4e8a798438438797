import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabpred.batch import BatchSample
from collabpred.bayes import PriorTable
from collabpred.cli import main
from collabpred.core import (
    ALICE,
    BOB,
    BucketingSpec,
    ConversationTranscript,
    SequenceDataset,
    _bucket,
    conversation_calibration_error,
    conversation_swap_regret,
    disagreement_fraction,
    ece,
    examples_from_json,
    grid_index,
    own_rounds,
    read_examples,
    round_to_grid,
    sqe,
    swap_regret,
)
from collabpred.decisions import DecisionTask, DecisionTranscript
from collabpred.protocol import ConstantLearner, run_collaboration
from collabpred.weaklearn import FiniteDistribution, LinearClassSpec


class TestDomainTypes:
    def test_example_rejects_oversized_features(self):
        with pytest.raises(ValueError, match="^day 2: ‖x_a‖₂ = 1.41421 exceeds 1$"):
            SequenceDataset([[0.0, 0.0], [1.0, 1.0]], [[0.0], [0.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="^day 1: ‖x_b‖₂ = 1.13137 exceeds 1$"):
            SequenceDataset([[0.0]], [[0.8, 0.8]], [0.5])
        with pytest.raises(ValueError, match="^day 1: ‖x_a‖₂ = nan exceeds 1$"):
            SequenceDataset([[np.nan]], [[0.0]], [0.5])

    def test_example_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match=r"^day 1: label y = 1.5 outside \[0,1\]$"):
            SequenceDataset([[0.1]], [[0.1]], [1.5])
        with pytest.raises(ValueError, match=r"^day 2: label y = \[0.5, -0.1\] outside"):
            SequenceDataset([[0.1], [0.1]], [[0.1], [0.1]], [[0.5, 0.5], [0.5, -0.1]])
        with pytest.raises(ValueError, match="outside"):
            SequenceDataset([[0.1]], [[0.1]], [np.nan])

    def test_vector_labels_accepted(self):
        ds = SequenceDataset([[0.1]], [[0.1]], [[0.2, 1.0]])
        assert ds.y.shape == (1, 2)

    def test_dataset_immutable_and_sized(self):
        x_a = np.full((3, 1), 0.1)
        ds = SequenceDataset(x_a, np.full((3, 1), 0.2), np.full(3, 0.3), seed=5)
        assert ds.T == len(ds) == 3
        with pytest.raises(AttributeError):
            ds.seed = 9
        with pytest.raises(ValueError, match="read-only"):
            ds.x_a[0, 0] = 0.9
        x_a[0, 0] = 0.9  # the dataset holds its own copy
        assert ds.x_a[0, 0] == 0.1

    def test_dataset_shapes_checked(self):
        with pytest.raises(ValueError, match="at least one example"):
            SequenceDataset(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError, match="^rows misaligned: x_a 2, x_b 1, y 2$"):
            SequenceDataset(np.zeros((2, 1)), np.zeros((1, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="expected x_a"):
            SequenceDataset(np.zeros(2), np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="expected x_a"):
            SequenceDataset(np.zeros((2, 1)), np.zeros((2, 1)), 0.5)

    def test_rows_are_c_contiguous(self):
        # the online learners key their memo on a row's bytes
        x = np.asfortranarray(np.full((4, 3), 0.1))
        ds = SequenceDataset(x, x, np.full(4, 0.5))
        assert ds.x_a.flags.c_contiguous and ds.x_a[2].flags.c_contiguous

    def test_transcript_parity_and_bounds(self):
        tr = ConversationTranscript([[0.1, 0.2], [0.3, 0.4]], [0.0, 1.0])
        assert list(own_rounds(ALICE, tr.K)) == [1]
        assert list(own_rounds(BOB, tr.K)) == [2]
        with pytest.raises(ValueError, match="unknown side 'carol'"):
            own_rounds("carol", tr.K)
        with pytest.raises(ValueError):
            ConversationTranscript([[1.2, 0.2]], [0.5])

    def test_transcript_text_roundtrip(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(size=(5, 3))
        outs = rng.uniform(size=5)
        tr = ConversationTranscript(preds, outs)
        back = ConversationTranscript.from_text(tr.to_text())
        np.testing.assert_array_equal(back.predictions, tr.predictions)
        np.testing.assert_array_equal(back.outcomes, tr.outcomes)

    def test_bucketing_spec_validation(self):
        for g in (0.3, 0, 1 / 2001):
            with pytest.raises(ValueError, match=r"^g must be a bucket width 1/n, n a whole "
                                                 r"number in \[1,2000\], found "):
                BucketingSpec(g=g, m=10)
        assert BucketingSpec(g=1 / 2000, m=10).n_buckets == 2000
        spec = BucketingSpec(g=0.25, m=4)
        assert spec.n_buckets == 4
        assert spec.bucket_ids([0.0, 0.25, 1.0]).tolist() == [1, 2, 4]

    def test_bucket_membership_agrees_with_routing(self):
        # the metric-side masks and the learner-side index must never
        # disagree, including at floating-point bucket boundaries
        rng = np.random.default_rng(7)
        for g in (0.1, 0.2, 0.25, 0.05):
            spec = BucketingSpec(g=g, m=10)
            boundary = np.arange(spec.n_buckets + 1) * g
            values = np.concatenate([rng.uniform(size=200), boundary,
                                     np.nextafter(boundary, 0.0)])
            values = np.clip(values, 0.0, 1.0)
            for i in range(1, spec.n_buckets + 1):
                mask = spec.bucket_ids(values) == i
                expect = np.array([_bucket(float(v), spec.n_buckets) == i for v in values])
                np.testing.assert_array_equal(mask, expect)

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_grid_message_on_an_edge_opens_its_bucket(self, n):
        # grid value j/n sits on the lower edge of bucket j + 1 = [j/n, (j+1)/n);
        # 1 belongs to the last bucket, which is closed at 1
        spec = BucketingSpec(g=1.0 / n, m=n)
        grid = round_to_grid(np.linspace(0.0, 1.0, n + 1), n)
        want = [min(j + 1, n) for j in range(n + 1)]
        assert [_bucket(v, n) for v in grid.tolist()] == want
        assert spec.bucket_ids(grid).tolist() == want


class TestOwnership:
    """A value type never freezes or aliases its caller's arrays."""

    TYPES = {
        "prior": (lambda a: PriorTable((0, 1), (0, 1), a["y"], a["p"]), ("y", "p")),
        "transcript": (lambda a: ConversationTranscript(a["grid"], a["y"]),
                       ("predictions", "outcomes")),
        "distribution": (lambda a: FiniteDistribution(a["col"], a["col2"], a["y"], a["p"]),
                         ("xa", "xb", "y", "p")),
        "decision": (lambda a: DecisionTranscript(
            a["cube"], a["acts"], a["grid"], DecisionTask.from_matrix([[1, 0], [0, 1]])),
            ("predictions", "actions", "outcomes")),
    }

    @staticmethod
    def _arrays():
        return {"y": np.array([0.0, 1.0]), "p": np.array([0.5, 0.5]),
                "grid": np.array([[0.25, 0.5], [0.75, 1.0]]),
                "col": np.array([[0.1], [0.2]]), "col2": np.array([[0.3], [0.4]]),
                "cube": np.full((2, 2, 2), 0.5), "acts": np.array([[0, 1], [1, 0]])}

    @pytest.mark.parametrize("kind", list(TYPES))
    def test_caller_arrays_stay_writable_and_apart(self, kind):
        build, fields = self.TYPES[kind]
        arrays = self._arrays()
        before = {k: v.copy() for k, v in arrays.items()}
        obj = build(arrays)
        kept = {f: getattr(obj, f).copy() for f in fields}
        for name, arr in arrays.items():
            assert arr.flags.writeable, name
            np.testing.assert_array_equal(arr, before[name])
            assert not any(np.shares_memory(arr, getattr(obj, f)) for f in fields), name
            arr[...] = 0
        for f in fields:
            assert not getattr(obj, f).flags.writeable, f
            np.testing.assert_array_equal(getattr(obj, f), kept[f])

    def test_read_only_arrays_are_kept_and_read_only_views_copied(self):
        y = np.array([0.0, 1.0])
        y.setflags(write=False)
        grid = np.array([[0.25, 0.5], [0.75, 1.0]])
        view = grid.view()
        view.setflags(write=False)
        tr = ConversationTranscript(view, y)
        assert tr.outcomes is y
        assert not np.shares_memory(tr.predictions, grid)

    def test_drivers_hand_over_arrays_without_a_copy(self):
        ds = SequenceDataset([[0.1], [0.2]], [[0.3], [0.4]], [0.5, 0.6])
        tr = run_collaboration(ds, ConstantLearner(), ConstantLearner(), 2)
        assert tr.outcomes is ds.y and tr.predictions.base is None
        assert ConversationTranscript.from_text(tr.to_text()).predictions.base is None


class TestGrid:
    def test_round_nearest(self):
        assert round_to_grid(0.26, 4) == 0.25
        assert round_to_grid(0.24, 4) == 0.25
        assert round_to_grid(0.6, 4) == 0.5

    def test_tie_rounds_down(self):
        assert round_to_grid(0.125, 4) == 0.0
        assert round_to_grid(0.375, 4) == 0.25

    def test_clip_then_round(self):
        assert round_to_grid(1.2, 10) == 1.0
        assert round_to_grid(-0.3, 10) == 0.0

    def test_grid_index_matches_value(self):
        rng = np.random.default_rng(1)
        for v in rng.uniform(-0.2, 1.2, size=200):
            for m in (1, 4, 10, 20):
                assert grid_index(v, m) / m == round_to_grid(v, m)

    def test_nan_rejected_as_scalar_and_array(self):
        for value in (float("nan"), np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="NaN"):
                grid_index(value, 4)


class TestSqe:
    def test_identity_case(self):
        assert sqe([0.5], [0.5]) == 0.0

    def test_arithmetic(self):
        assert sqe([1, 0], [0, 1]) == 2.0
        assert sqe([0.25, 0.75], [0, 1]) == pytest.approx(0.125)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sqe([0.5, 0.5], [0.5])


class TestEce:
    def test_bias_cancels(self):
        assert ece([0.5, 0.5], [0, 1]) == 0.0

    def test_full_bias(self):
        assert ece([1, 1], [0, 0]) == 2.0

    def test_per_value_sum(self):
        assert ece([0.5, 0.5, 1.0], [1, 1, 1]) == pytest.approx(1.0)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = round_to_grid(rng.uniform(size=30), 5)
            y = rng.uniform(size=30)
            assert ece(p, y) >= 0.0
            assert sqe(p, y) >= 0.0

    def test_zero_when_level_means_match(self):
        # predictions equal to exact level-set means are perfectly calibrated
        p = np.array([0.25, 0.25, 0.75, 0.75])
        y = np.array([0.0, 0.5, 0.5, 1.0])
        assert ece(p, y) == pytest.approx(0.0)


def _brute_force_linear_min(x, y, slopes, intercepts):
    best = np.inf
    for s in slopes:
        for b in intercepts:
            err = float(np.sum((s * x + b - y) ** 2))
            best = min(best, err)
    return best


class TestSwapRegret:
    def test_constant_class_per_level_means(self):
        preds = [0, 0, 1, 1]
        outs = [1, 1, 0, 0]
        assert swap_regret(preds, outs) == pytest.approx(4.0)

    def test_calibrated_sequence_zero(self):
        preds = [0.25, 0.25, 0.8, 0.8, 0.8]
        outs = [0.0, 0.5, 0.8, 0.7, 0.9]
        assert swap_regret(preds, outs) == pytest.approx(0.0, abs=1e-12)

    def test_linear_class_realizable(self):
        # all-0.5 predictions against y = x on scalar inputs: the exact fit
        # attains zero, confirmed first by a brute-force grid oracle
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = x.copy()
        grid_min = _brute_force_linear_min(
            x, y, np.linspace(-1, 1, 201), np.linspace(-1, 1, 201)
        )
        assert grid_min == pytest.approx(0.0, abs=1e-12)
        spec = LinearClassSpec(d=1, C=1.0)
        got = swap_regret(np.full(4, 0.5), y, x, spec)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_unsupported_class_kind(self):
        with pytest.raises(ValueError):
            swap_regret([0.5], [0.5], benchmark="quadratic")

    def test_constant_class_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = round_to_grid(rng.uniform(size=40), 8)
            y = rng.uniform(size=40)
            assert swap_regret(p, y) >= -1e-12

    def test_linear_benchmark_at_least_as_strong_as_constants(self):
        # the solver's per-level fit must never lose to the best constant,
        # so the swap regret against the linear class dominates
        rng = np.random.default_rng(4)
        spec = LinearClassSpec(d=2, C=1.0)
        for _ in range(25):
            x = rng.uniform(-0.7, 0.7, size=(30, 2))
            y = rng.uniform(size=30)
            p = round_to_grid(rng.uniform(size=30), 4)
            sr_const = swap_regret(p, y)
            sr_lin = swap_regret(p, y, x, spec)
            assert sr_lin >= sr_const - 1e-9


class TestConversationMetrics:
    def test_calibrated_per_bucket_zero(self):
        # Alice constant 0.3 (one bucket); Bob's round-2 values equal the
        # level-set outcome means
        preds = np.array([
            [0.3, 0.2], [0.3, 0.2], [0.3, 0.8], [0.3, 0.8],
        ])
        outs = np.array([0.1, 0.3, 0.7, 0.9])
        tr = ConversationTranscript(preds, outs)
        spec = BucketingSpec(g=0.25, m=4)
        entries = conversation_swap_regret(tr, BOB, "constant", spec)
        assert all(abs(v) < 1e-12 for v in entries.values())
        cal = conversation_calibration_error(tr, BOB, spec)
        assert all(abs(v) < 1e-12 for v in cal.values())

    def test_single_day_best_fit_is_exact(self):
        # constants contain the realized outcome, so the benchmark term is 0
        # and the entry is just the squared miss
        tr = ConversationTranscript([[0.4, 0.9]], [0.7])
        spec = BucketingSpec(g=0.5, m=2)
        entries = conversation_swap_regret(tr, BOB, "constant", spec)
        assert entries[(2, 1)] == pytest.approx((0.9 - 0.7) ** 2)
        assert entries[(2, 2)] == 0.0

    def test_empty_bucket_contributes_zero(self):
        tr = ConversationTranscript([[0.1, 0.2], [0.1, 0.4]], [0.2, 0.4])
        spec = BucketingSpec(g=0.5, m=2)
        entries = conversation_swap_regret(tr, BOB, "constant", spec)
        assert entries[(2, 2)] == 0.0

    def test_one_biased_bucket(self):
        preds = np.array([[0.3, 1.0], [0.3, 1.0]])
        outs = np.array([0.0, 0.0])
        tr = ConversationTranscript(preds, outs)
        spec = BucketingSpec(g=0.5, m=2)
        cal = conversation_calibration_error(tr, BOB, spec)
        assert cal[(2, 1)] == pytest.approx(2.0)

    def test_monotone_refinement(self):
        # summing the bucket-conditioned regrets dominates the unconditioned
        # regret of the same round: the per-bucket benchmark is stronger
        rng = np.random.default_rng(5)
        spec = BucketingSpec(g=0.25, m=4)
        for _ in range(20):
            T = 60
            preds = np.stack([
                round_to_grid(rng.uniform(size=T), 4),
                round_to_grid(rng.uniform(size=T), 4),
            ], axis=1)
            outs = rng.uniform(size=T)
            tr = ConversationTranscript(preds, outs)
            entries = conversation_swap_regret(tr, BOB, "constant", spec)
            total = sum(v for (k, _i), v in entries.items() if k == 2)
            flat = swap_regret(tr.round_predictions(2), outs)
            assert total >= flat - 1e-9

    def test_ece_bounded_by_swap_regret(self):
        # on every conditioned subsequence, calibration error is at most
        # sqrt(n · swap regret against constants)
        rng = np.random.default_rng(6)
        spec = BucketingSpec(g=0.25, m=4)
        for _ in range(20):
            T = 50
            preds = np.stack([
                round_to_grid(rng.uniform(size=T), 4),
                round_to_grid(rng.uniform(size=T), 4),
            ], axis=1)
            outs = rng.uniform(size=T)
            tr = ConversationTranscript(preds, outs)
            sr = conversation_swap_regret(tr, BOB, "constant", spec)
            cal = conversation_calibration_error(tr, BOB, spec)
            prev = tr.round_predictions(1)
            for (k, i), v in cal.items():
                n_sub = int((spec.bucket_ids(prev) == i).sum())
                assert v <= np.sqrt(max(n_sub * sr[(k, i)], 0.0)) + 1e-6


class TestDisagreement:
    def test_identical_rounds(self):
        tr = ConversationTranscript([[0.5, 0.5]] * 4, [0.5] * 4)
        assert disagreement_fraction(tr, 2, 0.1) == 0.0

    def test_maximal_gap(self):
        tr = ConversationTranscript([[0.0, 1.0]] * 3, [0.5] * 3)
        assert disagreement_fraction(tr, 2, 0.5) == 1.0

    def test_mixed_sequence(self):
        preds = np.array([[0.5, 0.6], [0.5, 0.8], [0.3, 0.9]])
        tr = ConversationTranscript(preds, [0.5, 0.5, 0.5])
        assert disagreement_fraction(tr, 2, 0.25) == pytest.approx(2.0 / 3.0)

    def test_round_range_enforced(self):
        tr = ConversationTranscript([[0.5, 0.5]], [0.5])
        with pytest.raises(ValueError):
            disagreement_fraction(tr, 1, 0.1)


class TestJsonLoaders:
    """Every loader of a list-shaped JSON file names the field it cannot use."""

    LOADERS = pytest.mark.parametrize("load, what, field", [
        (PriorTable.from_json_dict, "a prior", "atoms"),
        (BatchSample.from_json_dict, "a batch sample", "examples"),
        # the reader of `collab run`'s dataset files
        (lambda data: read_examples(io.StringIO(json.dumps(data)), "a dataset"),
         "a dataset", "examples"),
    ], ids=["prior", "batch-sample", "dataset"])

    @LOADERS
    def test_non_object_rejected(self, load, what, field):
        with pytest.raises(ValueError, match=f"^{what} must be a JSON object, found list$"):
            load([1, 2])

    @LOADERS
    @pytest.mark.parametrize("data, ending", [
        (lambda field: {"seed": 1}, "is missing"),
        (lambda field: {field: {"0": 1}}, 'must be a non-empty list of objects, found {"0": 1}'),
        (lambda field: {field: [1, 2]}, "must be a non-empty list of objects, found [1, 2]"),
    ], ids=["missing", "not-a-list", "not-objects"])
    def test_field_not_a_list_of_objects_rejected(self, load, what, field, data, ending):
        with pytest.raises(ValueError) as e:
            load(data(field))
        assert str(e.value) == f"{what}: field '{field}' {ending}"

    @LOADERS
    def test_empty_list_rejected(self, load, what, field):
        with pytest.raises(ValueError) as e:
            load({field: []})
        assert str(e.value) == f"{what}: field '{field}' must be a non-empty list of objects, found []"


def _outcome(read, text):
    """("ok", per array (dtype, shape, bytes), seed) or ("error", type, message) of read(text)."""
    try:
        x_a, x_b, y, seed = read(text)
    except Exception as e:   # the comparison is the point: any error must be the same one
        return "error", type(e), str(e)
    return "ok", [(a.dtype, a.shape, a.tobytes()) for a in (x_a, x_b, y)], (type(seed), seed)


def _same_as_reference(text, what="a dataset"):
    ref = _outcome(lambda t: examples_from_json(json.loads(t), what), text)
    assert _outcome(lambda t: read_examples(io.StringIO(t), what), text) == ref
    return ref


_NUMBERS = st.one_of(st.floats(), st.integers(-10**17, 10**17), st.booleans(), st.just(-0.0),
                     st.sampled_from([float("nan"), float("inf"), -float("inf")]))


@st.composite
def _examples_texts(draw):
    """An `examples` file as text: n and widths 1..6, a number or a list for "y",
    extra keys, shuffled key order, a seed or none. One field may vary by entry
    (widths from 0, or for "y" also number against list), or lose its key; an
    entry may also sit outside the list."""
    ragged = draw(st.sampled_from([None, "xa", "xb", "y", "missing"]))
    widths = {"xa": draw(st.integers(1, 6)), "xb": draw(st.integers(1, 6)),
              "y": draw(st.one_of(st.none(), st.integers(1, 6)))}

    def entry():
        w = dict(widths)
        if ragged in w:
            w[ragged] = draw(st.integers(0, 6) if ragged != "y"
                             else st.one_of(st.none(), st.integers(0, 6)))
        e = {k: draw(_NUMBERS if n is None else st.lists(_NUMBERS, min_size=n, max_size=n))
             for k, n in w.items()}
        if ragged == "missing":
            e.pop(draw(st.sampled_from(["xa", "xb", "y", None])), None)
        for key in draw(st.lists(st.sampled_from(["note", "w", "id"]), unique=True)):
            e[key] = draw(st.one_of(_NUMBERS, st.text(max_size=3), st.lists(_NUMBERS, max_size=2)))
        return {k: e[k] for k in draw(st.permutations(list(e)))}

    data = {"examples": [entry() for _ in range(draw(st.integers(1, 6)))]}
    if draw(st.booleans()):
        data["seed"] = draw(st.one_of(st.integers(-2**70, 2**70), st.booleans()))
    if draw(st.booleans()):
        data["source"] = draw(st.one_of(st.text(max_size=3), st.builds(entry)))
    return json.dumps({k: data[k] for k in draw(st.permutations(list(data)))})


_ENTRY = '{"xa": [0.5, 1], "xb": [-0.25], "y": 0.75}'
_LIST_ENTRY = '{"xa": [0.5], "xb": [0.25, true], "y": [0.1, 0.2]}'


class TestReadExamples:
    """`read_examples` returns what `examples_from_json(json.load(fh))` returns,
    the same bits, seed and error, without building the parsed tree."""

    @settings(max_examples=400, deadline=None)
    @given(text=_examples_texts())
    def test_matches_the_dict_path(self, text):
        _same_as_reference(text)

    @pytest.mark.parametrize("text, outcome", [
        (f'{{"seed": 3, "examples": [{_ENTRY}, {_ENTRY}]}}', "ok"),
        (f'{{"examples": [{_LIST_ENTRY}, {_LIST_ENTRY}]}}', "ok"),
        ('{"seed": 1, "examples": [{"id": 1, "y": 0, "xb": [1], "note": "x", "xa": [0]}], '
         '"source": "hand"}', "ok"),
        ('{"examples": [{"xa": [NaN], "xb": [Infinity], "y": -Infinity}]}', "ok"),
        ('{"examples": [{"xa": [-0], "xb": [-0.0], "y": 0}]}', "ok"),
        (f'{{"examples": [{_ENTRY}, {{"xa": [0.5, 1], "y": 0.75}}]}}',
         "entry 1: field 'xb' is missing"),
        (f'{{"examples": [{_ENTRY}, {{"xa": [0.5], "xb": [0.1], "y": 0.75}}]}}',
         "entry 1: field 'xa' has shape (1,), entry 0 has (2,)"),
        ('{"examples": [{"xa": [0.5, "1"], "xb": [0.1], "y": 0.75}]}', "must be a list"),
        (f'{{"examples": [{_ENTRY}, {{"xa": [0.5, 1], "xb": [0.1], "y": null}}]}}',
         "entry 1: field 'y' must be a number or a list of numbers, found null"),
        ('{"examples": [{"xa": [[0.5]], "xb": [0.1], "y": 0.75}]}', "must be a list"),
        ('{"examples": [{"xa": [], "xb": [0.1], "y": 0.75}]}', "must be a list"),
        ('{"examples": [{"xa": [0.5], "xb": [], "y": 0.75}]}', "must be a list"),
        ('{"examples": [{"xa": [0.5], "xb": [0.1], "y": []}]}', "must be a number or a list"),
        (f'{{"examples": [{_LIST_ENTRY}, {{"xa": [0.5], "xb": [0, 1], "y": [0.5]}}]}}',
         "entry 1: field 'y' has shape (1,), entry 0 has (2,)"),
        ('{"examples": []}', "field 'examples' must be a non-empty list of objects, found []"),
        (f'[{_ENTRY}]', "must be a JSON object, found list"),
        (f'{{"seed": true, "examples": [{_ENTRY}]}}', "field 'seed' must be an integer, found true"),
        (f'{{"seed": {2**70}, "examples": [{_ENTRY}]}}', "ok"),
        ('{"examples": [{"xa": [18446744073709551616], "xb": [0.1], "y": 0.75}]}',
         "holds an integer too large for numpy"),
        (f'{{"examples": [{{"xa": [0.5], "xb": [0.1], "y": {2**70}}}]}}',
         "holds an integer too large for numpy"),
        (f'{{"examples": [{_ENTRY}, 5]}}', "field 'examples' must be a non-empty list of objects"),
        (f'{{"examples": [{_ENTRY}, {{"xa": [0.5, 1], "xb": [0.1], "y": [0.75]}}]}}',
         "entry 1: field 'y' has shape (1,), entry 0 has ()"),
        (f'{{"meta": {_ENTRY}, "examples": [{_ENTRY}]}}', "ok"),
        (f'{{"meta": {_ENTRY}, "examples": [{_ENTRY}, {{"xa": [0.5, 1], "xb": [0.1]}}]}}',
         "entry 1: field 'y' is missing"),
        (f'{{"examples": [{_ENTRY}, {_ENTRY}]', "Expecting ',' delimiter"),
    ], ids=["valid", "list-y", "extra-keys", "nan-infinity", "negative-zero", "missing",
            "ragged", "string", "null", "nested", "empty-xa", "empty-xb", "empty-y",
            "ragged-y", "empty-examples", "top-level-list", "bool-seed", "huge-seed", "2**64",
            "2**70", "non-object-entry", "y-number-then-list", "entry-outside-the-list",
            "entry-outside-the-list-and-one-incomplete", "syntax-error"])
    def test_hand_made_files(self, text, outcome):
        ref = _same_as_reference(text)
        if outcome == "ok":
            assert ref[0] == "ok"
        else:
            assert ref[0] == "error" and outcome in ref[2]

    def test_reads_from_the_current_position(self):
        fh = io.StringIO(f'prefix{{"seed": 2, "examples": [{_ENTRY}, {{"xa": [1, 0]}}]}}')
        fh.seek(6)
        with pytest.raises(ValueError, match="^a batch sample: entry 1: field 'xb' is missing$"):
            read_examples(fh, "a batch sample")

    def test_peak_memory_stays_below_two_and_a_half_file_sizes(self, tmp_path):
        path = tmp_path / "points.json"
        assert main(["gen-data", "--generator", "batch-additive", "--days", "20000",
                     "--seed", "1", "--out", str(path)]) == 0
        tracemalloc.start()
        try:
            with open(path) as fh:
                x_a, _x_b, _y, _seed = read_examples(fh, "a batch sample")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x_a.shape[0] == 20000
        # the file's bytes and text during read() make 2x; json.load's tree made 3x
        assert peak < 2.5 * path.stat().st_size
