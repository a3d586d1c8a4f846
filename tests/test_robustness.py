import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wavecnn.datasets import Dataset, synthetic_classification
from wavecnn.network import ModelConfig, build_model, evaluate, mini_config
from wavecnn import robustness
from wavecnn.errors import (BadSeverity, InvalidConfig, MissingCorruption,
                            ShapeMismatch, ShiftOutOfRange, ZeroReference)
from wavecnn.robustness import (CATEGORY_MEMBERS, DEFAULT_SEVERITY,
                                MAX_SHIFT_PAIRS, NOISE_CORRUPTIONS, ErrorMatrix,
                                ShiftTrialConfig, corrupt, corrupt_dataset,
                                corruption_error, error_matrix, mean_ce,
                                robustness_report, shift_consistency,
                                shift_image)
from wavecnn.robustness import _agreement, _draw_trials

from reference import corrupt_image, corrupt_stack, error_grid, pairwise_agreement


class TestCorrupt:
    def test_zero_sigma_is_identity(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_SEVERITY, "gaussian", (0.0,) * 5)
        img = np.random.default_rng(0).random((16, 16))
        out = corrupt(img, "gaussian", 3, rng_seed=1)
        assert np.array_equal(out, img)

    def test_full_impulse_is_salt_and_pepper_everywhere(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_SEVERITY, "impulse", (1.0,) * 5)
        img = np.full((32, 32), 0.5)
        out = corrupt(img, "impulse", 1, rng_seed=2)
        assert np.all((out == 0.0) | (out == 1.0))
        assert 0.2 < out.mean() < 0.8  # both salt and pepper appear

    def test_gaussian_severity3_sigma_monte_carlo(self):
        img = np.full((128, 128), 0.5)  # 16384 pixels, away from the clip rails
        out = corrupt(img, "gaussian", 3, rng_seed=3)
        measured = float((out - img).std())
        assert abs(measured - DEFAULT_SEVERITY["gaussian"][2]) < 0.01

    def test_shot_preserves_mean(self):
        img = np.full((100, 100), 0.5)
        out = corrupt(img, "shot", 1, rng_seed=4)
        assert abs(float(out.mean()) - 0.5) < 0.01

    def test_impulse_replacement_fraction(self):
        img = np.full((200, 200), 0.5)
        out = corrupt(img, "impulse", 5, rng_seed=5)
        frac = float((out != 0.5).mean())
        assert abs(frac - DEFAULT_SEVERITY["impulse"][4]) < 0.02

    def test_output_clipped_to_unit_interval(self):
        img = np.random.default_rng(6).random((20, 20))
        out = corrupt(img, "gaussian", 5, rng_seed=7)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_per_seed_and_varies_across_seeds(self):
        img = np.full((8, 8), 0.5)
        a = corrupt(img, "gaussian", 2, rng_seed=1)
        b = corrupt(img, "gaussian", 2, rng_seed=1)
        assert np.array_equal(a, b)
        outputs = {corrupt(img, "gaussian", 2, rng_seed=s).tobytes()
                   for s in range(10)}
        assert len(outputs) == 10

    @pytest.mark.parametrize("severity", [0, 6, -1, 2.5])
    def test_bad_severity_rejected(self, severity):
        with pytest.raises(BadSeverity):
            corrupt(np.zeros((4, 4)), "gaussian", severity)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            corrupt(np.zeros((4, 4)), "speckle", 1)

    def test_out_of_range_input_rejected(self):
        with pytest.raises(InvalidConfig):
            corrupt(np.full((4, 4), 1.5), "gaussian", 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        img = np.full((4, 4), 0.5)
        img[1, 2] = bad
        with pytest.raises(InvalidConfig):
            corrupt(img, "gaussian", 1)

    @pytest.mark.parametrize("severity", [True, False, np.True_])
    def test_boolean_severity_rejected(self, severity):
        """``bool`` is an ``int`` subclass, but ``True`` is no severity."""
        ds = synthetic_classification(2, classes=2, image_hw=(4, 4), seed=0)
        with pytest.raises(BadSeverity):
            corrupt(np.zeros((4, 4)), "gaussian", severity)
        with pytest.raises(BadSeverity):
            corrupt_dataset(ds, "shot", severity)

    def test_shot_maps_tolerated_negative_pixels_to_zero(self):
        """The range check lets pixels in [-1e-9, 0) through; shot gives
        them a Poisson rate of 0, not NumPy's bare ``lam < 0`` error."""
        out = corrupt(np.full((4, 4), -1e-10), "shot", 1)
        assert np.array_equal(out, np.zeros((4, 4)))
        ds = Dataset(np.full((2, 1, 4, 4), -1e-9), np.zeros(2, dtype=np.int64))
        assert not corrupt_dataset(ds, "shot", 5).images.any()
        with pytest.raises(InvalidConfig):
            corrupt(np.full((4, 4), -2e-9), "shot", 1)


class TestCorruptDataset:
    def _ds(self, n=6):
        return synthetic_classification(n, classes=3, image_hw=(8, 8), seed=0)

    def test_per_image_streams_are_order_independent(self):
        ds = self._ds()
        whole = corrupt_dataset(ds, "gaussian", 2, seed=9)
        tail = corrupt_dataset(ds.take(slice(0, 3)), "gaussian", 2, seed=9)
        assert np.array_equal(whole.images[:3], tail.images)

    def test_labels_pass_through(self):
        ds = self._ds()
        out = corrupt_dataset(ds, "impulse", 1, seed=2)
        assert np.array_equal(out.labels, ds.labels)


def _planted(n=7, seed=0):
    """Synthetic 9x11 images with 0.0, -0.0, 1.0 and 1 + 1e-10 planted in
    two of them: the pixels where clipping and signed zeros could differ."""
    ds = synthetic_classification(n, classes=3, image_hw=(9, 11), seed=seed)
    images = ds.images.copy()
    images[0, 0, 0, :4] = images[n - 1, 0, 8, -4:] = [0.0, -0.0, 1.0, 1 + 1e-10]
    return Dataset(images, ds.labels)


class _Recorder:
    """Constant predictions; keeps a copy of every stack it is shown."""

    dtype = np.float64

    def __init__(self):
        self.seen = []

    def predict(self, images):
        self.seen.append(np.array(images))
        return np.zeros(len(images), dtype=np.int64)


class TestDrawOnce:
    """Drawing an image's severity-free noise once per kind leaves every
    byte as a fresh stream and fresh draws per image and severity give."""

    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("kind", NOISE_CORRUPTIONS)
    def test_corrupt_and_corrupt_dataset_match_the_reference(self, kind, seed):
        ds = _planted()
        for severity in range(1, 6):
            stack = corrupt_stack(ds.images, kind, severity, seed)
            got = corrupt_dataset(ds, kind, severity, seed=seed).images
            assert got.tobytes() == stack.tobytes()
            for i in (0, len(ds) - 1):
                one = corrupt(ds.images[i], kind, severity, rng_seed=[seed, i])
                assert one.tobytes() == corrupt_image(
                    ds.images[i], kind, severity, rng_seed=[seed, i]).tobytes()
                assert one.tobytes() == stack[i].tobytes()

    @pytest.mark.parametrize("seed", [0, 13])
    def test_error_matrix_scores_the_reference_stacks(self, seed):
        ds = _planted()
        model = _Recorder()
        error_matrix(model, ds, seed=seed)
        expected = [corrupt_stack(ds.images, kind, severity, seed)
                    for kind in NOISE_CORRUPTIONS for severity in range(1, 6)]
        assert len(model.seen) == len(expected) == 15
        for got, want in zip(model.seen, expected):
            assert got.tobytes() == want.tobytes()

    def test_error_matrix_grid_matches_the_per_severity_loop(self):
        ds = synthetic_classification(48, seed=3, noise=0.10, amplitude=0.12)
        model = build_model(mini_config("max_pool"))
        kinds = ("impulse", "gaussian", "shot")
        got = error_matrix(model, ds, kinds=kinds, seed=4).errors
        assert got.tobytes() == error_grid(model, ds, kinds, seed=4).tobytes()

    @pytest.mark.parametrize("kinds", [(), [], ("gaussian", "shot", "gaussian"),
                                       ("gaussian", "speckle"), "gaussian"])
    def test_bad_kinds_refused_before_any_work(self, kinds, monkeypatch):
        def no_corruption(*_):
            raise AssertionError("corrupted before the kinds were checked")
        monkeypatch.setattr(robustness, "_corrupted", no_corruption)
        model = _Recorder()
        with pytest.raises(InvalidConfig):
            error_matrix(model, _planted(), kinds=kinds)
        assert model.seen == []

    def test_error_matrix_holds_few_copies_of_the_images(self):
        """2,000 28x28 float64 images, each kind's draws held once: about
        2.3 stack copies at the peak, 3.1 while each severity drew afresh
        and stacked a list of planes."""
        ds = synthetic_classification(2000, seed=5)
        tracemalloc.start()
        try:
            error_matrix(_ConstantModel(), ds, model_id="constant")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * ds.images.nbytes


class TestCorruptionError:
    def test_self_normalization_is_exactly_100(self):
        e = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert corruption_error(e, e) == 100.0

    def test_homogeneity(self):
        ref = np.array([0.2, 0.2, 0.4, 0.6, 0.6])
        assert corruption_error(ref / 2, ref) == pytest.approx(50.0)

    def test_joint_rescaling_invariance(self):
        f = np.array([0.1, 0.15, 0.2, 0.3, 0.35])
        r = np.array([0.12, 0.18, 0.22, 0.32, 0.4])
        assert corruption_error(0.5 * f, 0.5 * r) == pytest.approx(
            corruption_error(f, r))

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReference):
            corruption_error(np.full(5, 0.1), np.zeros(5))

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatch):
            corruption_error(np.zeros(4), np.full(5, 0.1))


class TestMeanCE:
    def test_noise_category_mean(self):
        ces = {"gaussian": 87.15, "shot": 88.47, "impulse": 91.30}
        assert round(mean_ce(ces, "noise"), 2) == 88.97

    def test_blur_category_mean(self):
        ces = dict(zip(CATEGORY_MEMBERS["blur"], (83.82, 91.43, 86.82, 88.70)))
        assert round(mean_ce(ces, "blur"), 2) == 87.69

    def test_all_equal_100(self):
        ces = {m: 100.0 for m in CATEGORY_MEMBERS["weather"]}
        assert mean_ce(ces, "weather") == 100.0

    def test_permutation_invariant(self):
        values = (81.0, 99.5, 90.25, 88.0)
        members = CATEGORY_MEMBERS["digital"]
        a = mean_ce(dict(zip(members, values)), "digital")
        b = mean_ce(dict(zip(reversed(members), values)), "digital")
        assert a == pytest.approx(b)

    def test_missing_members_listed(self):
        with pytest.raises(MissingCorruption) as err:
            mean_ce({"gaussian": 90.0}, "noise")
        assert set(err.value.missing) == {"shot", "impulse"}

    def test_unknown_category_rejected(self):
        with pytest.raises(InvalidConfig):
            mean_ce({}, "audio")


class TestErrorMatrix:
    def _matrix(self):
        grid = np.linspace(0.05, 0.9, 15).reshape(3, 5)
        return ErrorMatrix("model-a", NOISE_CORRUPTIONS, grid)

    def test_csv_round_trip(self):
        m = self._matrix()
        back = ErrorMatrix.from_csv(m.to_csv())
        assert back.model_id == "model-a"
        assert back.corruptions == m.corruptions
        assert np.array_equal(back.errors, m.errors)

    def test_json_round_trip(self):
        m = self._matrix()
        back = ErrorMatrix.from_json_dict(m.to_json_dict())
        assert back.corruptions == m.corruptions
        assert np.array_equal(back.errors, m.errors)

    def test_invariants_enforced(self):
        with pytest.raises(ShapeMismatch):
            ErrorMatrix("m", ("gaussian",), np.zeros((1, 4)))
        with pytest.raises(InvalidConfig):
            ErrorMatrix("m", ("gaussian",), np.full((1, 5), 1.5))
        with pytest.raises(InvalidConfig):
            ErrorMatrix("m", (), np.zeros((0, 5)))
        with pytest.raises(InvalidConfig):
            ErrorMatrix("m", ("gaussian", "gaussian"), np.zeros((2, 5)))

    def test_row_lookup(self):
        m = self._matrix()
        assert np.array_equal(m.row("shot"), m.errors[1])
        with pytest.raises(MissingCorruption):
            m.row("fog")

    @pytest.mark.parametrize("doc", [
        [], "errors", None, {"model": "x"}, {"errors": [0.1] * 5},
        {"errors": {"gaussian": 3}}, {"errors": {"gaussian": [0.1] * 4}},
        {"errors": {"gaussian": [0.1] * 6}}, {"errors": {"gaussian": ["a"] * 5}},
        {"errors": {"gaussian": "0.1,0.2"}}, {"errors": {"gaussian": [0.1, None, 0.1, 0.1, 0.1]}},
        {"errors": {"gaussian": [True] * 5}}, {"errors": {"gaussian": [[0.1]] * 5}},
        {"errors": {"gaussian": [0.1, float("nan"), 0.1, 0.1, 0.1]}}, {"errors": {}}])
    def test_malformed_json_rejected(self, doc):
        with pytest.raises(InvalidConfig):
            ErrorMatrix.from_json_dict(doc)

    @pytest.mark.parametrize("cell", ["abc", "", "nan", "inf", "-0.1", "0x1"])
    def test_malformed_csv_cell_rejected(self, cell):
        text = f"corruption,s1,s2,s3,s4,s5\ngaussian,0.1,0.2,{cell},0.3,0.4\n"
        with pytest.raises(InvalidConfig):
            ErrorMatrix.from_csv(text)

    @pytest.mark.parametrize("text", [
        "", "# model: m\ncorruption,s1,s2,s3,s4,s5\n",
        "gaussian,0.1,0.2,0.3,0.4,0.5\ngaussian,0.1,0.2,0.3,0.4,0.5\n"])
    def test_empty_or_repeated_csv_rejected(self, text):
        with pytest.raises(InvalidConfig):
            ErrorMatrix.from_csv(text)

    def test_csv_row_of_three_cells_rejected(self):
        with pytest.raises(InvalidConfig, match="bad error-matrix row: 'gaussian,0.1,0.2'"):
            ErrorMatrix.from_csv("corruption,s1,s2,s3,s4,s5\ngaussian,0.1,0.2\n")

    def test_csv_comment_without_a_model_is_skipped(self):
        m = ErrorMatrix.from_csv("# measured on a noisy day\ngaussian,0.1,0.2,0.3,0.4,0.5\n")
        assert m.model_id == "" and m.corruptions == ("gaussian",)
        assert m.errors.tolist() == [[0.1, 0.2, 0.3, 0.4, 0.5]]


class TestRobustnessReport:
    def _pair(self):
        measured = ErrorMatrix("f", NOISE_CORRUPTIONS,
                               np.full((3, 5), 0.2))
        reference = ErrorMatrix("ref", NOISE_CORRUPTIONS,
                                np.full((3, 5), 0.4))
        return measured, reference

    def test_ce_and_category_means(self):
        rep = robustness_report(*self._pair())
        assert rep.ces == {k: pytest.approx(50.0) for k in NOISE_CORRUPTIONS}
        assert rep.mces == {"noise": pytest.approx(50.0)}

    def test_ce_only_for_shared_rows(self):
        measured = ErrorMatrix("f", ("gaussian", "shot", "impulse"),
                               np.full((3, 5), 0.2))
        reference = ErrorMatrix("ref", ("gaussian",), np.full((1, 5), 0.2))
        rep = robustness_report(measured, reference)
        assert set(rep.ces) == {"gaussian"}
        assert rep.mces == {}

    def test_serialization_contains_ce_column_and_mce_rows(self):
        rep = robustness_report(*self._pair())
        text = rep.to_csv()
        header = text.splitlines()[2]
        assert header.endswith(",ce")
        assert any(line.startswith("mce_noise,") for line in text.splitlines())
        d = rep.to_json_dict()
        assert d["mce"]["noise"] == pytest.approx(50.0)
        assert set(d["ce"]) == set(NOISE_CORRUPTIONS)



GOLDEN = Path(__file__).parent / "golden" / "robustness"


def _json_text(d: dict) -> str:
    """The JSON text the CLI writes for a report."""
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


class TestReportBytes:
    """Golden report bytes on rates that print awkwardly (1/3, 0.1, 2/3).
    The reference lacks ``defocus`` (an empty ``ce`` cell) and holds every
    noise kind (an ``mce_noise`` row)."""

    def _pair(self):
        measured = ErrorMatrix("model-b", (*NOISE_CORRUPTIONS, "defocus"), np.array([
            [1 / 3, 0.1, 2 / 3, 0.1 + 0.2, 1.0],
            [0.0, 1 / 3, 0.1, 2 / 3, 0.7],
            [2 / 3, 2 / 3, 1 / 3, 0.1, 0.05],
            [0.1, 0.2, 1 / 3, 2 / 3, 0.9]]))
        reference = ErrorMatrix("ref-b", NOISE_CORRUPTIONS, np.array([
            [0.1, 0.1, 1 / 3, 2 / 3, 0.9],
            [2 / 3, 0.1, 0.1, 1 / 3, 0.3],
            [1 / 3] * 5]))
        return measured, reference

    def test_error_matrix_csv(self):
        assert self._pair()[0].to_csv() == (GOLDEN / "matrix.csv").read_text()

    def test_error_matrix_json(self):
        text = _json_text(self._pair()[0].to_json_dict())
        assert text == (GOLDEN / "matrix.json").read_text()

    def test_report_csv(self):
        text = robustness_report(*self._pair()).to_csv()
        assert text == (GOLDEN / "report.csv").read_text()

    def test_report_json(self):
        text = _json_text(robustness_report(*self._pair()).to_json_dict())
        assert text == (GOLDEN / "report.json").read_text()

class _ConstantModel:
    dtype = np.float64

    def predict(self, images):
        return np.zeros(len(images), dtype=np.int64)


class _ProbeParityModel:
    """Reads a planted center pixel, so any nonzero shift flips its output."""

    def __init__(self, h, w):
        self.h, self.w = h, w

    def predict(self, images):
        return (images[:, 0, self.h // 2, self.w // 2] > 0.5).astype(np.int64)


class TestShift:
    def test_shift_image_moves_content(self):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        out = shift_image(x, 1, -2)
        assert out[0, 0, 3, 0] == 1.0

    def test_zero_shift_is_identity(self):
        x = np.random.default_rng(0).random((2, 1, 6, 6))
        assert np.array_equal(shift_image(x, 0, 0), x)

    def test_zero_shift_is_a_copy(self):
        x = np.random.default_rng(0).random((2, 1, 6, 6)).astype(np.float32)
        out = shift_image(x, 0, 0, "edge")
        assert out.dtype == x.dtype and out.tobytes() == x.tobytes()
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("padding", ["wrap", "symmetric", "empty", "bogus"])
    def test_other_paddings_rejected(self, padding):
        """``np.pad`` takes the first three (``"empty"`` would leave the
        vacated border uninitialised) and refuses the last with a bare
        ValueError."""
        x = np.random.default_rng(0).random((1, 1, 5, 5))
        with pytest.raises(InvalidConfig, match=f"unknown padding rule '{padding}'"):
            shift_image(x, 1, 1, padding)
        with pytest.raises(InvalidConfig):
            ShiftTrialConfig(padding=padding)

    def test_reflect_padding_limit(self):
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(ShiftOutOfRange):
            shift_image(x, 4, 0)

    @pytest.mark.parametrize("padding", ["reflect", "edge", "constant"])
    def test_one_shift_limit_for_every_padding(self, padding):
        """A shift past min(h, w) - 1 would leave no pixel of the image."""
        x = np.random.default_rng(0).random((1, 1, 5, 7))
        assert shift_image(x, 4, -4, padding).shape == x.shape
        with pytest.raises(ShiftOutOfRange):
            shift_image(x, 0, 5, padding)
        ds = Dataset(x, np.zeros(1, dtype=np.int64))
        assert shift_consistency(_ConstantModel(), ds, ShiftTrialConfig(
            max_shift=4, pairs=2, padding=padding)) == 100.0
        with pytest.raises(ShiftOutOfRange):
            shift_consistency(_ConstantModel(), ds,
                              ShiftTrialConfig(max_shift=5, padding=padding))

    def test_constant_model_fully_consistent(self):
        ds = synthetic_classification(12, classes=3, image_hw=(16, 16), seed=1)
        value = shift_consistency(_ConstantModel(), ds,
                                  ShiftTrialConfig(max_shift=4, pairs=8, seed=0))
        assert value == 100.0

    def test_equal_shifts_force_100_for_any_model(self):
        ds = synthetic_classification(10, classes=2, image_hw=(12, 12), seed=2)

        class Odd:
            def predict(self, images):
                return np.argmax(images.reshape(len(images), -1), axis=1) % 7

        drawn = _draw_trials(ShiftTrialConfig(max_shift=3, pairs=6, seed=4))
        trials = np.tile(drawn[:, :2], 2)  # (h0, w0, h0, w0)
        assert _agreement(Odd(), ds.images, trials, "reflect") == 100.0

    def test_adversarial_parity_pairs_give_zero(self):
        h = w = 9
        images = np.zeros((4, 1, h, w))
        images[:, 0, h // 2, w // 2] = 1.0  # lit probe at the center
        ds = Dataset(images, np.zeros(4, dtype=np.int64))
        # shift pairs chosen so exactly one side moves the probe away
        trials = np.array([[0, 0, 1, 0], [0, 1, 0, 0]])
        model = _ProbeParityModel(h, w)
        assert _agreement(model, ds.images, trials, "reflect") == 0.0

    def test_each_distinct_shift_is_predicted_once(self):
        ds = synthetic_classification(8, classes=2, image_hw=(14, 14), seed=3)

        class Counting:
            calls = 0

            def predict(self, images):
                self.calls += 1
                return (images.sum(axis=(1, 2, 3)) * 17).astype(np.int64) % 3

        trials = _draw_trials(ShiftTrialConfig(max_shift=2, pairs=40, seed=0))
        distinct = {tuple(shift) for shift in trials.reshape(-1, 2).tolist()}
        assert len(distinct) < 2 * len(trials)
        model = Counting()
        value = _agreement(model, ds.images, trials, "reflect")
        assert model.calls == len(distinct)
        # the same percentage as predicting both shifts of every trial
        agree = sum(int((model.predict(shift_image(ds.images, *r[:2]))
                         == model.predict(shift_image(ds.images, *r[2:]))).sum())
                    for r in trials.tolist())
        assert value == 100.0 * agree / (len(trials) * len(ds))
        assert 0.0 < value < 100.0

    def test_repeated_pairs_match_the_pairwise_walk(self):
        """At range 1 there are 9 shifts and 81 ordered pairs, so 500
        draws repeat most pairs; each distinct pair is compared once and
        counted as often as it was drawn."""
        ds = synthetic_classification(8, classes=2, image_hw=(14, 14), seed=3)

        class Hash:
            def predict(self, images):
                return (images.sum(axis=(1, 2, 3)) * 17).astype(np.int64) % 3

        trials = _draw_trials(ShiftTrialConfig(max_shift=1, pairs=500, seed=0))
        assert len(np.unique(trials, axis=0)) < len(trials) // 5
        value = _agreement(Hash(), ds.images, trials, "reflect")
        assert value == pairwise_agreement(Hash(), ds.images, trials, "reflect")
        assert 0.0 < value < 100.0

    def test_deterministic_per_seed(self):
        ds = synthetic_classification(8, classes=2, image_hw=(14, 14), seed=3)

        class Hash:
            dtype = np.float64

            def predict(self, images):
                return (images.sum(axis=(1, 2, 3)) * 17).astype(np.int64) % 3

        cfg = ShiftTrialConfig(max_shift=5, pairs=10, seed=11)
        a = shift_consistency(Hash(), ds, cfg)
        b = shift_consistency(Hash(), ds, cfg)
        assert a == b

    def test_empty_dataset_rejected(self):
        model = build_model(mini_config("max_pool"))
        empty = Dataset(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=np.int64))
        with pytest.raises(InvalidConfig):
            shift_consistency(model, empty, ShiftTrialConfig(max_shift=2, pairs=1))
        with pytest.raises(InvalidConfig):
            error_matrix(model, empty)

    def test_range_too_large_for_dataset(self):
        ds = synthetic_classification(4, classes=2, image_hw=(8, 8), seed=0)
        with pytest.raises(ShiftOutOfRange):
            shift_consistency(_ConstantModel(), ds, ShiftTrialConfig(max_shift=8))

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            ShiftTrialConfig(max_shift=0)
        with pytest.raises(InvalidConfig):
            ShiftTrialConfig(pairs=0)
        with pytest.raises(InvalidConfig):
            ShiftTrialConfig(padding="wrap")

    def test_model_without_one_label_per_image_rejected_before_any_forward(self):
        """A model with no layers gives each image a 1x8x8 map; counting
        its per-pixel argmaps as labels once scored 6400 %."""
        ds = synthetic_classification(4, classes=2, image_hw=(8, 8), seed=0)
        model = build_model(ModelConfig(layers=()))
        calls = []
        model.forward = lambda x, training=False: calls.append(x)
        for measure in (lambda: shift_consistency(model, ds, ShiftTrialConfig(max_shift=2)),
                        lambda: evaluate(model, ds)):
            with pytest.raises(ShapeMismatch, match=r"output shape \(None, None, None\), "
                                                    "not one label per image"):
                measure()
        assert calls == []

    def test_pairs_capped(self):
        assert ShiftTrialConfig(pairs=MAX_SHIFT_PAIRS).pairs == MAX_SHIFT_PAIRS
        with pytest.raises(InvalidConfig, match="shift pairs are more than"):
            ShiftTrialConfig(pairs=MAX_SHIFT_PAIRS + 1)


class TestErrorMatrixMeasurement:
    def test_constant_model_matches_label_frequencies(self):
        ds = synthetic_classification(30, classes=3, image_hw=(8, 8), seed=5)

        class Zero:
            dtype = np.float64

            def predict(self, images):
                return np.zeros(len(images), dtype=np.int64)

            def checksum(self):
                return "zero-model"

        m = error_matrix(Zero(), ds, seed=0)
        # class 0 is a third of the labels regardless of corruption
        assert np.allclose(m.errors, 2.0 / 3.0)
        assert m.corruptions == NOISE_CORRUPTIONS
        assert m.model_id == "zero-model"[:12]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_images_rejected(self, bad):
        from wavecnn.network import build_model, mini_config

        ds = synthetic_classification(4, classes=2, image_hw=(8, 8), seed=5)
        images = ds.images.copy()
        images[1, 0, 2, 2] = bad
        model = build_model(mini_config("max_pool", image_hw=(8, 8), classes=2))
        with pytest.raises(InvalidConfig):
            error_matrix(model, Dataset(images, ds.labels), seed=0)


class TestNegativeSeed:
    """Each entry point refuses a negative seed with InvalidConfig before
    any work; NumPy's own refusal is a bare ValueError."""

    def test_corrupt_dataset(self):
        with pytest.raises(InvalidConfig, match="corruption seed must be >= 0, got -1"):
            corrupt_dataset(_planted(), "gaussian", 1, seed=-1)

    def test_error_matrix(self):
        model = _Recorder()
        with pytest.raises(InvalidConfig, match="corruption seed must be >= 0, got -1"):
            error_matrix(model, _planted(), seed=-1)
        assert model.seen == []

    def test_shift_consistency(self):
        with pytest.raises(InvalidConfig, match="shift seed must be >= 0, got -1"):
            shift_consistency(_ConstantModel(), _planted(), ShiftTrialConfig(seed=-1))


class TestNonIntegerSetting:
    """A fractional or bool seed, shift range or pair count is refused with
    InvalidConfig before any work.  NumPy refused a fractional seed with a
    bare TypeError, took True as 1, and a range of 2.5 was scored."""

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "1"])
    def test_corrupt_dataset(self, seed):
        with pytest.raises(InvalidConfig, match="corruption seed must be an integer"):
            corrupt_dataset(_planted(), "gaussian", 1, seed=seed)

    def test_error_matrix(self):
        model = _Recorder()
        with pytest.raises(InvalidConfig, match="corruption seed must be an integer"):
            error_matrix(model, _planted(), seed=1.5)
        assert model.seen == []

    @pytest.mark.parametrize("field,label", [("seed", "shift seed"), ("max_shift", "shift range"),
                                             ("pairs", "shift pair count")])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_shift_trial_config(self, field, label, value):
        with pytest.raises(InvalidConfig, match=f"{label} must be an integer, got {value!r}"):
            ShiftTrialConfig(**{field: value})

    def test_numpy_integers_pass(self):
        cfg = ShiftTrialConfig(max_shift=np.int64(2), pairs=np.int32(3), seed=np.uint8(4))
        assert shift_consistency(_ConstantModel(), _planted(), cfg) == 100.0
        assert len(corrupt_dataset(_planted(), "gaussian", 1, seed=np.int64(1))) == len(_planted())


class TestParallelInference:
    """The metrics forward their blocks on every usable CPU; the values do
    not depend on how many there are."""

    @pytest.mark.parametrize("mode,wavelet", [("max_pool", ""), ("dwt_cat", "ch3.3")])
    def test_metrics_match_one_cpu(self, monkeypatch, mode, wavelet):
        ds = synthetic_classification(70, classes=10, seed=6)
        model = build_model(mini_config(mode, wavelet, seed=2))
        cfg = ShiftTrialConfig(max_shift=3, pairs=2, seed=1)
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            results.append((evaluate(model, ds),
                            error_matrix(model, ds, kinds=("gaussian", "impulse")).errors.tobytes(),
                            shift_consistency(model, ds, cfg)))
        assert results[1] == results[0] and results[2] == results[0]
