import numpy as np
import pytest

from wavecnn.datasets import (Dataset, load_dataset, read_idx, save_dataset,
                              synthetic_classification, write_idx)
from wavecnn.errors import FormatError, InvalidConfig, ShapeMismatch


class TestIdx:
    def test_round_trip_rank3(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(5, 7, 9), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx(path, arr)
        assert np.array_equal(read_idx(path), arr)

    def test_round_trip_rank1(self, tmp_path):
        labels = np.array([0, 3, 9, 255], dtype=np.uint8)
        path = tmp_path / "lab.idx"
        write_idx(path, labels)
        assert np.array_equal(read_idx(path), labels)

    def test_header_is_big_endian_with_magic(self, tmp_path):
        path = tmp_path / "x.idx"
        write_idx(path, np.zeros((2, 3, 4), dtype=np.uint8))
        raw = path.read_bytes()
        assert raw[:4] == bytes([0, 0, 0x08, 3])
        assert raw[4:16] == (2).to_bytes(4, "big") + (3).to_bytes(4, "big") \
            + (4).to_bytes(4, "big")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x12\x34\x56\x78" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_idx(path)

    def test_rank_2_array_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="rank 1 or 3, got 2"):
            write_idx(tmp_path / "x.idx", np.zeros((2, 3), dtype=np.uint8))
        assert not (tmp_path / "x.idx").exists()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.idx"
        good = tmp_path / "good.idx"
        write_idx(good, np.zeros((4, 4, 4), dtype=np.uint8))
        path.write_bytes(good.read_bytes()[:-10])
        with pytest.raises(FormatError):
            read_idx(path)


class TestIdxValueRange:
    def test_u8_bounds_round_trip(self, tmp_path):
        write_idx(tmp_path / "l.idx", np.array([0, 255], dtype=np.int64))
        assert list(read_idx(tmp_path / "l.idx")) == [0, 255]

    @pytest.mark.parametrize("bad", [256, -1])
    def test_out_of_range_values_rejected(self, tmp_path, bad):
        with pytest.raises(FormatError):
            write_idx(tmp_path / "l.idx", np.array([1, bad, 2]))
        ds = Dataset(np.zeros((3, 1, 2, 2)), np.array([1, bad, 2]))
        with pytest.raises(FormatError):
            save_dataset(ds, tmp_path / "i.idx", tmp_path / "l.idx")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected_before_writing(self, tmp_path, bad):
        images = np.full((2, 1, 3, 3), 0.5)
        images[1, 0, 1, 2] = bad
        with pytest.raises(InvalidConfig):
            save_dataset(Dataset(images, np.array([0, 1])),
                         tmp_path / "i.idx", tmp_path / "l.idx")
        assert not (tmp_path / "i.idx").exists()
        assert not (tmp_path / "l.idx").exists()


class TestLoadDataset:
    def test_scales_to_unit_and_adds_channel(self, tmp_path):
        imgs = np.full((3, 4, 4), 255, dtype=np.uint8)
        labels = np.array([1, 2, 3], dtype=np.uint8)
        write_idx(tmp_path / "i.idx", imgs)
        write_idx(tmp_path / "l.idx", labels)
        ds = load_dataset(tmp_path / "i.idx", tmp_path / "l.idx")
        assert ds.images.shape == (3, 1, 4, 4)
        assert ds.images.max() == 1.0
        assert ds.labels.dtype == np.int64
        assert len(ds) == 3

    def test_count_mismatch_rejected(self, tmp_path):
        write_idx(tmp_path / "i.idx", np.zeros((3, 4, 4), dtype=np.uint8))
        write_idx(tmp_path / "l.idx", np.zeros(2, dtype=np.uint8))
        with pytest.raises(ShapeMismatch):
            load_dataset(tmp_path / "i.idx", tmp_path / "l.idx")

    @pytest.mark.parametrize("images,labels", [
        (np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8)),
        (np.zeros((3, 4, 4), dtype=np.uint8), np.zeros((3, 1, 1), dtype=np.uint8))],
        ids=["rank-1 images", "rank-3 labels"])
    def test_wrong_rank_rejected(self, tmp_path, images, labels):
        write_idx(tmp_path / "i.idx", images)
        write_idx(tmp_path / "l.idx", labels)
        with pytest.raises(FormatError, match="expected"):
            load_dataset(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_save_refuses_more_than_one_channel(self, tmp_path):
        ds = Dataset(np.zeros((2, 3, 4, 4)), np.array([0, 1]))
        with pytest.raises(ShapeMismatch, match="single-channel"):
            save_dataset(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        assert not (tmp_path / "i.idx").exists()

    def test_save_then_load_quantizes_once(self, tmp_path):
        ds = synthetic_classification(12, classes=3, image_hw=(8, 8), seed=5)
        save_dataset(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        back = load_dataset(tmp_path / "i.idx", tmp_path / "l.idx")
        assert np.array_equal(back.labels, ds.labels)
        assert np.max(np.abs(back.images - ds.images)) <= 0.5 / 255 + 1e-12
        # a second trip through u8 changes nothing further
        save_dataset(back, tmp_path / "i2.idx", tmp_path / "l2.idx")
        again = load_dataset(tmp_path / "i2.idx", tmp_path / "l2.idx")
        assert np.array_equal(again.images, back.images)


class TestSynthetic:
    def test_shapes_balance_and_range(self):
        ds = synthetic_classification(40, classes=10, seed=0)
        assert ds.images.shape == (40, 1, 28, 28)
        assert np.array_equal(np.bincount(ds.labels), np.full(10, 4))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_per_image_streams_make_prefixes_agree(self):
        small = synthetic_classification(10, classes=5, seed=3)
        large = synthetic_classification(30, classes=5, seed=3)
        assert np.array_equal(small.images, large.images[:10])

    def test_seed_changes_content(self):
        a = synthetic_classification(6, classes=3, seed=0)
        b = synthetic_classification(6, classes=3, seed=1)
        assert not np.array_equal(a.images, b.images)
        assert np.array_equal(a.images, synthetic_classification(6, classes=3, seed=0).images)

    def test_classes_have_distinct_means(self):
        ds = synthetic_classification(200, classes=4, seed=7, noise=0.02)
        means = [ds.images[ds.labels == k].mean(axis=0)[0] for k in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.abs(means[a] - means[b]).max() > 0.05

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidConfig):
            synthetic_classification(0)
        with pytest.raises(InvalidConfig):
            synthetic_classification(10, classes=1)

    def test_negative_seed_rejected(self):
        """NumPy's own refusal is a bare ValueError."""
        with pytest.raises(InvalidConfig, match="data seed must be >= 0, got -1"):
            synthetic_classification(4, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_rejected(self, seed):
        """NumPy refuses 1.5 with a bare TypeError and takes True as 1."""
        with pytest.raises(InvalidConfig, match="data seed must be an integer"):
            synthetic_classification(4, seed=seed)

    @pytest.mark.parametrize("field,label,value", [
        ("n", "sample count", 2.5), ("n", "sample count", "3"), ("n", "sample count", True),
        ("classes", "class count", 2.5)])
    def test_a_count_that_is_no_integer_is_refused(self, field, label, value):
        """Before the range checks, which raised a bare TypeError for 2.5
        and "3" and took True as 1."""
        args = {"n": 4, "classes": 3, field: value}
        with pytest.raises(InvalidConfig, match=rf"^{label} must be an integer, got {value!r}$"):
            synthetic_classification(**args)


class TestDatasetContainer:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            Dataset(np.zeros((2, 4, 4)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ShapeMismatch):
            Dataset(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=np.int64))

    def test_take_slices_both_fields(self):
        ds = synthetic_classification(8, classes=2, image_hw=(8, 8))
        sub = ds.take(slice(2, 6))
        assert len(sub) == 4
        assert np.array_equal(sub.labels, ds.labels[2:6])
