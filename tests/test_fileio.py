import errno
import io
import os
import stat

import numpy as np
import pytest

from wavecnn import fileio
from wavecnn.errors import FormatError, InvalidConfig
from wavecnn.fileio import (TENSOR_MAGIC, read_pgm, read_tensor, write_pgm,
                            write_tensor)
from wavecnn.network import build_model, mini_config, save_model


class TestTensorFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_is_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4, 5)).astype(dtype)
        path = tmp_path / "t.wtn"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert arr.tobytes() == back.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.wtn"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == TENSOR_MAGIC
        assert raw[4] == 0  # f32 tag
        assert raw[5] == 2  # rank
        assert raw[6:14] == (2).to_bytes(8, "little")
        assert raw[14:22] == (3).to_bytes(8, "little")
        assert len(raw) == 22 + 2 * 3 * 4

    def test_one_dimensional(self, tmp_path):
        arr = np.linspace(0, 1, 7)
        write_tensor(tmp_path / "v.wtn", arr)
        assert np.array_equal(read_tensor(tmp_path / "v.wtn"), arr)

    def test_non_float_input_promotes_to_f64(self, tmp_path):
        write_tensor(tmp_path / "i.wtn", np.arange(4))
        back = read_tensor(tmp_path / "i.wtn")
        assert back.dtype == np.float64

    def test_bool_input_promotes_to_f64(self, tmp_path):
        write_tensor(tmp_path / "b.wtn", np.array([True, False]))
        back = read_tensor(tmp_path / "b.wtn")
        assert back.dtype == np.float64 and back.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("arr", [np.array([1 + 2j, 3j]), np.ones(2, np.complex64),
                                     np.array(["a", "b"]), np.array([b"a"]),
                                     np.array([None, 1.0], dtype=object)])
    def test_values_that_are_no_real_number_are_refused_before_a_byte(self, tmp_path, arr):
        """A complex array used to be written as its real part with only
        NumPy's ComplexWarning, and a string array raised a bare ValueError."""
        path = tmp_path / "t.wtn"
        write_tensor(path, np.zeros(2))
        with pytest.raises(InvalidConfig) as info:
            write_tensor(path, arr)
        assert str(info.value) == \
            f"a raw tensor holds bool, integer or float values, got {arr.dtype}"
        assert np.array_equal(read_tensor(path), np.zeros(2))
        assert os.listdir(tmp_path) == ["t.wtn"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.wtn"
        path.write_bytes(b"XXXX\x00\x01" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "t.wtn"
        write_tensor(path, np.ones((4, 4)))
        (tmp_path / "cut.wtn").write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_tensor(tmp_path / "cut.wtn")

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "t.wtn"
        write_tensor(path, np.ones(3))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        (tmp_path / "tag.wtn").write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_tensor(tmp_path / "tag.wtn")


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (9, 13), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_header_and_size(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        assert len(raw) == len(b"P5\n3 2\n255\n") + 6

    def test_comments_and_whitespace_in_header(self, tmp_path):
        payload = bytes(range(6))
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # format\n# a comment line\n 3\t2 # dims\n255\n" + payload)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img.tobytes() == payload

    def test_float_input_is_quantized(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(path, np.array([[-0.4, 99.5, 300.0]]))
        assert list(read_pgm(path)[0]) == [0, 100, 255]

    def test_nan_pixel_refused_before_anything_is_written(self, tmp_path):
        """Infinities still clip to 0 and 255; a NaN has no pixel value, and
        neither an old file nor a new path is touched."""
        path = tmp_path / "old.pgm"
        write_pgm(path, np.array([[-np.inf, np.inf]]))
        assert list(read_pgm(path)[0]) == [0, 255]
        before = path.read_bytes()
        for dest in (path, tmp_path / "new.pgm"):
            with pytest.raises(FormatError, match="NaN"):
                write_pgm(dest, np.array([[0.0, np.nan]], dtype=np.float32))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["old.pgm"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "p6.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "cut.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_sixteen_bit_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


def _small_model(seed):
    return build_model(mini_config("dwt_ll", "haar", image_hw=(8, 8), classes=2, seed=seed))


class TestWholeFileWrites:
    """Every writer goes through ``fileio._write``: a regular destination is
    replaced whole, anything else is written in place."""

    def test_a_failed_write_leaves_the_old_checkpoint_and_no_stray_file(self, tmp_path,
                                                                          monkeypatch):
        path = tmp_path / "m.wcn"
        save_model(_small_model(0), path)
        old = path.read_bytes()

        writes = []

        class DiskFills(io.BufferedWriter):
            """Fails its third write, partway through the file, as a full disk does."""

            def write(self, data):
                writes.append(data)
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        def open_on_a_full_disk(file, mode):
            return DiskFills(io.FileIO(file, mode[0]))
        monkeypatch.setattr(fileio, "open", open_on_a_full_disk, raising=False)
        with pytest.raises(OSError) as info:
            save_model(_small_model(1), path)
        assert info.value.errno == errno.ENOSPC and len(writes) == 3
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.wcn"]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_a_write_protected_file_is_refused_and_kept(self, tmp_path):
        path = tmp_path / "m.wcn"
        save_model(_small_model(0), path)
        old = path.read_bytes()
        path.chmod(0o444)
        with pytest.raises(PermissionError) as info:
            save_model(_small_model(1), path)
        assert info.value.filename == str(path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.wcn"]

    def test_a_failed_rename_names_the_destination_and_leaves_no_stray_file(
            self, tmp_path, monkeypatch):
        path = tmp_path / "t.wtn"
        write_tensor(path, np.zeros(2))

        def sticky_directory(src, dst):  # another user's file in /tmp
            raise OSError(errno.EPERM, os.strerror(errno.EPERM), src, None, dst)
        monkeypatch.setattr(os, "replace", sticky_directory)
        with pytest.raises(PermissionError) as info:
            write_tensor(path, np.ones(3))
        assert info.value.filename == str(path)
        assert np.array_equal(read_tensor(path), np.zeros(2))
        assert os.listdir(tmp_path) == ["t.wtn"]

    def test_a_replaced_file_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "t.wtn"
        write_tensor(path, np.zeros(2))
        path.chmod(0o640)
        write_tensor(path, np.ones(3))
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert np.array_equal(read_tensor(path), np.ones(3))

    def test_a_new_file_gets_the_mode_of_a_plain_open(self, tmp_path):
        write_pgm(tmp_path / "new.pgm", np.zeros((2, 2), np.uint8))
        (tmp_path / "plain").write_bytes(b"")
        assert (tmp_path / "new.pgm").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_a_fifo_is_written_in_place(self, tmp_path):
        arr = np.arange(6.0)
        write_tensor(tmp_path / "plain.wtn", arr)
        fifo = tmp_path / "fifo.wtn"
        os.mkfifo(fifo)
        # a reader that never blocks: with it open, the writer's open returns
        # at once, and the bytes fit in the pipe buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_tensor(fifo, arr)
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got == (tmp_path / "plain.wtn").read_bytes()

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "real.pgm", tmp_path / "link.pgm"
        write_pgm(target, np.zeros((2, 2), np.uint8))
        link.symlink_to(target.name)
        img = np.full((3, 4), 7, np.uint8)
        write_pgm(link, img)
        assert link.is_symlink()
        assert np.array_equal(read_pgm(target), img)

    def test_a_missing_directory_is_named_as_the_destination(self, tmp_path):
        path = tmp_path / "absent" / "t.wtn"
        with pytest.raises(FileNotFoundError) as info:
            write_tensor(path, np.zeros(2))
        assert info.value.filename == str(path)
