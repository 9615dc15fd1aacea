import numpy as np
import pytest

from sparsedl.exceptions import ConfigError, FormatError
from sparsedl.io import (
    TRACE_COLUMNS,
    read_matrix_text,
    read_pgm,
    read_trace_csv,
    write_matrix_text,
    write_pgm,
    write_trace_csv,
)
from sparsedl.learner import LearnTrace


class TestMatrixText:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 5)) * 1e3
        M[0, 0] = 1.0 / 3.0
        path = tmp_path / "m.txt"
        write_matrix_text(path, M)
        assert np.array_equal(read_matrix_text(path), M)

    def test_header_format(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_text(path, np.zeros((2, 3)))
        assert path.read_text().splitlines()[0] == "2 3"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1 2\n3 4\n",
            "a b\n1 2\n",
            "0 3\n",
            "2 2\n1 2\n",
            "2 2\n1 2\n3\n",
            "2 2\n1 x\n3 4\n",
            "1 2\n1 2\nextra\n",
            "1 2\n1 nan\n",
            "1 2\ninf 0\n",
            "1000000000000 1000000000000\n",  # header larger than memory
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_matrix_text(path)

    def test_written_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_text(path, [[1 / 3, -0.0, 5e-324]])
        assert path.read_bytes() == b"1 3\n0.33333333333333331 -0 4.9406564584124654e-324\n"

    def test_write_rejects_bad_data(self, tmp_path):
        with pytest.raises(ConfigError):
            write_matrix_text(tmp_path / "x.txt", np.zeros(3))
        with pytest.raises(ConfigError):
            write_matrix_text(tmp_path / "x.txt", np.array([[np.inf]]))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix_text(tmp_path / "nope.txt")


class TestTraceCsv:
    def _trace(self):
        return LearnTrace(
            objective=np.array([10.0, 4.0, 3.5]),
            nsre=np.array([0.5, np.nan, 0.2]),
            sparsity_factor=np.array([0.1, 0.2, 0.25]),
            delta_dict=np.array([1.0, 0.5, 0.1]),
            delta_codes=np.array([3.0, 1.0, 0.4]),
        )

    def test_round_trip_including_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = self._trace()
        write_trace_csv(path, trace)
        got = read_trace_csv(path)
        assert np.array_equal(got.objective, trace.objective)
        assert np.isnan(got.nsre[1]) and got.nsre[0] == 0.5
        assert np.array_equal(got.delta_codes, trace.delta_codes)

    def test_header_is_pinned(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, self._trace())
        assert path.read_text().splitlines()[0] == ",".join(TRACE_COLUMNS)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "iter,objective\n",
            "iter,objective,nsre,sparsity_factor,delta_dict,delta_codes\n1,2,3\n",
            "iter,objective,nsre,sparsity_factor,delta_dict,delta_codes\n2,1,1,1,1,1\n",
            "iter,objective,nsre,sparsity_factor,delta_dict,delta_codes\n1,x,1,1,1,1\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_trace_csv(path)

    def test_mismatched_lengths_rejected(self, tmp_path):
        trace = self._trace()
        trace.nsre = trace.nsre[:2]
        with pytest.raises(ConfigError):
            write_trace_csv(tmp_path / "t.csv", trace)


class TestPgm:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_ascii_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img, binary=False)
        assert path.read_bytes().startswith(b"P2\n")
        assert np.array_equal(read_pgm(path), img)

    def test_deterministic_bytes(self, tmp_path):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, img)
        write_pgm(b, img.copy())
        assert a.read_bytes() == b.read_bytes()

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2 # trailing\n255\n1 2\n3 4\n")
        assert read_pgm(path).tolist() == [[1, 2], [3, 4]]

    def test_comment_in_place_of_a_field_is_a_truncated_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2 # c")
        with pytest.raises(FormatError, match="truncated header"):
            read_pgm(path)

    def test_raster_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 # first row\n3#4\n# last\n4")
        assert read_pgm(path).tolist() == [[1, 2], [3, 4]]

    def test_ascii_written_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.array([[0, 1, 2], [253, 254, 255]], dtype=np.uint8), binary=False)
        assert path.read_bytes() == b"P2\n3 2\n255\n0 1 2\n253 254 255\n"

    @pytest.mark.parametrize("raster, count", [(b"1 2 3\n", 3), (b"1 2 3 4 5\n", 5)], ids=["short", "long"])
    def test_ascii_raster_count_is_named(self, tmp_path, raster, count):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + raster)
        with pytest.raises(FormatError, match=f"raster holds {count} values, expected 4"):
            read_pgm(path)

    def test_accepts_int_array_in_range(self, tmp_path):
        path = tmp_path / "i.pgm"
        write_pgm(path, np.array([[0, 255]], dtype=np.int64))
        assert read_pgm(path).dtype == np.uint8

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"P3\n2 2\n255\n0 0 0 0\n",
            b"P5\n2 2\n128\n" + bytes(4),
            b"P5\n0 2\n255\n",
            b"P5\n2 2\n255\n" + bytes(3),  # short raster
            b"P5\n2 2\n255\n" + bytes(5),  # long raster
            b"P2\n2 2\n255\n1 2 3\n",  # missing pixel
            b"P2\n2 2\n255\n1 2 3 4 5\n",  # extra pixel
            b"P2\n2 2\n255\n1 2 3 400\n",  # out of range
            b"P2\n2 x\n255\n1 2 3 4\n",
            b"P2\n100000000000 100000000000\n255\n",  # header larger than memory
            b"P2\n1 1\n255\n99999999999999999999\n",  # pixel beyond int64
            b"P2\n2 2\n255\n1 2 3 x\n",  # non-integer pixel
        ],
    )
    def test_malformed_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_write_rejects_bad_data(self, tmp_path):
        with pytest.raises(ConfigError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)))  # float dtype
        with pytest.raises(ConfigError):
            write_pgm(tmp_path / "x.pgm", np.array([[300]]))
        with pytest.raises(ConfigError):
            write_pgm(tmp_path / "x.pgm", np.zeros(4, dtype=np.uint8))
