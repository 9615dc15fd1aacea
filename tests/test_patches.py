import numpy as np
import pytest

from sparsedl.exceptions import ConfigError
from sparsedl.patches import (
    _GRID_ROWS,
    _gather_patches,
    aggregate_patches,
    extract_patches,
    patch_cover,
    patch_grid_shape,
)


def _extract_by_loops(img, p, s):
    """Oracle: explicit double loop, column-major within each patch."""
    H, W = img.shape
    cols = []
    for r in range(0, H - p + 1, s):
        for c in range(0, W - p + 1, s):
            cols.append(img[r : r + p, c : c + p].flatten(order="F"))
    return np.array(cols, dtype=float).T


def _aggregate_by_loops(P, shape, p, s):
    H, W = shape
    total = np.zeros(shape)
    cover = np.zeros(shape)
    i = 0
    for r in range(0, H - p + 1, s):
        for c in range(0, W - p + 1, s):
            total[r : r + p, c : c + p] += P[:, i].reshape(p, p, order="F")
            cover[r : r + p, c : c + p] += 1.0
            i += 1
    return total, cover


class TestGrid:
    def test_counts(self):
        assert patch_grid_shape((10, 12), 3, 1) == (8, 10)
        assert patch_grid_shape((10, 12), 3, 2) == (4, 5)
        assert patch_grid_shape((8, 8), 8, 1) == (1, 1)
        # stride skipping the tail: positions 0 and 4 only
        assert patch_grid_shape((9, 9), 3, 4) == (2, 2)
        assert patch_grid_shape((np.int64(16), 16), 4, 1) == (13, 13)

    def test_validation(self):
        with pytest.raises(ConfigError):
            patch_grid_shape((4, 4), 5, 1)
        with pytest.raises(ConfigError):
            patch_grid_shape((4, 4), 0, 1)
        with pytest.raises(ConfigError):
            patch_grid_shape((4, 4), 2, 0)
        with pytest.raises(ConfigError):
            patch_grid_shape((4, 4, 3), 2, 1)
        with pytest.raises(ConfigError, match="patch_size must be an integer"):
            patch_grid_shape((4, 4), 2.5, 1)
        with pytest.raises(ConfigError, match="stride must be an integer"):
            extract_patches(np.zeros((8, 8)), 4, 1.5)
        with pytest.raises(ConfigError, match="real"):
            extract_patches(np.zeros((16, 16)) + 1j, 4)
        # A float entry is not cut to an int: (16.9, 16) is no 16 x 16 image.
        for shape, name in (((16.9, 16), "height"), ((16, 16.0), "width"), ((16, True), "width")):
            with pytest.raises(ConfigError, match=f"image {name} must be an integer"):
                patch_grid_shape(shape, 4, 1)
            with pytest.raises(ConfigError, match=f"image {name} must be an integer"):
                aggregate_patches(np.zeros((16, 169)), shape, 4, 1)


class TestExtract:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.random((13, 17)) * 255
        for p, s in [(3, 1), (3, 2), (4, 3), (5, 5), (13, 1)]:
            got = extract_patches(img, p, s)
            want = _extract_by_loops(img, p, s)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_column_major_within_patch(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        P = extract_patches(img, 2, 1)
        # first patch covers rows 0-1, cols 0-1: down the column first
        assert P[:, 0].tolist() == [0.0, 4.0, 1.0, 5.0]

    def test_row_major_grid_order(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        P = extract_patches(img, 2, 2)
        # grid walks (0,0), (0,2), (2,0), (2,2)
        assert P[0].tolist() == [0.0, 2.0, 8.0, 10.0]

    def test_output_is_writable_copy(self):
        img = np.zeros((5, 5))
        for p in (2, 1):
            P = extract_patches(img, p, 1)
            P[0, 0] = 1.0  # must not raise and must not alias the input
            assert img[0, 0] == 0.0


    def test_out_takes_the_patches(self):
        """With out, the patches are written into it, bit for bit those of a
        new matrix, and out.T is returned; a bad out is refused before any
        value is written."""
        rng = np.random.default_rng(10)
        img = rng.random((21, 19)) * 255
        for p, s in ((4, 1), (3, 2), (5, 3)):
            want = extract_patches(img, p, s)
            out = np.full(want.shape[::-1], np.nan)
            got = extract_patches(img, p, s, out=out)
            assert np.array_equal(got, want)
            assert np.shares_memory(got, out) and got.flags.f_contiguous
        frozen = np.zeros(out.shape)
        frozen.flags.writeable = False
        for bad in (np.zeros(want.shape), np.zeros(out.shape, dtype=np.float32),
                    np.zeros(out.shape, order="F"), out.tolist(), frozen):
            before = np.copy(bad)
            with pytest.raises(ConfigError, match="out must be"):
                extract_patches(img, p, s, out=bad)
            assert np.array_equal(np.asarray(bad), before)

    def test_gather_picks_grid_columns(self):
        rng = np.random.default_rng(11)
        img = rng.random((40, 37)) * 255
        for p, s in ((4, 1), (3, 2), (5, 3)):
            allp = extract_patches(img, p, s)
            N = allp.shape[1]
            for index in (rng.choice(N, size=N // 2, replace=False), np.arange(N)):
                got = _gather_patches(img, p, s, index)
                assert np.array_equal(got, allp[:, index])
                assert got.flags.f_contiguous


class TestAggregate:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        # the last two span several blocks of grid rows, the last one partial
        cases = [(3, 1, (9, 11)), (4, 2, (12, 10)), (3, 4, (11, 11)), (3, 1, (30, 11)), (4, 3, (41, 20))]
        for p, s, shape in cases:
            n = p * p
            gr, gc = patch_grid_shape(shape, p, s)
            P = rng.standard_normal((n, gr * gc))
            want_total, want_cover = _aggregate_by_loops(P, shape, p, s)
            assert np.allclose(aggregate_patches(P, shape, p, s), want_total, atol=1e-12)
            assert np.array_equal(np.outer(*patch_cover(shape, p, s)), want_cover)

    def test_memory_order_does_not_change_the_sums(self):
        """denoise_image passes F-ordered patches; C-ordered ones give the same bits."""
        rng = np.random.default_rng(10)
        for p, s, shape in [(3, 1, (40, 23)), (4, 2, (37, 30)), (8, 1, (90, 33))]:
            gr, gc = patch_grid_shape(shape, p, s)
            P = rng.standard_normal((gr * gc, p * p)).T
            got_f = aggregate_patches(P, shape, p, s)
            got_c = aggregate_patches(np.ascontiguousarray(P), shape, p, s)
            assert np.array_equal(got_f, got_c)

    def test_bands_into_out_give_the_bits_of_one_call(self):
        """Adding bands of whole _GRID_ROWS blocks of grid rows, in order, into
        the image rows each band covers keeps every pixel's summation order."""
        rng = np.random.default_rng(12)
        for p, s, shape, blocks in [(3, 1, (60, 23), 1), (4, 2, (75, 30), 2), (8, 1, (90, 33), 3)]:
            band = blocks * _GRID_ROWS
            gr, gc = patch_grid_shape(shape, p, s)
            P = rng.standard_normal((gr * gc, p * p)).T
            whole = aggregate_patches(P, shape, p, s)
            total = np.zeros(shape)
            for g0 in range(0, gr, band):
                g1 = min(gr, g0 + band)
                y0, y1 = g0 * s, (g1 - 1) * s + p
                band_patches = P[:, g0 * gc : g1 * gc]
                got = aggregate_patches(band_patches, (y1 - y0, shape[1]), p, s, out=total[y0:y1])
                assert np.shares_memory(got, total)
            assert np.array_equal(total, whole)
        frozen = np.zeros(shape)
        frozen.flags.writeable = False
        for bad in (np.zeros((shape[0] + 1, shape[1])), np.zeros(shape).tolist(), frozen):
            with pytest.raises(ConfigError, match="out must be"):
                aggregate_patches(P, shape, p, s, out=bad)

    def test_round_trip_recovers_image(self):
        rng = np.random.default_rng(9)
        img = rng.random((16, 20)) * 255
        for s in (1, 2, 4):
            P = extract_patches(img, 4, s)
            total = aggregate_patches(P, img.shape, 4, s)
            cover = np.outer(*patch_cover(img.shape, 4, s))
            assert np.all(cover > 0)  # stride divides the span here
            assert np.allclose(total / cover, img, atol=1e-10)

    def test_sparse_grid_leaves_gaps_uncovered(self):
        img = np.ones((9, 9))
        P = extract_patches(img, 3, 4)  # grid positions 0 and 4 per axis
        cover = np.outer(*patch_cover(img.shape, 3, 4))
        assert np.array_equal(aggregate_patches(P, img.shape, 3, 4), cover)  # patches of ones sum to the counts
        hit = np.zeros(9, dtype=bool)
        hit[0:3] = hit[4:7] = True  # row/col 3 falls between patches, 7-8 past the tail
        assert np.array_equal(cover > 0, np.outer(hit, hit))

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            aggregate_patches(np.zeros((4, 9)), (5, 5), 3, 1)  # n != p*p
        with pytest.raises(ConfigError):
            aggregate_patches(np.zeros((9, 8)), (5, 5), 3, 1)  # wrong patch count
        with pytest.raises(ConfigError, match="real"):
            aggregate_patches(np.zeros((9, 9)) + 1j, (5, 5), 3, 1)
