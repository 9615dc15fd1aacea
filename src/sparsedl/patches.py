"""Overlapping square patch extraction and re-aggregation.

Patches are vectorized column-major (first down a patch column, then
across), and the patch grid is enumerated row-major from the top-left
corner: the outer loop walks grid rows, the inner loop grid columns.
Only positions where a full patch fits are included; when the stride
does not divide the remaining span, trailing rows/columns of the image
are simply not covered.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, as_integer, as_real_array

__all__ = ["patch_grid_shape", "patch_cover", "extract_patches", "aggregate_patches"]

# Grid rows aggregated at a time.  Each offset inside the patch reads one row of the
# patch matrix; for F-ordered patches that row is strided, so a block of a few grid rows
# (1 MB at 8x8 patches on a 249-column grid) is read once from memory and 64 times from cache.
_GRID_ROWS = 8

# Windows gathered at a time by _gather_patches (256 KB at 8x8 patches), so a
# gather holds little more than its result.
_PICKS = 512


def _check_geometry(image_shape, patch_size: int, stride: int):
    """Validated ``((H, W), p, s, (grid_rows, grid_cols))`` of a patch geometry."""
    if len(image_shape) != 2:
        raise ConfigError(f"expected a 2-D image shape, got {tuple(image_shape)}")
    H, W = int(image_shape[0]), int(image_shape[1])
    p = as_integer(patch_size, "patch_size")
    s = as_integer(stride, "stride")
    if p < 1:
        raise ConfigError(f"patch_size must be positive, got {patch_size}")
    if s < 1:
        raise ConfigError(f"stride must be positive, got {stride}")
    if H < p or W < p:
        raise ConfigError(f"patch size {p} does not fit in image of shape {H} x {W}")
    return (H, W), p, s, tuple((size - p) // s + 1 for size in (H, W))


def patch_grid_shape(image_shape, patch_size: int, stride: int):
    """Grid dimensions (rows, cols) of full-patch positions."""
    return _check_geometry(image_shape, patch_size, stride)[3]


def patch_cover(image_shape, patch_size: int, stride: int):
    """Per-axis overlap counts ``(row_cover, col_cover)`` of the patch grid.

    ``row_cover[y]`` counts the grid rows whose patches span image row y
    (``col_cover`` likewise for columns); the count at pixel (y, x) is
    their product, so a pixel is covered iff both of its counts are positive.
    """
    shape, p, s, grid = _check_geometry(image_shape, patch_size, stride)
    return tuple(_axis_cover(size, count, p, s) for size, count in zip(shape, grid))


def _axis_cover(size: int, count: int, p: int, s: int) -> np.ndarray:
    starts = np.arange(count) * s
    return np.bincount((starts[:, None] + np.arange(p)).ravel(), minlength=size).astype(float)


def extract_patches(image: np.ndarray, patch_size: int, stride: int = 1, *, out=None) -> np.ndarray:
    """Extract every full patch on the stride grid.

    Returns an array of shape (patch_size**2, num_patches): column i is
    the column-major vectorization of grid patch i (grid enumerated
    row-major).  It is F-ordered, the transpose of a C-ordered
    (num_patches, patch_size**2) buffer, so each patch is contiguous in
    memory: the signal-major layout the learner carries its residual
    in, which ``learn(..., overwrite_y=True)`` uses in place.  The
    denoiser takes the patches it codes from here, one band at a time
    into one buffer; it learns in a gathered training set of the same
    layout.

    With ``out``, a writeable C-contiguous float64 ndarray of shape
    (num_patches, patch_size**2) (any other raises ``ConfigError``
    before a value is written), the patches are written into it and
    ``out.T`` is returned.
    """
    return _gather_patches(as_real_array(image, "image"), patch_size, stride, None, out)


def _check_out(out, shape, contiguous=False) -> None:
    """Raise ``ConfigError`` unless ``out`` is a writeable float64 ndarray of
    ``shape`` (and C-contiguous, with ``contiguous``)."""
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == shape
        and out.flags.writeable
        and (out.flags.c_contiguous or not contiguous)
    ):
        got = f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}"
        kind = "writeable C-contiguous" if contiguous else "writeable"
        raise ConfigError(f"out must be a {kind} float64 ndarray of shape {shape}, got {got}")


def _gather_patches(img: np.ndarray, patch_size: int, stride: int, index: np.ndarray | None, out=None) -> np.ndarray:
    """Columns ``index`` of ``extract_patches(img, patch_size, stride)`` of a
    float64 image, F-ordered like it, and only those are extracted:
    ``_PICKS`` windows at a time straight into the result.  ``index=None``
    takes every column in one strided copy.  The result is ``out.T`` when
    ``out`` is given, as for :func:`extract_patches`.  The denoiser's
    training set, which ``learn(..., overwrite_y=True)`` works in."""
    _, p, s, (gr, gc) = _check_geometry(img.shape, patch_size, stride)
    windows = _windows(img, p)[::s, ::s]
    shape = (gr * gc if index is None else len(index), p * p)
    if out is None:
        out = np.empty(shape)
    else:
        _check_out(out, shape, contiguous=True)
    if index is None:
        out.reshape(windows.shape)[...] = windows
        return out.T
    rows, cols = np.divmod(index, gc)
    for lo in range(0, len(index), _PICKS):
        picks = slice(lo, lo + _PICKS)
        out[picks].reshape(-1, p, p)[...] = windows[rows[picks], cols[picks]]
    return out.T


def _windows(img: np.ndarray, p: int) -> np.ndarray:
    """Every p x p window of ``img`` as a read-only view: ``windows[r, c]`` is
    the patch at (r, c) on the stride-1 grid, laid out so that its C order
    is the patch's column-major vectorization."""
    # windows[r, c, col, row] = img[r + row, c + col]
    return np.lib.stride_tricks.sliding_window_view(img, (p, p)).swapaxes(2, 3)


def aggregate_patches(patches: np.ndarray, image_shape, patch_size: int, stride: int = 1, *, out=None):
    """Scatter patches back onto the image grid.

    Returns ``(total, cover)``: per-pixel sums of all patch values laid
    over that pixel, and per-pixel overlap counts.  ``cover`` is zero on
    pixels no grid patch touches (possible when the stride skips the
    image border).

    With ``out``, a writeable float64 ndarray of ``image_shape`` (any
    other raises ``ConfigError`` before a pixel is written), the patch
    values are added into it and it is returned as ``total``.  Each pixel
    takes its patches in grid order, ``_GRID_ROWS`` grid rows at a time,
    so adding the grid band by band into the rows of ``out`` each band
    covers, in ascending bands of whole ``_GRID_ROWS`` blocks, gives the
    bits of one call on the whole grid.
    """
    P = as_real_array(patches, "patch matrix")
    (H, W), p, s, (gr, gc) = _check_geometry(image_shape, patch_size, stride)
    if P.shape != (p * p, gr * gc):
        raise ConfigError(f"patch matrix shape {P.shape} does not match the geometry's ({p * p}, {gr * gc})")
    if out is None:
        total = np.zeros((H, W))
    else:
        _check_out(out, (H, W))
        total = out
    for r0 in range(0, gr, _GRID_ROWS):
        r1 = min(gr, r0 + _GRID_ROWS)
        block = P[:, r0 * gc : r1 * gc]
        for col in range(p):
            for row in range(p):
                k = row + col * p  # column-major offset inside the patch
                rows = slice(r0 * s + row, r1 * s + row, s)
                total[rows, col : col + gc * s : s] += block[k].reshape(r1 - r0, gc)
    return total, np.outer(*patch_cover(image_shape, p, s))
