"""File formats: whitespace-delimited matrix text, CSV tables (the
learning trace among them), PGM images (read as P2 or P5, written as P5).

Readers raise FormatError on malformed input, including a file that
holds less or more than its header promises; no array is sized by a
header alone.  A PGM comment runs from ``#`` to the end of its line and may sit
anywhere in a P2 file or a P5 header; P5 takes exactly one whitespace
byte between maxval and its raster.  Writers raise ConfigError on data
that the format cannot represent.  Writers are deterministic: identical
inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import re
from array import array
from io import BytesIO

import numpy as np

from .exceptions import ConfigError, FormatError, as_real_array
from .learner import LearnTrace

__all__ = [
    "TRACE_COLUMNS",
    "read_matrix_text",
    "write_matrix_text",
    "read_csv_table",
    "write_csv_table",
    "read_trace_csv",
    "write_trace_csv",
    "read_pgm",
    "write_pgm",
]

TRACE_COLUMNS = ("iter", "objective", "nsre", "sparsity_factor", "delta_dict", "delta_codes")

# .17g round-trips any float64 exactly.
_FLOAT_FMT = ".17g"

# Up to four header tokens (magic, width, height, maxval), each after any run of
# whitespace and comments; a missing token leaves its group and the later ones None.
# A comment runs from "#" to the end of its line: the lookahead keeps it from ending
# early, so no token is read from inside one.
_PGM_HEADER = re.compile(rb"(?:(?:\s|#[^\n]*(?![^\n]))*([^\s#]+))?" * 4)


def read_matrix_text(path) -> np.ndarray:
    """Read a float matrix: a "rows cols" header line, then one row per line."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline()
        if not header.strip():
            raise FormatError(f"{path}: missing 'rows cols' header")
        parts = header.split()
        if len(parts) != 2:
            raise FormatError(f"{path}: header must be 'rows cols', got {header.strip()!r}")
        try:
            rows, cols = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"{path}: header dimensions must be integers") from None
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: dimensions must be positive, got {rows} x {cols}")
        # Grown row by row: a header promising more than the file holds allocates nothing.
        values = array("d")
        for i in range(rows):
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}: expected {rows} rows, file ends after {i}")
            vals = line.split()
            if len(vals) != cols:
                raise FormatError(f"{path}: row {i + 1} has {len(vals)} entries, expected {cols}")
            try:
                values.extend(map(float, vals))
            except ValueError:
                raise FormatError(f"{path}: row {i + 1} holds a non-numeric entry") from None
        if fh.read().strip():
            raise FormatError(f"{path}: trailing data after {rows} rows")
    out = np.frombuffer(values).reshape(rows, cols)
    if not np.all(np.isfinite(out)):
        raise FormatError(f"{path}: matrix entries must be finite")
    return out


def write_matrix_text(path, matrix) -> None:
    """Write a float matrix in the 'rows cols' header format, full precision."""
    M = as_real_array(matrix, "matrix", ndim=2, finite=True)
    if M.size == 0:
        raise ConfigError(f"matrix text needs a non-empty matrix, got shape {M.shape}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        np.savetxt(fh, M, fmt="%" + _FLOAT_FMT)


def write_csv_table(path, header, rows) -> None:
    """Write a CSV with one header row; all cells stringified."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


def read_csv_table(path):
    """Read a CSV with one header row: returns (header, rows) of strings.

    Blank lines are skipped; a row whose field count differs from the
    header's is a FormatError.
    """
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty CSV") from None
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(
                    f"{path}: row {reader.line_num} has {len(row)} fields, header has {len(header)}"
                )
            rows.append(row)
    return header, rows


def write_trace_csv(path, trace: LearnTrace) -> None:
    """Write per-iteration learning diagnostics as CSV (1-based iter column)."""
    series = [getattr(trace, name) for name in TRACE_COLUMNS[1:]]
    K = len(trace.objective)
    if any(len(s) != K for s in series):
        raise ConfigError("trace columns have mismatched lengths")
    rows = ([t + 1] + [format(float(s[t]), _FLOAT_FMT) for s in series] for t in range(K))
    write_csv_table(path, TRACE_COLUMNS, rows)


def read_trace_csv(path) -> LearnTrace:
    """Read a trace CSV written by write_trace_csv back into a LearnTrace."""
    header, rows = read_csv_table(path)
    if tuple(header) != TRACE_COLUMNS:
        raise FormatError(f"{path}: bad header {header!r}, expected {','.join(TRACE_COLUMNS)}")
    try:
        iters = [int(row[0]) for row in rows]
        values = [[float(v) for v in row[1:]] for row in rows]
    except ValueError:
        raise FormatError(f"{path}: a data row holds a non-numeric field") from None
    if iters != list(range(1, len(rows) + 1)):
        raise FormatError(f"{path}: iter column must count 1,2,...")
    columns = np.array(values).reshape(len(rows), len(TRACE_COLUMNS) - 1).T
    return LearnTrace(**dict(zip(TRACE_COLUMNS[1:], columns)))


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 PGM with maxval 255 into a uint8 array (height, width)."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    magic, *fields = header.groups()
    if magic not in (b"P2", b"P5", None):
        raise FormatError(f"{path}: unsupported magic {magic!r}, expected P2 or P5")
    dims = []
    for what, tok in zip(("width", "height", "maxval"), fields):
        if tok is None:
            raise FormatError(f"{path}: truncated header")
        try:
            dims.append(int(tok))
        except ValueError:
            raise FormatError(f"{path}: {what} must be an integer, got {tok!r}") from None
    width, height, maxval = dims
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image dimensions must be positive, got {width} x {height}")
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255, got {maxval}")
    pos = header.end()

    if magic == b"P5":
        if not data[pos : pos + 1].isspace():
            raise FormatError(f"{path}: expected single whitespace before binary raster")
        raster = data[pos + 1 :]
        if len(raster) != width * height:
            raise FormatError(f"{path}: raster holds {len(raster)} bytes, expected {width * height}")
        return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()

    # One line of tokens at a time, each line cut at its comment; the array grows
    # with the pixels read.
    lines = BytesIO(data)
    lines.seek(pos)
    tokens = (tok for line in lines for tok in line.partition(b"#")[0].split())
    try:
        pixels = np.fromiter(map(int, tokens), dtype=np.int64)
    except ValueError as exc:
        raise FormatError(f"{path}: pixel must be an integer ({exc})") from None
    except OverflowError:
        raise FormatError(f"{path}: pixel values must lie in [0, 255]") from None
    if pixels.size != width * height:
        raise FormatError(f"{path}: raster holds {pixels.size} values, expected {width * height}")
    if pixels.min() < 0 or pixels.max() > 255:
        raise FormatError(f"{path}: pixel values must lie in [0, 255]")
    return pixels.astype(np.uint8).reshape(height, width)


def write_pgm(path, image) -> None:
    """Write a uint8 image as a binary (P5) PGM with maxval 255."""
    img = np.asarray(image)
    if img.ndim != 2 or img.size == 0:
        raise ConfigError(f"write_pgm needs a non-empty 2-D array, got shape {img.shape}")
    if img.dtype != np.uint8:
        if not np.issubdtype(img.dtype, np.integer):
            raise ConfigError(f"write_pgm needs 8-bit integer data, got dtype {img.dtype}")
        if img.min() < 0 or img.max() > 255:
            raise ConfigError("write_pgm values must lie in [0, 255]")
        img = img.astype(np.uint8)
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii") + img.tobytes())
