"""File formats: whitespace-delimited matrix text, CSV tables (the
learning trace among them), PGM images.

Readers raise FormatError on malformed input; writers raise ConfigError
on data that the format cannot represent.  Writers are deterministic:
identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv

import numpy as np

from .exceptions import ConfigError, FormatError
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
        out = np.empty((rows, cols))
        for i in range(rows):
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}: expected {rows} rows, file ends after {i}")
            vals = line.split()
            if len(vals) != cols:
                raise FormatError(f"{path}: row {i + 1} has {len(vals)} entries, expected {cols}")
            try:
                out[i] = [float(v) for v in vals]
            except ValueError:
                raise FormatError(f"{path}: row {i + 1} holds a non-numeric entry") from None
        if fh.read().strip():
            raise FormatError(f"{path}: trailing data after {rows} rows")
    if not np.all(np.isfinite(out)):
        raise FormatError(f"{path}: matrix entries must be finite")
    return out


def write_matrix_text(path, matrix) -> None:
    """Write a float matrix in the 'rows cols' header format, full precision."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ConfigError(f"matrix text needs a non-empty 2-D array, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError("matrix text cannot represent non-finite entries")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(format(v, _FLOAT_FMT) for v in row))
            fh.write("\n")


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
    pos = 0

    def skip_space() -> int:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            elif ch.isspace():
                pos += 1
            else:
                break
        return pos

    def token() -> bytes:
        nonlocal pos
        skip_space()
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header")
        return data[start:pos]

    def int_token(what: str) -> int:
        tok = token()
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"{path}: {what} must be an integer, got {tok!r}") from None

    magic = token()
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"{path}: unsupported magic {magic!r}, expected P2 or P5")
    width = int_token("width")
    height = int_token("height")
    maxval = int_token("maxval")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image dimensions must be positive, got {width} x {height}")
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255, got {maxval}")

    if magic == b"P5":
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise FormatError(f"{path}: expected single whitespace before binary raster")
        pos += 1
        raster = data[pos:]
        if len(raster) != width * height:
            raise FormatError(
                f"{path}: raster holds {len(raster)} bytes, expected {width * height}"
            )
        return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()

    flat = np.empty(width * height, dtype=np.int64)
    for i in range(width * height):
        flat[i] = int_token("pixel")
    skip_space()
    if pos != len(data):
        raise FormatError(f"{path}: trailing data after raster")
    if flat.min() < 0 or flat.max() > 255:
        raise FormatError(f"{path}: pixel values must lie in [0, 255]")
    return flat.astype(np.uint8).reshape(height, width)


def write_pgm(path, image, binary: bool = True) -> None:
    """Write a uint8 image as P5 (default) or P2 PGM with maxval 255."""
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
        if binary:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(np.ascontiguousarray(img).tobytes())
        else:
            fh.write(f"P2\n{width} {height}\n255\n".encode("ascii"))
            for row in img:
                fh.write(" ".join(str(int(v)) for v in row).encode("ascii"))
                fh.write(b"\n")
