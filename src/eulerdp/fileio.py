"""Text formats for histograms, bodies, tracks, and experiment configs.

Everything here is line-oriented and human-diffable. Histogram files
round-trip bit-exactly: real-valued counts are written with repr precision,
integral states as plain integers. Released files carry only public
parameters; seeds and noise draws are never written.
"""

from __future__ import annotations

import json
import warnings
from array import array
from typing import TextIO

import numpy as np

from .geometry import ConvexBody
from .grid import GridPartition, build_partition
from .histogram import EulerHistogram, HistogramState, INTEGRAL_STATES
from .ingest import IngestError, UserTrack

MAGIC = "euler-histogram v1"


class FormatError(ValueError):
    pass


def _fmt(value: float, integral: bool) -> str:
    return str(int(value)) if integral else repr(float(value))


# one block per section of GridPartition.sections, in dense order
_SECTION_NAMES = ("faces", "horizontal-edges", "vertical-edges", "vertices")


def write_histogram(h: EulerHistogram, stream: TextIO) -> None:
    p = h.partition
    integral = h.state in INTEGRAL_STATES
    lines = [
        MAGIC,
        f"state: {h.state.value}",
        f"area_side: {p.area_side!r}",
        f"n: {p.n}",
        f"cell_side: {p.cell_side!r}",
        f"origin_x: {p.origin[0]!r}",
        f"origin_y: {p.origin[1]!r}",
    ]
    if h.epsilon is not None:
        lines.append(f"epsilon: {h.epsilon!r}")
    if h.diameter_bound is not None:
        lines.append(f"diameter_bound: {h.diameter_bound!r}")
    for name, block in zip(_SECTION_NAMES, p.sections(h.counts)):
        lines.append(f"{name} {block.shape[0]} {block.shape[1]}")
        for row in block:
            lines.append(" ".join(_fmt(v, integral) for v in row))
    stream.write("\n".join(lines) + "\n")


def write_histogram_file(h: EulerHistogram, path: str) -> None:
    with open(path, "w") as f:
        write_histogram(h, f)


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):  # refuses nan too
        raise ValueError(f"must be finite and positive, got {text}")
    return value


def _field(header: dict[str, str], key: str, parse, default: str | None = None):
    """``parse`` of a header value, or a FormatError naming the field."""
    text = header.get(key, default)
    if text is None:
        raise FormatError(f"bad or missing header field: {key}")
    try:
        return parse(text)
    except ValueError as e:
        raise FormatError(f"bad or missing header field {key}: {e}") from e


def _read_header(lines: list[str]) -> tuple[GridPartition, HistogramState, float | None, float | None, int]:
    """The partition, state, epsilon and diameter bound a histogram file's
    header gives, and the index of the first line after it."""
    if not lines or lines[0] != MAGIC:
        raise FormatError(f"not a histogram file (expected {MAGIC!r} header)")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and ": " in lines[i]:
        key, _, value = lines[i].partition(": ")
        header[key] = value
        i += 1
    state = _field(header, "state", HistogramState)
    n = _field(header, "n", int)
    area_side = _field(header, "area_side", float)
    origin = (_field(header, "origin_x", float, "0.0"), _field(header, "origin_y", float, "0.0"))
    try:  # the partition refuses a bad area_side, n or origin by name
        p = build_partition(area_side, n, origin)
    except ValueError as e:
        raise FormatError(f"bad or missing header field: {e}") from e
    if "cell_side" in header and _field(header, "cell_side", float) != p.cell_side:
        raise FormatError("cell_side is inconsistent with area_side and n")
    epsilon = _field(header, "epsilon", _positive) if "epsilon" in header else None
    bound = _field(header, "diameter_bound", _positive) if "diameter_bound" in header else None
    return p, state, epsilon, bound, i


# tokens per numpy conversion in _convert_rows, which reads only the
# sections numpy's text reader refuses
PARSE_BLOCK = 1 << 14


def _convert_rows(rows: list[str], name: str, block: np.ndarray) -> None:
    """Fill ``block`` from its section's lines, one row each, a block of
    rows per numpy conversion. numpy converts each token with ``float()``;
    a token it refuses, or a row of the wrong length, is a FormatError
    naming the section and the first bad row."""
    cols = block.shape[1]
    step = max(1, PARSE_BLOCK // cols)
    for top in range(0, len(rows), step):
        chunk, tokens = rows[top : top + step], []
        for values in map(str.split, chunk):
            if len(values) != cols:
                break
            tokens += values
        good = len(tokens) // cols  # the rows before the first of the wrong length
        try:
            block[top : top + good] = np.array(tokens, dtype=np.float64).reshape(good, cols)
        except ValueError:  # name the first row holding a bad token
            for r, line in enumerate(chunk[:good], top):
                try:
                    [float(v) for v in line.split()]
                except ValueError as e:
                    raise FormatError(f"section {name!r} row {r}: {e}") from e
            raise
        if good < len(chunk):
            raise FormatError(f"section {name!r} row {top + good}: expected {cols} values")


def _load_rows(rows: list[str], dtype: type) -> np.ndarray | None:
    """numpy's C text reader on a section's lines: decimal integers for
    ``int64``, float literals for ``float64``. None where it refuses a
    token, and for lines it must not see:

    - Lines that are not ASCII: numpy's integer parser reads some other
      characters as digits (numpy 2.4 reads '1\u01fe2' as 4722).
    - A blank first line: loadtxt warns on input with no data.

    Before numpy expired it, an integer dtype read a float token through a
    DeprecationWarning, truncating it; raised, the warning refuses the
    token."""
    if not (rows[0].strip() and all(map(str.isascii, rows))):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)
        except (ValueError, OverflowError, DeprecationWarning):
            return None


def read_histogram(stream: TextIO) -> EulerHistogram:
    lines = stream.read().splitlines()
    p, state, epsilon, bound, i = _read_header(lines)
    found, needed = len(lines) - i, 4 * p.n + 2  # 4 section headers and 4n - 2 rows
    if found < needed:  # checked before the counts are allocated
        raise FormatError(f"truncated histogram: n={p.n} needs {needed} section lines, found {found}")
    dtype = np.int64 if state in INTEGRAL_STATES else np.float64
    counts = np.empty(p.size)
    for name, block in zip(_SECTION_NAMES, p.sections(counts)):
        rows, cols = block.shape
        if lines[i] != f"{name} {rows} {cols}":
            raise FormatError(f"expected section header {name!r} at line {i + 1}")
        section = lines[i + 1 : i + 1 + rows]
        i += 1 + rows
        values = _load_rows(section, dtype)
        if values is not None and values.shape == block.shape:
            block[...] = values
        else:  # numpy refused a token or the rows' shape: judge them row by row
            _convert_rows(section, name, block)
    for j in range(i, len(lines)):
        if lines[j].strip():
            raise FormatError(f"unexpected content after the vertices section at line {j + 1}")
    try:  # the constructor checks the counts against the state
        return EulerHistogram(p, counts, state, epsilon=epsilon, diameter_bound=bound)
    except ValueError as e:
        raise FormatError(str(e)) from e


def read_histogram_file(path: str) -> EulerHistogram:
    with open(path) as f:
        return read_histogram(f)


def write_bodies(
    bodies: list[ConvexBody], stream: TextIO, user_ids: list[str] | None = None
) -> None:
    """One JSON record per line: user id plus the ordered vertex list."""
    if user_ids is None:
        user_ids = [f"u{i}" for i in range(len(bodies))]
    if len(user_ids) != len(bodies):
        raise FormatError("user_ids and bodies length mismatch")
    for uid, body in zip(user_ids, bodies):
        record = {"user_id": uid, "vertices": body.vertices.tolist()}
        stream.write(json.dumps(record) + "\n")


def write_bodies_file(bodies: list[ConvexBody], path: str, user_ids: list[str] | None = None) -> None:
    with open(path, "w") as f:
        write_bodies(bodies, f, user_ids)


def read_bodies(stream: TextIO) -> tuple[list[ConvexBody], list[str]]:
    bodies: list[ConvexBody] = []
    ids: list[str] = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got {type(record).__name__}")
            uid = str(record["user_id"])
            body = ConvexBody(record["vertices"])
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"bodies line {lineno}: {e}") from e
        ids.append(uid)
        bodies.append(body)
    return bodies, ids


def read_bodies_file(path: str) -> tuple[list[ConvexBody], list[str]]:
    with open(path) as f:
        return read_bodies(f)


def read_tracks(stream: TextIO) -> list[UserTrack]:
    """Parse ``user_id, lat, lon[, timestamp]`` lines, grouped per user in
    first-appearance order. Blank lines and '#' comments are skipped; a
    leading column-name row is tolerated. Fields may carry whitespace."""
    points: dict[str, array] = {}  # flat lat, lon pairs; dicts keep first-appearance order
    stamps: dict[str, list[str]] = {}
    first_data = True
    uid_before = None
    for lineno, line in enumerate(stream, start=1):
        parts = line.split(",")
        count = len(parts)
        if count != 3 and count != 4:
            # a comment or blank line whatever its commas, else an error
            text = line.strip()
            if text and text[0] != "#":
                raise IngestError(f"tracks line {lineno}: expected 3 or 4 fields, got {count}")
            continue
        uid = parts[0].strip()
        if uid[:1] == "#":
            continue
        try:  # float() ignores surrounding whitespace itself
            lat, lon = float(parts[1]), float(parts[2])
        except ValueError:
            if first_data and uid.lower() == "user_id":
                continue
            lat_text, lon_text = parts[1].strip(), parts[2].strip()
            raise IngestError(f"tracks line {lineno}: bad coordinates {lat_text!r}, {lon_text!r}")
        first_data = False
        if uid != uid_before:  # rows of one user usually come together
            uid_before = uid
            flat = points.get(uid)
            if flat is None:
                flat = points[uid] = array("d")
                stamps[uid] = []
            user_stamps = stamps[uid]
        flat.append(lat)
        flat.append(lon)
        if count == 4:
            user_stamps.append(parts[3].strip())
    tracks = []
    for uid, flat in points.items():
        pts = np.frombuffer(flat).reshape(-1, 2)
        ts = tuple(stamps[uid]) if len(stamps[uid]) == len(pts) and stamps[uid] else None
        tracks.append(UserTrack(uid, pts, ts))
    return tracks


def read_tracks_file(path: str) -> list[UserTrack]:
    with open(path) as f:
        return read_tracks(f)


def read_config(stream: TextIO) -> dict[str, str]:
    """Flat ``key = value`` pairs; '#' comments; later keys win."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def read_config_file(path: str) -> dict[str, str]:
    with open(path) as f:
        return read_config(f)
