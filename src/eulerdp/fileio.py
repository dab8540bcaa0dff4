"""Text formats for histograms, bodies, tracks, and experiment configs.

Everything here is line-oriented and human-diffable. Histogram files
round-trip bit-exactly: real-valued counts are written with repr precision,
integral states as plain integers. Released files carry only public
parameters; seeds and noise draws are never written.
"""

from __future__ import annotations

import json
import warnings
from itertools import islice, repeat
from typing import TextIO

import numpy as np

from .geometry import ConvexBody, convex_bodies
from .grid import GridPartition, build_partition
from .histogram import EulerHistogram, HistogramState, INTEGRAL_STATES
from .ingest import _LAT_LON_LIMITS, IngestError, UserTrack

MAGIC = "euler-histogram v1"


class FormatError(ValueError):
    pass


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
        for row in block.tolist():
            lines.append(" ".join(map(str, map(int, row)) if integral else map(repr, row)))
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


def _convert_rows(rows: list[str], name: str, block: np.ndarray) -> None:
    """Fill ``block`` from its section's lines, one row each, converting
    each token with ``float()`` after checking the row's length; the first
    bad row is a FormatError naming the section and the row."""
    cols = block.shape[1]
    for r, line in enumerate(rows):
        values = line.split()
        if len(values) != cols:
            raise FormatError(f"section {name!r} row {r}: expected {cols} values")
        try:
            block[r] = [float(v) for v in values]
        except ValueError as e:
            raise FormatError(f"section {name!r} row {r}: {e}") from e


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
    """One JSON record per line: user id plus the ordered vertex list. A
    finite float's repr is its JSON text, so the vertex list is written
    with repr."""
    if user_ids is None:
        user_ids = [f"u{i}" for i in range(len(bodies))]
    if len(user_ids) != len(bodies):
        raise FormatError("user_ids and bodies length mismatch")
    stream.writelines(
        f'{{"user_id": {json.dumps(uid)}, "vertices": {body.vertices.tolist()!r}}}\n'
        for uid, body in zip(user_ids, bodies)
    )


def write_bodies_file(bodies: list[ConvexBody], path: str, user_ids: list[str] | None = None) -> None:
    with open(path, "w") as f:
        write_bodies(bodies, f, user_ids)


# lines per block of read_bodies
BODIES_BLOCK = 1 << 12


def _name_bad_body(lines: list[str], linenos: list[int]) -> None:
    """Raise the FormatError of the first record of a block that does not
    make a body on its own, naming its line."""
    for lineno, line in zip(linenos, lines):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got {type(record).__name__}")
            str(record["user_id"])
            ConvexBody(record["vertices"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise FormatError(f"bodies line {lineno}: {e}") from e


def read_bodies(stream: TextIO) -> tuple[list[ConvexBody], list[str]]:
    """Bodies and user ids from one JSON record per line; blank lines are
    skipped. A block of ``BODIES_BLOCK`` lines at a time: its records are
    parsed, their vertices converted in one numpy call, and its bodies
    checked and made together (:func:`~eulerdp.geometry.convex_bodies`).
    If any record of a block fails, the block is read again a record at a
    time, only to name the first failing line."""
    bodies: list[ConvexBody] = []
    ids: list[str] = []
    top = 0
    while block := list(islice(stream, BODIES_BLOCK)):
        stripped = [line.strip() for line in block]
        linenos = [top + i for i, line in enumerate(stripped, start=1) if line]
        lines = [line for line in stripped if line]
        top += len(block)
        if not lines:
            continue
        try:
            records = [json.loads(line) for line in lines]
            block_ids = [str(record["user_id"]) for record in records]
            vertices = [record["vertices"] for record in records]
            sizes = np.array([len(v) if type(v) is list else 0 for v in vertices])
            if not sizes.all():
                raise ValueError("vertices must be a non-empty list")
            flat = np.array([point for v in vertices for point in v], dtype=np.float64)
            if flat.shape != (sizes.sum(), 2):
                raise ValueError("vertices must be (x, y) pairs")
            bodies += convex_bodies(flat, sizes)
        except (KeyError, TypeError, ValueError, OverflowError):
            _name_bad_body(lines, linenos)
            raise
        ids += block_ids
    return bodies, ids


def read_bodies_file(path: str) -> tuple[list[ConvexBody], list[str]]:
    with open(path) as f:
        return read_bodies(f)


# lines per block of read_tracks, so no token list grows with the file
TRACKS_BLOCK = 1 << 11


def _floats(lat: str, lon: str) -> bool:
    """Whether ``float()`` reads both coordinate tokens."""
    try:
        float(lat), float(lon)
    except ValueError:
        return False
    return True


def _bad_row(pairs: list[tuple[str, str]]) -> int | None:
    """The first (lat, lon) pair ``float()`` refuses, if any: the per-line
    search behind an error, run only once a block's conversion fails."""
    return next((r for r, (lat, lon) in enumerate(pairs) if not _floats(lat, lon)), None)


def _track_block(lines: list[str], top: int, header: bool):
    """The data rows of one block of tracks lines, the block starting after
    line ``top``: their user id tokens, (rows, 2) coordinates and whether
    a column-name row may still come. A fourth field is accepted and
    ignored. Raises the block's first error in line order."""
    commas = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.intp, count=len(lines))
    keep = (commas == 2) | (commas == 3)
    stop = len(lines)  # the first line with a wrong field count
    for i in np.flatnonzero(~keep).tolist():  # blank and '#' lines pass whatever their commas
        text = lines[i].strip()
        if text and text[0] != "#":
            stop = i
            break
    keep[stop:] = False
    if "#" in "".join(lines):
        keep &= [line.lstrip()[:1] != "#" for line in lines]
    rows = np.flatnonzero(keep)
    width = commas[rows] + 1
    starts = np.cumsum(width) - width
    data = lines if len(rows) == len(lines) else [lines[i] for i in rows.tolist()]
    # a row's last token keeps its line ending, which float() and strip() drop
    tokens = np.array(",".join(data).split(","), dtype=object)
    pairs = tokens[starts[:, None] + (1, 2)]
    skip = 0  # column-name rows: before the first data row, named user_id, coordinates no float
    while (
        header and skip < len(rows) and tokens[starts[skip]].strip().lower() == "user_id"
        and not _floats(*pairs[skip])
    ):
        skip += 1
    rows, starts, pairs = rows[skip:], starts[skip:], pairs[skip:]
    try:  # numpy converts each token with float()
        coords = pairs.astype(np.float64)
    except ValueError:
        r = _bad_row(pairs.tolist())
        if r is None:
            raise
        lat, lon = pairs[r]
        raise IngestError(
            f"tracks line {top + rows[r] + 1}: bad coordinates {lat.strip()!r}, {lon.strip()!r}"
        ) from None
    if stop < len(lines):
        raise IngestError(f"tracks line {top + stop + 1}: expected 3 or 4 fields, got {commas[stop] + 1}")
    return tokens[starts], coords, header and not len(rows)


def read_tracks(stream: TextIO) -> list[UserTrack]:
    """Parse ``user_id, lat, lon[, timestamp]`` lines, grouped per user in
    first-appearance order; a fourth field is accepted and ignored. Blank
    lines and '#' comments are skipped; a column-name row is tolerated
    before the first data row. Fields may carry whitespace. A block of
    ``TRACKS_BLOCK`` lines at a time: each block's coordinates are
    converted in one numpy call, and its rows join their users a run of
    equal ids at a time."""
    users: dict[str, int] = {}  # dicts keep first-appearance order
    owners, coords = [], []
    header, top = True, 0
    while lines := list(islice(stream, TRACKS_BLOCK)):
        ids, block, header = _track_block(lines, top, header)
        top += len(lines)
        if not len(ids):
            continue
        bounds = np.concatenate([[0], np.flatnonzero(ids[1:] != ids[:-1]) + 1, [len(ids)]])
        runs = [users.setdefault(uid.strip(), len(users)) for uid in ids[bounds[:-1]].tolist()]
        owners.append(np.repeat(runs, np.diff(bounds)))
        coords.append(block)
    if not users:
        return []
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    points = np.concatenate(coords)[order]
    names = list(users)
    outside = ~(np.abs(points) <= _LAT_LON_LIMITS).all(axis=1)  # NaN fails too
    if outside.any():  # the first failing user: points are in first-appearance order
        bad = names[owner[order[outside.argmax()]]]
        raise IngestError(f"user {bad!r}: coordinates outside valid ranges")
    sizes = np.bincount(owner)
    ends = np.cumsum(sizes)
    tracks = []
    for uid, end, size in zip(names, ends.tolist(), sizes.tolist()):
        track = object.__new__(UserTrack)  # checked above, all at once
        object.__setattr__(track, "user_id", uid)
        object.__setattr__(track, "points", points[end - size : end])
        tracks.append(track)
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
