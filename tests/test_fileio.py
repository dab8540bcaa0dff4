"""Serialization round-trips and format validation."""

from __future__ import annotations

import io
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lattice_body, read_bodies_oracle, read_histogram_oracle, read_tracks_oracle
from eulerdp import fileio, geometry
from eulerdp import (
    EulerHistogram,
    HistogramState,
    PrivacyParams,
    RandomSource,
    build,
    build_partition,
    convex_hull,
    perturb,
)
from eulerdp.fileio import (
    FormatError,
    read_bodies,
    read_config,
    read_histogram,
    read_histogram_file,
    read_tracks,
    write_bodies,
    write_histogram,
    write_histogram_file,
)
from eulerdp.histogram import INTEGRAL_STATES, validate_bodies
from eulerdp.ingest import IngestConfig, IngestError, generate_synthetic


def _raw_histogram(n=4, origin=(0.0, 0.0), diameter_bound=None):
    rng = np.random.default_rng(13)
    p = build_partition(float(n), n, origin)
    bodies = []
    for _ in range(20):
        b = lattice_body(rng, float(n))
        bodies.append(convex_hull(b.vertices + np.asarray(origin)))
    return build(bodies, p, diameter_bound=diameter_bound)


def _dump(h) -> str:
    buf = io.StringIO()
    write_histogram(h, buf)
    return buf.getvalue()


def test_raw_roundtrip_is_exact():
    h = _raw_histogram(origin=(2.5, -1.25))
    text = _dump(h)
    back = read_histogram(io.StringIO(text))
    assert back.partition == h.partition
    assert back.state is h.state
    assert back.epsilon is None and back.diameter_bound is None
    assert np.array_equal(back.counts, h.counts)
    assert _dump(back) == text  # stable under rewrite


def test_noisy_roundtrip_is_bit_exact():
    h = _raw_histogram(diameter_bound=6.0)  # above the area's diagonal
    params = PrivacyParams.for_partition(1.0 / 3.0, 6.0, h.partition)
    noisy = perturb(h, params, RandomSource(55))
    text = _dump(noisy)
    back = read_histogram(io.StringIO(text))
    assert np.array_equal(back.counts, noisy.counts)  # repr round-trips floats
    assert back.epsilon == noisy.epsilon
    assert back.diameter_bound == 6.0
    assert back.state is HistogramState.NOISY
    assert _dump(back) == text


def test_header_and_section_layout():
    h = _raw_histogram()
    text = _dump(h)
    lines = text.splitlines()
    assert lines[0] == "euler-histogram v1"
    assert lines[1] == "state: raw"
    assert "epsilon" not in text
    assert "faces 4 4" in lines
    assert "horizontal-edges 3 4" in lines
    assert "vertical-edges 4 3" in lines
    assert "vertices 3 3" in lines
    # integral states serialize as plain integers
    body_lines = lines[lines.index("faces 4 4") + 1 :]
    assert all("." not in l for l in body_lines if l and not l[0].isalpha())


def test_file_roundtrip(tmp_path):
    h = _raw_histogram()
    path = tmp_path / "h.txt"
    write_histogram_file(h, str(path))
    back = read_histogram_file(str(path))
    assert np.array_equal(back.counts, h.counts)


def _mutate(text: str, old: str, new: str) -> io.StringIO:
    assert old in text
    return io.StringIO(text.replace(old, new, 1))


def test_read_rejects_malformed_inputs():
    text = _dump(_raw_histogram())
    with pytest.raises(FormatError, match="header"):
        read_histogram(_mutate(text, "euler-histogram v1", "euler histogram"))
    with pytest.raises(FormatError, match="bad or missing"):
        read_histogram(_mutate(text, "state: raw", "state: fuzzy"))
    with pytest.raises(FormatError, match="bad or missing"):
        read_histogram(_mutate(text, "n: 4", "m: 4"))
    with pytest.raises(FormatError, match="cell_side"):
        read_histogram(_mutate(text, "cell_side: 1.0", "cell_side: 2.0"))
    with pytest.raises(FormatError, match="expected section header"):
        read_histogram(_mutate(text, "faces 4 4", "faces 4 5"))
    with pytest.raises(FormatError, match="expected 3 values"):
        read_histogram(_mutate(text, "vertices 3 3\n", "vertices 3 3\n77 "))
    truncated = "\n".join(text.splitlines()[:10])
    with pytest.raises(FormatError):
        read_histogram(io.StringIO(truncated))


@pytest.mark.parametrize(
    "line, bad, message",
    [
        ("epsilon", "nan", "epsilon: must be finite and positive, got nan"),
        ("epsilon", "inf", "epsilon: must be finite and positive, got inf"),
        ("epsilon", "0.0", "epsilon: must be finite and positive, got 0.0"),
        ("epsilon", "abc", "epsilon: could not convert string to float"),
        ("diameter_bound", "-5", "diameter_bound: must be finite and positive, got -5"),
        ("cell_side", "x", "cell_side: could not convert string to float"),
        ("area_side", "abc", "area_side: could not convert string to float"),
        ("area_side", "-4.0", "area_side must be positive and finite"),
        ("origin_x", "y", "origin_x: could not convert string to float"),
        ("n", "4.0", "n: invalid literal for int"),
        ("n", "1", "grid resolution n must be at least 2"),
        ("state", "fuzzy", "state: 'fuzzy' is not a valid HistogramState"),
    ],
)
def test_read_names_a_bad_header_field(line, bad, message):
    h = _raw_histogram(origin=(0.5, 0.0), diameter_bound=6.0)
    params = PrivacyParams.for_partition(0.5, 6.0, h.partition)
    text = _dump(perturb(h, params, RandomSource(3)))
    old = next(l for l in text.splitlines() if l.startswith(f"{line}: "))
    with pytest.raises(FormatError, match=f"^bad or missing header field.*{re.escape(message)}"):
        read_histogram(_mutate(text, old, f"{line}: {bad}"))


def test_read_rejects_content_after_the_vertices_section():
    text = _dump(_raw_histogram())
    end = len(text.splitlines())
    for extra, bad in (("5 5 5 5\ngarbage\n", end + 1), ("\n  \ngarbage\n", end + 3)):
        with pytest.raises(FormatError, match=f"after the vertices section at line {bad}$"):
            read_histogram(io.StringIO(text + extra))
    # blank lines after the counts still read to the same histogram
    back = read_histogram(io.StringIO(text + "\n \t\n\n"))
    assert np.array_equal(back.counts, read_histogram(io.StringIO(text)).counts)


def test_read_checks_the_line_count_before_allocating():
    """A six-line file whose header claims n = 300000 would need 2.6 TiB of
    counts; it is refused as truncated, with no large allocation."""
    text = (
        "euler-histogram v1\nstate: rounded\narea_side: 1.0\nn: 300000\n"
        "faces 300000 300000\n0\n"
    )
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"n=300000 needs 1200002 section lines, found 2"):
            read_histogram(io.StringIO(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one row short of the 4n - 2 rows at n = 4
    lines = _dump(_raw_histogram()).splitlines()
    with pytest.raises(FormatError, match="n=4 needs 18 section lines, found 17"):
        read_histogram(io.StringIO("\n".join(lines[:-1])))


def test_read_rejects_bad_values():
    text = _dump(_raw_histogram())
    first_count_line = text.splitlines()[text.splitlines().index("faces 4 4") + 1]
    with pytest.raises(FormatError, match="non-finite"):
        read_histogram(_mutate(text, first_count_line, "inf " + first_count_line[2:]))
    with pytest.raises(FormatError, match="non-integral"):
        read_histogram(_mutate(text, first_count_line, "0.5 " + first_count_line[2:]))
    # a count that is no number names its section and row
    with pytest.raises(FormatError, match="^section 'faces' row 0: could not convert string to float: 'abc'$"):
        read_histogram(_mutate(text, first_count_line, "abc " + first_count_line[2:]))
    lines = text.splitlines()
    last_vertex_row = lines[-1]
    with pytest.raises(FormatError, match="^section 'vertices' row 2: could not convert"):
        read_histogram(io.StringIO("\n".join(lines[:-1] + [last_vertex_row[:-1] + "x"])))


def _line(i: int, new: str):
    return lambda lines: lines[:i] + [new] + lines[i + 1 :]


# Lines 8-11 of the n=4 raw file are the faces rows, 13-15 the horizontal
# edges, 17-20 the vertical edges and 22-24 the vertices; each text is the
# one reading row by row gave.
_BAD_COUNTS = {
    "short row": (_line(9, "7 10 13"), "section 'faces' row 1: expected 4 values"),
    "long row": (_line(15, "3 5 5 5 9"), "section 'horizontal-edges' row 2: expected 4 values"),
    "bad token in faces": (
        _line(8, "abc 5 8 6"), "section 'faces' row 0: could not convert string to float: 'abc'"),
    "bad token in vertices": (
        _line(24, "1 4 4x"), "section 'vertices' row 2: could not convert string to float: '4x'"),
    "bad token above a short row": (
        lambda lines: _line(19, "5 8")(_line(17, "2 x 5")(lines)),
        "section 'vertical-edges' row 0: could not convert string to float: 'x'",
    ),
    "short row above a bad token": (
        lambda lines: _line(20, "2 y 5")(_line(18, "4 9")(lines)),
        "section 'vertical-edges' row 1: expected 3 values",
    ),
    "truncated": (lambda lines: lines[:-1], "truncated histogram: n=4 needs 18 section lines, found 17"),
    "trailing content": (
        lambda lines: lines + ["5 5 5 5", "garbage"], "unexpected content after the vertices section at line 26"),
}


@pytest.mark.parametrize("case", list(_BAD_COUNTS))
def test_read_names_bad_counts_as_row_by_row_reading_did(case):
    """Each edit raises the text reading row by row gave before numpy's text
    reader: the first bad row, named by its section and index."""
    lines = _dump(_raw_histogram()).splitlines()
    assert lines[7:9] == ["faces 4 4", "4 5 8 6"] and lines[21:] == ["vertices 3 3", "2 3 5", "3 7 8", "1 4 4"]
    edit, message = _BAD_COUNTS[case]
    with pytest.raises(FormatError) as err:
        read_histogram(io.StringIO("\n".join(edit(lines)) + "\n"))
    assert str(err.value) == message


def test_read_converts_counts_in_bounded_blocks():
    """Reading an n=300 release (360 000 counts) needs its lines, two copies
    of its counts (read, and the histogram's own), one section as numpy's
    text reader gives it and the finiteness mask: not a token list per file
    or per section, whose strings alone would take 4 MiB or more, nor a
    full-size temporary checking integrality."""
    p = build_partition(300.0, 300)
    h = EulerHistogram(p, np.random.default_rng(0).integers(0, 1000, p.size), HistogramState.ROUNDED)
    text = _dump(h)
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        back = read_histogram(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.counts.tobytes() == h.counts.tobytes()
    assert peak < len(text) + 2.5 * h.counts.nbytes + (1 << 20)


def test_writer_files_take_numpys_text_reader():
    """Files as the writer makes them, at every state and at n=2 (whose
    sections hold one column or one row), never reach the row-by-row
    conversion."""
    rng = np.random.default_rng(5)
    for n in (2, 3, 7):
        p = build_partition(float(n), n)
        for state in HistogramState:
            integral = state in INTEGRAL_STATES
            counts = rng.integers(0, 2**40, p.size) if integral else rng.normal(0.0, 1e3, p.size)
            h = EulerHistogram(p, counts, state)
            with mock.patch.object(fileio, "_convert_rows", side_effect=AssertionError):
                back = read_histogram(io.StringIO(_dump(h)))
            assert back.counts.tobytes() == h.counts.tobytes()


_SEPARATORS = [" ", " ", " ", "  ", "\t", " \t", "\t\t  "]
# a -0 token reads differently in an integral file only, so only the real
# states draw it here; test_minus_zero_in_an_integral_file_reads_as_zero pins it
_INTEGERS = ["0", "1", "2", "5", "17", "4096", str(2**53 + 1), str(2**63 - 1), str(-(2**63))]
_REALS = _INTEGERS + ["0.5", "-1.25", "3.0", "0.1", "0.30000000000000004", "1e-300", "-2.5e17", "-0"]
_ODD = [
    "+5", "007", "3.0", "1e3", "-0.0", "1_0", "\u0663", "\uff11\uff12", "1\u01fe2", "\u0663.5",
    str(2**63), str(2**64 + 3), str(-(2**63) - 1), "9" * 30, "nan", "-inf", "inf", "1e400",
    "abc", "0x10", "0.5", "-", "--1", "1-", "2#",
]


@st.composite
def _histogram_texts(draw):
    """A histogram file at n = 2..4 whose count lines draw plain tokens,
    the unusual tokens of ``_ODD``, runs of spaces and tabs, and short,
    long and blank rows."""
    n = draw(st.integers(2, 4))
    state = draw(st.sampled_from(list(HistogramState)))
    plain = st.sampled_from(_INTEGERS if state in INTEGRAL_STATES else _REALS)
    odd_rate, shape_rate = draw(st.sampled_from([0, 0, 5, 30])), draw(st.sampled_from([0, 0, 0, 3]))
    lines = [fileio.MAGIC, f"state: {state.value}", f"area_side: {n}.0", f"n: {n}"]
    for name, rows, cols in zip(fileio._SECTION_NAMES, (n, n - 1, n, n - 1), (n, n, n - 1, n - 1)):
        lines.append(f"{name} {rows} {cols}")
        for _ in range(rows):
            tokens = [
                draw(st.sampled_from(_ODD)) if draw(st.integers(0, 99)) < odd_rate else draw(plain)
                for _ in range(cols)
            ]
            if draw(st.integers(0, 99)) < shape_rate:
                tokens = draw(st.sampled_from([tokens[:-1], tokens + ["1"], [], ["  "]]))
            lead, trail = (draw(st.sampled_from(["", "", " ", "\t"])) for _ in range(2))
            lines.append(lead + draw(st.sampled_from(_SEPARATORS)).join(tokens) + trail)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "\n\n", "\n  \n", "\n7\n"]))


def _read_result(read, text: str):
    """The state and count bytes ``read`` gives, or its FormatError text; a
    warning fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = read(io.StringIO(text))
    except FormatError as e:
        return str(e)
    return h.state, h.counts.tobytes()


def _n2(state: str, *faces: str) -> str:
    """An n=2 file with the given faces rows and zeros elsewhere."""
    sections = ["faces 2 2", *faces, "horizontal-edges 1 2", "0 0", "vertical-edges 2 1", "0", "0", "vertices 1 1", "0"]
    return "\n".join([fileio.MAGIC, f"state: {state}", "area_side: 2.0", "n: 2", *sections]) + "\n"


@given(text=_histogram_texts())
@example(text=_n2("raw", "1\u01fe2 0", "0 0"))  # numpy's integer parser reads 4722
@example(text=_n2("rounded", "0 0 0 0", ""))  # loadtxt skips the blank row: shape (1, 4)
@example(text=_n2("consistent", "", "  "))  # a section with no data
@settings(max_examples=400, deadline=None)
def test_read_matches_the_row_by_row_oracle(text):
    """Each file reads to the counts the row-by-row ``float()`` oracle gives,
    byte for byte, or raises its FormatError text."""
    assert _read_result(read_histogram, text) == _read_result(read_histogram_oracle, text)


@pytest.mark.parametrize("state", [HistogramState.RAW, HistogramState.ROUNDED])
def test_minus_zero_in_an_integral_file_reads_as_zero(state):
    """The one difference from the oracle: numpy's integer parser reads
    ``-0`` as 0, so an integral file's ``-0`` reads as 0.0, not -0.0, unless
    its section holds a token only ``float()`` reads. The writer writes 0
    for -0.0, so it never writes the token."""
    p = build_partition(2.0, 2)
    counts = np.zeros(p.size)
    counts[0] = -0.0
    text = _dump(EulerHistogram(p, counts, state))
    assert "-0" not in text
    lines = text.splitlines()
    row = lines.index("faces 2 2") + 1
    assert lines[row] == "0 0"
    edited = "\n".join(lines[:row] + ["-0 0"] + lines[row + 1 :])
    got, want = read_histogram(io.StringIO(edited)), read_histogram_oracle(io.StringIO(edited))
    assert np.array_equal(got.counts, want.counts)
    assert np.signbit(want.counts[0]) and not np.signbit(got.counts).any()
    edited = "\n".join(lines[:row] + ["-0 0.0"] + lines[row + 1 :])
    got, want = read_histogram(io.StringIO(edited)), read_histogram_oracle(io.StringIO(edited))
    assert got.counts.tobytes() == want.counts.tobytes() and np.signbit(got.counts[0])


def test_non_integral_ok_for_real_states():
    h = _raw_histogram()
    fractional = h.with_counts(h.counts + 0.25, HistogramState.CONSISTENT)
    back = read_histogram(io.StringIO(_dump(fractional)))
    assert np.array_equal(back.counts, fractional.counts)


def test_bodies_roundtrip():
    tri = convex_hull([(0.0, 0.0), (2.0, 0.0), (1.0, 1.5)])
    seg = convex_hull([(3.0, 3.0), (4.0, 4.0)])
    buf = io.StringIO()
    write_bodies([tri, seg], buf, user_ids=["alice", "bob"])
    buf.seek(0)
    bodies, ids = read_bodies(buf)
    assert ids == ["alice", "bob"]
    assert np.array_equal(bodies[0].vertices, tri.vertices)
    assert np.array_equal(bodies[1].vertices, seg.vertices)


def test_bodies_default_ids_and_errors():
    tri = convex_hull([(0.0, 0.0), (2.0, 0.0), (1.0, 1.5)])
    buf = io.StringIO()
    write_bodies([tri, tri], buf)
    buf.seek(0)
    _, ids = read_bodies(buf)
    assert ids == ["u0", "u1"]
    with pytest.raises(FormatError, match="length mismatch"):
        write_bodies([tri], io.StringIO(), user_ids=["a", "b"])
    with pytest.raises(FormatError, match="line 2"):
        read_bodies(io.StringIO('{"user_id": "a", "vertices": [[0, 0]]}\nnot json\n'))
    with pytest.raises(FormatError, match="line 1"):
        read_bodies(io.StringIO('{"vertices": [[0, 0]]}\n'))
    bodies, ids = read_bodies(io.StringIO("\n\n"))
    assert bodies == [] and ids == []


# an integer coordinate too large for a float
_HUGE_INTEGER_RECORD = '{"user_id": "a", "vertices": [[0, 0], [1' + "0" * 400 + ', 0], [0, 1]]}'


@pytest.mark.parametrize(
    "record",
    [
        '[1, 2]', '"just a string"', '{"user_id": "a", "vertices": {"x": 1}}',
        pytest.param(_HUGE_INTEGER_RECORD, id="huge integer"),
    ],
)
def test_bodies_malformed_record_is_format_error(record):
    text = '{"user_id": "a", "vertices": [[0, 0]]}\n' + record + "\n"
    with pytest.raises(FormatError, match="bodies line 2"):
        read_bodies(io.StringIO(text))


def test_bodies_writer_bytes_are_the_json_records():
    """Each line is the JSON dump of the record, byte for byte."""
    bodies = generate_synthetic(
        "clustered", 50, IngestConfig(area_side=1e4, diameter_bound=500.0, k=5), np.random.default_rng(4)
    )
    bodies += [convex_hull([(-0.0, 0.0)]), convex_hull([(1e-300, 5e-324), (1e300, -2.5)])]
    ids = [f"u{i}" for i in range(len(bodies) - 3)] + [7, "\u00e9 \"q\"", None]
    buf = io.StringIO()
    write_bodies(bodies, buf, user_ids=ids)
    want = "".join(json.dumps({"user_id": u, "vertices": b.vertices.tolist()}) + "\n" for u, b in zip(ids, bodies))
    assert buf.getvalue() == want


def test_read_bodies_fill_in_bbox_and_diameter_from_one_block():
    bodies = generate_synthetic(
        "uniform", 40, IngestConfig(area_side=1e4, diameter_bound=500.0, k=5), np.random.default_rng(5)
    )
    buf = io.StringIO()
    write_bodies(bodies, buf)
    buf.seek(0)
    got, _ = read_bodies(buf)
    base = got[0].vertices.base
    assert base is not None and not base.flags.writeable
    assert all(b.vertices.base is base and "cached_diameter" in b.__dict__ for b in got)
    with mock.patch.object(geometry, "diameter", side_effect=AssertionError("recomputed")):
        kept, rejected = validate_bodies(got, build_partition(1e4, 8), diameter_bound=500.0)
    assert len(kept) == 40 and rejected == []


def test_bodies_records_never_share_or_span_lines():
    """Two records on one line, and one record over two lines: the joined
    text of the three lines is a valid array of three records, yet the
    first line is refused, as reading a record at a time refuses it."""
    text = (
        '{"user_id": "a", "vertices": [[0, 0]]}, {"user_id": "b", "vertices": [[0, 0]]}\n'
        '{"user_id": "c", "vertices": [[0, 0], [1, 0]\n'
        "[1, 1]]}\n"
    )
    assert len(json.loads("[" + ",".join(text.splitlines()) + "]")) == 3
    want = _bodies_result(read_bodies_oracle, text)
    assert want.startswith("bodies line 1: Extra data")
    assert _bodies_result(read_bodies, text) == want


def _body_line(uid, vertices) -> str:
    return json.dumps({"user_id": uid, "vertices": vertices})


_BULK_BODIES = [
    _body_line(f"u{i}", b.vertices.tolist())
    for i, b in enumerate(
        generate_synthetic(
            "concentrated", 700, IngestConfig(area_side=1e4, diameter_bound=500.0, k=5), np.random.default_rng(6)
        )
    )
]

_ODD_BODY_LINES = [
    "",
    "   ",
    "[1, 2]",
    '"just a string"',
    "3",
    "null",
    "not json",
    '{"user_id": "a", "vertices": [[0, 0]]} trailing',
    '{"vertices": [[0, 0]]}',
    '{"user_id": "a"}',
    '{"user_id": "a", "vertices": [[0, 0], [1]]}',
    '{"user_id": "a", "vertices": [[0, 0, 0], [1, 1, 1]]}',
    '{"user_id": "a", "vertices": []}',
    '{"user_id": "a", "vertices": [[]]}',
    '{"user_id": "a", "vertices": [["x", "y"]]}',
    '{"user_id": "a", "vertices": [["1.5", " 2 "]]}',
    '{"user_id": "a", "vertices": [[null, 1]]}',
    '{"user_id": "a", "vertices": [[true, 0], [false, 1]]}',
    '{"user_id": "a", "vertices": {"x": 1}}',
    '{"user_id": "a", "vertices": "ab"}',
    '{"user_id": "a", "vertices": 5}',
    '{"user_id": "a", "vertices": [[[0, 0]]]}',
    '{"user_id": "a", "vertices": [[NaN, 0]]}',
    '{"user_id": "a", "vertices": [[Infinity, 0], [0, 1]]}',
    '{"user_id": "a", "vertices": [[0, 0], [0, 1], [1, 0]]}',
    '{"user_id": 7, "vertices": [[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]]}',
    '{"user_id": [1], "vertices": [[0, 0], [2, 0]], "extra": 1}',
    '{"user_id": "z", "vertices": [[-0.0, 0.0], [0.0, -0.0]]}',
    '{"user_id": "z", "vertices": [[0.0, -0.0], [1.0, 0.0], [-0.0, 1.0]]}',
    _HUGE_INTEGER_RECORD,
]


@st.composite
def _body_lines(draw) -> str:
    """A record line: a hull, the hull turned clockwise, three points nearly
    collinear about the slack, or points in any order; at coordinate scales
    where the slack underflows (1e-160) or is huge (1e150)."""
    scale = draw(st.sampled_from([1e-160, 1.0, 37.5, 1e150]))
    kind = draw(st.sampled_from(["hull", "clockwise", "collinear", "points"]))
    uid = draw(st.sampled_from(["a", "b c", 7, None, "\u00e9"]))
    if kind == "collinear":  # the third turn is -f/4 of the slack's scale
        f = draw(st.sampled_from([-8e-9, -4.000001e-9, -4e-9, -3.999999e-9, -1e-12, 0.0, 1e-9]))
        verts = [[0.0, 0.0], [scale, scale], [2.0 * scale, 2.0 * scale + f * scale]]
        turn = draw(st.integers(0, 2))
        return _body_line(uid, verts[turn:] + verts[:turn])
    pts = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=7))
    verts = [[x * scale, y * scale] for x, y in pts]
    if kind != "points":
        try:
            verts = convex_hull(np.array(verts)).vertices.tolist()
        except ValueError:  # a junction turn the hull refuses: keep the points
            pass
        if kind == "clockwise":
            verts.reverse()
    return _body_line(uid, verts)


def _bodies_result(read, text: str):
    """What a reader makes of ``text``: ids, and each body's vertex, bbox
    and diameter bytes; or the FormatError's text."""
    try:
        bodies, ids = read(io.StringIO(text))
    except FormatError as e:
        return str(e)
    with np.errstate(over="ignore"):  # diameter() of coordinates near 1e308
        return ids, [
            (b.vertices.tobytes(), np.array(b.bbox).tobytes(), np.float64(b.cached_diameter).tobytes())
            for b in bodies
        ]


@given(
    prefix=st.integers(0, len(_BULK_BODIES)),
    lines=st.lists(st.one_of(st.sampled_from(_ODD_BODY_LINES), _body_lines()), max_size=10),
    ending=st.sampled_from(["\n", "\r\n"]),
    block=st.sampled_from([None, 1, 7, 256]),
    check=st.sampled_from([None, 1, 50]),
)
@settings(max_examples=150, deadline=None)
def test_bodies_reader_matches_the_line_by_line_oracle(prefix, lines, ending, block, check):
    """Up to several hundred good records, then drawn ones, late in their
    block: the same ids, vertex, bbox and diameter bytes as reading and
    checking one record at a time, or the same FormatError."""
    text = "".join(line + ending for line in _BULK_BODIES[:prefix] + lines)
    with mock.patch.multiple(fileio, BODIES_BLOCK=block or fileio.BODIES_BLOCK), mock.patch.multiple(
        geometry, PAIRWISE_BLOCK=check or geometry.PAIRWISE_BLOCK
    ):
        got = _bodies_result(read_bodies, text)
    assert got == _bodies_result(read_bodies_oracle, text)


def test_tracks_parsing():
    text = (
        "user_id, lat, lon, timestamp\n"
        "# comment\n"
        "a, 47.62, -122.33, 2024-01-01T08:00:00\n"
        "b, 47.63, -122.30\n"
        "\n"
        "a, 47.61, -122.34, 2024-01-01T09:00:00\n"
    )
    tracks = read_tracks(io.StringIO(text))
    assert [t.user_id for t in tracks] == ["a", "b"]
    assert tracks[0].points.tolist() == [[47.62, -122.33], [47.61, -122.34]]
    assert tracks[1].points.tolist() == [[47.63, -122.30]]


def test_tracks_partial_timestamps_dropped():
    """A fourth field is accepted and ignored: the rows read to the same
    users and point bytes as they do without it."""
    text = "a, 1.0, 2.0, t1\na, 1.1, 2.1\n"
    assert _tracks_result(read_tracks, text) == _tracks_result(read_tracks, _without_fourth_fields(text))
    assert [len(t.points) for t in read_tracks(io.StringIO(text))] == [2]


def test_tracks_errors():
    with pytest.raises(IngestError, match="expected 3 or 4 fields"):
        read_tracks(io.StringIO("a, 1.0\n"))
    with pytest.raises(IngestError, match="bad coordinates"):
        read_tracks(io.StringIO("a, 1.0, 2.0\nb, x, y\n"))
    assert read_tracks(io.StringIO("# nothing\n")) == []


def _tracks_result(read, text: str):
    """What a parser makes of ``text``: the tracks as plain values, or the
    error's type and message."""
    try:
        tracks = read(io.StringIO(text))
    except IngestError as e:
        return type(e).__name__, str(e)
    return [(t.user_id, t.points.tobytes()) for t in tracks]


def _without_fourth_fields(text: str) -> str:
    return "".join(",".join(line.split(",")[:3]) + "\n" for line in text.splitlines())


_BULK = "".join(f"u{i % 7},{47.6 + i * 1e-5!r},{-122.3 - i * 1e-5!r}\n" for i in range(600))


@pytest.mark.parametrize(
    "late, message",
    [
        ("u3, 47.6, -122.3, t, x", "tracks line 602: expected 3 or 4 fields, got 5"),
        ("u3, 47.6", "tracks line 602: expected 3 or 4 fields, got 2"),
        ("u3, 47.6x , -122.3", "tracks line 602: bad coordinates '47.6x', '-122.3'"),
        ("u3,  , -122.3, t", "tracks line 602: bad coordinates '', '-122.3'"),
    ],
    ids=["five-fields", "two-fields", "bad-lat", "empty-lat"],
)
def test_tracks_late_errors_name_their_line(late, message):
    text = "user_id,lat,lon\n" + _BULK + late + "\nu1, 47.6, -122.3\n"
    with pytest.raises(IngestError) as exc:
        read_tracks(io.StringIO(text))
    assert str(exc.value) == message


def test_tracks_whitespace_around_fields():
    text = "  a ,\t47.625 ,  -122.25\t, 2024-01-01T08:00:00  \r\n a,47.5,-122.5,t2\n"
    (track,) = read_tracks(io.StringIO(text))
    assert track.user_id == "a"
    assert track.points.tolist() == [[47.625, -122.25], [47.5, -122.5]]


def test_tracks_header_only_before_first_data_row():
    header = "USER_ID , Lat , Lon\n"
    text = "# tracks\n\n" + header + "a, 1.0, 2.0\n"
    assert [t.user_id for t in read_tracks(io.StringIO(text))] == ["a"]
    with pytest.raises(IngestError) as exc:
        read_tracks(io.StringIO("a, 1.0, 2.0\n" + header))
    assert str(exc.value) == "tracks line 2: bad coordinates 'Lat', 'Lon'"
    with pytest.raises(IngestError) as exc:
        read_tracks(io.StringIO("someone, lat, lon\n"))
    assert str(exc.value) == "tracks line 1: bad coordinates 'lat', 'lon'"


def test_tracks_mixed_and_partial_timestamps():
    text = (
        "a, 1.0, 2.0, t1\n"
        "b, 1.0, 2.0, s1\n"
        "a, 1.1, 2.1, t2\n"
        "b, 1.1, 2.1\n"
        "c, 1.2, 2.2\n"
    )
    got = _tracks_result(read_tracks, text)
    assert [uid for uid, _ in got] == ["a", "b", "c"]
    assert got == _tracks_result(read_tracks, _without_fourth_fields(text))


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf"])
def test_tracks_non_finite_coordinates(value):
    with pytest.raises(IngestError) as exc:
        read_tracks(io.StringIO(f"a, 1.0, 2.0\nb, {value}, 2.0\n"))
    assert str(exc.value) == "user 'b': coordinates outside valid ranges"


_FIELD = st.sampled_from(["a", " b ", "user_id", "USER_ID", "lat", "1.5", " -2.25 ", "nan", "x", "", "#c", "t1"])

# a data row, most often a good one: numeric ids, and tokens float() reads its own way
_ROW = st.tuples(
    st.sampled_from(["1", "2", " 3 ", "3", "a", "user_id", "#x"]),
    st.sampled_from(["1.5", "1_0", "+5", "\u0661", " -2 ", "lat", "nan", "91", ""]),
    st.sampled_from(["2.5", "-0.0", " 7 ", "lon", "x"]),
    st.sampled_from([None, "t", " t2 ", ""]),
).map(lambda r: ",".join(f for f in r if f is not None))


@given(
    rows=st.lists(
        st.one_of(
            st.lists(_FIELD, min_size=1, max_size=5).map(",".join),
            st.sampled_from(["", "   ", "# note", "  # a, b, c", ",,", "a,1,2", "b, 3 ,4, t"]),
            _ROW,
        ),
        max_size=40,
    ),
    ending=st.sampled_from(["\n", "\r\n"]),
    block=st.sampled_from([None, 1, 2, 5, 16]),
)
@settings(max_examples=300, deadline=None)
def test_tracks_parser_matches_plain_oracle(rows, ending, block):
    """Same tracks, or the same error with the same line number, as the
    plain strip-everything parser; in blocks of a few lines too, so that
    users, column-name rows and errors fall in later blocks."""
    text = "".join(row + ending for row in rows)
    with mock.patch.object(fileio, "TRACKS_BLOCK", block or fileio.TRACKS_BLOCK):
        got = _tracks_result(read_tracks, text)
    assert got == _tracks_result(read_tracks_oracle, text)


def _writer_tracks(users: int, pings: int, seed: int, uid=lambda u: f"u{u}") -> str:
    """A tracks file as the tracks-cli benchmark writes one: a column-name
    row, then each user's pings in one run, repr coordinates."""
    rng = np.random.default_rng(seed)
    lines = ["user_id,lat,lon"]
    for u in range(users):
        lat = 47.62 + rng.normal(0.0, 0.01, pings)
        lon = -122.33 + rng.normal(0.0, 0.01, pings)
        lines.extend(f"{uid(u)},{a!r},{b!r}" for a, b in zip(lat.tolist(), lon.tolist()))
    return "\n".join(lines) + "\n"


_SECOND_BLOCK = _writer_tracks(60, 2 * fileio.TRACKS_BLOCK // 60 + 1, 3, uid=lambda u: str(17 * u % 60))


@pytest.mark.parametrize(
    "bad, message",
    [
        ("5, 47.6, -122.3, t, x", "expected 3 or 4 fields, got 5"),
        ("5, 47.6", "expected 3 or 4 fields, got 2"),
        ("5, 47.6x , -122.3", "bad coordinates '47.6x', '-122.3'"),
        ("user_id, lat, lon", "bad coordinates 'lat', 'lon'"),
        ("5, 1_0x, 2", "bad coordinates '1_0x', '2'"),
    ],
    ids=["five-fields", "two-fields", "bad-lat", "header-after-data", "bad-underscore"],
)
def test_tracks_error_late_in_the_second_block(bad, message):
    """A bad line late in the second block of a file whose user ids are
    numbers, so a misread column would still parse as floats."""
    lines = _SECOND_BLOCK.splitlines(keepends=True)
    at = 2 * fileio.TRACKS_BLOCK - 5  # 0-based
    text = "".join(lines[:at] + [bad + "\n"] + lines[at:])
    want = _tracks_result(read_tracks_oracle, text)
    assert want == ("IngestError", f"tracks line {at + 1}: {message}")
    assert _tracks_result(read_tracks, text) == want


@pytest.mark.parametrize("block", [2, None])
def test_tracks_header_opening_a_later_block_is_refused(block):
    """A column-name row that opens a block after data rows is an error."""
    block = block or fileio.TRACKS_BLOCK
    text = "user_id,lat,lon\n" + "a,1.0,2.0\n" * (block - 1) + "user_id,lat,lon\nb,3.0,4.0\n"
    with mock.patch.object(fileio, "TRACKS_BLOCK", block):
        got = _tracks_result(read_tracks, text)
    assert got == _tracks_result(read_tracks_oracle, text)
    assert got == ("IngestError", f"tracks line {block + 1}: bad coordinates 'lat', 'lon'")


def test_tracks_keep_a_newline_inside_a_line(tmp_path):
    """A stream that ends lines at '\\r' alone keeps a '\\n' inside a line,
    and float() refuses a coordinate holding one."""
    path = tmp_path / "tracks.csv"
    path.write_bytes(b"a,7\n8,1.0\rb,1.0,2.0\r")
    for read in (read_tracks, read_tracks_oracle):
        with open(path, newline="\r") as f, pytest.raises(IngestError) as exc:
            read(f)
        assert str(exc.value) == "tracks line 1: bad coordinates '7\\n8', '1.0'"


def test_tracks_across_blocks_match_the_oracle():
    """Three blocks and more of users interleaved and split across blocks,
    numeric ids, CRLF endings, timestamps on some users only, comments,
    blank lines and tokens float() reads its own way."""
    rng = np.random.default_rng(9)
    rows = []
    for i in range(3 * fileio.TRACKS_BLOCK + 11):
        u = int(rng.integers(0, 40)) if i % 3 else i // 300
        lat = rng.choice([f"{rng.uniform(-90, 90)!r}", "1_0", "+5", " \u0661\u0662 ", "-0.0"])
        row = f"{u}, {lat},{rng.uniform(-180, 180)!r}"
        rows.append(row + (f", t{i} " if u % 4 == 0 else ""))
        if i % 997 == 0:
            rows.append("# a, comment, here" if i % 2 else "")
    text = "user_id,lat,lon\r\n" + "".join(row + "\r\n" for row in rows)
    got = _tracks_result(read_tracks, text)
    assert got == _tracks_result(read_tracks_oracle, text)
    assert len(got) == 40


def test_writer_shaped_tracks_take_no_per_line_search():
    text = _writer_tracks(30, 100, 11)
    with mock.patch.object(fileio, "_bad_row", side_effect=AssertionError("per-line search")):
        tracks = read_tracks(io.StringIO(text))
    assert len(tracks) == 30 and all(len(t.points) == 100 for t in tracks)


def test_tracks_reader_memory_is_bounded_by_its_blocks():
    """A tracks-cli-sized file (60k pings) read in blocks peaks below 8 MB,
    of which the tracks themselves are about 1.3 MB; one block of the whole
    file, a token list as long as the file, peaks well above."""
    text = _writer_tracks(1000, 60, 12)

    def peak() -> float:
        stream = io.StringIO(text)
        tracemalloc.start()
        try:
            read_tracks(stream)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    assert peak() < 8.0
    with mock.patch.object(fileio, "TRACKS_BLOCK", 1 << 20):
        assert peak() > 12.0


def test_config_parsing():
    text = (
        "# experiment\n"
        "area_side = 20000\n"
        "epsilon=1.0\n"
        "epsilon = 0.5\n"
        "  synthetic =  uniform \n"
    )
    got = read_config(io.StringIO(text))
    assert got == {"area_side": "20000", "epsilon": "0.5", "synthetic": "uniform"}
    with pytest.raises(FormatError, match="key = value"):
        read_config(io.StringIO("area_side 20000\n"))
