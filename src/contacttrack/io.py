"""File formats: how each input and output file but cli's report.csv and
sweep.csv is read and written.

JSON files (calibration.json, scene.json or a --scene file,
hand_schema.json, run_meta.json, gt/meta.json, report.json) are read by
read_json and written, indented, by write_json. JSON-lines streams
(detections, tracks, hand tracks, ground-truth visibility, distance
traces) are written one compact record per line, into a file the caller
holds open, byte for byte what _line (json.dumps) would write. Their
numbers, round(v, 6), get their text from one array pass (_rows_text):
write_detections writes all detection records of one frame into a
binary file, with one pass for the frame. The track and hand track line
writers and write_traces, the distance rows of one contact update, queue
their lines into a LineBlock over a binary file, which writes them with
one pass per block of BLOCK_NUMBERS numbers and when it is closed. The
visibility line writer, whose records hold no float, writes one line by
_line. All but hand tracks are read by _records,
which hands each record to the stream's parse function. It, the episode
reader and the label table reader take their lines from _lines, the one
UTF-8 line reader. Five field readers hold the rule for the typed fields
of every JSON input, the scene and the hand schema included: json_int (a
JSON integer), json_number (a finite JSON number), json_array (finite
JSON numbers of a given shape), json_list (a JSON array) and json_side
(left or right). Each raises ValueError naming the field; callers add
only range checks. Episodes are CSV (NUMBER_TEXT numbers), label tables
"<id> <name>" lines with ids in 0..255, and depth and label grids DEP1
and LBL1 binaries. A malformed input raises InputFormatError naming the
file, and the line for line-based files. Writers are deterministic so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from itertools import chain, combinations

import numpy as np

from .contact import ContactEpisode
from .errors import InputFormatError
from .geometry import CameraCalibration
from .hand_fusion import SIDES, HandInstance
from .schema import JOINT_COUNT, HandSchema
from .semantic_map import LatticeCells, no_cells

GRAVITY_AXIS = "+z"
DEPTH_GRID_MAGIC = b"DEP1"
LABEL_GRID_MAGIC = b"LBL1"
# magic -> (cell dtype, name in messages)
GRID_FORMATS = {DEPTH_GRID_MAGIC: ("<u2", "depth grid"), LABEL_GRID_MAGIC: (np.uint8, "label grid")}

EPISODE_HEADER = [
    "person_id", "side", "surface_label", "t_start", "t_stop",
    "px", "py", "pz", "min_distance_m",
]

# What decoding or parsing a malformed record raises: a missing key or
# short row, a value of the wrong type or out of range, a number too large
# to convert, or JSON nested deeper than the decoder follows.
RECORD_ERRORS = (LookupError, ValueError, TypeError, OverflowError, RecursionError)


def _round(x, nd=6):
    return round(float(x), nd)


def _float_text(v):
    """Float v as json.dumps writes it: repr, or NaN, Infinity or -Infinity."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def _scaled(x):
    """(rint(x * 1e6), exact) of float array x. exact marks where
    rint(x * 1e6) / 1e6 is sure to be round(v, 6): where the scaled value
    is not within 1e-3 of a half (its rounding error is below 1.2e-4 when
    |x * 1e6| < 2**40, and the division is correctly rounded). Near
    halves, large values, NaN and inf need round itself."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e6
        exact = (np.abs(y) < 2.0**40) & (np.abs(np.abs(y - np.trunc(y)) - 0.5) > 1e-3)
        return np.rint(y), exact


def _rounded(x):
    """round(float(v), 6) of every element of array-like x, as nested
    lists of floats, under _scaled's rule."""
    x = np.asarray(x, dtype=float)
    k, exact = _scaled(x)
    out = k / 1e6
    if not exact.all():
        out[~exact] = [_round(v) for v in x[~exact]]
    return out.tolist()


# Columns of a number's text in _rows_text: the "[" or "," before it, its
# sign, the 7 integer and 6 fraction digits of |k| < 10**13 about the
# point, and the "]," after the last number of a row. A 0 leaves the
# column out of the text.
_WIDTH = 18


def _rows_text(x):
    """(text, offsets) of the rows of (R, C) float array x, C >= 1: the
    ASCII bytes of each row as "[a,b,c],", with every number round(v, 6)
    in the text json.dumps gives it, and row r is text[offsets[r]:offsets[
    r + 1]].

    Where _scaled's k = rint(v * 1e6) is exact and |k| < 2**40, k / 1e6 is
    the double nearest the decimal k * 1e-6, and any two 6-decimal values
    differ by far more than an ulp, so repr's shortest text is that
    decimal: an optional "-" (the sign bit, so -0.0 keeps it), |k| //
    10**6, ".", and the 6 fraction digits without their trailing zeros,
    keeping one. Those texts are written into one char matrix, a column
    of every number at a time, and gathered by dropping its 0s. The rest
    are spliced in as json.dumps writes them: _scaled's inexact numbers,
    NaN and inf among them, and 0 < |k| < 100, which repr writes as 1e-05
    and the like."""
    x = np.asarray(x, dtype=float)
    R, C = x.shape
    flat = x.ravel()
    cols, length, splice = _number_columns(flat)
    # A row's numbers are flat[r * C:(r + 1) * C].
    cols[0], cols[0, ::C], cols[16, C - 1::C], cols[17, C - 1::C] = (
        ord(","), ord("["), ord("]"), ord(","))
    length[C - 1::C] += 2
    words = []
    if splice.any():
        words = [_float_text(v).encode() for v in _rounded(flat[splice])]
        cols[1, splice] = 1  # where the word goes
        length[splice] += [len(w) for w in words]
    text = cols.T.tobytes()
    del cols  # freed before the bytes are compacted
    text = text.translate(None, b"\0")
    if words:
        text = b"".join(chain.from_iterable(zip(text.split(b"\1"), [*words, b""])))
    offsets = np.zeros(R + 1, np.int64)
    np.cumsum(length.reshape(R, C).sum(axis=1), out=offsets[1:])
    return text, offsets


def _number_columns(flat):
    """(cols, length, splice) of _rows_text's numbers flat: the (_WIDTH,
    n) char matrix with each number's sign, digits and point, or nothing
    where splice marks it, and each number's text length, its lead
    included and its word not. The arithmetic stays in int64 and float64,
    as a simulate run's other arrays do: int32, int8 and uint8 passes
    were faster, but their numpy loops, which nothing else runs, raised
    the process's peak RSS by about 0.3 MiB."""
    k, exact = _scaled(flat)
    neg = np.signbit(k)
    k[~exact] = 0.0
    q = np.abs(k, out=k).astype(np.int64)
    splice = ~exact | ((q > 0) & (q < 100))
    neg &= ~splice
    whole = q // 10**6
    fraction = q - 10**6 * whole
    del k, q  # freed before the digit passes, the writer's peak
    cols = np.zeros((_WIDTH, len(flat)), np.uint8)
    length = 2 + neg  # the lead, point and sign; each digit kept is added below
    # 13 passes of one digit each. Trailing zeros of the fraction and
    # leading zeros of the integer part are left out, but not the units
    # digit or the first fraction digit.
    kept = np.zeros(len(flat), bool)
    for p in range(15, 9, -1):  # the fraction, its last digit first
        below = fraction // 10
        digit = fraction - 10 * below
        kept |= (digit != 0) | (p == 10)
        cols[p] = (digit + ord("0")) * kept
        length += kept
        fraction = below
    for p in range(8, 1, -1):  # the integer part, its units digit first
        below = whole // 10
        kept = (whole > 0) | (p == 8)
        cols[p] = (whole - 10 * below + ord("0")) * kept
        length += kept
        whole = below
    cols[9], cols[1][neg] = ord("."), ord("-")
    cols[1:16, splice] = 0
    length[splice] = 1
    return cols, length, splice


# Queued numbers at which a LineBlock writes its lines. A _rows_text call
# costs about 100 us plus 125 ns a number, and its peak is about 85 bytes
# a number, so a block of a few thousand keeps both its cost and its
# memory low.
BLOCK_NUMBERS = 2048


class LineBlock:
    """The lines of one JSON-lines stream, queued and written to binary
    file f in blocks, as f.write queues into f's buffer. A line is queued
    as a line function, the values it formats and the (n, C) float rows
    of its numbers, C the same for every line of the block. Once the
    queued rows hold BLOCK_NUMBERS numbers, and when the block is closed,
    even by an exception, every queued line is written: one _rows_text
    call gives the text of all the rows, and a line is line(values,
    text), text its rows as "[a,b],[c,d]"."""

    def __init__(self, f):
        self.f = f
        self._lines, self._rows, self._numbers = [], [], 0

    def add(self, line, values, rows):
        """Queue one line per tuple of the list values, in order, each with
        the next len(rows) // len(values) rows of rows."""
        n = len(rows) // len(values)
        self._lines += [(line, v, n) for v in values]
        self._rows.append(rows)
        self._numbers += rows.size
        if self._numbers >= BLOCK_NUMBERS:
            self.flush()

    def flush(self):
        if not self._lines:
            return
        text, offsets = _rows_text(np.concatenate(self._rows))
        ends, out, r = offsets.tolist(), [], 0
        for line, values, n in self._lines:
            out.append(line(values, text[ends[r]:ends[r + n] - 1]))  # without the last ","
            r += n
        self.f.write(b"".join(out))
        self._lines, self._rows, self._numbers = [], [], 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.flush()


# -- field readers ---------------------------------------------------------

def json_int(value, name):
    """value if it is a JSON integer (not a bool), else ValueError naming
    it: int() would read "40" as 40 and truncate 0.9 to 0. It takes the
    value, not a record and key, because integer fields also come as
    array elements (hand schema indices, a scene's absent frames)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def json_number(rec, key, default=None):
    """rec[key] as a float if it is a finite JSON number (not a bool), or
    float(default) if rec lacks key and a default is given, else
    ValueError naming key: float() would parse the string "0.5", and a
    JSON 1e400 reads as infinity."""
    if default is not None and key not in rec.keys():  # keys(): rec must be an object
        return float(default)
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    try:
        value = float(value)
    except OverflowError as e:  # an integer beyond float range
        raise ValueError(f"{key}: {e}") from None
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value


def json_array(rec, key, shape):
    """rec[key] as a float array of the given shape, where None is a free
    length, if it is finite JSON numbers in evenly nested arrays, else
    ValueError naming key: np.array(..., dtype=float) would parse the
    string "0.5", and read true as 1.0 even beside numbers. Each level of
    nesting is flattened while it holds arrays of one length, so ragged
    arrays are left as leaves, and the leaves are checked by their type
    (a float subclass, such as numpy's float64 in a scene built in Python,
    counts as a float)."""
    flat, dims = [rec[key]], []
    while (types := set(map(type, flat))) == {list} and len(set(map(len, flat))) == 1:
        dims.append(len(flat[0]))
        flat = list(chain.from_iterable(flat))
    if not all(t is int or issubclass(t, float) for t in types):
        raise ValueError(f"{key} must be numbers in evenly nested arrays")
    if tuple(dims) != shape and not (  # equal tuples: the fixed-shape case, first
            len(dims) == len(shape) and all(n in (None, d) for n, d in zip(shape, dims))):
        raise ValueError(f"{key} shape {tuple(dims)}, want {str(shape).replace('None', 'N')}")
    try:
        arr = np.array(flat, dtype=float).reshape(dims)
    except OverflowError as e:  # an integer beyond float range
        raise ValueError(f"{key}: {e}") from None
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ValueError(f"{key} must be finite, got {arr[~np.isfinite(arr)][0]}")
    return arr


def json_list(rec, key):
    """rec[key] if it is a JSON array, [] if absent, else ValueError:
    iterating an object would read its keys."""
    value = rec.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be an array, got {json.dumps(value)}")
    return value


def json_side(rec, name="side"):
    """rec["side"] if it is "left" or "right", else ValueError naming it
    as name."""
    side = rec["side"]
    if side not in SIDES:
        raise ValueError(f"{name} must be left or right, got {json.dumps(side)}")
    return side


def read_json(path, what):
    """The JSON value of a UTF-8 file. A file that cannot be read, or is
    not UTF-8 JSON, raises InputFormatError("bad <what>: ...") naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as e:  # not UTF-8 JSON, or nested too deep
        raise InputFormatError(f"bad {what}: {e}", path=path)


def write_json(path, obj, sort_keys=False):
    """obj as an indented JSON file ending in a newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=sort_keys)
        f.write("\n")


def _lines(path):
    """Yield (line number, text with its line end) for each line of a
    UTF-8 file, from 1. A line that is not UTF-8 raises InputFormatError(
    "not UTF-8 text: ...") naming the file and line; the bad byte's
    position counts from the start of that line."""
    with open(path, "rb") as f:
        for ln, line in enumerate(f, 1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as e:
                raise InputFormatError(f"not UTF-8 text: {e}", path=path, line=ln)
            yield ln, text


def _records(path, what, parse):
    """Yield parse(rec) for each non-blank line of a JSON-lines file. A
    line that is not JSON, or whose record parse rejects with one of
    RECORD_ERRORS, raises InputFormatError("bad <what> record: ...")
    naming the file and line."""
    for ln, line in _lines(path):
        if not line.strip():
            continue
        try:
            item = parse(json.loads(line))
        except RECORD_ERRORS as e:
            raise InputFormatError(f"bad {what} record: {e}", path=path, line=ln)
        yield item


def _line(rec):
    """rec as one compact JSON line, the form of every JSON-lines stream."""
    return json.dumps(rec, separators=(",", ":")) + "\n"


# -- calibration -----------------------------------------------------------

def write_calibration(path, cals):
    cams = []
    for cam_id in sorted(cals):
        c = cals[cam_id]
        cams.append({
            "camera_id": c.camera_id,
            "fx": c.fx, "fy": c.fy, "cx": c.cx, "cy": c.cy,
            "width": c.image_width, "height": c.image_height,
            "T_cw": [float(v) for v in np.asarray(c.T_cw).reshape(-1)],
        })
    write_json(path, {"gravity_axis": GRAVITY_AXIS, "cameras": cams})


def read_calibration(path):
    """{camera id: CameraCalibration} of a calibration.json file. fx, fy,
    cx and cy are finite JSON numbers, width and height JSON integers and
    T_cw 16 finite JSON numbers, row-major; a camera id listed twice is
    rejected, and so are two cameras less than 1e-6 m apart."""
    data = read_json(path, "calibration")
    if not isinstance(data, dict):
        raise InputFormatError(
            f"calibration must hold a JSON object, got {type(data).__name__}", path=path
        )
    if data.get("gravity_axis") != GRAVITY_AXIS:
        raise InputFormatError(
            f"unsupported gravity axis {data.get('gravity_axis')!r}", path=path
        )
    cameras = data.get("cameras", [])
    if not isinstance(cameras, list):
        raise InputFormatError("calibration cameras must be a JSON list", path=path)
    cals = {}
    for cam in cameras:
        try:
            cal = CameraCalibration(
                camera_id=cam["camera_id"],
                fx=json_number(cam, "fx"), fy=json_number(cam, "fy"),
                cx=json_number(cam, "cx"), cy=json_number(cam, "cy"),
                T_cw=json_array(cam, "T_cw", (16,)).reshape(4, 4),
                image_width=json_int(cam["width"], "width"),
                image_height=json_int(cam["height"], "height"),
            )
            if cal.camera_id in cals:
                raise ValueError(f"camera {cal.camera_id!r} listed twice")
        except RECORD_ERRORS as e:
            raise InputFormatError(f"bad camera record: {e}", path=path)
        cals[cal.camera_id] = cal
    if not cals:
        raise InputFormatError("calibration lists no cameras", path=path)
    for a, b in combinations(cals.values(), 2):
        if np.linalg.norm(b.center - a.center) < 1e-6:
            raise InputFormatError(f"camera centers of {a.camera_id!r} and "
                                   f"{b.camera_id!r} coincide (within 1e-6 m)", path=path)
    return cals


# -- hand schema -----------------------------------------------------------

def read_hand_schema(path):
    """HandSchema of a hand_schema.json file: a JSON integer vertex_count
    and JSON integer palm_indices and fingertip_indices, used as given."""
    data = read_json(path, "hand schema")
    try:
        return HandSchema(
            vertex_count=json_int(data["vertex_count"], "vertex_count"),
            palm_indices=[json_int(i, "palm_indices") for i in data["palm_indices"]],
            fingertip_indices=[json_int(i, "fingertip_indices") for i in data["fingertip_indices"]],
        )
    except RECORD_ERRORS as e:
        raise InputFormatError(f"bad hand schema: {e}", path=path)


# -- detection stream ------------------------------------------------------

def write_detections(f, records):
    """Write one line per detection record of a frame into binary file f,
    each the ASCII bytes of what _line writes. records: (frame,
    camera_id, persons, hands) tuples as render_frame gives them, persons
    (26, 3) arrays and hands HandInstances. Every joint and vertex row of
    the frame is rounded and written by one _rows_text call, and each
    person's and hand's array is cut out of its text by row offsets."""
    blocks = [b for _, _, persons, hands in records
              for b in (*persons, *(h.vertices for h in hands))]
    text, offsets = _rows_text(np.concatenate(blocks)) if blocks else (b"", np.zeros(1, int))
    ends = offsets[np.cumsum([0, *map(len, blocks)])].tolist()
    # A block's rows without the last one's trailing comma.
    arrays = iter(b"[%b]" % text[a:b - 1] if b > a else b"[]" for a, b in zip(ends[:-1], ends[1:]))
    for frame, camera_id, persons, hands in records:
        joints = b",".join(b'{"joints":%b}' % next(arrays) for _ in persons)
        vertices = b",".join(b'{"side":%b,"sigma_fit":%b,"vertices":%b}' % (
            json.dumps(h.side).encode(), _float_text(_round(h.sigma_fit)).encode(), next(arrays))
            for h in hands)
        f.write(b'{"frame":%d,"camera_id":%b,"persons":[%b],"hands":[%b]}\n' % (
            int(frame), json.dumps(camera_id).encode(), joints, vertices))


def read_detections(path, cameras, hand_vertex_count):
    """Yield (frame, camera_id, persons, hands) records in file order.

    frame is a JSON integer (not a bool) no lower than the frame of the
    record before; persons, from a JSON array, are (26, 3) float arrays of
    finite JSON numbers; hands, from a JSON array, are HandInstances of the
    record's camera with side ("left" or "right"), a finite non-negative
    JSON number sigma_fit and a finite (N, 3) vertices array of JSON
    numbers. A record that repeats the (frame, camera) of an earlier
    record of the same frame is rejected, as are cameras outside `cameras`
    and hands whose vertex count is not `hand_vertex_count`.
    """
    current, frame_cams = None, set()

    def parse(rec):
        nonlocal current
        frame = json_int(rec["frame"], "frame")
        camera_id = rec["camera_id"]
        if not isinstance(camera_id, str):
            raise ValueError(f"camera_id must be a string, got {camera_id!r}")
        if camera_id not in cameras:
            raise ValueError(f"camera {camera_id!r} is not in the calibration")
        persons = [json_array(p, "joints", (JOINT_COUNT, 3)) for p in json_list(rec, "persons")]
        hands = [
            HandInstance(
                camera_id=camera_id,
                side=json_side(h, "hand side"),
                sigma_fit=json_number(h, "sigma_fit"),
                vertices=json_array(h, "vertices", (None, 3)),
            )
            for h in json_list(rec, "hands")
        ]
        for h in hands:
            if h.sigma_fit < 0:
                raise ValueError(f"hand sigma_fit must be finite and >= 0, got {h.sigma_fit}")
            if len(h.vertices) != hand_vertex_count:
                raise ValueError(
                    f"hand has {len(h.vertices)} vertices but the hand schema has "
                    f"{hand_vertex_count}; is the recording's hand_schema.json missing?"
                )
        if current is not None and frame < current:
            raise ValueError(f"detections not frame-ordered ({frame} after {current})")
        if frame != current:
            current = frame
            frame_cams.clear()
        if camera_id in frame_cams:
            raise ValueError(f"second record for frame {frame}, camera {camera_id!r}")
        frame_cams.add(camera_id)
        return frame, camera_id, persons, hands

    return _records(path, "detection", parse)


# -- track streams ---------------------------------------------------------
TRACK_PERSON_KEY = "id"  # the person id of a tracks.jsonl record


_TRACK_LINE = b'{"frame":%d,"' + TRACK_PERSON_KEY.encode() + b'":%d,"E":%b,"joints":[%b]}\n'


def _track_text(values, rows):
    # Each joint's row ends in its availability, 1.0 or 0.0 in rows, the
    # only number before a "]"; json.dumps wrote the ints 1 and 0.
    return _TRACK_LINE % (*values, rows.replace(b".0]", b"]"))


def write_track_line(block, frame, track_id, existence, joints, available):
    """Queue a tracks.jsonl line into LineBlock block: E is round(existence,
    4) and each joint's row its round(v, 6) coordinates and 1 or 0 for
    available."""
    rows = np.column_stack((np.asarray(joints, dtype=float), np.asarray(available, dtype=bool)))
    block.add(_track_text, [(int(frame), int(track_id),
                             _float_text(_round(existence, 4)).encode())], rows)


def _track(rec):
    arr, e = json_array(rec, "joints", (JOINT_COUNT, 4)), json_number(rec, "E")
    return (json_int(rec["frame"], "frame"), json_int(rec["id"], "id"), e,
            arr[:, :3], arr[:, 3] > 0.5)


def read_tracks(path):
    """Yield (frame, id, E, joints (26,3), available (26,)) records. frame
    and id are JSON integers, E and the joints finite JSON numbers."""
    return _records(path, "track", _track)


HAND_TRACK_PERSON_KEY = "person_id"  # the person id of a hand_tracks.jsonl record


_HAND_TRACK_LINE = (b'{"frame":%d,"hand_track_id":%d,"side":%b,"'
                    + HAND_TRACK_PERSON_KEY.encode() + b'":%b,"palm_center":%b,"anchors":[%b]}\n')


def _person_text(person_id):
    return b"null" if person_id is None else b"%d" % int(person_id)


def _hand_track_text(values, rows):
    return _HAND_TRACK_LINE % (*values, rows[:rows.index(b"]") + 1], rows)


def write_hand_track_line(block, frame, hand_track_id, side, person_id, anchors):
    """Queue a hand_tracks.jsonl line into LineBlock block, its numbers
    round(v, 6): palm_center is the first row of the (K, 3) anchors, as
    FusedHand.palm_center is, and a None person_id is written null."""
    block.add(_hand_track_text, [(int(frame), int(hand_track_id), json.dumps(side).encode(),
                                  _person_text(person_id))], np.asarray(anchors, dtype=float))


# -- episodes --------------------------------------------------------------

def write_episodes(path, episodes):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(EPISODE_HEADER)
        for ep in episodes:
            w.writerow([
                "" if ep.person_id is None else int(ep.person_id),
                ep.side,
                int(ep.surface_label),
                int(ep.t_start),
                int(ep.t_stop),
                _round(ep.contact_point[0]),
                _round(ep.contact_point[1]),
                _round(ep.contact_point[2]),
                _round(ep.min_distance),
            ])


# Numbers as the text writers write them: an optional -, ASCII digits, and
# for a float an optional fraction and e+/-digits exponent. int() and
# float() would also read " 3 ", "0_2", "0.5\n" and full-width digits.
NUMBER_TEXT = {  # kind -> (pattern, name in messages)
    int: (re.compile(r"-?[0-9]+"), "an integer"),
    float: (re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?"), "a number"),
}


def _csv_number(text, name, kind=int):
    """text as kind, int or float, if NUMBER_TEXT[kind] matches all of it."""
    pattern, what = NUMBER_TEXT[kind]
    if not pattern.fullmatch(text):
        raise ValueError(f"{name} must be {what}, got {text!r}")
    return kind(text)


def read_episodes(path):
    """ContactEpisode list of an episodes.csv file. A line that is not
    UTF-8 or that csv rejects (a lone carriage return, an oversized field),
    then a row whose numbers are not written as write_episodes writes
    them (an empty person_id means no person), whose side is not left or
    right, whose t_start is after its t_stop, whose contact point
    is not finite or whose min_distance_m is negative or not finite raises
    InputFormatError naming the file and line."""
    reader = csv.reader(text for _, text in _lines(path))
    try:
        # (line, row): a quoted field may hold a line break, so a row ends
        # on the line that line_num names, not on its row number plus one.
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as e:
        raise InputFormatError(f"bad episode row: {e}", path=path, line=reader.line_num)
    if not rows:
        raise InputFormatError("empty episode file", path=path)
    if rows[0][1] != EPISODE_HEADER:
        raise InputFormatError(f"bad episode header {rows[0][1]}", path=path, line=1)
    episodes = []
    for ln, row in rows[1:]:
        if not row:
            continue
        try:
            ep = ContactEpisode(
                person_id=None if row[0] == "" else _csv_number(row[0], "person_id"),
                side=row[1],
                surface_label=_csv_number(row[2], "surface_label"),
                t_start=_csv_number(row[3], "t_start"),
                t_stop=_csv_number(row[4], "t_stop"),
                contact_point=np.array(
                    [_csv_number(row[k], EPISODE_HEADER[k], float) for k in (5, 6, 7)]),
                min_distance=_csv_number(row[8], "min_distance_m", float),
            )
            if ep.side not in SIDES:
                raise ValueError(f"side must be left or right, got {ep.side!r}")
            if ep.t_start > ep.t_stop:
                raise ValueError(f"t_start {ep.t_start} is after t_stop {ep.t_stop}")
            if not np.isfinite(ep.contact_point).all():
                raise ValueError("contact point holds a non-finite value")
            if not (np.isfinite(ep.min_distance) and ep.min_distance >= 0):
                raise ValueError(f"min_distance_m must be finite and >= 0, got {ep.min_distance}")
        except RECORD_ERRORS as e:
            raise InputFormatError(f"bad episode row: {e}", path=path, line=ln)
        episodes.append(ep)
    return episodes


# -- visibility stream -----------------------------------------------------

def write_visibility_line(f, frame, person_id, side, visible):
    f.write(_line({
        "frame": int(frame), "person_id": int(person_id),
        "side": side, "visible": bool(visible),
    }))


def _visibility(rec):
    visible = rec["visible"]
    if not isinstance(visible, bool):
        raise ValueError(f"visible must be true or false, got {json.dumps(visible)}")
    return (json_int(rec["frame"], "frame"), json_int(rec["person_id"], "person_id"),
            json_side(rec), visible)


def read_visibility(path):
    """Yield (frame, person_id, side, visible) records; side is left or
    right and visible a JSON bool (bool() would read "false" as True)."""
    return _records(path, "visibility", _visibility)


# -- distance traces (for threshold sweeps) --------------------------------
TRACE_PERSON_KEY = "person"  # the person id of a distance_traces.jsonl record


_TRACE_LINE = (b'{"frame":%d,"hand":%d,"side":%b,"' + TRACE_PERSON_KEY.encode()
               + b'":%b,"label":%d,"d":%b}\n')


def _trace_text(values, rows):
    return _TRACE_LINE % (*values, rows[1:-1])  # d without its row's brackets


def write_traces(block, rows):
    """Queue a distance_traces.jsonl line into LineBlock block for each of
    rows, (frame, hand_id, side, person_id, label, distance) tuples; d is
    round(distance, 6) and a None person_id is written null."""
    if rows:
        block.add(_trace_text, [
            (int(frame), int(hand_id), json.dumps(side).encode(), _person_text(person_id),
             int(label)) for frame, hand_id, side, person_id, label, _ in rows
        ], np.array([row[5] for row in rows], dtype=float).reshape(-1, 1))


def _trace(rec):
    d = json_number(rec, "d")
    if d < 0:
        raise ValueError(f"d must be finite and >= 0, got {d}")
    person = rec[TRACE_PERSON_KEY]
    return (json_int(rec["frame"], "frame"), json_int(rec["hand"], "hand"), json_side(rec),
            None if person is None else json_int(person, TRACE_PERSON_KEY),
            json_int(rec["label"], "label"), d)


def read_traces(path):
    """Yield (frame, hand_id, side, person_id, label, distance) records.
    frame, hand, label and a non-null person are JSON integers, side is
    left or right and d a finite JSON number >= 0."""
    return _records(path, "trace", _trace)


def remap_ids(path, key, mapping):
    """Rewrite a JSON-lines stream in place, replacing each rec[key] that
    is a key of mapping by its value. Only those lines are re-dumped, in
    the writers' compact form; the others are copied as they are. The
    stream is copied to a temporary file beside it, which then replaces
    it."""
    tmp_path = path + ".tmp"
    try:
        with open(path) as src, open(tmp_path, "w") as dst:
            for line in src:
                rec = json.loads(line)
                if rec[key] in mapping:
                    rec[key] = mapping[rec[key]]
                    line = _line(rec)
                dst.write(line)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


# -- label tables ----------------------------------------------------------

def _label_id(text):
    """A label table id: an integer by _csv_number, in the LBL1 byte's 0..255."""
    lid = _csv_number(text, "label id")
    if not 0 <= lid <= 255:
        raise ValueError(f"label id must be in 0..255, got {lid}")
    return lid


def write_label_table(path, table):
    """"<id> <name>" lines in id order; ids pass _label_id, as when read."""
    with open(path, "w") as f:
        for lid in sorted(table):
            f.write(f"{_label_id(str(lid))} {table[lid]}\n")


def read_label_table(path):
    """{label id: name} from "<id> <name>" lines of UTF-8 text, each id a
    _label_id listed once."""
    table = {}
    for ln, line in _lines(path):
        line = line.strip()
        if not line:
            continue
        text, *name = line.split(None, 1)
        try:
            if not name:
                raise ValueError(f"want '<id> <name>', got {line!r}")
            lid = _label_id(text)
            if lid in table:
                raise ValueError(f"label id {lid} listed twice")
        except ValueError as e:
            raise InputFormatError(str(e), path=path, line=ln)
        table[lid] = name[0]
    return table


# -- depth and label grids -------------------------------------------------

def read_grid(path, magic):
    """(h, w) cells of a grid file: the 4-byte magic, uint32 width and
    height, then h * w row-major cells of the GRID_FORMATS dtype."""
    dtype, what = GRID_FORMATS[magic]
    try:
        f = open(path, "rb")
    except OSError as e:
        raise InputFormatError(f"cannot read {what}: {e.strerror}", path=path)
    with f:
        header = f.read(12)
        if header[:4] != magic:
            raise InputFormatError(f"bad {what} magic {header[:4]!r}", path=path)
        if len(header) < 12:
            raise InputFormatError(f"truncated {what}", path=path)
        w, h = (int(n) for n in np.frombuffer(header[4:], dtype=np.uint32))
        need, held = w * h * np.dtype(dtype).itemsize, os.fstat(f.fileno()).st_size - 12
        if need > held:  # checked before reading, so a huge header allocates nothing
            raise InputFormatError(
                f"truncated {what}: a {w}x{h} header needs {need} bytes, the file holds {held}",
                path=path)
        data = f.read(need)
        if len(data) != need:
            raise InputFormatError(f"truncated {what}", path=path)
        return np.frombuffer(data, dtype=dtype).reshape(h, w)


def read_depth_grid(path):
    """Read a DEP1 grid back to float meters (0 where invalid)."""
    return read_grid(path, DEPTH_GRID_MAGIC).astype(float) / 1000.0


def read_label_grid(path):
    """Read an LBL1 grid of uint8 labels (0 for background)."""
    return read_grid(path, LABEL_GRID_MAGIC)


class GridDepthProvider:
    """Depth and label source over per-(frame, camera) grid files.

    Files live under root as frame_{frame:06d}_{camera}.dep (DEP1) and
    .lbl (LBL1) and hold full-resolution grids of the calibrated cameras
    of cals, each the size of its camera's image: a file of another
    shape raises InputFormatError naming it and both sizes. The depth
    grids of the most recent frame stay cached, one per camera, so each
    file is read once however the cameras interleave; a new frame drops
    them.
    """

    def __init__(self, root, cals):
        self.root = root
        self.cals = cals
        self._frame = None
        self._grids = {}

    def _path(self, frame, cam_id, ext):
        return os.path.join(self.root, f"frame_{frame:06d}_{cam_id}{ext}")

    def _sized(self, grid, frame, cam_id, ext):
        """grid, read from the frame's ext file of cam_id, if it is the
        size of the camera's image."""
        cal = self.cals[cam_id]
        if grid.shape != (cal.image_height, cal.image_width):
            h, w = grid.shape
            raise InputFormatError(
                f"grid is {w}x{h} but camera {cam_id} is {cal.image_width}x{cal.image_height}",
                path=self._path(frame, cam_id, ext))
        return grid

    def _load(self, frame, cam_id):
        if frame != self._frame:
            self._frame, self._grids = frame, {}
        if cam_id not in self._grids:
            self._grids[cam_id] = read_depth_grid(self._path(frame, cam_id, ".dep"))
        return self._grids[cam_id]

    def patch(self, frame, centres, size):
        """{camera_id: (n, size, size) windows of that camera's depth grid
        centred on the n pixels (us[i], vs[i]) of centres[camera_id] =
        (us, vs)}, zero-padded past the grid's edges."""
        r = size // 2
        off = np.arange(-r, r + 1)
        out = {}
        for cam_id, (us, vs) in sorted(centres.items()):
            grid = self._sized(self._load(frame, cam_id), frame, cam_id, ".dep")
            h, w = grid.shape
            rows = np.asarray(vs, dtype=int)[:, None] + off
            cols = np.asarray(us, dtype=int)[:, None] + off
            inside = (((rows >= 0) & (rows < h))[:, :, None]
                      & ((cols >= 0) & (cols < w))[:, None, :])
            window = grid[np.clip(rows, 0, h - 1)[:, :, None], np.clip(cols, 0, w - 1)[:, None, :]]
            out[cam_id] = np.where(inside, window, 0.0)
        return out

    def grids(self, frame, stride=4):
        """The frame's LatticeCells: each calibrated camera's stride-lattice
        cells, pixel (u, v) = (j, i) * stride, with a label and a positive
        depth, read off strided views of its files. A camera without a
        label file for the frame has no cells. Both files are read before
        either's size is checked, the label file's first."""
        cameras, counts, us, vs, labels, depth = [], [], [], [], [], []
        for cam_id in sorted(self.cals):
            lbl = self._path(frame, cam_id, ".lbl")
            if not os.path.exists(lbl):
                continue
            lab, dep = read_label_grid(lbl), self._load(frame, cam_id)
            lab = self._sized(lab, frame, cam_id, ".lbl")[::stride, ::stride]
            dep = self._sized(dep, frame, cam_id, ".dep")[::stride, ::stride]
            keep = (lab > 0) & (dep > 0)
            rows, cols = np.nonzero(keep)
            if not len(rows):
                continue
            cameras.append(cam_id)
            counts.append(len(rows))
            us.append(cols * stride)
            vs.append(rows * stride)
            labels.append(lab[keep])
            depth.append(dep[keep])
        if not cameras:
            return no_cells()
        return LatticeCells(cameras, counts, *map(np.concatenate, (us, vs, labels, depth)))
