"""JSON design files, the one verdict on every design kind, and the
one gate on every object the package takes in or hands out.

One self-describing format for every object kind so constructions can
be chained through the command line.  One reader, one writer, one
block count and one verdict serve every kind, and the command line, the
catalog and the constructions all go through them.  Coordinates are
plain lists of JSON integers, [row, col] on grids and [x, y, j] for the
cyclic shapes; the fixed point of a rotational system is written -1.
The decoder checks types rather than coercing them, so 1.9, "0" or true
is an error naming its field, as is a point with too few or too many
coordinates.

verdict asks the verifier of obj's kind, which computes its report once
per object and keeps it beside the object's codes, so the catalog, the
constructions and the command line may all ask for one object's
verdict.  The reader always builds a new object, so a file that is
read back is checked from scratch.  require is the gate: it refuses an
object of the wrong kind before reading any attribute, then an object
whose verdict fails, each with a ValueError that starts with the
caller's label.  Every construction input and output, every catalog
payload, every search witness and every conversion passes it; only the
verify command asks verdict directly, to report rather than refuse.

The writer, design_json, gives one line of canonical JSON: sorted keys,
no whitespace.  A code's codewords span is written from its cells on
_zeros, the all-zero text the reader checks the span against, with the
digit of each cell set to 1, and only the short rest goes through json;
every other kind is one call of the C encoder on design_to_dict.  Both
give the bytes json gives for design_to_dict(obj).  save_design writes
that line and a newline, and opens the file only once the text is
built, so an object that cannot be written leaves the file as it was.
The reader accepts any JSON layout, so indented files load as before.
The writer's own line for a code is decoded from its text: json reads
only the short rest after the codewords, and the bits come from the
digits of a span proved to be exactly u x v rows of 0s and 1s per
codeword.  Every other text goes through json and design_from_dict,
which decodes each codeword entry by entry through the matrix check, so
the first bad entry is named.  Both paths give identical objects and
identical refusals.
"""

from __future__ import annotations

import json
from itertools import chain, compress

from .core import (Code, CodewordMatrix, CyclicPacking, Point, _bit_rows, _cells_matrix,
                   _check_ints, make_packing)
from .correlation import verify_ooc
from .designs import (CYCLIC, REGULAR, FanDesign, HDesign, RoSQSDesign, verify_fan,
                      verify_h_design, verify_rosqs)
from .packing import verify_packing

SCHEMA_VERSION = 1


def design_header(obj) -> tuple:
    """(kind, parameters) of obj as its file names them, without
    touching its blocks or codewords."""
    if isinstance(obj, CyclicPacking):
        return "packing", {"u": obj.u, "v": obj.v, "k": obj.k, "t": obj.t}
    if isinstance(obj, FanDesign):
        universe = ({"g_list": list(obj.g_list)} if obj.shape == CYCLIC
                    else {"u": obj.u, "v": obj.v})
        return "fan", {"s": obj.s, "shape": obj.shape, "h": obj.h, **universe,
                       "developed": obj.developed}
    if isinstance(obj, HDesign):
        return "hdesign", {"n": obj.n, "l": obj.l, "h": obj.h, "t": obj.t}
    if isinstance(obj, RoSQSDesign):
        return "rosqs", {"n": obj.n}
    if isinstance(obj, Code):
        return "code", {"u": obj.u, "v": obj.v, "k": obj.k, "lambda": obj.lam}
    raise ValueError("cannot serialize %r" % (type(obj).__name__,))


def design_to_dict(obj) -> dict:
    kind, params = design_header(obj)
    points = lambda bs: [[list(p) for p in b] for b in bs]  # a Point lists as [row, col]
    if kind == "fan":
        body = {"layers": [points(lay) for lay in obj.layers],
                "base_blocks": points(obj.terminal)}
    elif kind == "rosqs":
        body = {"base_blocks": [list(b) for b in obj.base_blocks]}
    elif kind == "code":
        body = {"codewords": [_bit_rows(m) for m in obj.codewords]}
    else:
        body = {"base_blocks": points(obj.base_blocks)}
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "parameters": params, **body}


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def design_json(obj) -> str:
    """obj as one line of canonical JSON, sorted keys and no whitespace:
    the text json gives for design_to_dict(obj).  A code's codewords
    span is _zeros, the text _code_line checks, with the digit of each
    cell set to 1."""
    if not isinstance(obj, Code):
        return _canonical(design_to_dict(obj))
    u, v = obj.u, obj.v
    span = bytearray(_zeros(u, v, obj.size), "ascii")
    step = len(_zeros(u, v, 1)) - 1  # one codeword and its comma
    for c, m in enumerate(obj.codewords):
        at = 3 + c * step  # codeword c's first digit
        for e in m.cells:
            span[at + 2 * e + 2 * (e // v)] = 49  # "1"
    rest = _canonical({"schema_version": SCHEMA_VERSION, "kind": "code",
                       "parameters": design_header(obj)[1]})
    return _CODE_HEAD + span.decode() + "," + rest[1:]


def block_count(obj) -> int:
    """How many base blocks obj lists: a fan counts every layer and its
    terminal class, a code its codewords."""
    if isinstance(obj, FanDesign):
        return sum(map(len, obj.families()))
    if isinstance(obj, Code):
        return obj.size
    return len(obj.base_blocks)


def verdict(obj, strict: bool = False) -> str | None:
    """None when obj passes the verifier of its kind, else what fails.
    strict also demands full orbits of a packing's or a fan's blocks,
    and names the first block whose orbit is short."""
    if isinstance(obj, CyclicPacking):
        report = verify_packing(obj)
        if not report.valid:
            return "covered twice: %r" % (report.violation,)
        if strict and not report.strictly_cyclic:
            block = next(b for b, n in zip(obj.base_blocks, report.orbit_lengths) if n != obj.v)
            return "block %r has a short orbit" % (block,)
        return None
    if isinstance(obj, Code):
        report = verify_ooc(obj)
        return None if report.ok else "correlation %d at %r" % (report.worst_value,
                                                                 report.witness)
    if isinstance(obj, FanDesign):
        report = verify_fan(obj, strict)
    elif isinstance(obj, HDesign):
        report = verify_h_design(obj)
    elif isinstance(obj, RoSQSDesign):
        report = verify_rosqs(obj)
    else:
        raise ValueError("cannot verify %r" % (type(obj).__name__,))
    return None if report.ok else report.detail


# what each kind is called when an object of another kind is refused
_KIND_NAMES = {CyclicPacking: "a packing", Code: "a code", FanDesign: "a fan design",
               HDesign: "an H design", RoSQSDesign: "a rotational system"}


def require(obj, label: str, kind: type = object, strict: bool = True) -> None:
    """Refuse obj unless it is a kind, checked before any attribute is
    read, and passes verdict(obj, strict); a refusal is a ValueError
    naming label."""
    if not isinstance(obj, kind):
        raise ValueError("%s is a %s, not %s" % (label, type(obj).__name__, _KIND_NAMES[kind]))
    detail = verdict(obj, strict)
    if detail is not None:
        raise ValueError("%s: %s" % (label, detail))


def _field(doc: dict, name: str, decode, default=None):
    """decode(doc[name]), where doc[name] must be a JSON list; default
    stands in for a missing optional field.  A missing required field,
    or a value of the wrong type, is a ValueError naming the field."""
    if name not in doc:
        if default is None:
            raise ValueError("missing %r" % (name,))
        return decode(default)
    value = doc[name]
    if not isinstance(value, list):
        raise ValueError("malformed %r: expected a list, got %s" % (name, type(value).__name__))
    try:
        return decode(value)
    except (TypeError, IndexError, OverflowError) as exc:
        raise ValueError("malformed %r: %s" % (name, exc)) from None


def _int_rows(rows, name: str):
    """rows once every entry of every row is a JSON integer: a float,
    string or boolean is refused, never coerced."""
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise ValueError("malformed %r: %r is not an integer" % (name, bad))
    return rows


def _coords(bs, name: str, dim: int):
    """bs, a list of blocks of points, once each point is dim JSON integers."""
    points = _int_rows([p for b in bs for p in b], name)
    if not set(map(len, points)) <= {dim}:
        bad = next(p for p in points if len(p) != dim)
        raise ValueError("malformed %r: point %r has %d coordinate%s, expected %d"
                         % (name, bad, len(bad), "s" * (len(bad) != 1), dim))
    return bs


def _blocks(bs, name: str, point=tuple, dim: int = 3) -> tuple:
    return tuple(tuple(sorted(map(point, b))) for b in _coords(bs, name, dim))


def _codewords(ms, u: int, v: int) -> tuple:
    """Codeword matrices of the codewords ms, decoded codeword by
    codeword through the matrix check, which names the first bad entry."""
    return tuple(CodewordMatrix(u=u, v=v, bits=_int_rows(tuple(map(tuple, m)), "codewords"))
                 for m in ms)


_CODE_HEAD = '{"codewords":'
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _zeros(u: int, v: int, count: int) -> str:
    """design_json's text of count all-zero u x v codewords."""
    row = "[" + "0," * (v - 1) + "0]"
    return "[" + ",".join(["[" + ",".join([row] * u) + "]"] * count) + "]"


def _code_line(text: str):
    """The Code of text when text is design_json's line for a code, with
    any trailing whitespace, else None.  The codewords span, up to the
    first ',"kind":', is the line's only if it is the all-zero text of
    its length for the u and v of the rest with some 0s made 1s: the
    length is checked arithmetically before that text is built, so a
    file claiming a huge grid costs nothing.  Such a span is count
    codewords of u rows of v JSON integers 0 or 1, each one the matrix
    check accepts, and the rest holds every other key, so the generic
    path would decode the same parameters and entries.  The digits,
    codeword after codeword and row after row, are the entries; compress
    gives each codeword's cells in increasing order."""
    end = text.find(',"kind":') if text.startswith(_CODE_HEAD) else -1
    if end < 0:
        return None
    try:
        rest = json.loads("{" + text[end + 1:])
    except (ValueError, RecursionError):
        return None
    params = rest.get("parameters", {})
    if ("codewords" in rest or rest.get("schema_version") != SCHEMA_VERSION
            or rest.get("kind") != "code" or not isinstance(params, dict)):
        return None
    u, v = params.get("u"), params.get("v")
    if not (type(u) is int and type(v) is int and u > 0 and v > 0):
        return None
    span = text[len(_CODE_HEAD):end]
    count, spare = divmod(len(span) - 1, u * (2 * v + 2) + 2)  # len(_zeros(u, v, 1)) + 1
    if span != "[]" and (spare or not count or span.replace("1", "0") != _zeros(u, v, count)):
        return None
    flat, n = span.encode().translate(_DIGITS, b"[],"), u * v
    return _code(params, lambda u, v: tuple(
        _cells_matrix(compress(range(n), flat[i * n:i * n + n]), u, v) for i in range(count)))


def _param(params: dict, name: str):
    if name not in params:
        raise ValueError("missing parameter %r" % name)
    return params[name]


def _ints(params: dict, *names) -> list:
    for name in names:
        _check_ints(**{name: _param(params, name)})
    return [params[name] for name in names]


def _code(params: dict, codewords) -> Code:
    """The Code of params whose matrices are codewords(u, v), decoded
    once the integer parameters are checked."""
    u, v, k, lam = _ints(params, "u", "v", "k", "lambda")
    return Code(u=u, v=v, k=k, lam=lam, codewords=codewords(u, v))


def design_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError("design file must contain a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported schema_version %r" % (doc.get("schema_version"),))
    kind = doc.get("kind")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ValueError("'parameters' must be an object, got %r" % (params,))
    if kind == "packing":
        u, v, k, t = _ints(params, "u", "v", "k", "t")
        return _field(doc, "base_blocks", lambda bs: make_packing(
            u, v, k, t, _coords(bs, "base_blocks", 2)))
    if kind == "fan":
        s, h = _ints(params, "s", "h")
        if params.get("shape") == CYCLIC:
            point, dim = tuple, 3
            g_list = _param(params, "g_list")
            if not (isinstance(g_list, list) and all(type(g) is int for g in g_list)):
                raise ValueError("parameter 'g_list' must be a list of integers, got %r"
                                 % (g_list,))
            extra = {"g_list": tuple(g_list)}
        elif params.get("shape") == REGULAR:
            point, dim = Point._make, 2
            u, v = _ints(params, "u", "v")
            extra = {"u": u, "v": v}
        else:
            raise ValueError("unknown fan shape %r" % (params.get("shape"),))
        developed = params.get("developed", False)
        if type(developed) is not bool:
            raise ValueError("parameter 'developed' must be true or false, got %r"
                             % (developed,))
        layers = _field(doc, "layers", lambda lays: tuple(
            _blocks(lay, "layers", point, dim) for lay in lays), [])
        return FanDesign(s=s, shape=params["shape"], h=h, layers=layers,
                         terminal=_field(doc, "base_blocks",
                                         lambda bs: _blocks(bs, "base_blocks", point, dim)),
                         developed=developed, **extra)
    if kind == "hdesign":
        n, l, h, t = _ints(params, "n", "l", "h", "t")
        blocks = _field(doc, "base_blocks", lambda bs: _blocks(bs, "base_blocks"))
        return HDesign(n=n, l=l, h=h, t=t, base_blocks=blocks)
    if kind == "rosqs":
        (n,) = _ints(params, "n")
        blocks = _field(doc, "base_blocks", lambda bs: tuple(
            tuple(sorted(b)) for b in _int_rows(bs, "base_blocks")))
        return RoSQSDesign(n=n, base_blocks=blocks)
    if kind == "code":
        return _code(params, lambda u, v: _field(doc, "codewords",
                                                 lambda ms: _codewords(ms, u, v)))
    raise ValueError("unknown design kind %r" % (kind,))


def save_design(obj, path: str) -> None:
    text = design_json(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_design(path: str):
    with open(path) as fh:
        text = fh.read()
    code = _code_line(text)
    if code is not None:
        return code
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None
    return design_from_dict(doc)
