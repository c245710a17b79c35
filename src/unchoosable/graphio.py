"""Graph file formats: graph6 (bit-exact) and adjacency JSON.

graph6 packs the upper triangle of the adjacency matrix column by column
(x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...) into 6-bit groups offset by 63.
Its 6-bit groups are base64's (RFC 4648), most significant bit first,
in another alphabet: so the codec packs and unpacks the n(n-1)/2 bits
with `binascii` and maps the alphabets with one `bytes.translate`.
Python itself takes O(n + m) steps, one per edge and per column, and
never builds adjacency masks.  The adjacency-JSON format is
``{"n": int, "edges": [[u,v], ...]}`` with edges sorted
lexicographically; the reader ignores any other key.
"""

from __future__ import annotations

import binascii
import json
import re

from .errors import InvalidArgumentError, ParseError, ResourceLimitError
from .graphs import GRAPH6_BYTE_CAP, VERTEX_CAP, Graph

GRAPH6_HEADER = ">>graph6<<"
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
# bytes 63..126 to base64's alphabet and every other byte to NUL, which
# no graph6 byte becomes
_G6_TO_B64 = bytes(63) + _B64 + bytes(129)
_NONZERO = re.compile(rb"[^\x00]")
# the set bits of each byte as offsets from its most significant bit,
# in increasing order; each pass adds the next bit up, offset k
_SET_BITS = [()]
for _k in range(7, -1, -1):
    _SET_BITS += [(_k,) + bits for bits in _SET_BITS]


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise InvalidArgumentError(f"graph too large for graph6: n={n}")


def write_graph6(g: Graph) -> str:
    """Canonical graph6 string for `g` (no header, no newline).  Raises
    ResourceLimitError, before allocating, when it would be longer than
    GRAPH6_BYTE_CAP."""
    nbits = g.n * (g.n - 1) // 2
    ngroups = (nbits + 5) // 6
    size = len(_encode_size(g.n)) + ngroups
    if size > GRAPH6_BYTE_CAP:
        raise ResourceLimitError(
            f"graph6 of a graph with {g.n} vertices takes {size} bytes, cap is "
            f"{GRAPH6_BYTE_CAP}; write adjacency JSON (.json) instead"
        )
    # whole base64 quanta (3 bytes, 4 characters), so no '=' is emitted
    bits = bytearray((ngroups + 3) // 4 * 3)
    for u, v in g.edges:
        p = v * (v - 1) // 2 + u
        bits[p >> 3] |= 128 >> (p & 7)
    body = binascii.b2a_base64(bits, newline=False)[:ngroups].translate(_B64_TO_G6)
    return (_encode_size(g.n) + body).decode("ascii")


def read_graph6(text: str) -> Graph:
    """Parse one graph6 string (optional >>graph6<< header, surrounding
    whitespace tolerated).  Raises ParseError with the byte offset of the
    first offending byte."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as e:
        raise ParseError(
            f"non-ASCII character U+{ord(s[e.start]):04X}", offset=e.start
        ) from None
    if not data:
        raise ParseError("empty graph6 input", offset=0)
    b64 = data.translate(_G6_TO_B64)
    bad = b64.find(0)
    if bad >= 0:
        raise ParseError(f"invalid graph6 byte {data[bad]:#x}", offset=bad)

    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise ParseError("truncated graph6 size field", offset=len(data))
        n = 0
        for b in data[1:4]:
            n = n << 6 | (b - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise ParseError("truncated graph6 size field", offset=len(data))
        n = 0
        for b in data[2:8]:
            n = n << 6 | (b - 63)
        pos = 8

    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(data) - pos < ngroups:
        raise ParseError(
            f"truncated graph6 edge data: need {ngroups} bytes, have {len(data) - pos}",
            offset=len(data),
        )
    if len(data) - pos > ngroups:
        raise ParseError("trailing bytes after graph6 edge data", offset=pos + ngroups)
    # only the last group is padded, with its low -nbits % 6 bits
    if (data[-1] - 63) & ((1 << (-nbits % 6)) - 1):
        raise ParseError("nonzero padding bit", offset=len(data) - 1)

    bits = binascii.a2b_base64(b64[pos:] + b"A" * (-ngroups % 4))
    # bit p = v(v-1)/2 + u of the stream is x_{u,v}; column v spans
    # p in [start, start + v), and the walk moves v forward as p grows
    edges = []
    v, start = 1, 0
    for hit in _NONZERO.finditer(bits):
        i = hit.start()
        for k in _SET_BITS[bits[i]]:
            p = i << 3 | k
            while p >= start + v:
                start += v
                v += 1
            edges.append((p - start, v))
    # valid and distinct by construction, so from_edges' checks are skipped
    return Graph(n=n, edges=tuple(sorted(edges)))


def write_adjacency_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]})


def load_json(text: str) -> object:
    """Parse an input file's JSON text; malformed or too deeply nested
    JSON, or an integer past Python's int digit limit, raises
    ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", offset=e.pos) from e
    except ValueError as e:  # the int digit limit
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError("JSON nested too deeply") from e


def open_path(path: str, mode: str, encoding: str):
    """`open(path, mode, encoding=encoding)`, with a path that no file
    can have (a NUL byte, an unpaired surrogate) as InvalidArgumentError:
    it is an input error, not a failure of the tool."""
    try:
        return open(path, mode, encoding=encoding)
    except ValueError as e:  # UnicodeEncodeError is one too
        raise InvalidArgumentError(f"cannot open {path!r}: {e}") from e


def read_json(path: str) -> object:
    """Read a UTF-8 JSON input file; see `load_json`."""
    with open_path(path, "r", encoding="utf-8") as fh:
        return load_json(fh.read())


def write_json(path: str, doc: object) -> None:
    """Write `doc` to `path` as JSON indented by 2, newline-terminated."""
    with open_path(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_adjacency_json(text: str) -> Graph:
    """Parse adjacency JSON.  Raises ParseError on malformed input and
    ResourceLimitError when `n` is above VERTEX_CAP."""
    doc = load_json(text)
    # ids and counts are ints, and JSON's true and false are not
    if not isinstance(doc, dict) or type(doc.get("n")) is not int:
        raise ParseError("adjacency JSON must be an object with integer 'n'")
    n = doc["n"]
    if n > VERTEX_CAP:
        raise ResourceLimitError(f"graph has {n} vertices, cap is {VERTEX_CAP}")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of [u, v] pairs")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ParseError(f"bad edge entry {e!r}")
    try:
        g = Graph.from_edges(n, edges)
    except InvalidArgumentError as e:
        raise ParseError(str(e)) from e
    if g.m != len(edges):  # from_edges merges an edge given twice
        raise ParseError("duplicate edges in adjacency JSON")
    return g


def write_graph(g: Graph, path: str) -> None:
    """Write by extension: .g6/.graph6 -> graph6, anything else -> JSON."""
    if path.endswith((".g6", ".graph6")):
        payload = write_graph6(g) + "\n"
    else:
        payload = write_adjacency_json(g) + "\n"
    with open_path(path, "w", encoding="ascii") as fh:
        fh.write(payload)


def read_graph(path: str) -> Graph:
    """Read a UTF-8 file by extension, falling back to content sniffing."""
    with open_path(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith((".g6", ".graph6")):
        return read_graph6(text)
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return read_adjacency_json(text)
    return read_graph6(text)
