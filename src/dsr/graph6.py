"""graph6 codec, short form only (n <= 62), bit-exact.

Layout: byte 0 is chr(n+63); then the upper triangle of the adjacency
matrix, read column by column ((0,1),(0,2),(1,2),(0,3),...), packed
big-endian into 6-bit groups, zero-padded, each group stored as
chr(value+63).  A ">>graph6<<" header is file policy, not part of a graph6
string: the CLI's file loader strips it, and the codec neither emits nor
accepts it.
"""

from __future__ import annotations

from .graphs import Graph, bit_transpose, matrix_width

_MIN_BYTE = 63   # '?'
_MAX_BYTE = 126  # '~', also the long-form marker when used as length byte
_DATA_BYTES = bytes(range(_MIN_BYTE, _MAX_BYTE + 1))
_SIX_BITS = {byte: format(byte - _MIN_BYTE, "06b") for byte in _DATA_BYTES}


class Graph6Error(ValueError):
    """Malformed graph6 input or an unencodable graph."""


def graph6_encode(g: Graph) -> bytes:
    if g.n > 62:
        raise Graph6Error(f"short-form graph6 supports order <= 62, got {g.n}")
    # column j of the upper triangle is the part of row j below the diagonal;
    # pair k goes to bit k, under a sentinel bit that keeps the leading zeros
    bits = npairs = 0
    for j, row in enumerate(g.rows):
        bits |= (row & (1 << j) - 1) << npairs
        npairs += j
    text = format(bits | 1 << npairs, "b")[:0:-1] + "0" * (-npairs % 6)
    return bytes([g.n + 63, *(int(text[i:i + 6], 2) + 63 for i in range(0, npairs, 6))])


def graph6_decode(data: bytes | str) -> Graph:
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(f"non-ASCII input: {exc}") from None
    if not data:
        raise Graph6Error("empty graph6 string")
    first = data[0]
    if first == _MAX_BYTE:
        raise Graph6Error("long-form graph6 (order > 62) not supported")
    if not _MIN_BYTE <= first < _MAX_BYTE:
        raise Graph6Error(f"malformed length byte {first!r}")
    n = first - 63
    if n == 0:
        raise Graph6Error("order-0 graph not representable")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    body = data[1:]
    if len(body) < nbytes:
        raise Graph6Error(f"truncated: need {nbytes} data bytes for order {n}, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error(f"trailing garbage after {nbytes} data bytes")
    if bad := body.translate(None, _DATA_BYTES):
        raise Graph6Error(f"data byte {bad[0]!r} outside graph6 range")
    # reversed, the body's bit string puts pair k of the upper triangle at bit k
    bits = int("".join(map(_SIX_BITS.__getitem__, body))[::-1] or "0", 2)
    if bits >> npairs:
        raise Graph6Error("nonzero padding bits")
    # column j of the upper triangle is row j of the lower one
    w = matrix_width(n)
    lower = 0
    for j in range(1, n):
        lower |= (bits & (1 << j) - 1) << j * w
        bits >>= j
    packed = lower | bit_transpose(lower, w)
    full = (1 << n) - 1
    return Graph(n, tuple(packed >> v * w & full for v in range(n)))

