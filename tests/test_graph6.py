import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsr import (
    Graph,
    Graph6Error,
    complete_graph,
    enumerate_connected,
    graph6_decode,
    graph6_encode,
)
from helpers import (
    path_graph,
    random_graph,
    reference_graph6_decode,
    reference_graph6_encode,
)


def test_decode_k4():
    assert graph6_decode("C~") == complete_graph(4)


def test_decode_p3():
    g = graph6_decode("Bg")
    assert g.edges() == [(0, 1), (1, 2)]


def test_decode_k1():
    assert graph6_decode("@") == Graph(1, (0,))


def test_decode_accepts_bytes_not_the_header():
    assert graph6_decode(b"C~") == complete_graph(4)
    # the header is file policy, left to the CLI loader; '>' is byte 62
    with pytest.raises(Graph6Error, match="^malformed length byte 62$"):
        graph6_decode(b">>graph6<<C~")


def test_encode_examples():
    assert graph6_encode(complete_graph(4)) == b"C~"
    assert graph6_encode(path_graph(3)) == b"Bg"
    assert graph6_encode(Graph(1, (0,))) == b"@"
    # header is never emitted
    assert not graph6_encode(complete_graph(4)).startswith(b">>")


@pytest.mark.parametrize("n", range(1, 8))
def test_roundtrip_identity(n):
    for g in enumerate_connected(n):
        assert graph6_decode(graph6_encode(g)) == g


def test_encode_rejects_large_order():
    with pytest.raises(Graph6Error, match="62"):
        graph6_encode(Graph(63, (0,) * 63))


class TestDecodeErrors:
    def test_empty(self):
        with pytest.raises(Graph6Error, match="empty"):
            graph6_decode("")

    def test_bad_length_byte(self):
        with pytest.raises(Graph6Error, match="length byte"):
            graph6_decode(chr(62) + "g")

    def test_long_form_rejected(self):
        with pytest.raises(Graph6Error, match="not supported"):
            graph6_decode("~??")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error, match="trailing garbage"):
            graph6_decode("C~~")

    def test_truncated(self):
        with pytest.raises(Graph6Error, match="truncated"):
            graph6_decode("C")

    def test_nonzero_padding(self):
        # P3 packs as 101 + three padding zeros; flip the last padding bit
        with pytest.raises(Graph6Error, match="padding"):
            graph6_decode("B" + chr(40 + 1 + 63))

    def test_non_ascii(self):
        with pytest.raises(Graph6Error, match="ASCII"):
            graph6_decode("Bé")

    def test_data_byte_out_of_range(self):
        with pytest.raises(Graph6Error):
            graph6_decode("C" + chr(30))

    def test_order_zero(self):
        with pytest.raises(Graph6Error, match="^order-0 graph not representable$"):
            graph6_decode(b"?")


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 62), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_roundtrip_random(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert graph6_decode(graph6_encode(g)) == g


@settings(max_examples=80, deadline=None, database=None)
@given(n=st.integers(1, 62), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_encode_matches_per_pair_reference(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert graph6_encode(g) == reference_graph6_encode(g)


def _outcome(decode, data):
    try:
        return decode(data)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


CORRUPTIONS = ["none", "header", "truncate", "append", "byte", "padding", "length", "text"]


@settings(max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(1, 62),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    how=st.sampled_from(CORRUPTIONS),
    value=st.integers(0, 255),
    data=st.data(),
)
def test_decode_matches_bitwise_reference(n, p, seed, how, value, data):
    raw = bytearray(graph6_encode(random_graph(random.Random(seed), n, p)))
    if how == "header":
        raw[:0] = b">>graph6<<"
    elif how == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)):]
    elif how == "append":
        raw.append(value)
    elif how == "byte" and len(raw) > 1:
        raw[data.draw(st.integers(1, len(raw) - 1))] = value
    elif how == "padding":
        raw[-1] = ((raw[-1] - 63) | data.draw(st.integers(1, 63))) + 63  # in the 6-bit value
    elif how == "length":
        raw[0] = value
    # odd values also go in as text, where bytes above 127 are not ASCII
    text = raw.decode("latin-1") if how == "text" or value & 1 else bytes(raw)
    outcome = _outcome(graph6_decode, text)
    assert outcome == _outcome(reference_graph6_decode, text)
    if how == "header":  # a header is never part of a graph6 string
        assert outcome == (Graph6Error, "malformed length byte 62")
