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
from helpers import path_graph, random_graph


def test_decode_k4():
    assert graph6_decode("C~") == complete_graph(4)


def test_decode_p3():
    g = graph6_decode("Bg")
    assert g.edges() == [(0, 1), (1, 2)]


def test_decode_k1():
    assert graph6_decode("@") == Graph(1, (0,))


def test_decode_accepts_bytes_and_header():
    assert graph6_decode(b"C~") == complete_graph(4)
    assert graph6_decode(b">>graph6<<C~") == complete_graph(4)


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


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 62), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_roundtrip_random(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert graph6_decode(graph6_encode(g)) == g
