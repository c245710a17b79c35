import json
import random
import tracemalloc

import networkx as nx
import pytest

from unchoosable import (
    Graph,
    ParseError,
    ResourceLimitError,
    read_adjacency_json,
    read_graph,
    read_graph6,
    write_adjacency_json,
    write_graph,
    write_graph6,
)

from unchoosable import graphio
from unchoosable.graphs import GRAPH6_BYTE_CAP, VERTEX_CAP

from conftest import forbid_adjacency_masks, random_graph


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_known_graph6_strings():
    assert write_graph6(Graph.from_edges(1, [])) == "@"
    assert write_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert write_graph6(Graph.from_edges(2, [])) == "A?"
    assert read_graph6("@").n == 1
    g = read_graph6("A_")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_graph6_roundtrip_random():
    rng = random.Random(42)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        back = read_graph6(write_graph6(g))
        assert back.n == g.n and back.edges == g.edges


def test_graph6_matches_networkx_encoder():
    rng = random.Random(43)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 24), rng.random())
        ours = write_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert ours == theirs


def test_graph6_reads_networkx_output():
    rng = random.Random(44)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 24), rng.random())
        text = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        back = read_graph6(text)
        assert back.n == g.n and back.edges == g.edges


def test_graph6_medium_size_encoding():
    g = Graph.from_edges(100, [(0, 99)])
    back = read_graph6(write_graph6(g))
    assert back.n == 100 and back.edges == ((0, 99),)


def test_graph6_header_accepted():
    g = Graph.from_edges(3, [(0, 1)])
    assert read_graph6(">>graph6<<" + write_graph6(g)).edges == g.edges


def test_graph6_rejects_truncation():
    text = write_graph6(Graph.from_edges(10, [(0, 9), (3, 7)]))
    with pytest.raises(ParseError):
        read_graph6(text[:-1])


def test_graph6_rejects_trailing_garbage():
    text = write_graph6(Graph.from_edges(5, [(0, 4)]))
    with pytest.raises(ParseError):
        read_graph6(text + "?")


def test_graph6_rejects_nonzero_padding():
    # K_2 with its single padded group forced to end in ones
    with pytest.raises(ParseError) as err:
        read_graph6("A" + chr(63 + 33))
    assert err.value.offset == 1


def test_graph6_rejects_invalid_byte():
    with pytest.raises(ParseError) as err:
        read_graph6("A" + chr(30))
    assert err.value.offset is not None


def test_graph6_rejects_non_ascii():
    # a non-ASCII character replaced by "?", itself a valid graph6 byte,
    # would make "Bé" an edgeless graph on 3 vertices
    for text, offset in (("Bé", 1), ("é", 0), ("A_\ud800", 2)):
        with pytest.raises(ParseError) as err:
            read_graph6(text)
        assert err.value.offset == offset


def test_graph6_rejects_empty():
    with pytest.raises(ParseError):
        read_graph6("")


def test_graph6_every_size_class_matches_networkx():
    # n = 0..130 covers both size-field forms, the 62/63 boundary and
    # every value of nbits mod 6 (so every padding width) many times
    rng = random.Random(45)
    for n in range(131):
        every = [(u, v) for u in range(n) for v in range(u + 1, n)]
        some = random_graph(rng, n, rng.random())
        for g, h in (
            (Graph.from_edges(n, []), nx.empty_graph(n)),
            (Graph.from_edges(n, every), nx.complete_graph(n)),
            (some, to_networkx(some)),
        ):
            text = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert write_graph6(g) == text, n
            back = read_graph6(text)
            assert back.n == g.n and back.edges == g.edges, n


def test_graph6_every_nonzero_padding_pattern_rejected():
    rng = random.Random(46)
    for n in range(131):
        pad = -(n * (n - 1) // 2) % 6
        if not pad:
            continue
        text = write_graph6(random_graph(rng, n, 0.5))
        last = ord(text[-1]) - 63
        for pattern in range(1, 1 << pad):
            bad = text[:-1] + chr(63 + (last | pattern))
            with pytest.raises(ParseError, match="padding") as err:
                read_graph6(bad)
            assert err.value.offset == len(text) - 1, (n, pattern)


def test_graph6_bad_byte_reported_at_its_offset():
    # n = 200 takes the 4-byte size field; NUL, "!", 62 and 127 are
    # outside the graph6 range, and none is whitespace that strip() drops
    text = write_graph6(random_graph(random.Random(47), 200, 0.3))
    for offset in (0, 2, 3, 1000, len(text) - 2, len(text) - 1):
        for bad in (0, 33, 62, 127):
            with pytest.raises(ParseError, match="invalid graph6 byte") as err:
                read_graph6(text[:offset] + chr(bad) + text[offset + 1:])
            assert err.value.offset == offset, (offset, bad)


def test_graph6_writer_builds_no_adjacency_masks(monkeypatch):
    g = random_graph(random.Random(48), 40, 0.5)
    forbid_adjacency_masks(monkeypatch)
    assert read_graph6(write_graph6(g)) == g


def test_graph6_codec_memory_is_linear_in_its_text():
    # a codec that expands the stream to one object or character per
    # bit would need several times the text; 6x is loose for a noisy VM
    for n in (1500, 3000):
        path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        text = write_graph6(path)
        for codec, arg in ((write_graph6, path), (read_graph6, text)):
            tracemalloc.start()
            try:
                codec(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * len(text), (n, codec.__name__, peak, len(text))


def test_graph6_writer_refuses_text_past_its_cap(monkeypatch):
    # the length follows from n alone, so the refusal comes before any
    # buffer is packed: under a 1 kB cap, 4000 vertices (1.3 MB of text)
    # allocate a few kB, the error and its traceback.  test_cli runs the
    # real cap on 10^5 vertices in a process of bounded address space.
    monkeypatch.setattr(graphio, "GRAPH6_BYTE_CAP", 1 << 10)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r" 4000 vertices.*\(\.json\)"):
            write_graph6(Graph(n=4000, edges=()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    # the cap bounds the text itself: at its length it is written, one
    # byte shorter it is refused
    g = random_graph(random.Random(5), 40, 0.5)
    text = write_graph6(g)
    monkeypatch.setattr(graphio, "GRAPH6_BYTE_CAP", len(text))
    assert write_graph6(g) == text
    monkeypatch.setattr(graphio, "GRAPH6_BYTE_CAP", len(text) - 1)
    with pytest.raises(ResourceLimitError):
        write_graph6(g)
    # the largest row `build` makes, b2 (5188 vertices, 2.2 MB), fits
    # several times over
    assert 4 + (5188 * 5187 // 2 + 5) // 6 < GRAPH6_BYTE_CAP // 4


def test_adjacency_json_roundtrip():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    text = write_adjacency_json(g)
    back = read_adjacency_json(text)
    assert back == g
    doc = json.loads(text)
    assert doc == {"n": 4, "edges": [[0, 1], [2, 3]]}


def test_adjacency_json_omits_empty_labels():
    # a labels key, well formed or not, is ignored like any unknown key
    g = Graph.from_edges(2, [(0, 1)])
    for labels in ({"v": [0], "w": [1]}, {"v": 5}, "x"):
        text = json.dumps({"n": 2, "edges": [[0, 1]], "labels": labels})
        assert read_adjacency_json(text) == g
    assert "labels" not in json.loads(write_adjacency_json(g))


def test_adjacency_json_rejects_bad_documents():
    with pytest.raises(ParseError):
        read_adjacency_json('{"edges": []}')
    with pytest.raises(ParseError):
        read_adjacency_json('{"n": 2, "edges": [[0, 2]]}')
    with pytest.raises(ParseError):
        read_adjacency_json("{nope")
    with pytest.raises(ParseError):
        read_adjacency_json('[1, 2]')


def test_adjacency_json_rejects_an_edge_given_twice():
    for edges in ("[[0, 1], [0, 1]]", "[[0, 1], [1, 0]]"):
        with pytest.raises(ParseError, match="duplicate edges"):
            read_adjacency_json('{"n": 3, "edges": %s}' % edges)
    # the same edges once each, in either orientation, are one graph
    once = read_adjacency_json('{"n": 3, "edges": [[1, 0], [2, 1]]}')
    assert once.edges == ((0, 1), (1, 2))


def test_adjacency_json_caps_the_vertex_count():
    cap = '{"n": %d, "edges": []}'
    assert read_adjacency_json(cap % VERTEX_CAP).n == VERTEX_CAP
    with pytest.raises(ResourceLimitError, match="cap is"):
        read_adjacency_json(cap % (VERTEX_CAP + 1))
    with pytest.raises(ResourceLimitError):
        read_adjacency_json(cap % 10**9)


def test_file_roundtrip_by_extension(tmp_path):
    g = Graph.from_edges(6, [(0, 5), (1, 4)])
    p6 = tmp_path / "g.g6"
    pj = tmp_path / "g.json"
    write_graph(g, str(p6))
    write_graph(g, str(pj))
    assert read_graph(str(p6)) == g
    assert read_graph(str(pj)) == g


def test_read_graph_sniffs_content(tmp_path):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    odd = tmp_path / "graph.dat"
    odd.write_text(write_adjacency_json(g), encoding="utf-8")
    assert read_graph(str(odd)) == g
    odd6 = tmp_path / "graph6.dat"
    odd6.write_text(write_graph6(g) + "\n", encoding="utf-8")
    assert read_graph(str(odd6)) == g


def test_read_graph_reads_utf8(tmp_path):
    # a JSON string may hold any character; graph6 stays ASCII, and its
    # reader names the offset of the first byte outside it
    pj = tmp_path / "g.json"
    pj.write_text('{"n": 2, "edges": [], "x": "é"}', encoding="utf-8")
    assert read_graph(str(pj)) == Graph.from_edges(2, [])
    p6 = tmp_path / "g.g6"
    p6.write_text("Bé\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_graph(str(p6))
    assert err.value.offset == 1
