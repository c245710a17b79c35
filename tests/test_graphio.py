import hashlib
import itertools
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
    paste,
    read_graph6,
    write_adjacency_json,
    write_graph,
    write_graph6,
)

from unchoosable import graphio
from unchoosable.graphs import GRAPH6_BYTE_CAP, PAIR_TABLE_N, VERTEX_CAP, pair_table

from conftest import forbid_adjacency_masks, naive_read_graph6, random_graph


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


def test_graph6_size_field_forms():
    # where each form ends: 1 byte up to 62, "~" and 3 digits up to
    # 258047, "~~" and 6 digits past it (the bit-by-bit decoder test
    # reads a small n in each form)
    assert graphio._encode_size(62) == b"}"
    assert graphio._encode_size(63) == b"~??~"
    assert graphio._encode_size(258047) == b"~}~~"
    assert graphio._encode_size(258048) == b"~~???~??"
    # a field cut short is reported at the end of the input
    for text in ("~", "~?", "~??", "~~", "~~????", "~~~~~~~"):
        with pytest.raises(ParseError, match="truncated graph6 size field") as err:
            read_graph6(text)
        assert err.value.offset == len(text), text


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
    # offsets count from the start of the text given, past leading
    # whitespace and the header
    for lead in ("  ", ">>graph6<<", " \n>>graph6<<"):
        with pytest.raises(ParseError, match="invalid graph6 byte") as err:
            read_graph6(lead + "A!")
        assert err.value.offset == len(lead) + 1, lead
        with pytest.raises(ParseError, match="truncated graph6 edge") as err:
            read_graph6(lead + text[:-1] + "\n")
        assert err.value.offset == len(lead) + len(text) - 1, lead


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


def test_graph6_reader_matches_a_bit_by_bit_decoder():
    # n = 0..70 straddles the 62/63 boundary of the one-byte size field;
    # past 62 a graph's bits run on from the pair table into the column
    # walk.  Each small n is also read from the 4-byte and 8-byte size
    # forms, which the reader accepts though no writer emits them
    rng = random.Random(49)
    for n in range(71):
        for _ in range(4):
            text = write_graph6(random_graph(rng, n, rng.random()))
            assert read_graph6(text) == naive_read_graph6(text), n
            if n <= 62:
                for long_form in ("~??", "~~?????"):
                    long_text = long_form + chr(63 + n) + text[1:]
                    assert read_graph6(long_text) == naive_read_graph6(text), n


def _table_pair(e):
    u, v = e
    return pair_table()[v * (v - 1) // 2 + u] if v < PAIR_TABLE_N else None


def _decoded_with_clique(rng: random.Random, n: int, clique: list) -> Graph:
    g = random_graph(rng, n, 0.5)
    g = Graph.from_edges(n, list(g.edges) + list(itertools.combinations(clique, 2)))
    return read_graph6(write_graph6(g))


def _paste_by_relabelling(g1, s1, g2, s2) -> Graph:
    relabel = dict(zip(s2, s1))
    rest = [v for v in range(g2.n) if v not in relabel]
    relabel.update(zip(rest, range(g1.n, g1.n + len(rest))))
    moved = [(relabel[u], relabel[v]) for u, v in g2.edges]
    return Graph.from_edges(g1.n + len(rest), list(g1.edges) + moved)


def _holds_shared_pairs_exactly_below_62(g: Graph) -> bool:
    # the one sharing rule: an edge is the table's tuple iff v < 62
    return all((e is _table_pair(e)) == (e[1] < PAIR_TABLE_N) for e in g.edges)


def test_small_graphs_hold_the_shared_pair_tuples():
    pairs = pair_table()
    assert PAIR_TABLE_N == 62
    assert pairs == [(u, v) for v in range(62) for u in range(v)]
    assert len(pairs) == 1891 and pair_table() is pairs
    rng = random.Random(50)
    for n in (2, 5, 31, 61, 62, 63, 200):
        g = read_graph6(write_graph6(random_graph(rng, n, 0.5)))
        assert g.m and _holds_shared_pairs_exactly_below_62(g), n
    # a path of 63 vertices: its last edge (61, 62) is the only one of
    # its own
    path = Graph.from_edges(63, [(i, i + 1) for i in range(62)])
    back = read_graph6(write_graph6(path))
    assert back == path and _holds_shared_pairs_exactly_below_62(back)
    # a paste of two decoded graphs equals the same paste relabelled by
    # hand, and follows the same rule at any size
    cases = ((3, 3, 2), (7, 5, 3), (40, 25, 3), (31, 31, 0), (40, 26, 3), (50, 50, 4))
    for n1, n2, k in cases:
        s1, s2 = rng.sample(range(n1), k), rng.sample(range(n2), k)
        g1 = _decoded_with_clique(rng, n1, s1)
        g2 = _decoded_with_clique(rng, n2, s2)
        h = paste(g1, s1, g2, s2)
        assert h == _paste_by_relabelling(g1, s1, g2, s2), (n1, n2, k)
        assert _holds_shared_pairs_exactly_below_62(h), (n1, n2, k)
    assert h.n == 96 and any(v >= PAIR_TABLE_N for _, v in h.edges)


def test_small_decoded_graphs_keep_under_45_bytes_an_edge():
    # each edge of a kept graph is a pointer into the shared pair table,
    # not a tuple of its own (about 90 bytes an edge when each read made
    # fresh tuples); the first read builds the table outside the trace
    rng = random.Random(51)
    texts = [
        write_graph6(random_graph(rng, n, 0.5))
        for n in (rng.randint(3, 7) for _ in range(2000))
    ]
    read_graph6(texts[0])
    tracemalloc.start()
    try:
        kept = [read_graph6(text) for text in texts]
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    edges = sum(g.m for g in kept)
    assert retained < 45 * edges, (retained, edges)


def test_graph6_writer_peaks_under_two_and_a_half_times_its_text():
    # the bit buffer, the base64 text and the joined bytes overlap at
    # most two at a time; the text is byte for byte the earlier writer's
    n = 10**4
    path = Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))
    tracemalloc.start()
    try:
        text = write_graph6(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 8_332_504
    assert peak <= 2.5 * len(text), (peak, len(text))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bda38ac4c3342178dd3f649b17b7baa8bf9cbd6f41c7d43d1b7928a2511b2d05"
    )


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
