from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synsum import synthetic as syn
from synsum.corpus import Document, ParsedSentence
from synsum.graph import (
    EdgeClass,
    build_document_graph,
    export_graph,
    graph_stats,
)
from oracles import edge_tuples, graph_from_edges, graph_from_record


@pytest.fixture
def cats_sleep():
    # "cats sleep": sleep is root, nsubj(sleep -> cats)
    return Document(
        sentences=[
            ParsedSentence(
                tokens=["cats", "sleep"], heads=[2, 0], labels=["nsubj", "root"]
            )
        ],
        reference=["cats"],
    )


@pytest.fixture
def three_sentence_doc():
    # 7 tokens over 3 sentences, hand-checkable
    return Document(
        sentences=[
            ParsedSentence(tokens=["a", "b", "c"], heads=[2, 0, 2],
                           labels=["x", "root", "y"]),
            ParsedSentence(tokens=["d", "e"], heads=[0, 1], labels=["root", "z"]),
            ParsedSentence(tokens=["f", "g"], heads=[2, 0], labels=["x", "root"]),
        ],
        reference=["a"],
    )


def test_minimal_graph_construction(cats_sleep):
    g = build_document_graph(cats_sleep)
    g.validate()
    assert g.n == 2
    assert g.roots == [1]
    nsubj = g.label_names.index("nsubj")
    assert edge_tuples(g) == [
        (1, 0, EdgeClass.FWD, nsubj),
        (0, 1, EdgeClass.BWD, nsubj),
        (0, 0, EdgeClass.SELF, None),
        (1, 1, EdgeClass.SELF, None),
    ]


def test_two_single_token_sentences():
    doc = Document(
        sentences=[
            ParsedSentence(tokens=["go"], heads=[0], labels=["root"]),
            ParsedSentence(tokens=["stop"], heads=[0], labels=["root"]),
        ],
        reference=["go"],
    )
    g = build_document_graph(doc)
    assert edge_tuples(g) == [
        (0, 0, EdgeClass.SELF, None),
        (1, 1, EdgeClass.SELF, None),
        (0, 1, EdgeClass.ADJ, None),
        (1, 0, EdgeClass.ADJ, None),
    ]


def test_three_sentence_graph_matches_hand_built_adjacency(three_sentence_doc):
    g = build_document_graph(three_sentence_doc)
    g.validate()
    assert g.n == 7
    assert g.roots == [1, 3, 6]
    lab = {name: i for i, name in enumerate(g.label_names)}
    # hand-built oracle: global indices a..g = 0..6
    expected_dep = {
        (1, 0, EdgeClass.FWD, lab["x"]),
        (0, 1, EdgeClass.BWD, lab["x"]),
        (1, 2, EdgeClass.FWD, lab["y"]),
        (2, 1, EdgeClass.BWD, lab["y"]),
        (3, 4, EdgeClass.FWD, lab["z"]),
        (4, 3, EdgeClass.BWD, lab["z"]),
        (6, 5, EdgeClass.FWD, lab["x"]),
        (5, 6, EdgeClass.BWD, lab["x"]),
    }
    expected_self = {(i, i, EdgeClass.SELF, None) for i in range(7)}
    expected_adj = {
        (1, 3, EdgeClass.ADJ, None),
        (3, 1, EdgeClass.ADJ, None),
        (3, 6, EdgeClass.ADJ, None),
        (6, 3, EdgeClass.ADJ, None),
    }
    actual = set(edge_tuples(g))
    assert actual == expected_dep | expected_self | expected_adj
    assert sum(1 for e in edge_tuples(g) if e[2] == EdgeClass.ADJ) == 4


def test_graph_stats_fixture(cats_sleep):
    stats = graph_stats(build_document_graph(cats_sleep))
    assert stats["edges"] == {"FWD": 1, "BWD": 1, "SELF": 2, "ADJ": 0}
    assert stats["labels"] == {"nsubj": 2}
    assert stats["max_in_degree"] == 2


def test_adj_count_formula_for_single_token_sentences():
    for s in range(1, 6):
        doc = Document(
            sentences=[
                ParsedSentence(tokens=[f"t{i}"], heads=[0], labels=["root"])
                for i in range(s)
            ],
            reference=["t0"],
        )
        stats = graph_stats(build_document_graph(doc))
        assert stats["edges"]["ADJ"] == 2 * (s - 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_fwd_bwd_pairing_and_symmetry(seed):
    doc = syn.generate_documents(seed=seed, size=1)[0]
    g = build_document_graph(doc)
    g.validate()
    stats = graph_stats(g)
    assert stats["edges"]["FWD"] == stats["edges"]["BWD"]
    # reversing every edge and swapping FWD/BWD reproduces the edge multiset
    swap = {EdgeClass.FWD: EdgeClass.BWD, EdgeClass.BWD: EdgeClass.FWD}
    original = Counter(edge_tuples(g))
    reversed_ = Counter(
        (dst, src, swap.get(cls, cls), label)
        for src, dst, cls, label in edge_tuples(g)
    )
    assert original == reversed_


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_undirected_view_is_connected(seed):
    doc = syn.generate_documents(seed=seed, size=1)[0]
    g = build_document_graph(doc)
    adjacency = [set() for _ in range(g.n)]
    for src, dst, _, _ in edge_tuples(g):
        adjacency[src].add(dst)
        adjacency[dst].add(src)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    assert len(seen) == g.n


def test_identical_documents_produce_identical_edge_lists():
    doc = syn.generate_documents(seed=42, size=1)[0]
    g1 = build_document_graph(doc)
    g2 = build_document_graph(doc)
    assert edge_tuples(g1) == edge_tuples(g2)
    assert g1.roots == g2.roots


def test_export_round_trip(three_sentence_doc):
    g = build_document_graph(three_sentence_doc)
    record = export_graph(g)
    back = graph_from_record(record)
    assert edge_tuples(back) == edge_tuples(g)
    assert back.roots == g.roots
    assert back.n == g.n


def test_validate_rejects_a_self_edge_that_is_not_a_loop():
    # each node is the source of one SELF edge, but neither edge is a loop
    g = graph_from_edges(2, [(0, 1, EdgeClass.SELF, None),
                             (1, 0, EdgeClass.SELF, None)], roots=[0])
    with pytest.raises(ValueError, match="not a loop"):
        g.validate()


@pytest.mark.parametrize("edges, message", [
    ([(0, 0, EdgeClass.SELF, None), (1, 2, EdgeClass.SELF, None)], "outside"),
    ([(0, 0, EdgeClass.SELF, 0), (1, 1, EdgeClass.SELF, None)], "label"),
    ([(0, 0, EdgeClass.SELF, None), (1, 0, EdgeClass.FWD, None)], "label"),
    ([(0, 0, EdgeClass.SELF, None)], "exactly one self-loop"),
    ([(0, 0, EdgeClass.SELF, None), (0, 0, EdgeClass.SELF, None),
      (1, 1, EdgeClass.SELF, None)], "exactly one self-loop"),
    ([(0, 0, EdgeClass.SELF, None), (1, 1, EdgeClass.SELF, None),
      (1, 0, EdgeClass.FWD, 0)], "not paired"),
    ([(0, 0, EdgeClass.SELF, None), (1, 1, EdgeClass.SELF, None),
      (1, 0, EdgeClass.FWD, 0), (0, 1, EdgeClass.BWD, 1)], "not paired"),
])
def test_validate_rejects_each_broken_invariant(edges, message):
    g = graph_from_edges(2, edges, roots=[1], label_names=["x", "y"])
    with pytest.raises(ValueError, match=message):
        g.validate()


def test_edge_arrays_are_intp_and_parallel(three_sentence_doc):
    g = build_document_graph(three_sentence_doc)
    for array in (g.src, g.dst, g.cls, g.label):
        assert array.dtype == np.intp
        assert array.shape == (len(edge_tuples(g)),)
