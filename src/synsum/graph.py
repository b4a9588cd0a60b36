"""Heterogeneous document graph built from per-sentence dependency parses.

One node per token of the flattened document. Every within-sentence
dependency contributes a forward edge (head to dependent) and a backward
edge (dependent to head), both carrying the dependency label. Every node
gets a self-loop, and the syntactic roots of consecutive sentences are
chained with bidirectional adjacency edges, so the undirected view of the
graph is always connected.

Edge order is deterministic: per sentence, per token, forward then backward
dependency edges; then all self-loops; then the root chain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum

from .corpus import Document

__all__ = [
    "EdgeClass",
    "Edge",
    "DocumentGraph",
    "build_document_graph",
    "graph_stats",
    "export_graph",
]


class EdgeClass(IntEnum):
    FWD = 0   # head -> dependent
    BWD = 1   # dependent -> head
    SELF = 2  # node -> itself
    ADJ = 3   # root of one sentence <-> root of the next


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    cls: EdgeClass
    label: int | None  # dependency-label id, present iff cls is FWD or BWD


@dataclass
class DocumentGraph:
    n: int
    edges: list[Edge]
    roots: list[int]  # per-sentence root node index, in sentence order
    label_names: list[str]  # id -> surface label

    def validate(self) -> None:
        self_loops = Counter()
        fwd = Counter()
        bwd = Counter()
        for e in self.edges:
            if not (0 <= e.src < self.n and 0 <= e.dst < self.n):
                raise ValueError(f"edge {e} outside [0, {self.n})")
            if (e.label is not None) != (e.cls in (EdgeClass.FWD, EdgeClass.BWD)):
                raise ValueError(f"edge {e}: label presence violates class rule")
            if e.cls == EdgeClass.SELF:
                self_loops[e.src] += 1
            elif e.cls == EdgeClass.FWD:
                fwd[(e.src, e.dst, e.label)] += 1
            elif e.cls == EdgeClass.BWD:
                bwd[(e.dst, e.src, e.label)] += 1
        if any(self_loops[i] != 1 for i in range(self.n)):
            raise ValueError("every node must have exactly one self-loop")
        if fwd != bwd:
            raise ValueError("forward/backward dependency edges are not paired")


def build_document_graph(doc: Document) -> DocumentGraph:
    """Assemble the typed-edge graph for one document.

    Dependency labels get ids by first appearance within the document; the
    model's weights depend only on the edge class, never on a label id.
    """
    label_ids: dict[str, int] = {}
    edges: list[Edge] = []
    roots: list[int] = []
    offset = 0
    for sent in doc.sentences:
        for i, (head, label) in enumerate(zip(sent.heads, sent.labels)):
            node = offset + i
            if head == 0:
                roots.append(node)
            else:
                head_node = offset + head - 1
                lid = label_ids.setdefault(label, len(label_ids))
                edges.append(Edge(head_node, node, EdgeClass.FWD, lid))
                edges.append(Edge(node, head_node, EdgeClass.BWD, lid))
        offset += len(sent.tokens)

    n = offset
    for i in range(n):
        edges.append(Edge(i, i, EdgeClass.SELF, None))
    for a, b in zip(roots, roots[1:]):
        edges.append(Edge(a, b, EdgeClass.ADJ, None))
        edges.append(Edge(b, a, EdgeClass.ADJ, None))

    return DocumentGraph(n=n, edges=edges, roots=roots, label_names=list(label_ids))


def graph_stats(g: DocumentGraph) -> dict:
    """Edge counts per class, label histogram and maximum in-degree."""
    class_counts = {cls.name: 0 for cls in EdgeClass}
    label_hist: Counter[str] = Counter()
    in_degree = Counter()
    for e in g.edges:
        class_counts[e.cls.name] += 1
        in_degree[e.dst] += 1
        if e.label is not None:
            label_hist[g.label_names[e.label]] += 1
    return {
        "nodes": g.n,
        "edges": class_counts,
        "labels": dict(sorted(label_hist.items())),
        "max_in_degree": max(in_degree.values(), default=0),
        "roots": list(g.roots),
    }


def export_graph(g: DocumentGraph) -> dict:
    """JSON-ready record: node count, roots and (src, dst, class, label)."""
    return {
        "n": g.n,
        "roots": list(g.roots),
        "edges": [[e.src, e.dst, e.cls.name, e.label] for e in g.edges],
        "label_names": list(g.label_names),
    }
