"""Heterogeneous document graph built from per-sentence dependency parses.

One node per token of the flattened document. Every within-sentence
dependency contributes a forward edge (head to dependent) and a backward
edge (dependent to head), both carrying the dependency label. Every node
gets a self-loop, and the syntactic roots of consecutive sentences are
chained with bidirectional adjacency edges, so the undirected view of the
graph is always connected.

The edges are four parallel ``np.intp`` arrays, the ``edge_index`` layout
of PyTorch Geometric (Fey & Lenssen 2019) with a class and a label per
edge: edge k runs from ``src[k]`` to ``dst[k]``, has class ``cls[k]`` (an
``EdgeClass`` value) and label id ``label[k]``, which is -1 on SELF and ADJ
edges. Edge order is deterministic: per sentence, per token, forward then
backward dependency edges; then all self-loops; then the root chain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import Document

__all__ = [
    "EdgeClass",
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


@dataclass(eq=False)
class DocumentGraph:
    n: int
    src: np.ndarray    # (E,) source node of each edge
    dst: np.ndarray    # (E,) destination node of each edge
    cls: np.ndarray    # (E,) EdgeClass value of each edge
    label: np.ndarray  # (E,) dependency-label id, -1 unless FWD or BWD
    roots: list[int]  # per-sentence root node index, in sentence order
    label_names: list[str]  # id -> surface label

    def validate(self) -> None:
        src, dst, cls, label = self.src, self.dst, self.cls, self.label
        if ((src < 0) | (src >= self.n) | (dst < 0) | (dst >= self.n)).any():
            raise ValueError(f"an edge lies outside [0, {self.n})")
        dep = (cls == EdgeClass.FWD) | (cls == EdgeClass.BWD)
        if ((label >= 0) != dep).any():
            raise ValueError("label presence violates class rule")
        loops = cls == EdgeClass.SELF
        if (src[loops] != dst[loops]).any():
            raise ValueError("a SELF edge is not a loop")
        if (np.bincount(src[loops], minlength=self.n) != 1).any():
            raise ValueError("every node must have exactly one self-loop")
        fwd = np.stack([src, dst, label], axis=1)[cls == EdgeClass.FWD]
        bwd = np.stack([dst, src, label], axis=1)[cls == EdgeClass.BWD]
        if sorted(fwd.tolist()) != sorted(bwd.tolist()):
            raise ValueError("forward/backward dependency edges are not paired")


def build_document_graph(doc: Document) -> DocumentGraph:
    """Assemble the typed-edge graph for one document.

    Dependency labels get ids by first appearance within the document; the
    model's weights depend only on the edge class, never on a label id.
    """
    label_ids: dict[str, int] = {}
    src: list[int] = []
    dst: list[int] = []
    labels: list[int] = []
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
                src += (head_node, node)
                dst += (node, head_node)
                labels += (lid, lid)
        offset += len(sent.tokens)

    n, n_dep = offset, len(src)
    src += range(n)
    dst += range(n)
    for a, b in zip(roots, roots[1:]):
        src += (a, b)
        dst += (b, a)
    n_adj = len(src) - n_dep - n
    cls = np.repeat(np.intp([EdgeClass.FWD, EdgeClass.SELF, EdgeClass.ADJ]),
                    [n_dep, n, n_adj])
    cls[1:n_dep:2] = EdgeClass.BWD  # each FWD edge is followed by its BWD
    return DocumentGraph(
        n=n,
        src=np.array(src, dtype=np.intp),
        dst=np.array(dst, dtype=np.intp),
        cls=cls,
        label=np.array(labels + [-1] * (n + n_adj), dtype=np.intp),
        roots=roots,
        label_names=list(label_ids),
    )


def graph_stats(g: DocumentGraph) -> dict:
    """Edge counts per class, label histogram and maximum in-degree."""
    labels = Counter(g.label_names[lid] for lid in g.label[g.label >= 0].tolist())
    return {
        "nodes": g.n,
        "edges": {cls.name: int(np.count_nonzero(g.cls == cls))
                  for cls in EdgeClass},
        "labels": dict(sorted(labels.items())),
        "max_in_degree": int(np.bincount(g.dst).max(initial=0)),
        "roots": list(g.roots),
    }


def export_graph(g: DocumentGraph) -> dict:
    """JSON-ready record: node count, roots and (src, dst, class, label)."""
    return {
        "n": g.n,
        "roots": list(g.roots),
        "edges": [
            [src, dst, EdgeClass(cls).name, None if label < 0 else label]
            for src, dst, cls, label in zip(
                g.src.tolist(), g.dst.tolist(), g.cls.tolist(), g.label.tolist()
            )
        ],
        "label_names": list(g.label_names),
    }
