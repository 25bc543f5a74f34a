"""Overlap percolation: the components of "shares at least k elements".

``percolate`` is the one kernel.  It groups a family of sets into the
components of the k-overlap relation without ever comparing two sets that
share no element.  Unioning each component's member sets yields the overlap
clustering; vertices on no edge end up in no part.  The named line graph,
with one vertex per distinct edge vertex set, is built only for display.
"""

from __future__ import annotations

import math

from .graphs import Hypergraph
from .partitions import PartitionedSet

INFINITE = math.inf


def check_threshold(k):
    """Overlap thresholds are integers >= 1, or infinity."""
    if k == INFINITE:
        return INFINITE
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"overlap threshold must be an integer >= 1 or infinity, got {k!r}")
    if k < 1:
        raise ValueError(f"overlap threshold must be at least 1, got {k}")
    return k


def parse_threshold(text):
    """Parse a threshold from CLI or JSON: an int, or 'inf'."""
    if isinstance(text, (int, float)):
        return check_threshold(text)
    lowered = str(text).strip().lower()
    if lowered in ("inf", "infinity", "oo"):
        return INFINITE
    try:
        return check_threshold(int(lowered))
    except ValueError as exc:
        raise ValueError(f"bad overlap threshold: {text!r}") from exc


def threshold_to_json(k):
    return "inf" if k == INFINITE else k


def set_name(members):
    """Canonical line-graph vertex name for a vertex set: "{a,b,c}"."""
    return "{" + ",".join(sorted(members)) + "}"


class LineGraph:
    """A simple graph over distinct vertex sets, built for display.

    ``graph`` is the simple graph itself (vertices named via set_name),
    ``members`` maps each line vertex back to the set it stands for, and
    ``labels``, when present, carries the per-vertex annotation used by the
    shared-edge scheme.
    """

    __slots__ = ("graph", "members", "labels")

    def __init__(self, graph, members, labels=None):
        self.graph = graph
        self.members = members
        self.labels = labels

    def __repr__(self):
        return (
            f"LineGraph({len(self.members)} vertices, "
            f"{len(self.graph.edges)} edges)"
        )


def _overlap_pairs(sets, k):
    """Yield ``(j, i)``, ``j < i``, for the sets sharing at least ``k`` elements;
    sets that share no element are never compared.

    Set i lists the earlier holders of each of its elements, then counts
    them per earlier set j in a plain dict, skipped when the list is
    shorter than ``k``; on the handful of sets a check percolates, a
    ``Counter`` per set costs more than the counting.  Pairs for one i come
    out in the order their j was first met.
    """
    holders = {}
    for i, s in enumerate(sets):
        met = []
        for x in s:
            held = holders.setdefault(x, [])
            met += held
            held.append(i)
        if len(met) < k:
            continue
        shared = {}
        for j in met:
            shared[j] = shared.get(j, 0) + 1
        for j, count in shared.items():
            if count >= k:
                yield j, i


def percolate(sets, k):
    """Components of the k-overlap relation on ``sets``, as lists of indices
    into ``sets``.  Two sets are related when they share at least ``k``
    elements; at threshold infinity every set is its own component.

    A union-find with path halving, written out inline: the checks call
    this thousands of times on a handful of sets each, where a call per
    ``find`` would cost more than the work.
    """
    k = check_threshold(k)
    n = len(sets)
    if k == INFINITE or n < 2:
        return [[i] for i in range(n)]
    if k == 1:
        # Joining each set to the first holder of each of its elements
        # connects exactly the sets that share an element.
        first = {}
        pairs = ((first.setdefault(x, i), i) for i, s in enumerate(sets) for x in s)
    else:
        pairs = _overlap_pairs(sets, k)
    parent = list(range(n))
    for j, i in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        parent[i] = j
    groups = {}
    for i in range(n):
        root = i
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(i)
    return list(groups.values())


def component_member_unions(sets, k, labels=None):
    """Union the member sets across each k-overlap component of ``sets``,
    with overlap measured on ``labels[s]`` in place of ``s`` when given."""
    sets = list(sets)
    compared = sets if labels is None else [labels[s] for s in sets]
    member = sets.__getitem__
    return [
        frozenset(sets[comp[0]]) if len(comp) == 1 else frozenset().union(*map(member, comp))
        for comp in percolate(compared, k)
    ]


def has_full_part(vertices, parts):
    """Whether some part is the whole vertex set; never for no vertices."""
    full = frozenset(vertices)
    return bool(full) and full in parts


def _line_graph_over(sets, min_overlap, labels=None):
    # The line graph with set_name vertices; overlap on ``labels`` when given.
    k = check_threshold(min_overlap)
    members = {}
    for s in sets:
        if members.setdefault(set_name(s), s) != s:
            raise ValueError(f"two distinct vertex sets are both named {set_name(s)}")
    names = sorted(members)
    compared = [members[n] if labels is None else labels[members[n]] for n in names]
    edges = {}
    if k != INFINITE:
        for j, i in _overlap_pairs(compared, k):
            edges[f"{names[j]}~{names[i]}"] = frozenset((names[j], names[i]))
    named_labels = None if labels is None else dict(zip(names, map(frozenset, compared)))
    return LineGraph(Hypergraph(names, edges), members, named_labels)


def line_graph(graph, min_overlap):
    """The overlap line graph of a hypergraph at the given threshold.

    At threshold infinity there are never enough shared vertices, so the
    result has no edges.  On a simple graph at threshold 1 this is the
    classical line graph.
    """
    return _line_graph_over(graph.edge_sets(), min_overlap)


def vertex_components(vertices, sets):
    """Components of ``vertices`` joined through ``sets``; a vertex on no set
    is a singleton component."""
    singletons = [frozenset((v,)) for v in vertices]
    return component_member_unions(list(sets) + singletons, 1)


def connected_components(graph):
    """Components of a simple graph as a partitioned set; isolated vertices
    become singleton parts, so every vertex lands in exactly one part."""
    if not graph.is_simple():
        raise ValueError("connected_components requires a simple graph")
    return PartitionedSet(graph.vertices, vertex_components(graph.vertices, graph.edges.values()))


def overlap_components(graph, min_overlap):
    """The overlap clustering of a hypergraph: one part per component of the
    line graph at the given threshold, each part the union of its component's
    edge sets.  Underlying set is the full vertex set; vertices on no edge
    appear in no part."""
    return PartitionedSet(graph.vertices, component_member_unions(graph.edge_sets(), min_overlap))


def is_overlap_connected(graph, min_overlap):
    """Whether the overlap clustering has a part equal to the whole vertex
    set.  False for the empty graph, which has no parts at all."""
    return has_full_part(graph.vertices, overlap_components(graph, min_overlap).parts)


def edge_set_parts(graph):
    """The limiting clustering at threshold infinity, spelled directly: one
    part per distinct edge vertex set."""
    return PartitionedSet(graph.vertices, graph.edge_sets())
