"""Overlap percolation: the components of "shares at least k elements".

``percolate`` is the one kernel, and every overlap component in the package
comes from it, directly or through ``component_member_unions``.  Two sets
share at least k elements exactly when they share a k-subset, so it joins
each set to the first earlier set that holds each of its k-subsets, and
never compares two sets pairwise: the k-subset form of sequential clique
percolation (Kumpula et al., Phys. Rev. E 2008).  At k = 1 the k-subsets are
the elements themselves.  A k-subset's key must not depend on the order a
set is iterated in: it is the sorted tuple of its members when they are
strings, which are totally ordered, and a frozenset otherwise.  A set with
more k-subsets than counting could ever cost for it, C(|s|, k) > |s|·(n − 1)
among n sets, sends the whole call to ``_overlap_pairs``, which counts the
earlier holders of each element.

Unioning each component's member sets yields the overlap clustering;
vertices on no edge end up in no part.  The line graph, with one vertex per
distinct edge vertex set named by ``set_name``, is built only for display,
from ``_overlap_pairs``.
"""

from __future__ import annotations

import math
from itertools import combinations

from .graphs import Hypergraph, name_escapes

INFINITE = math.inf
_NAME_ESCAPES = name_escapes(",")


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
    """Canonical line-graph vertex name for a vertex set: "{a,b,c}", with
    ``\\`` and ``,`` in member names escaped by a backslash, so distinct
    sets never share a name."""
    return "{" + ",".join(m.translate(_NAME_ESCAPES) for m in sorted(members)) + "}"


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
    into ``sets`` in ascending order, ordered by their smallest index.  Two
    sets are related when they share at least ``k`` elements; at threshold
    infinity every set is its own component.

    Two sets share at least k elements exactly when they share a k-subset,
    so each set is joined to the first earlier set that holds each of its
    k-subsets; at k = 1 these are its elements.  A k-subset's key is the
    sorted tuple of its members when they are strings, and a frozenset
    otherwise, so no key depends on the order a set is iterated in.  When a
    set has C(|s|, k) > |s|·(n − 1) k-subsets, more than counting the
    earlier holders of its elements could ever cost, the call joins the
    pairs :func:`_overlap_pairs` counts instead, keeping the joins made so
    far.

    A union-find with path halving, written out inline: the checks call
    this thousands of times on a handful of sets each, where a call per
    ``find`` would cost more than the work.
    """
    k = check_threshold(k)
    n = len(sets)
    if k == INFINITE or n < 2:
        return [[i] for i in range(n)]
    parent = list(range(n))
    first = {}
    for i, s in enumerate(sets):
        if k > 1:
            size = len(s)
            if size < k:
                continue
            # C(size, k) <= size for size <= k + 1, so only larger sets can
            # tip the call over to counting.
            if size > k + 1 and math.comb(size, k) > size * (n - 1):
                pairs = _overlap_pairs(sets, k)
                break
            try:
                s = sorted(s)
                strings = type(s[0]) is str
            except TypeError:
                s, strings = list(s), False
            s = combinations(s, k) if strings else map(frozenset, combinations(s, k))
        # Set i is joined to nothing before its own turn, so ``root``, the
        # root of its tree, needs no find.
        root = i
        for key in s:
            j = first.setdefault(key, i)
            if j != i:
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if j != root:
                    parent[root] = root = j
    else:
        pairs = ()
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
    members = {set_name(s): s for s in sets}
    names = sorted(members)
    compared = [members[n] if labels is None else labels[members[n]] for n in names]
    edges = {}
    if k != INFINITE:
        for j, i in _overlap_pairs(compared, k):
            edges[f"{j}~{i}"] = frozenset((names[j], names[i]))
    named_labels = None if labels is None else dict(zip(names, map(frozenset, compared)))
    return LineGraph(Hypergraph(names, edges), members, named_labels)


def line_graph(graph, min_overlap):
    """The overlap line graph of a hypergraph at the given threshold.

    At threshold infinity there are never enough shared vertices, so the
    result has no edges.  On a simple graph at threshold 1 this is the
    classical line graph.
    """
    return _line_graph_over(graph.edge_sets(), min_overlap)
