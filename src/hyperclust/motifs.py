"""Embedding enumeration and the motif expansion of a hypergraph.

An embedding of a motif R into a graph G is an injective vertex map under
which every R-edge's image equals the vertex set of some G-edge.  The
expansion of G along a motif list replaces G's edges with one edge per
embedding, spanning the embedding's image.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections import Counter

from .graphs import GraphMorphism, Hypergraph, SizeLimitError, independence_number


class BudgetExceededError(Exception):
    """The embedding search ran past its node budget.

    ``found`` counts the embeddings accounted for before the search gave
    up.  Each representative found stands for its whole Aut(motif) coset, so
    this is the number of representatives times the motif's automorphism
    count.
    """

    def __init__(self, budget, found):
        super().__init__(f"embedding search exceeded its budget of {budget} nodes")
        self.budget = budget
        self.found = found


def _search_order(motif):
    # Vertices covered by edges first, preferring ones that share edges with
    # vertices already placed; this keeps candidate sets small.  Vertices on
    # larger edges go early so partially-placed big edges prune sooner.
    weight = {v: 0 for v in motif.vertices}
    for s in motif.edges.values():
        for v in s:
            weight[v] += len(s)
    order = []
    placed = set()
    remaining = set(motif.vertices)
    while remaining:
        def rank(v):
            shared = sum(1 for s in motif.edge_sets() if v in s and s & placed)
            return (-shared, -weight[v], v)

        v = min(remaining, key=rank)
        order.append(v)
        placed.add(v)
        remaining.discard(v)
    return order


def _edge_index(sets):
    # (vertex, edge size) -> the distinct edge sets of that size through it.
    index = {}
    for s in sets:
        size = len(s)
        for v in s:
            index.setdefault((v, size), []).append(s)
    return index


class _Plan:
    """How to search for one motif, computed once per motif.

    Position i places motif vertex ``order[i]``.  ``anchors[i]`` is None or
    ``(size, placed)``: a motif edge of that size through the vertex whose
    earlier positions ``placed`` are already mapped, so candidates come from
    the target edges through their images.  ``closes[i]`` lists the other
    edges (as position tuples) whose last vertex is placed at i, and
    ``needs[i]`` the ``(edge size, count)`` profile a target vertex must
    meet.  ``lower[i]`` lists the earlier positions whose images the image
    of i must exceed, and ``levels`` the stabilizer chain's non-identity
    transversal elements, as getters on image tuples in sorted-vertex
    order; ``slots`` turns a position-ordered image tuple into that order.
    """

    __slots__ = (
        "order", "sizes", "anchors", "closes", "needs", "slots",
        "lower", "levels", "group_size",
    )


@functools.lru_cache(maxsize=1024)
def _plan(motif):
    order = tuple(_search_order(motif))
    position = {v: i for i, v in enumerate(order)}
    edges = sorted(tuple(sorted(position[v] for v in s)) for s in motif.edge_sets())
    plan = _Plan()
    plan.order = order
    plan.sizes = tuple(sorted(Counter(len(e) for e in edges).items()))
    anchors, closes, needs = [], [], []
    for i in range(len(order)):
        mine = [e for e in edges if i in e]
        needs.append(tuple(sorted(Counter(len(e) for e in mine).items())))
        anchored = [e for e in mine if e[0] < i]
        # Most placed vertices first, then the fewest left to place.
        anchor = max(anchored, key=lambda e: (sum(p < i for p in e), -len(e)), default=None)
        if anchor is None:
            anchors.append(None)
        else:
            anchors.append((len(anchor), tuple(p for p in anchor if p < i)))
        # Candidates from a closing anchor already complete it to an edge.
        closes.append(tuple(e for e in mine if e[-1] == i and e != anchor))
    plan.anchors, plan.closes, plan.needs = tuple(anchors), tuple(closes), tuple(needs)
    plan.slots = tuple(position[v] for v in motif.vertices)
    plan.lower, plan.levels, plan.group_size = _stabilizer_chain(plan, motif)
    return plan


def _stabilizer_chain(plan, motif):
    """Aut(motif) as a stabilizer chain along the placement order.

    For each position i, a first-hit search of the motif into itself with
    positions before i fixed and position i sent to w finds an automorphism
    fixing ``order[:i]`` and moving ``order[i]`` to w, when one exists.  The
    hits form the orbit of ``order[i]`` under that stabilizer and a
    transversal of the next stabilizer in it.  Requiring ``order[i]``'s image
    to be below the image of every other orbit member picks exactly one
    embedding from each coset f·Aut, and products of one transversal
    element per level rebuild the coset.

    Returns ``(lower, levels, group size)`` as described on :class:`_Plan`.
    """
    order = plan.order
    n = len(order)
    sets = motif.edge_sets()
    index = _edge_index(sets)
    position = {v: i for i, v in enumerate(order)}
    sorted_at = {v: k for k, v in enumerate(motif.vertices)}
    unconstrained = ((),) * n
    lower = [[] for _ in range(n)]
    levels = []
    group_size = 1
    for i in range(n):
        pins = {j: order[j] for j in range(i)}
        moves = []
        for w in order[i + 1:]:
            if plan.needs[position[w]] != plan.needs[i]:
                continue
            pins[i] = w
            hit = _search(plan, motif, sets, index, unconstrained, pins, first=True)
            if hit:
                lower[position[w]].append(i)
                image = dict(zip(order, hit[0]))
                moves.append(operator.itemgetter(*(sorted_at[image[v]] for v in motif.vertices)))
        if moves:
            levels.append(tuple(moves))
            group_size *= len(moves) + 1
    return tuple(map(tuple, lower)), tuple(levels), group_size


def _search(plan, graph, sets, index, lower, pins=None, first=False, budget=None):
    """The search kernel: position-ordered image tuples of the embeddings
    of the plan's motif into ``graph`` whose image at i exceeds the images
    at ``lower[i]`` and equals ``pins[i]`` where pinned; only the first one
    found when ``first``.  ``sets`` and ``index`` are the graph's distinct
    edge sets and their :func:`_edge_index`.  Each candidate that passes the
    injectivity, order and profile tests is one node against ``budget``.
    """
    anchors, closes, needs = plan.anchors, plan.closes, plan.needs
    n = len(anchors)
    image = [None] * n
    used = set()
    found = []
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == n:
            found.append(tuple(image))
            return first
        anchor = anchors[i]
        if anchor is None:
            candidates = graph.vertices
        else:
            size, placed = anchor
            through = index.get((image[placed[0]], size), ())
            if len(placed) > 1:
                held = {image[p] for p in placed}
                through = [s for s in through if held <= s]
            candidates = sorted(set().union(*through) - used)
        if pins and i in pins:
            candidates = [pins[i]] if pins[i] in candidates else []
        need, closing = needs[i], closes[i]
        floor = max([image[j] for j in lower[i]]) if lower[i] else None
        for w in candidates:
            if w in used or (floor is not None and w <= floor):
                continue
            for size, count in need:
                if len(index.get((w, size), ())) < count:
                    break
            else:
                nodes += 1
                if budget is not None and nodes > budget:
                    raise BudgetExceededError(budget, len(found) * plan.group_size)
                image[i] = w
                if closing and not all(
                    frozenset([image[p] for p in e]) in sets for e in closing
                ):
                    continue
                used.add(w)
                if extend(i + 1):
                    return True
                used.discard(w)
        return False

    extend(0)
    return found


def enumerate_embeddings(motif, graph, budget=None):
    """All embeddings of ``motif`` into ``graph`` as morphisms, sorted by
    their image tuple so the order is reproducible.

    Automorphisms of the motif act freely on its embeddings, so the search
    looks for one embedding per coset f·Aut(motif): symmetry-breaking
    constraints ``image[i] < image[j]``, read off a stabilizer chain of
    Aut(motif), admit exactly one member of each coset.  Each member found
    is then composed with every product of the chain's transversals to
    emit its whole coset.  The chain comes from pinned searches of the
    motif into itself and is kept, with the rest of the per-motif search
    plan, in a bounded cache.

    ``budget`` caps the number of nodes of the representative search;
    overruns raise :class:`BudgetExceededError`, whose ``found`` counts the
    embeddings the representatives found so far stand for.
    """
    plan = _plan(motif)
    if len(plan.order) > len(graph.vertices):
        return []
    sets = graph.edge_sets()
    have = [len(s) for s in sets]
    if any(have.count(size) < count for size, count in plan.sizes):
        return []
    found = _search(plan, graph, sets, _edge_index(sets), plan.lower, budget=budget)
    images = [tuple(rep[p] for p in plan.slots) for rep in found]
    for level in plan.levels:
        images.extend([move(image) for image in images for move in level])
    images.sort()
    names = motif.vertices
    return [GraphMorphism._make(motif, graph, dict(zip(names, image))) for image in images]


def _check_motifs(motifs):
    cooked = list(motifs)
    for m in cooked:
        if not isinstance(m, Hypergraph):
            raise ValueError("motifs must be hypergraphs; resolve names first")
        if not m.vertices:
            raise ValueError(
                "a motif with no vertices would expand to an empty edge, "
                "which the data model rejects"
            )
    return cooked


def expansion_edge_id(index, mapping):
    pairs = ",".join(f"{a}:{b}" for a, b in sorted(mapping.items()))
    return f"m{index}[{pairs}]"


_EDGE_ID = re.compile(r"^m(\d+)\[(.*)\]$")


def expansion_provenance(edge_id):
    """Recover (motif index, vertex map) from an expansion edge id."""
    match = _EDGE_ID.match(edge_id)
    if not match:
        raise ValueError(f"not an expansion edge id: {edge_id}")
    mapping = {}
    body = match.group(2)
    if body:
        for pair in body.split(","):
            a, _, b = pair.partition(":")
            mapping[a] = b
    return int(match.group(1)), mapping


def motif_expansion(motifs, graph, budget=None):
    """The expansion of ``graph`` along ``motifs``: same vertices, one edge
    per embedding of each motif, covering the embedding's image.

    Edge ids encode the motif index and the vertex map, so the output is
    reproducible and each edge's provenance can be recovered from its id.
    Vertex names containing ``,`` or ``:`` can give two embeddings the same
    id; that raises ``ValueError`` rather than dropping an edge.
    """
    cooked = _check_motifs(motifs)
    edges = {}
    for index, motif in enumerate(cooked):
        for emb in enumerate_embeddings(motif, graph, budget=budget):
            eid = expansion_edge_id(index, emb.map)
            if eid in edges:
                raise ValueError(f"two embeddings are both named {eid}")
            edges[eid] = emb.image(motif.vertices)
    return Hypergraph._make(graph.vertices, dict(sorted(edges.items())))


def expansion_edge_sets(motifs, graph, budget=None):
    """Just the distinct edge vertex sets of the expansion; cheaper than
    building the full expansion when only overlaps matter."""
    cooked = _check_motifs(motifs)
    sets = set()
    for motif in cooked:
        for emb in enumerate_embeddings(motif, graph, budget=budget):
            sets.add(frozenset(emb.map.values()))
    return frozenset(sets)


def is_spanned(graph):
    """Whether some edge covers every vertex."""
    return frozenset(graph.vertices) in graph.edge_sets()


def acyclic_orientation_profile(graph, bound=20):
    """Count acyclic orientations of a simple graph by sink count.

    Returns a dict mapping number-of-sinks to how many acyclic orientations
    have it.  A sink is a vertex with no outgoing edge, so isolated vertices
    are sinks in every orientation.  All 2^|E| orientations are tried;
    graphs with more than ``bound`` edges are refused.
    """
    if not graph.is_simple():
        raise ValueError("acyclic_orientation_profile requires a simple graph")
    edges = [tuple(sorted(s)) for s in graph.edges.values()]
    m = len(edges)
    if m > bound:
        raise SizeLimitError(
            f"acyclic_orientation_profile is brute force; {m} edges exceeds bound {bound}"
        )
    vertices = list(graph.vertices)
    profile = Counter()
    for signs in itertools.product((0, 1), repeat=m):
        out = {v: [] for v in vertices}
        for (u, w), flip in zip(edges, signs):
            if flip:
                out[w].append(u)
            else:
                out[u].append(w)
        # Kahn peeling: acyclic iff everything peels.
        indeg = Counter()
        for v, targets in out.items():
            for t in targets:
                indeg[t] += 1
        queue = [v for v in vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for t in out[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        if seen == len(vertices):
            sinks = sum(1 for v in vertices if not out[v])
            profile[sinks] += 1
    return dict(sorted(profile.items()))


def embedding_count_bound(motif, degeneracy_value, n, bound=20):
    """Upper bound on embeddings of a simple ``motif`` into any graph with
    ``n`` vertices and the given degeneracy.

    Sums, over acyclic orientations of the motif grouped by sink count t,
    ``degeneracy**( |motif| - t ) * n**t``; orientations with more sinks
    than the motif's independence number cannot occur, so the sum is finite
    and tight in t.
    """
    profile = acyclic_orientation_profile(motif, bound=bound)
    alpha = independence_number(motif)
    size = len(motif.vertices)
    total = 0
    for sinks, count in profile.items():
        if sinks > alpha:
            raise AssertionError("sink count exceeded the independence number")
        total += count * (degeneracy_value ** (size - sinks)) * (n ** sinks)
    return total
