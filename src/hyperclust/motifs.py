"""Embedding enumeration and the motif expansion of a hypergraph.

An embedding of a motif R into a graph G is an injective vertex map under
which every R-edge's image equals the vertex set of some G-edge.  The
expansion of G along a motif list replaces G's edges with one edge per
embedding, spanning the embedding's image.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter

from .graphs import GraphMorphism, Hypergraph, SizeLimitError, independence_number


class BudgetExceededError(Exception):
    """The embedding search ran past its node budget.

    ``found`` carries the number of embeddings completed before the search
    gave up, so callers can report partial progress.
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


def enumerate_embeddings(motif, graph, budget=None):
    """All embeddings of ``motif`` into ``graph`` as morphisms, sorted by
    their image tuple so the order is reproducible.

    ``budget`` caps the number of search nodes; overruns raise
    :class:`BudgetExceededError` with the count found so far.
    """
    src_n = len(motif.vertices)
    if src_n > len(graph.vertices):
        return []
    target_sets = set(graph.edges.values())
    sizes_needed = Counter(len(s) for s in motif.edge_sets())
    sizes_have = Counter(len(s) for s in target_sets)
    for size, need in sizes_needed.items():
        if sizes_have.get(size, 0) < need:
            return []

    by_vertex = {v: [] for v in graph.vertices}
    for s in target_sets:
        for v in s:
            by_vertex[v].append(s)
    src_profile = {v: Counter() for v in motif.vertices}
    for s in motif.edge_sets():
        for v in s:
            src_profile[v][len(s)] += 1
    tgt_profile = {v: Counter(len(s) for s in by_vertex[v]) for v in graph.vertices}

    def profile_fits(sv, tv):
        have = tgt_profile[tv]
        return all(have.get(size, 0) >= need for size, need in src_profile[sv].items())

    order = _search_order(motif)
    incident = {v: [s for s in motif.edge_sets() if v in s] for v in motif.vertices}
    position = {v: i for i, v in enumerate(order)}
    results = []
    assignment = {}
    used = set()
    nodes = 0
    all_vertices = sorted(graph.vertices)
    sorted_src = sorted(motif.vertices)

    def candidates(v):
        best = None
        for s in incident[v]:
            placed = [u for u in s if u in assignment]
            if not placed:
                continue
            pool = set()
            want = len(s)
            anchor = assignment[placed[0]]
            placed_img = {assignment[u] for u in placed}
            for t in by_vertex[anchor]:
                if len(t) == want and placed_img <= t:
                    pool.update(t - placed_img)
            if best is None or len(pool) < len(best):
                best = pool
                if not best:
                    return best
        if best is None:
            return [w for w in all_vertices if w not in used and profile_fits(v, w)]
        return sorted(best - used)

    def extend(i):
        nonlocal nodes
        if i == src_n:
            results.append(dict(assignment))
            return
        v = order[i]
        for w in candidates(v):
            if w in used or not profile_fits(v, w):
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget, len(results))
            ok = True
            for s in incident[v]:
                if all(u in assignment or u == v for u in s):
                    image = frozenset(
                        assignment[u] if u != v else w for u in s
                    )
                    if image not in target_sets:
                        ok = False
                        break
            if not ok:
                continue
            assignment[v] = w
            used.add(w)
            extend(i + 1)
            del assignment[v]
            used.discard(w)

    extend(0)
    results.sort(key=lambda m: tuple(m[v] for v in sorted_src))
    return [GraphMorphism(motif, graph, m) for m in results]


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
        span = frozenset(motif.vertices)
        for emb in enumerate_embeddings(motif, graph, budget=budget):
            sets.add(emb.image(span))
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
