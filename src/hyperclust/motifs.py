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
from bisect import bisect_right
from collections import Counter

from .graphs import GraphMorphism, Hypergraph, SizeLimitError, independence_number


class BudgetExceededError(Exception):
    """The embedding search ran past its node budget.

    A node is a candidate vertex that passes the injectivity, order and
    profile tests and every closing-edge test, so a budget goes further for
    motifs with closing edges, such as K_3 and C_n, than one that counted
    candidates before those tests.  ``found`` counts the embeddings
    accounted for before the search gave up.  Each representative found
    stands for its whole Aut(motif) coset, so this is the number of
    representatives times the motif's automorphism count.
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


class _Plan:
    """How to search for one motif, computed once per motif.

    Position i places motif vertex ``order[i]``.  ``requests[i]`` lists its
    completion requests ``(size, placed)``: each asks that the images of the
    earlier positions ``placed`` and the candidate lie together in one
    distinct target edge of that size.  The first is the anchor, a motif
    edge through the vertex with the most positions already placed; the
    rest are the edges whose last vertex is placed at i, so the candidate
    closes them and ``placed`` is the rest of the edge.  ``needs[i]`` is the
    ``(edge size, count)`` profile a target vertex must meet, and
    ``kinds[i]`` numbers the distinct profiles, so positions that share one
    share the search's profile set.  ``lower[i]`` lists the earlier positions
    whose images the image of i must exceed, and ``levels`` the stabilizer
    chain's non-identity transversal elements, as getters on image tuples in
    sorted-vertex order; ``slots`` turns a position-ordered image tuple into
    that order.

    A search node is a candidate that passes the injectivity, order and
    profile tests and every closing-edge test: the requests prune the
    candidates before any is counted.
    """

    __slots__ = (
        "order", "sizes", "requests", "needs", "kinds", "slots",
        "lower", "levels", "group_size",
    )


def _plan(motif):
    """The search plan of ``motif``, kept on the motif itself.

    A scheme holds its motifs for as long as it clusters, so however many
    motifs it has, each plan is built once and never evicted.  Equal motifs
    built separately, such as the tailed triangles a scheme materialises
    for every graph, share a plan through the bounded cache on
    :func:`_build_plan`, behind the slot.
    """
    plan = motif._plan
    if plan is None:
        plan = motif._plan = _build_plan(motif)
    return plan


@functools.lru_cache(maxsize=1024)
def _build_plan(motif):
    order = tuple(_search_order(motif))
    position = {v: i for i, v in enumerate(order)}
    edges = sorted(tuple(sorted(position[v] for v in s)) for s in motif.edge_sets())
    plan = _Plan()
    plan.order = order
    plan.sizes = tuple(sorted(Counter(len(e) for e in edges).items()))
    requests, needs = [], []
    for i in range(len(order)):
        mine = [e for e in edges if i in e]
        needs.append(tuple(sorted(Counter(len(e) for e in mine).items())))
        anchored = [e for e in mine if e[0] < i]
        # Most placed vertices first, then the fewest left to place.
        anchor = max(anchored, key=lambda e: (sum(p < i for p in e), -len(e)), default=None)
        # A one-vertex edge has nothing placed to complete; the profile test
        # already asks that the candidate be an edge of its own.
        wanted = [anchor] if anchor else []
        wanted += [e for e in mine if e[-1] == i and e != anchor and len(e) > 1]
        requests.append(tuple((len(e), tuple(p for p in e if p < i)) for e in wanted))
    plan.requests, plan.needs = tuple(requests), tuple(needs)
    kinds = {}
    plan.kinds = tuple(kinds.setdefault(need, len(kinds)) for need in needs)
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
            hit = _search(plan, motif, unconstrained, pins, first=True)
            if hit:
                lower[position[w]].append(i)
                image = dict(zip(order, hit[0]))
                moves.append(operator.itemgetter(*(sorted_at[image[v]] for v in motif.vertices)))
        if moves:
            levels.append(tuple(moves))
            group_size *= len(moves) + 1
    return tuple(map(tuple, lower)), tuple(levels), group_size


def _ranked_length(entry):
    return len(entry[0])


def _search(plan, graph, lower, pins=None, first=False, budget=None):
    """The search kernel: position-ordered image tuples of the embeddings
    of the plan's motif into ``graph`` whose image at i exceeds the images
    at ``lower[i]`` and equals ``pins[i]`` where pinned; only the first one
    found when ``first``.

    An iterative depth-first walk with one candidate cursor per depth.  The
    candidates for position i are the intersection of the vertex sets of
    its completion requests (see :class:`_Plan`): the smallest set is walked
    in ascending vertex order from just above the largest image at
    ``lower[i]``, and the others filter it by membership, all as one chain
    of C-level iterators, so embeddings come out in the same order as from
    trying every vertex in turn.  A request with one placed image is read
    from the graph's :meth:`~hyperclust.graphs.Hypergraph.search_index`,
    which the graph's first search builds and every later search reuses;
    only completions of two or more placed images go into a table of this
    call.  The profile test is a last filter against the position's profile
    set, left out when every vertex of the graph meets the profile, so no
    index entry depends on the motif.

    A node is a candidate that passes the injectivity, order and profile
    tests and every closing-edge test; each counts against ``budget``.
    """
    requests, needs, kinds = plan.requests, plan.needs, plan.kinds
    n = len(requests)
    if n == 0:
        # A motif with no vertices has one embedding, the empty map.
        return [()]
    vertices = graph.vertices
    index = graph.search_index()
    through = index.through
    # kind -> the vertices meeting that profile, or None when all of them do.
    fitting = {}
    for i, kind in enumerate(kinds):
        if kind not in fitting:
            fits = vertices
            for size, count in needs[i]:
                incident = through.get(size, {})
                fits = [w for w in fits if len(incident.get(w, ())) >= count]
            fitting[kind] = None if len(fits) == len(vertices) else frozenset(fits)
    profile = [fitting[kind] for kind in kinds]
    # (size, *images) -> the vertices completing the images to a size-edge,
    # as (ascending tuple, set), filled as the search asks.
    table = {}
    image = [None] * n
    image_at = image.__getitem__

    def completions(key):
        size, held = key[0], key[1:]
        edges = [s for s in through.get(size, {}).get(held[0], ()) if s.issuperset(held)]
        members = set().union(*edges)
        members.difference_update(held)
        entry = table[key] = (tuple(sorted(members)), members)
        return entry

    def candidates(i):
        reqs = requests[i]
        others = ()
        if not reqs:
            seq = vertices
        else:
            entries = []
            for size, placed in reqs:
                if len(placed) == 1:
                    entry = index[size][image[placed[0]]]
                else:
                    key = (size, *map(image_at, placed))
                    entry = table.get(key)
                    if entry is None:
                        entry = completions(key)
                entries.append(entry)
            if len(entries) > 1:
                entries.sort(key=_ranked_length)
                others = entries[1:]
            seq = entries[0][0]
        low = lower[i]
        if low:
            floor = image[low[0]] if len(low) == 1 else max(map(image_at, low))
            walk = itertools.islice(seq, bisect_right(seq, floor), None)
        else:
            walk = iter(seq)
        for other in others:
            walk = filter(other[1].__contains__, walk)
        fits = profile[i]
        if fits is not None:
            walk = filter(fits.__contains__, walk)
        if pins and i in pins:
            return iter((pins[i],) if pins[i] in walk else ())
        return walk

    used = set()
    last = n - 1
    found = []
    nodes = 0
    i = 0
    cursors = [candidates(0)]
    while cursors:
        for w in cursors[-1]:
            if w in used:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(budget, len(found) * plan.group_size)
            image[i] = w
            if i == last:
                found.append(tuple(image))
                if first:
                    return found
                continue
            used.add(w)
            i += 1
            cursors.append(candidates(i))
            break
        else:
            # Position i is exhausted: step back and free the image before it.
            cursors.pop()
            i -= 1
            if i >= 0:
                used.discard(image[i])
    return found


def _representatives(motif, graph, budget=None):
    """One embedding of ``motif`` into ``graph`` per coset f·Aut(motif), as
    image tuples aligned with ``motif.vertices``, in search order.

    Symmetry-breaking constraints ``image[i] < image[j]``, read off a
    stabilizer chain of Aut(motif), admit exactly one member of each coset.
    The search (see :func:`_search`) reads the index kept on ``graph``,
    built by the graph's first search and reused by every later one, and
    tests each vertex's edge-size profile as it walks; what it builds per
    call is only the completions of two or more placed images.
    ``budget`` caps the search's nodes as in :func:`enumerate_embeddings`.
    This never calls :func:`enumerate_embeddings`, so a wrapper installed on
    that function counts no calls made from here.
    """
    plan = _plan(motif)
    if len(plan.order) > len(graph.vertices):
        return []
    have = list(map(len, graph.edge_sets()))
    for size, count in plan.sizes:
        if have.count(size) < count:
            return []
    found = _search(plan, graph, plan.lower, budget=budget)
    return [tuple([rep[p] for p in plan.slots]) for rep in found]


def enumerate_embeddings(motif, graph, budget=None):
    """All embeddings of ``motif`` into ``graph`` as morphisms, sorted by
    their image tuple so the order is reproducible.

    Automorphisms of the motif act freely on its embeddings, so the search
    looks for one embedding per coset f·Aut(motif) (see
    :func:`_representatives`), and each one found is composed with every
    product of the stabilizer chain's transversals to emit its whole coset.
    The chain comes from pinned searches of the motif into itself and is
    kept, with the rest of the per-motif search plan, on the motif (see
    :func:`_plan`).
    Callers that need only images or edge images can take the
    representatives alone; this function is for callers that need every
    map.

    ``budget`` caps the number of nodes of the representative search: the
    candidates that pass the injectivity, order and profile tests and
    close every motif edge they complete.  Overruns raise
    :class:`BudgetExceededError`, whose ``found`` counts the embeddings the
    representatives found so far stand for.
    """
    images = _representatives(motif, graph, budget)
    if not images:
        return []
    for level in _plan(motif).levels:
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


def _is_simplex(motif):
    # Its one distinct edge set holds every vertex: n members that include
    # all n distinct vertices are exactly the vertex set.
    sets = motif.edge_sets()
    if len(sets) != 1:
        return False
    (edge,) = sets
    return len(edge) == len(motif.vertices) and edge.issuperset(motif.vertices)


def expansion_edge_sets(motifs, graph, budget=None):
    """Just the distinct edge vertex sets of the expansion; cheaper than
    building the full expansion when only overlaps matter.

    A motif whose only distinct edge set is its whole vertex set is ``E_n``,
    possibly with parallel copies of that edge.  Every embedding of it sends
    its one edge onto a target n-edge, and every target n-edge is reached by
    n! embeddings, so its images are exactly the graph's distinct edge sets
    of size n.  Those are added directly, for every such size in one pass
    over the graph's edge sets, with no search; ``budget`` counts search
    nodes, so this path never trips it.  Every other motif goes through
    :func:`enumerate_embeddings`.
    """
    cooked = _check_motifs(motifs)
    sizes = set()
    sets = set()
    for motif in cooked:
        if _is_simplex(motif):
            sizes.add(len(motif.vertices))
            continue
        for emb in enumerate_embeddings(motif, graph, budget=budget):
            sets.add(frozenset(emb.map.values()))
    if sizes:
        sets.update(s for s in graph.edge_sets() if len(s) in sizes)
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
