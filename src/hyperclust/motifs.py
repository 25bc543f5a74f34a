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

from .graphs import GraphMorphism, Hypergraph, SizeLimitError, name_escapes


class BudgetExceededError(Exception):
    """The embedding search ran past its node budget.

    A node is a candidate vertex that passes the injectivity, order and
    profile tests and every closing-edge test, so a budget goes further for
    motifs with closing edges, such as K_3 and C_n, than one that counted
    candidates before those tests.  The search runs as its plan compiled to
    nested loops (see :func:`_search`), and a node is the same there: the
    last position, whose candidates are taken in one pass, counts each of
    them and raises once the count passes the budget.  ``budget`` is the
    budget that was exceeded; what the search found before it gave up is
    discarded.
    """

    def __init__(self, budget):
        super().__init__(f"embedding search exceeded its budget of {budget} nodes")
        self.budget = budget


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
    candidates before any is counted.  ``kernel`` is the search compiled to
    nested loops for ``requests`` and ``lower`` (see :func:`_search`); its
    source holds only these integers, and plans of the same shape share it.
    """

    __slots__ = (
        "order", "sizes", "requests", "needs", "kinds", "slots",
        "lower", "levels", "kernel",
    )


def _plan(motif):
    """The search plan of ``motif``, kept on the motif itself.

    This slot is the only plan cache.  A scheme holds its motifs for as
    long as it clusters, so however many motifs it has, each plan is built
    once and never evicted.  The family members a scheme materialises for
    every graph, the tailed triangles of ``R*``, are built once per size
    (see :func:`~hyperclust.graphs.triangle_with_tail`), so each graph
    reuses the same motif objects and their plans.
    """
    plan = motif._plan
    if plan is None:
        plan = motif._plan = _build_plan(motif)
    return plan


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
    plan.lower, plan.levels = _stabilizer_chain(plan, motif)
    plan.kernel = _compile(plan.requests, plan.lower, False, False) if order else None
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
    element per level rebuild the coset.  Each level's search pins the
    positions before i and position i through its ``profile`` argument
    (see :func:`_pinned`); no other search pins.

    Returns ``(lower, levels)`` as described on :class:`_Plan`.
    """
    order = plan.order
    n = len(order)
    position = {v: i for i, v in enumerate(order)}
    sorted_at = {v: k for k, v in enumerate(motif.vertices)}
    unconstrained = ((),) * n
    lower = [[] for _ in range(n)]
    levels = []
    # Built once for the chain; at level i, positions before i are pinned.
    fixed = _profile(plan, motif)
    for i in range(n):
        moves = []
        for w in order[i + 1:]:
            if plan.needs[position[w]] != plan.needs[i]:
                continue
            hit = _search(plan, motif, unconstrained, first=True, profile=_pinned(fixed, {i: w}))
            if hit:
                lower[position[w]].append(i)
                image = dict(zip(order, hit[0]))
                moves.append(operator.itemgetter(*(sorted_at[image[v]] for v in motif.vertices)))
        if moves:
            levels.append(tuple(moves))
        fixed = _pinned(fixed, {i: order[i]})
    return tuple(map(tuple, lower)), tuple(levels)


def _ranked_length(entry):
    return len(entry[0])


def _completions(table, through, key):
    # The vertices that complete the images key[1:] to a key[0]-edge, as
    # (ascending tuple, set), kept in this search's table.
    size, held = key[0], key[1:]
    edges = [s for s in through.get(size, {}).get(held[0], ()) if s.issuperset(held)]
    members = set().union(*edges)
    members.difference_update(held)
    entry = table[key] = (tuple(sorted(members)), members)
    return entry


# CPython refuses more than 20 statically nested blocks in one function, so
# a plan with more positions is split into chained functions of this many.
_BLOCK = 16


def _kernel_source(requests, lower, first, counted):
    """Python source of the search for one plan shape: one ``for`` loop per
    position, nested in placement order, in functions ``_block0``,
    ``_block1``, ... of at most :data:`_BLOCK` positions each.

    Every block takes the search's state and the images placed before it,
    appends what it finds to ``found`` and returns the node count.  The text
    is built from the positions, sizes and flags alone: no vertex name of
    any motif or graph enters it.
    """
    n = len(requests)
    # below[i]: the positions whose images the order constraints put below
    # the image of i, directly or through other positions.
    below = []
    for i in range(n):
        below.append(set(lower[i]).union(*(below[p] for p in lower[i])))
    # distinct[i]: the earlier positions whose images the candidate for i
    # must be tested against, because no completion set and no floor rules
    # them out already.
    distinct = []
    for i in range(n):
        ruled_out = below[i].union(*(placed for _, placed in requests[i]))
        distinct.append([p for p in range(i) if p not in ruled_out])
    lines = []

    def emit(depth, text):
        lines.append("    " * depth + text)

    def images(stop):
        return [f"w{p}" for p in range(stop)]

    def state(stop):
        # A block's arguments: the search's state and the images placed.
        return ", ".join([
            "vertices", "index", "through", "table", "profile",
            "budget", "found", "nodes", *images(stop),
        ])

    leaf = f"({', '.join(images(n))}{',' if n == 1 else ''})"

    def overrun(depth):
        if counted:
            emit(depth, "if nodes > budget:")
            emit(depth + 1, "raise BudgetExceededError(budget)")

    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        emit(0, f"def _block{start // _BLOCK}({state(start)}):")
        for i in range(start, stop):
            emit(1, f"f{i} = profile[{i}]")
        singles = sorted({size for i in range(start, stop)
                          for size, placed in requests[i] if len(placed) == 1})
        for size in singles:
            emit(1, f"c{size} = index[{size}]")
        # (size, placed) -> the name of its entry, once some position of
        # this block has looked it up; deeper positions reuse it.
        entries = {}
        depth = 1
        for i in range(start, stop):
            names = []
            for size, placed in requests[i]:
                name = entries.get((size, placed))
                if name is None:
                    name = entries[size, placed] = f"e{size}_" + "_".join(map(str, placed))
                    if len(placed) == 1:
                        emit(depth, f"{name} = c{size}[w{placed[0]}]")
                    else:
                        key = ", ".join(f"w{p}" for p in placed)
                        emit(depth, f"k = ({size}, {key})")
                        emit(depth, f"{name} = table.get(k) or _completions(table, through, k)")
                names.append(name)
            # The smallest completion set is walked; the others filter it.
            tests = []
            if not names:
                seq = "vertices"
            elif len(names) == 1:
                seq = f"{names[0]}[0]"
            elif len(names) == 2:
                # The case of K_3 and K_4; a comparison here instead of the
                # sort takes about a quarter off their searches.
                a, b = names
                seq = f"s{i}"
                emit(depth, f"if len({b}[0]) < len({a}[0]):")
                emit(depth + 1, f"s{i}, o{i}_1 = {b}[0], {a}[1]")
                emit(depth, "else:")
                emit(depth + 1, f"s{i}, o{i}_1 = {a}[0], {b}[1]")
                tests.append(f"w{i} not in o{i}_1")
            else:
                seq = f"s{i}"
                emit(depth, f"r = sorted(({', '.join(names)}), key=_ranked_length)")
                emit(depth, f"s{i} = r[0][0]")
                for k in range(1, len(names)):
                    emit(depth, f"o{i}_{k} = r[{k}][1]")
                    tests.append(f"w{i} not in o{i}_{k}")
            if lower[i]:
                # Positions below another of lower[i] set no higher floor.
                tops = [p for p in lower[i] if not any(p in below[q] for q in lower[i])]
                floor = f"w{tops[0]}" if len(tops) == 1 else f"max({', '.join(f'w{p}' for p in tops)})"
                if seq == "vertices" or len(names) == 1:
                    emit(depth, f"s{i} = {seq}")
                    seq = f"s{i}"
                seq = f"{seq}[bisect_right({seq}, {floor}):]"
            tests.append(f"f{i} is not None and w{i} not in f{i}")
            tests += [f"w{i} == w{p}" for p in distinct[i]]
            rejected = " or ".join(tests)
            if i == n - 1 and not first:
                # Every leaf is a node; those past the budget are not found.
                if counted:
                    emit(depth, "before = len(found)")
                emit(depth, f"found += [{leaf} for w{i} in {seq} if not ({rejected})]")
                if counted:
                    emit(depth, "nodes += len(found) - before")
                overrun(depth)
                break
            emit(depth, f"for w{i} in {seq}:")
            emit(depth + 1, f"if {rejected}:")
            emit(depth + 2, "continue")
            depth += 1
            if counted:
                emit(depth, "nodes += 1")
            overrun(depth)
            if i == n - 1:
                emit(depth, f"found.append({leaf})")
                emit(depth, "return nodes")
        if stop < n:
            emit(depth, f"nodes = _block{stop // _BLOCK}({state(stop)})")
            if first:
                emit(depth, "if found:")
                emit(depth + 1, "return nodes")
        emit(1, "return nodes")
        emit(0, "")
    return "\n".join(lines)


@functools.lru_cache(maxsize=1024)
def _compile(requests, lower, first, counted):
    """The compiled search for one plan shape, shared by every plan with
    the same ``requests`` and ``lower`` (see :func:`_kernel_source`)."""
    source = _kernel_source(requests, lower, first, counted)
    namespace = {
        "bisect_right": bisect_right,
        "BudgetExceededError": BudgetExceededError,
        "_completions": _completions,
        "_ranked_length": _ranked_length,
    }
    exec(compile(source, "<search plan>", "exec", dont_inherit=True), namespace)
    kernel = namespace["_block0"]
    kernel.source = source
    return kernel


def _search(plan, graph, lower, first=False, budget=None, profile=None):
    """The search kernel: position-ordered image tuples of the embeddings
    of the plan's motif into ``graph`` whose image at i exceeds the images
    at ``lower[i]``; only the first one found when ``first``.

    The walk is the plan compiled to Python (see :func:`_kernel_source`):
    one nested ``for`` loop per position, so each placed image is a local
    variable.  The candidates for position i are the intersection of the
    vertex sets of its completion requests (see :class:`_Plan`): the
    smallest set, chosen as the search runs, is walked in ascending vertex
    order from just above the largest image at ``lower[i]``, and the others
    filter it by membership, so embeddings come out in the same order as
    from trying every vertex in turn.  A request with one placed image is
    read from the graph's :meth:`~hyperclust.graphs.Hypergraph.search_index`,
    which the graph's first search builds and every later search reuses;
    only completions of two or more placed images go into a table of this
    call.  The profile test is a filter against the position's profile set,
    left out when every vertex of the graph meets the profile, so no index
    entry depends on the motif.  A caller that searches one graph many
    times may pass a ``profile`` list built once with :func:`_profile`; the
    stabilizer chain pins positions by narrowing a copy of its list with
    :func:`_pinned`.  The last position takes all its leaves in one
    comprehension.

    A node is a candidate that passes the injectivity, order and profile
    tests and every closing-edge test; each counts against ``budget``.  The
    generated source holds only the plan's integers, and one compile serves
    every plan of the same shape; the plain search is kept on the plan.
    """
    requests = plan.requests
    if not requests:
        # A motif with no vertices has one embedding, the empty map.
        return [()]
    if first or budget is not None or lower is not plan.lower:
        kernel = _compile(requests, lower, first, budget is not None)
    else:
        kernel = plan.kernel
    index = graph.search_index()
    if profile is None:
        profile = _profile(plan, graph)
    found = []
    kernel(graph.vertices, index, index.through, {}, profile, budget, found, 0)
    return found


def _profile(plan, graph):
    """Per position, the vertices of ``graph`` that meet its profile
    (``plan.needs``), or ``None`` when all of them do; positions of one
    kind share one set."""
    needs, kinds = plan.needs, plan.kinds
    vertices = graph.vertices
    through = graph.search_index().through
    fitting = {}
    for i, kind in enumerate(kinds):
        if kind not in fitting:
            fits = vertices
            for size, count in needs[i]:
                incident = through.get(size, {})
                fits = [w for w in fits if len(incident.get(w, ())) >= count]
            fitting[kind] = None if len(fits) == len(vertices) else frozenset(fits)
    return [fitting[kind] for kind in kinds]


def _pinned(profile, images):
    # A copy of the profile list in which each position of ``images``
    # admits only its image there, when that meets the position's profile.
    profile = list(profile)
    for i, w in images.items():
        fits = profile[i]
        profile[i] = frozenset((w,) if fits is None or w in fits else ())
    return profile


def _representatives(motif, graph, budget=None, first=False):
    """One embedding of ``motif`` into ``graph`` per coset f·Aut(motif), as
    image tuples aligned with ``motif.vertices``, in search order; only the
    first one found when ``first``.

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
    found = _search(plan, graph, plan.lower, first=first, budget=budget)
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
    :class:`BudgetExceededError`.
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


_ID_ESCAPES = name_escapes(",:")


def expansion_edge_id(index, mapping):
    """``m{index}[a:b,...]`` over the sorted pairs of ``mapping``, with
    ``\\``, ``,`` and ``:`` in vertex names escaped by a backslash, so
    distinct maps never share an id.  Names without them print as they are.
    """
    pairs = ",".join(
        f"{a.translate(_ID_ESCAPES)}:{b.translate(_ID_ESCAPES)}" for a, b in sorted(mapping.items())
    )
    return f"m{index}[{pairs}]"


def motif_expansion(motifs, graph, budget=None):
    """The expansion of ``graph`` along ``motifs``: same vertices, one edge
    per embedding of each motif, covering the embedding's image.

    Edge ids encode the motif index and the vertex map (see
    :func:`expansion_edge_id`), so the output is reproducible and each
    edge's provenance can be recovered from its id.
    """
    cooked = _check_motifs(motifs)
    edges = {}
    for index, motif in enumerate(cooked):
        for emb in enumerate_embeddings(motif, graph, budget=budget):
            edges[expansion_edge_id(index, emb.map)] = emb.image(motif.vertices)
    return Hypergraph._make(graph.vertices, dict(sorted(edges.items())))


def _is_simplex(motif):
    # Its one distinct edge set holds every vertex: n members that include
    # all n distinct vertices are exactly the vertex set.
    sets = motif.edge_sets()
    if len(sets) != 1:
        return False
    (edge,) = sets
    return len(edge) == len(motif.vertices) and edge.issuperset(motif.vertices)


def expansion_edge_sets(motifs, graph):
    """Just the distinct edge vertex sets of the expansion; cheaper than
    building the full expansion when only overlaps matter.

    A motif whose only distinct edge set is its whole vertex set is ``E_n``,
    possibly with parallel copies of that edge.  Every embedding of it sends
    its one edge onto a target n-edge, and every target n-edge is reached by
    n! embeddings, so its images are exactly the graph's distinct edge sets
    of size n.  Those are added directly, for every such size in one pass
    over the graph's edge sets, with no search.  Every other motif goes
    through :func:`enumerate_embeddings`.  The ``E*`` family never reaches
    this function: :func:`~hyperclust.schemes.cluster` takes its expansion
    as the graph's own edge sets.
    """
    cooked = _check_motifs(motifs)
    sizes = set()
    sets = set()
    for motif in cooked:
        if _is_simplex(motif):
            sizes.add(len(motif.vertices))
            continue
        for emb in enumerate_embeddings(motif, graph):
            sets.add(frozenset(emb.map.values()))
    if sizes:
        sets.update(s for s in graph.edge_sets() if len(s) in sizes)
    return frozenset(sets)


# The most edges acyclic_orientation_profile tries every orientation of, for
# itself and for embedding_count_bound; above it, refused.
_ORIENTATION_BOUND = 20


def acyclic_orientation_profile(graph):
    """Count acyclic orientations of a simple graph by sink count.

    Returns a dict mapping number-of-sinks to how many acyclic orientations
    have it.  A sink is a vertex with no outgoing edge, so isolated vertices
    are sinks in every orientation.  All 2^|E| orientations are tried;
    graphs with more than 20 edges are refused.
    """
    if not graph.is_simple():
        raise ValueError("acyclic_orientation_profile requires a simple graph")
    edges = [tuple(sorted(s)) for s in graph.edges.values()]
    m = len(edges)
    if m > _ORIENTATION_BOUND:
        raise SizeLimitError(
            f"acyclic_orientation_profile is brute force; "
            f"{m} edges exceeds bound {_ORIENTATION_BOUND}"
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


def embedding_count_bound(motif, degeneracy_value, n):
    """Upper bound on embeddings of a simple ``motif`` into any graph with
    ``n`` vertices and the given degeneracy.

    Sums, over acyclic orientations of the motif grouped by sink count t,
    ``degeneracy**( |motif| - t ) * n**t``.  No orientation has more sinks
    than the motif's independence number α, so α is never computed here:
    an edge leaves one of its two vertices, so two adjacent vertices are
    never both sinks, and the sinks form an independent set.  The largest t
    is exactly α, so the bound grows as n**α: orient every edge at a
    maximum independent set into the set and the other edges along a
    fixed vertex order; that orientation is acyclic and sinks the whole set.
    """
    size = len(motif.vertices)
    total = 0
    for sinks, count in acyclic_orientation_profile(motif).items():
        total += count * (degeneracy_value ** (size - sinks)) * (n ** sinks)
    return total
