"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: permutation scans, brute-force
subset enumeration, thin wrappers over networkx, or the interpreted
embedding search that the compiled one replaced.  The library under test
must agree with these on every graph small enough to afford them.  The
helpers at the end (relabelling, the expansion edge-id parser, morphism
JSON round trips, the morphism validity sweep) serve only the tests, so
they live here rather than in the package.
"""

import collections
import dataclasses
import functools
import itertools
import math
import re
from bisect import bisect_right

import networkx as nx

from hyperclust.checks import _vertex_names, validate_equal_parts_witness
from hyperclust.components import set_name
from hyperclust.graphs import (
    _PERM_CAP,
    GraphMorphism,
    Hypergraph,
    SizeLimitError,
    hypergraph_to_json,
    validate_graph_morphism,
)
from hyperclust.motifs import BudgetExceededError, expansion_edge_sets


def to_nx(graph):
    """A simple hypergraph as a networkx Graph."""
    assert graph.is_simple()
    out = nx.Graph()
    out.add_nodes_from(graph.vertices)
    for s in graph.edges.values():
        a, b = sorted(s)
        out.add_edge(a, b)
    return out


@functools.lru_cache(maxsize=4096)
def _incidence(graph):
    # Shared between calls, so callers must not modify it.
    out = nx.Graph()
    out.add_nodes_from((("v", v) for v in graph.vertices), edge=False)
    for eid, members in graph.edges.items():
        out.add_node(("e", eid), edge=True)
        out.add_edges_from((("e", eid), ("v", v)) for v in members)
    return out


def incidence_isomorphic(left, right):
    """Hypergraph isomorphism as networkx isomorphism of the vertex-edge
    incidence graphs.  Edge nodes are marked, and each edge id gets its own
    node, so parallel edges count."""
    return nx.is_isomorphic(
        _incidence(left),
        _incidence(right),
        node_match=lambda a, b: a["edge"] == b["edge"],
    )


def naive_embeddings(motif, graph):
    """Every injective vertex map sending each motif edge onto some edge
    vertex set of the target, as a sorted list of mapping dicts."""
    found = []
    target_sets = set(graph.edges.values())
    motif_sets = list(motif.edges.values())
    k = len(motif.vertices)
    for choice in itertools.permutations(graph.vertices, k):
        mapping = dict(zip(motif.vertices, choice))
        if all(
            frozenset(mapping[v] for v in s) in target_sets for s in motif_sets
        ):
            found.append(mapping)
    found.sort(key=lambda m: tuple(m[v] for v in motif.vertices))
    return found


def _ranked_length(entry):
    return len(entry[0])


def reference_search(plan, graph, lower, first=False, budget=None, profile=None):
    """The interpreted search kernel that compiled plans replaced, kept as
    the reference ``hyperclust.motifs._search`` must match: position-ordered
    image tuples of the embeddings of the plan's motif into ``graph`` whose
    image at i exceeds the images at ``lower[i]``; only the first one found
    when ``first``.

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
    index entry depends on the motif.  A ``profile`` list, when given, is
    that filter per position in place of the one built here from
    ``plan.needs``, as ``hyperclust.motifs._stabilizer_chain`` passes it.

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
    if profile is None:
        # kind -> the vertices meeting that profile, or None when all do.
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
                raise BudgetExceededError(budget)
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


def naive_independence(graph):
    """Largest set of vertices with no two together inside a 2-vertex edge."""
    pairs = {s for s in graph.edges.values() if len(s) == 2}
    best = 0
    names = graph.vertices
    for size in range(len(names), -1, -1):
        for combo in itertools.combinations(names, size):
            chosen = set(combo)
            if not any(s <= chosen for s in pairs):
                best = size
                break
        if best:
            break
    return best


def nx_degeneracy(graph):
    g = to_nx(graph)
    if not g.nodes:
        return 0
    return max(nx.core_number(g).values(), default=0)


def nx_component_sets(graph):
    return {frozenset(c) for c in nx.connected_components(to_nx(graph))}


def naive_acyclic_profile(graph):
    """Orientation census by sink count, via networkx DAG detection."""
    assert graph.is_simple()
    edges = [tuple(sorted(s)) for s in graph.edges.values()]
    profile = {}
    for flips in itertools.product((False, True), repeat=len(edges)):
        directed = nx.DiGraph()
        directed.add_nodes_from(graph.vertices)
        for (a, b), flip in zip(edges, flips):
            directed.add_edge(*((b, a) if flip else (a, b)))
        if nx.is_directed_acyclic_graph(directed):
            sinks = sum(
                1 for v in directed.nodes if directed.out_degree(v) == 0
            )
            profile[sinks] = profile.get(sinks, 0) + 1
    return profile


def _bfs_unions(sets, joined):
    """Unions of the components of ``joined`` over ``sets``, by a plain BFS
    that tests every pair."""
    unseen = set(range(len(sets)))
    parts = set()
    while unseen:
        start = min(unseen)
        queue = [start]
        unseen.discard(start)
        component = {start}
        while queue:
            current = queue.pop()
            for other in list(unseen):
                if joined(current, other):
                    unseen.discard(other)
                    queue.append(other)
                    component.add(other)
        parts.add(frozenset().union(*(sets[i] for i in component)))
    return parts


def reference_percolate(sets, k):
    """Components of the k-overlap relation on ``sets`` by a union-find over
    every pair, as ``percolate`` returns them: lists of indices in
    ascending order, ordered by their smallest index."""
    parent = list(range(len(sets)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    if k != float("inf"):
        for i, j in itertools.combinations(range(len(sets)), 2):
            if len(set(sets[i]) & set(sets[j])) >= k:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(len(sets)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def naive_overlap_parts(family, k):
    """Union-of-component parts computed straight from the definition over
    the distinct sets of ``family``: a hypergraph's edge vertex sets, or any
    iterable of sets."""
    if hasattr(family, "edge_sets"):
        family = family.edge_sets()
    sets = sorted({frozenset(s) for s in family}, key=lambda s: tuple(sorted(s)))
    return _bfs_unions(
        sets,
        lambda a, b: k != float("inf") and len(sets[a] & sets[b]) >= k,
    )


def naive_shared_edge_labels(motif, graph):
    """Distinct embedding image -> the image vertex sets of the motif's
    edges, collected over every embedding with that image."""
    labels = {}
    for mapping in naive_embeddings(motif, graph):
        bag = labels.setdefault(frozenset(mapping.values()), set())
        for s in motif.edges.values():
            bag.add(frozenset(mapping[v] for v in s))
    return labels


def naive_shared_edge_parts(motif, graph):
    """Shared-edge parts from the definition: one copy per distinct image of
    an embedding, labelled with its edge images; copies whose labels meet
    are joined."""
    labels = naive_shared_edge_labels(motif, graph)
    images = sorted(labels, key=lambda s: tuple(sorted(s)))
    return _bfs_unions(
        images, lambda a, b: bool(labels[images[a]] & labels[images[b]])
    )


# ---------------------------------------------------------------------------
# canonical forms by trying every profile-respecting bijection

def _vertex_profiles(graph):
    prof = {v: [] for v in graph.vertices}
    for s in graph.edges.values():
        for v in s:
            prof[v].append(len(s))
    return {v: tuple(sorted(sizes)) for v, sizes in prof.items()}


def _profile_blocks(graph):
    # (profile, vertices) per profile class, in profile order.
    prof = _vertex_profiles(graph)
    classes = {}
    for v in graph.vertices:
        classes.setdefault(prof[v], []).append(v)
    return sorted(classes.items())


def _least_encoding(graph, encode):
    # The least sorted tuple of encode(position, edge) over the edges, taken
    # over every bijection position: vertex -> 0..n-1 that sends each
    # profile class onto its own block of positions, the blocks in profile
    # order.
    if not graph.edges:
        return ()
    blocks = _profile_blocks(graph)
    total = 1
    for _, vs in blocks:
        total *= math.factorial(len(vs))
        if total > _PERM_CAP:
            raise SizeLimitError("canonical form: too many profile-respecting bijections")
    slots = []
    start = 0
    for _, vs in blocks:
        slots.append((vs, range(start, start + len(vs))))
        start += len(vs)
    best = None
    for combo in itertools.product(*[itertools.permutations(block) for _, block in slots]):
        position = {v: p for (vs, _), perm in zip(slots, combo) for v, p in zip(vs, perm)}
        encoded = tuple(sorted(encode(position, s) for s in graph.edges.values()))
        if best is None or encoded < best:
            best = encoded
    return best


def reference_key(graph):
    """The slow canonical key the package used before edge bitmasks and twin
    blocks: every profile-respecting bijection is tried and the edges are
    encoded as sorted position tuples.  Its values differ from
    ``canonical_key``'s, but the two must split graphs alike."""
    shape = tuple((p, len(vs)) for p, vs in _profile_blocks(graph))
    code = _least_encoding(graph, lambda position, s: tuple(sorted(position[v] for v in s)))
    return (len(graph.vertices), shape, code)


def reference_code(graph):
    """``canonical_key(graph)[2]`` by brute force: the least sorted tuple of
    edge bitmasks, bit ``position[v]`` for each member ``v``, over every
    profile-respecting bijection ``position``."""
    return _least_encoding(graph, lambda position, s: sum(1 << position[v] for v in s))


def reference_radius(graph):
    """``finite_rep_witness``'s radius of one graph, the way the package
    computed it before it used the embedding search: triangles by testing
    every vertex triple on 2-edges, then one breadth-first search per
    (vertex, triangle vertex) pair.  Raises ``ValueError`` with the
    package's messages, in its order."""
    pairs = {s for s in graph.edges.values() if len(s) == 2}
    vertices = sorted({v for s in pairs for v in s})
    anchors = set()
    for a, b, c in itertools.combinations(vertices, 3):
        if {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))} <= pairs:
            anchors.update((a, b, c))
    if not anchors:
        raise ValueError(
            f"finite_rep_witness needs a triangle in every motif; "
            f"none found in a graph on {len(graph.vertices)} vertices"
        )

    def graph_distance(start, goal):
        # Shortest-path distance on a simple graph; None when unreachable.
        if not graph.is_simple():
            raise ValueError("finite_rep_witness requires a simple graph")
        adj = {v: set() for v in graph.vertices}
        for u, w in map(sorted, graph.edges.values()):
            adj[u].add(w)
            adj[w].add(u)
        seen = {start: 0}
        queue = collections.deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen[w] = seen[v] + 1
                    queue.append(w)
        return seen.get(goal)

    worst = 0
    for v in graph.vertices:
        found = [d for d in (graph_distance(v, a) for a in anchors) if d is not None]
        if not found:
            raise ValueError(f"vertex {v!r} cannot reach a triangle; radius undefined")
        worst = max(worst, min(found))
    return worst


def reference_equal_parts(bounds):
    """The first hypergraph within ``bounds`` (a ``SearchBounds``) whose
    overlap-2 clustering has two parts both equal to the whole vertex set,
    with its transcript, or ``(None, None)``: every edge-set family on
    0, 1, ... vertices is tried, fewest edges first, as the package did
    before it decided small bounds by proof."""
    for n in range(bounds.max_vertices + 1):
        names = _vertex_names(n)
        universe = []
        for size in range(1, min(n, bounds.max_edge_size) + 1):
            universe.extend(itertools.combinations(names, size))
        top = min(bounds.max_edges, len(universe))
        for count in range(top + 1):
            for combo in itertools.combinations(universe, count):
                graph = Hypergraph(names, {f"e{i + 1}": s for i, s in enumerate(combo)})
                try:
                    transcript = validate_equal_parts_witness(graph)
                except ValueError:
                    continue
                return graph, transcript
    return None, None


def reference_hull(motifs, graph, corpus, expand=expansion_edge_sets):
    """``hull_check(motifs, graph, corpus).to_json()``, from expansion edge
    sets alone: ``graph`` is spanned when its vertex set is an edge set of
    its own expansion, and every member of the corpus plus ``graph`` is
    expanded along ``motifs`` with and without ``graph``.  The hull check
    passes when the graph is spanned exactly when no expansion changes."""
    motifs = tuple(motifs)
    extended = motifs + (graph,)
    spanned = frozenset(graph.vertices) in expand(motifs, graph)
    members = corpus.with_extra_graphs([graph])
    differences = []
    for member in members.graphs:
        base = expand(motifs, member)
        more = expand(extended, member)
        if base != more:
            differences.append({
                "graph": hypergraph_to_json(member),
                "id": members.graph_id(member),
                "gained_edge_sets": sorted(set_name(s) for s in more - base),
            })
    equal = not differences
    statistics = {
        "spanned": spanned,
        "edge_sets_equal": equal,
        "graphs_checked": len(members.graphs),
        "differing_graphs": len(differences),
    }
    if differences:
        statistics["difference_witness"] = differences[0]
    counterexamples = []
    if spanned != equal:
        counterexamples.append({
            "spanned": spanned,
            "edge_sets_equal": equal,
            "witness": differences[0] if differences else None,
        })
    statistics["counterexamples_total"] = len(counterexamples)
    statistics["counterexamples_shown"] = len(counterexamples)
    return {
        "check": "hull",
        "schemes": [],
        "verdict": "fail" if counterexamples else "pass",
        "statistics": statistics,
        "counterexamples": counterexamples,
        "bounds": dataclasses.asdict(corpus.bounds),
    }


def reference_atlas_extras(bounds):
    """``checks._atlas_extras(bounds)`` read from networkx's graph atlas, as
    the package read it before the atlas became a table of its own."""
    if bounds.max_simple_vertices <= 0:
        return []
    out = []
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n > bounds.max_simple_vertices:
            break
        m = atlas_graph.number_of_edges()
        if (
            n <= bounds.max_vertices
            and m <= bounds.max_edges
            and bounds.max_edge_size >= 2
        ):
            continue
        names = [f"v{i}" for i in range(1, n + 1)]
        rename = {node: names[i] for i, node in enumerate(sorted(atlas_graph.nodes))}
        pairs = sorted(
            tuple(sorted((rename[a], rename[b]))) for a, b in atlas_graph.edges
        )
        edges = {f"e{i + 1}": pair for i, pair in enumerate(pairs)}
        out.append(Hypergraph(names, edges))
    return out


# ---------------------------------------------------------------------------
# test-only helpers: relabelling, edge-id parsing, morphism round trips and
# corpus self-checks

def relabel(graph, mapping):
    """A copy with vertices renamed through ``mapping`` (a bijection)."""
    target = {v: str(mapping.get(v, v)) for v in graph.vertices}
    if len(set(target.values())) != len(target):
        raise ValueError("relabelling must stay injective")
    edges = {eid: frozenset(target[v] for v in s) for eid, s in graph.edges.items()}
    return Hypergraph(target.values(), edges)


_EDGE_ID = re.compile(r"^m(\d+)\[(.*)\]$")


def expansion_provenance(edge_id):
    """Recover (motif index, vertex map) from an expansion edge id, as
    ``motifs.expansion_edge_id`` prints it: a backslash escapes the next
    character, and unescaped ``,`` and ``:`` separate pairs and names."""
    match = _EDGE_ID.match(edge_id)
    if not match:
        raise ValueError(f"not an expansion edge id: {edge_id}")
    mapping = {}
    body = match.group(2)
    if body:
        names, name, chars = [], [], iter(body)
        for c in chars:
            if c == "\\":
                name.append(next(chars))
            elif c in ",:":
                names.append("".join(name))
                name = []
            else:
                name.append(c)
        names.append("".join(name))
        mapping = dict(zip(names[::2], names[1::2]))
    return int(match.group(1)), mapping


def morphism_to_json(morphism):
    return {"map": dict(sorted(morphism.map.items()))}


def morphism_from_json(data, source, target):
    try:
        vm = data["map"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed morphism JSON: {exc}") from exc
    return GraphMorphism(source, target, vm)


def find_invalid_morphisms(corpus):
    """Morphisms that fail validation; the corpus invariant says none do."""
    bad = []
    for morphism in corpus.morphisms:
        if not validate_graph_morphism(morphism).ok:
            bad.append(morphism)
    return bad
