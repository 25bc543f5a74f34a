"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: permutation scans, brute-force
subset enumeration, or thin wrappers over networkx.  The library under test
must agree with these on every graph small enough to afford them.
"""

import functools
import itertools

import networkx as nx


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
