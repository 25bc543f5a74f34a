"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: permutation scans, brute-force
subset enumeration, or thin wrappers over networkx.  The library under test
must agree with these on every graph small enough to afford them.  The
helpers at the end (relabelling, the expansion edge-id parser, morphism
JSON round trips, the morphism validity sweep) serve only the tests, so
they live here rather than in the package.
"""

import dataclasses
import functools
import itertools
import re

import networkx as nx

from hyperclust.components import set_name
from hyperclust.graphs import (
    _PERM_CAP,
    GraphMorphism,
    Hypergraph,
    SizeLimitError,
    hypergraph_to_json,
    validate_graph_morphism,
)
from hyperclust.motifs import expansion_edge_sets


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


# ---------------------------------------------------------------------------
# the canonical form the package used before edge bitmasks and twin blocks

def _vertex_profiles(graph):
    prof = {v: [] for v in graph.vertices}
    for s in graph.edges.values():
        for v in s:
            prof[v].append(len(s))
    return {v: tuple(sorted(sizes)) for v, sizes in prof.items()}


def _canonical_form(graph):
    # The canonical key and a labelling vertex -> 0..n-1 that attains it.
    n = len(graph.vertices)
    prof = _vertex_profiles(graph)
    classes = {}
    for v in graph.vertices:
        classes.setdefault(prof[v], []).append(v)
    ordered = sorted(classes.items())
    shape = tuple((p, len(vs)) for p, vs in ordered)
    if not graph.edges:
        return (n, shape, ()), {v: i for i, v in enumerate(graph.vertices)}

    total = 1
    for _, vs in ordered:
        for k in range(2, len(vs) + 1):
            total *= k
        if total > _PERM_CAP:
            raise SizeLimitError("canonical form: too many profile-respecting bijections")

    slots = []
    start = 0
    for _, vs in ordered:
        slots.append((vs, start))
        start += len(vs)

    best = labelling = None
    for combo in itertools.product(*[itertools.permutations(vs) for vs, _ in slots]):
        position = {}
        for (vs, base), perm in zip(slots, combo):
            for offset, v in enumerate(perm):
                position[v] = base + offset
        encoded = tuple(sorted(tuple(sorted(position[v] for v in s)) for s in graph.edges.values()))
        if best is None or encoded < best:
            best = encoded
            labelling = position
    return (n, shape, best), labelling


def reference_key(graph):
    """The slow canonical key: every profile-respecting bijection is tried
    and the edges are encoded as sorted position tuples.  Its values differ
    from ``canonical_key``'s, but the two must split graphs alike."""
    return _canonical_form(graph)[0]


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
    ``motifs.expansion_edge_id`` prints it."""
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
