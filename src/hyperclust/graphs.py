"""Finite hypergraphs with identified edges, and the small-graph toolkit.

Every edge carries its own id, so two edges may share a vertex set (parallel
edges).  Empty edges are rejected by validation.  Vertex names are plain
strings and all orderings are lexicographic on those strings, which keeps
serialized output byte-stable.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections import Counter


class SizeLimitError(Exception):
    """A brute-force routine was asked to exceed its configured size bound."""


class Validation:
    """Outcome of a structural check: ok, or a tuple of violation strings."""

    __slots__ = ("violations",)

    def __init__(self, violations=()):
        self.violations = tuple(violations)

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        if self.ok:
            return "Validation(ok)"
        return f"Validation(violations={list(self.violations)!r})"


class Hypergraph:
    """Immutable hypergraph: sorted vertex tuple plus id -> vertex-set edges.

    The constructor normalises ordering (vertices sorted, edges sorted by id)
    and rejects duplicate edge ids, but performs no semantic checks; use
    :func:`validate_hypergraph` for those, so that malformed inputs can be
    reported rather than half-rejected.  Graphs compare equal when both the
    vertex tuple and the id -> set mapping agree, and they hash, so they can
    key caches; the hash is computed on first use.  Three slots are built
    lazily and kept for the graph's life: the distinct edge sets, the
    embedding-search plan of a graph used as a motif (``_plan``, see
    :func:`hyperclust.motifs._plan`), and the index a search into this graph
    reads (:meth:`search_index`).  None is shared with graphs made from this
    one.
    """

    __slots__ = ("vertices", "edges", "_hash", "_edge_sets", "_plan", "_index")

    def __init__(self, vertices=(), edges=None):
        vs = tuple(sorted({str(v) for v in vertices}))
        items = []
        if edges is not None:
            pairs = edges.items() if hasattr(edges, "items") else edges
            for eid, members in pairs:
                items.append((str(eid), frozenset(str(v) for v in members)))
        ids = [eid for eid, _ in items]
        if len(ids) != len(set(ids)):
            dups = sorted(i for i, c in Counter(ids).items() if c > 1)
            raise ValueError("duplicate edge ids: " + ", ".join(dups))
        self.vertices = vs
        self.edges = dict(sorted(items))
        self._hash = None
        self._edge_sets = None
        self._plan = None
        self._index = None

    @classmethod
    def _make(cls, vertices, edges):
        # Fast path for internal callers that already hold normalised data:
        # vertices a sorted tuple, edges a dict in sorted id order.
        g = cls.__new__(cls)
        g.vertices = vertices
        g.edges = edges
        g._hash = None
        g._edge_sets = None
        g._plan = None
        g._index = None
        return g

    def edge_sets(self):
        """The distinct edge vertex sets (parallel edges collapse).

        Built on the first call and kept, so every later call returns the
        same frozenset; a graph made from this one (a restriction, say)
        starts without it.
        """
        sets = self._edge_sets
        if sets is None:
            sets = self._edge_sets = frozenset(self.edges.values())
        return sets

    def search_index(self):
        """The :class:`SearchIndex` an embedding search into this graph
        reads, built on the first call and kept like :meth:`edge_sets`."""
        index = self._index
        if index is None:
            index = self._index = SearchIndex(self.edge_sets())
        return index

    def is_simple(self):
        """True when this is an ordinary graph: all edges have two vertices
        and no two edges share a vertex set."""
        sets = list(self.edges.values())
        return all(len(s) == 2 for s in sets) and len(set(sets)) == len(sets)

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.vertices, tuple(self.edges.items())))
        return h

    def __repr__(self):
        return f"Hypergraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class SearchIndex(dict):
    """What an embedding search into one graph looks up, kept on the graph.

    Incidence: ``through[size][vertex]`` lists the distinct edge sets of
    that size through the vertex, built in one pass over the edge sets.
    Co-members: ``index[size][vertex]`` is the set of vertices that share a
    size-``size`` edge with the vertex, as ``(ascending tuple, frozenset)``.
    Each such entry is filled the first time a search asks for it and then
    kept, so a graph searched once pays only for the entries that search
    reads, and no entry depends on the motif searched for.

    Both parts are keyed by size first, not by ``(vertex, size)`` pairs,
    because every object a kept index holds counts towards the cyclic
    garbage collector's next pass, and a check that searches each of
    thousands of small graphs once keeps all their indexes alive.
    """

    __slots__ = ("through",)

    def __init__(self, sets):
        through = self.through = {}
        for s in sets:
            by_vertex = through.setdefault(len(s), {})
            for v in s:
                by_vertex.setdefault(v, []).append(s)

    def __missing__(self, size):
        entry = self[size] = CoMembers(self.through.get(size, {}))
        return entry


class CoMembers(dict):
    """vertex -> the vertices sharing one of ``through``'s edges with it, as
    ``(ascending tuple, frozenset)``; filled on first lookup."""

    __slots__ = ("through",)

    def __init__(self, through):
        self.through = through

    def __missing__(self, v):
        members = set().union(*self.through.get(v, ()))
        members.discard(v)
        entry = self[v] = (tuple(sorted(members)), frozenset(members))
        return entry


def validate_hypergraph(graph):
    """Report structural violations: empty or unprintable names, empty edges,
    edges that reference unknown vertices."""
    bad = []
    known = set(graph.vertices)
    for v in graph.vertices:
        if not v or not v.isprintable():
            bad.append(f"vertex name {v!r} is empty or unprintable")
    for eid, members in graph.edges.items():
        if not eid or not eid.isprintable():
            bad.append(f"edge id {eid!r} is empty or unprintable")
        if not members:
            bad.append(f"edge {eid} is empty")
        for v in sorted(members - known):
            bad.append(f"edge {eid} references unknown vertex {v}")
    return Validation(bad)


def hypergraph_to_json(graph):
    return {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": eid, "vertices": sorted(members)}
            for eid, members in graph.edges.items()
        ],
    }


def hypergraph_from_json(data):
    """The hypergraph a :func:`hypergraph_to_json` object describes.

    Unlike the :class:`Hypergraph` constructor, which turns any name into a
    string, this refuses with ``ValueError`` a ``vertices`` value that is
    not a list and a vertex name or edge id that is not a string, so no
    input is read as something it does not say.
    """
    try:
        vertices = _json_names(data["vertices"], "vertices")
        edges = []
        for e in data.get("edges", []):
            eid = e["id"]
            if not isinstance(eid, str):
                raise TypeError(f"edge id {eid!r} is not a string")
            edges.append((eid, _json_names(e["vertices"], f"edge {eid} vertices")))
        return Hypergraph(vertices, edges)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hypergraph JSON: {exc}") from exc


def _json_names(names, what):
    if not isinstance(names, list):
        raise TypeError(f"{what} is not a list")
    for v in names:
        if not isinstance(v, str):
            raise TypeError(f"vertex name {v!r} is not a string")
    return names


def valid_hypergraph_from_json(data, source):
    """:func:`hypergraph_from_json` for input from outside the program.
    Malformed JSON, and a graph that :func:`validate_hypergraph` faults,
    are refused with a ``ValueError`` that names ``source`` first."""
    try:
        graph = hypergraph_from_json(data)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc
    report = validate_hypergraph(graph)
    if not report.ok:
        raise ValueError(f"{source}: {report.violations[0]}")
    return graph


def name_escapes(separators):
    """A ``str.translate`` table that puts a backslash before ``\\`` and each
    of ``separators`` in a vertex name, so that names joined by those
    separators split back apart in only one way."""
    return str.maketrans({c: "\\" + c for c in "\\" + separators})


class GraphMorphism:
    """An injective vertex map under which every source edge's image equals
    some target edge's vertex set.

    The constructor just stores the data; :func:`validate_graph_morphism`
    checks the conditions.
    """

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        if hasattr(mapping, "items"):
            pairs = mapping.items()
        else:
            pairs = mapping
        self.map = {str(a): str(b) for a, b in pairs}

    @classmethod
    def _make(cls, source, target, mapping):
        # Fast path for internal callers whose map is already a dict with
        # string keys and values; it is stored as given.
        m = cls.__new__(cls)
        m.source = source
        m.target = target
        m.map = mapping
        return m

    def image(self, subset):
        return frozenset(self.map[v] for v in subset)

    def __eq__(self, other):
        if not isinstance(other, GraphMorphism):
            return NotImplemented
        return (
            self.map == other.map
            and self.source == other.source
            and self.target == other.target
        )

    def __repr__(self):
        pairs = ", ".join(f"{a}->{b}" for a, b in sorted(self.map.items()))
        return f"GraphMorphism({pairs})"


def validate_graph_morphism(morphism):
    src, tgt, vm = morphism.source, morphism.target, morphism.map
    bad = []
    src_vs, tgt_vs = set(src.vertices), set(tgt.vertices)
    for v in src.vertices:
        if v not in vm:
            bad.append(f"not defined on vertex {v}")
    for a in sorted(set(vm) - src_vs):
        bad.append(f"defined on unknown vertex {a}")
    for a, b in sorted(vm.items()):
        if b not in tgt_vs:
            bad.append(f"image {b} of {a} is not a target vertex")
    values = [b for _, b in sorted(vm.items())]
    if len(set(values)) != len(values):
        hits = sorted(b for b, c in Counter(values).items() if c > 1)
        bad.append("not injective: " + ", ".join(hits) + " hit twice")
    if bad:
        return Validation(bad)
    tgt_sets = tgt.edge_sets()
    for eid, members in src.edges.items():
        image = frozenset(vm[v] for v in members)
        if image not in tgt_sets:
            bad.append(
                f"edge {eid} maps onto {{{', '.join(sorted(image))}}}, "
                "which is not a target edge"
            )
    return Validation(bad)


def restrict(graph, part):
    """Sub-hypergraph on ``part``: the edges lying entirely inside it, with
    their original ids.  Returns the subgraph and the inclusion morphism."""
    keep = frozenset(str(v) for v in part)
    stray = keep - set(graph.vertices)
    if stray:
        raise ValueError(
            "part contains vertices outside the graph: " + ", ".join(sorted(stray))
        )
    edges = {eid: s for eid, s in graph.edges.items() if s <= keep}
    sub = Hypergraph._make(tuple(sorted(keep)), edges)
    inclusion = GraphMorphism._make(sub, graph, {v: v for v in sub.vertices})
    return sub, inclusion


def _simple_adjacency(graph, caller):
    if not graph.is_simple():
        raise ValueError(f"{caller} requires a simple graph")
    adj = {v: set() for v in graph.vertices}
    for s in graph.edges.values():
        u, w = sorted(s)
        adj[u].add(w)
        adj[w].add(u)
    return adj


def degeneracy(graph):
    """Degeneracy by repeated minimum-degree removal, simple graphs only.

    Returns ``(value, order)`` where order lists the vertices in removal
    sequence.  Ties break toward the lexicographically smallest name so the
    order is reproducible.
    """
    adj = _simple_adjacency(graph, "degeneracy")
    live = dict(adj)
    value = 0
    order = []
    while live:
        v = min(live, key=lambda u: (len(live[u]), u))
        value = max(value, len(live[v]))
        order.append(v)
        for w in live[v]:
            live[w].discard(v)
        del live[v]
    return value, order


# The largest graph independence_number searches; above it, refused.
_INDEPENDENCE_BOUND = 20


def independence_number(graph):
    """Exact independence number by branch and bound over bitsets.

    Refuses graphs above 20 vertices; the search is exponential.
    """
    adj = _simple_adjacency(graph, "independence_number")
    n = len(graph.vertices)
    if n > _INDEPENDENCE_BOUND:
        raise SizeLimitError(
            f"independence_number is brute force; "
            f"{n} vertices exceeds bound {_INDEPENDENCE_BOUND}"
        )
    index = {v: i for i, v in enumerate(graph.vertices)}
    masks = [0] * n
    for v, nbrs in adj.items():
        for w in nbrs:
            masks[index[v]] |= 1 << index[w]
    best = 0

    def grow(candidates, size):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        grow(candidates & ~masks[v] & ~(1 << v), size + 1)
        grow(candidates & ~(1 << v), size)

    grow((1 << n) - 1, 0)
    return best


def _profile_classes(graph):
    # (profile, vertices) pairs ordered by profile, the vertices of each
    # class by name; a profile is the sorted tuple of incident edge sizes.
    # Edges are visited smallest first, so each profile comes out sorted.
    prof = {v: [] for v in graph.vertices}
    for s in sorted(graph.edges.values(), key=len):
        size = len(s)
        for v in s:
            prof[v].append(size)
    classes = {}
    for v, sizes in prof.items():
        classes.setdefault(tuple(sizes), []).append(v)
    return sorted(classes.items())


def iso_check(left, right):
    """Whether ``left`` and ``right`` are isomorphic, through the canonical
    form of :func:`canonical_key`.

    An isomorphism maps the edge vertex-set multiset of one graph onto the
    other's, so parallel multiplicities matter.  Vertex and edge counts are
    compared first, then the profile classes (which also fix the edge
    sizes); each graph's classes are computed once and feed both that test
    and its canonical form.  Only graphs that agree on both get canonical
    forms, so only they can be refused, as :func:`canonical_key` refuses
    them: when their classes allow more than ``_PERM_CAP`` bijections.
    """
    if len(left.vertices) != len(right.vertices) or len(left.edges) != len(right.edges):
        return False
    lclasses, rclasses = _profile_classes(left), _profile_classes(right)
    if [(p, len(vs)) for p, vs in lclasses] != [(p, len(vs)) for p, vs in rclasses]:
        return False
    return _canonical_form(left, lclasses) == _canonical_form(right, rclasses)


# Graphs with more profile-respecting bijections than this are refused,
# counted over the profile classes before any twin block is fixed.
_PERM_CAP = 2_000_000


def _canonical_form(graph, classes):
    """The canonical key of ``graph``; ``classes`` is its
    :func:`_profile_classes`.

    This is the labelled part: it reads the vertex names to order the
    vertices class-major and to build each edge's mask over that order.
    The search, which sees only the shape and the sorted masks, is
    :func:`_canonical_code`, memoised on them.
    """
    n = len(graph.vertices)
    shape = tuple([(p, len(vs)) for p, vs in classes])
    if not graph.edges:
        return n, shape, ()
    order = [v for _, vs in classes for v in vs]
    bit = {v: 1 << i for i, v in enumerate(order)}.__getitem__
    masks = tuple(sorted([sum(map(bit, s)) for s in graph.edges.values()]))
    return n, shape, _canonical_code(shape, masks)


# Sized to hold every distinct encoding of the labelled candidates at
# max_edges 5 (7,319; 1,570 at the default bounds) without eviction.
@functools.lru_cache(maxsize=8192)
def _canonical_code(shape, masks):
    """The minimum sorted relabelled masks: the code of a canonical key.

    ``shape`` is the profile classes' ``(profile, size)`` in order and
    ``masks`` the sorted edge masks over the class-major order.  Raises
    :class:`SizeLimitError` when the classes allow more than ``_PERM_CAP``
    bijections; an exception is not cached, so such a shape is refused on
    every call.
    """
    # A block whose neighbouring members can all trade places without
    # changing the edge multiset lies wholly in Aut(G): every order of it
    # encodes alike, so it stays where it is.  The rest are searched.  The
    # cap counts every block, fixed or not.
    moving = []
    start = 0
    total = 1
    for _, size in shape:
        if size > 1:
            total *= math.factorial(size)
            if total > _PERM_CAP:
                raise SizeLimitError("canonical form: too many profile-respecting bijections")
            for i in range(start, start + size - 1):
                pair, low = 3 << i, 1 << i
                swapped = [m ^ pair if (m & pair) in (low, pair ^ low) else m for m in masks]
                if tuple(sorted(swapped)) != masks:
                    moving.append((start, size))
                    break
        start += size
    if not moving:
        return masks

    # The fixed vertices keep their bits; each searched block adds, per
    # permutation, its relabelled bits of every edge.  The largest block is
    # walked lazily, outermost; under the cap any other has at most 6!
    # permutations, so theirs are tabled once.
    moving.sort(key=lambda block: -block[1])
    searched = sum(((1 << size) - 1) << start for start, size in moving)
    fixed = [m & ~searched for m in masks]
    (first, size), *rest = moving
    tables = [list(_relabelled(masks, *block)) for block in rest]
    best = None
    for bits in _relabelled(masks, first, size):
        row = list(map(operator.add, fixed, bits))
        for combo in itertools.product(*tables):
            encoded = row
            for more in combo:
                encoded = list(map(operator.add, encoded, more))
            encoded = sorted(encoded)
            if best is None or encoded < best:
                best = encoded
    return tuple(best)


def _relabelled(masks, start, size):
    # For each permutation of the block of positions start..start+size-1,
    # the block's bits of every mask moved by it: bit start+i goes to bit
    # start+perm[i].
    members = [[i for i in range(size) if m >> (start + i) & 1] for m in masks]
    for perm in itertools.permutations(range(size)):
        targets = [1 << (start + p) for p in perm]
        yield [sum([targets[i] for i in ix]) for ix in members]


def canonical_key(graph):
    """A label-independent key: two graphs get equal keys exactly when they
    are isomorphic.

    Vertices fall into profile classes (a profile is the sorted tuple of a
    vertex's incident edge sizes); the classes are ordered by profile and
    each class's vertices by name.  Each edge becomes a bitmask over that
    class-major order, and the key is ``(n, shape, code)``: ``shape`` lists
    each profile with its class size, and ``code`` is the minimum, over all
    bijections that send each class onto its own block of positions, of the
    sorted tuple of relabelled masks.  Isomorphisms respect profiles, so
    restricting to these bijections loses nothing, and the minimum is a
    complete invariant.

    A block in which every swap of two neighbouring members leaves the
    sorted masks unchanged is not searched.  Neighbouring swaps generate the
    block's symmetric group, so that group lies in Aut(G); composing any
    bijection with one of its members gives the same encoding, so one order
    of the block attains the minimum as well as every other.

    The search is memoised on ``(shape, sorted masks)``, the graph's
    class-major encoding.  It never reads a vertex name: the twin test, the
    bijection count and the block permutations act on bit positions only, so
    its code is a function of the encoding.  Two graphs with the same
    encoding differ by a relabelling that keeps each class on its block of
    positions, so they are isomorphic and get the same key.  Only the
    labelled part (the classes, the order and the masks) is computed per
    call; the candidate stream of the default corpus has 1,570 distinct
    encodings among its 50,623 graphs.

    Graphs with edges and more than 2,000,000 profile-respecting bijections
    are refused with :class:`SizeLimitError`.  The count is the product of
    the class sizes' factorials, taken before any block is fixed, so the
    refused inputs do not depend on the graph's symmetry.  This is the only
    isomorphism search in the package: :func:`iso_check` and corpus
    deduplication both use it.
    """
    return _canonical_form(graph, _profile_classes(graph))


# ---------------------------------------------------------------------------
# named builders

@functools.lru_cache(maxsize=128)
def simplex(n):
    """One edge covering the whole vertex set v1..vn.

    Built once per n: hypergraphs are immutable, and the ``E*`` family asks
    for the same simplices for every graph it clusters.
    """
    if n < 1:
        raise ValueError("simplex needs at least one vertex")
    names = [f"v{i}" for i in range(1, n + 1)]
    return Hypergraph(names, {"e1": names})


def _pair_graph(names, pairs):
    edges = {f"{a}-{b}": (a, b) for a, b in pairs}
    return Hypergraph(names, edges)


def complete_graph(n):
    if n < 1:
        raise ValueError("complete_graph needs at least one vertex")
    names = [f"v{i}" for i in range(1, n + 1)]
    return _pair_graph(names, itertools.combinations(names, 2))


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    names = [f"v{i}" for i in range(1, n + 1)]
    pairs = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return _pair_graph(names, [tuple(sorted(p)) for p in pairs])


def path(n):
    if n < 1:
        raise ValueError("path needs at least one vertex")
    names = [f"v{i}" for i in range(1, n + 1)]
    return _pair_graph(names, [tuple(sorted((names[i], names[i + 1]))) for i in range(n - 1)])


@functools.lru_cache(maxsize=256)
def triangle_with_tail(i):
    """A triangle on v1,v2,v3 with a path of ``i`` extra vertices hanging
    off v3.  ``i = 0`` gives the plain triangle, equal to
    ``complete_graph(3)``.

    Built once per i, like :func:`simplex`: the ``R*`` family asks for the
    same members for every graph it clusters, and each member keeps its
    search plan, so the cache holds the first 256 members, past the 198 of
    a 200-vertex graph's family.
    """
    if i < 0:
        raise ValueError("tail length must be non-negative")
    names = [f"v{k}" for k in range(1, i + 4)]
    pairs = [("v1", "v2"), ("v1", "v3"), ("v2", "v3")]
    for k in range(3, i + 3):
        pairs.append(tuple(sorted((f"v{k}", f"v{k + 1}"))))
    return _pair_graph(names, pairs)


def linear_triangle():
    """Three 3-vertex edges pairwise meeting in a single vertex.

    Vertices 1,2,4 each sit on two edges; 3,5,6 each sit on one.  This is
    the default motif for the shared-edge scheme.
    """
    return Hypergraph(
        "123456",
        {"d1": ("1", "2", "3"), "d2": ("1", "4", "5"), "d3": ("2", "4", "6")},
    )


def edge_glued_chain(motif, links):
    """``links + 1`` copies of ``motif`` in a row, consecutive copies
    identified along one full edge.

    Copy j's first edge (by id order) is glued onto copy j-1's image of the
    second edge, matching vertices in sorted order; the glued edge appears
    once.  Fresh vertices of copy j are renamed ``<name>.<j>``, fresh edges
    ``<id>.<j>``.  Deterministic by construction.
    """
    if links < 0:
        raise ValueError("links must be non-negative")
    if links == 0:
        return motif
    ids = list(motif.edges)
    if len(ids) < 2:
        raise ValueError("chaining needs two distinct edges to glue along")
    into_id, out_id = ids[0], ids[1]
    into = sorted(motif.edges[into_id])
    out = sorted(motif.edges[out_id])
    if len(into) != len(out):
        raise ValueError("glued edges must have the same size")

    vertices = set(motif.vertices)
    edges = dict(motif.edges)
    boundary = sorted(motif.edges[out_id])
    for j in range(1, links + 1):
        rename = dict(zip(into, boundary))
        for v in motif.vertices:
            if v not in rename:
                rename[v] = f"{v}.{j}"
        vertices.update(rename.values())
        for eid in ids:
            if eid == into_id:
                continue
            edges[f"{eid}.{j}"] = frozenset(rename[v] for v in motif.edges[eid])
        boundary = sorted(rename[v] for v in out)
    return Hypergraph(sorted(vertices), edges)


def corner_glued_pair(motif):
    """Two copies of ``motif`` identified on its private vertices.

    Private means lying on exactly one edge.  There must be exactly three of
    them and together they must not form an edge; the second copy's other
    vertices are renamed ``<name>.b``, its edges ``<id>.b``.
    """
    counts = Counter(v for s in motif.edges.values() for v in s)
    privates = sorted(v for v in motif.vertices if counts[v] == 1)
    if len(privates) != 3:
        raise ValueError(
            f"corner gluing needs exactly three private vertices, found {len(privates)}"
        )
    if frozenset(privates) in motif.edge_sets():
        raise ValueError("the private vertices form an edge; gluing would collapse it")
    rename = {v: (v if v in privates else f"{v}.b") for v in motif.vertices}
    edges = dict(motif.edges)
    for eid, s in motif.edges.items():
        edges[f"{eid}.b"] = frozenset(rename[v] for v in s)
    vertices = set(motif.vertices) | set(rename.values())
    return Hypergraph(sorted(vertices), edges)


def fused_triples():
    """Two 3-vertex edges overlapping in two vertices: {v1,v2,v3}, {v2,v3,v4}."""
    return Hypergraph(
        ["v1", "v2", "v3", "v4"],
        {"t1": ("v1", "v2", "v3"), "t2": ("v2", "v3", "v4")},
    )


def fused_triples_host():
    """Six vertices whose four 3-vertex edges split, under overlap
    threshold 2, into the families {h1,h2} and {h3,h4}."""
    return Hypergraph(
        [f"v{i}" for i in range(1, 7)],
        {
            "h1": ("v1", "v2", "v3"),
            "h2": ("v1", "v2", "v4"),
            "h3": ("v3", "v5", "v6"),
            "h4": ("v4", "v5", "v6"),
        },
    )


def random_degenerate_graph(n, cap, rng):
    """A random simple graph whose degeneracy is at most ``cap``: each new
    vertex attaches to at most ``cap`` of the earlier ones."""
    if n < 1:
        raise ValueError("need at least one vertex")
    names = [f"v{i}" for i in range(1, n + 1)]
    pairs = []
    for i in range(1, n):
        count = rng.randint(0, min(cap, i))
        for other in rng.sample(range(i), count):
            pairs.append(tuple(sorted((names[i], names[other]))))
    return _pair_graph(names, pairs)


_TOKEN = re.compile(r"^([EKCPRF])(\d+)$")

_FAMILIES = {
    "E": simplex,
    "K": complete_graph,
    "C": cycle,
    "P": path,
    "R": triangle_with_tail,
    "F": lambda i: edge_glued_chain(linear_triangle(), i),
}


def build_named(token):
    """Resolve a builtin graph name.

    Accepted: ``E<n>`` ``K<n>`` ``C<n>`` ``P<n>`` ``R<i>`` ``F<i>`` plus the
    specials ``D`` (linear triangle), ``CORNER`` (its corner-glued pair),
    ``G4`` (fused triples) and ``H6`` (their host).  Underscores and case are
    ignored, so ``E_3`` works.
    """
    name = token.replace("_", "").strip().upper()
    if name in ("D", "DDEFAULT"):
        return linear_triangle()
    if name == "CORNER":
        return corner_glued_pair(linear_triangle())
    if name == "G4":
        return fused_triples()
    if name == "H6":
        return fused_triples_host()
    match = _TOKEN.match(name)
    if match:
        return _FAMILIES[match.group(1)](int(match.group(2)))
    raise ValueError(f"unknown graph name: {token}")
