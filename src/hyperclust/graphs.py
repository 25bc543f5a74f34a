"""Finite hypergraphs with identified edges, and the small-graph toolkit.

Every edge carries its own id, so two edges may share a vertex set (parallel
edges).  Empty edges are rejected by validation.  Vertex names are plain
strings and all orderings are lexicographic on those strings, which keeps
serialized output byte-stable.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter, deque


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
    key caches.
    """

    __slots__ = ("vertices", "edges", "_hash")

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
        self._hash = hash((vs, tuple(self.edges.items())))

    @classmethod
    def _make(cls, vertices, edges):
        # Fast path for internal callers that already hold normalised data:
        # vertices a sorted tuple, edges a dict in sorted id order.
        g = cls.__new__(cls)
        g.vertices = vertices
        g.edges = edges
        g._hash = hash((vertices, tuple(edges.items())))
        return g

    @property
    def vertex_set(self):
        return frozenset(self.vertices)

    def edge_sets(self):
        """The distinct edge vertex sets (parallel edges collapse)."""
        return frozenset(self.edges.values())

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
        return self._hash

    def __repr__(self):
        return f"Hypergraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


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
    try:
        vertices = data["vertices"]
        edges = [(e["id"], e["vertices"]) for e in data.get("edges", [])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hypergraph JSON: {exc}") from exc
    return Hypergraph(vertices, edges)


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


def compose_morphisms(first, second):
    """The composite of ``first: A -> B`` with ``second: B -> C``."""
    if first.target != second.source:
        raise ValueError("composition undefined: middle graphs differ")
    combined = {v: second.map[w] for v, w in first.map.items()}
    return GraphMorphism(first.source, second.target, combined)


def morphism_to_json(morphism):
    return {"map": dict(sorted(morphism.map.items()))}


def morphism_from_json(data, source, target):
    try:
        vm = data["map"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed morphism JSON: {exc}") from exc
    return GraphMorphism(source, target, vm)


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
    inclusion = GraphMorphism(sub, graph, {v: v for v in sub.vertices})
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


def independence_number(graph, bound=20):
    """Exact independence number by branch and bound over bitsets.

    Refuses graphs above ``bound`` vertices; the search is exponential.
    """
    adj = _simple_adjacency(graph, "independence_number")
    n = len(graph.vertices)
    if n > bound:
        raise SizeLimitError(
            f"independence_number is brute force; {n} vertices exceeds bound {bound}"
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


def graph_distance(graph, start, goal):
    """Shortest-path distance on a simple graph; None when unreachable."""
    adj = _simple_adjacency(graph, "graph_distance")
    if start not in adj or goal not in adj:
        raise ValueError("both endpoints must be vertices of the graph")
    if start == goal:
        return 0
    seen = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w not in seen:
                seen[w] = seen[v] + 1
                if w == goal:
                    return seen[w]
                queue.append(w)
    return None


def _vertex_profiles(graph):
    prof = {v: [] for v in graph.vertices}
    for s in graph.edges.values():
        for v in s:
            prof[v].append(len(s))
    return {v: tuple(sorted(sizes)) for v, sizes in prof.items()}


def iso_check(left, right):
    """Isomorphism through the canonical form of :func:`canonical_key`.

    A hit maps the edge vertex-set multiset of one graph onto the other's,
    so parallel multiplicities matter.  Returns ``(True, map)`` or
    ``(False, None)``.  Vertex and edge counts are compared first, then the
    profile classes (which also fix the edge sizes); only graphs that agree
    on both get canonical forms, so only they can be refused, as
    :func:`canonical_key` refuses them.
    """
    if len(left.vertices) != len(right.vertices) or len(left.edges) != len(right.edges):
        return False, None
    lshape, rshape = (sorted(Counter(_vertex_profiles(g).values()).items()) for g in (left, right))
    if lshape != rshape:
        return False, None
    (lkey, llabel), (rkey, rlabel) = _canonical_form(left), _canonical_form(right)
    if lkey != rkey:
        return False, None
    # Both labellings send their graph's edge multiset onto the same key.
    vertex_at = {i: w for w, i in rlabel.items()}
    return True, {v: vertex_at[i] for v, i in llabel.items()}


# Graphs with more profile-respecting bijections than this are refused: the
# canonical form tries every one of them.
_PERM_CAP = 2_000_000


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


def canonical_key(graph):
    """A label-independent key: two graphs get equal keys exactly when they
    are isomorphic.

    The key is the minimum, over all bijections onto ``0..n-1`` that respect
    vertex incidence profiles, of the relabelled edge multiset.  Profile
    classes cut the search down; isomorphisms always respect profiles, so
    restricting to them loses nothing.  This is the only isomorphism search
    in the package: :func:`iso_check` and corpus deduplication both use it.
    Graphs with edges and more than 2,000,000 profile-respecting bijections
    are refused with :class:`SizeLimitError`.
    """
    return _canonical_form(graph)[0]


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


def triangle_with_tail(i):
    """A triangle on v1,v2,v3 with a path of ``i`` extra vertices hanging
    off v3.  ``i = 0`` gives the plain triangle."""
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


def relabel(graph, mapping):
    """A copy with vertices renamed through ``mapping`` (a bijection)."""
    target = {v: str(mapping.get(v, v)) for v in graph.vertices}
    if len(set(target.values())) != len(target):
        raise ValueError("relabelling must stay injective")
    edges = {eid: frozenset(target[v] for v in s) for eid, s in graph.edges.items()}
    return Hypergraph(target.values(), edges)


def disjoint_union(left, right):
    """Disjoint union; vertices and edge ids get .l/.r suffixes."""
    vertices = [f"{v}.l" for v in left.vertices] + [f"{v}.r" for v in right.vertices]
    edges = {}
    for eid, s in left.edges.items():
        edges[f"{eid}.l"] = frozenset(f"{v}.l" for v in s)
    for eid, s in right.edges.items():
        edges[f"{eid}.r"] = frozenset(f"{v}.r" for v in s)
    return Hypergraph(vertices, edges)


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
