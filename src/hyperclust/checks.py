"""Corpus generation and machine verification of the clustering axioms.

The checks here quantify over finite corpora: every hypergraph up to
isomorphism within configurable size bounds, all simple graphs up to a
separate vertex bound, all inclusion morphisms from restrictions, and all
injective morphisms between small members.  A passing report is therefore
bounded evidence, not a proof; each report records the bounds it ran under
and every failure carries enough data to replay it in isolation.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import pathlib
import tempfile
from dataclasses import asdict, dataclass, field, fields

from .components import (
    INFINITE,
    component_member_unions,
    has_full_part,
    percolate,
    set_name,
    threshold_to_json,
)
# _line_graph_over is no longer called here, but stays importable from this
# module: perfbench's tracer wraps it at this seam.
from .components import _line_graph_over  # noqa: F401
from .graphs import (
    GraphMorphism,
    Hypergraph,
    SizeLimitError,
    _simple_adjacency,
    canonical_key,
    hypergraph_to_json,
    iso_check,
    restrict,
    triangle_with_tail,
)
from .motifs import enumerate_embeddings, expansion_edge_sets
from .partitions import is_refinement, uncovered_parts
from .schemes import MotifScheme, cluster, scheme_label

_CACHE_VERSION = 3
DEFAULT_GUARD = 2_000_000
_ATLAS = pathlib.Path(__file__).parent / "atlas.g6"
_ATLAS_MAX_VERTICES = 7


def _bound(default, minimum, maximum=None):
    # A bounds field; values outside [minimum, maximum] describe no
    # meaningful corpus (no maximum when it is None).
    return field(default=default, metadata={"minimum": minimum, "maximum": maximum})


def _refuse_out_of_range_bounds(bounds):
    for f in fields(bounds):
        value = getattr(bounds, f.name)
        low, high = f.metadata["minimum"], f.metadata["maximum"]
        if value < low:
            raise ValueError(f"{f.name} must be at least {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"{f.name} must be at most {high}, got {value}")


@dataclass(frozen=True)
class CorpusBounds:
    """Size limits for the exhaustive corpus.

    Hypergraphs are enumerated up to isomorphism with at most
    ``max_vertices`` vertices, ``max_edges`` edges (parallel edges counted
    separately), and ``max_edge_size`` vertices per edge.  Simple graphs are
    additionally included up to ``max_simple_vertices``.  Injective maps
    between members are enumerated exhaustively only when both endpoints
    have at most ``max_morphism_vertices`` vertices.  Edge sizes start at 1,
    every other bound at 0 (``max_simple_vertices=0`` adds no simple
    graphs); lower values raise ``ValueError``, as does a
    ``max_simple_vertices`` above 7, the largest graphs in the atlas.
    """

    max_vertices: int = _bound(5, 0)
    max_edges: int = _bound(4, 0)
    max_edge_size: int = _bound(4, 1)
    max_morphism_vertices: int = _bound(4, 0)
    max_simple_vertices: int = _bound(6, 0, _ATLAS_MAX_VERTICES)

    def __post_init__(self):
        _refuse_out_of_range_bounds(self)


def _multiset_count(universe, size):
    if size == 0:
        return 1
    if universe == 0:
        return 0
    return math.comb(universe + size - 1, size)


def estimate_candidates(bounds):
    """Upper bound on the labelled hypergraphs enumerated before dedup."""
    total = 0
    for n in range(bounds.max_vertices + 1):
        u = sum(
            math.comb(n, j)
            for j in range(1, min(n, bounds.max_edge_size) + 1)
        )
        total += sum(
            _multiset_count(u, k) for k in range(bounds.max_edges + 1)
        )
    return total


def _vertex_names(n):
    width = len(str(n))
    return [f"v{i:0{width}d}" if n > 9 else f"v{i}" for i in range(1, n + 1)]


def _graph_sort_key(graph):
    shape = tuple(sorted(len(s) for s in graph.edges.values()))
    encoded = tuple(sorted(tuple(sorted(s)) for s in graph.edges.values()))
    return (len(graph.vertices), len(graph.edges), shape, encoded, graph.vertices)


def _edge_slots(count):
    # (id, i) for the edge ids e1..e<count> in Hypergraph's order, where
    # "e10" sorts before "e2"; i is the edge's place in numeric order.
    return sorted((f"e{i + 1}", i) for i in range(count))


def _enumerate_hypergraph_classes(bounds):
    # Candidates are assembled with Hypergraph._make from parts built once
    # per n: the names (already in sorted order), the subsets as frozensets,
    # and per edge count the _edge_slots.
    out = []
    seen = set()
    for n in range(bounds.max_vertices + 1):
        names = tuple(_vertex_names(n))
        subsets = []
        for size in range(1, min(n, bounds.max_edge_size) + 1):
            subsets.extend(map(frozenset, itertools.combinations(names, size)))
        for count in range(bounds.max_edges + 1):
            slots = _edge_slots(count)
            for combo in itertools.combinations_with_replacement(subsets, count):
                graph = Hypergraph._make(names, {eid: combo[i] for eid, i in slots})
                key = canonical_key(graph)
                if key not in seen:
                    seen.add(key)
                    out.append(graph)
    return out


def _graph6_edges(line):
    # One graph6 line (McKay's format, for graphs on at most 62 vertices):
    # the vertex count plus 63 as one byte, then the upper triangle of the
    # adjacency matrix column by column, six bits per byte plus 63.
    n = ord(line[0]) - 63
    bits = "".join(f"{ord(c) - 63:06b}" for c in line[1:])
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit == "1"]


def _atlas_extras(bounds):
    """Simple graphs beyond the hypergraph enumeration, from the atlas of
    graphs on up to seven vertices (Read & Wilson, *An Atlas of Graphs*,
    1998).

    ``atlas.g6`` holds the atlas's 1,253 graphs in atlas order, one graph6
    line each, over each graph's vertices in sorted order.  The graphs that
    the hypergraph enumeration already covers are skipped.
    """
    if bounds.max_simple_vertices <= 0:
        return []
    out = []
    for line in _ATLAS.read_text(encoding="ascii").split():
        n, pairs = _graph6_edges(line)
        if n > bounds.max_simple_vertices:
            break
        if (
            n <= bounds.max_vertices
            and len(pairs) <= bounds.max_edges
            and bounds.max_edge_size >= 2
        ):
            continue
        names = _vertex_names(n)
        named = sorted((names[a], names[b]) for a, b in pairs)
        edges = {f"e{i + 1}": pair for i, pair in enumerate(named)}
        out.append(Hypergraph(names, edges))
    return out


def _cache_dir():
    env = os.environ.get("HYPERCLUST_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "hyperclust"


def _cache_path(bounds):
    digest = hashlib.sha256(
        repr((_CACHE_VERSION, bounds)).encode()
    ).hexdigest()[:16]
    return _cache_dir() / f"corpus-{digest}.jsonl"


def _cached_vertex_limit(bounds):
    # The most vertices a corpus graph of these bounds can have.
    return max(bounds.max_vertices, bounds.max_simple_vertices)


def _cache_row(graph, limit):
    # A graph as its cache row [n, [mask of e1, ..., mask of em]], where bit
    # j of a mask stands for the j-th name of _vertex_names(n).  A graph
    # that _cached_graphs would not rebuild exactly raises ValueError.
    n, m = len(graph.vertices), len(graph.edges)
    names = _vertex_names(n)
    ids = [f"e{i}" for i in range(1, m + 1)]
    if n > limit or list(graph.vertices) != names or list(graph.edges) != sorted(ids):
        raise ValueError(
            f"cannot cache {graph!r}: its vertices must be v1..v{n} and its "
            f"edge ids e1..e{m}, with at most {limit} vertices"
        )
    bit = {v: 1 << j for j, v in enumerate(names)}
    masks = []
    for eid in ids:
        members = graph.edges[eid]
        if not members or not members.issubset(bit):
            raise ValueError(f"cannot cache {graph!r}: edge {eid} is empty or has a non-vertex")
        masks.append(sum(bit[v] for v in members))
    return [n, masks]


def _cached_graphs(rows, limit):
    # The graphs of cache rows, assembled with Hypergraph._make from parts
    # built once: per vertex count the names and a mask -> frozenset table,
    # per edge count the _edge_slots.  The rows are checked for types and
    # ranges only; a mask is range-checked when it first enters its table.
    # Any other row raises ValueError.
    names_of, tables, slots_of = {}, {}, {}
    graphs = []
    for row in rows:
        if type(row) is not list or len(row) != 2:
            raise ValueError("a cache row is [n, masks]")
        n, masks = row
        if type(n) is not int or not 0 <= n <= limit or type(masks) is not list:
            raise ValueError("a cache row's vertex count is out of range")
        table = tables.get(n)
        if table is None:
            table = tables[n] = {}
            names_of[n] = tuple(_vertex_names(n))
        names = names_of[n]
        sets = []
        for mask in masks:
            if type(mask) is not int:
                raise ValueError("a cache row's edge mask is not an int")
            members = table.get(mask)
            if members is None:
                if not 0 < mask < 1 << n:
                    raise ValueError("a cache row's edge mask is out of range")
                members = table[mask] = frozenset(
                    v for j, v in enumerate(names) if mask >> j & 1
                )
            sets.append(members)
        slots = slots_of.get(len(sets))
        if slots is None:
            slots = slots_of[len(sets)] = _edge_slots(len(sets))
        graphs.append(Hypergraph._make(names, {eid: sets[i] for eid, i in slots}))
    return graphs


def _load_cached_graphs(bounds):
    """The cached graphs, or ``None`` unless the file is whole and every
    graph row reads back; the caller then rebuilds the file.

    Each graph is one line ``[n, [mask_e1, ..., mask_em]]``: its vertices
    are ``_vertex_names(n)``, its edge ids ``e1`` to ``em``, and bit j of a
    mask stands for the j-th vertex name, the form every corpus graph has.
    The last line counts the graph lines before it, so an empty or
    cut-short file is not read as a smaller corpus.  A vertex count must
    be an int from 0 to the most vertices the bounds allow, and a mask an
    int from 1 to 2**n - 1; a line in any other form, such as the dict
    lines earlier versions wrote, was not written by this version.
    """
    try:
        lines = _cache_path(bounds).read_text().splitlines()
        footer = json.loads(lines[-1]) if lines else None
        if footer != {"graphs": len(lines) - 1}:
            return None
        # One parse for all rows; the count shows that no line held more
        # or less than one row.
        rows = json.loads("[" + ",".join(lines[:-1]) + "]")
        if len(rows) != len(lines) - 1:
            return None
        return _cached_graphs(rows, _cached_vertex_limit(bounds))
    except (OSError, ValueError):
        return None


def _store_cached_graphs(bounds, graphs):
    """Write the graphs as the cache file of ``bounds``, one row per line
    as :func:`_load_cached_graphs` reads them.

    A graph that could not be read back raises ``ValueError`` before any
    file is made.  Each writer gets its own temp file and renames it into
    place, so concurrent runs never write into one another's, and a stale
    file left by a killed run is ignored.
    """
    limit = _cached_vertex_limit(bounds)
    rows = [_cache_row(graph, limit) for graph in graphs]
    path = _cache_path(bounds)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f"{path.stem}-", suffix=".tmp", dir=path.parent
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp makes the file private; a cache dir may be shared.
            os.fchmod(handle.fileno(), 0o644)
            for row in rows:
                handle.write(json.dumps(row, separators=(",", ":")))
                handle.write("\n")
            handle.write(json.dumps({"graphs": len(graphs)}) + "\n")
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _build_morphisms(graphs, bounds):
    """The corpus morphisms: the inclusion of every restriction of every
    member, plus every injective morphism from a nonempty member into a
    member, when both have at most ``max_morphism_vertices`` vertices."""
    morphisms = []
    for graph in graphs:
        for size in range(len(graph.vertices) + 1):
            for part in itertools.combinations(graph.vertices, size):
                morphisms.append(restrict(graph, part)[1])
    small = [
        g for g in graphs if len(g.vertices) <= bounds.max_morphism_vertices
    ]
    for source in small:
        if source.vertices:
            for target in small:
                morphisms.extend(enumerate_embeddings(source, target))
    return morphisms


class Corpus:
    """An immutable collection of test graphs; the ``morphisms`` between
    them are built from the graphs and bounds on first read, and kept.

    A graph's id is ``g`` followed by its position in ``graphs``.
    """

    __slots__ = ("bounds", "graphs", "_morphisms", "_index")

    def __init__(self, bounds, graphs):
        self.bounds = bounds
        self.graphs = tuple(graphs)
        self._morphisms = None
        self._index = {g: i for i, g in enumerate(self.graphs)}

    def __repr__(self):
        return f"Corpus({len(self.graphs)} graphs)"

    @property
    def morphisms(self):
        if self._morphisms is None:
            self._morphisms = tuple(_build_morphisms(self.graphs, self.bounds))
        return self._morphisms

    def graph_id(self, graph):
        index = self._index.get(graph)
        return None if index is None else f"g{index}"

    def with_extra_graphs(self, extras):
        """A corpus extended by the given graphs (isomorphs are skipped).

        Extras are members like any other, with their own morphisms.
        """
        graphs = list(self.graphs)
        for graph in extras:
            if not _contains_isomorph(graphs, graph):
                graphs.append(graph)
        if len(graphs) == len(self.graphs):
            return self
        return Corpus(self.bounds, graphs)


def _contains_isomorph(graphs, graph):
    # iso_check compares vertex and edge counts and profile classes before
    # it builds canonical forms, so most members are ruled out cheaply.
    return any(iso_check(member, graph) for member in graphs)


def generate_corpus(bounds=None, use_cache=True):
    """Build the exhaustive corpus for the given bounds.

    Deduplicated graphs are cached on disk keyed by the bounds and the
    cache format.  Morphisms are built on the first read of
    ``Corpus.morphisms``, so only ``check_functorial`` pays for them.
    """
    bounds = bounds or CorpusBounds()
    estimate = estimate_candidates(bounds)
    if estimate > DEFAULT_GUARD:
        raise SizeLimitError(
            f"corpus bounds would enumerate about {estimate} labelled "
            f"candidates, over the guard of {DEFAULT_GUARD}"
        )
    graphs = _load_cached_graphs(bounds) if use_cache else None
    if graphs is None:
        graphs = _enumerate_hypergraph_classes(bounds)
        graphs.extend(_atlas_extras(bounds))
        graphs.sort(key=_graph_sort_key)
        if use_cache:
            _store_cached_graphs(bounds, graphs)
    return Corpus(bounds, graphs)


# ---------------------------------------------------------------------------
# cluster cache

class ClusterCache:
    """Memoizes clusterings and expansion edge sets across checks.

    Keys include the scheme, so a cache is best scoped to one scheme grid
    cell; expansion sets are keyed by the concrete motif tuple and therefore
    shared between overlap thresholds.
    """

    __slots__ = ("_parts", "_sets")

    def __init__(self):
        self._parts = {}
        self._sets = {}

    def expansion_sets(self, motifs, graph):
        key = (motifs, graph)
        found = self._sets.get(key)
        if found is None:
            found = expansion_edge_sets(motifs, graph)
            self._sets[key] = found
        return found

    def parts(self, scheme, graph):
        key = (scheme, graph)
        found = self._parts.get(key)
        if found is None:
            found = cluster(scheme, graph, self.expansion_sets)
            self._parts[key] = found
        return found


# ---------------------------------------------------------------------------
# reports

class CheckReport:
    """Outcome of one corpus-level check.

    ``counterexamples`` is a tuple of JSON-ready dicts, each self-contained:
    replaying the failing instance needs nothing beyond the entry itself.
    They are the verdict: a check passes exactly when it found none.
    ``bounds`` are the :class:`CorpusBounds` the corpus was built under, so
    a pass states how far it reaches.
    """

    __slots__ = ("check", "schemes", "statistics", "counterexamples", "bounds")

    def __init__(self, check, schemes, statistics, counterexamples, bounds):
        self.check = check
        self.schemes = tuple(schemes)
        self.statistics = dict(statistics)
        self.counterexamples = tuple(counterexamples)
        self.bounds = bounds

    @property
    def passed(self):
        return not self.counterexamples

    def __repr__(self):
        verdict = "pass" if self.passed else "fail"
        return f"CheckReport({self.check}, {verdict})"

    def to_json(self, limit=None):
        shown = list(self.counterexamples[:limit])
        statistics = dict(self.statistics)
        statistics["counterexamples_total"] = len(self.counterexamples)
        statistics["counterexamples_shown"] = len(shown)
        return {
            "check": self.check,
            "schemes": list(self.schemes),
            "verdict": "pass" if self.passed else "fail",
            "statistics": statistics,
            "counterexamples": shown,
            "bounds": asdict(self.bounds),
        }


def _graph_ref(corpus, graph):
    ref = {"graph": hypergraph_to_json(graph)}
    gid = corpus.graph_id(graph)
    if gid is not None:
        ref["id"] = gid
    return ref


def _sweep_report(check, schemes, corpus, bad, **statistics):
    # The tail every corpus sweep shares: labelled schemes, the corpus size
    # and the failure count next to the sweep's own statistics.
    statistics["graphs"] = len(corpus.graphs)
    statistics["failures"] = len(bad)
    return CheckReport(check, map(scheme_label, schemes), statistics, bad, corpus.bounds)


# ---------------------------------------------------------------------------
# the check battery

def check_excisive(scheme, corpus, cache=None):
    """Every discovered part must reappear when its restriction is
    re-clustered."""
    cache = cache or ClusterCache()
    bad = []
    parts_checked = 0
    for graph in corpus.graphs:
        clustered = cache.parts(scheme, graph)
        for part in clustered.sorted_parts():
            parts_checked += 1
            sub = restrict(graph, part)[0]
            again = cache.parts(scheme, sub)
            if frozenset(part) not in again.parts:
                entry = _graph_ref(corpus, graph)
                entry["part"] = list(part)
                bad.append(entry)
    return _sweep_report("excisive", [scheme], corpus, bad, parts_checked=parts_checked)


def check_functorial(scheme, corpus, cache=None):
    """Every corpus morphism must send parts into parts.  A run of morphisms
    with one source and target reads both clusterings once; the corpus keeps
    a pair's morphisms together, and split runs would give the same report."""
    cache = cache or ClusterCache()
    bad = []
    pairs = itertools.groupby(corpus.morphisms, key=lambda m: (m.source, m.target))
    for (source, target), run in pairs:
        clustered = cache.parts(scheme, source)
        if not clustered.parts:
            continue
        source_parts = clustered.sorted_parts()
        target_parts = cache.parts(scheme, target).parts
        for morphism in run:
            for part, _ in uncovered_parts(source_parts, target_parts, morphism.map):
                bad.append({
                    "source": _graph_ref(corpus, source),
                    "target": _graph_ref(corpus, target),
                    "map": dict(sorted(morphism.map.items())),
                    "part": list(part),
                })
    return _sweep_report(
        "functorial", [scheme], corpus, bad, morphisms=len(corpus.morphisms)
    )


def check_refines(finer_scheme, coarser_scheme, corpus, cache=None):
    """First scheme's clustering must refine the second's on every graph."""
    cache = cache or ClusterCache()
    bad = []
    for graph in corpus.graphs:
        fine = cache.parts(finer_scheme, graph)
        coarse = cache.parts(coarser_scheme, graph)
        ok, offender = is_refinement(fine, coarse)
        if not ok:
            entry = _graph_ref(corpus, graph)
            entry["part"] = sorted(offender)
            bad.append(entry)
    return _sweep_report("refines", [finer_scheme, coarser_scheme], corpus, bad)


def check_scheme_equal(first_scheme, second_scheme, corpus, cache=None):
    """Both schemes must produce identical part sets on every graph."""
    cache = cache or ClusterCache()
    bad = []
    for graph in corpus.graphs:
        first = cache.parts(first_scheme, graph).parts
        second = cache.parts(second_scheme, graph).parts
        if first != second:
            entry = _graph_ref(corpus, graph)
            entry["first_only"] = sorted(map(sorted, first - second))
            entry["second_only"] = sorted(map(sorted, second - first))
            bad.append(entry)
    return _sweep_report("equal", [first_scheme, second_scheme], corpus, bad)


# ---------------------------------------------------------------------------
# representation hulls

def _hull_sides(motifs, graph, k, corpus, cache):
    """Both sides of the hull test for adjoining ``graph`` to ``motifs`` at
    threshold ``k``: the :func:`check_scheme_equal` differences over the
    corpus plus ``graph``, the graph's expansion edge sets, whether they
    have the whole vertex set as a part, and the statistics on the sweep."""
    motifs = tuple(motifs)
    members = corpus.with_extra_graphs([graph])
    differences = check_scheme_equal(
        MotifScheme(motifs, k), MotifScheme(motifs + (graph,), k), members, cache
    ).counterexamples
    sets = cache.expansion_sets(motifs, graph)
    spanned = has_full_part(graph.vertices, component_member_unions(sets, k))
    statistics = {
        "graphs_checked": len(members.graphs),
        "differing_graphs": len(differences),
    }
    if differences:
        statistics["difference_witness"] = differences[0]
    return differences, sets, spanned, statistics


def hull_check(motifs, graph, corpus, cache=None):
    """Adjoining a graph to a motif set is a no-op exactly when its
    expansion is spanned.

    It runs the sweep of :func:`connected_hull_check` at threshold infinity,
    where every distinct expansion edge set is a part of its own: two
    expansions agree exactly when the two schemes do, and the graph's
    expansion is spanned exactly when some part is its whole vertex set.
    Both sides are reported, and the check passes when they agree, as the
    hull property predicts.  A difference lists the edge sets the graph
    adds.
    """
    differences, _, spanned, statistics = _hull_sides(
        motifs, graph, INFINITE, corpus, cache or ClusterCache()
    )
    # Adjoining a motif only adds embeddings, so no edge set is ever lost
    # and every first_only is empty.  The entries are rewritten in place,
    # the difference witness among them.
    for entry in differences:
        del entry["first_only"]
        entry["gained_edge_sets"] = sorted(map(set_name, entry.pop("second_only")))
    equal = not differences
    statistics.update(spanned=spanned, edge_sets_equal=equal)
    counterexamples = []
    if spanned != equal:
        witness = differences[0] if differences else None
        counterexamples.append(
            {"spanned": spanned, "edge_sets_equal": equal, "witness": witness}
        )
    return CheckReport("hull", [], statistics, counterexamples, corpus.bounds)


def connected_hull_check(motifs, graph, min_overlap, corpus, cache=None):
    """Scheme-level hull: corpus-level scheme equality must imply that the
    graph's expansion is connected at the threshold.

    The reverse implication is asserted only at threshold 1; for larger
    thresholds it is merely reported, since it is known to fail there.
    """
    differences, sets, connected, statistics = _hull_sides(
        motifs, graph, min_overlap, corpus, cache or ClusterCache()
    )
    equal = not differences
    forward_ok = (not equal) or connected
    reverse_holds = (not connected) or equal
    reverse_asserted = min_overlap == 1
    statistics.update(
        k=threshold_to_json(min_overlap),
        schemes_equal=equal,
        expansion_connected=connected,
        forward_ok=forward_ok,
        reverse_holds=reverse_holds,
        reverse_asserted=reverse_asserted,
    )
    counterexamples = []
    if not forward_ok:
        counterexamples.append(
            {
                "reason": "schemes agree on the corpus but the expansion "
                "is not connected at the threshold",
                "expansion_edge_sets": sorted(set_name(s) for s in sets),
            }
        )
    if reverse_asserted and not reverse_holds:
        counterexamples.append(
            {
                "reason": "expansion is connected at threshold 1 but the "
                "schemes differ on the corpus",
                "witness": differences[0],
            }
        )
    return CheckReport(
        "connected-hull", [], statistics, counterexamples, corpus.bounds
    )


# ---------------------------------------------------------------------------
# finite representability witness

class FiniteRepWitness:
    """Outcome of the tailed-triangle witness construction."""

    __slots__ = (
        "radius",
        "witness",
        "blocked_without",
        "connected_with",
        "per_graph_radius",
    )

    def __init__(
        self, radius, witness, blocked_without, connected_with, per_graph_radius
    ):
        self.radius = radius
        self.witness = witness
        self.blocked_without = blocked_without
        self.connected_with = connected_with
        self.per_graph_radius = tuple(per_graph_radius)

    @property
    def ok(self):
        return self.blocked_without and self.connected_with

    def to_json(self):
        return {
            "radius": self.radius,
            "witness": hypergraph_to_json(self.witness),
            "expansion_blocked_without_witness": self.blocked_without,
            "expansion_connected_with_witness": self.connected_with,
            "per_graph_radius": list(self.per_graph_radius),
            "verdict": "pass" if self.ok else "fail",
        }


def _triangle_radius(graph):
    # The triangle vertices are the images of K_3's embeddings, which lie on
    # 2-edges; one BFS from all of them at once gives every vertex's
    # distance to the nearest.  triangle_with_tail(0) is K_3, built once,
    # so its search plan is built once for every graph.
    anchors = set().union(*expansion_edge_sets((triangle_with_tail(0),), graph))
    if not anchors:
        raise ValueError(
            f"finite_rep_witness needs a triangle in every motif; "
            f"none found in a graph on {len(graph.vertices)} vertices"
        )
    adj = _simple_adjacency(graph, "finite_rep_witness")
    distance = dict.fromkeys(anchors, 0)
    queue = list(anchors)
    # The loop also visits the vertices appended while it runs.
    for v in queue:
        for w in adj[v]:
            if w not in distance:
                distance[w] = distance[v] + 1
                queue.append(w)
    for v in graph.vertices:
        if v not in distance:
            raise ValueError(f"vertex {v!r} cannot reach a triangle; radius undefined")
    return max(distance.values())


def finite_rep_witness(motif_graphs):
    """For triangle-tailed motifs, exhibit the graph their expansions
    cannot reconnect.

    The radius is the largest distance from any vertex to a triangle across
    the given graphs; a tail one longer than that defeats every one of them
    at once, while representing the tailed graph by itself trivially works.
    Each graph's triangles are the images of the embedding search for K_3,
    and its radius comes from one breadth-first search started at all of
    them.  A graph is refused with ``ValueError`` when it has no triangle,
    then when it is not a simple graph, then when a vertex cannot reach a
    triangle (the first such vertex by name).
    """
    motifs = tuple(motif_graphs)
    if not motifs:
        raise ValueError("finite_rep_witness needs at least one motif")
    per_graph = [_triangle_radius(g) for g in motifs]
    radius = max(per_graph)
    witness = triangle_with_tail(radius + 1)

    def spans(motifs):
        sets = expansion_edge_sets(motifs, witness)
        return has_full_part(witness.vertices, component_member_unions(sets, 1))

    return FiniteRepWitness(radius, witness, not spans(motifs), spans((witness,)), per_graph)


# ---------------------------------------------------------------------------
# equal-parts search

@dataclass(frozen=True)
class SearchBounds:
    """Size limits for the equal-parts search; edge sizes start at 1, the
    other bounds at 0, and lower values raise ``ValueError``."""

    max_vertices: int = _bound(9, 0)
    max_edges: int = _bound(16, 0)
    max_edge_size: int = _bound(3, 1)

    def __post_init__(self):
        _refuse_out_of_range_bounds(self)


class EqualPartsResult:
    """Outcome of the search for two components that both cover everything."""

    __slots__ = ("witness", "transcript", "exhaustive", "bounds")

    def __init__(self, witness, transcript, exhaustive, bounds):
        self.witness = witness
        self.transcript = transcript
        self.exhaustive = exhaustive
        self.bounds = bounds

    @property
    def outcome(self):
        return "witness" if self.witness is not None else "exhausted"

    def to_json(self):
        data = {
            "outcome": self.outcome,
            "exhaustive_search": self.exhaustive,
            "bounds": asdict(self.bounds),
        }
        if self.witness is not None:
            data["witness"] = hypergraph_to_json(self.witness)
            data["transcript"] = self.transcript
        return data


def validate_equal_parts_witness(graph):
    """Check that two distinct overlap-2 components both union to the full
    vertex set; returns the transcript or raises."""
    sets = sorted(graph.edge_sets(), key=set_name)
    full = frozenset(graph.vertices)
    described = []
    spanning = 0
    for comp in percolate(sets, 2):
        union = frozenset().union(*(sets[i] for i in comp))
        covers = union == full and bool(full)
        spanning += covers
        described.append(
            {
                "edge_sets": [set_name(sets[i]) for i in comp],
                "union_size": len(union),
                "covers_all_vertices": covers,
            }
        )
    if spanning < 2:
        raise ValueError(
            f"not a witness: {spanning} component(s) cover all vertices, "
            f"need at least 2"
        )
    described.sort(key=lambda d: (-d["covers_all_vertices"], d["edge_sets"]))
    return {
        "vertices": len(graph.vertices),
        "distinct_edge_sets": len(sets),
        "spanning_components": spanning,
        "components": described,
    }


def _structured_equal_parts(bounds):
    """Sliding windows against a coordinate walk on three bands.

    On 3m vertices the m-step windows chain covers everything, and so does
    a walk of triples taking one vertex per band; bands keep the two
    families from ever sharing two vertices, so they stay in separate
    components.
    """
    if bounds.max_edge_size < 3:
        return None, None
    for n in range(9, bounds.max_vertices + 1, 3):
        m = n // 3
        if (n - 2) + (3 * m - 2) > bounds.max_edges:
            continue
        names = _vertex_names(n)
        edges = {}
        for i in range(n - 2):
            edges[f"w{i + 1}"] = (names[i], names[i + 1], names[i + 2])
        walk = [0, m, 2 * m]
        step = 0
        edges["b1"] = tuple(names[j] for j in walk)
        for i in range(3 * (m - 1)):
            walk[2 - step] += 1
            step = (step + 1) % 3
            edges[f"b{i + 2}"] = tuple(names[j] for j in walk)
        graph = Hypergraph(names, edges)
        try:
            return graph, validate_equal_parts_witness(graph)
        except ValueError:
            continue
    return None, None


def search_equal_parts_example(bounds=None):
    """Look for a hypergraph whose overlap-2 clustering has two parts both
    equal to the whole vertex set.

    No witness has fewer than 8 vertices, whatever its edge sizes, so
    bounds of at most 7 vertices are decided by that proof: the result is
    ``exhausted`` with ``exhaustive_search`` true.  Larger bounds get the
    construction of :func:`_structured_equal_parts`, which needs 3m >= 9
    vertices, edges of 3 vertices and 6m - 4 edges; where it does not fit,
    the result is ``exhausted`` with ``exhaustive_search`` false, which
    claims nothing about those bounds.  A returned witness always carries
    its own validation transcript; nothing is ever fabricated.

    The proof.  At k = 2 a one-vertex edge meets no other edge in 2
    vertices, so it is a component of its own and spans only a graph on
    one vertex, which has one distinct edge set.  On n >= 2 vertices, take
    a spanning component's edges in an order where each later edge meets
    an earlier one in 2 vertices.  The first edge, with s vertices, covers
    C(s, 2) >= 2s - 3 vertex pairs; every vertex a later edge brings pairs
    with the 2 vertices it shares, so it adds 2 new pairs, and the
    component covers at least 2n - 3 distinct pairs.  Two components share
    no pair, or an edge of one would meet an edge of the other in 2
    vertices, so 4n - 6 <= C(n, 2), which forces n >= 8.
    """
    bounds = bounds or SearchBounds()
    witness, transcript = _structured_equal_parts(bounds)
    return EqualPartsResult(witness, transcript, bounds.max_vertices < 8, bounds)
