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
import random
import tempfile
from dataclasses import dataclass, field, fields

from .components import (
    _line_graph_over,
    component_member_unions,
    connected_components,
    has_full_part,
    set_name,
    threshold_to_json,
)
from .graphs import (
    GraphMorphism,
    Hypergraph,
    SizeLimitError,
    canonical_key,
    graph_distance,
    hypergraph_from_json,
    hypergraph_to_json,
    iso_check,
    restrict,
    triangle_with_tail,
    validate_graph_morphism,
)
from .motifs import enumerate_embeddings, expansion_edge_sets
from .partitions import is_refinement
from .schemes import MotifScheme, cluster, scheme_label

_CACHE_VERSION = 2
DEFAULT_GUARD = 2_000_000


def _bound(default, minimum):
    # A bounds field; values below ``minimum`` describe no meaningful corpus.
    return field(default=default, metadata={"minimum": minimum})


def _refuse_low_bounds(bounds):
    for f in fields(bounds):
        value, low = getattr(bounds, f.name), f.metadata["minimum"]
        if value < low:
            raise ValueError(f"{f.name} must be at least {low}, got {value}")


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
    graphs); lower values raise ``ValueError``.
    """

    max_vertices: int = _bound(5, 0)
    max_edges: int = _bound(4, 0)
    max_edge_size: int = _bound(4, 1)
    max_morphism_vertices: int = _bound(4, 0)
    max_simple_vertices: int = _bound(6, 0)

    def __post_init__(self):
        _refuse_low_bounds(self)


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


def _enumerate_hypergraph_classes(bounds):
    out = []
    seen = set()
    for n in range(bounds.max_vertices + 1):
        names = _vertex_names(n)
        subsets = []
        for size in range(1, min(n, bounds.max_edge_size) + 1):
            subsets.extend(itertools.combinations(names, size))
        for count in range(bounds.max_edges + 1):
            for combo in itertools.combinations_with_replacement(subsets, count):
                edges = {f"e{i + 1}": members for i, members in enumerate(combo)}
                graph = Hypergraph(names, edges)
                key = canonical_key(graph)
                if key not in seen:
                    seen.add(key)
                    out.append(graph)
    return out


def _atlas_extras(bounds):
    """Simple graphs beyond the hypergraph enumeration, from the atlas of
    graphs on up to seven vertices."""
    if bounds.max_simple_vertices <= 0:
        return []
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for atlas_graph in graph_atlas_g():
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
        names = _vertex_names(n)
        rename = {node: names[i] for i, node in enumerate(sorted(atlas_graph.nodes))}
        pairs = sorted(
            tuple(sorted((rename[a], rename[b]))) for a, b in atlas_graph.edges
        )
        edges = {f"e{i + 1}": pair for i, pair in enumerate(pairs)}
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


def _load_cached_graphs(bounds):
    """The cached graphs, or ``None`` unless the file is whole: its last
    line counts the graph lines before it, so an empty or cut-short file is
    rebuilt rather than read as a smaller corpus."""
    try:
        lines = _cache_path(bounds).read_text().splitlines()
        footer = json.loads(lines[-1]) if lines else None
        if footer != {"graphs": len(lines) - 1}:
            return None
        return [hypergraph_from_json(json.loads(line)) for line in lines[:-1]]
    except (OSError, ValueError, KeyError):
        return None


def _store_cached_graphs(bounds, graphs):
    # Each writer gets its own temp file, so concurrent runs never write
    # into one another's, and a stale file left by a killed run is ignored.
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
            for graph in graphs:
                handle.write(json.dumps(hypergraph_to_json(graph), sort_keys=True))
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

    ``id_base`` offsets the printed graph ids; chunked corpora built for
    parallel checks use it so their reports name graphs consistently with
    the parent corpus.
    """

    __slots__ = ("bounds", "graphs", "_morphisms", "_index", "_id_base")

    def __init__(self, bounds, graphs, id_base=0):
        self.bounds = bounds
        self.graphs = tuple(graphs)
        self._morphisms = None
        self._index = {g: i for i, g in enumerate(self.graphs)}
        self._id_base = id_base

    def __repr__(self):
        return f"Corpus({len(self.graphs)} graphs)"

    @property
    def morphisms(self):
        if self._morphisms is None:
            self._morphisms = tuple(_build_morphisms(self.graphs, self.bounds))
        return self._morphisms

    def graph_id(self, graph):
        index = self._index.get(graph)
        return None if index is None else f"g{index + self._id_base}"

    def simple_graphs(self):
        return [g for g in self.graphs if g.is_simple()]

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
    return any(iso_check(member, graph)[0] for member in graphs)


def generate_corpus(bounds=None, use_cache=True, guard=DEFAULT_GUARD):
    """Build the exhaustive corpus for the given bounds.

    Deduplicated graphs are cached on disk keyed by the bounds and the
    cache format.  Morphisms are built on the first read of
    ``Corpus.morphisms``, so only ``check_functorial`` pays for them.
    """
    bounds = bounds or CorpusBounds()
    estimate = estimate_candidates(bounds)
    if estimate > guard:
        raise SizeLimitError(
            f"corpus bounds would enumerate about {estimate} labelled "
            f"candidates, over the guard of {guard}"
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
    """

    __slots__ = ("check", "schemes", "passed", "statistics", "counterexamples")

    def __init__(self, check, schemes, passed, statistics, counterexamples):
        self.check = check
        self.schemes = tuple(schemes)
        self.passed = bool(passed)
        self.statistics = dict(statistics)
        self.counterexamples = tuple(counterexamples)

    def __repr__(self):
        verdict = "pass" if self.passed else "fail"
        return f"CheckReport({self.check}, {verdict})"

    def to_json(self, limit=None):
        shown = list(self.counterexamples)
        statistics = dict(self.statistics)
        if limit is not None and len(shown) > limit:
            shown = shown[:limit]
        statistics["counterexamples_total"] = len(self.counterexamples)
        statistics["counterexamples_shown"] = len(shown)
        return {
            "check": self.check,
            "schemes": list(self.schemes),
            "verdict": "pass" if self.passed else "fail",
            "statistics": statistics,
            "counterexamples": shown,
        }


def _graph_ref(corpus, graph):
    ref = {"graph": hypergraph_to_json(graph)}
    gid = corpus.graph_id(graph) if corpus is not None else None
    if gid is not None:
        ref["id"] = gid
    return ref


def _part_list(part):
    return sorted(part)


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
    statistics = {
        "graphs": len(corpus.graphs),
        "parts_checked": parts_checked,
        "failures": len(bad),
    }
    return CheckReport(
        "excisive", [scheme_label(scheme)], not bad, statistics, bad
    )


def check_functorial(scheme, corpus, cache=None):
    """Every corpus morphism must send parts into parts."""
    cache = cache or ClusterCache()
    bad = []
    for morphism in corpus.morphisms:
        source_parts = cache.parts(scheme, morphism.source)
        if not source_parts.parts:
            continue
        target_parts = cache.parts(scheme, morphism.target).parts
        vmap = morphism.map
        for part in source_parts.sorted_parts():
            image = frozenset(vmap[v] for v in part)
            if not any(image <= q for q in target_parts):
                entry = {
                    "source": _graph_ref(corpus, morphism.source),
                    "target": _graph_ref(corpus, morphism.target),
                    "map": dict(sorted(vmap.items())),
                    "part": list(part),
                }
                bad.append(entry)
    statistics = {
        "graphs": len(corpus.graphs),
        "morphisms": len(corpus.morphisms),
        "failures": len(bad),
    }
    return CheckReport(
        "functorial", [scheme_label(scheme)], not bad, statistics, bad
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
            entry["part"] = _part_list(offender)
            bad.append(entry)
    statistics = {"graphs": len(corpus.graphs), "failures": len(bad)}
    return CheckReport(
        "refines",
        [scheme_label(finer_scheme), scheme_label(coarser_scheme)],
        not bad,
        statistics,
        bad,
    )


def check_scheme_equal(first_scheme, second_scheme, corpus, cache=None):
    """Both schemes must produce identical part sets on every graph."""
    cache = cache or ClusterCache()
    bad = []
    for graph in corpus.graphs:
        first = cache.parts(first_scheme, graph).parts
        second = cache.parts(second_scheme, graph).parts
        if first != second:
            entry = _graph_ref(corpus, graph)
            entry["first_only"] = sorted(
                (_part_list(p) for p in first - second)
            )
            entry["second_only"] = sorted(
                (_part_list(p) for p in second - first)
            )
            bad.append(entry)
    statistics = {"graphs": len(corpus.graphs), "failures": len(bad)}
    return CheckReport(
        "equal",
        [scheme_label(first_scheme), scheme_label(second_scheme)],
        not bad,
        statistics,
        bad,
    )


# ---------------------------------------------------------------------------
# representation hulls

def hull_check(motifs, graph, corpus, cache=None):
    """Adjoining a graph to a motif set is a no-op exactly when its
    expansion is spanned.

    Both sides are computed and reported: whether the expansion of ``graph``
    has a spanning edge, and whether the two expansions agree on every
    corpus member (the graph itself included).  The check passes when the
    two sides agree, as the hull property predicts.
    """
    motifs = tuple(motifs)
    extended = motifs + (graph,)
    cache = cache or ClusterCache()
    sets = cache.expansion_sets(motifs, graph)
    spanned = frozenset(graph.vertices) in sets
    members = corpus.with_extra_graphs([graph])
    differences = []
    for member in members.graphs:
        base = cache.expansion_sets(motifs, member)
        more = cache.expansion_sets(extended, member)
        if base != more:
            entry = _graph_ref(members, member)
            entry["gained_edge_sets"] = sorted(set_name(s) for s in more - base)
            differences.append(entry)
    equal = not differences
    passed = spanned == equal
    statistics = {
        "spanned": spanned,
        "edge_sets_equal": equal,
        "graphs_checked": len(members.graphs),
        "differing_graphs": len(differences),
    }
    if differences:
        statistics["difference_witness"] = differences[0]
    counterexamples = []
    if not passed:
        counterexamples.append(
            {
                "spanned": spanned,
                "edge_sets_equal": equal,
                "witness": differences[0] if differences else None,
            }
        )
    return CheckReport("hull", [], passed, statistics, counterexamples)


def connected_hull_check(motifs, graph, min_overlap, corpus, cache=None):
    """Scheme-level hull: corpus-level scheme equality must imply that the
    graph's expansion is connected at the threshold.

    The reverse implication is asserted only at threshold 1; for larger
    thresholds it is merely reported, since it is known to fail there.
    """
    motifs = tuple(motifs)
    cache = cache or ClusterCache()
    base_scheme = MotifScheme(motifs, min_overlap)
    extended_scheme = MotifScheme(motifs + (graph,), min_overlap)
    members = corpus.with_extra_graphs([graph])
    differences = check_scheme_equal(
        base_scheme, extended_scheme, members, cache
    ).counterexamples
    equal = not differences
    sets = cache.expansion_sets(motifs, graph)
    connected = has_full_part(graph.vertices, component_member_unions(sets, min_overlap))
    forward_ok = (not equal) or connected
    reverse_holds = (not connected) or equal
    reverse_asserted = min_overlap == 1
    passed = forward_ok and (reverse_holds or not reverse_asserted)
    statistics = {
        "k": threshold_to_json(min_overlap),
        "schemes_equal": equal,
        "expansion_connected": connected,
        "forward_ok": forward_ok,
        "reverse_holds": reverse_holds,
        "reverse_asserted": reverse_asserted,
        "graphs_checked": len(members.graphs),
        "differing_graphs": len(differences),
    }
    if differences:
        statistics["difference_witness"] = differences[0]
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
    return CheckReport("connected-hull", [], passed, statistics, counterexamples)


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


def _triangle_vertices(graph):
    pairs = {s for s in graph.edges.values() if len(s) == 2}
    vertices = sorted({v for s in pairs for v in s})
    found = set()
    for a, b, c in itertools.combinations(vertices, 3):
        if (
            frozenset((a, b)) in pairs
            and frozenset((a, c)) in pairs
            and frozenset((b, c)) in pairs
        ):
            found.update((a, b, c))
    return found


def _triangle_radius(graph):
    anchors = _triangle_vertices(graph)
    if not anchors:
        raise ValueError(
            f"finite_rep_witness needs a triangle in every motif; "
            f"none found in a graph on {len(graph.vertices)} vertices"
        )
    worst = 0
    for v in graph.vertices:
        best = min(
            (
                d
                for d in (graph_distance(graph, v, a) for a in anchors)
                if d is not None
            ),
            default=None,
        )
        if best is None:
            raise ValueError(
                f"vertex {v!r} cannot reach a triangle; radius undefined"
            )
        worst = max(worst, best)
    return worst


def finite_rep_witness(motif_graphs):
    """For triangle-tailed motifs, exhibit the graph their expansions
    cannot reconnect.

    The radius is the largest distance from any vertex to a triangle across
    the given graphs; a tail one longer than that defeats every one of them
    at once, while representing the tailed graph by itself trivially works.
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
        _refuse_low_bounds(self)


class EqualPartsResult:
    """Outcome of the search for two components that both cover everything."""

    __slots__ = ("witness", "transcript", "exhaustive", "bounds", "trials")

    def __init__(self, witness, transcript, exhaustive, bounds, trials):
        self.witness = witness
        self.transcript = transcript
        self.exhaustive = exhaustive
        self.bounds = bounds
        self.trials = trials

    @property
    def outcome(self):
        return "witness" if self.witness is not None else "exhausted"

    def label(self):
        if self.witness is not None:
            return "witness"
        return (
            f"exhausted(max_vertices={self.bounds.max_vertices}, "
            f"max_edges={self.bounds.max_edges}, "
            f"max_edge_size={self.bounds.max_edge_size})"
        )

    def to_json(self):
        data = {
            "outcome": self.outcome,
            "exhaustive_search": self.exhaustive,
            "trials": self.trials,
            "bounds": {
                "max_vertices": self.bounds.max_vertices,
                "max_edges": self.bounds.max_edges,
                "max_edge_size": self.bounds.max_edge_size,
            },
        }
        if self.witness is not None:
            data["witness"] = hypergraph_to_json(self.witness)
            data["transcript"] = self.transcript
        return data


def validate_equal_parts_witness(graph):
    """Check that two distinct overlap-2 components both union to the full
    vertex set; returns the transcript or raises."""
    line = _line_graph_over(graph.edge_sets(), 2)
    comps = connected_components(line.graph)
    full = frozenset(graph.vertices)
    described = []
    spanning = 0
    for comp in comps.sorted_parts():
        union = frozenset().union(*(line.members[name] for name in comp))
        covers = union == full and bool(full)
        spanning += covers
        described.append(
            {
                "edge_sets": list(comp),
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
        "distinct_edge_sets": len(line.members),
        "spanning_components": spanning,
        "components": described,
    }


def _exhaustive_equal_parts(bounds):
    for n in range(bounds.max_vertices + 1):
        names = _vertex_names(n)
        universe = []
        for size in range(1, min(n, bounds.max_edge_size) + 1):
            universe.extend(itertools.combinations(names, size))
        top = min(bounds.max_edges, len(universe))
        for count in range(top + 1):
            for combo in itertools.combinations(universe, count):
                edges = {f"e{i + 1}": s for i, s in enumerate(combo)}
                graph = Hypergraph(names, edges)
                try:
                    transcript = validate_equal_parts_witness(graph)
                except ValueError:
                    continue
                return graph, transcript
    return None, None


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
        if n % 3 or (n - 2) + (3 * m - 2) > bounds.max_edges:
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


def _random_equal_parts(bounds, seed, trials):
    rng = random.Random(seed)
    attempted = 0
    for _ in range(trials):
        n = rng.randint(5, bounds.max_vertices)
        names = _vertex_names(n)
        universe = []
        for size in range(2, min(n, bounds.max_edge_size) + 1):
            universe.extend(itertools.combinations(names, size))
        top = min(bounds.max_edges, len(universe))
        if top < 4:
            continue
        count = rng.randint(4, top)
        combo = rng.sample(universe, count)
        attempted += 1
        edges = {f"e{i + 1}": s for i, s in enumerate(combo)}
        graph = Hypergraph(names, edges)
        try:
            return graph, validate_equal_parts_witness(graph), attempted
        except ValueError:
            continue
    return None, None, attempted


def search_equal_parts_example(bounds=None, seed=0, random_trials=2000):
    """Look for a hypergraph whose overlap-2 clustering has two parts both
    equal to the whole vertex set.

    Small bounds are searched exhaustively; larger ones get a structured
    construction plus a seeded random lane.  A returned witness always
    carries its own validation transcript; nothing is ever fabricated.
    """
    bounds = bounds or SearchBounds()
    if bounds.max_vertices <= 4:
        witness, transcript = _exhaustive_equal_parts(bounds)
        return EqualPartsResult(witness, transcript, True, bounds, 0)
    witness, transcript = _structured_equal_parts(bounds)
    if witness is not None:
        return EqualPartsResult(witness, transcript, False, bounds, 0)
    witness, transcript, trials = _random_equal_parts(
        bounds, seed, random_trials
    )
    return EqualPartsResult(witness, transcript, False, bounds, trials)


# ---------------------------------------------------------------------------
# corpus self-checks used by the test suite

def find_invalid_morphisms(corpus):
    """Morphisms that fail validation; the corpus invariant says none do."""
    bad = []
    for morphism in corpus.morphisms:
        if not validate_graph_morphism(morphism).ok:
            bad.append(morphism)
    return bad
