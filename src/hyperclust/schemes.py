"""Clustering schemes: rules assigning each hypergraph a partitioned set
over its own vertices.

Four kinds are provided.  MotifScheme expands the graph along a motif list
and takes overlap components at a threshold.  SharedEdgeScheme glues motif
copies that share a full edge image.  ComponentScheme is plain connected
components on simple graphs, with isolated vertices left partless.  ToyScheme
carries the three hand-written rules used to separate the scheme axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .components import (
    _line_graph_over,
    check_threshold,
    component_member_unions,
    has_full_part,
    parse_threshold,
    threshold_to_json,
)
from .graphs import (
    Hypergraph,
    Validation,
    build_named,
    complete_graph,
    corner_glued_pair,
    edge_glued_chain,
    hypergraph_to_json,
    iso_check,
    simplex,
    triangle_with_tail,
    valid_hypergraph_from_json,
)
# enumerate_embeddings is no longer called here, but stays importable from
# this module: perfbench's tracer wraps it at this seam.
from .motifs import _representatives, enumerate_embeddings, expansion_edge_sets  # noqa: F401
from .partitions import PartitionedSet, remove_spurious

# Family markers a MotifScheme may carry instead of concrete motifs; they
# materialize against each input graph, truncated by what could embed at all.
SPANNING_FAMILY = "E*"
TAILED_TRIANGLE_FAMILY = "R*"


@dataclass(frozen=True)
class MotifScheme:
    """Expand along ``motifs`` and take overlap components at threshold
    ``min_overlap``.  Motif entries are hypergraphs or family markers."""

    motifs: tuple
    min_overlap: object

    def __post_init__(self):
        check_threshold(self.min_overlap)
        for m in self.motifs:
            if not isinstance(m, Hypergraph) and m not in (
                SPANNING_FAMILY,
                TAILED_TRIANGLE_FAMILY,
            ):
                raise ValueError(f"bad motif entry: {m!r}")


@dataclass(frozen=True)
class SharedEdgeScheme:
    """Cluster motif copies that share a full edge image."""

    motif: Hypergraph


@dataclass(frozen=True)
class ComponentScheme:
    """Connected components of a simple graph, isolated vertices partless."""


@dataclass(frozen=True)
class ToyScheme:
    """One of the hand-written example rules, by id."""

    rule: str

    def __post_init__(self):
        if self.rule not in TOY_RULES:
            raise ValueError(f"unknown toy rule: {self.rule!r}")


def materialize_motifs(entries, graph):
    """Resolve family markers against a concrete graph.

    The one-edge family truncates to the largest edge size present (bigger
    members cannot embed, since an edge image needs a target edge of exactly
    its size).  The tailed-triangle family stops before its first member
    with no embedding into ``graph``, found by a first-hit search: R_{i-1}
    is R_i minus the last vertex of its tail, so restricting an embedding of
    R_i gives an embedding of R_{i-1}, and once R_i has none, no longer
    member has one either.  Members with more vertices than the graph are
    never built.
    """
    out = []
    for entry in entries:
        if entry == SPANNING_FAMILY:
            top = max((len(s) for s in graph.edges.values()), default=0)
            out.extend(simplex(n) for n in range(1, top + 1))
        elif entry == TAILED_TRIANGLE_FAMILY:
            for i in range(len(graph.vertices) - 2):
                motif = triangle_with_tail(i)
                if not _representatives(motif, graph, first=True):
                    break
                out.append(motif)
        else:
            out.append(entry)
    return out


# ---------------------------------------------------------------------------
# shared-edge scheme

def _shared_edge_labels(motif, graph):
    # Distinct embedding image -> the image vertex sets of the motif's edges,
    # collected across all embeddings with that image.  One embedding per
    # coset f·Aut(motif) is enough: an automorphism a permutes the motif's
    # edge sets, so f and f∘a give the same image and the same label set.
    # Each edge's images are read straight off the image tuple by its
    # positions in motif.vertices; itemgetter of one position returns the
    # item itself, so a one-vertex edge asks for its position twice.
    slot = {v: i for i, v in enumerate(motif.vertices)}
    getters = []
    for s in motif.edge_sets():
        at = [slot[v] for v in s]
        getters.append(itemgetter(*at, *at) if len(at) == 1 else itemgetter(*at))
    labels = {}
    for image in _representatives(motif, graph):
        bag = labels.setdefault(frozenset(image), set())
        bag.update([frozenset(edge(image)) for edge in getters])
    return labels


def shared_edge_graph(motif, graph):
    """The labelled copy graph behind the shared-edge scheme.

    One vertex per distinct embedding image of ``motif`` in ``graph``; its
    label set collects, across all embeddings with that image, the image
    vertex sets of the motif's edges.  Two copies are joined exactly when
    their label sets intersect, i.e. when they share a full edge image.
    """
    labels = _shared_edge_labels(motif, graph)
    return _line_graph_over(labels, 1, labels)


def _shared_edge_parts(motif, graph):
    labels = _shared_edge_labels(motif, graph)
    parts = component_member_unions(labels, 1, labels)
    return PartitionedSet._make(graph.vertices, frozenset(parts))


def validate_shared_edge_motif(motif):
    """Whether a motif is fit for the shared-edge scheme.

    Checks, in order: exactly three edges; gluing two copies along an edge
    loses exactly three vertices; the scheme sees that glued pair as a
    single all-vertex part; it sees the corner-glued pair as exactly two
    maximal parts; and the plain motif expansion of the corner-glued pair is
    connected at overlap threshold 3.
    """
    if len(motif.edges) != 3:
        return Validation(
            [f"motif needs exactly 3 edges, found {len(motif.edges)}"]
        )
    bad = []
    chained = None
    try:
        chained = edge_glued_chain(motif, 1)
    except ValueError as exc:
        bad.append(f"edge gluing failed: {exc}")
    if chained is not None:
        want = 2 * len(motif.vertices) - 3
        if len(chained.vertices) != want:
            bad.append(
                "gluing two copies along an edge should leave "
                f"{want} vertices, found {len(chained.vertices)}"
            )
        else:
            parts = _shared_edge_parts(motif, chained)
            if parts.parts != frozenset({frozenset(chained.vertices)}):
                bad.append("glued pair of copies is not a single all-vertex part")
    corner = None
    try:
        corner = corner_glued_pair(motif)
    except ValueError as exc:
        bad.append(f"corner gluing failed: {exc}")
    if corner is not None:
        parts = remove_spurious(_shared_edge_parts(motif, corner))
        if len(parts.parts) != 2:
            bad.append(
                f"corner-glued pair should split into two maximal parts, "
                f"found {len(parts.parts)}"
            )
        sets = expansion_edge_sets([motif], corner)
        if not has_full_part(corner.vertices, component_member_unions(sets, 3)):
            bad.append("motif expansion of the corner-glued pair is not 3-connected")
    return Validation(bad)


# ---------------------------------------------------------------------------
# toy rules

_PAIR = complete_graph(2)
_TWO_PAIRS = Hypergraph("abcd", {"e1": "ab", "e2": "cd"})


def _single_part(graph):
    return PartitionedSet(graph.vertices, [frozenset(graph.vertices)])


def _singletons(graph):
    return PartitionedSet(graph.vertices, [{v} for v in graph.vertices])


def _pair_components(graph):
    # Connectivity through 2-vertex edges only; smaller edges keep their
    # vertices in place but do not join anything.
    pairs = [s for s in graph.edges.values() if len(s) == 2]
    return component_member_unions(pairs + [frozenset((v,)) for v in graph.vertices], 1)


def _is_pair_like(graph):
    # The whole graph is a single 2-vertex edge, counting parallel copies of
    # that edge as the same thing.  Treating parallels like the plain pair is
    # forced: the parallel-pair graph maps into the pair and back, so any
    # rule that distinguishes them cannot respect morphisms.
    if len(graph.vertices) != 2 or not graph.edges:
        return False
    full = frozenset(graph.vertices)
    return all(s == full for s in graph.edges.values())


def _toy_one_part_except_pair(graph):
    if iso_check(graph, _PAIR)[0]:
        return _singletons(graph)
    return _single_part(graph)


def _toy_component_rule(graph):
    if any(len(s) > 2 for s in graph.edges.values()):
        return _single_part(graph)
    pair_like = _is_pair_like(graph)
    parts = []
    for component in _pair_components(graph):
        if len(component) == 2 and pair_like:
            parts.extend({v} for v in component)
        else:
            parts.append(component)
    return PartitionedSet(graph.vertices, parts)


def _toy_noprops(graph):
    if iso_check(graph, _PAIR)[0]:
        return _singletons(graph)
    if iso_check(graph, _TWO_PAIRS)[0]:
        return PartitionedSet(graph.vertices, _pair_components(graph))
    return _single_part(graph)


_TOY_IMPL = {
    "always_one_part_except_K2": _toy_one_part_except_pair,
    "component_rule": _toy_component_rule,
    "noprops": _toy_noprops,
}
TOY_RULES = tuple(_TOY_IMPL)


# ---------------------------------------------------------------------------
# evaluation and serialization

def cluster(scheme, graph, expand=None):
    """Apply a scheme to a hypergraph.

    The result's underlying set is always the graph's full vertex set; which
    vertices get covered by parts is up to the scheme.  This is the one
    place that evaluates each scheme kind.  A MotifScheme gets the distinct
    edge vertex sets of its expansion from ``expand(motifs, graph)``, by
    default :func:`~hyperclust.motifs.expansion_edge_sets`, so a caller can
    memoize them across schemes.

    Motif, shared-edge and component parts are unions of the graph's own
    vertex sets, so they are assembled with ``PartitionedSet._make`` and not
    normalised again.  That holds for a graph whose edges name only its
    vertices, which :func:`~hyperclust.graphs.validate_hypergraph` checks.
    """
    if isinstance(scheme, MotifScheme):
        motifs = tuple(materialize_motifs(scheme.motifs, graph))
        # Looked up at call time, so a wrapper installed on this module's
        # expansion_edge_sets sees every default call.
        sets = (expand or expansion_edge_sets)(motifs, graph)
        parts = component_member_unions(sets, scheme.min_overlap)
        return PartitionedSet._make(graph.vertices, frozenset(parts))
    if isinstance(scheme, SharedEdgeScheme):
        return _shared_edge_parts(scheme.motif, graph)
    if isinstance(scheme, ComponentScheme):
        if not graph.is_simple():
            raise ValueError("the component scheme requires a simple graph")
        parts = component_member_unions(graph.edge_sets(), 1)
        return PartitionedSet._make(graph.vertices, frozenset(parts))
    if isinstance(scheme, ToyScheme):
        return _TOY_IMPL[scheme.rule](graph)
    raise ValueError(f"not a scheme: {scheme!r}")


def _motif_entry_to_json(entry):
    if isinstance(entry, Hypergraph):
        return hypergraph_to_json(entry)
    return entry


def _motif_entry_from_json(entry):
    if isinstance(entry, str):
        if entry in (SPANNING_FAMILY, TAILED_TRIANGLE_FAMILY):
            return entry
        return build_named(entry)
    return valid_hypergraph_from_json(entry, "scheme motif")


def scheme_to_json(scheme):
    if isinstance(scheme, MotifScheme):
        return {
            "kind": "representable",
            "motifs": [_motif_entry_to_json(m) for m in scheme.motifs],
            "k": threshold_to_json(scheme.min_overlap),
        }
    if isinstance(scheme, SharedEdgeScheme):
        return {"kind": "sigma", "motif": hypergraph_to_json(scheme.motif)}
    if isinstance(scheme, ComponentScheme):
        return {"kind": "classic"}
    if isinstance(scheme, ToyScheme):
        return {"kind": "toy", "id": scheme.rule}
    raise ValueError(f"not a scheme: {scheme!r}")


def scheme_from_json(data):
    """Read a scheme from :func:`scheme_to_json`'s form.  Inline motifs are
    validated as graph files are, and a missing key or a value of the wrong
    type is refused as malformed; every refusal is a ``ValueError``."""
    try:
        kind = data["kind"]
        if kind == "representable":
            motifs = tuple(_motif_entry_from_json(m) for m in data.get("motifs", []))
            return MotifScheme(motifs, parse_threshold(data.get("k", 1)))
        if kind == "sigma":
            motif = valid_hypergraph_from_json(data["motif"], "scheme motif")
            return SharedEdgeScheme(motif)
        if kind == "classic":
            return ComponentScheme()
        if kind == "toy":
            return ToyScheme(data["id"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scheme JSON: {exc}") from exc
    raise ValueError(f"unknown scheme kind: {kind!r}")


def scheme_label(scheme):
    """A short, stable human-readable tag for reports."""
    if isinstance(scheme, MotifScheme):
        names = []
        for m in scheme.motifs:
            if isinstance(m, Hypergraph):
                names.append(f"<{len(m.vertices)}v/{len(m.edges)}e>")
            else:
                names.append(m)
        k = threshold_to_json(scheme.min_overlap)
        return f"representable[{','.join(names)};k={k}]"
    if isinstance(scheme, SharedEdgeScheme):
        return "sigma"
    if isinstance(scheme, ComponentScheme):
        return "classic"
    if isinstance(scheme, ToyScheme):
        return f"toy:{scheme.rule}"
    return repr(scheme)
