import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperclust.graphs import (
    Hypergraph,
    build_named,
    complete_graph,
    corner_glued_pair,
    cycle,
    edge_glued_chain,
    fused_triples,
    fused_triples_host,
    linear_triangle,
    path,
    simplex,
    triangle_with_tail,
)
from hyperclust.components import INFINITE, has_full_part
from hyperclust.partitions import PartitionedSet
from hyperclust.schemes import (
    ComponentScheme,
    MotifScheme,
    SharedEdgeScheme,
    ToyScheme,
    cluster,
    materialize_motifs,
    scheme_from_json,
    scheme_label,
    scheme_to_json,
    shared_edge_graph,
    validate_shared_edge_motif,
)

import oracles
from oracles import disjoint_union
from test_components import thresholds
from test_graphs import hypergraphs, simple_graphs


def overlapping_triple_host():
    # 8 vertices; one triangle family through {v1,v2}, another through {v3,v4}
    names = [f"v{i}" for i in range(1, 9)]
    edges = {}
    for i in range(3, 9):
        edges[f"b{i}"] = ("v1", "v2", f"v{i}")
    for j in range(5, 8):
        edges[f"g{j}"] = ("v3", "v4", f"v{j}")
    return Hypergraph(names, edges)


class TestMotifScheme:
    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            MotifScheme(("K2",), 1)
        with pytest.raises(ValueError):
            MotifScheme((complete_graph(2),), 0)

    def test_accepts_family_markers(self):
        s = MotifScheme(("E*", "R*", complete_graph(2)), INFINITE)
        assert s.min_overlap == INFINITE

    def test_spanning_family_truncates_to_largest_edge(self):
        g = Hypergraph("abcd", {"e1": "ab", "e2": "bcd"})
        got = materialize_motifs(("E*",), g)
        assert got == [simplex(1), simplex(2), simplex(3)]
        assert materialize_motifs(("E*",), Hypergraph("ab")) == []

    def test_tailed_family_truncates_by_vertex_count(self):
        got = materialize_motifs(("R*",), complete_graph(5))
        assert [len(m.vertices) for m in got] == [3, 4, 5]
        assert materialize_motifs(("R*",), complete_graph(2)) == []

    def test_tailed_family_stops_at_its_first_member_with_no_embedding(self):
        assert materialize_motifs(("R*",), path(12)) == []
        assert materialize_motifs(("R*",), cycle(12)) == []
        assert materialize_motifs(("R*",), cycle(3)) == [triangle_with_tail(0)]
        # A triangle with a two-vertex tail and three isolated vertices.
        g = Hypergraph(triangle_with_tail(2).vertices + ("x", "y", "z"), triangle_with_tail(2).edges)
        assert materialize_motifs(("R*",), g) == [triangle_with_tail(i) for i in range(3)]

    @pytest.mark.parametrize("g", [path(8), cycle(3), cycle(8), complete_graph(5)],
                             ids=["P_8", "C_3", "C_8", "K_5"])
    @pytest.mark.parametrize("k", [1, 2, INFINITE])
    def test_truncated_tailed_family_clusters_like_the_full_family(self, g, k):
        full = tuple(triangle_with_tail(i) for i in range(len(g.vertices) - 2))
        assert cluster(MotifScheme(("R*",), k), g) == cluster(MotifScheme(full, k), g)

    def test_truncated_tailed_family_on_every_corpus_graph(self, corpus):
        for g in corpus.graphs:
            full = tuple(triangle_with_tail(i) for i in range(len(g.vertices) - 2))
            for k in (1, 2, INFINITE):
                assert cluster(MotifScheme(("R*",), k), g) == cluster(MotifScheme(full, k), g)

    def test_concrete_motifs_pass_through(self):
        d = linear_triangle()
        assert materialize_motifs((d,), complete_graph(2)) == [d]


class TestRepresentableCluster:
    @given(hypergraphs(), thresholds)
    @settings(max_examples=60, deadline=None)
    def test_spanning_family_recovers_plain_overlap_clustering(self, g, k):
        parts = cluster(MotifScheme(("E*",), k), g)
        assert parts.elements == g.vertices
        assert parts.parts == oracles.naive_overlap_parts(g, k)

    @given(simple_graphs())
    @settings(max_examples=60, deadline=None)
    def test_single_pair_motif_recovers_classic_components(self, g):
        rep = cluster(MotifScheme((complete_graph(2),), 1), g)
        assert rep == cluster(ComponentScheme(), g)

    def test_two_overlapping_cliques_split(self):
        g = overlapping_triple_host()
        parts = cluster(MotifScheme(("E*",), 2), g)
        assert parts.parts == frozenset(
            {
                frozenset(g.vertices),
                frozenset({"v3", "v4", "v5", "v6", "v7"}),
            }
        )

    def test_fused_triples_in_host_at_overlap_two(self):
        h6 = fused_triples_host()
        parts = cluster(MotifScheme((simplex(3),), 2), h6)
        assert parts.parts == frozenset(
            {
                frozenset({"v1", "v2", "v3", "v4"}),
                frozenset({"v3", "v4", "v5", "v6"}),
            }
        )

    def test_adding_the_fused_pair_motif_merges_the_host(self):
        h6 = fused_triples_host()
        parts = cluster(MotifScheme((simplex(3), fused_triples()), 2), h6)
        assert frozenset(h6.vertices) in parts.parts

    def test_linear_triangle_motif_spans_corner_pair_at_low_overlap(self):
        corner = corner_glued_pair(linear_triangle())
        for k in (1, 2, 3):
            parts = cluster(MotifScheme((linear_triangle(),), k), corner)
            assert frozenset(corner.vertices) in parts.parts

    @given(hypergraphs(), thresholds)
    @settings(max_examples=40, deadline=None)
    def test_underlying_set_is_always_the_vertex_set(self, g, k):
        assert cluster(MotifScheme(("E*",), k), g).elements == g.vertices


SHARED_EDGE_MOTIFS = {
    "linear_triangle": linear_triangle(),
    "K_3": complete_graph(3),
    "P_3": path(3),
    "P_3 doubled": Hypergraph("abc", {"e1": "ab", "e2": "ab", "e3": "bc"}),
    # A one-vertex edge's label is a one-element set.
    "P_3 with a loop": Hypergraph("abc", {"e1": "ab", "e2": "bc", "e3": "b"}),
}


class TestSharedEdgeScheme:
    def test_copy_graph_of_corner_pair_has_no_edges(self):
        d = linear_triangle()
        line = shared_edge_graph(d, corner_glued_pair(d))
        assert len(line.graph.vertices) == 2
        assert line.graph.edges == {}

    def test_copy_graph_labels_collect_edge_images(self):
        d = linear_triangle()
        line = shared_edge_graph(d, d)
        (name,) = line.graph.vertices
        assert line.members[name] == frozenset(d.vertices)
        assert line.labels[name] == d.edge_sets()

    def test_edge_glued_pair_is_one_part(self):
        d = linear_triangle()
        f1 = edge_glued_chain(d, 1)
        parts = cluster(SharedEdgeScheme(d), f1)
        assert parts.parts == frozenset({frozenset(f1.vertices)})

    def test_corner_pair_splits_into_the_two_copies(self):
        d = linear_triangle()
        corner = corner_glued_pair(d)
        parts = cluster(SharedEdgeScheme(d), corner)
        assert len(parts.parts) == 2
        assert all(len(p) == 6 for p in parts.parts)

    def test_no_copies_means_no_parts(self):
        parts = cluster(SharedEdgeScheme(linear_triangle()), simplex(3))
        assert parts.parts == frozenset()
        assert parts.elements == simplex(3).vertices

    def test_motif_expansion_of_corner_pair_is_tightly_connected(self):
        d = linear_triangle()
        corner = corner_glued_pair(d)
        assert has_full_part(corner.vertices, cluster(MotifScheme((d,), 3), corner).parts)

    def test_validation_accepts_default_motif(self):
        assert validate_shared_edge_motif(linear_triangle()).ok

    def test_validation_needs_three_edges(self):
        report = validate_shared_edge_motif(simplex(3))
        assert not report.ok
        assert "3 edges" in report.violations[0]

    def test_validation_rejects_triangle(self):
        report = validate_shared_edge_motif(complete_graph(3))
        assert not report.ok

    @pytest.mark.parametrize("motif", SHARED_EDGE_MOTIFS.values(), ids=SHARED_EDGE_MOTIFS)
    @given(
        g=st.one_of(
            simple_graphs(), hypergraphs(max_vertices=6, max_edges=8, max_edge_size=3)
        )
    )
    # two triangles sharing one vertex but no edge
    @example(g=Hypergraph("abcde", dict(zip("pqrstu", ["ab", "bc", "ac", "cd", "de", "ce"]))))
    @example(g=linear_triangle())
    @example(g=corner_glued_pair(linear_triangle()))
    @example(g=edge_glued_chain(linear_triangle(), 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_oracle(self, motif, g):
        parts = cluster(SharedEdgeScheme(motif), g).parts
        assert parts == oracles.naive_shared_edge_parts(motif, g)

    @pytest.mark.parametrize("motif", SHARED_EDGE_MOTIFS.values(), ids=SHARED_EDGE_MOTIFS)
    @pytest.mark.parametrize(
        "g",
        [complete_graph(4), cycle(5), linear_triangle(), corner_glued_pair(linear_triangle()),
         edge_glued_chain(linear_triangle(), 2),
         Hypergraph("abcde", {"p": "ab", "q": "ab", "r": "bc", "s": "ac", "t": "cde"}),
         # Names longer than one character, so a name is not its own set.
         Hypergraph(["v1", "v2", "v3", "v4"], {
             "p": ("v1", "v2"), "q": ("v2", "v3"), "r": ("v3", "v4"), "s": ("v2",), "t": ("v3",)
         })],
        ids=["K_4", "C_5", "D", "corner", "F_2", "mixed", "loops"],
    )
    def test_labels_match_naive_oracle(self, motif, g):
        # Images reached by several cosets (P_3 in K_3 has three) must
        # collect the edge images of all of them.
        line = shared_edge_graph(motif, g)
        labels = {line.members[name]: label for name, label in line.labels.items()}
        assert labels == oracles.naive_shared_edge_labels(motif, g)


class TestComponentScheme:
    def test_isolated_vertices_get_no_part(self):
        g = Hypergraph("abc", {"e1": "ab"})
        parts = cluster(ComponentScheme(), g)
        assert parts.parts == frozenset({frozenset("ab")})
        assert parts.elements == ("a", "b", "c")

    def test_requires_simple_graph(self):
        with pytest.raises(ValueError):
            cluster(ComponentScheme(), simplex(3))

    @given(simple_graphs())
    @settings(max_examples=40)
    def test_matches_overlap_clustering_at_one(self, g):
        assert cluster(ComponentScheme(), g) == cluster(MotifScheme(("E*",), 1), g)

    @given(simple_graphs())
    @settings(max_examples=60)
    def test_matches_networkx(self, g):
        parts = cluster(ComponentScheme(), g).parts
        assert parts == {c for c in oracles.nx_component_sets(g) if len(c) >= 2}


class TestToys:
    def test_rule_names_are_validated(self):
        with pytest.raises(ValueError, match="unknown toy rule: 'mystery'"):
            ToyScheme("mystery")

    def test_one_part_except_pair(self):
        s = ToyScheme("always_one_part_except_K2")
        assert cluster(s, complete_graph(2)).parts == frozenset(
            {frozenset({"v1"}), frozenset({"v2"})}
        )
        assert cluster(s, complete_graph(3)).parts == frozenset(
            {frozenset({"v1", "v2", "v3"})}
        )
        two = disjoint_union(complete_graph(2), complete_graph(2))
        assert cluster(s, two).parts == frozenset({frozenset(two.vertices)})

    def test_one_part_rule_sees_parallel_pair_as_bigger_graph(self):
        parallel = Hypergraph("ab", {"e1": "ab", "e2": "ab"})
        s = ToyScheme("always_one_part_except_K2")
        assert cluster(s, parallel).parts == frozenset({frozenset("ab")})

    def test_component_rule(self):
        s = ToyScheme("component_rule")
        assert cluster(s, simplex(3)).parts == frozenset(
            {frozenset({"v1", "v2", "v3"})}
        )
        two = disjoint_union(complete_graph(2), complete_graph(2))
        assert len(cluster(s, two).parts) == 2
        assert cluster(s, complete_graph(2)).parts == frozenset(
            {frozenset({"v1"}), frozenset({"v2"})}
        )

    def test_component_rule_on_parallel_pair(self):
        parallel = Hypergraph("ab", {"e1": "ab", "e2": "ab"})
        parts = cluster(ToyScheme("component_rule"), parallel)
        assert parts.parts == frozenset({frozenset({"a"}), frozenset({"b"})})

    def test_noprops(self):
        s = ToyScheme("noprops")
        assert cluster(s, complete_graph(2)).parts == frozenset(
            {frozenset({"v1"}), frozenset({"v2"})}
        )
        two = disjoint_union(complete_graph(2), complete_graph(2))
        assert len(cluster(s, two).parts) == 2
        assert cluster(s, complete_graph(3)).parts == frozenset(
            {frozenset({"v1", "v2", "v3"})}
        )
        assert len(cluster(s, cycle(5)).parts) == 1

    def test_cluster_rejects_non_schemes(self):
        with pytest.raises(ValueError):
            cluster(object(), complete_graph(2))


class TestSchemeJson:
    @pytest.mark.parametrize("scheme", [
        MotifScheme((complete_graph(2),), 1),
        MotifScheme(("E*",), INFINITE),
        MotifScheme(("R*", linear_triangle()), 3),
        SharedEdgeScheme(linear_triangle()),
        ComponentScheme(),
        ToyScheme("noprops"),
    ])
    def test_round_trip(self, scheme):
        assert scheme_from_json(scheme_to_json(scheme)) == scheme

    def test_builtin_names_are_accepted_in_motif_slots(self):
        s = scheme_from_json({"kind": "representable", "motifs": ["K_2", "E*"], "k": "inf"})
        assert s == MotifScheme((complete_graph(2), "E*"), INFINITE)

    def test_defaults(self):
        s = scheme_from_json({"kind": "representable"})
        assert s == MotifScheme((), 1)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            scheme_from_json({"kind": "quantum"})
        with pytest.raises(ValueError):
            scheme_from_json(["not", "a", "dict"])

    def test_labels_are_stable(self):
        assert scheme_label(MotifScheme(("E*",), 2)) == "representable[E*;k=2]"
        assert scheme_label(SharedEdgeScheme(linear_triangle())) == "sigma"
        assert scheme_label(ComponentScheme()) == "classic"
        assert scheme_label(ToyScheme("noprops")) == "toy:noprops"
        assert (
            scheme_label(MotifScheme((build_named("K3"), path(2)), INFINITE))
            == "representable[<3v/3e>,<2v/1e>;k=inf]"
        )
