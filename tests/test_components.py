import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperclust.graphs import (
    Hypergraph,
    complete_graph,
    cycle,
    disjoint_union,
    path,
    simplex,
)
from hyperclust.components import (
    INFINITE,
    _overlap_pairs,
    check_threshold,
    connected_components,
    edge_set_parts,
    is_overlap_connected,
    line_graph,
    overlap_components,
    parse_threshold,
    percolate,
    set_name,
    threshold_to_json,
)
from hyperclust.partitions import PartitionedSet, is_non_overlapping

import oracles
from test_graphs import COMMA_NAMES, hypergraphs, simple_graphs

thresholds = st.sampled_from([1, 2, 3, INFINITE])
# Distinct edges that set_name maps to the same "{a,b,c}".
NAME_CLASH = Hypergraph(["a", "b", "c", "a,b"], {"e1": ("a,b", "c"), "e2": "abc"})
set_families = st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=5), max_size=8)
# Many sets over few elements, so most pairs share one or more of them.
crowded_families = st.lists(
    st.frozensets(st.sampled_from("abcd"), min_size=2, max_size=4), min_size=2, max_size=12
)
# Every family of at most four distinct nonempty subsets of a 4-element set.
SUBSETS = [frozenset(c) for n in range(1, 5) for c in itertools.combinations("abcd", n)]
SMALL_FAMILIES = [list(f) for n in range(5) for f in itertools.combinations(SUBSETS, n)]


def assert_percolates_like_oracle(sets, k):
    comps = percolate(sets, k)
    assert sorted(i for comp in comps for i in comp) == list(range(len(sets)))
    unions = {frozenset().union(*(sets[i] for i in comp)) for comp in comps}
    assert unions == oracles.naive_overlap_parts(sets, k)
    if k != INFINITE:
        pairs = list(_overlap_pairs(sets, k))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {
            (j, i)
            for i in range(len(sets))
            for j in range(i)
            if len(sets[i] & sets[j]) >= k
        }


class TestThreshold:
    def test_accepts_positive_ints_and_infinity(self):
        assert check_threshold(1) == 1
        assert check_threshold(INFINITE) == INFINITE

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            check_threshold(bad)

    @pytest.mark.parametrize("text,value", [
        ("2", 2),
        ("inf", INFINITE),
        ("Infinity", INFINITE),
        ("oo", INFINITE),
        (4, 4),
    ])
    def test_parse(self, text, value):
        assert parse_threshold(text) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_threshold("many")

    def test_json_form(self):
        assert threshold_to_json(3) == 3
        assert threshold_to_json(INFINITE) == "inf"


class TestLineGraph:
    def test_vertices_are_distinct_edge_sets(self):
        g = Hypergraph("ab", {"e1": "ab", "e2": "ab"})
        line = line_graph(g, 1)
        assert set(line.graph.vertices) == {set_name({"a", "b"})}
        assert line.members[set_name({"a", "b"})] == frozenset("ab")

    def test_adjacency_needs_k_shared_vertices(self):
        g = Hypergraph("abcd", {"e1": "abc", "e2": "bcd", "e3": "ad"})
        assert len(line_graph(g, 1).graph.edges) == 3
        assert len(line_graph(g, 2).graph.edges) == 1
        assert len(line_graph(g, 3).graph.edges) == 0

    def test_infinite_threshold_is_edgeless(self):
        g = complete_graph(4)
        line = line_graph(g, INFINITE)
        assert line.graph.edges == {}
        assert len(line.graph.vertices) == 6

    def test_classical_line_graph_on_simple_input(self):
        line = line_graph(path(3), 1)
        assert len(line.graph.vertices) == 2
        assert len(line.graph.edges) == 1


class TestPercolate:
    def test_threshold_picks_the_relation(self):
        sets = [frozenset("abc"), frozenset("bcd"), frozenset("de"), frozenset()]
        assert sorted(percolate(sets, 1)) == [[0, 1, 2], [3]]
        assert sorted(percolate(sets, 2)) == [[0, 1], [2], [3]]
        assert sorted(percolate(sets, INFINITE)) == [[0], [1], [2], [3]]

    @given(set_families, thresholds)
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_oracle(self, sets, k):
        assert_percolates_like_oracle(sets, k)

    def test_matches_naive_oracle_on_every_small_family(self):
        assert len(SMALL_FAMILIES) == 1941
        for sets in SMALL_FAMILIES:
            for k in (1, 2, 3, 4, INFINITE):
                assert_percolates_like_oracle(sets, k)
                assert_percolates_like_oracle(sets[::-1], k)

    @given(crowded_families, st.sampled_from([1, 2, 3, 4, INFINITE]))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_oracle_when_sets_crowd(self, sets, k):
        assert_percolates_like_oracle(sets, k)


class TestComponents:
    def test_isolated_vertices_are_singletons(self):
        g = Hypergraph("abc", {"e1": "ab"})
        comps = connected_components(g)
        assert comps.parts == frozenset({frozenset("ab"), frozenset("c")})

    def test_simple_only(self):
        with pytest.raises(ValueError):
            connected_components(simplex(3))

    @given(simple_graphs())
    @settings(max_examples=60)
    def test_matches_networkx(self, g):
        assert connected_components(g).parts == oracles.nx_component_sets(g)


class TestOverlapComponents:
    def test_worked_figure_example(self):
        # four edges: three triangles sharing the pair {v1,v2}, plus {a,b,c};
        # at threshold 2 the triangles chain up while {a,b,c} only meets them
        # at threshold 1 via single shared vertices
        g = Hypergraph(
            ["v1", "v2", "a", "b", "c"],
            {
                "e1": ("v1", "v2", "a"),
                "e2": ("v1", "v2", "b"),
                "e3": ("v1", "v2", "c"),
                "e4": ("a", "b", "c"),
            },
        )
        at2 = overlap_components(g, 2)
        assert at2.parts == frozenset(
            {
                frozenset({"v1", "v2", "a", "b", "c"}),
                frozenset({"a", "b", "c"}),
            }
        )
        assert not is_non_overlapping(at2)
        at1 = overlap_components(g, 1)
        assert at1.parts == frozenset({frozenset({"v1", "v2", "a", "b", "c"})})

    def test_uncovered_vertices_join_no_part(self):
        g = Hypergraph("abc", {"e1": "ab"})
        parts = overlap_components(g, 1)
        assert parts.elements == ("a", "b", "c")
        assert parts.parts == frozenset({frozenset("ab")})

    def test_edgeless_graph_has_no_parts(self):
        assert overlap_components(Hypergraph("ab"), 1).parts == frozenset()

    @given(hypergraphs(pool=COMMA_NAMES), thresholds)
    @example(NAME_CLASH, 1)
    @example(NAME_CLASH, INFINITE)
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_oracle(self, g, k):
        assert overlap_components(g, k).parts == oracles.naive_overlap_parts(g, k)

    @given(hypergraphs(), thresholds)
    @settings(max_examples=60, deadline=None)
    def test_parts_are_unions_of_edge_sets(self, g, k):
        sets = g.edge_sets()
        for part in overlap_components(g, k).parts:
            covered = frozenset().union(*(s for s in sets if s <= part)) if sets else frozenset()
            assert covered == part

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_threshold_one_is_non_overlapping(self, g):
        assert is_non_overlapping(overlap_components(g, 1))

    @given(hypergraphs(pool=COMMA_NAMES))
    @example(NAME_CLASH)
    @settings(max_examples=60, deadline=None)
    def test_infinite_threshold_is_edge_set_parts(self, g):
        assert overlap_components(g, INFINITE) == edge_set_parts(g)


class TestOverlapConnected:
    def test_spanning_edge_connects_at_any_threshold(self):
        assert is_overlap_connected(simplex(4), 3)
        assert is_overlap_connected(simplex(4), INFINITE)

    def test_triangle_is_2_connected_but_not_3(self):
        assert is_overlap_connected(complete_graph(3), 1)
        assert not is_overlap_connected(complete_graph(3), 2)

    def test_thresholds_on_a_cycle(self):
        assert is_overlap_connected(cycle(4), 1)
        assert not is_overlap_connected(cycle(4), 2)

    def test_empty_and_edgeless(self):
        assert not is_overlap_connected(Hypergraph([]), 1)
        assert not is_overlap_connected(Hypergraph("ab"), 1)

    def test_disjoint_union_disconnects(self):
        assert not is_overlap_connected(disjoint_union(simplex(2), simplex(2)), 1)
