import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperclust.graphs import (
    Hypergraph,
    complete_graph,
    cycle,
    path,
    simplex,
)
from hyperclust import components
from hyperclust.components import (
    INFINITE,
    _overlap_pairs,
    check_threshold,
    has_full_part,
    line_graph,
    parse_threshold,
    percolate,
    set_name,
    threshold_to_json,
)
from hyperclust.partitions import PartitionedSet, is_non_overlapping
from hyperclust.schemes import MotifScheme, cluster

import oracles
from oracles import disjoint_union
from test_graphs import COMMA_NAMES, hypergraphs

thresholds = st.sampled_from([1, 2, 3, INFINITE])
# Distinct edges whose members, joined by bare commas, both read "{a,b,c}".
NAME_CLASH = Hypergraph(["a", "b", "c", "a,b"], {"e1": ("a,b", "c"), "e2": "abc"})
# Names built from a separator, an escape and a plain letter.
SEPARATOR_NAMES = ["a", "b", ",", "a,b", "\\", "a\\", "\\,", ",\\"]
set_families = st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=5), max_size=8)
# Many sets over few elements, so most pairs share one or more of them.
crowded_families = st.lists(
    st.frozensets(st.sampled_from("abcd"), min_size=2, max_size=4), min_size=2, max_size=12
)
# Every family of at most four distinct nonempty subsets of a 4-element set.
SUBSETS = [frozenset(c) for n in range(1, 5) for c in itertools.combinations("abcd", n)]
SMALL_FAMILIES = [list(f) for n in range(5) for f in itertools.combinations(SUBSETS, n)]


def overlap_clustering(g, k):
    """The plain overlap clustering: the graph's own edge sets, percolated."""
    return cluster(MotifScheme(("E*",), k), g)


def overlap_connected(g, k):
    return has_full_part(g.vertices, overlap_clustering(g, k).parts)


def assert_percolates_like_oracle(sets, k):
    comps = percolate(sets, k)
    assert comps == oracles.reference_percolate(sets, k)
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

    def test_every_overlapping_pair_gets_its_own_edge(self):
        # Four sets that all share p.  Joined by "~", the names of the pairs
        # ({p,q}, {p,r}~{p,s}) and ({p,q}~{p,r}, {p,s}) read the same.
        g = Hypergraph(
            ["p", "q", "q}~{p", "r", "r}~{p", "s"],
            {"e1": "pq", "e2": ("p", "q}~{p", "r"), "e3": ("p", "r}~{p", "s"), "e4": "ps"},
        )
        line = line_graph(g, 1)
        assert line.graph.vertices == ("{p,q}", "{p,q}~{p,r}", "{p,r}~{p,s}", "{p,s}")
        pairs = set(line.graph.edges.values())
        assert pairs == set(map(frozenset, itertools.combinations(line.graph.vertices, 2)))


class TestFullPart:
    def test_spanned(self):
        for g, spanned in ((simplex(3), True), (path(3), False), (Hypergraph("ab"), False)):
            assert has_full_part(g.vertices, g.edge_sets()) is spanned


class TestSetName:
    def test_separators_are_escaped(self):
        assert set_name({"a,b", "c"}) == "{a\\,b,c}"
        assert set_name({"a\\", "b"}) == "{a\\\\,b}"

    @given(st.lists(st.frozensets(st.sampled_from(SEPARATOR_NAMES)), max_size=12))
    @example([frozenset({"a,b"}), frozenset("ab")])
    @example([frozenset({"a\\", ",b"}), frozenset({"a\\,", "b"})])
    def test_distinct_sets_get_distinct_names(self, family):
        names = {set_name(s): s for s in family}
        assert len(names) == len(set(family))


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

    def test_matches_reference_on_every_corpus_graph(self, corpus):
        for graph in corpus.graphs:
            sets = list(graph.edge_sets())
            for k in (1, 2, 3, 4, INFINITE):
                assert percolate(sets, k) == oracles.reference_percolate(sets, k)
                assert percolate(sets[::-1], k) == oracles.reference_percolate(sets[::-1], k)

    def test_keys_do_not_depend_on_iteration_order(self):
        # Two equal sets of pairwise incomparable frozensets that iterate in
        # different orders: sorted() leaves such members in iteration order,
        # so a sorted tuple would give one 2-subset two keys.
        labels = [frozenset({i}) for i in range(64)]
        a, b = next(
            (a, b) for a, b in itertools.combinations(labels, 2)
            if list(frozenset([a, b])) != list(frozenset([b, a]))
        )
        sets = [frozenset([a, b]), frozenset([b, a])]
        assert percolate(sets, 2) == [[0, 1]]
        # Members with no common order at all.
        assert percolate([frozenset({"a", 1, 2}), frozenset({1, 2, "b"})], 2) == [[0, 1]]

    def test_huge_k_subset_counts_fall_back_to_counting(self, monkeypatch):
        # Three 40-element sets that share 25 elements: at k = 20 each holds
        # C(40, 20) ~ 1.4e11 k-subsets, against 40 * 2 holder entries to count.
        shared = [f"s{i:02d}" for i in range(25)]
        sets = [frozenset(shared + [f"{c}{i:02d}" for i in range(15)]) for c in "xyz"]
        assert math.comb(40, 20) > 10**11
        enumerated = []

        def bounded(items, r):
            enumerated.append(math.comb(len(items), r))
            assert enumerated[-1] <= 1000
            return itertools.combinations(items, r)

        monkeypatch.setattr(components, "combinations", bounded)
        for family in (sets, [frozenset(shared[:20])] + sets):
            for k in (20, 25, 26):
                assert percolate(family, k) == oracles.reference_percolate(family, k)
        assert percolate(sets, 20) == [[0, 1, 2]]
        assert percolate(sets, 26) == [[0], [1], [2]]
        # Only the 20-set at k = 20 was walked, for its one key, before the
        # first 40-set sent the call to counting.
        assert enumerated == [1]


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
        at2 = overlap_clustering(g, 2)
        assert at2.parts == frozenset(
            {
                frozenset({"v1", "v2", "a", "b", "c"}),
                frozenset({"a", "b", "c"}),
            }
        )
        assert not is_non_overlapping(at2)
        at1 = overlap_clustering(g, 1)
        assert at1.parts == frozenset({frozenset({"v1", "v2", "a", "b", "c"})})

    def test_uncovered_vertices_join_no_part(self):
        g = Hypergraph("abc", {"e1": "ab"})
        parts = overlap_clustering(g, 1)
        assert parts.elements == ("a", "b", "c")
        assert parts.parts == frozenset({frozenset("ab")})

    def test_edgeless_graph_has_no_parts(self):
        assert overlap_clustering(Hypergraph("ab"), 1).parts == frozenset()

    @given(hypergraphs(pool=COMMA_NAMES), thresholds)
    @example(NAME_CLASH, 1)
    @example(NAME_CLASH, INFINITE)
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_oracle(self, g, k):
        assert overlap_clustering(g, k).parts == oracles.naive_overlap_parts(g, k)

    @given(hypergraphs(), thresholds)
    @settings(max_examples=60, deadline=None)
    def test_parts_are_unions_of_edge_sets(self, g, k):
        sets = g.edge_sets()
        for part in overlap_clustering(g, k).parts:
            covered = frozenset().union(*(s for s in sets if s <= part)) if sets else frozenset()
            assert covered == part

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_threshold_one_is_non_overlapping(self, g):
        assert is_non_overlapping(overlap_clustering(g, 1))

    @given(hypergraphs(pool=COMMA_NAMES))
    @example(NAME_CLASH)
    @settings(max_examples=60, deadline=None)
    def test_infinite_threshold_is_edge_set_parts(self, g):
        assert overlap_clustering(g, INFINITE) == PartitionedSet(g.vertices, g.edge_sets())


class TestOverlapConnected:
    def test_spanning_edge_connects_at_any_threshold(self):
        assert overlap_connected(simplex(4), 3)
        assert overlap_connected(simplex(4), INFINITE)

    def test_triangle_is_2_connected_but_not_3(self):
        assert overlap_connected(complete_graph(3), 1)
        assert not overlap_connected(complete_graph(3), 2)

    def test_thresholds_on_a_cycle(self):
        assert overlap_connected(cycle(4), 1)
        assert not overlap_connected(cycle(4), 2)

    def test_empty_and_edgeless(self):
        assert not overlap_connected(Hypergraph([]), 1)
        assert not overlap_connected(Hypergraph("ab"), 1)

    def test_disjoint_union_disconnects(self):
        assert not overlap_connected(disjoint_union(simplex(2), simplex(2)), 1)
