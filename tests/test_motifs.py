import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperclust import graphs
from hyperclust.graphs import (
    Hypergraph,
    build_named,
    complete_graph,
    cycle,
    independence_number,
    linear_triangle,
    path,
    random_degenerate_graph,
    restrict,
    simplex,
    triangle_with_tail,
    validate_graph_morphism,
)
from hyperclust import motifs
from hyperclust.cli import _bench_graph
from hyperclust.motifs import (
    BudgetExceededError,
    acyclic_orientation_profile,
    embedding_count_bound,
    enumerate_embeddings,
    expansion_edge_id,
    expansion_edge_sets,
    motif_expansion,
)
from hyperclust.schemes import MotifScheme, SharedEdgeScheme, cluster

import oracles
from oracles import disjoint_union, expansion_provenance
from test_graphs import hypergraphs, simple_graphs

# Motifs with large automorphism groups, and ones whose automorphisms are
# easy to get wrong: disconnected, with isolated vertices, with parallel
# edges.
SYMMETRIC_MOTIFS = {
    "E_2": simplex(2),
    "E_3": simplex(3),
    "E_4": simplex(4),
    "E_5": simplex(5),
    "K_4": complete_graph(4),
    "C_5": cycle(5),
    "D": linear_triangle(),
    "two disjoint edges": Hypergraph("abcd", {"e1": "ab", "e2": "cd"}),
    "isolated vertices": Hypergraph("abcd", {"e1": "ab"}),
    "parallel edges": Hypergraph("abc", {"e1": "ab", "e2": "ab", "e3": "bc"}),
    # The vertex placed first carries a one-vertex edge.
    "one-vertex edge": Hypergraph("abc", {"e1": "b", "e2": "ab", "e3": "bc"}),
    # All four triples of four vertices: the last vertex placed closes two
    # 3-edges over two placed vertices each.
    "all triples of four": Hypergraph(
        "abcd", {"e1": "abc", "e2": "abd", "e3": "acd", "e4": "bcd"}
    ),
}

# Targets of up to seven vertices that hold many copies of those motifs.
TARGETS = {
    "K_5": complete_graph(5),
    "E_5": simplex(5),
    "C_5": cycle(5),
    "D": linear_triangle(),
    "K_3 + K_4": disjoint_union(complete_graph(3), complete_graph(4)),
    "mixed": Hypergraph(
        "abcdefg",
        {
            "p1": "ab", "p2": "bc", "p3": "ac", "p4": "cd", "p5": "de",
            "t1": "abc", "t2": "cde", "t3": "aef", "t4": "bdf",
            "q1": "abcd", "q2": "defg", "f1": "abcde", "f2": "cdefg",
        },
    ),
}


# Simplices, with and without a parallel copy of their edge, which take the
# closed-form image path, and a list mixing one with a motif that searches.
IMAGE_MOTIF_LISTS = {
    **{f"E_{n}": [simplex(n)] for n in range(1, 7)},
    "E_3 doubled": [Hypergraph("abc", {"e1": "abc", "e2": "abc"})],
    "E_2 and K_3": [simplex(2), complete_graph(3)],
    # One distinct edge set that misses a vertex: not a simplex.
    "edge and a free vertex": [Hypergraph("abc", {"e1": "ab"})],
    "E_1, E_3 and an edge with a free vertex": [
        simplex(1), simplex(3), Hypergraph("abc", {"e1": "ab"})
    ],
}


def embedding_images(motif_list, graph):
    """Distinct embedding images of the motifs, from every embedding."""
    return {
        frozenset(emb.map.values())
        for motif in motif_list
        for emb in enumerate_embeddings(motif, graph)
    }


def group_size(plan):
    """|Aut(motif)| as the plan's stabilizer chain has it: the product of
    the transversal sizes, each level's moves plus the identity."""
    return math.prod(len(level) + 1 for level in plan.levels)


def transversal_product(motif):
    """|Aut(motif)| as the stabilizer chain of a freshly built plan has it."""
    return group_size(motifs._build_plan(motif))


class TestEnumerate:
    def test_edge_into_triangle(self):
        found = enumerate_embeddings(complete_graph(2), complete_graph(3))
        assert len(found) == 6
        for emb in found:
            assert validate_graph_morphism(emb).ok

    def test_single_edge_motif_hits_every_edge_set_once_per_ordering(self):
        g = Hypergraph("ab", {"e1": "ab", "e2": "ab"})
        found = enumerate_embeddings(simplex(2), g)
        # parallel copies give one edge set, so two embeddings, not four
        assert len(found) == 2

    def test_order_is_deterministic(self):
        a = enumerate_embeddings(path(3), cycle(5))
        b = enumerate_embeddings(path(3), cycle(5))
        assert [m.map for m in a] == [m.map for m in b]
        keys = [tuple(m.map[v] for v in sorted(m.source.vertices)) for m in a]
        assert keys == sorted(keys)

    def test_no_embedding_when_edge_sizes_missing(self):
        assert enumerate_embeddings(simplex(3), complete_graph(4)) == []

    def test_budget_trips(self):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_embeddings(path(3), complete_graph(6), budget=10)
        assert err.value.budget == 10
        assert str(err.value) == "embedding search exceeded its budget of 10 nodes"

    def test_budget_counts_representative_nodes(self):
        # One representative per coset: the increasing placements of E_4's
        # vertices, 4 + 6 + 4 + 1 = 15 nodes, the fourth of them a leaf
        # standing for all 24 embeddings.
        assert len(enumerate_embeddings(simplex(4), simplex(4), budget=15)) == 24
        with pytest.raises(BudgetExceededError) as err:
            enumerate_embeddings(simplex(4), simplex(4), budget=14)
        assert err.value.budget == 14

    @pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS)
    @pytest.mark.parametrize("motif", SYMMETRIC_MOTIFS.values(), ids=SYMMETRIC_MOTIFS)
    def test_symmetric_motifs_match_naive_oracle(self, motif, target):
        ours = [m.map for m in enumerate_embeddings(motif, target)]
        assert ours == oracles.naive_embeddings(motif, target)

    @given(st.sampled_from(sorted(SYMMETRIC_MOTIFS)),
           hypergraphs(max_vertices=7, max_edges=6, max_edge_size=5))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_motifs_match_naive_oracle_anywhere(self, name, graph):
        motif = SYMMETRIC_MOTIFS[name]
        ours = [m.map for m in enumerate_embeddings(motif, graph)]
        assert ours == oracles.naive_embeddings(motif, graph)

    @given(hypergraphs(max_vertices=3, max_edges=2, max_edge_size=3),
           hypergraphs(max_vertices=4, max_edges=3, max_edge_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, motif, graph):
        if not motif.vertices:
            return
        ours = [m.map for m in enumerate_embeddings(motif, graph)]
        naive = oracles.naive_embeddings(motif, graph)
        assert ours == naive


class TestHubGraph:
    """One hub joined to every vertex of a path on n vertices: degeneracy 2
    and 6(n - 1) triangle embeddings, so the search should do linear work.
    A search that filtered the hub's whole neighbourhood at every extension
    visits about n^2 / 2 nodes before its closing test."""

    @pytest.mark.parametrize(
        "motif, count", [(complete_graph(3), 6 * 999), (complete_graph(4), 0)],
        ids=["K_3", "K_4"],
    )
    def test_search_work_is_linear(self, motif, count):
        graph = _bench_graph("hub", 1000, 0, 0)
        found = enumerate_embeddings(motif, graph, budget=4 * len(graph.vertices))
        assert len(found) == count

    def test_the_hub_is_placed_first(self):
        graph = _bench_graph("hub", 10, 0, 0)
        assert graph.vertices[0] == "hub"
        assert len(graph.vertices) == 11 and len(graph.edges) == 19


class TestStabilizerChain:
    def test_chain_orders_every_small_corpus_graph(self, corpus):
        small = [g for g in corpus.graphs if len(g.vertices) <= 4]
        assert len(small) == 434
        for g in small:
            assert transversal_product(g) == len(oracles.naive_embeddings(g, g))

    @pytest.mark.parametrize(
        "motif, size",
        [(simplex(n), math.factorial(n)) for n in range(1, 8)]
        + [(cycle(6), 12), (linear_triangle(), 6), (simplex(12), math.factorial(12))],
        ids=[f"E_{n}" for n in range(1, 8)] + ["C_6", "D", "E_12"],
    )
    def test_chain_orders_named_motifs(self, motif, size):
        assert transversal_product(motif) == size

    def test_chain_never_calls_the_public_search(self, monkeypatch):
        # A tracer wraps the public function; the chain must not add calls.
        def refuse(*args, **kwargs):
            raise AssertionError("the chain went through enumerate_embeddings")

        monkeypatch.setattr(motifs, "enumerate_embeddings", refuse)
        assert transversal_product(simplex(6)) == 720
        assert transversal_product(cycle(6)) == 12

    @pytest.mark.parametrize(
        "motif, size",
        [(cycle(6), 12), (path(30), 2), (simplex(5), 120), (linear_triangle(), 6)],
        ids=["C_6", "P_30", "E_5", "D"],
    )
    def test_one_profile_build_per_chain(self, motif, size, monkeypatch):
        # The chain's pinned searches into the motif share one profile list.
        built = []

        def counting(plan, graph):
            built.append(graph)
            return real(plan, graph)

        real = motifs._profile
        monkeypatch.setattr(motifs, "_profile", counting)
        plan = motifs._build_plan(motif)
        assert built == [motif]
        assert group_size(plan) == size

    def test_plans_are_shared_per_motif(self):
        # The plan is kept on the motif object, and family members are
        # built once, so every use of a member shares its plan.
        k4 = complete_graph(4)
        assert motifs._plan(k4) is motifs._plan(k4)
        assert triangle_with_tail(2) is triangle_with_tail(2)
        assert motifs._plan(triangle_with_tail(2)) is triangle_with_tail(2)._plan

    def test_plans_survive_more_motifs_than_the_shared_cache_holds(self, monkeypatch):
        # 1,100 distinct motifs, more than a bounded cache of 1,024 slots
        # would hold: each plan is built once, on the first pass, and the
        # second pass rebuilds none.  Each motif is a path whose vertex
        # names no other test uses.
        built = []

        def counting(motif):
            built.append(motif)
            return real(motif)

        real = motifs._build_plan
        monkeypatch.setattr(motifs, "_build_plan", counting)
        paths = []
        for i in range(1100):
            a, b, c = f"t{i}a", f"t{i}b", f"t{i}c"
            paths.append(Hypergraph([a, b, c], {"x": (a, b), "y": (b, c)}))
        scheme = MotifScheme(tuple(paths), 1)
        graphs = [path(4), cycle(5), complete_graph(4)]
        first = [cluster(scheme, g) for g in graphs]
        assert len(built) == 1100
        assert [cluster(scheme, g) for g in graphs] == first
        assert len(built) == 1100
        assert len(set(map(id, built))) == 1100
        assert all(m._plan is not None for m in scheme.motifs)


def node_count(motif, graph):
    """The smallest budget under which the representative search of
    ``motif`` into ``graph`` finishes: the number of nodes it visits."""
    low, high = -1, 1
    while True:
        try:
            motifs._representatives(motif, graph, budget=high)
            break
        except BudgetExceededError:
            low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        try:
            motifs._representatives(motif, graph, budget=middle)
            high = middle
        except BudgetExceededError:
            low = middle
    return high


def assert_overruns(motif, graph, budget):
    """``budget`` is too small for the search of ``motif`` into ``graph``."""
    with pytest.raises(BudgetExceededError) as err:
        enumerate_embeddings(motif, graph, budget=budget)
    assert err.value.budget == budget


def fresh_copy(graph):
    return Hypergraph._make(graph.vertices, dict(graph.edges))


class TestSearchIndex:
    """The index a search reads is kept on the target graph: built on its
    first search, reused by every later one, and never shared with graphs
    made from it."""

    def test_one_graph_builds_its_incidence_once(self, monkeypatch):
        built = []

        class Counting(graphs.SearchIndex):
            def __init__(self, sets):
                built.append(sets)
                super().__init__(sets)

        monkeypatch.setattr(graphs, "SearchIndex", Counting)
        g = random_degenerate_graph(60, 4, random.Random(3))
        triangle = complete_graph(3)
        by_motif = cluster(MotifScheme((triangle,), 2), g)
        index = g._index
        assert isinstance(index, Counting)
        by_labels = cluster(SharedEdgeScheme(triangle), g)
        assert g._index is index
        assert built.count(g.edge_sets()) == 1
        assert by_motif.parts == by_labels.parts

    def test_restriction_and_copy_start_without_an_index(self):
        g = random_degenerate_graph(30, 3, random.Random(5))
        motifs._representatives(complete_graph(3), g)
        assert g._index is not None
        sub, _ = restrict(g, g.vertices[:20])
        copy = fresh_copy(g)
        assert sub._index is None and copy._index is None
        motifs._representatives(complete_graph(3), sub)
        motifs._representatives(complete_graph(3), copy)
        assert sub._index is not g._index and copy._index is not g._index
        assert copy._index.through == g._index.through

    # Nodes of the representative search, pinned so that a change to the
    # kernel's tables cannot move the point where a budget trips: one node
    # fewer overruns.
    @pytest.mark.parametrize(
        "target, motif, nodes",
        [
            ("hub", "K_3", 799),
            ("hub", "K_4", 791),
            ("hub", "P_3", 21495),
            ("hub", "C_4", 1392),
            ("random", "K_3", 404),
            ("random", "K_4", 290),
            ("random", "P_3", 1620),
            ("random", "C_4", 962),
        ],
    )
    def test_node_counts_are_pinned(self, target, motif, nodes):
        if target == "hub":
            graph = _bench_graph("hub", 200, 0, 0)
        else:
            graph = random_degenerate_graph(200, 3, random.Random(7))
        m = build_named(motif)
        assert node_count(m, graph) == nodes
        assert_overruns(m, graph, nodes - 1)

    @given(
        st.sampled_from(sorted(SYMMETRIC_MOTIFS)),
        st.sampled_from(sorted(SYMMETRIC_MOTIFS)),
        hypergraphs(max_vertices=7, max_edges=6, max_edge_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_shared_index_searches_like_a_fresh_one(self, first, second, graph):
        shared = fresh_copy(graph)
        for name in (first, second):
            motif = SYMMETRIC_MOTIFS[name]
            nodes = node_count(motif, fresh_copy(graph))
            assert motifs._representatives(
                motif, shared, budget=nodes
            ) == motifs._representatives(motif, fresh_copy(graph))
            if nodes:
                assert_overruns(motif, shared, nodes - 1)
                assert_overruns(motif, fresh_copy(graph), nodes - 1)

    def test_a_candidate_that_fails_the_profile_is_no_node(self):
        # The tailed triangle places its degree-3 corner c first, then a,
        # which must have degree 2.  Into a triangle x, y, z with a pendant
        # u on x, u closes the edge {c, a} but has degree 1.  Nodes: x; y,
        # z and u for a, of which u fails; z for b; u for d.  Only y
        # reaches a leaf, so five nodes finish and four overrun.
        motif = Hypergraph("abcd", {"e1": "ab", "e2": "bc", "e3": "ca", "e4": "cd"})
        target = Hypergraph("uxyz", {"f1": "xy", "f2": "xz", "f3": "xu", "f4": "yz"})
        assert motifs._representatives(motif, target, budget=5) == [("y", "z", "x", "u")]
        assert_overruns(motif, target, 4)


def outcome(search, plan, graph, lower, **options):
    """What one search returns, or the budget it overran."""
    try:
        return search(plan, graph, lower, **options)
    except BudgetExceededError as err:
        return ("over budget", err.budget)


def assert_searches_agree(plan, graph, lower, **options):
    compiled = outcome(motifs._search, plan, graph, lower, **options)
    assert compiled == outcome(oracles.reference_search, plan, graph, lower, **options)


def chain(plan):
    """A plan's stabilizer chain, each transversal element shown as what it
    does to the tuple 0, 1, ..."""
    identity = tuple(range(len(plan.order)))
    levels = [[move(identity) for move in level] for level in plan.levels]
    return plan.order, plan.lower, levels, group_size(plan)


def reference_chain(motif):
    """The stabilizer chain that the reference search builds for ``motif``."""
    with mock.patch.object(motifs, "_search", oracles.reference_search):
        return chain(motifs._build_plan(motif))


def kernel_sources(plan):
    """The source of every compiled variant a search with ``plan`` uses."""
    unconstrained = ((),) * len(plan.order)
    return [
        motifs._compile(plan.requests, lower, first, counted).source
        for lower in (plan.lower, unconstrained)
        for first in (False, True)
        for counted in (False, True)
    ]


# Vertex names that would break generated source if it quoted them.
HOSTILE_NAMES = ['q"uote', "it's", "back\\slash", "new\nline", "{brace}", "}{close", "'''", '"""']


class TestCompiledSearch:
    """The compiled kernel against the interpreted one it replaced,
    ``oracles.reference_search``: the same tuples in the same order, the
    same budget overruns and the same stabilizer chains."""

    def test_small_corpus_pairs_search_like_the_reference(self, corpus):
        small = [g for g in corpus.graphs if len(g.vertices) <= 4]
        pairs = list(itertools.permutations(small, 2))
        assert len(pairs) == 187922
        differ = []
        for motif, graph in pairs:
            plan = motifs._plan(motif)
            found = motifs._search(plan, graph, plan.lower)
            if found != oracles.reference_search(plan, graph, plan.lower):
                differ.append((corpus.graph_id(motif), corpus.graph_id(graph)))
        assert differ == []

    def test_small_corpus_chains_match_the_reference(self, corpus):
        small = [g for g in corpus.graphs if len(g.vertices) <= 4]
        assert len(small) == 434
        compiled = [chain(motifs._build_plan(g)) for g in small]
        assert compiled == [reference_chain(g) for g in small]

    @given(
        hypergraphs(max_vertices=5, max_edges=5, max_edge_size=4),
        hypergraphs(max_vertices=7, max_edges=8, max_edge_size=4),
        st.integers(0, 60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_hypergraphs_search_like_the_reference(self, motif, graph, budget, rng):
        plan = motifs._build_plan(motif)
        assert chain(plan) == reference_chain(motif)
        n = len(plan.order)
        unconstrained = ((),) * n
        # Order constraints no stabilizer chain gives: any earlier positions.
        scrambled = tuple(tuple(sorted(rng.sample(range(i), rng.randint(0, i)))) for i in range(n))
        pins = {
            i: rng.choice(graph.vertices)
            for i in range(n)
            if graph.vertices and rng.random() < 0.5
        }
        pinned = motifs._pinned(motifs._profile(plan, graph), pins)
        for lower in (plan.lower, unconstrained, scrambled):
            for first in (False, True):
                assert_searches_agree(plan, graph, lower, first=first)
                assert_searches_agree(plan, graph, lower, first=first, budget=budget)
                assert_searches_agree(plan, graph, lower, first=first, profile=pinned)
                assert_searches_agree(
                    plan, graph, lower, first=first, budget=budget, profile=pinned
                )

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_MOTIFS))
    def test_budgets_trip_where_the_reference_trips(self, name):
        motif = SYMMETRIC_MOTIFS[name]
        plan = motifs._plan(motif)
        rng = random.Random(name)
        targets = [
            _bench_graph("hub", 20, 0, 0),
            random_degenerate_graph(24, 3, random.Random(7)),
            TARGETS["mixed"],
        ]
        for graph in targets:
            nodes = node_count(motif, graph)
            budgets = {nodes - 1, nodes, *rng.sample(range(nodes + 1), min(nodes, 20))}
            for budget in sorted(budgets - {-1}):
                assert_searches_agree(plan, graph, plan.lower, budget=budget)
            if nodes:
                reference = outcome(
                    oracles.reference_search, plan, graph, plan.lower, budget=nodes - 1
                )
                assert reference == ("over budget", nodes - 1)
                assert_overruns(motif, graph, nodes - 1)

    def test_plans_past_the_nesting_limit_search_like_the_reference(self):
        # CPython nests at most 20 blocks in one function, so both motifs
        # need more than one generated block.
        names = [f"u{i:02}" for i in range(28)]
        # A path on 17 vertices, a triangle and 5 isolated vertices.
        scattered = Hypergraph(names[:25], {
            **{f"p{i}": names[i:i + 2] for i in range(16)},
            "t1": names[17:19], "t2": names[18:20], "t3": names[17:20:2],
        })
        # The same with a second triangle on three more vertices.
        crowded = Hypergraph(names, {
            **scattered.edges,
            "s1": names[25:27], "s2": names[26:28], "s3": names[25:28:2],
        })
        cases = [
            (path(30), [path(30), path(34), cycle(31), cycle(30)]),
            (scattered, [scattered, crowded]),
        ]
        for motif, targets in cases:
            plan = motifs._build_plan(motif)
            assert "_block1" in plan.kernel.source
            assert chain(plan) == reference_chain(motif)
            for graph in targets:
                found = motifs._search(plan, graph, plan.lower)
                assert found and found == oracles.reference_search(plan, graph, plan.lower)
                for budget in (0, len(found) // 2, len(found)):
                    assert_searches_agree(plan, graph, plan.lower, budget=budget)
                assert_searches_agree(plan, graph, plan.lower, first=True)
                pinned = motifs._pinned(
                    motifs._profile(plan, graph), {0: found[-1][0], 20: found[-1][20]}
                )
                assert_searches_agree(plan, graph, plan.lower, first=True, profile=pinned)
                assert_searches_agree(plan, graph, plan.lower, profile=pinned)

    def test_hostile_vertex_names_search_and_stay_out_of_the_source(self):
        a, b, c, d, e, f, g, h = HOSTILE_NAMES
        motif = Hypergraph([a, b, c, d, e], {
            "x1": (a, b), "x2": (b, c), "x3": (a, c), "x4": (c, d), "x5": (d, e, a),
        })
        graph = Hypergraph(HOSTILE_NAMES, {
            "y1": (a, b), "y2": (b, c), "y3": (a, c), "y4": (c, d), "y5": (d, e, a),
            "y6": (b, d), "y7": (a, d), "y8": (e, f), "y9": (f, g, h), "y10": (g, a, d),
            "y11": (c, e), "y12": (e, b, d), "y13": (b, e),
        })
        plan = motifs._build_plan(motif)
        assert chain(plan) == reference_chain(motif)
        found = motifs._search(plan, graph, plan.lower)
        assert found == oracles.reference_search(plan, graph, plan.lower)
        maps = [emb.map for emb in enumerate_embeddings(motif, graph)]
        assert maps and maps == oracles.naive_embeddings(motif, graph)
        for source in kernel_sources(plan):
            assert [name for name in HOSTILE_NAMES if name in source] == []
            # No string literal anywhere: the source holds no quote.
            assert "'" not in source and '"' not in source

    def test_plans_of_one_shape_share_one_compile(self):
        renamed = Hypergraph("wxyz", {
            f"f{i}": pair for i, pair in enumerate(("wx", "wy", "wz", "xy", "xz", "yz"))
        })
        first = motifs._build_plan(complete_graph(4))
        second = motifs._build_plan(renamed)
        assert first.kernel is second.kernel


class TestExpansion:
    def test_expansion_of_triangle_along_edge(self):
        expanded = motif_expansion([complete_graph(2)], complete_graph(3))
        assert expanded.vertices == complete_graph(3).vertices
        assert len(expanded.edges) == 6
        assert expanded.edge_sets() == complete_graph(3).edge_sets()

    def test_edge_ids_carry_provenance(self):
        expanded = motif_expansion([complete_graph(2), path(3)], path(3))
        for edge_id, members in expanded.edges.items():
            index, mapping = expansion_provenance(edge_id)
            assert index in (0, 1)
            assert frozenset(mapping.values()) == members

    def test_provenance_rejects_foreign_ids(self):
        with pytest.raises(ValueError):
            expansion_provenance("e1")

    def test_empty_motif_list_gives_edgeless_expansion(self):
        expanded = motif_expansion([], complete_graph(3))
        assert expanded.edges == {}
        assert expanded.vertices == complete_graph(3).vertices

    def test_vertexless_motif_rejected(self):
        with pytest.raises(ValueError):
            motif_expansion([Hypergraph([])], complete_graph(2))

    def test_names_are_not_motifs(self):
        with pytest.raises(ValueError):
            motif_expansion(["K2"], complete_graph(2))

    @pytest.mark.parametrize("names", [
        ["a,v2:b", "c", "a", "b,v2:c"],
        ["p", "r", "p,v2:q", "q,v2:r"],
        ["a\\", "b", "a", "\\b"],
    ])
    def test_names_with_separators_get_distinct_ids(self, names):
        # Unescaped, K_2's embeddings v1->x0, v2->x3 and v1->x2, v2->x1 of the
        # first two graphs print the same id, such as m0[v1:a,v2:b,v2:c]; the
        # third reads back only with its backslashes escaped.
        g = Hypergraph(names, {"e1": (names[0], names[1]), "e2": (names[2], names[3])})
        expanded = motif_expansion([complete_graph(2)], g)
        assert len(expanded.edges) == 4
        maps = sorted(sorted(expansion_provenance(eid)[1].items()) for eid in expanded.edges)
        assert maps == sorted(sorted(emb.map.items()) for emb in enumerate_embeddings(complete_graph(2), g))

    def test_plain_names_print_unescaped(self):
        assert expansion_edge_id(2, {"v2": "b", "v1": "a"}) == "m2[v1:a,v2:b]"
        assert expansion_edge_id(0, {"v1": "a,v2:b"}) == "m0[v1:a\\,v2\\:b]"

    def test_edge_sets_shortcut_agrees(self):
        motifs = [complete_graph(2), simplex(3)]
        g = linear_triangle()
        assert expansion_edge_sets(motifs, g) == motif_expansion(motifs, g).edge_sets()

    @pytest.mark.parametrize("motif_list", IMAGE_MOTIF_LISTS.values(), ids=IMAGE_MOTIF_LISTS)
    def test_images_match_the_embeddings_on_small_corpus_graphs(self, corpus, motif_list):
        small = [g for g in corpus.graphs if len(g.vertices) <= 4]
        assert len(small) == 434
        for g in small:
            assert expansion_edge_sets(motif_list, g) == embedding_images(motif_list, g)

    @given(st.sampled_from(sorted(IMAGE_MOTIF_LISTS)), hypergraphs())
    @settings(max_examples=80, deadline=None)
    def test_images_match_the_embeddings_anywhere(self, name, graph):
        found = expansion_edge_sets(IMAGE_MOTIF_LISTS[name], graph)
        assert found == embedding_images(IMAGE_MOTIF_LISTS[name], graph)

    def test_simplices_never_search(self, monkeypatch):
        # E_n's images are read off the target's n-edges; building the n!
        # embeddings of E_12 alone would take hours.
        def refuse(*args, **kwargs):
            raise AssertionError("a simplex went through enumerate_embeddings")

        monkeypatch.setattr(motifs, "enumerate_embeddings", refuse)
        rng = random.Random(8)
        names = [f"x{i}" for i in range(20)]
        mixed = {f"e{i}": rng.sample(names, 2 + i % 6) for i in range(60)}
        mixed["big"] = rng.sample(names, 8)
        for g in (build_named("E_12"), build_named("H_6"), Hypergraph(names, mixed)):
            for k in (1, 2):
                parts = cluster(MotifScheme(("E*",), k), g).parts
                assert parts == oracles.naive_overlap_parts(g, k)

    def test_single_edge_family_recovers_edge_sets(self):
        # expanding along one all-vertex edge of every present size keeps
        # exactly the distinct edge sets of the input
        g = Hypergraph("abcd", {"e1": "ab", "e2": "ab", "e3": "bcd"})
        motifs = [simplex(2), simplex(3)]
        assert expansion_edge_sets(motifs, g) == g.edge_sets()


class TestOrientationProfile:
    def test_frozen_small_profiles(self):
        assert acyclic_orientation_profile(complete_graph(2)) == {1: 2}
        assert acyclic_orientation_profile(path(3)) == {1: 3, 2: 1}
        assert acyclic_orientation_profile(complete_graph(3)) == {1: 6}

    def test_isolated_vertices_are_always_sinks(self):
        g = Hypergraph("abc", {"e1": "ab"})
        assert acyclic_orientation_profile(g) == {2: 2}

    def test_simple_only(self):
        with pytest.raises(ValueError):
            acyclic_orientation_profile(simplex(3))

    @given(simple_graphs(max_vertices=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_oracle(self, g):
        assert acyclic_orientation_profile(g) == oracles.naive_acyclic_profile(g)


class TestCountBound:
    def test_frozen_values(self):
        assert embedding_count_bound(complete_graph(2), 1, 10) == 20
        assert embedding_count_bound(complete_graph(3), 2, 10) == 240
        assert embedding_count_bound(path(3), 1, 10) == 130
        # 22 vertices, more than independence_number searches, but one edge,
        # so two orientations, each with 21 sinks.
        names = [f"x{i:02}" for i in range(22)]
        motif = Hypergraph(names, {"e": names[:2]})
        assert embedding_count_bound(motif, 3, 10) == 2 * 3 * 10**21

    @given(simple_graphs(max_vertices=8, max_edges=12))
    @settings(max_examples=60, deadline=None)
    def test_most_sinks_is_the_independence_number(self, g):
        # The bound's exponent: no orientation sinks more than an
        # independent set, and some orientation sinks a largest one.
        assert max(acyclic_orientation_profile(g)) == independence_number(g)

    def test_bound_dominates_on_small_hosts(self):
        for host in (complete_graph(5), cycle(6), disjoint_union(path(3), cycle(3))):
            from hyperclust.graphs import degeneracy

            d = degeneracy(host)[0]
            n = len(host.vertices)
            for motif in (complete_graph(2), path(3), complete_graph(3)):
                found = enumerate_embeddings(motif, host)
                assert len(found) <= embedding_count_bound(motif, d, n)
