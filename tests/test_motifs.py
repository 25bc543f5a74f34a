import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperclust.graphs import (
    Hypergraph,
    build_named,
    complete_graph,
    cycle,
    disjoint_union,
    linear_triangle,
    path,
    simplex,
    validate_graph_morphism,
)
from hyperclust import motifs
from hyperclust.motifs import (
    BudgetExceededError,
    acyclic_orientation_profile,
    embedding_count_bound,
    enumerate_embeddings,
    expansion_edge_sets,
    expansion_provenance,
    is_spanned,
    motif_expansion,
)
from hyperclust.schemes import MotifScheme, cluster

import oracles
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
}


def embedding_images(motif_list, graph):
    """Distinct embedding images of the motifs, from every embedding."""
    return {
        frozenset(emb.map.values())
        for motif in motif_list
        for emb in enumerate_embeddings(motif, graph)
    }


def transversal_product(motif):
    """|Aut(motif)| as the stabilizer chain of a freshly built plan has it."""
    plan = motifs._plan.__wrapped__(motif)
    size = math.prod(len(level) + 1 for level in plan.levels)
    assert size == plan.group_size
    return size


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
        # Ten nodes find seven representatives; P_3 has two automorphisms.
        assert err.value.found == 14

    def test_budget_counts_representative_nodes(self):
        # One representative per coset: the increasing placements of E_4's
        # vertices, 4 + 6 + 4 + 1 = 15 nodes, the fourth of them a leaf
        # standing for all 24 embeddings.
        assert len(enumerate_embeddings(simplex(4), simplex(4), budget=15)) == 24
        with pytest.raises(BudgetExceededError) as err:
            enumerate_embeddings(simplex(4), simplex(4), budget=14)
        assert err.value.found == 24

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

    def test_plans_are_shared_per_motif(self):
        assert motifs._plan(complete_graph(4)) is motifs._plan(complete_graph(4))


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

    def test_colliding_edge_ids_are_refused(self):
        # v1->p, v2->"q,v2:r" and v1->"p,v2:q", v2->r print the same id.
        g = Hypergraph(
            ["p", "r", "p,v2:q", "q,v2:r"],
            {"e1": ("p,v2:q", "r"), "e2": ("p", "q,v2:r")},
        )
        with pytest.raises(ValueError, match=re.escape("m0[v1:p,v2:q,v2:r]")):
            motif_expansion([complete_graph(2)], g)

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


class TestSpanned:
    def test_spanned(self):
        assert is_spanned(simplex(3))
        assert not is_spanned(path(3))
        assert not is_spanned(Hypergraph("ab"))


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

    def test_bound_dominates_on_small_hosts(self):
        for host in (complete_graph(5), cycle(6), disjoint_union(path(3), cycle(3))):
            from hyperclust.graphs import degeneracy

            d = degeneracy(host)[0]
            n = len(host.vertices)
            for motif in (complete_graph(2), path(3), complete_graph(3)):
                found = enumerate_embeddings(motif, host)
                assert len(found) <= embedding_count_bound(motif, d, n)
