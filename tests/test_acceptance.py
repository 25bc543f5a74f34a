"""The acceptance battery.

One test per shipped claim, each printing a single PASS or FAIL line (visible
under ``pytest -s``); the test names carry the same numbering.  Everything
here runs against the default corpus plus explicitly constructed graphs;
nothing is mocked and no tolerance is looser than stated in the docstrings.
"""

import contextlib
import itertools
import random

import pytest

from hyperclust.checks import (
    ClusterCache,
    SearchBounds,
    check_excisive,
    check_functorial,
    check_refines,
    connected_hull_check,
    finite_rep_witness,
    hull_check,
    search_equal_parts_example,
    validate_equal_parts_witness,
)
from hyperclust.cli import main
from hyperclust.components import (
    INFINITE,
    edge_set_parts,
    is_overlap_connected,
    overlap_components,
    set_name,
)
from hyperclust.graphs import (
    Hypergraph,
    complete_graph,
    corner_glued_pair,
    degeneracy,
    edge_glued_chain,
    fused_triples,
    fused_triples_host,
    iso_check,
    linear_triangle,
    path,
    random_degenerate_graph,
    simplex,
    triangle_with_tail,
)
from hyperclust.motifs import (
    embedding_count_bound,
    enumerate_embeddings,
    expansion_edge_sets,
)
from hyperclust.partitions import (
    PartitionMorphism,
    PartitionedSet,
    is_non_overlapping,
    part_union,
    remove_spurious,
    validate_partition_morphism,
)
from hyperclust.schemes import (
    ComponentScheme,
    MotifScheme,
    SharedEdgeScheme,
    ToyScheme,
    cluster,
    validate_shared_edge_motif,
)

import oracles


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    print(f"criterion {number:02d} {label}: PASS")


def overlap_morphism_example():
    names = [f"v{i}" for i in range(1, 9)]
    blue = {f"b{i}": ("v1", "v2", f"v{i}") for i in range(3, 9)}
    green = {f"g{j}": ("v3", "v4", f"v{j}") for j in range(5, 8)}
    g = Hypergraph(names, {**blue, **green})
    h = Hypergraph(
        names,
        {**blue, **green, "red": ("v1", "v2", "v3", "v4"),
         "orange": ("v5", "v6", "v7", "v8")},
    )
    return g, h


def test_01_overlap_clustering_of_the_morphism_example():
    """Two overlapping triangle families, then a supergraph that merges one
    family and isolates a fresh part; identity is a partition morphism."""
    with criterion(1, "overlapping parts and the surprising morphism"):
        g, h = overlap_morphism_example()
        full = frozenset(g.vertices)
        g_parts = overlap_components(g, 2)
        h_parts = overlap_components(h, 2)
        assert g_parts.parts == frozenset(
            {full, frozenset({"v3", "v4", "v5", "v6", "v7"})}
        )
        assert h_parts.parts == frozenset(
            {full, frozenset({"v5", "v6", "v7", "v8"})}
        )
        identity = PartitionMorphism(
            g_parts, h_parts, {v: v for v in g.vertices}
        )
        assert validate_partition_morphism(identity).ok


def test_02_limit_threshold_equals_edge_set_parts(corpus):
    """At threshold infinity the clustering is literally the distinct edge
    vertex sets, on every corpus hypergraph."""
    with criterion(2, "limit threshold keeps edge sets apart"):
        for graph in corpus.graphs:
            assert overlap_components(graph, INFINITE) == edge_set_parts(graph)


def test_03_threshold_one_collapse(corpus):
    """Threshold 1 never overlaps, and on simple graphs it is classic
    connected components minus isolated singletons."""
    with criterion(3, "threshold-1 collapse to classic components"):
        classic = ComponentScheme()
        for graph in corpus.graphs:
            assert is_non_overlapping(overlap_components(graph, 1))
        for graph in filter(Hypergraph.is_simple, corpus.graphs):
            assert overlap_components(graph, 1) == cluster(classic, graph)


def test_04_grid_of_excisive_and_functorial_checks(corpus):
    """The two scheme axioms hold for four motif sets at four thresholds."""
    with criterion(4, "axiom grid over the exhaustive corpus"):
        motifs = {
            "K_2": complete_graph(2),
            "E_3": simplex(3),
            "K_3": complete_graph(3),
            "D": linear_triangle(),
        }
        for name, motif in motifs.items():
            cache = ClusterCache()
            for k in (1, 2, 3, INFINITE):
                scheme = MotifScheme((motif,), k)
                excisive = check_excisive(scheme, corpus, cache)
                functorial = check_functorial(scheme, corpus, cache)
                assert excisive.passed, (name, k, excisive.counterexamples[:1])
                assert functorial.passed, (name, k, functorial.counterexamples[:1])


def test_05_hull_lemmas_and_the_threshold_two_counterexample(corpus):
    """Adjoining a graph to a motif set is a no-op exactly when its expansion
    is spanned; the scheme-level analogue is one-directional above
    threshold 1, witnessed by the fused-triples host."""
    with criterion(5, "hull characterization and its k=2 failure"):
        e3 = simplex(3)
        spanned = hull_check((e3,), e3, corpus)
        assert spanned.passed
        assert spanned.statistics["spanned"]
        assert spanned.statistics["edge_sets_equal"]

        unspanned = hull_check((complete_graph(2),), path(3), corpus)
        assert unspanned.passed
        assert not unspanned.statistics["spanned"]
        assert not unspanned.statistics["edge_sets_equal"]

        g4 = fused_triples()
        h6 = fused_triples_host()

        # reconstruction transcript: the host offers exactly two images of
        # the fused pair, four embeddings each, and the images overlap the
        # original parts in two vertices
        images = {}
        for emb in enumerate_embeddings(g4, h6):
            images.setdefault(emb.image(frozenset(g4.vertices)), []).append(emb)
        left = frozenset({"v1", "v2", "v3", "v4"})
        right = frozenset({"v3", "v4", "v5", "v6"})
        assert set(images) == {left, right}
        assert [len(v) for v in images.values()] == [4, 4]
        assert len(left & right) == 2

        tight = cluster(MotifScheme((e3,), 2), h6)
        assert tight.parts == frozenset({left, right})
        merged = cluster(MotifScheme((e3, g4), 2), h6)
        assert frozenset(h6.vertices) in merged.parts

        extended = corpus.with_extra_graphs([h6])
        report = connected_hull_check((e3,), g4, 2, extended)
        assert report.passed
        assert report.statistics["expansion_connected"]
        assert not report.statistics["schemes_equal"]
        assert not report.statistics["reverse_holds"]
        assert not report.statistics["reverse_asserted"]


def test_06_no_finite_motif_set_reconnects_every_tail():
    """For the first few tailed triangles, a tail one longer than the worst
    reach defeats the whole set while representing itself fine."""
    with criterion(6, "tailed-triangle witness against finite motif sets"):
        for m in (0, 1, 2, 3):
            motifs = [triangle_with_tail(i) for i in range(m + 1)]
            result = finite_rep_witness(motifs)
            assert result.radius == m
            assert result.ok
            witness = result.witness
            blocked = Hypergraph(
                witness.vertices,
                {set_name(s): s for s in expansion_edge_sets(motifs, witness)},
            )
            assert not is_overlap_connected(blocked, 1)
            alone = Hypergraph(
                witness.vertices,
                {set_name(s): s
                 for s in expansion_edge_sets([witness], witness)},
            )
            assert is_overlap_connected(alone, 1)


def test_07_shared_edge_scheme_separates_corner_gluing(corpus):
    """The shared-edge scheme tells edge-glued copies from corner-glued
    copies, while overlap clustering at thresholds up to 3 cannot."""
    with criterion(7, "shared-edge scheme versus overlap thresholds"):
        d = linear_triangle()
        assert validate_shared_edge_motif(d).ok
        sigma = SharedEdgeScheme(d)

        f1 = edge_glued_chain(d, 1)
        assert cluster(sigma, f1).parts == frozenset({frozenset(f1.vertices)})

        corner = corner_glued_pair(d)
        split = cluster(sigma, corner)
        assert len(split.parts) == 2
        assert all(len(p) == 6 for p in split.parts)
        assert remove_spurious(split) == split

        for k in (1, 2, 3):
            parts = cluster(MotifScheme((d,), k), corner)
            assert frozenset(corner.vertices) in parts.parts

        cache = ClusterCache()
        assert check_excisive(sigma, corpus, cache).passed
        assert check_functorial(sigma, corpus, cache).passed


def test_08_shared_edge_scheme_is_refined_by_a_motif_scheme(corpus):
    """Motif scheme built from the graphs the shared-edge scheme fully
    spans, at threshold infinity, refines the shared-edge scheme."""
    with criterion(8, "refinement by a motif scheme"):
        d = linear_triangle()
        sigma = SharedEdgeScheme(d)

        def spanned_members(graphs):
            chosen = []
            for graph in graphs:
                if not graph.vertices:
                    continue
                parts = cluster(sigma, graph)
                if frozenset(graph.vertices) in parts.parts:
                    chosen.append(graph)
            return chosen

        # the default corpus is too small to host any copies, so the motif
        # set is empty and the refinement holds vacuously
        assert spanned_members(corpus.graphs) == []
        report = check_refines(MotifScheme((), INFINITE), sigma, corpus)
        assert report.passed

        # a corpus that does contain copies exercises the claim for real
        extended = corpus.with_extra_graphs(
            [d, edge_glued_chain(d, 1), corner_glued_pair(d)]
        )
        chosen = spanned_members(extended.graphs)
        assert chosen
        scheme = MotifScheme(tuple(chosen), INFINITE)
        report = check_refines(scheme, sigma, extended)
        assert report.passed, report.counterexamples[:1]

        corner = corner_glued_pair(d)
        fine = cluster(scheme, corner)
        assert fine.parts == cluster(sigma, corner).parts != frozenset()


def test_09_toy_rules_realize_the_axiom_matrix(corpus):
    """The hand-written rules hit every cell of the excisive/functorial
    truth table, with the expected counterexamples in the failing reports."""
    with criterion(9, "excisive/functorial truth table"):
        grid = [
            (MotifScheme(("E*",), 1), True, True),
            (ToyScheme("always_one_part_except_K2"), True, False),
            (ToyScheme("component_rule"), False, True),
            (ToyScheme("noprops"), False, False),
        ]
        reports = {}
        for scheme, want_excisive, want_functorial in grid:
            cache = ClusterCache()
            excisive = check_excisive(scheme, corpus, cache)
            functorial = check_functorial(scheme, corpus, cache)
            assert excisive.passed == want_excisive, scheme
            assert functorial.passed == want_functorial, scheme
            reports[getattr(scheme, "rule", "representable")] = (
                excisive, functorial,
            )

        # adding the edge to a bare pair breaks the first toy's functoriality
        pair = complete_graph(2)
        bare = Hypergraph(pair.vertices)
        found = False
        for entry in reports["always_one_part_except_K2"][1].counterexamples:
            source = Hypergraph(
                entry["source"]["graph"]["vertices"],
                {e["id"]: e["vertices"]
                 for e in entry["source"]["graph"]["edges"]},
            )
            target = Hypergraph(
                entry["target"]["graph"]["vertices"],
                {e["id"]: e["vertices"]
                 for e in entry["target"]["graph"]["edges"]},
            )
            if iso_check(source, bare)[0] and iso_check(target, pair)[0]:
                found = True
        assert found

        # two disjoint pairs break the last toy's excisiveness
        two_pairs = Hypergraph("abcd", {"e1": "ab", "e2": "cd"})
        found = False
        for entry in reports["noprops"][0].counterexamples:
            graph = Hypergraph(
                entry["graph"]["vertices"],
                {e["id"]: e["vertices"] for e in entry["graph"]["edges"]},
            )
            if iso_check(graph, two_pairs)[0] and len(entry["part"]) == 2:
                found = True
        assert found


def test_10_embedding_counts_respect_the_orientation_bound():
    """Fifty seeded sparse graphs stay under the closed-form bound, and the
    enumerator agrees exactly with a permutation oracle on every simple
    graph with at most seven vertices."""
    with criterion(10, "embedding counting against the sparse bound"):
        motifs = [complete_graph(2), path(3), complete_graph(3)]
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(20, 200)
            host = random_degenerate_graph(n, 3, rng)
            d = degeneracy(host)[0]
            assert d <= 3
            for motif in motifs:
                found = len(enumerate_embeddings(motif, host))
                assert found <= embedding_count_bound(
                    motif, d, len(host.vertices)
                )

        from networkx.generators.atlas import graph_atlas_g

        for atlas_graph in graph_atlas_g():
            if atlas_graph.number_of_nodes() > 7:
                break
            names = [f"v{i + 1}" for i in range(atlas_graph.number_of_nodes())]
            rename = {
                node: names[i]
                for i, node in enumerate(sorted(atlas_graph.nodes))
            }
            host = Hypergraph(
                names,
                {
                    f"e{i + 1}": (rename[a], rename[b])
                    for i, (a, b) in enumerate(sorted(atlas_graph.edges))
                },
            )
            for motif in motifs:
                ours = [m.map for m in enumerate_embeddings(motif, host)]
                assert ours == oracles.naive_embeddings(motif, host)


def test_11_embedding_counts_scale_like_the_independence_number(tmp_path):
    """Fitted log-log slope of embedding counts on degeneracy-capped random
    graphs stays within 0.3 of the motif's independence number."""
    with criterion(11, "count scaling on sparse graphs"):
        for name, alpha in (("K_3", 1), ("P_3", 2)):
            out = tmp_path / f"bench-{name}.csv"
            code = main([
                "bench", "--motif", name, "--family", "random",
                "--cap", "2", "--seed", "0",
                "--sizes", "100,200,400,800,1600",
                "--out", str(out),
            ])
            assert code == 0
            last = out.read_text().strip().splitlines()[-1]
            slope = float(last.split("=")[1])
            print(f"  fitted slope for {name}: {slope:.4f} "
                  f"(tolerance {alpha + 0.3:.1f})")
            assert slope <= alpha + 0.3


def test_12_collapsing_partitioned_sets_of_sets():
    """The collapse of a partitioned set of edge sets unions each part; the
    stated two-element example maps correctly and collapses correctly."""
    with criterion(12, "collapse of set-valued partitioned sets"):
        a = PartitionedSet(
            [{"1", "2"}, {"2", "3"}],
            [[{"1", "2"}], [{"2", "3"}]],
        )
        b = PartitionedSet(
            [{"a"}, {"b"}],
            [[{"a"}], [{"b"}]],
        )
        f = PartitionMorphism(
            a, b,
            {
                frozenset({"1", "2"}): frozenset({"a"}),
                frozenset({"2", "3"}): frozenset({"b"}),
            },
        )
        assert validate_partition_morphism(f).ok

        collapsed_a = part_union(a)
        assert collapsed_a.elements == ("1", "2", "3")
        assert collapsed_a.parts == frozenset(
            {frozenset({"1", "2"}), frozenset({"2", "3"})}
        )
        collapsed_b = part_union(b)
        assert collapsed_b.elements == ("a", "b")
        assert collapsed_b.parts == frozenset(
            {frozenset({"a"}), frozenset({"b"})}
        )


def test_13_search_for_two_spanning_parts():
    """No hypergraph on up to four vertices has two distinct spanning
    overlap-2 components (checked exhaustively); larger bounds produce a
    self-validating witness, deterministically."""
    with criterion(13, "two-spanning-parts search contract"):
        small = search_equal_parts_example(SearchBounds(4, 16, 3))
        assert small.outcome == "exhausted"
        assert small.exhaustive
        assert small.witness is None

        found = search_equal_parts_example()
        assert found.outcome == "witness"
        transcript = validate_equal_parts_witness(found.witness)
        assert transcript == found.transcript
        assert transcript["spanning_components"] >= 2

        again = search_equal_parts_example()
        assert again.to_json() == found.to_json()
