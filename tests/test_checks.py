import dataclasses
import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperclust import checks
from hyperclust.checks import (
    _cache_path,
    ClusterCache,
    Corpus,
    CorpusBounds,
    SearchBounds,
    check_excisive,
    check_functorial,
    check_refines,
    check_scheme_equal,
    connected_hull_check,
    estimate_candidates,
    finite_rep_witness,
    generate_corpus,
    hull_check,
    search_equal_parts_example,
    validate_equal_parts_witness,
)
from hyperclust.components import INFINITE
from hyperclust.graphs import (
    GraphMorphism,
    Hypergraph,
    SizeLimitError,
    build_named,
    complete_graph,
    fused_triples,
    hypergraph_from_json,
    hypergraph_to_json,
    linear_triangle,
    path,
    restrict,
    simplex,
    triangle_with_tail,
)
from hyperclust.motifs import _build_plan, expansion_edge_sets
from hyperclust.partitions import PartitionedSet
from hyperclust.schemes import (
    ComponentScheme,
    MotifScheme,
    SharedEdgeScheme,
    TOY_RULES,
    ToyScheme,
    cluster,
    scheme_label,
)

import oracles
from oracles import disjoint_union, relabel
from test_graphs import hypergraphs

TINY = CorpusBounds(
    max_vertices=2,
    max_edges=1,
    max_edge_size=2,
    max_morphism_vertices=2,
    max_simple_vertices=2,
)


def _merge_two_cache_rows(lines, graphs):
    # Two rows on one line, under a footer that counts the lines.
    lines[2:4] = [lines[2] + "," + lines[3]]
    lines[-1] = json.dumps({"graphs": len(lines) - 1})


class TestCorpusGeneration:
    def test_tiny_bounds_give_the_six_known_classes(self):
        corpus = generate_corpus(TINY, use_cache=False)
        profiles = sorted(
            (len(g.vertices), sorted(len(s) for s in g.edges.values()))
            for g in corpus.graphs
        )
        assert profiles == [
            (0, []),
            (1, []),
            (1, [1]),
            (2, []),
            (2, [1]),
            (2, [2]),
        ]

    def test_default_corpus_is_pinned(self, corpus):
        # The representatives, their order and their serialisation: any
        # change to class enumeration or to the canonical form that moves
        # one graph changes this digest.  The session's corpus is built from
        # an empty cache directory (see conftest.py).
        digest = hashlib.sha256()
        for graph in corpus.graphs:
            digest.update((json.dumps(hypergraph_to_json(graph), sort_keys=True) + "\n").encode())
        assert len(corpus.graphs) == 1473
        assert digest.hexdigest() == (
            "c166a2829e6bc35fab5e4a133daee743325bb1b7b67d68e70d0bb65667cd6bb8"
        )

    def test_estimate_counts_labelled_candidates(self):
        # by hand: n=0 gives 1, n=1 gives 2, n=2 gives 1 + 3 choices of edge
        assert estimate_candidates(TINY) == 7
        assert estimate_candidates(CorpusBounds()) > 10_000

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CorpusBounds(max_vertices=-1),
            lambda: CorpusBounds(max_edges=-1),
            lambda: CorpusBounds(max_edge_size=0),
            lambda: CorpusBounds(max_morphism_vertices=-1),
            lambda: CorpusBounds(max_simple_vertices=-1),
            lambda: SearchBounds(max_vertices=-1),
            lambda: SearchBounds(max_edges=-1),
            lambda: SearchBounds(max_edge_size=0),
        ],
    )
    def test_bounds_below_their_minimum_are_refused(self, make):
        with pytest.raises(ValueError, match="must be at least"):
            make()

    def test_simple_vertices_beyond_the_atlas_are_refused(self):
        with pytest.raises(ValueError, match="max_simple_vertices must be at most 7, got 8"):
            CorpusBounds(max_simple_vertices=8)
        assert CorpusBounds(max_simple_vertices=7).max_simple_vertices == 7

    def test_guard_refuses_oversized_bounds(self):
        big = CorpusBounds(max_vertices=8, max_edges=8, max_edge_size=8)
        with pytest.raises(SizeLimitError):
            generate_corpus(big)

    def test_morphisms_all_validate(self, small_corpus):
        assert oracles.find_invalid_morphisms(small_corpus) == []

    def test_ids_are_positional(self, small_corpus):
        first = small_corpus.graphs[0]
        assert small_corpus.graph_id(first) == "g0"
        assert small_corpus.graph_id(complete_graph(6)) is None

    def test_atlas_members_extend_the_hyper_pool(self, small_corpus):
        sizes = {len(g.vertices) for g in small_corpus.graphs if g.is_simple()}
        assert small_corpus.bounds.max_simple_vertices == 4
        assert 4 in sizes

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))
        first = generate_corpus(TINY)
        files = list(tmp_path.glob("corpus-*.jsonl"))
        assert len(files) == 1
        second = generate_corpus(TINY)
        assert second.graphs == first.graphs
        assert len(second.morphisms) == len(first.morphisms)

    def test_corrupt_cache_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))
        generate_corpus(TINY)
        (path,) = tmp_path.glob("corpus-*.jsonl")
        path.write_text("{not json\n")
        rebuilt = generate_corpus(TINY)
        assert len(rebuilt.graphs) == 6

    def test_empty_cache_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))
        generate_corpus(TINY)
        (path,) = tmp_path.glob("corpus-*.jsonl")
        path.write_text("")
        assert len(generate_corpus(TINY).graphs) == 6
        assert len(path.read_text().splitlines()) == 7

    def test_cache_missing_a_graph_line_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))
        generate_corpus(TINY)
        (path,) = tmp_path.glob("corpus-*.jsonl")
        lines = path.read_text().splitlines(keepends=True)
        for cut in (lines[:-1], lines[:2] + lines[3:]):
            path.write_text("".join(cut))
            assert len(generate_corpus(TINY).graphs) == 6

    @pytest.mark.parametrize("spoil", [
        lambda row: row.__setitem__(0, -1),
        lambda row: row.__setitem__(0, 3),
        lambda row: row.__setitem__(0, 2.0),
        lambda row: row.__setitem__(0, True),
        lambda row: row.__setitem__(0, "2"),
        lambda row: row[1].__setitem__(0, 0),
        lambda row: row[1].__setitem__(0, 4),
        lambda row: row[1].__setitem__(0, True),
        lambda row: row[1].__setitem__(0, 1.0),
        lambda row: row[1].__setitem__(0, "1"),
        lambda row: row.append([]),
    ], ids=[
        "negative-count", "count-above-the-bounds", "float-count", "boolean-count",
        "string-count", "zero-mask", "mask-past-the-vertices", "boolean-mask",
        "float-mask", "string-mask", "three-items",
    ])
    def test_cache_row_out_of_range_is_rebuilt(self, spoil, tmp_path, monkeypatch):
        # The spoiled row is a 2-vertex graph with two edges; at these bounds
        # no graph has more than 2 vertices.
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))
        bounds = CorpusBounds(2, 2, 2, 2, 0)
        graphs = generate_corpus(bounds).graphs
        path = _cache_path(bounds)
        written = path.read_text()
        lines = written.splitlines()
        at = next(
            i for i, g in enumerate(graphs) if len(g.vertices) == 2 and len(g.edges) == 2
        )
        row = json.loads(lines[at])
        assert row[0] == 2 and len(row[1]) == 2
        spoil(row)
        lines[at] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        assert checks._load_cached_graphs(bounds) is None
        assert generate_corpus(bounds).graphs == graphs
        assert path.read_text() == written

    @pytest.mark.parametrize("rewrite", [
        lambda lines, graphs: lines.__setitem__(
            2, json.dumps(hypergraph_to_json(graphs[2]), sort_keys=True)
        ),
        _merge_two_cache_rows,
    ], ids=["earlier-dict-form", "two-rows-on-one-line"])
    def test_cache_line_not_one_row_is_rebuilt(self, rewrite, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))
        graphs = generate_corpus(TINY).graphs
        path = _cache_path(TINY)
        written = path.read_text()
        lines = written.splitlines()
        rewrite(lines, graphs)
        path.write_text("\n".join(lines) + "\n")
        assert checks._load_cached_graphs(TINY) is None
        assert generate_corpus(TINY).graphs == graphs
        assert path.read_text() == written

    @pytest.mark.parametrize("bounds", [
        CorpusBounds(),
        CorpusBounds(max_simple_vertices=7),
        CorpusBounds(3, 3, 3, 3, 4),
        CorpusBounds(10, 2, 2, 0, 0),
    ], ids=repr)
    def test_cached_graphs_equal_the_uncached_corpus(self, bounds, tmp_path, monkeypatch):
        # Vertices, edge-id order ("e10" before "e2" past nine edges, and
        # v01..v10 past nine vertices) and hashes all survive a round trip.
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))

        def layout(graphs):
            return [(g.vertices, list(g.edges.items()), hash(g)) for g in graphs]

        fresh = generate_corpus(bounds, use_cache=False).graphs
        assert generate_corpus(bounds).graphs == fresh
        assert layout(checks._load_cached_graphs(bounds)) == layout(fresh)
        assert layout(generate_corpus(bounds).graphs) == layout(fresh)

    def test_default_cache_file_is_compact(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))
        checks._store_cached_graphs(corpus.bounds, corpus.graphs)
        assert _cache_path(corpus.bounds).stat().st_size < 30_000

    @pytest.mark.parametrize("graph", [
        Hypergraph(["a", "b"], {"e1": ["a", "b"]}),
        Hypergraph(["x"], {}),
        Hypergraph(["v1", "v2"], {"x": ["v1", "v2"]}),
        Hypergraph(["v1", "v2"], {"e1": ["v1"], "e3": ["v2"]}),
        Hypergraph(["v1", "v2"], {"e1": []}),
        Hypergraph(["v1", "v2"], {"e1": ["v1", "v3"]}),
        Hypergraph(["v1", "v2", "v3"], {}),
        Hypergraph._make(("v2", "v1"), {"e1": frozenset(["v1"])}),
    ], ids=[
        "foreign-names", "foreign-isolated-vertex", "foreign-edge-id", "gap-in-edge-ids",
        "empty-edge", "member-not-a-vertex", "more-vertices-than-the-bounds",
        "unsorted-vertices",
    ])
    def test_store_refuses_what_it_could_not_read_back(self, graph, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path / "cache"))
        good = generate_corpus(TINY, use_cache=False).graphs
        with pytest.raises(ValueError, match="cannot cache"):
            checks._store_cached_graphs(TINY, [*good, graph])
        assert not (tmp_path / "cache").exists()

    def test_concurrent_cold_builds_leave_one_readable_file(self, tmp_path, monkeypatch):
        cache, barrier = tmp_path / "cache", tmp_path / "barrier"
        barrier.mkdir()
        src = str(pathlib.Path(checks.__file__).parents[1])
        env = dict(
            os.environ,
            HYPERCLUST_CACHE_DIR=str(cache),
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", CONCURRENT_BUILD, str(barrier), name],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for name in ("first", "second")
        ]
        outputs = [run.communicate(timeout=120) for run in runs]
        assert [run.returncode for run in runs] == [0, 0], outputs
        bounds = CorpusBounds(3, 3, 3, 3, 4)
        fresh = generate_corpus(bounds, use_cache=False).graphs
        assert [out for out, _ in outputs] == [f"{len(fresh)}\n"] * 2
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(cache))
        assert list(cache.iterdir()) == [_cache_path(bounds)]
        loaded = checks._load_cached_graphs(bounds)
        assert [(g.vertices, list(g.edges.items())) for g in loaded] == [
            (g.vertices, list(g.edges.items())) for g in fresh
        ]

    def test_stale_temp_name_does_not_block_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))
        squatter = _cache_path(TINY).with_suffix(".tmp")
        squatter.mkdir()
        generate_corpus(TINY)
        assert _cache_path(TINY).is_file()
        assert list(tmp_path.glob("*.tmp")) == [squatter]

    def test_failed_cache_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path))

        def fail(source, target):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        assert len(generate_corpus(TINY).graphs) == 6
        assert list(tmp_path.iterdir()) == []


# Run twice at once by the concurrent-build test above: both processes wait
# at a file barrier (argv[1]), then cold-build one corpus into one cache.
CONCURRENT_BUILD = """
import pathlib, sys, time
from hyperclust.checks import CorpusBounds, generate_corpus
barrier = pathlib.Path(sys.argv[1])
(barrier / sys.argv[2]).touch()
deadline = time.monotonic() + 30
while len(list(barrier.iterdir())) < 2 and time.monotonic() < deadline:
    time.sleep(0.001)
print(len(generate_corpus(CorpusBounds(3, 3, 3, 3, 4)).graphs))
"""


# Run by the no-networkx test below in a fresh interpreter: a cold corpus
# with simple-graph extras, then a cold CLI check, with networkx importable
# or not as argv[1] says.
NO_NETWORKX_RUN = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["networkx"] = None
    try:
        import networkx
    except ImportError:
        pass
    else:
        sys.exit("networkx is still importable")
from hyperclust.checks import CorpusBounds, generate_corpus
from hyperclust.cli import main
from hyperclust.graphs import hypergraph_to_json
corpus = generate_corpus(CorpusBounds(2, 2, 2, 2, 5))
print(json.dumps([hypergraph_to_json(g) for g in corpus.graphs], sort_keys=True))
sys.exit(main(["check", "excisive", "--scheme", "representable:{K_3},k=2",
               "--no-cache", "--max-vertices", "3", "--max-simple-vertices", "6"]))
"""


class TestAtlasTable:
    def test_every_line_is_the_networkx_atlas_graph(self):
        lines = checks._ATLAS.read_text().split()
        atlas = nx.graph_atlas_g()
        assert len(lines) == len(atlas) == 1253
        for line, atlas_graph in zip(lines, atlas):
            position = {node: i for i, node in enumerate(sorted(atlas_graph.nodes))}
            n, pairs = checks._graph6_edges(line)
            assert n == atlas_graph.number_of_nodes()
            assert len(pairs) == atlas_graph.number_of_edges()
            assert set(pairs) == {
                tuple(sorted((position[a], position[b]))) for a, b in atlas_graph.edges
            }

    def test_largest_graphs_meet_the_simple_vertex_maximum(self):
        sizes = [checks._graph6_edges(line)[0] for line in checks._ATLAS.read_text().split()]
        assert max(sizes) == checks._ATLAS_MAX_VERTICES == 7
        (field,) = [
            f for f in dataclasses.fields(CorpusBounds) if f.name == "max_simple_vertices"
        ]
        assert field.metadata["maximum"] == checks._ATLAS_MAX_VERTICES

    @pytest.mark.parametrize("bounds", [
        CorpusBounds(),
        CorpusBounds(max_simple_vertices=7),
        CorpusBounds(3, 3, 3, 3, 4),
        CorpusBounds(0, 0, 1, 0, 7),
        CorpusBounds(7, 0, 2, 0, 7),
        CorpusBounds(2, 1, 1, 2, 0),
    ], ids=repr)
    def test_extras_match_the_networkx_reference(self, bounds):
        def layout(graphs):
            return [(g.vertices, list(g.edges.items())) for g in graphs]

        assert layout(checks._atlas_extras(bounds)) == layout(
            oracles.reference_atlas_extras(bounds)
        )

    def test_runs_alike_with_networkx_unimportable(self, tmp_path):
        src = str(pathlib.Path(checks.__file__).parents[1])
        runs = {}
        for mode in ("blocked", "importable"):
            env = dict(
                os.environ,
                HYPERCLUST_CACHE_DIR=str(tmp_path / mode),
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            runs[mode] = subprocess.run(
                [sys.executable, "-c", NO_NETWORKX_RUN, mode],
                capture_output=True, text=True, env=env,
            )
        blocked, importable = runs["blocked"], runs["importable"]
        assert (blocked.returncode, blocked.stderr) == (0, "")
        assert (blocked.returncode, blocked.stdout) == (
            importable.returncode, importable.stdout
        )
        graphs = json.loads(blocked.stdout.splitlines()[0])
        assert max(len(g["vertices"]) for g in graphs) == 5
        (blocked_cache,) = (tmp_path / "blocked").iterdir()
        (importable_cache,) = (tmp_path / "importable").iterdir()
        assert blocked_cache.read_bytes() == importable_cache.read_bytes()


class TestCorpusExtension:
    def test_isomorphs_are_skipped(self, small_corpus):
        doubled = small_corpus.with_extra_graphs(
            [relabel(complete_graph(2), {"v1": "x", "v2": "y"})]
        )
        assert doubled is small_corpus

    def test_new_graphs_are_appended(self, small_corpus):
        host = triangle_with_tail(3)
        extended = small_corpus.with_extra_graphs([host])
        assert len(extended.graphs) == len(small_corpus.graphs) + 1
        assert extended.graph_id(host) == f"g{len(small_corpus.graphs)}"
        # the inclusions of R_3's 2**6 restrictions; at 6 vertices it is too
        # large for the injective maps between small members
        assert len(extended.morphisms) == len(small_corpus.morphisms) + 2**6


class TestClusterCache:
    def test_results_match_direct_clustering(self, small_corpus):
        cache = ClusterCache()
        schemes = [
            MotifScheme(("E*",), 2),
            MotifScheme((complete_graph(2),), 1),
            ToyScheme("noprops"),
        ]
        for scheme in schemes:
            for graph in small_corpus.graphs[:40]:
                assert cache.parts(scheme, graph) == cluster(scheme, graph)

    def test_refines_expands_each_graph_once(self, small_corpus, monkeypatch):
        # Both thresholds materialize the same E* motifs, so the second
        # scheme must reuse the first one's expansion.
        calls = Counter()
        real = checks.expansion_edge_sets

        def counting(motifs, graph):
            calls[graph] += 1
            return real(motifs, graph)

        monkeypatch.setattr(checks, "expansion_edge_sets", counting)
        check_refines(
            MotifScheme(("E*",), 2), MotifScheme(("E*",), 1), small_corpus, ClusterCache()
        )
        assert calls == Counter(small_corpus.graphs)
        assert set(calls.values()) == {1}

    def test_repeated_lookups_reuse_the_stored_object(self):
        cache = ClusterCache()
        scheme = MotifScheme(("E*",), 1)
        first = cache.parts(scheme, simplex(3))
        assert cache.parts(scheme, simplex(3)) is first


class TestFastPathsOnTheDefaultCorpus:
    """Objects assembled without normalising equal what the normalising
    constructors build from the same data."""

    @pytest.mark.parametrize("scheme", [
        MotifScheme(("E*",), 2),
        MotifScheme(("E*",), 1),
        MotifScheme((complete_graph(3),), 2),
        SharedEdgeScheme(linear_triangle()),
        ComponentScheme(),
    ], ids=["E*-k2", "E*-k1", "K3-k2", "sigma", "classic"])
    def test_cluster_equals_the_constructor(self, corpus, scheme):
        graphs = corpus.graphs
        if isinstance(scheme, ComponentScheme):
            graphs = [g for g in graphs if g.is_simple()]
        for graph in graphs:
            parts = cluster(scheme, graph)
            again = PartitionedSet(graph.vertices, parts.parts)
            assert (parts.elements, parts.parts, hash(parts)) == (
                again.elements, again.parts, hash(again)
            )

    def test_restrict_equals_the_constructors(self, corpus):
        scheme = MotifScheme(("E*",), 2)
        for graph in corpus.graphs:
            for part in cluster(scheme, graph).sorted_parts():
                sub, inclusion = restrict(graph, part)
                again = Hypergraph(sub.vertices, sub.edges)
                assert (sub.vertices, sub.edges, hash(sub)) == (
                    again.vertices, again.edges, hash(again)
                )
                assert inclusion == GraphMorphism(sub, graph, {v: v for v in part})


# Passing and failing schemes for the functorial sweep: overlap clusterings
# at three thresholds, a shared-edge scheme and every toy rule.
FUNCTORIAL_SCHEMES = (
    *(MotifScheme(("E*",), k) for k in (1, 2, INFINITE)),
    SharedEdgeScheme(build_named("K_3")),
    *(ToyScheme(rule) for rule in TOY_RULES),
)


class TestAxiomChecks:
    def test_excisive_passes_for_overlap_clustering(self, small_corpus):
        report = check_excisive(MotifScheme(("E*",), 2), small_corpus)
        assert report.passed
        assert report.statistics["failures"] == 0
        assert report.statistics["parts_checked"] > 0

    def test_functorial_passes_for_overlap_clustering(self, small_corpus):
        report = check_functorial(MotifScheme(("E*",), 2), small_corpus)
        assert report.passed
        assert report.statistics["morphisms"] == len(small_corpus.morphisms)

    def test_tailed_triangles_share_their_plans(self, small_corpus, monkeypatch):
        # R* builds each member once, so each member's search plan is built
        # once over the whole sweep, and the report is the one that members
        # built afresh for every graph give.
        scheme = MotifScheme(("R*",), 1)
        built = []

        def counting(motif):
            built.append(motif)
            return _build_plan(motif)

        monkeypatch.setattr("hyperclust.motifs._build_plan", counting)
        monkeypatch.setattr("hyperclust.schemes.triangle_with_tail", triangle_with_tail.__wrapped__)
        fresh = check_excisive(scheme, small_corpus).to_json()
        unshared = len(built)
        asked = set()

        def member(i):
            asked.add(i)
            return triangle_with_tail(i)

        monkeypatch.setattr("hyperclust.schemes.triangle_with_tail", member)
        triangle_with_tail.cache_clear()
        built.clear()
        assert check_excisive(scheme, small_corpus).to_json() == fresh
        assert len(built) == len(asked) == len({id(m) for m in built})
        assert asked and unshared > len(built)

    def test_excisive_failure_is_replayable(self, small_corpus):
        report = check_excisive(ToyScheme("noprops"), small_corpus)
        assert not report.passed
        entry = report.counterexamples[0]
        graph = hypergraph_from_json(entry["graph"])
        part = tuple(entry["part"])
        from hyperclust.graphs import restrict

        scheme = ToyScheme("noprops")
        assert frozenset(part) in cluster(scheme, graph).parts
        again = cluster(scheme, restrict(graph, part)[0])
        assert frozenset(part) not in again.parts

    def test_functorial_failure_carries_the_offending_map(self, small_corpus):
        report = check_functorial(
            ToyScheme("always_one_part_except_K2"), small_corpus
        )
        assert not report.passed
        entry = report.counterexamples[0]
        source = hypergraph_from_json(entry["source"]["graph"])
        target = hypergraph_from_json(entry["target"]["graph"])
        image = frozenset(entry["map"][v] for v in entry["part"])
        scheme = ToyScheme("always_one_part_except_K2")
        target_parts = cluster(scheme, target).parts
        assert not any(image <= q for q in target_parts)
        assert frozenset(entry["part"]) in cluster(scheme, source).parts

    @pytest.mark.parametrize("scheme", FUNCTORIAL_SCHEMES, ids=scheme_label)
    def test_functorial_matches_the_per_morphism_reference(self, corpus, scheme):
        cache = ClusterCache()
        want = oracles.reference_functorial(scheme, corpus, cache).to_json()
        assert check_functorial(scheme, corpus, cache).to_json() == want

    def test_refines_is_reflexive(self, small_corpus):
        scheme = MotifScheme(("E*",), 2)
        report = check_refines(scheme, scheme, small_corpus)
        assert report.passed

    def test_tighter_overlap_does_not_refine_on_larger_corpora(self, corpus):
        report = check_refines(
            MotifScheme((simplex(3),), 2),
            MotifScheme((simplex(3),), 1),
            corpus,
        )
        assert not report.passed
        # the offender is a loose part that the tight clustering split
        assert len(report.counterexamples[0]["part"]) == 5

    def test_scheme_equal_reports_part_differences(self, small_corpus):
        report = check_scheme_equal(
            MotifScheme(("E*",), 1), MotifScheme(("E*",), 2), small_corpus
        )
        assert not report.passed
        entry = report.counterexamples[0]
        graph = hypergraph_from_json(entry["graph"])
        first = cluster(MotifScheme(("E*",), 1), graph).parts
        second = cluster(MotifScheme(("E*",), 2), graph).parts
        assert [sorted(p) for p in sorted(first - second)] == entry["first_only"]
        assert [sorted(p) for p in sorted(second - first)] == entry["second_only"]

    def test_report_json_shape(self, small_corpus):
        report = check_scheme_equal(
            MotifScheme(("E*",), 1), MotifScheme(("E*",), 2), small_corpus
        )
        data = report.to_json(limit=3)
        assert data["verdict"] == "fail"
        assert data["bounds"] == dataclasses.asdict(small_corpus.bounds)
        assert len(data["counterexamples"]) <= 3
        assert data["statistics"]["counterexamples_shown"] <= 3
        assert (
            data["statistics"]["counterexamples_total"]
            >= data["statistics"]["counterexamples_shown"]
        )
        json.dumps(data)


class TestHullChecks:
    def test_spanned_graph_adds_nothing(self, small_corpus):
        report = hull_check((simplex(3),), simplex(3), small_corpus)
        assert report.passed
        assert report.statistics["spanned"]
        assert report.statistics["edge_sets_equal"]

    def test_unspanned_graph_changes_some_expansion(self, small_corpus):
        report = hull_check((complete_graph(2),), path(3), small_corpus)
        assert report.passed
        assert not report.statistics["spanned"]
        assert not report.statistics["edge_sets_equal"]
        witness = report.statistics["difference_witness"]
        assert witness["gained_edge_sets"] == ["{v1,v2,v3}"]

    def test_empty_motif_set(self, small_corpus):
        report = hull_check((), simplex(1), small_corpus)
        assert report.passed
        assert not report.statistics["spanned"]

    def test_connected_hull_at_threshold_one(self, small_corpus):
        report = connected_hull_check(
            (complete_graph(2),), path(3), 1, small_corpus
        )
        assert report.passed
        assert report.statistics["reverse_asserted"]
        assert report.statistics["schemes_equal"]
        assert report.statistics["expansion_connected"]

    def test_connected_hull_reverse_fails_at_threshold_two(self, corpus):
        report = connected_hull_check(
            (simplex(3),), fused_triples(), 2, corpus
        )
        assert report.passed
        stats = report.statistics
        assert stats["expansion_connected"]
        assert not stats["schemes_equal"]
        assert not stats["reverse_holds"]
        assert not stats["reverse_asserted"]
        assert stats["forward_ok"]
        witness = stats["difference_witness"]
        diff = hypergraph_from_json(witness["graph"])
        first = cluster(MotifScheme((simplex(3),), 2), diff).parts
        second = cluster(
            MotifScheme((simplex(3), fused_triples()), 2), diff
        ).parts
        assert first != second


HULL_MOTIFS = {
    "none": (),
    "K_2": (complete_graph(2),),
    "E_3": (simplex(3),),
    "K_3": (complete_graph(3),),
    "P_3": (path(3),),
    "K_2+E_3": (complete_graph(2), simplex(3)),
    "E_2+K_3": (simplex(2), complete_graph(3)),
}
HULL_GRAPHS = ("P_3", "K_2", "E_1", "E_3", "G_4", "R_1", "C_4", "K_3", "corner")


def break_extended_expansion(monkeypatch, motifs, graph, change):
    """Route the expansion along ``motifs + (graph,)`` through
    ``change(member)``; every other expansion is left as it is."""
    real = checks.expansion_edge_sets
    extended = tuple(motifs) + (graph,)

    def expand(motif_tuple, member):
        if motif_tuple == extended:
            return change(member)
        return real(motif_tuple, member)

    monkeypatch.setattr(checks, "expansion_edge_sets", expand)
    return expand


def gains_on_edgeless_members(motifs, graph):
    """A ``change`` under which the extended expansion also covers every
    edgeless member with one edge set, although a spanned graph adds none."""
    extended = tuple(motifs) + (graph,)

    def change(member):
        sets = expansion_edge_sets(extended, member)
        if member.vertices and not member.edges:
            sets |= {frozenset(member.vertices)}
        return sets

    return change


def gains_nothing(motifs, graph):
    """A ``change`` under which adjoining ``graph`` never adds an edge set,
    although an unspanned graph always adds its own vertex set."""
    return lambda member: expansion_edge_sets(tuple(motifs), member)


class TestHullAgainstTheReference:
    @pytest.mark.parametrize("graph", HULL_GRAPHS)
    @pytest.mark.parametrize("motifs", HULL_MOTIFS.values(), ids=list(HULL_MOTIFS))
    def test_report_matches_the_expansion_sweep(self, small_corpus, motifs, graph):
        graph = build_named(graph)
        report = hull_check(motifs, graph, small_corpus)
        assert report.to_json() == oracles.reference_hull(motifs, graph, small_corpus)

    @pytest.mark.parametrize(
        "motifs, graph, change, spanned",
        [
            ((simplex(3),), simplex(3), gains_on_edgeless_members, True),
            ((complete_graph(2),), path(3), gains_nothing, False),
        ],
        ids=["spanned-but-gains", "unspanned-but-equal"],
    )
    def test_a_failing_hull_reports_its_witness(
        self, small_corpus, monkeypatch, motifs, graph, change, spanned
    ):
        expand = break_extended_expansion(
            monkeypatch, motifs, graph, change(motifs, graph)
        )
        report = hull_check(motifs, graph, small_corpus)
        assert not report.passed
        data = report.to_json()
        assert data == oracles.reference_hull(motifs, graph, small_corpus, expand)
        stats = data["statistics"]
        assert stats["spanned"] is spanned
        assert stats["edge_sets_equal"] is not spanned
        assert data["counterexamples"] == [{
            "spanned": spanned,
            "edge_sets_equal": not spanned,
            "witness": stats.get("difference_witness"),
        }]
        if spanned:
            # the edgeless members on 1 to 4 vertices each gain their
            # vertex set, and the first of them is the witness
            assert stats["differing_graphs"] == 4
            witness = stats["difference_witness"]
            member = small_corpus.graphs[int(witness["id"][1:])]
            assert witness == {
                "graph": hypergraph_to_json(member),
                "id": small_corpus.graph_id(member),
                "gained_edge_sets": ["{v1}"],
            }
        else:
            assert stats["differing_graphs"] == 0
            assert "difference_witness" not in stats


@st.composite
def planted_graphs(draw):
    """A random graph on up to 8 vertices, with a triangle planted on three
    of them half the time; now and then a 3-edge or a parallel edge makes it
    non-simple."""
    n = draw(st.integers(1, 8))
    names = [f"v{i}" for i in range(1, n + 1)]
    combos = list(itertools.combinations(names, 2))
    pairs = set(draw(st.lists(st.sampled_from(combos), max_size=10))) if combos else set()
    if n >= 3 and draw(st.booleans()):
        a, b, c = draw(st.permutations(names))[:3]
        pairs |= {tuple(sorted(p)) for p in ((a, b), (a, c), (b, c))}
    edges = {f"{a}-{b}": (a, b) for a, b in pairs}
    if n >= 3 and draw(st.integers(0, 9)) == 0:
        edges["big"] = draw(st.permutations(names))[:3]
    if pairs and draw(st.integers(0, 9)) == 0:
        edges["twin"] = sorted(pairs)[0]
    return Hypergraph(names, edges)


def radius_graphs():
    base = st.one_of(planted_graphs(), st.integers(0, 6).map(triangle_with_tail))
    return st.one_of(base, st.tuples(base, base).map(lambda pair: disjoint_union(*pair)))


class TestFiniteRepWitness:
    @pytest.mark.parametrize("tail", [0, 1, 2, 3])
    def test_radius_tracks_the_longest_tail(self, tail):
        motifs = [triangle_with_tail(i) for i in range(tail + 1)]
        result = finite_rep_witness(motifs)
        assert result.radius == tail
        assert result.per_graph_radius == tuple(range(tail + 1))
        assert result.witness == triangle_with_tail(tail + 1)
        assert result.blocked_without
        assert result.connected_with
        assert result.ok
        assert result.to_json()["verdict"] == "pass"

    @pytest.mark.parametrize(
        "motif",
        # The second is not simple either; a missing triangle is named first.
        [path(3), Hypergraph("abc", {"e1": "ab", "e2": "abc"})],
        ids=["P_3", "not-simple"],
    )
    def test_triangle_free_motifs_are_rejected(self, motif):
        with pytest.raises(ValueError, match="needs a triangle"):
            finite_rep_witness([motif])

    def test_unreachable_triangle_is_rejected(self):
        split = disjoint_union(complete_graph(3), complete_graph(2))
        with pytest.raises(ValueError, match="'v1.r' cannot reach a triangle"):
            finite_rep_witness([split])

    def test_needs_at_least_one_motif(self):
        with pytest.raises(ValueError):
            finite_rep_witness([])

    @given(radius_graphs())
    @settings(max_examples=150, deadline=None)
    def test_radius_matches_the_reference(self, g):
        try:
            expected = oracles.reference_radius(g)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                finite_rep_witness([g])
            assert str(caught.value) == str(exc)
        else:
            assert finite_rep_witness([g]).per_graph_radius == (expected,)


class TestEqualPartsSearch:
    def test_small_bounds_exhaust(self):
        result = search_equal_parts_example(SearchBounds(4, 16, 3))
        assert result.outcome == "exhausted"
        assert result.exhaustive
        assert result.witness is None
        assert "witness" not in result.to_json()
        # Every family of up to 16 edges of up to 4 vertices on up to 4
        # vertices, tried one by one, holds no witness either.
        assert oracles.reference_equal_parts(SearchBounds(4, 16, 4)) == (None, None)
        # Below 8 vertices the proof decides, for edges of any size.
        for n in (5, 6, 7):
            bounds = SearchBounds(n, 64, n)
            assert search_equal_parts_example(bounds).to_json() == {
                "outcome": "exhausted",
                "exhaustive_search": True,
                "bounds": dataclasses.asdict(bounds),
            }

    @given(st.integers(5, 7).flatmap(lambda n: hypergraphs(
        max_edges=24, max_edge_size=n, pool=[f"v{i}" for i in range(1, n + 1)]
    )))
    @settings(max_examples=200, deadline=None)
    def test_no_graph_below_eight_vertices_is_a_witness(self, graph):
        with pytest.raises(ValueError, match="not a witness"):
            validate_equal_parts_witness(graph)

    def test_default_bounds_find_a_witness(self):
        result = search_equal_parts_example()
        assert result.outcome == "witness"
        transcript = validate_equal_parts_witness(result.witness)
        assert transcript == result.transcript
        assert transcript["spanning_components"] >= 2

    def test_search_is_deterministic(self):
        a = search_equal_parts_example()
        b = search_equal_parts_example()
        assert a.to_json() == b.to_json()

    def test_validation_rejects_non_witnesses(self):
        with pytest.raises(ValueError):
            validate_equal_parts_witness(path(3))
        with pytest.raises(ValueError):
            validate_equal_parts_witness(Hypergraph([]))

    @pytest.mark.parametrize("bounds", [SearchBounds(5, 4, 2), SearchBounds(8, 16, 3)])
    def test_bounds_beyond_both_lanes_claim_nothing(self, bounds):
        # Short of the structured construction's 9 vertices, the search
        # reports exhausted; it claims to have decided the bounds only below
        # 8 vertices, where no witness exists, so not at 8.
        data = search_equal_parts_example(bounds).to_json()
        assert data == {
            "outcome": "exhausted",
            "exhaustive_search": {5: True, 8: False}[bounds.max_vertices],
            "bounds": dataclasses.asdict(bounds),
        }


def record_atlas_table():
    """Rewrite ``atlas.g6`` from networkx's graph atlas: one graph6 line per
    graph, in atlas order, over its vertices in sorted order."""
    lines = [nx.to_graph6_bytes(g, nodes=sorted(g), header=False) for g in nx.graph_atlas_g()]
    checks._ATLAS.write_bytes(b"".join(lines))


if __name__ == "__main__":
    sys.exit(record_atlas_table())
