import itertools
import json
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import networkx as nx

from hyperclust import checks
from hyperclust.graphs import (
    GraphMorphism,
    Hypergraph,
    SizeLimitError,
    _canonical_code,
    _profile_classes,
    build_named,
    canonical_key,
    complete_graph,
    corner_glued_pair,
    cycle,
    degeneracy,
    edge_glued_chain,
    fused_triples,
    fused_triples_host,
    hypergraph_from_json,
    hypergraph_to_json,
    independence_number,
    iso_check,
    linear_triangle,
    path,
    random_degenerate_graph,
    restrict,
    simplex,
    triangle_with_tail,
    validate_graph_morphism,
    validate_hypergraph,
)

import oracles
from oracles import compose_morphisms, disjoint_union, relabel


# Opt-in vertex names, all used, containing the separator of set_name: the
# distinct sets {"a,b", "c"} and {"a", "b", "c"} would read the same joined
# by bare commas.
COMMA_NAMES = ("a", "b", "c", "a,b")


@st.composite
def hypergraphs(draw, max_vertices=5, max_edges=4, max_edge_size=4, pool=None):
    if pool is None:
        n = draw(st.integers(0, max_vertices))
        names = [f"v{i}" for i in range(1, n + 1)]
    else:
        names = sorted(pool)
        n = len(names)
    edges = {}
    if names:
        count = draw(st.integers(0, max_edges))
        for i in range(count):
            size = draw(st.integers(1, min(max_edge_size, n)))
            members = draw(
                st.sets(st.sampled_from(names), min_size=size, max_size=size)
            )
            edges[f"e{i + 1}"] = members
    return Hypergraph(names, edges)


def traded(graph, first, second, a, b):
    """``graph`` with edge ``first`` giving vertex ``a`` to edge ``second``
    for its vertex ``b``.  When the edges have one size, every vertex keeps
    its edge-size profile."""
    edges = dict(graph.edges)
    edges[first] = graph.edges[first] - {a} | {b}
    edges[second] = graph.edges[second] - {b} | {a}
    return Hypergraph(graph.vertices, edges)


def vertex_trades(graph):
    """Every way two same-size edges of ``graph`` can trade a vertex."""
    for first, second in itertools.combinations(graph.edges, 2):
        left, right = graph.edges[first], graph.edges[second]
        if len(left) == len(right):
            for a in sorted(left - right):
                for b in sorted(right - left):
                    yield traded(graph, first, second, a, b)


def profile_shape(graph):
    return sorted(Counter(oracles._vertex_profiles(graph).values()).items())


@st.composite
def simple_graphs(draw, max_vertices=6, max_edges=None):
    n = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(1, n + 1)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=max_edges)) if pairs else set()
    edges = {f"e{i + 1}": pair for i, pair in enumerate(sorted(chosen))}
    return Hypergraph(names, edges)


class TestHypergraph:
    def test_normalization_and_equality(self):
        a = Hypergraph(["b", "a"], {"e": ("b", "a")})
        b = Hypergraph(("a", "b"), {"e": {"a", "b"}})
        assert a == b
        assert hash(a) == hash(b)
        assert a.vertices == ("a", "b")

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph("ab", [("e", ("a",)), ("e", ("b",))])

    def test_parallel_edges_are_legal(self):
        g = Hypergraph("ab", {"e1": "ab", "e2": "ab"})
        assert len(g.edges) == 2
        assert len(g.edge_sets()) == 1
        assert not g.is_simple()

    def test_edge_sets_are_built_once(self):
        g = fused_triples_host()
        first = g.edge_sets()
        assert g.edge_sets() is first
        assert first == frozenset(g.edges.values())

    def test_made_graph_hashes_like_the_constructed_one(self):
        built = fused_triples_host()
        made = Hypergraph._make(built.vertices, dict(built.edges))
        assert made._hash is None
        assert made == built and hash(made) == hash(built)
        assert made._hash == hash(built)
        assert {built: "kept"}[made] == "kept"
        assert {made: "kept"}[built] == "kept"

    def test_validate_flags_unknown_vertices_and_empty_edges(self):
        g = Hypergraph("ab", {"e1": ("a", "c"), "e2": ()})
        report = validate_hypergraph(g)
        assert not report.ok
        text = " ".join(report.violations)
        assert "e1" in text and "e2" in text

    def test_validate_accepts_clean_graph(self):
        assert validate_hypergraph(linear_triangle()).ok

    @given(hypergraphs())
    def test_json_round_trip(self, g):
        data = hypergraph_to_json(g)
        assert hypergraph_from_json(data) == g
        # byte-stable: keys and lists come out sorted
        assert data["vertices"] == sorted(data["vertices"])
        ids = [e["id"] for e in data["edges"]]
        assert ids == sorted(ids)

    def test_from_json_accepts_missing_edge_list(self):
        assert hypergraph_from_json({"vertices": ["a"]}) == Hypergraph("a")

    @pytest.mark.parametrize("data", [
        ["a"],
        {"vertices": ["a"], "edges": [{"id": "e"}]},
        {"vertices": 5},
        {"vertices": ["a"], "edges": [{"id": "e1", "vertices": 7}]},
        # Strings and numbers are not read as names: "v10" is no list of
        # three vertices, and 1 is not the vertex "1".
        {"vertices": "v10", "edges": []},
        {"vertices": {"a": 1}, "edges": []},
        {"vertices": [1, "1", 2], "edges": []},
        {"vertices": [None]},
        {"vertices": ["a", "b"], "edges": [{"id": "e1", "vertices": "ab"}]},
        {"vertices": ["1"], "edges": [{"id": "e1", "vertices": [1]}]},
        {"vertices": ["a"], "edges": [{"id": 1, "vertices": ["a"]}]},
        {"vertices": ["a"], "edges": [{"id": ["e1"], "vertices": ["a"]}]},
    ])
    def test_from_json_rejects_garbage(self, data):
        with pytest.raises(ValueError, match="malformed hypergraph JSON"):
            hypergraph_from_json(data)


class TestMorphisms:
    def test_inclusion_validates(self):
        g = fused_triples_host()
        sub, inc = restrict(g, ("v1", "v2", "v3"))
        assert validate_graph_morphism(inc).ok
        assert set(sub.edges) == {"h1"}

    def test_restriction_builds_its_own_edge_sets(self):
        g = fused_triples_host()
        assert len(g.edge_sets()) == 4
        sub, inc = restrict(g, ("v1", "v2", "v3"))
        assert sub.edge_sets() == frozenset({frozenset({"v1", "v2", "v3"})})
        assert inc == GraphMorphism(sub, g, {v: v for v in sub.vertices})

    def test_restrict_outside_vertex_set(self):
        with pytest.raises(ValueError):
            restrict(simplex(2), ("v1", "zz"))

    def test_non_injective_rejected(self):
        g = simplex(2)
        m = GraphMorphism(g, g, {"v1": "v1", "v2": "v1"})
        assert not validate_graph_morphism(m).ok

    def test_edge_image_must_be_edge_set(self):
        src = complete_graph(2)
        tgt = Hypergraph("abc", {"e1": "abc"})
        m = GraphMorphism(src, tgt, {"v1": "a", "v2": "b"})
        report = validate_graph_morphism(m)
        assert not report.ok

    def test_compose_and_identity(self):
        g = complete_graph(3)
        sub, inc = restrict(g, ("v1", "v2"))
        ident = GraphMorphism(g, g, {v: v for v in g.vertices})
        composed = compose_morphisms(inc, ident)
        assert composed.map == inc.map
        assert validate_graph_morphism(composed).ok

    def test_compose_mismatch(self):
        g = complete_graph(3)
        sub, inc = restrict(g, ("v1", "v2"))
        with pytest.raises(ValueError):
            compose_morphisms(inc, inc)

    def test_morphism_json_round_trip(self):
        g = complete_graph(3)
        sub, inc = restrict(g, ("v1", "v3"))
        data = oracles.morphism_to_json(inc)
        back = oracles.morphism_from_json(data, sub, g)
        assert back.map == inc.map


class TestInvariants:
    @given(simple_graphs())
    @settings(max_examples=60)
    def test_degeneracy_matches_core_number(self, g):
        value, order = degeneracy(g)
        assert value == oracles.nx_degeneracy(g)
        assert sorted(order) == sorted(g.vertices)

    def test_degeneracy_requires_simple(self):
        with pytest.raises(ValueError):
            degeneracy(simplex(3))

    @given(simple_graphs())
    @settings(max_examples=60)
    def test_independence_matches_naive(self, g):
        assert independence_number(g) == oracles.naive_independence(g)

    def test_independence_refuses_large_input(self):
        g = path(25)
        with pytest.raises(SizeLimitError):
            independence_number(g)


class TestIso:
    def test_parallel_edge_multiplicity_counts(self):
        a = Hypergraph("ab", {"e1": "ab", "e2": "ab"})
        b = Hypergraph("ab", {"e1": "ab"})
        assert iso_check(a, b) is False
        assert iso_check(a, relabel(a, {"a": "x", "b": "y"})) is True
        # Same counts, profile classes and distinct edge sets (the path
        # b-e-d-c); only the multiplicities tell them apart.
        tripled = Hypergraph("bcde", {"e1": "be", "e2": "cd", "e3": "cd", "e4": "cd", "e5": "de"})
        doubled = Hypergraph("bcde", {"e1": "be", "e2": "cd", "e3": "cd", "e4": "de", "e5": "de"})
        assert not oracles.incidence_isomorphic(tripled, doubled)
        assert iso_check(tripled, doubled) is False

    def test_iso_refuses_large_input(self):
        # 10! profile-respecting bijections, over the cap of both routines.
        with pytest.raises(SizeLimitError):
            iso_check(complete_graph(10), complete_graph(10))
        with pytest.raises(SizeLimitError):
            canonical_key(complete_graph(10))

    def test_iso_answers_below_the_bijection_cap(self):
        # 2! * 7! = 10,080 profile-respecting bijections.
        g = path(9)
        h = relabel(g, {f"v{i}": f"w{(4 * i) % 9}" for i in range(1, 10)})
        assert iso_check(g, h) is True
        # Same counts and profile classes as P_9, so both keys are built.
        assert iso_check(g, disjoint_union(path(6), cycle(3))) is False

    def test_iso_tells_large_input_apart_by_invariants(self):
        assert iso_check(path(9), complete_graph(2)) is False

    @given(simple_graphs(max_vertices=5), simple_graphs(max_vertices=5))
    @settings(max_examples=40, deadline=None)
    def test_iso_matches_networkx(self, a, b):
        ours = iso_check(a, b)
        theirs = nx.is_isomorphic(oracles.to_nx(a), oracles.to_nx(b))
        assert ours == theirs

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_iso_matches_incidence_oracle(self, data):
        a = data.draw(hypergraphs(max_vertices=5))
        if data.draw(st.booleans()):
            names = data.draw(st.permutations([f"w{i}" for i in range(len(a.vertices))]))
            b = relabel(a, dict(zip(a.vertices, names)))
        else:
            b = data.draw(hypergraphs(max_vertices=5))
        assert iso_check(a, b) == oracles.incidence_isomorphic(a, b)

    def test_iso_matches_incidence_oracle_exhaustively(self):
        # Every hypergraph on four vertices with four distinct edges of
        # sizes 2 and 3, against every other; 72 of the pairs agree on
        # counts and profile classes without being isomorphic.
        names = ["v1", "v2", "v3", "v4"]
        subsets = [c for k in (2, 3) for c in itertools.combinations(names, k)]
        graphs = [
            Hypergraph(names, {f"e{i + 1}": s for i, s in enumerate(combo)})
            for combo in itertools.combinations(subsets, 4)
        ]
        look_alike = 0
        for a, b in itertools.combinations(graphs, 2):
            expected = oracles.incidence_isomorphic(a, b)
            assert iso_check(a, b) == expected
            look_alike += not expected and profile_shape(a) == profile_shape(b)
        assert look_alike == 72
        # Vertex trades between same-size edges keep every profile.
        for a in graphs:
            for b in vertex_trades(a):
                assert profile_shape(a) == profile_shape(b)
                assert iso_check(a, b) == oracles.incidence_isomorphic(a, b)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_iso_matches_incidence_oracle_on_vertex_trades(self, data):
        a = data.draw(hypergraphs(max_vertices=6, max_edges=6))
        trades = list(vertex_trades(a))
        assume(trades)
        b = data.draw(st.sampled_from(trades))
        assert profile_shape(a) == profile_shape(b)
        assert iso_check(a, b) == oracles.incidence_isomorphic(a, b)

    @given(hypergraphs(max_vertices=5))
    @settings(max_examples=60, deadline=None)
    def test_canonical_key_is_relabeling_invariant(self, g):
        mapping = {v: f"w{i}" for i, v in enumerate(reversed(g.vertices))}
        assert canonical_key(g) == canonical_key(relabel(g, mapping))

    def test_canonical_key_separates_non_isomorphic(self):
        assert canonical_key(path(3)) != canonical_key(complete_graph(3))


def split_alike(pairs):
    """Whether two keyings of the same graphs, given as ``(key, other)``
    pairs, put the graphs into the same classes."""
    forward, backward = {}, {}
    return all(
        forward.setdefault(key, other) == other and backward.setdefault(other, key) == key
        for key, other in pairs
    )


def both_keys(graph):
    return canonical_key(graph), oracles.reference_key(graph)


def star(leaves, size=2):
    """A centre on ``leaves`` edges, each adding ``size - 1`` private
    vertices.  With 2-edges all leaves are twins; with larger edges only
    the private vertices of one edge are."""
    names = ["c"]
    edges = {}
    for i in range(leaves):
        private = [f"l{i}.{j}" for j in range(size - 1)]
        names += private
        edges[f"e{i}"] = ["c", *private]
    return Hypergraph(names, edges)


def doubled_matching(pairs):
    """``pairs`` disjoint 2-edges, each twice: one profile block of all
    the vertices, searched as soon as there are two pairs."""
    names = [f"v{i}" for i in range(2 * pairs)]
    edges = {}
    for i in range(pairs):
        for copy in "ab":
            edges[f"e{i}{copy}"] = (names[2 * i], names[2 * i + 1])
    return Hypergraph(names, edges)


def identity_code(graph):
    """The sorted edge masks over the class-major order itself, with no
    vertex moved: the key's code when no block is searched."""
    order = [v for _, vs in _profile_classes(graph) for v in vs]
    bit = {v: 1 << i for i, v in enumerate(order)}
    return tuple(sorted(sum(bit[v] for v in s) for s in graph.edges.values()))


class TestCanonicalForm:
    """The bitmask form against the slow reference in ``oracles``, which
    tries every profile-respecting bijection."""

    def test_candidate_stream_splits_like_the_reference(self, monkeypatch):
        # Every labelled candidate of the default bounds with at most three
        # edges, keyed both ways through the module attribute that class
        # enumeration calls.  The whole default stream takes over 5 s this
        # way; the corpus pin in test_checks covers its classes.  The search
        # runs once per distinct class-major encoding with edges.
        pairs = []

        def keyed(graph):
            key = canonical_key(graph)
            pairs.append((key, oracles.reference_key(graph)))
            return key

        monkeypatch.setattr(checks, "canonical_key", keyed)
        bounds = checks.CorpusBounds(5, 3, 4, 4, 0)
        _canonical_code.cache_clear()
        classes = checks._enumerate_hypergraph_classes(bounds)
        assert _canonical_code.cache_info().misses == 338
        assert len(pairs) == checks.estimate_candidates(bounds) == 6417
        assert len(classes) == len({key for key, _ in pairs}) == 297
        assert split_alike(pairs)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_keys_split_like_the_reference(self, data):
        a = data.draw(hypergraphs(max_vertices=6, max_edges=6))
        others = [relabel(a, {v: f"w{i}" for i, v in enumerate(reversed(a.vertices))})]
        others += list(vertex_trades(a))[:4]
        others.append(data.draw(hypergraphs(max_vertices=6, max_edges=6)))
        assert split_alike(both_keys(g) for g in [a, *others])

    @given(hypergraphs(max_vertices=7, max_edges=7))
    @settings(max_examples=100, deadline=None)
    def test_key_is_the_least_encoding(self, g):
        assert canonical_key(g)[2] == oracles.reference_code(g)

    @pytest.mark.parametrize(
        "make, sizes",
        [
            (path, range(1, 10)),
            (cycle, range(3, 8)),
            (complete_graph, range(1, 9)),
            (simplex, range(1, 9)),
            (star, range(1, 9)),
            (doubled_matching, range(1, 5)),
        ],
    )
    def test_named_keys_are_the_least_encoding(self, make, sizes):
        # At most 8! bijections each: the brute force takes seconds on K_9,
        # E_9 and the star on 9 leaves, which the twin-block test covers.
        for n in sizes:
            g = make(n)
            assert canonical_key(g)[2] == oracles.reference_code(g)

    def test_twin_blocks_are_not_searched(self):
        # K_n, E_n and stars are one twin block per profile, so the key is
        # the identity encoding of the class-major order; for n up to 8,
        # the test above finds that to be the brute-force minimum.
        for n in range(1, 10):
            for g in (complete_graph(n), simplex(n), star(n)):
                key = canonical_key(g)
                assert key[2] == identity_code(g)
                copy = relabel(g, {v: f"x{i}" for i, v in enumerate(reversed(g.vertices))})
                assert canonical_key(copy) == key

    def test_searched_blocks_split_like_the_reference(self):
        # Three doubled disjoint edges, C_6 and two disjoint triangles: six
        # vertices of profile (2, 2) and six edges each, so one block of six
        # is searched.  Likewise the private vertices of a star of 3-edges.
        graphs = [doubled_matching(3), cycle(6), disjoint_union(cycle(3), cycle(3))]
        assert len({tuple(profile_shape(g)) for g in graphs}) == 1
        graphs += [star(3, size=3), star(2, size=4)]
        graphs += [relabel(g, {v: f"y{i}" for i, v in enumerate(reversed(g.vertices))}) for g in graphs]
        assert split_alike(both_keys(g) for g in graphs)
        assert len({canonical_key(g) for g in graphs}) == 5
        for g in graphs:
            assert canonical_key(g)[2] == oracles.reference_code(g)

    def test_equal_encodings_share_one_search(self):
        # Prefixing every name keeps their order, so both copies put the
        # edges on the same bits; C_6 is one searched block of six.
        for g in (cycle(6), star(3, size=3)):
            copy = relabel(g, {v: f"z{v}" for v in g.vertices})
            key = canonical_key(g)
            size = _canonical_code.cache_info().currsize
            assert canonical_key(copy) == key
            assert _canonical_code.cache_info().currsize == size

    def test_refusals_count_bijections_before_fixing_twins(self):
        # 10! > 2,000,000 although every block of these is twin-fixed and
        # would need no search; 2! * 7! is under the cap.  A refusal is not
        # remembered, so it comes again on the next call.
        size = _canonical_code.cache_info().currsize
        for g in (complete_graph(10), simplex(10), star(10)):
            for _ in range(2):
                with pytest.raises(SizeLimitError):
                    canonical_key(g)
            with pytest.raises(SizeLimitError):
                oracles.reference_key(g)
        assert _canonical_code.cache_info().currsize == size
        assert canonical_key(path(9)) == canonical_key(relabel(path(9), {"v1": "z"}))
        assert canonical_key(Hypergraph(range(12))) == canonical_key(Hypergraph("abcdefghijkl"))


class TestBuilders:
    def test_simplices_are_built_once(self):
        names = [f"v{i}" for i in range(1, 6)]
        assert simplex(5) is simplex(5)
        assert simplex(5) == Hypergraph(names, {"e1": names})

    def test_families(self):
        assert len(simplex(4).edges) == 1
        assert len(complete_graph(4).edges) == 6
        assert len(cycle(5).edges) == 5
        assert len(path(5).edges) == 4
        with pytest.raises(ValueError):
            cycle(2)

    def test_triangle_with_tail(self):
        r2 = triangle_with_tail(2)
        assert len(r2.vertices) == 5
        assert len(r2.edges) == 5
        assert checks._triangle_radius(r2) == 2

    def test_linear_triangle_shape(self):
        d = linear_triangle()
        assert d.vertices == tuple("123456")
        assert d.edge_sets() == frozenset(
            {frozenset("123"), frozenset("145"), frozenset("246")}
        )

    def test_edge_glued_chain_vertex_count(self):
        d = linear_triangle()
        for links in (1, 2, 3):
            chained = edge_glued_chain(d, links)
            assert len(chained.vertices) == 3 * (links + 2)
            assert len(chained.edges) == 3 + 2 * links

    def test_edge_glued_chain_needs_two_edges(self):
        with pytest.raises(ValueError):
            edge_glued_chain(simplex(3), 1)

    def test_corner_glued_pair(self):
        corner = corner_glued_pair(linear_triangle())
        assert len(corner.vertices) == 9
        assert len(corner.edges) == 6
        # the three shared corners sit on edges of both copies
        shared = {"3", "5", "6"}
        assert shared < set(corner.vertices)

    def test_corner_glue_needs_three_private_vertices(self):
        with pytest.raises(ValueError):
            corner_glued_pair(complete_graph(3))

    def test_fused_triples_and_host(self):
        g4 = fused_triples()
        h6 = fused_triples_host()
        assert len(g4.vertices) == 4 and len(g4.edges) == 2
        assert len(h6.vertices) == 6 and len(h6.edges) == 4
        assert all(len(s) == 3 for s in h6.edges.values())

    def test_build_named(self):
        assert build_named("E_3") == simplex(3)
        assert build_named("k2") == complete_graph(2)
        assert build_named("D") == build_named("D_default")
        assert len(build_named("F2").vertices) == 12
        with pytest.raises(ValueError):
            build_named("Q7")

    @given(st.integers(1, 40), st.integers(0, 4), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_random_degenerate_graph_respects_cap(self, n, cap, seed):
        import random

        g = random_degenerate_graph(n, cap, random.Random(seed))
        assert degeneracy(g)[0] <= cap

    def test_disjoint_union_keeps_both_sides(self):
        u = disjoint_union(simplex(2), complete_graph(2))
        assert len(u.vertices) == 4
        assert len(u.edges) == 2
