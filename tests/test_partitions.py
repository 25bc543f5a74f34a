import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperclust
from hyperclust.partitions import (
    PartitionMorphism,
    _element_key,
    PartitionedSet,
    clustering_to_json,
    is_non_overlapping,
    is_refinement,
    part_union,
    remove_spurious,
    uncovered_parts,
    validate_partition_morphism,
)

from oracles import clustering_from_json


@st.composite
def partitioned_sets(draw, max_elements=6, max_parts=5):
    n = draw(st.integers(0, max_elements))
    names = [f"x{i}" for i in range(n)]
    parts = []
    if names:
        for _ in range(draw(st.integers(0, max_parts))):
            parts.append(draw(st.sets(st.sampled_from(names), min_size=1)))
    return PartitionedSet(names, parts)


class TestPartitionedSet:
    def test_parts_must_live_in_underlying_set(self):
        with pytest.raises(ValueError):
            PartitionedSet("ab", [{"a", "c"}])

    def test_duplicate_parts_collapse(self):
        p = PartitionedSet("abc", [{"a", "b"}, {"b", "a"}])
        assert len(p.parts) == 1

    def test_sorted_parts_is_deterministic(self):
        p = PartitionedSet("abc", [{"c"}, {"a", "b"}, {"b", "c"}])
        assert p.sorted_parts() == [("a", "b"), ("b", "c"), ("c",)]

    @given(
        st.lists(st.text(max_size=3), max_size=8).flatmap(
            lambda names: st.tuples(
                st.just(names),
                st.lists(st.sets(st.sampled_from(names)) if names else st.just(set())),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_vertex_name_part_order_is_the_element_key_order(self, drawn):
        names, parts = drawn
        p = PartitionedSet(names, parts)
        keyed = sorted(tuple(sorted(part, key=_element_key)) for part in p.parts)
        assert p.sorted_parts() == keyed

    def test_set_valued_elements(self):
        p = PartitionedSet([{"a", "b"}, {"b", "c"}], [[{"a", "b"}]])
        assert frozenset({"a", "b"}) in p.elements
        assert p.sorted_parts() == [(frozenset({"a", "b"}),)]

    def test_names_and_set_elements_in_one_set_still_sort(self):
        p = PartitionedSet(["a", {"b"}], [["a", {"b"}], ["a"]])
        assert p.sorted_parts() == [("a",), ("a", frozenset({"b"}))]

    def test_set_valued_part_order_ignores_the_hash_seed(self):
        # Four pairwise incomparable frozensets: sorting them as frozensets
        # would keep whatever order hashing gave the parts.
        script = (
            "import json\n"
            "from hyperclust.partitions import PartitionMorphism, PartitionedSet,"
            " validate_partition_morphism\n"
            "sets = [{'1', '2'}, {'2', '3'}, {'3', '4'}, {'0', '9'}]\n"
            "p = PartitionedSet(sets, [[s] for s in sets])\n"
            "parts = [[sorted(x) for x in part] for part in p.sorted_parts()]\n"
            "m = PartitionMorphism(p, PartitionedSet(sets), {x: x for x in p.elements})\n"
            "print(json.dumps([parts, validate_partition_morphism(m).violations]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hyperclust.__file__).parents[1]))
        outputs = set()
        for seed in range(1, 7):
            env["PYTHONHASHSEED"] = str(seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        parts, violations = json.loads(outputs.pop())
        assert parts == [[["0", "9"]], [["1", "2"]], [["2", "3"]], [["3", "4"]]]
        assert violations == [
            f"image of a part is covered by no target part: {{{{{pair}}}}}"
            for pair in ("0, 9", "1, 2", "2, 3", "3, 4")
        ]

    @given(partitioned_sets())
    def test_json_round_trip(self, p):
        assert clustering_from_json(clustering_to_json(p)) == p

    def test_json_rejects_set_valued_elements(self):
        p = PartitionedSet([{"a", "b"}])
        with pytest.raises(ValueError):
            clustering_to_json(p)


class TestSpurious:
    def test_strictly_contained_parts_drop(self):
        p = PartitionedSet("abcd", [{"a"}, {"a", "b"}, {"c", "d"}, {"d"}])
        cleaned = remove_spurious(p)
        assert cleaned.parts == frozenset(
            {frozenset({"a", "b"}), frozenset({"c", "d"})}
        )

    def test_equal_parts_survive(self):
        p = PartitionedSet("ab", [{"a", "b"}])
        assert remove_spurious(p) == p

    @given(partitioned_sets())
    def test_result_is_antichain(self, p):
        cleaned = remove_spurious(p)
        for a in cleaned.parts:
            for b in cleaned.parts:
                assert not a < b


class TestRefinement:
    def test_refinement_requires_same_elements(self):
        with pytest.raises(ValueError):
            is_refinement(PartitionedSet("ab"), PartitionedSet("abc"))

    def test_coarser_parts_must_reappear(self):
        finer = PartitionedSet("abcd", [{"a", "b"}, {"c", "d"}, {"a", "b", "c", "d"}])
        coarser = PartitionedSet("abcd", [{"a", "b", "c", "d"}])
        ok, offender = is_refinement(finer, coarser)
        assert ok and offender is None
        ok, offender = is_refinement(
            PartitionedSet("abcd", [{"a", "b"}]), coarser
        )
        assert not ok
        assert offender == frozenset("abcd")

    def test_offender_is_uncovered_fine_part(self):
        finer = PartitionedSet("abc", [{"a", "c"}])
        coarser = PartitionedSet("abc", [{"a", "b"}])
        ok, offender = is_refinement(finer, coarser)
        assert not ok
        assert offender == frozenset({"a", "c"})

    @given(partitioned_sets())
    def test_every_partitioned_set_refines_itself(self, p):
        assert is_refinement(p, p) == (True, None)


class TestUncoveredParts:
    @pytest.mark.parametrize("parts, into, vmap, uncovered", [
        pytest.param(
            [("a", "b"), ("a", "c"), ("c",)], ["xy", "z"], {"a": "x", "b": "y", "c": "z"},
            [(("a", "c"), "xz")], id="map",
        ),
        pytest.param(
            [("a",), ("a", "b"), ("b", "c")], ["ab"], None, [(("b", "c"), "bc")],
            id="identity",
        ),
        pytest.param([("a", "b")], ["xy"], {"a": "x", "b": "y"}, [], id="image-is-a-part"),
        pytest.param([("a", "b")], ["c", "abc"], None, [], id="image-inside-a-larger-part"),
        pytest.param(
            [("a", "b")], ["a", "b"], None, [(("a", "b"), "ab")], id="image-inside-no-part"
        ),
        pytest.param(
            [(), ("a",)], [], None, [((), ""), (("a",), "a")], id="empty-into"
        ),
    ])
    def test_yields_each_part_no_member_covers(self, parts, into, vmap, uncovered):
        into = set(map(frozenset, into))
        want = [(part, frozenset(image)) for part, image in uncovered]
        assert list(uncovered_parts(parts, into, vmap)) == want


class TestOverlap:
    def test_non_overlapping(self):
        assert is_non_overlapping(PartitionedSet("abcd", [{"a", "b"}, {"c"}]))
        assert not is_non_overlapping(
            PartitionedSet("abc", [{"a", "b"}, {"b", "c"}])
        )

    def test_empty_part_never_overlaps(self):
        assert is_non_overlapping(PartitionedSet("ab", [set(), {"a"}, {"b"}]))


class TestMorphisms:
    def test_map_must_be_total(self):
        a = PartitionedSet("ab")
        b = PartitionedSet("xy")
        with pytest.raises(ValueError):
            PartitionMorphism(a, b, {"a": "x"})

    def test_map_must_land_in_target(self):
        a = PartitionedSet("a")
        b = PartitionedSet("x")
        with pytest.raises(ValueError):
            PartitionMorphism(a, b, {"a": "z"})

    def test_part_images_must_be_covered(self):
        a = PartitionedSet("ab", [{"a", "b"}])
        b = PartitionedSet("xy", [{"x"}, {"y"}])
        m = PartitionMorphism(a, b, {"a": "x", "b": "y"})
        assert not validate_partition_morphism(m).ok

    def test_identity_between_equal_part_families(self):
        g = PartitionedSet("abc", [{"a", "b"}, {"b", "c"}])
        m = PartitionMorphism(g, g, {x: x for x in g.elements})
        assert validate_partition_morphism(m).ok


class TestPartUnion:
    def test_needs_set_valued_elements(self):
        with pytest.raises(ValueError):
            part_union(PartitionedSet("ab", [{"a"}]))

    def test_empty_input(self):
        collapsed = part_union(PartitionedSet([]))
        assert collapsed.elements == ()
        assert collapsed.parts == frozenset()

    def test_collapsing_two_singleton_parts(self):
        # Frozen example: two overlapping pair-sets, each its own part.
        a = PartitionedSet(
            [{"1", "2"}, {"2", "3"}],
            [[{"1", "2"}], [{"2", "3"}]],
        )
        collapsed = part_union(a)
        assert collapsed.elements == ("1", "2", "3")
        assert collapsed.parts == frozenset(
            {frozenset({"1", "2"}), frozenset({"2", "3"})}
        )

    def test_collapsing_disjoint_singletons(self):
        b = PartitionedSet(
            [{"a"}, {"b"}],
            [[{"a"}], [{"b"}]],
        )
        collapsed = part_union(b)
        assert collapsed.elements == ("a", "b")
        assert collapsed.parts == frozenset({frozenset({"a"}), frozenset({"b"})})

    def test_morphism_between_the_two_examples_validates(self):
        a = PartitionedSet(
            [{"1", "2"}, {"2", "3"}],
            [[{"1", "2"}], [{"2", "3"}]],
        )
        b = PartitionedSet(
            [{"a"}, {"b"}],
            [[{"a"}], [{"b"}]],
        )
        f = PartitionMorphism(
            a,
            b,
            {
                frozenset({"1", "2"}): frozenset({"a"}),
                frozenset({"2", "3"}): frozenset({"b"}),
            },
        )
        assert validate_partition_morphism(f).ok
