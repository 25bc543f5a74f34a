"""Partitioned sets: an underlying set plus a family of parts.

Parts may overlap, may be empty, and need not cover the underlying set;
this is deliberately looser than a partition.  Elements are either vertex
names or, for line-graph style objects, frozensets of vertex names.
"""

from __future__ import annotations

import itertools

from .graphs import Validation


def _element_key(x):
    # Elements are strings or frozensets of strings; the two kinds never mix
    # inside one PartitionedSet, but a uniform key keeps sorting total.
    if isinstance(x, frozenset):
        return (1, tuple(sorted(x)))
    return (0, x)


def _names(elements):
    # Set elements by sorted members: str(frozenset) follows the hash order.
    keys = sorted(map(_element_key, elements))
    return ", ".join("{" + ", ".join(x) + "}" if kind else x for kind, x in keys)


def _as_element(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (set, frozenset)):
        return frozenset(str(v) for v in x)
    return str(x)


class PartitionedSet:
    """Immutable underlying set plus a set of parts, each part a subset."""

    __slots__ = ("elements", "parts")

    def __init__(self, elements, parts=()):
        elems = tuple(sorted({_as_element(x) for x in elements}, key=_element_key))
        universe = set(elems)
        cooked = set()
        for part in parts:
            p = frozenset(_as_element(x) for x in part)
            stray = p - universe
            if stray:
                names = _names(stray)
                raise ValueError(f"part contains elements outside the underlying set: {names}")
            cooked.add(p)
        self.elements = elems
        self.parts = frozenset(cooked)

    @classmethod
    def _make(cls, elements, parts):
        """Fast path for internal callers that already hold normalised data,
        as for ``Hypergraph._make``: ``elements`` a tuple in the
        constructor's order, ``parts`` a frozenset of frozensets of them.
        Nothing is converted or checked."""
        p = cls.__new__(cls)
        p.elements = elements
        p.parts = parts
        return p

    def sorted_parts(self):
        """Parts as sorted tuples, ordered lexicographically; set elements
        compare by their members, as frozensets compare by inclusion."""
        # Set elements sort after names, so the last element shows whether
        # any is present; names alone sort as plain strings.
        if self.elements and isinstance(self.elements[-1], frozenset):
            parts = [tuple(sorted(p, key=_element_key)) for p in self.parts]
            return sorted(parts, key=lambda part: tuple(map(_element_key, part)))
        return sorted(map(tuple, map(sorted, self.parts)))

    def __eq__(self, other):
        if not isinstance(other, PartitionedSet):
            return NotImplemented
        return self.elements == other.elements and self.parts == other.parts

    def __hash__(self):
        return hash((self.elements, self.parts))

    def __repr__(self):
        return f"PartitionedSet({len(self.elements)} elements, {len(self.parts)} parts)"


class PartitionMorphism:
    """A total map of underlying sets meant to send parts into parts."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, mapping):
        pairs = mapping.items() if hasattr(mapping, "items") else mapping
        vm = {_as_element(a): _as_element(b) for a, b in pairs}
        missing = [x for x in source.elements if x not in vm]
        if missing:
            raise ValueError(f"map is not total, undefined on: {_names(missing[:5])}")
        stray = set(vm.values()) - set(target.elements)
        if stray:
            raise ValueError(f"map has values outside the target: {_names(stray)}")
        self.source = source
        self.target = target
        self.map = vm


def uncovered_parts(parts, into, vmap=None):
    """Yield ``(part, image)`` for each of ``parts``, in order, whose image
    under ``vmap`` (None: the identity) lies in no member of the set ``into``."""
    for part in parts:
        image = frozenset(part) if vmap is None else frozenset(vmap[x] for x in part)
        if image not in into and not any(image <= q for q in into):
            yield part, image


def validate_partition_morphism(morphism):
    """One violation per source part, in sorted order, that no target part covers."""
    parts = morphism.source.sorted_parts()
    return Validation(
        f"image of a part is covered by no target part: {{{_names(image)}}}"
        for _, image in uncovered_parts(parts, morphism.target.parts, morphism.map)
    )


def remove_spurious(partitioned):
    """Drop every part strictly contained in another part."""
    parts = partitioned.parts
    kept = [p for p in parts if not any(p < q for q in parts)]
    return PartitionedSet(partitioned.elements, kept)


def is_refinement(finer, coarser):
    """Whether ``finer`` refines ``coarser``: every part of ``finer`` sits
    inside some part of ``coarser``, and every part of ``coarser`` literally
    appears among ``finer``'s parts.

    Returns ``(ok, offender)`` where the offender is the first failing part
    in sorted order, or None.  The first half is :func:`uncovered_parts`.
    """
    if finer.elements != coarser.elements:
        raise ValueError("refinement compares partitioned sets over one underlying set")
    for _, image in uncovered_parts(finer.sorted_parts(), coarser.parts):
        return False, image
    for part in coarser.sorted_parts():
        p = frozenset(part)
        if p not in finer.parts:
            return False, p
    return True, None


def is_non_overlapping(partitioned):
    return not any(p & q for p, q in itertools.combinations(partitioned.parts, 2))


def part_union(partitioned):
    """Collapse a partitioned set of sets: the underlying set becomes the
    union of its elements, and each part becomes the union of its members."""
    for x in partitioned.elements:
        if not isinstance(x, frozenset):
            raise ValueError("part_union needs every element to be a set of vertex names")
    universe = frozenset().union(*partitioned.elements) if partitioned.elements else frozenset()
    parts = []
    for p in partitioned.parts:
        parts.append(frozenset().union(*p) if p else frozenset())
    return PartitionedSet(universe, parts)


def clustering_to_json(partitioned):
    for x in partitioned.elements:
        if not isinstance(x, str):
            raise ValueError("only vertex-name clusterings serialize to JSON")
    return {
        "underlying": list(partitioned.elements),
        "parts": [list(p) for p in partitioned.sorted_parts()],
    }
