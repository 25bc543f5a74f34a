"""The benchmark's workloads: seeded inputs, the ops of one pass, and the
expected answer for every op.

A workload's ``setup(seed)`` returns a :class:`Plan`; ``PREPARE`` holds the
one-off set-up some workloads need first.  The runner calls the plan's ops
one at a time, in order and over again (a closed loop with one client), and
checks each op's output against its expectation after the op's clock has
stopped.  Why each workload exists is recorded in ``NOTES.md`` beside this
file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import hyperclust.checks as checks
import hyperclust.cli as cli
import hyperclust.schemes as schemes
from hyperclust.graphs import Hypergraph, build_named

CACHE_ENV = "HYPERCLUST_CACHE_DIR"


class Op:
    """One timed call.  ``run()`` returns the output, ``expect(output)``
    says whether it is right."""

    __slots__ = ("label", "run", "expect")

    def __init__(self, label, run, expect):
        self.label = label
        self.run = run
        self.expect = expect


class Plan:
    """The ops of one pass and the input edges a pass clusters."""

    def __init__(self, ops, edges):
        self.ops = ops
        self.edges = edges


# ---------------------------------------------------------------------------
# corpus checks

CORPUS_GRAPHS = 1473
CORPUS_MORPHISMS = 156935
# Edges summed over the corpus graphs: the input edges one scheme clusters
# when a check sweeps the corpus.
CORPUS_EDGES = 6093

# Command line -> (exit code, expected statistics) on a warm cache.
WARM_COMMANDS = (
    (("check", "excisive", "--scheme", "representable:{E*},k=2"), 0,
     {"graphs": CORPUS_GRAPHS, "parts_checked": 4088, "failures": 0}),
    (("check", "excisive", "--scheme", "representable:{K_3},k=2"), 0,
     {"graphs": CORPUS_GRAPHS, "parts_checked": 174, "failures": 0}),
    (("check", "refines", "--scheme", "representable:{E*},k=2",
      "--scheme2", "representable:{E*},k=1"), 1,
     {"graphs": CORPUS_GRAPHS, "failures": 567}),
)


def _cli_op(argv, code, statistics):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(argv))
        return status, out.getvalue()

    def expect(output):
        status, text = output
        if status != code:
            return False
        report = json.loads(text)
        return all(report["statistics"].get(k) == v for k, v in statistics.items())

    return Op(" ".join(argv), run, expect)


def fill_cache():
    """Once per run, before ``check_warm``'s set-up: a corpus cache to read,
    in the directory ``CACHE_ENV`` names."""
    checks.generate_corpus()


def check_warm(seed):
    """CLI checks that need no morphisms, against the cache ``fill_cache``
    left."""
    commands = list(WARM_COMMANDS)
    random.Random(f"check_warm:{seed}").shuffle(commands)
    ops = [_cli_op(argv, code, stats) for argv, code, stats in commands]
    # refines sweeps the corpus under two schemes, each excisive under one
    return Plan(ops, 4 * CORPUS_EDGES)


# ---------------------------------------------------------------------------
# clustering

def planted_hypergraph(rng, communities, size, edges, inside, sizes):
    """``edges`` distinct edges; edge i has size ``sizes[i % len(sizes)]``,
    so the size histogram is fixed, and the first ``inside`` share lie
    within one of the ``communities`` blocks of ``size`` vertices."""
    names = [f"v{i:05d}" for i in range(communities * size)]
    blocks = [names[i * size:(i + 1) * size] for i in range(communities)]
    n_inside = int(edges * inside)
    found = {}
    while len(found) < edges:
        k = sizes[len(found) % len(sizes)]
        pool = blocks[rng.randrange(communities)] if len(found) < n_inside else names
        members = frozenset(rng.sample(pool, k))
        found.setdefault(members, f"e{len(found):05d}")
    return Hypergraph(names, {eid: s for s, eid in found.items()})


def planted_simple_graph(rng):
    """About 1,500 vertices in 30-vertex communities, 5,000 edges, 90% of
    them inside a community."""
    return planted_hypergraph(rng, 50, 30, 5000, 0.9, (2,))


def overlap_hypergraph(rng):
    """4,000 edges of sizes 2-4, 90% inside 30-vertex communities."""
    return planted_hypergraph(rng, 60, 30, 4000, 0.9, (2, 3, 4))


# Fixed size histogram for the symmetric workload: heavy-tailed, so a few
# big edges carry most of the automorphic copies (an 8-edge has 8!).
SYMMETRIC_SIZES = {2: 126, 3: 80, 4: 45, 5: 25, 6: 15, 7: 8, 8: 1}


def symmetric_hypergraph(rng):
    """About 300 edges with heavy-tailed sizes 2-8 on 300 vertices."""
    sizes = [k for k, n in sorted(SYMMETRIC_SIZES.items()) for _ in range(n)]
    return planted_hypergraph(rng, 1, 300, len(sizes), 0.0, sizes)


def _cluster_op(label, scheme, graph, want):
    def run():
        return schemes.cluster(scheme, graph)

    def expect(parts):
        return frozenset(parts.elements) == frozenset(graph.vertices) and parts.parts == want

    return Op(label, run, expect)


def _motif_scheme(motif, k):
    return schemes.MotifScheme((motif,), k)


def cluster_overlap(seed):
    """Many small overlapping sets: the all-pairs line graph dominates."""
    import reference

    rng = random.Random(f"cluster_overlap:{seed}")
    hyper = overlap_hypergraph(rng)
    simple = planted_simple_graph(rng)
    triangles = reference.overlap_parts(reference.cliques(simple, 3), 2)
    k3 = build_named("K_3")
    ops = [
        _cluster_op("{E*},k=1 planted hypergraph", _motif_scheme("E*", 1), hyper,
                    reference.overlap_parts(reference.edge_sets(hyper), 1)),
        _cluster_op("{E*},k=2 planted hypergraph", _motif_scheme("E*", 2), hyper,
                    reference.overlap_parts(reference.edge_sets(hyper), 2)),
        _cluster_op("{K_3},k=2 planted graph", _motif_scheme(k3, 2), simple, triangles),
        _cluster_op("sigma:K_3 planted graph", schemes.SharedEdgeScheme(k3), simple,
                    triangles),
    ]
    return Plan(ops, 2 * len(hyper.edges) + 2 * len(simple.edges))


def cluster_symmetric(seed):
    """Few sets with large automorphism groups: embedding search dominates."""
    import reference

    rng = random.Random(f"cluster_symmetric:{seed}")
    hyper = symmetric_hypergraph(rng)
    simple = planted_simple_graph(rng)
    ops = [
        _cluster_op("{E*},k=2 heavy-tailed hypergraph", _motif_scheme("E*", 2), hyper,
                    reference.overlap_parts(reference.edge_sets(hyper), 2)),
        _cluster_op("{K_4},k=3 planted graph", _motif_scheme(build_named("K_4"), 3),
                    simple, reference.overlap_parts(reference.cliques(simple, 4), 3)),
    ]
    return Plan(ops, len(hyper.edges) + len(simple.edges))


# One-off set-up, timed once per run and added to the repeated set-up's
# median.  Filling the cache costs a full cold corpus build, too much to
# repeat in every run.
PREPARE = {"check_warm": fill_cache}

WORKLOADS = {
    "check_warm": check_warm,
    "cluster_overlap": cluster_overlap,
    "cluster_symmetric": cluster_symmetric,
}
