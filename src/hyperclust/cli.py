"""Command-line front end.

Subcommands: cluster, phi, linegraph, check, witness, search, bench.
Exit codes: 0 success, 1 a property check failed, 2 usage or input error.
All JSON output is sorted so identical invocations produce identical bytes;
bench output contains wall times, which are exempt from that guarantee.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import random
import sys
import time

from .components import line_graph, parse_threshold, percolate, threshold_to_json
from .graphs import (
    Hypergraph,
    SizeLimitError,
    _pair_graph,
    build_named,
    hypergraph_to_json,
    linear_triangle,
    path,
    random_degenerate_graph,
    valid_hypergraph_from_json,
)
from .motifs import BudgetExceededError, enumerate_embeddings, motif_expansion
from .partitions import clustering_to_json, remove_spurious
from .checks import (
    ClusterCache,
    CorpusBounds,
    SearchBounds,
    check_excisive,
    check_functorial,
    check_refines,
    check_scheme_equal,
    connected_hull_check,
    finite_rep_witness,
    generate_corpus,
    hull_check,
    search_equal_parts_example,
)
from .schemes import (
    SPANNING_FAMILY,
    TAILED_TRIANGLE_FAMILY,
    ComponentScheme,
    MotifScheme,
    SharedEdgeScheme,
    ToyScheme,
    cluster,
    scheme_from_json,
    scheme_to_json,
)


def _load_json_file(path):
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def parse_graph_arg(text):
    """A graph argument is a builtin name or a path to a hypergraph JSON."""
    if text.startswith("@"):
        text = text[1:]
    if os.path.exists(text):
        return valid_hypergraph_from_json(_load_json_file(text), text)
    try:
        return build_named(text)
    except ValueError:
        raise ValueError(
            f"graph argument {text!r} is neither a file nor a builtin name"
        ) from None


def _parse_motif_token(token):
    token = token.strip()
    if token in (SPANNING_FAMILY, TAILED_TRIANGLE_FAMILY):
        return token
    return parse_graph_arg(token)


def parse_motif_list(text):
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    tokens = [t for t in body.split(",") if t.strip()]
    if not tokens:
        return ()
    return tuple(_parse_motif_token(t) for t in tokens)


def _concrete_motifs(text, command):
    """A motif list for ``command`` that names only hypergraphs."""
    motifs = parse_motif_list(text)
    for m in motifs:
        if not isinstance(m, Hypergraph):
            raise ValueError(
                f"{command} needs concrete motifs; family marker {m!r} only "
                f"makes sense inside a representable scheme"
            )
    return motifs


def parse_scheme_spec(text):
    """Scheme specs: ``classic``, ``toy:<id>``, ``sigma[:MOTIF]``,
    ``representable:{M1,M2},k=K``, or ``@file.json``."""
    text = text.strip()
    if text.startswith("@"):
        return scheme_from_json(_load_json_file(text[1:]))
    if text == "classic":
        return ComponentScheme()
    if text.startswith("toy:"):
        return ToyScheme(text[len("toy:"):])
    if text == "sigma":
        return SharedEdgeScheme(linear_triangle())
    if text.startswith("sigma:"):
        return SharedEdgeScheme(parse_graph_arg(text[len("sigma:"):]))
    if text.startswith("representable:"):
        body = text[len("representable:"):]
        k = 1
        if ",k=" in body:
            body, _, tail = body.rpartition(",k=")
            k = parse_threshold(tail)
        return MotifScheme(parse_motif_list(body), k)
    raise ValueError(f"unrecognized scheme spec: {text!r}")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, out_path):
    _emit(json.dumps(data, indent=2, sort_keys=True) + "\n", out_path)


# ---------------------------------------------------------------------------
# subcommands

def run_cluster(args):
    graph = parse_graph_arg(args.graph)
    scheme = parse_scheme_spec(args.scheme)
    parts = cluster(scheme, graph)
    if args.drop_spurious:
        parts = remove_spurious(parts)
    data = clustering_to_json(parts)
    data["scheme"] = scheme_to_json(scheme)
    _emit_json(data, args.out)
    return 0


def run_phi(args):
    graph = parse_graph_arg(args.graph)
    motifs = _concrete_motifs(args.motifs, "phi")
    expansion = motif_expansion(motifs, graph, budget=args.budget)
    _emit_json(hypergraph_to_json(expansion), args.out)
    return 0


_DOT_COLORS = (
    "#1b6ca8",
    "#b0413e",
    "#3e8e41",
    "#8e44ad",
    "#c77d00",
    "#16786c",
    "#714b23",
    "#5d6d7e",
)


# Inside a quoted DOT ID, \" is the only escape.
_DOT_ESCAPES = str.maketrans({'"': '\\"'})


def _line_graph_dot(line, k):
    # One colour per component, in the name order of each one's first vertex.
    names = line.graph.vertices
    color_of = {}
    for index, comp in enumerate(percolate([line.members[n] for n in names], k)):
        for i in comp:
            color_of[names[i]] = _DOT_COLORS[index % len(_DOT_COLORS)]
    dot_id = {name: '"' + name.translate(_DOT_ESCAPES) + '"' for name in names}
    lines = ["graph linegraph {"]
    for name in names:
        lines.append(f"  {dot_id[name]} [style=filled, fillcolor=\"{color_of[name]}\"];")
    for a, b in sorted(tuple(sorted(s)) for s in line.graph.edges.values()):
        lines.append(f"  {dot_id[a]} -- {dot_id[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_linegraph(args):
    graph = parse_graph_arg(args.graph)
    k = parse_threshold(args.k)
    line = line_graph(graph, k)
    data = {
        "k": threshold_to_json(k),
        "vertices": list(line.graph.vertices),
        "edges": sorted(sorted(s) for s in line.graph.edges.values()),
        "members": {
            name: sorted(line.members[name]) for name in line.graph.vertices
        },
    }
    if args.dot:
        _emit(_line_graph_dot(line, k), args.dot)
    _emit_json(data, args.out)
    return 0


def _bounds_from_args(args, bounds_class):
    return bounds_class(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(bounds_class)}
    )


_CHECK_NAMES = ("excisive", "functorial", "refines", "equal", "hull", "connected-hull")


def run_check(args):
    if args.property not in _CHECK_NAMES:
        raise ValueError(
            f"unknown property {args.property!r}; choose from "
            f"{', '.join(_CHECK_NAMES)}"
        )
    prop = args.property
    # Every argument is read before the corpus is built or loaded, so a
    # usage error is refused at once and leaves no cache file behind.
    extras = [parse_graph_arg(t) for t in args.extra] if args.extra else []
    if prop in ("hull", "connected-hull"):
        if not args.motifs or not args.graph:
            raise ValueError(f"{prop} needs --motifs and --graph")
        motifs = _concrete_motifs(args.motifs, prop)
        graph = parse_graph_arg(args.graph)
        if not graph.vertices:
            raise ValueError(f"{prop} needs a --graph with at least one vertex")
        k = None
        if prop == "connected-hull" or args.k is not None:
            if args.k is None:
                raise ValueError("connected-hull needs --k")
            k = parse_threshold(args.k)
    elif prop in ("refines", "equal"):
        if not args.scheme or not args.scheme2:
            raise ValueError(f"{prop} needs --scheme and --scheme2")
        schemes = (
            parse_scheme_spec(args.scheme),
            parse_scheme_spec(args.scheme2),
        )
    else:
        if not args.scheme:
            raise ValueError(f"{prop} needs --scheme")
        schemes = (parse_scheme_spec(args.scheme),)
    bounds = _bounds_from_args(args, CorpusBounds)
    corpus = generate_corpus(bounds, use_cache=not args.no_cache)
    if extras:
        corpus = corpus.with_extra_graphs(extras)
    cache = ClusterCache()
    if prop in ("hull", "connected-hull"):
        if k is None:
            report = hull_check(motifs, graph, corpus, cache)
        else:
            report = connected_hull_check(motifs, graph, k, corpus, cache)
    elif prop == "functorial":
        report = check_functorial(*schemes, corpus, cache)
    elif prop == "excisive":
        report = check_excisive(*schemes, corpus, cache)
    elif prop == "refines":
        report = check_refines(*schemes, corpus, cache)
    else:
        report = check_scheme_equal(*schemes, corpus, cache)
    _emit_json(report.to_json(limit=args.limit), args.out)
    return 0 if report.passed else 1


def run_witness(args):
    result = finite_rep_witness(_concrete_motifs(args.motifs, "witness"))
    _emit_json(result.to_json(), args.out)
    return 0 if result.ok else 1


def run_search(args):
    result = search_equal_parts_example(_bounds_from_args(args, SearchBounds))
    _emit_json(result.to_json(), args.out)
    return 0


def _bench_graph(family, n, cap, seed):
    if family == "random":
        rng = random.Random(f"{seed}:{n}")
        return random_degenerate_graph(n, cap, rng)
    if family == "grid":
        side = max(2, math.isqrt(n))
        names = {}
        pairs = []
        for row in range(side):
            for col in range(side):
                names[(row, col)] = f"v{row * side + col + 1}"
        for (row, col), name in names.items():
            if row + 1 < side:
                pairs.append(tuple(sorted((name, names[(row + 1, col)]))))
            if col + 1 < side:
                pairs.append(tuple(sorted((name, names[(row, col + 1)]))))
        return _pair_graph(list(names.values()), pairs)
    if family == "path":
        return path(n)
    if family == "hub":
        # One hub joined to every vertex of a path; "hub" sorts before the
        # path's "v" names, so the hub is placed first.
        spokes = path(n)
        edges = dict(spokes.edges)
        edges.update((f"hub-{v}", ("hub", v)) for v in spokes.vertices)
        return Hypergraph(("hub",) + spokes.vertices, edges)
    raise ValueError(f"unknown bench family: {family!r}")


def run_bench(args):
    motif = parse_graph_arg(args.motif)
    if not motif.is_simple():
        raise ValueError("bench motifs must be simple graphs")
    graphs = [
        _bench_graph(args.family, n, args.cap, args.seed) for n in args.sizes
    ]
    if len({len(graph.vertices) for graph in graphs}) < len(graphs):
        # A slope needs distinct sizes; grid sides round n down to a square.
        sizes = ",".join(map(str, args.sizes))
        raise ValueError(
            f"--sizes {sizes} gives two {args.family} graphs of the same size"
        )
    rows = []
    for graph in graphs:
        best = None
        count = 0
        for _ in range(args.repeat):
            started = time.perf_counter()
            count = len(enumerate_embeddings(motif, graph))
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        rows.append((len(graph.vertices), count, best))
    slope = fit_count_slope(rows)
    lines = ["n,embeddings,seconds"]
    for n, count, seconds in rows:
        lines.append(f"{n},{count},{seconds:.6f}")
    lines.append(f"# slope={slope:.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def fit_count_slope(rows):
    """Least-squares slope of log(count) against log(n), using only sizes
    with a nonzero count; fewer than two distinct such sizes means slope
    zero."""
    # Imported here: only bench fits, and statistics takes milliseconds to load.
    from statistics import linear_regression

    xs = [math.log(n) for n, count, _ in rows if count > 0]
    ys = [math.log(count) for _, count, _ in rows if count > 0]
    if len(set(xs)) < 2:
        return 0.0
    return linear_regression(xs, ys).slope


# ---------------------------------------------------------------------------
# argument wiring

def _int_range(low, high=None):
    """An argparse type: an integer no smaller than ``low`` and, unless
    ``high`` is None, no larger than ``high``."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = "int"
    return parse


def _size_list(text):
    """An argparse type: a nonempty comma-separated list of integers of at
    least 1; empty entries are skipped."""
    size = _int_range(1)
    sizes = []
    for token in filter(str.strip, text.split(",")):
        try:
            sizes.append(size(token))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"sizes must be integers, got {token.strip()!r}"
            ) from None
    if not sizes:
        raise argparse.ArgumentTypeError("needs at least one size")
    return sizes


def _add_bounds_flags(parser, bounds_class):
    for f in dataclasses.fields(bounds_class):
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            type=_int_range(f.metadata["minimum"], f.metadata["maximum"]),
            default=f.default,
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperclust",
        description="Overlapping clusterings of hypergraphs, with machine-"
        "checked structural properties.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cluster", help="cluster a hypergraph under a scheme")
    p.add_argument("graph", help="builtin name or hypergraph JSON path")
    p.add_argument("--scheme", required=True)
    p.add_argument("--drop-spurious", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=run_cluster)

    p = sub.add_parser("phi", help="expand a graph along motifs")
    p.add_argument("graph")
    p.add_argument("--motifs", required=True)
    p.add_argument("--budget", type=_int_range(0), default=None)
    p.add_argument("--out")
    p.set_defaults(handler=run_phi)

    p = sub.add_parser("linegraph", help="overlap line graph at a threshold")
    p.add_argument("graph")
    p.add_argument("--k", required=True)
    p.add_argument("--dot", help="also write a DOT file colored by component")
    p.add_argument("--out")
    p.set_defaults(handler=run_linegraph)

    p = sub.add_parser("check", help="run a corpus-level property check")
    p.add_argument("property", help=", ".join(_CHECK_NAMES))
    p.add_argument("--scheme")
    p.add_argument("--scheme2")
    p.add_argument("--motifs")
    p.add_argument("--graph")
    p.add_argument("--k")
    p.add_argument(
        "--extra",
        action="append",
        default=[],
        help="additional corpus graph (builtin name or JSON path); it joins "
        "every check, and functorial checks its 2^n restriction inclusions, "
        "so keep extras small",
    )
    p.add_argument("--limit", type=_int_range(0), default=25)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--out")
    _add_bounds_flags(p, CorpusBounds)
    p.set_defaults(handler=run_check)

    p = sub.add_parser(
        "witness", help="tailed-triangle witness against finite representability"
    )
    p.add_argument("--motifs", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=run_witness)

    p = sub.add_parser(
        "search", help="search for the two-spanning-components example"
    )
    _add_bounds_flags(p, SearchBounds)
    p.add_argument("--out")
    p.set_defaults(handler=run_search)

    p = sub.add_parser("bench", help="embedding-count scaling benchmark")
    p.add_argument("--motif", required=True)
    p.add_argument(
        "--family", choices=("random", "grid", "path", "hub"), default="random"
    )
    p.add_argument("--cap", type=_int_range(0), default=2, help="degeneracy cap")
    p.add_argument(
        "--sizes", type=_size_list, required=True, help="comma-separated n values"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=_int_range(1), default=1)
    p.add_argument("--out")
    p.set_defaults(handler=run_bench)

    return parser


def main(argv=None):
    """Run one command and return its exit code.

    The handler runs with the cyclic garbage collector off: a command builds
    many long-lived objects (graphs, corpus members, search indexes, parts)
    and frees little, so collections would only rescan what stays live.  The
    caller's policy comes back on every exit, a raised exception included,
    and a caller that had the collector off keeps it off.  One command
    leaves a few hundred cyclic objects behind, argparse's own cycles, and
    that count does not grow with the input.  Library calls such as
    :func:`hyperclust.schemes.cluster` leave the policy alone.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (
        ValueError,
        OSError,
        KeyError,
        SizeLimitError,
        BudgetExceededError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
