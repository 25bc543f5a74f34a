"""Span tracer for hyperclust, installed from outside the package.

The tracer replaces functions at the seams where one hyperclust layer calls
another (module attributes such as ``hyperclust.checks.canonical_key``) with
wrappers that record a span per call: name, start, end, parent span and the
trace id of the benchmark op that caused it.  Counts are taken from each
call's result at the same wrapper.  Spans live in flat arrays while the run
is going; self times and per-layer metrics are derived after it ends.

A seam that no longer exists is skipped and remembered, so a renamed helper
makes its metrics read as missing instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter


def _count_embeddings(tracer, args, result):
    counts = tracer.counts
    counts["motifs.enumerate_embeddings.found"] += len(result)
    if result:
        counts["motifs.enumerate_embeddings.hits"] += 1
    if tracer.parent_name() == "motifs.expansion_edge_sets":
        counts["motifs.expansion.copies"] += len(result)


def _count_images(tracer, args, result):
    tracer.counts["motifs.expansion.images"] += len(result)


def _count_line_graph(tracer, args, result):
    counts = tracer.counts
    n = len(result.members)
    counts["components.sets_in"] += len(args[0])
    counts["components.pairs_compared"] += n * (n - 1) // 2
    counts["components.line_edges"] += len(result.graph.edges)


def _count_report(tracer, args, result):
    # Corpus size as the checks report it.  Reading it from the report
    # rather than from the corpus object never forces lazily built parts.
    maxima = tracer.maxima
    maxima["checks.corpus.graphs"] = max(
        maxima["checks.corpus.graphs"], result.statistics.get("graphs", 0)
    )


# (module, attribute path, span name, counter).  One span name may have
# several seams: every module that imported the function holds its own
# reference to it, and each reference must be wrapped.
SEAMS = (
    ("hyperclust.checks", "canonical_key", "graphs.canonical_key", None),
    ("hyperclust.checks", "restrict", "graphs.restrict", None),
    ("hyperclust.motifs", "enumerate_embeddings", "motifs.enumerate_embeddings", _count_embeddings),
    ("hyperclust.checks", "enumerate_embeddings", "motifs.enumerate_embeddings", _count_embeddings),
    ("hyperclust.schemes", "enumerate_embeddings", "motifs.enumerate_embeddings", _count_embeddings),
    ("hyperclust.schemes", "expansion_edge_sets", "motifs.expansion_edge_sets", _count_images),
    ("hyperclust.checks", "expansion_edge_sets", "motifs.expansion_edge_sets", _count_images),
    ("hyperclust.schemes", "_line_graph_over", "components.line_graph", _count_line_graph),
    ("hyperclust.checks", "_line_graph_over", "components.line_graph", _count_line_graph),
    ("hyperclust.schemes", "component_member_unions", "components.member_unions", None),
    ("hyperclust.checks", "component_member_unions", "components.member_unions", None),
    ("hyperclust.schemes", "shared_edge_graph", "schemes.shared_edge_graph", None),
    ("hyperclust.schemes", "cluster", "schemes.cluster", None),
    ("hyperclust.checks", "cluster", "schemes.cluster", None),
    ("hyperclust.checks", "ClusterCache.parts", "checks.cluster_cache.parts", None),
    ("hyperclust.checks", "is_refinement", "partitions.is_refinement", None),
    ("hyperclust.checks", "generate_corpus", "checks.generate_corpus", None),
    ("hyperclust.cli", "generate_corpus", "checks.generate_corpus", None),
    ("hyperclust.checks", "check_excisive", "checks.check_excisive", _count_report),
    ("hyperclust.cli", "check_excisive", "checks.check_excisive", _count_report),
    ("hyperclust.checks", "check_refines", "checks.check_refines", _count_report),
    ("hyperclust.cli", "check_refines", "checks.check_refines", _count_report),
    ("hyperclust.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans at the seams while installed (``with tracer:``)."""

    def __init__(self, seams=SEAMS):
        self.seams = seams
        self.span_names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.trace_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.maxima = Counter()
        self.installed = set()
        self.missing = []
        self.uncounted = Counter()
        self.ops = []
        self._stack = [-1]
        self._current_trace = -1
        self._restore = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for module_name, path, span, counter in self.seams:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for step in outer:
                    owner = getattr(owner, step)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, counter))
            self.installed.add(span)
        return self

    def __exit__(self, *exc_info):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def begin_op(self, label):
        """Start a new trace id; spans until the next call belong to it."""
        self._current_trace = len(self.ops)
        self.ops.append(label)

    def parent_name(self):
        top = self._stack[-1]
        return None if top < 0 else self.span_names[self.name_id[top]]

    def _wrap(self, fn, span, counter):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
        nid = self._name_ids[span]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.trace_id.append(self._current_trace)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(self, args, result)
                except (AttributeError, TypeError, KeyError):
                    self.uncounted[span] += 1
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def span_table(self):
        """Spans as numpy arrays plus per-span duration and self time.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name_id, dtype=np.uint16)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(start)
        )
        child_count = np.bincount(parent[has_parent], minlength=len(start))
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - child_time,
            "children": child_count,
        }

    def write(self, path_stem, metrics):
        """Write every span (``.npz``) and the derived metrics (``.json``)."""
        import numpy as np

        np.savez(
            f"{path_stem}.npz",
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trace_id=np.frombuffer(self.trace_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        with open(f"{path_stem}.json", "w") as handle:
            json.dump(
                {
                    "span_names": self.span_names,
                    "ops": self.ops,
                    "missing_seams": self.missing,
                    "uncounted": dict(self.uncounted),
                    "metrics": metrics,
                },
                handle,
                indent=2,
                sort_keys=True,
            )


# Per-layer metric -> (unit, span names it is derived from).  A metric whose
# spans all lack an installed seam is reported as missing.
LAYER_METRICS = {
    "graphs.canonical_key.s": ("s", ("graphs.canonical_key",)),
    "graphs.canonical_key.calls": ("count", ("graphs.canonical_key",)),
    "graphs.restrict.s": ("s", ("graphs.restrict",)),
    "graphs.restrict.calls": ("count", ("graphs.restrict",)),
    "motifs.enumerate_embeddings.s": ("s", ("motifs.enumerate_embeddings",)),
    "motifs.enumerate_embeddings.calls": ("count", ("motifs.enumerate_embeddings",)),
    "motifs.enumerate_embeddings.found": ("count", ("motifs.enumerate_embeddings",)),
    "motifs.enumerate_embeddings.hit_frac": ("ratio", ("motifs.enumerate_embeddings",)),
    "motifs.expansion_edge_sets.s": ("s", ("motifs.expansion_edge_sets",)),
    "motifs.expansion.images": ("count", ("motifs.expansion_edge_sets",)),
    "motifs.expansion.copies_per_image": (
        "ratio", ("motifs.expansion_edge_sets", "motifs.enumerate_embeddings")
    ),
    "components.percolate.s": ("s", ("components.line_graph", "components.member_unions")),
    "components.sets_in": ("count", ("components.line_graph",)),
    "components.line_edges": ("count", ("components.line_graph",)),
    "components.pairs_compared": ("count", ("components.line_graph",)),
    "components.useful_pair_frac": ("ratio", ("components.line_graph",)),
    "schemes.cluster.s": ("s", ("schemes.cluster",)),
    "schemes.cluster.self_s": ("s", ("schemes.cluster",)),
    "schemes.cluster.calls": ("count", ("schemes.cluster",)),
    "schemes.shared_edge_graph.s": ("s", ("schemes.shared_edge_graph",)),
    "partitions.is_refinement.s": ("s", ("partitions.is_refinement",)),
    "checks.generate_corpus.s": ("s", ("checks.generate_corpus",)),
    "checks.generate_corpus.self_s": ("s", ("checks.generate_corpus",)),
    "checks.corpus.graphs": ("count", ("checks.check_excisive", "checks.check_refines")),
    "checks.check_excisive.self_s": ("s", ("checks.check_excisive",)),
    "checks.check_refines.self_s": ("s", ("checks.check_refines",)),
    "checks.cluster_cache.hit_frac": ("ratio", ("checks.cluster_cache.parts",)),
    "cli.self_s": ("s", ("cli.main",)),
    "trace.overhead_frac": ("ratio", ()),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, untraced_wall, traced_wall):
    """Derive every per-layer metric from the recorded spans and counts.

    Returns ``(metrics, missing)``: metrics maps each name to
    ``{"value", "unit"}``, and missing lists the metrics no installed seam
    feeds (their value reads 0).
    """
    import numpy as np

    table = tracer.span_table()
    names = table["name"]
    ids = {span: i for i, span in enumerate(tracer.span_names)}

    def select(span):
        return names == ids[span] if span in ids else np.zeros(len(names), bool)

    def total(span, column="duration"):
        return float(table[column][select(span)].sum())

    def calls(span):
        return int(select(span).sum())

    counts = tracer.counts
    parts = select("checks.cluster_cache.parts")
    parts_calls = int(parts.sum())
    parts_hits = int((table["children"][parts] == 0).sum())
    enum_calls = calls("motifs.enumerate_embeddings")
    values = {
        "graphs.canonical_key.s": total("graphs.canonical_key"),
        "graphs.canonical_key.calls": calls("graphs.canonical_key"),
        "graphs.restrict.s": total("graphs.restrict"),
        "graphs.restrict.calls": calls("graphs.restrict"),
        "motifs.enumerate_embeddings.s": total("motifs.enumerate_embeddings"),
        "motifs.enumerate_embeddings.calls": enum_calls,
        "motifs.enumerate_embeddings.found": counts["motifs.enumerate_embeddings.found"],
        "motifs.enumerate_embeddings.hit_frac": _ratio(
            counts["motifs.enumerate_embeddings.hits"], enum_calls
        ),
        "motifs.expansion_edge_sets.s": total("motifs.expansion_edge_sets"),
        "motifs.expansion.images": counts["motifs.expansion.images"],
        "motifs.expansion.copies_per_image": _ratio(
            counts["motifs.expansion.copies"], counts["motifs.expansion.images"]
        ),
        "components.percolate.s": total("components.line_graph")
        + total("components.member_unions"),
        "components.sets_in": counts["components.sets_in"],
        "components.line_edges": counts["components.line_edges"],
        "components.pairs_compared": counts["components.pairs_compared"],
        "components.useful_pair_frac": _ratio(
            counts["components.line_edges"], counts["components.pairs_compared"]
        ),
        "schemes.cluster.s": total("schemes.cluster"),
        "schemes.cluster.self_s": total("schemes.cluster", "self"),
        "schemes.cluster.calls": calls("schemes.cluster"),
        "schemes.shared_edge_graph.s": total("schemes.shared_edge_graph"),
        "partitions.is_refinement.s": total("partitions.is_refinement"),
        "checks.generate_corpus.s": total("checks.generate_corpus"),
        "checks.generate_corpus.self_s": total("checks.generate_corpus", "self"),
        "checks.corpus.graphs": tracer.maxima["checks.corpus.graphs"],
        "checks.check_excisive.self_s": total("checks.check_excisive", "self"),
        "checks.check_refines.self_s": total("checks.check_refines", "self"),
        "checks.cluster_cache.hit_frac": _ratio(parts_hits, parts_calls),
        "cli.self_s": total("cli.main", "self"),
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
    }
    metrics = {}
    missing = []
    for metric, (unit, spans) in LAYER_METRICS.items():
        if spans and not any(span in tracer.installed for span in spans):
            missing.append(metric)
        metrics[metric] = {"value": values[metric], "unit": unit}
    return metrics, missing
