"""Independent reference answers for the cluster workloads.

Overlap clustering is recomputed from a vertex -> sets index (only pairs that
share a vertex are ever compared) and ``networkx.connected_components``;
cliques come from networkx.  Nothing here calls into hyperclust.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict

import networkx as nx


def overlap_parts(sets, k):
    """Parts of the overlap clustering of ``sets`` at threshold ``k``: the
    unions of the components of "shares at least k vertices"."""
    sets = list(dict.fromkeys(frozenset(s) for s in sets))
    index = defaultdict(list)
    for i, members in enumerate(sets):
        for v in members:
            index[v].append(i)
    line = nx.Graph()
    line.add_nodes_from(range(len(sets)))
    if k == 1:
        for holders in index.values():
            line.add_edges_from(zip(holders, holders[1:]))
    else:
        shared = Counter()
        for holders in index.values():
            shared.update(itertools.combinations(holders, 2))
        line.add_edges_from(pair for pair, n in shared.items() if n >= k)
    return frozenset(
        frozenset().union(*(sets[i] for i in component))
        for component in nx.connected_components(line)
    )


def cliques(graph, size):
    """Vertex sets of all ``size``-cliques of a simple hypergraph."""
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices)
    nx_graph.add_edges_from(tuple(s) for s in graph.edges.values())
    found = []
    for clique in nx.enumerate_all_cliques(nx_graph):
        if len(clique) > size:
            break
        if len(clique) == size:
            found.append(frozenset(clique))
    return found


def edge_sets(graph):
    """What ``{E*}`` expands a hypergraph to: its distinct edge vertex sets."""
    return list(dict.fromkeys(graph.edges.values()))
