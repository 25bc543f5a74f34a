"""The planted-community generator in ``scripts/planted.py``."""

import ast
import collections
import importlib.util
import json
import pathlib
import subprocess
import sys

from hyperclust.graphs import valid_hypergraph_from_json

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "planted.py"

spec = importlib.util.spec_from_file_location("planted", SCRIPT)
planted = importlib.util.module_from_spec(spec)
spec.loader.exec_module(planted)


def generated(edges, seed):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--edges", str(edges), "--seed", str(seed)],
        capture_output=True,
        check=True,
    )
    return proc.stdout


def test_a_seed_gives_the_same_bytes_and_another_seed_differs():
    first = generated(3000, 5)
    assert generated(3000, 5) == first
    assert generated(3000, 6) != first
    assert json.loads(first) == planted.planted(3000, 5)


def test_the_size_histogram_depends_only_on_the_edge_count():
    for seed in (5, 6):
        graph = valid_hypergraph_from_json(planted.planted(1000, seed), "planted")
        assert len(graph.edges) == len(graph.edge_sets()) == 1000
        sizes = collections.Counter(len(s) for s in graph.edges.values())
        assert sizes == {2: 334, 3: 333, 4: 333}
        assert len(graph.vertices) == 300


def test_nine_in_ten_edges_lie_inside_one_community():
    graph = valid_hypergraph_from_json(planted.planted(1000, 5), "planted")
    community = {v: i // 30 for i, v in enumerate(graph.vertices)}
    inside = [eid for eid, s in graph.edges.items() if len({community[v] for v in s}) == 1]
    assert sorted(graph.edges)[:900] == sorted(inside)[:900]


def test_small_counts_still_end():
    for edges in (1, 2, 7, 99, 100, 101):
        graph = valid_hypergraph_from_json(planted.planted(edges, 1), "planted")
        assert len(graph.edge_sets()) == edges


def test_imports_only_the_standard_library():
    tree = ast.parse(SCRIPT.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[0])
    assert names <= set(sys.stdlib_module_names)
