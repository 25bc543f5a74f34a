import dataclasses
import gc
import itertools
import json
import math
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperclust import checks, cli
from hyperclust.cli import (
    build_parser,
    fit_count_slope,
    main,
    parse_graph_arg,
    parse_motif_list,
    parse_scheme_spec,
)
from hyperclust.components import INFINITE
from hyperclust.graphs import (
    Hypergraph,
    build_named,
    complete_graph,
    hypergraph_to_json,
    linear_triangle,
    path,
    simplex,
)
from hyperclust.schemes import (
    ComponentScheme,
    MotifScheme,
    SharedEdgeScheme,
    ToyScheme,
    cluster,
    scheme_to_json,
)

from test_checks import (
    break_extended_expansion,
    cluster_with_a_stray_vertex,
    gains_nothing,
    gains_on_edgeless_members,
)


SMALL = [
    "--max-vertices", "3",
    "--max-edges", "2",
    "--max-edge-size", "3",
    "--max-morphism-vertices", "3",
    "--max-simple-vertices", "4",
]

TINY = [
    "--max-edges", "1",
    "--max-edge-size", "1",
    "--max-morphism-vertices", "1",
    "--max-simple-vertices", "0",
]
TWO_SCHEMES = [
    "--scheme", "representable:{E*},k=1",
    "--scheme2", "representable:{E*},k=2",
]
E_STAR_2 = ["--scheme", "representable:{E*},k=2"]

ONE_SCHEME_SPECS = (
    "representable:{E*},k=2",
    "sigma",
    "toy:noprops",
    "toy:component_rule",
    "toy:always_one_part_except_K2",
)
TWO_SCHEME_SPECS = (
    "representable:{E*},k=1",
    "representable:{E*},k=2",
    "toy:component_rule",
)
E3_ON_E3 = ["--motifs", "{E_3}", "--graph", "E_3"]
K2_ON_P3 = ["--motifs", "{K_2}", "--graph", "P_3"]
# A broken expansion under which a hull check fails: (motifs, graph, change).
GAINS = ((simplex(3),), simplex(3), gains_on_edgeless_members)
LOSES = ((complete_graph(2),), path(3), gains_nothing)
# Each property's runs as (argv, broken expansion or None); each property
# has passing and failing runs.
VERDICT_RUNS = {
    "excisive": [(["--scheme", s], None) for s in ONE_SCHEME_SPECS],
    "functorial": [(["--scheme", s], None) for s in ONE_SCHEME_SPECS],
    "refines": [
        (["--scheme", a, "--scheme2", b], None)
        for a, b in itertools.product(TWO_SCHEME_SPECS, repeat=2)
    ],
    "equal": [
        (["--scheme", a, "--scheme2", b], None)
        for a, b in itertools.product(TWO_SCHEME_SPECS, repeat=2)
    ],
    "hull": [
        (E3_ON_E3, None),
        (K2_ON_P3, None),
        (E3_ON_E3, GAINS),
        (K2_ON_P3, LOSES),
    ],
    "connected-hull": [
        ([*argv, "--k", k], None)
        for argv in (E3_ON_E3, K2_ON_P3)
        for k in ("1", "2", "inf")
    ] + [
        ([*E3_ON_E3, "--k", "1"], GAINS),
        ([*K2_ON_P3, "--k", "2"], LOSES),
    ],
}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(tmp_path / "cache"))


def name_clash_file(tmp_path):
    # {"a,b", "c"} and {"a", "b", "c"} would both print as "{a,b,c}" if the
    # comma in a member name were not escaped.
    target = tmp_path / "clash.json"
    graph = Hypergraph(["a", "b", "c", "a,b"], {"e1": ("a,b", "c"), "e2": "abc"})
    target.write_text(json.dumps(hypergraph_to_json(graph)))
    return str(target)


def short_clash_file(tmp_path):
    # {a,b} and {"a,b"} would both print as "{a,b}" unescaped, and the whole
    # vertex set as "{a,a,b,b,c}".
    target = tmp_path / "short_clash.json"
    graph = Hypergraph(
        ["a", "b", "a,b", "c"], {"e1": "ab", "e2": ("a,b", "c"), "e3": ("a,b",)}
    )
    target.write_text(json.dumps(hypergraph_to_json(graph)))
    return str(target)


def id_clash_file(tmp_path):
    # K_2 embeds as v1->"a,v2:b", v2->c and as v1->a, v2->"b,v2:c"; with
    # names unescaped, both expansion edge ids would print as
    # "m0[v1:a,v2:b,v2:c]".
    target = tmp_path / "id_clash.json"
    graph = Hypergraph(
        ["a,v2:b", "c", "a", "b,v2:c"],
        {"e1": ("a,v2:b", "c"), "e2": ("a", "b,v2:c")},
    )
    target.write_text(json.dumps(hypergraph_to_json(graph)))
    return str(target)


def dot_ids(line):
    """The quoted IDs of one DOT line, read as Graphviz reads them: \\"
    stands for " and a backslash pair for itself."""
    return [
        re.sub(r'\\(["\\])', lambda m: m[0] if m[1] == "\\" else m[1], text)
        for text in re.findall(r'"((?:[^"\\]|\\.)*)"', line)
    ]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused_at_parse(capsys, *argv):
    """Stdout and stderr of a command line the parser rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestParsing:
    def test_builtin_graph_names(self):
        assert parse_graph_arg("E_3") == simplex(3)
        assert parse_graph_arg("k2") == complete_graph(2)

    def test_graph_from_file(self, tmp_path):
        target = tmp_path / "graph.json"
        target.write_text(json.dumps(hypergraph_to_json(path(3))))
        assert parse_graph_arg(str(target)) == path(3)
        assert parse_graph_arg(f"@{target}") == path(3)

    def test_invalid_graph_file_is_rejected(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({
            "vertices": ["a"],
            "edges": [{"id": "e1", "vertices": ["a", "zz"]}],
        }))
        with pytest.raises(ValueError):
            parse_graph_arg(str(target))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_graph_arg("Z_9")

    def test_motif_lists(self):
        assert parse_motif_list("{K_2,E_3}") == (complete_graph(2), simplex(3))
        assert parse_motif_list("E*") == ("E*",)
        assert parse_motif_list("{}") == ()
        assert parse_motif_list("{R*, K_2}") == ("R*", complete_graph(2))

    @pytest.mark.parametrize("text,expected", [
        ("classic", ComponentScheme()),
        ("toy:noprops", ToyScheme("noprops")),
        ("sigma", SharedEdgeScheme(linear_triangle())),
        ("sigma:D_default", SharedEdgeScheme(linear_triangle())),
        ("representable:{K_2}", MotifScheme((complete_graph(2),), 1)),
        ("representable:{E*},k=2", MotifScheme(("E*",), 2)),
        ("representable:{E*},k=inf", MotifScheme(("E*",), INFINITE)),
    ])
    def test_scheme_specs(self, text, expected):
        assert parse_scheme_spec(text) == expected

    def test_scheme_from_file(self, tmp_path):
        target = tmp_path / "scheme.json"
        target.write_text(json.dumps(scheme_to_json(MotifScheme(("E*",), 3))))
        assert parse_scheme_spec(f"@{target}") == MotifScheme(("E*",), 3)

    def test_bad_scheme_specs(self):
        with pytest.raises(ValueError):
            parse_scheme_spec("fancy")
        with pytest.raises(ValueError):
            parse_scheme_spec("toy:mystery")

    def test_bound_flags_default_to_the_bounds_dataclasses(self):
        parser = build_parser()
        for argv, bounds in (
            (["check", "excisive"], checks.CorpusBounds()),
            (["search"], checks.SearchBounds()),
        ):
            args = parser.parse_args(argv)
            parsed = {f.name: getattr(args, f.name) for f in dataclasses.fields(bounds)}
            assert parsed == dataclasses.asdict(bounds)

    def test_parser_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCluster:
    def test_basic_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "cluster", "E_3", "--scheme", "representable:{E*},k=1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["parts"] == [["v1", "v2", "v3"]]
        assert data["underlying"] == ["v1", "v2", "v3"]
        assert data["scheme"]["kind"] == "representable"

    def test_output_is_byte_stable(self, capsys):
        args = ("cluster", "C_5", "--scheme", "representable:{E*},k=2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_drop_spurious(self, capsys, tmp_path):
        target = tmp_path / "nested.json"
        target.write_text(json.dumps(hypergraph_to_json(
            simplex(3).__class__("abc", {"e1": "ab", "e2": "abc"})
        )))
        args = ("cluster", str(target), "--scheme", "representable:{E*},k=inf")
        _, plain, _ = run_cli(capsys, *args)
        code, cleaned, _ = run_cli(capsys, *args, "--drop-spurious")
        assert code == 0
        assert json.loads(plain)["parts"] == [["a", "b"], ["a", "b", "c"]]
        assert json.loads(cleaned)["parts"] == [["a", "b", "c"]]

    def test_out_flag_writes_a_file(self, capsys, tmp_path):
        target = tmp_path / "parts.json"
        code, out, _ = run_cli(
            capsys, "cluster", "K_2", "--scheme", "classic",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["parts"] == [["v1", "v2"]]

    def test_vertex_names_may_contain_commas(self, capsys, tmp_path):
        graph = name_clash_file(tmp_path)
        code, out, _ = run_cli(
            capsys, "cluster", graph, "--scheme", "representable:{E*},k=inf"
        )
        assert code == 0
        assert json.loads(out)["parts"] == [["a", "b", "c"], ["a,b", "c"]]
        _, out, _ = run_cli(
            capsys, "cluster", graph, "--scheme", "representable:{E*},k=1"
        )
        assert json.loads(out)["parts"] == [["a", "a,b", "b", "c"]]

    def test_toy_rule_on_a_graph_over_eight_vertices(self, capsys):
        code, out, _ = run_cli(
            capsys, "cluster", "F_2", "--scheme", "toy:always_one_part_except_K2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["parts"] == [sorted(build_named("F_2").vertices)]

    def test_classic_scheme_rejects_hypergraphs(self, capsys):
        code, _, err = run_cli(capsys, "cluster", "E_3", "--scheme", "classic")
        assert code == 2
        assert err.startswith("error:")


class TestPhi:
    def test_expansion_output(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "K_3", "--motifs", "{K_2}")
        assert code == 0
        data = json.loads(out)
        assert len(data["edges"]) == 6
        assert data["vertices"] == ["v1", "v2", "v3"]

    def test_family_markers_are_refused(self, capsys):
        code, _, err = run_cli(capsys, "phi", "K_3", "--motifs", "E*")
        assert code == 2
        assert "family marker" in err

    def test_names_with_separators_get_distinct_edge_ids(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "phi", id_clash_file(tmp_path), "--motifs", "{K_2}"
        )
        assert code == 0
        ids = [edge["id"] for edge in json.loads(out)["edges"]]
        assert len(set(ids)) == 4
        assert "m0[v1:a\\,v2\\:b,v2:c]" in ids
        assert "m0[v1:a,v2:b\\,v2\\:c]" in ids

    def test_negative_budget_is_refused(self, capsys):
        out, err = refused_at_parse(
            capsys, "phi", "K_3", "--motifs", "{K_2}", "--budget", "-1"
        )
        assert out == ""
        assert "argument --budget: must be at least 0, got -1" in err

    def test_budget_overrun_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "phi", "K_6", "--motifs", "{P_3}", "--budget", "5"
        )
        assert code == 2
        assert "budget" in err


class TestLinegraph:
    def test_members_and_edges(self, capsys):
        code, out, _ = run_cli(capsys, "linegraph", "P_3", "--k", "1")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 1
        assert data["vertices"] == ["{v1,v2}", "{v2,v3}"]
        assert data["edges"] == [["{v1,v2}", "{v2,v3}"]]
        assert data["members"]["{v1,v2}"] == ["v1", "v2"]

    def test_infinite_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "linegraph", "K_3", "--k", "inf")
        data = json.loads(out)
        assert code == 0
        assert data["k"] == "inf"
        assert data["edges"] == []

    def test_names_with_separators_get_distinct_vertices(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "linegraph", short_clash_file(tmp_path), "--k", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == ["{a,b}", "{a\\,b,c}", "{a\\,b}"]
        assert data["members"] == {
            "{a,b}": ["a", "b"],
            "{a\\,b,c}": ["a,b", "c"],
            "{a\\,b}": ["a,b"],
        }
        assert data["edges"] == [["{a\\,b,c}", "{a\\,b}"]]
        code, out, _ = run_cli(
            capsys, "linegraph", name_clash_file(tmp_path), "--k", "inf"
        )
        assert code == 0
        assert json.loads(out)["vertices"] == ["{a,b,c}", "{a\\,b,c}"]

    def test_dot_export_colors_components(self, capsys, tmp_path):
        dot_path = tmp_path / "line.dot"
        graph_path = tmp_path / "two.json"
        graph_path.write_text(json.dumps(hypergraph_to_json(
            path(2).__class__("abcd", {"e1": "ab", "e2": "cd"})
        )))
        code, _, _ = run_cli(
            capsys, "linegraph", str(graph_path), "--k", "1",
            "--dot", str(dot_path),
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("graph linegraph {")
        colors = {
            line.split('fillcolor="')[1].split('"')[0]
            for line in text.splitlines()
            if "fillcolor" in line
        }
        assert len(colors) == 2

    def test_dot_ids_escape_quotes(self, capsys, tmp_path):
        # Set names double every backslash, so a " in a name always follows
        # an even run of them, and escaping it leaves an odd run.
        graph_path = tmp_path / "quotes.json"
        graph = Hypergraph(
            ['a"b', "c", "d", 'x\\"'],
            {"e1": ('a"b', "c"), "e2": "cd", "e3": ("d", 'x\\"')},
        )
        graph_path.write_text(json.dumps(hypergraph_to_json(graph)))
        dot_path = tmp_path / "quotes.dot"
        code, out, _ = run_cli(
            capsys, "linegraph", str(graph_path), "--k", "1", "--dot", str(dot_path)
        )
        assert code == 0
        data = json.loads(out)
        lines = dot_path.read_text().splitlines()[1:-1]
        nodes = [dot_ids(line)[0] for line in lines if "fillcolor" in line]
        edges = [sorted(dot_ids(line)) for line in lines if " -- " in line]
        assert nodes == data["vertices"] == ['{a"b,c}', "{c,d}", '{d,x\\\\"}']
        assert edges == data["edges"]
        assert len(nodes) + len(edges) == len(lines)


class TestCheck:
    def test_passing_check_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "excisive",
            "--scheme", "representable:{E*},k=2", *SMALL,
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["statistics"]["failures"] == 0

    def test_failing_check_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "excisive", "--scheme", "toy:noprops", *SMALL,
        )
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "fail"
        assert data["counterexamples"]

    def test_report_states_its_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "check", "excisive", *E_STAR_2, "--max-vertices", "3")
        assert code == 0
        expected = dataclasses.replace(checks.CorpusBounds(), max_vertices=3)
        assert json.loads(out)["bounds"] == dataclasses.asdict(expected)

    def test_unknown_property(self, capsys):
        code, _, err = run_cli(capsys, "check", "magic", "--scheme", "classic")
        assert code == 2
        assert "unknown property" in err

    def test_missing_scheme(self, capsys):
        code, _, err = run_cli(capsys, "check", "excisive", *SMALL)
        assert code == 2
        assert "--scheme" in err

    def test_whole_size_part_with_a_stray_vertex_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "cluster", cluster_with_a_stray_vertex)
        code, out, err = run_cli(capsys, "check", "excisive", *E_STAR_2, *SMALL)
        assert code == 2
        assert out == ""
        assert "part contains vertices outside the graph: ~" in err

    def test_limit_truncates_counterexamples(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "equal",
            "--scheme", "representable:{E*},k=1",
            "--scheme2", "representable:{E*},k=inf",
            "--limit", "2", *SMALL,
        )
        assert code == 1
        data = json.loads(out)
        assert len(data["counterexamples"]) == 2
        assert data["statistics"]["counterexamples_total"] > 2

    @pytest.mark.parametrize(
        "flag, value, low",
        [
            ("--max-vertices", "-1", 0),
            ("--max-edges", "-1", 0),
            ("--max-edge-size", "0", 1),
            ("--max-morphism-vertices", "-1", 0),
            ("--max-simple-vertices", "-1", 0),
        ],
    )
    def test_bounds_below_their_minimum_are_refused(self, capsys, flag, value, low):
        out, err = refused_at_parse(capsys, "check", "excisive", *E_STAR_2, flag, value)
        assert out == ""
        assert f"argument {flag}: must be at least {low}, got {value}" in err

    @pytest.mark.parametrize("value", ["8", "12"])
    def test_simple_vertices_beyond_the_atlas_are_refused(self, capsys, value):
        out, err = refused_at_parse(
            capsys, "check", "excisive", *E_STAR_2, "--max-simple-vertices", value
        )
        assert out == ""
        assert f"argument --max-simple-vertices: must be at most 7, got {value}" in err

    def test_negative_limit_is_refused(self, capsys):
        out, err = refused_at_parse(
            capsys, "check", "equal",
            "--scheme", "representable:{E*},k=1",
            "--scheme2", "representable:{E*},k=inf",
            "--limit", "-1", *SMALL,
        )
        assert out == ""
        assert "argument --limit: must be at least 0, got -1" in err

    @pytest.mark.parametrize(
        "argv, expected, statistics",
        [
            (
                ["excisive", "--scheme", "toy:component_rule", *SMALL],
                1,
                {"failures": 6, "graphs": 36, "parts_checked": 61},
            ),
            (["refines", *TWO_SCHEMES, *SMALL], 1, {"failures": 13, "graphs": 36}),
            (["equal", *TWO_SCHEMES, *SMALL], 1, {"failures": 13, "graphs": 36}),
            (
                ["functorial", "--scheme", "toy:always_one_part_except_K2", *SMALL],
                1,
                {"failures": 4, "graphs": 36, "morphisms": 827},
            ),
            # three corpus graphs
            (
                ["excisive", *E_STAR_2, *TINY, "--max-vertices", "1"],
                0,
                {"failures": 0, "graphs": 3, "parts_checked": 1},
            ),
            # a single corpus graph, the empty one
            (
                ["excisive", *E_STAR_2, *TINY, "--max-vertices", "0"],
                0,
                {"failures": 0, "graphs": 1, "parts_checked": 0},
            ),
        ],
        ids=["excisive", "refines", "equal", "functorial", "tiny", "one-graph"],
    )
    def test_check_statistics(self, capsys, argv, expected, statistics):
        code, out, _ = run_cli(capsys, "check", *argv)
        assert code == expected
        shown = statistics["failures"]
        assert json.loads(out)["statistics"] == {
            "counterexamples_shown": shown,
            "counterexamples_total": shown,
            **statistics,
        }

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["excisive", *E_STAR_2], 0),
            (["refines", *TWO_SCHEMES], 1),
            (["equal", *TWO_SCHEMES], 1),
        ],
        ids=["excisive", "refines", "equal"],
    )
    def test_graph_checks_never_build_morphisms(
        self, capsys, monkeypatch, argv, expected
    ):
        def refuse(graphs, bounds):
            raise AssertionError("a graph check built the corpus morphisms")

        monkeypatch.setattr(checks, "_build_morphisms", refuse)
        code, _, _ = run_cli(capsys, "check", *argv, *SMALL)
        assert code == expected

    def test_jobs_is_not_an_option(self, capsys):
        out, err = refused_at_parse(capsys, "check", "excisive", *E_STAR_2, "--jobs", "2")
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err

    def test_functorial_checks_extra_graphs(self, capsys):
        base = ("check", "functorial", *E_STAR_2, *SMALL)
        _, bare, _ = run_cli(capsys, *base)
        code, out, _ = run_cli(capsys, *base, "--extra", "P_7")
        assert code == 0
        before = json.loads(bare)["statistics"]
        after = json.loads(out)["statistics"]
        assert after["graphs"] == before["graphs"] + 1
        # P_7 has more than --max-morphism-vertices vertices, so it brings
        # exactly the inclusions of its 2**7 restrictions
        assert after["morphisms"] == before["morphisms"] + 2**7

    @pytest.mark.parametrize("prop", VERDICT_RUNS)
    def test_exit_code_verdict_and_counterexamples_agree(self, capsys, monkeypatch, prop):
        codes = set()
        for argv, broken in VERDICT_RUNS[prop]:
            with monkeypatch.context() as patch:
                if broken:
                    motifs, graph, change = broken
                    break_extended_expansion(patch, motifs, graph, change(motifs, graph))
                code, out, _ = run_cli(capsys, "check", prop, *argv, *SMALL)
            data = json.loads(out)
            total = data["statistics"]["counterexamples_total"]
            assert code in (0, 1), argv
            assert (code == 0) == (data["verdict"] == "pass") == (total == 0), argv
            codes.add(code)
        assert codes == {0, 1}

    def test_hull_check_via_cli(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "hull",
            "--motifs", "{K_2}", "--graph", "P_3", *SMALL,
        )
        assert code == 0
        data = json.loads(out)
        assert data["check"] == "hull"
        assert data["statistics"]["spanned"] is False

    def test_hull_prints_separators_in_set_names_escaped(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "check", "hull",
            "--motifs", "{K_2}", "--graph", short_clash_file(tmp_path), *SMALL,
        )
        assert code == 0
        witness = json.loads(out)["statistics"]["difference_witness"]
        assert witness["gained_edge_sets"] == ["{a,a\\,b,b,c}"]

    def test_hull_with_k_dispatches_to_connected_variant(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "hull",
            "--motifs", "{K_2}", "--graph", "P_3", "--k", "1", *SMALL,
        )
        assert code == 0
        assert json.loads(out)["check"] == "connected-hull"

    def test_connected_hull_requires_k(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "connected-hull",
            "--motifs", "{K_2}", "--graph", "P_3", *SMALL,
        )
        assert code == 2
        assert "--k" in err

    def test_extra_graphs_join_the_corpus(self, capsys):
        base = (
            "check", "hull", "--motifs", "{K_2}", "--graph", "P_3", *SMALL,
        )
        _, plain, _ = run_cli(capsys, *base)
        _, extended, _ = run_cli(capsys, *base, "--extra", "C_5")
        before = json.loads(plain)["statistics"]["graphs_checked"]
        after = json.loads(extended)["statistics"]["graphs_checked"]
        assert after == before + 1

    def test_family_markers_refused_in_hull_motifs(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "hull",
            "--motifs", "E*", "--graph", "P_3", *SMALL,
        )
        assert code == 2
        assert "concrete motifs" in err

    @pytest.mark.parametrize("prop, k", [("hull", []), ("connected-hull", ["--k", "2"])])
    def test_graph_without_vertices_is_refused(self, capsys, tmp_path, prop, k):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"vertices": [], "edges": []}))
        code, out, err = run_cli(
            capsys, "check", prop, "--motifs", "{K_2}", "--graph", str(empty), *k, *SMALL,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {prop} needs a --graph with at least one vertex\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["connected-hull", "--motifs", "{K_2}", "--graph", "P_3"],
             "connected-hull needs --k"),
            (["connected-hull", "--motifs", "{K_2}", "--graph", "P_3", "--k", "nope"],
             "bad overlap threshold: 'nope'"),
            (["hull", "--graph", "P_3"], "hull needs --motifs and --graph"),
            (["hull", "--motifs", "{E*}", "--graph", "P_3"], "hull needs concrete motifs"),
            (["hull", "--motifs", "{K_2}", "--graph", "nonsense"],
             "graph argument 'nonsense' is neither a file nor a builtin name"),
            (["equal", "--scheme", "classic"], "equal needs --scheme and --scheme2"),
            (["refines", "--scheme", "classic", "--scheme2", "toy:nah"],
             "unknown toy rule: 'nah'"),
            (["functorial"], "functorial needs --scheme"),
            (["excisive", "--scheme", "bogus"], "unrecognized scheme spec: 'bogus'"),
            (["excisive", "--scheme", "classic", "--extra", "nonsense"],
             "graph argument 'nonsense' is neither a file nor a builtin name"),
        ],
    )
    def test_usage_errors_are_refused_before_the_corpus_is_built(
        self, capsys, monkeypatch, tmp_path, argv, message
    ):
        # Five edges make a cold corpus take seconds to build; a refusal
        # must come before it and leave the cache directory empty.
        cache = tmp_path / "empty-cache"
        cache.mkdir()
        monkeypatch.setenv("HYPERCLUST_CACHE_DIR", str(cache))
        code, out, err = run_cli(capsys, "check", *argv, "--max-edges", "5")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert list(cache.iterdir()) == []


class TestWitness:
    def test_tailed_triangles(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--motifs", "{R_0,R_1}")
        assert code == 0
        data = json.loads(out)
        assert data["radius"] == 1
        assert data["verdict"] == "pass"
        assert data["per_graph_radius"] == [0, 1]

    def test_rejects_family_markers(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--motifs", "R*")
        assert code == 2
        assert "concrete" in err

    def test_rejects_triangle_free_motifs(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--motifs", "{P_3}")
        assert code == 2
        assert "triangle" in err

    def test_rejects_non_simple_motifs_by_its_own_name(self, capsys, tmp_path):
        # K_3 plus the 3-edge {b, c, d}: a triangle, but not a simple graph.
        motif = tmp_path / "k3-and-triple.json"
        graph = Hypergraph("abcd", {"e1": "ab", "e2": "ac", "e3": "bc", "e4": "bcd"})
        motif.write_text(json.dumps(hypergraph_to_json(graph)))
        code, out, err = run_cli(capsys, "witness", "--motifs", str(motif))
        assert (code, out) == (2, "")
        assert err == "error: finite_rep_witness requires a simple graph\n"


class TestSearch:
    def test_exhausted_at_tiny_bounds(self, capsys):
        # Every bound below 8 vertices is decided.
        for max_vertices in ("4", "5", "6", "7"):
            code, out, err = run_cli(capsys, "search", "--max-vertices", max_vertices)
            assert (code, err) == (0, "")
            data = json.loads(out)
            assert data["outcome"] == "exhausted"
            assert data["exhaustive_search"] is True
            assert "witness" not in data

    def test_witness_at_default_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "search")
        assert code == 0
        data = json.loads(out)
        assert data["outcome"] == "witness"
        assert data["transcript"]["spanning_components"] >= 2

    @pytest.mark.parametrize(
        "flag, value, low",
        [
            ("--max-vertices", "-1", 0),
            ("--max-edges", "-1", 0),
            ("--max-edge-size", "0", 1),
        ],
    )
    def test_values_below_their_minimum_are_refused(self, capsys, flag, value, low):
        out, err = refused_at_parse(capsys, "search", "--max-vertices", "4", flag, value)
        assert out == ""
        assert f"argument {flag}: must be at least {low}, got {value}" in err

    @pytest.mark.parametrize("max_edges", ["0", "2", "3"])
    def test_few_edges_claim_nothing(self, capsys, max_edges):
        code, out, err = run_cli(
            capsys, "search", "--max-vertices", "8", "--max-edges", max_edges
        )
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["outcome"] == "exhausted"
        assert data["exhaustive_search"] is False
        assert "trials" not in data

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_no_random_lane_flags(self, capsys, flag):
        out, err = refused_at_parse(capsys, "search", flag, "1")
        assert out == ""
        assert f"unrecognized arguments: {flag} 1" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "search")
        _, second, _ = run_cli(capsys, "search")
        assert first == second


class TestBench:
    def test_csv_shape_and_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--motif", "K_2", "--family", "path",
            "--sizes", "10,20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,embeddings,seconds"
        assert lines[1].startswith("10,18,")
        assert lines[2].startswith("20,38,")
        slope = float(lines[3].split("=")[1])
        assert 0.9 < slope < 1.2

    def test_zero_counts_give_zero_slope(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--motif", "K_3", "--family", "path",
            "--sizes", "10,20",
        )
        assert code == 0
        assert out.strip().endswith("# slope=0.0000")

    def test_random_family_is_seed_stable(self, capsys):
        args = (
            "bench", "--motif", "P_3", "--sizes", "30,60",
            "--seed", "11", "--cap", "2",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        first_counts = [line.split(",")[1] for line in first.splitlines()[1:3]]
        second_counts = [line.split(",")[1] for line in second.splitlines()[1:3]]
        assert first_counts == second_counts

    def test_non_simple_motifs_are_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--motif", "E_3", "--family", "path",
            "--sizes", "10",
        )
        assert code == 2
        assert "simple" in err

    def test_repeat_below_one_is_refused(self, capsys):
        out, err = refused_at_parse(
            capsys, "bench", "--motif", "K_2", "--family", "path",
            "--sizes", "10", "--repeat", "0",
        )
        assert out == ""
        assert "argument --repeat: must be at least 1, got 0" in err

    def test_negative_cap_is_refused(self, capsys):
        out, err = refused_at_parse(
            capsys, "bench", "--motif", "P_3", "--sizes", "10,20", "--cap", "-1",
        )
        assert out == ""
        assert "argument --cap: must be at least 0, got -1" in err

    @pytest.mark.parametrize(
        "family, sizes, message",
        [
            ("random", "10,x", "sizes must be integers, got 'x'"),
            ("random", "0,10", "must be at least 1, got 0"),
            ("path", "0,10", "must be at least 1, got 0"),
            ("grid", "10,-4", "must be at least 1, got -4"),
            ("hub", " , ", "needs at least one size"),
        ],
    )
    def test_bad_sizes_are_refused(self, capsys, family, sizes, message):
        out, err = refused_at_parse(
            capsys, "bench", "--motif", "P_3", "--family", family, "--sizes", sizes,
        )
        assert out == ""
        assert f"argument --sizes: {message}" in err

    def test_sizes_skip_empty_entries(self, capsys):
        _, spaced, _ = run_cli(
            capsys, "bench", "--motif", "K_2", "--family", "path",
            "--sizes", " 10, ,20,",
        )
        _, plain, _ = run_cli(
            capsys, "bench", "--motif", "K_2", "--family", "path", "--sizes", "10,20",
        )
        counts = [line.split(",")[:2] for line in spaced.splitlines()[1:3]]
        assert counts == [line.split(",")[:2] for line in plain.splitlines()[1:3]]
        assert counts == [["10", "18"], ["20", "38"]]

    @pytest.mark.parametrize(
        "family, sizes", [("random", "100,100"), ("grid", "100,120")]
    )
    def test_repeated_sizes_are_refused(self, capsys, family, sizes):
        # A fit over one distinct graph size has no slope to report.
        code, out, err = run_cli(
            capsys, "bench", "--motif", "P_3", "--family", family, "--sizes", sizes,
        )
        assert code == 2
        assert out == ""
        assert "--sizes" in err

    def test_hub_family_counts_its_triangles(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--motif", "K_3", "--family", "hub",
            "--sizes", "10,20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        # The hub and a path on n vertices close n - 1 triangles, 6 maps each.
        assert lines[1].startswith("11,54,")
        assert lines[2].startswith("21,114,")

    def test_fit_count_slope(self):
        assert fit_count_slope([(10, 100, 0.0), (100, 10000, 0.0)]) == pytest.approx(2.0)
        assert fit_count_slope([(10, 0, 0.0), (100, 0, 0.0)]) == 0.0
        assert fit_count_slope([(10, 5, 0.0)]) == 0.0
        assert fit_count_slope([(10, 5, 0.0), (10, 7, 0.0)]) == 0.0
        # The least-squares line through three points that are not collinear.
        rows = [(1, 1, 0.0), (math.e, math.e, 0.0), (math.e ** 2, math.e ** 4, 0.0)]
        assert fit_count_slope(rows) == pytest.approx(2.0)


def _motif(*edges):
    """Inline motif JSON on vertices a, b, c with edges e1, e2, ... as given."""
    return {
        "vertices": ["a", "b", "c"],
        "edges": [{"id": f"e{i + 1}", "vertices": e} for i, e in enumerate(edges)],
    }


# Scheme JSON as a user might write it: every kind and an unknown one, a
# key missing or a value of the wrong type now and then, and inline motifs
# whose edges may be empty or name vertices the motif lacks.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.text("abz*", max_size=2),
    st.lists(st.integers(0, 1), max_size=2), st.just({}),
)


@st.composite
def _mangled(draw, fields):
    """A dict drawn from ``fields``; one time in four, one key is dropped or
    its value replaced by junk."""
    data = {key: draw(value) for key, value in fields.items()}
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(fields)))
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(_JUNK)
    return data


def _scheme_json():
    names = st.sampled_from(["a", "b", "c", "z", ""])
    edge = _mangled({
        "id": st.sampled_from(["e1", "e2", "e3"]),
        "vertices": st.lists(names, max_size=3),
    })
    motif = _mangled({
        "vertices": st.lists(names, max_size=4),
        "edges": st.lists(edge, max_size=3),
    })
    motif_entry = st.one_of(motif, st.sampled_from(["E*", "R*", "K_2", "Z_9"]))
    schemes = st.one_of(
        _mangled({
            "kind": st.just("representable"),
            "motifs": st.lists(motif_entry, max_size=2),
            "k": st.sampled_from([1, 2, "inf", 0, "x", 1.5]),
        }),
        _mangled({"kind": st.just("sigma"), "motif": motif}),
        _mangled({"kind": st.just("classic")}),
        _mangled({
            "kind": st.just("toy"),
            "id": st.sampled_from(["noprops", "component_rule", "mystery"]),
        }),
        _mangled({"kind": st.just("quantum")}),
    )
    return st.one_of(schemes, _JUNK)


class TestErrorPaths:
    def test_malformed_json_file(self, capsys, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{nope")
        code, _, err = run_cli(
            capsys, "cluster", str(target), "--scheme", "classic"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_graph_json_names_its_file(self, capsys, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({"vertices": "v10", "edges": []}))
        code, out, err = run_cli(capsys, "cluster", str(target), "--scheme", "classic")
        message = f"{target}: malformed hypergraph JSON: vertices is not a list"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("scheme, message", [
        pytest.param({"kind": "toy"}, "malformed scheme JSON: 'id'", id="toy-no-id"),
        pytest.param(
            {"kind": "sigma"}, "malformed scheme JSON: 'motif'", id="sigma-no-motif"
        ),
        pytest.param(
            {"kind": "sigma", "motif": _motif(["a", "b"], [], ["b", "c"])},
            "scheme motif: edge e2 is empty",
            id="sigma-empty-edge",
        ),
        pytest.param(
            {"kind": "sigma", "motif": _motif(["a", "b"], ["a", "z"], ["b", "c"])},
            "scheme motif: edge e2 references unknown vertex z",
            id="sigma-unknown-vertex",
        ),
        pytest.param(
            {"kind": "representable", "motifs": [_motif([])]},
            "scheme motif: edge e1 is empty",
            id="representable-empty-edge",
        ),
        pytest.param(
            {"kind": "representable", "motifs": [_motif(["a", "z"])]},
            "scheme motif: edge e1 references unknown vertex z",
            id="representable-unknown-vertex",
        ),
        pytest.param(
            {"kind": "representable", "motifs": [{"vertices": "ab", "edges": []}]},
            "scheme motif: malformed hypergraph JSON: vertices is not a list",
            id="motif-vertices-not-a-list",
        ),
        pytest.param(
            {"kind": "representable", "motifs": 3},
            "malformed scheme JSON: 'int' object is not iterable",
            id="motifs-not-a-list",
        ),
    ])
    def test_bad_scheme_json_is_refused(self, capsys, tmp_path, scheme, message):
        target = tmp_path / "scheme.json"
        target.write_text(json.dumps(scheme))
        code, out, err = run_cli(capsys, "cluster", "K_3", "--scheme", f"@{target}")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        pytest.param(["cluster", "K_3", "--scheme", "@{}"], id="scheme-file"),
        pytest.param(["cluster", "{}", "--scheme", "classic"], id="graph-file"),
    ])
    def test_deeply_nested_json_file(self, capsys, tmp_path, argv):
        target = tmp_path / "deep.json"
        target.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, *(a.format(target) for a in argv))
        assert (code, out, err) == (2, "", f"error: {target}: JSON nested too deeply to read\n")

    @given(scheme=_scheme_json())
    @settings(
        max_examples=300,
        deadline=None,
        # The function-scoped fixtures only set the cache variable, hand out
        # a directory and capture output; every example writes the same
        # file afresh and reads its own output.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_no_scheme_json_escapes_as_a_traceback(self, capsys, tmp_path, scheme):
        target = tmp_path / "scheme.json"
        target.write_text(json.dumps(scheme))
        code, _, _ = run_cli(capsys, "cluster", "K_3", "--scheme", f"@{target}")
        assert code in (0, 2)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperclust", "cluster", "K_2",
             "--scheme", "classic"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["parts"] == [["v1", "v2"]]


# One command line per way out of main: exit 0, exit 1, exit 2 on a bad
# scheme, and an exception no handler catches (see raising_cluster).
EXITS = {
    "passes": (("check", "excisive", *E_STAR_2, *SMALL), 0),
    "fails": (("check", "excisive", "--scheme", "toy:noprops", *SMALL), 1),
    "bad-scheme": (("cluster", "K_3", "--scheme", "representable:{Q_9},k=1"), 2),
    "raises": (("cluster", "K_3", "--scheme", "classic"), RuntimeError),
}


def raising_cluster(args):
    raise RuntimeError("a handler that fails")


def exit_of(capsys, monkeypatch, name):
    """Run one of EXITS; returns its exit code, or the exception's type."""
    argv, _ = EXITS[name]
    if name == "raises":
        monkeypatch.setattr(cli, "run_cluster", raising_cluster)
    try:
        code = main(list(argv))
    except RuntimeError as exc:
        code = type(exc)
    capsys.readouterr()
    return code


class SwitchOnly:
    """Stands in for the gc module and offers only the on/off switch, so
    any other collector call from main raises AttributeError."""

    def __init__(self):
        self.calls = []

    def isenabled(self):
        self.calls.append("isenabled")
        return gc.isenabled()

    def disable(self):
        self.calls.append("disable")
        gc.disable()

    def enable(self):
        self.calls.append("enable")
        gc.enable()


class TestCollectorPolicy:
    @pytest.mark.parametrize("name", EXITS)
    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    def test_main_restores_the_callers_policy(self, capsys, monkeypatch, name, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            code = exit_of(capsys, monkeypatch, name)
            after = gc.isenabled()
        finally:
            gc.enable()
        assert code == EXITS[name][1]
        assert after is enabled

    def test_the_handler_runs_with_the_collector_off(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_cluster", lambda args: seen.append(gc.isenabled()) or 0)
        assert main(["cluster", "K_3", "--scheme", "classic"]) == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("name", EXITS)
    def test_main_only_switches_the_collector(self, capsys, monkeypatch, name):
        switch = SwitchOnly()
        monkeypatch.setattr(cli, "gc", switch)
        assert gc.isenabled()
        assert exit_of(capsys, monkeypatch, name) == EXITS[name][1]
        assert switch.calls == ["isenabled", "disable", "enable"]

    def test_library_calls_leave_the_collector_alone(self, monkeypatch, small_corpus):
        def refuse(*args):
            raise AssertionError("a library call changed the collector")

        for name in ("disable", "enable", "freeze", "collect", "set_threshold"):
            monkeypatch.setattr(gc, name, refuse)
        scheme = MotifScheme(("E*",), 2)
        assert cluster(scheme, build_named("H_6")).parts
        assert checks.check_excisive(scheme, small_corpus).passed

    @pytest.mark.parametrize("default", [False, True], ids=["small-corpus", "default-corpus"])
    def test_one_check_leaves_little_cyclic_garbage(
        self, capsys, monkeypatch, request, default
    ):
        # Collected afterwards, the cycles one command leaves are argparse's,
        # a few hundred objects whatever the corpus size.
        bounds = [] if default else SMALL
        if default:
            monkeypatch.setenv("HYPERCLUST_CACHE_DIR", request.getfixturevalue("corpus_cache_dir"))
            request.getfixturevalue("corpus")
        # The first run fills the corpus cache, so the counted run is warm.
        main(["check", "excisive", *E_STAR_2, *bounds])
        capsys.readouterr()
        gc.collect()
        gc.disable()
        try:
            code = main(["check", "excisive", *E_STAR_2, *bounds])
            garbage = gc.collect()
        finally:
            gc.enable()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["statistics"]["graphs"] > (1000 if default else 10)
        assert garbage < 2000
