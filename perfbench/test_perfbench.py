"""Tests for the benchmark's tracer, pinning the counts that repeat exactly.

The corpus counts are those of the default ``CorpusBounds``: 1,473 graphs,
156,935 morphisms, 50,623 ``canonical_key`` calls while enumerating classes
from an empty cache, and 187,922 embedding searches between the small
members, of which 21,891 find at least one of the 112,796 embeddings.
"""

import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hyperclust import checks, cli, schemes  # noqa: E402
from hyperclust.graphs import build_named  # noqa: E402


def layer_values(tracer):
    metrics, missing = tracing.layer_metrics(tracer, 1.0, 1.0)
    return {name: m["value"] for name, m in metrics.items()}, missing


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus-cache")


@pytest.fixture
def isolated_cache(cache_dir, monkeypatch):
    monkeypatch.setenv(workloads.CACHE_ENV, str(cache_dir))
    return cache_dir


def test_cold_corpus_counts(isolated_cache):
    """Cold corpus plus a functorial check whose scheme searches for no
    embeddings, so every search counted builds a corpus morphism."""
    assert not any(isolated_cache.iterdir())
    tracer = tracing.Tracer()
    with tracer:
        corpus = checks.generate_corpus()
        report = checks.check_functorial(schemes.ToyScheme("noprops"), corpus)
    values, missing = layer_values(tracer)
    assert not missing and not tracer.missing
    assert values["graphs.canonical_key.calls"] == 50623
    assert values["motifs.enumerate_embeddings.calls"] == 187922
    assert values["motifs.enumerate_embeddings.found"] == 112796
    assert tracer.counts["motifs.enumerate_embeddings.hits"] == 21891
    assert report.statistics["graphs"] == workloads.CORPUS_GRAPHS == 1473
    assert report.statistics["morphisms"] == workloads.CORPUS_MORPHISMS == 156935
    assert sum(len(g.edges) for g in corpus.graphs) == workloads.CORPUS_EDGES


def test_warm_cli_check_skips_class_enumeration(isolated_cache, capsys):
    """Runs after the cold test has filled the module's cache directory."""
    assert any(isolated_cache.iterdir())
    tracer = tracing.Tracer()
    with tracer:
        status = cli.main(["check", "excisive", "--scheme", "representable:{K_3},k=2"])
    assert status == 0
    assert '"parts_checked": 174' in capsys.readouterr().out
    values, _ = layer_values(tracer)
    assert values["graphs.canonical_key.calls"] == 0
    assert values["checks.corpus.graphs"] == workloads.CORPUS_GRAPHS
    assert values["checks.generate_corpus.s"] > 0
    assert values["cli.self_s"] > 0


def test_tracer_restores_seams():
    original = schemes.cluster
    with tracing.Tracer():
        assert schemes.cluster is not original
    assert schemes.cluster is original


def test_missing_seam_reads_as_missing():
    seams = [s for s in tracing.SEAMS if s[2] != "components.line_graph"]
    seams.append(("hyperclust.schemes", "no_such_helper", "components.line_graph", None))
    seams.append(("hyperclust.no_such_module", "helper", "components.line_graph", None))
    tracer = tracing.Tracer(seams)
    scheme = schemes.MotifScheme((build_named("K_3"),), 2)
    with tracer:
        parts = schemes.cluster(scheme, build_named("K_4"))
    assert len(parts.parts) == 1
    values, missing = layer_values(tracer)
    assert tracer.missing == [
        "hyperclust.schemes.no_such_helper",
        "hyperclust.no_such_module.helper",
    ]
    assert "components.sets_in" in missing
    assert "components.percolate.s" not in missing  # member unions still traced
    assert values["motifs.expansion.images"] == 4
    assert values["motifs.expansion.copies_per_image"] == 6


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer:
        tracer.begin_op("cluster")
        schemes.cluster(schemes.MotifScheme(("E*",), 1), build_named("K_4"))
    table = tracer.span_table()
    top = table["parent"] == -1
    assert top.sum() == 1
    assert table["self"][top][0] < table["duration"][top][0]
    assert abs(table["self"].sum() - table["duration"][top][0]) < 1e-9


@pytest.mark.parametrize(
    "make",
    [workloads.overlap_hypergraph, workloads.symmetric_hypergraph, workloads.planted_simple_graph],
)
def test_inputs_follow_the_seed(make):
    first, again, other = (make(random.Random(seed)) for seed in (1, 1, 2))
    assert first == again != other
