import os

import pytest

from hyperclust.checks import CorpusBounds, generate_corpus

CACHE_ENV = "HYPERCLUST_CACHE_DIR"


@pytest.fixture(scope="session")
def corpus_cache_dir(tmp_path_factory):
    """A corpus cache directory of this session's own.

    The session corpora are built from empty here, so every session
    enumerates the default bounds, and no file left in the user's cache by
    other code is read.  The environment is restored afterwards.
    """
    saved = os.environ.get(CACHE_ENV)
    os.environ[CACHE_ENV] = str(tmp_path_factory.mktemp("corpus-cache"))
    yield os.environ[CACHE_ENV]
    if saved is None:
        del os.environ[CACHE_ENV]
    else:
        os.environ[CACHE_ENV] = saved


@pytest.fixture(scope="session")
def corpus(corpus_cache_dir):
    """The default exhaustive corpus; built once per test session."""
    return generate_corpus()


@pytest.fixture(scope="session")
def small_corpus(corpus_cache_dir):
    """A much smaller corpus for checks that are quadratic in corpus size."""
    return generate_corpus(CorpusBounds(3, 3, 3, 3, 4))
