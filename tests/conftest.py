import pytest

from fusionsys import FusionContext, load_corpus, prime_divisors


@pytest.fixture(scope="session")
def corpus():
    """(name, Group) pairs for the whole builtin corpus."""
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_contexts(corpus):
    """FusionContext for every corpus entry at every prime dividing |G|."""
    out = []
    for name, G in corpus:
        for p in prime_divisors(G.order):
            out.append((name, p, FusionContext.build(G, p)))
    return out
