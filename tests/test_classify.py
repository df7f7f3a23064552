import pytest

import oracles
from fusionsys import (DEFAULT_LIMITS, ValidationError, classify_group,
                       cyclic, dicyclic, dihedral, direct_product,
                       frobenius21, has_strongly_p_embedded, heisenberg,
                       prime_divisors, psl2, symmetric, alternating)


@pytest.mark.parametrize("build,p,nilp,closed", [
    (lambda: symmetric(4), 2, False, False),
    (lambda: symmetric(4), 3, False, False),
    (lambda: alternating(4), 2, False, True),
    (lambda: alternating(4), 3, True, False),
    (lambda: cyclic(12), 2, True, True),
    (lambda: cyclic(12), 3, True, True),
    (lambda: dicyclic(12), 2, True, False),
    (lambda: dicyclic(12), 3, False, True),
    (lambda: frobenius21(), 3, True, False),
    (lambda: frobenius21(), 7, False, True),
    (lambda: psl2(7), 2, False, False),
    (lambda: psl2(7), 3, False, False),
    (lambda: psl2(7), 7, False, False),
    (lambda: direct_product(symmetric(3), cyclic(3)), 2, True, False),
    (lambda: direct_product(symmetric(3), cyclic(3)), 3, False, True),
    (lambda: heisenberg(3), 3, True, True),
])
def test_p_nilpotent_and_p_closed(build, p, nilp, closed):
    got = classify_group(build(), p)
    assert got.p_nilpotent is nilp
    assert got.p_closed is closed


def test_normal_complement_is_verified_witness():
    got = classify_group(alternating(4), 3)
    N = got.normal_complement
    assert N is not None
    assert N.order == 4                     # the Klein four-group
    got2 = classify_group(symmetric(4), 2)
    assert got2.normal_complement is None


@pytest.mark.parametrize("build,ss", [
    (lambda: symmetric(4), False),
    (lambda: alternating(4), False),
    (lambda: psl2(7), False),
    (lambda: symmetric(3), True),
    (lambda: dihedral(8), True),
    (lambda: dicyclic(8), True),
    (lambda: dicyclic(12), True),
    (lambda: cyclic(12), True),
    (lambda: heisenberg(3), True),
    (lambda: frobenius21(), True),
    (lambda: direct_product(symmetric(3), cyclic(3)), True),
])
def test_supersolvable_group_flag(build, ss):
    assert classify_group(build(), 2).supersolvable is ss


def test_coprime_condition():
    # gcd(3 - 1, 21) = 1 but gcd(7 - 1, 21) = 3
    assert classify_group(frobenius21(), 3).coprime_condition is True
    assert classify_group(frobenius21(), 7).coprime_condition is False
    assert classify_group(cyclic(3), 3).coprime_condition is True
    assert classify_group(symmetric(4), 2).coprime_condition is True
    # gcd(3 - 1, 18) = 2
    assert classify_group(direct_product(symmetric(3), cyclic(3)),
                          3).coprime_condition is False


def test_degenerate_prime():
    got = classify_group(symmetric(4), 5)
    assert got.p_nilpotent is True
    assert got.p_closed is True
    assert got.normal_complement is not None
    assert got.normal_complement.order == 24
    assert any("divide" in n for n in got.notes)


def test_prime_validation():
    with pytest.raises(ValidationError):
        classify_group(symmetric(4), 6)
    with pytest.raises(ValidationError):
        classify_group(symmetric(4), 1)


def test_strongly_p_embedded_known_cases():
    S3 = symmetric(3)
    found = has_strongly_p_embedded(S3, 2)
    assert found.found
    assert found.witness.order == 2
    assert not has_strongly_p_embedded(S3, 3).found
    assert not has_strongly_p_embedded(symmetric(4), 2).found
    assert not has_strongly_p_embedded(cyclic(4), 2).found
    # the Sylow 7-normalizer of order 21 is strongly 7-embedded
    got = has_strongly_p_embedded(psl2(7), 7)
    assert got.found
    assert got.witness.order == 21


def test_p_closed_implies_no_strongly_p_embedded(corpus):
    for name, G in corpus:
        n = G.order
        for p in (2, 3, 7):
            if n % p:
                continue
            cls = classify_group(G, p)
            if cls.p_closed:
                assert not has_strongly_p_embedded(G, p).found, (name, p)


def test_p_nilpotency_matches_normal_complement_oracle(corpus):
    # the p'-elements against a scan of the normal subgroups, at every
    # prime dividing |G| and at the least prime that does not
    groups = list(corpus) + [
        ("S5", symmetric(5)),
        ("A4xA4", direct_product(alternating(4), alternating(4))),
        ("S4xS3", direct_product(symmetric(4), symmetric(3)))]
    for name, G in groups:
        primes = prime_divisors(G.order)
        spare = next(q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                     if G.order % q)
        for p in primes + [spare]:
            got = classify_group(G, p)
            want = oracles.normal_complement_oracle(G, p, DEFAULT_LIMITS)
            assert got.p_nilpotent is (want is not None), (name, p)
            if want is not None:
                assert got.normal_complement.indices == want.indices, (name, p)
