import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionsys.errors import ValidationError
from fusionsys.perms import (compose, conjugate, cycle_string, cycles,
                             from_cycles, identity, inverse, perm_order,
                             validate_perm)

perms6 = st.permutations(range(6)).map(tuple)


def test_identity():
    assert identity(4) == (0, 1, 2, 3)
    assert identity(1) == (0,)


def test_compose_is_left_to_right():
    a = (1, 0, 2)   # swaps 0,1
    b = (0, 2, 1)   # swaps 1,2
    # apply a first: 0 -> 1 -> 2
    assert compose(a, b)[0] == 2


@given(perms6, perms6, perms6)
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(perms6)
def test_inverse_law(a):
    assert compose(a, inverse(a)) == identity(6)
    assert compose(inverse(a), a) == identity(6)


@given(perms6, perms6)
def test_conjugate_matches_definition(x, g):
    assert conjugate(x, g) == compose(compose(inverse(g), x), g)


@given(perms6, perms6, perms6)
def test_conjugation_is_right_action(x, g, h):
    assert conjugate(conjugate(x, g), h) == conjugate(x, compose(g, h))


def test_perm_order():
    assert perm_order(identity(5)) == 1
    assert perm_order(from_cycles(5, [[0, 1]])) == 2
    assert perm_order(from_cycles(6, [[0, 1], [2, 3, 4]])) == 6


@given(perms6)
def test_perm_order_is_annihilator(a):
    n = perm_order(a)
    acc = identity(6)
    for _ in range(n):
        acc = compose(acc, a)
    assert acc == identity(6)


def test_cycles_round_trip():
    p = from_cycles(6, [[0, 1, 2], [4, 5]])
    assert cycles(p) == [(0, 1, 2), (4, 5)]
    assert from_cycles(6, cycles(p)) == p


@given(perms6)
def test_cycles_round_trip_property(a):
    assert from_cycles(6, cycles(a)) == a


def test_cycle_string():
    assert cycle_string(identity(4)) == "()"
    assert cycle_string(from_cycles(4, [[0, 1], [2, 3]])) == "(0 1)(2 3)"


def test_cycles_reject_non_permutations():
    # the walk from a point leaves the domain, or meets a point seen before
    for bad in ((1, 2, 5), (0, 0, 1), (2, 0, 0), (1, 2, 1), (-1, 0)):
        with pytest.raises(ValidationError):
            cycles(bad)
    with pytest.raises(ValidationError):
        cycle_string((1, 2, 5))


def test_from_cycles_validation():
    with pytest.raises(ValidationError):
        from_cycles(4, [[0, 1, 0]])        # repeated point
    with pytest.raises(ValidationError):
        from_cycles(4, [[0, 4]])           # out of range
    with pytest.raises(ValidationError):
        from_cycles(4, [[0, 1], [1, 2]])   # point reused across cycles
    with pytest.raises(ValidationError):
        from_cycles(4, [["a", "b"]])       # not integers


def test_validate_perm():
    validate_perm((1, 0, 2))
    with pytest.raises(ValidationError):
        validate_perm((0, 0, 1))
    with pytest.raises(ValidationError):
        validate_perm((0, 1, 3))
