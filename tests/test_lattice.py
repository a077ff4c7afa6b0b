from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from stablepairs import clear_denominators, dot
from stablepairs.lattice import is_admissible, lattice_point

from helpers import _o_primitive


def test_pairing_examples():
    assert dot((1, -1), (2, 0)) == 2
    assert dot((0, 0), (7, -3)) == 0
    assert dot((1, 2), (3, -1)) == 1


def test_pairing_length_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


coords = st.lists(st.integers(-50, 50), min_size=1, max_size=5)


@given(st.data())
def test_pairing_is_bilinear(data):
    n = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    u = data.draw(vec)
    a = data.draw(vec)
    b = data.draw(vec)
    left = dot(u, [x + y for x, y in zip(a, b)])
    assert left == dot(u, a) + dot(u, b)
    assert dot([2 * x for x in u], a) == 2 * dot(u, a)


def test_clear_denominators_examples():
    assert clear_denominators((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert clear_denominators((1, 0)) == (1, 0)
    assert clear_denominators((Fraction(-2, 4), Fraction(1, 4))) == (-2, 1)


def test_clear_denominators_zero_rejected():
    with pytest.raises(ValueError):
        clear_denominators((0, Fraction(0)))


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
integers = st.integers(-20, 20)
covectors = st.one_of(
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(integers, min_size=1, max_size=5),
    st.lists(st.one_of(integers, rationals), min_size=1, max_size=5),
)


@given(covectors)
def test_clear_denominators_parallel_and_primitive(g):
    if all(c == 0 for c in g):
        with pytest.raises(ValueError):
            clear_denominators(g)
        return
    u = clear_denominators(g)
    assert u == _o_primitive(g)
    assert all(type(c) is int for c in u)
    # primitive
    assert gcd(*u) == 1 if len(u) > 1 else abs(u[0]) == 1
    # parallel with a positive ratio
    ratios = {Fraction(ui) / gi for ui, gi in zip(u, g) if gi != 0}
    assert len(ratios) == 1
    assert ratios.pop() > 0
    assert all(ui == 0 for ui, gi in zip(u, g) if gi == 0)


@given(st.lists(integers, min_size=1, max_size=5))
def test_clear_denominators_int_path_is_the_fraction_path(g):
    """All-int entries, which `integral` passes through unscaled, answer as
    the same values given as `Fraction`s do, with a tuple, and the zero
    functional is still refused."""
    as_fractions = [Fraction(c) for c in g]
    if not any(g):
        for h in (g, tuple(g), as_fractions):
            with pytest.raises(ValueError):
                clear_denominators(h)
        return
    u = clear_denominators(g)
    assert type(u) is tuple and all(type(c) is int for c in u)
    assert u == clear_denominators(tuple(g)) == clear_denominators(as_fractions)


def test_lattice_point_rejects_non_integers():
    assert lattice_point((Fraction(4, 2), 1)) == (2, 1)
    with pytest.raises(ValueError):
        lattice_point((Fraction(1, 2),))
    with pytest.raises(ValueError):
        lattice_point((1.5,))
    with pytest.raises(ValueError):
        lattice_point((True, 0))


def test_admissibility():
    assert is_admissible((1, -1), [(1, 1)])
    assert not is_admissible((1, 0), [(1, 1)])
    assert is_admissible((0, 0), [(1, 1), (2, -1)])
