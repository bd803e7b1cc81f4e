import math
import random
from fractions import Fraction

import pytest

from laguerrecert import parse_poly


@pytest.fixture
def phi17():
    return parse_poly("x^2 - x + 17")


@pytest.fixture
def rng():
    return random.Random(20240817)


def _fraction_product_form(m, a):
    """b_0..b_{m-1} in the paper's form C(m,j) (m+a)(m-1+a)...(j+1+a), as Fractions."""
    b, prod = [], Fraction(1)
    for j in range(m - 1, -1, -1):
        prod *= j + 1 + Fraction(a)
        b.append(math.comb(m, j) * prod)
    return tuple(reversed(b))


@pytest.fixture
def product_form():
    """The reference for the cleared integers v**m b_j and their Fraction views."""
    return _fraction_product_form
