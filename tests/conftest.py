import math
import random
import sys
from fractions import Fraction

import pytest

from laguerrecert import parse_poly


@pytest.fixture(autouse=True)
def _restore_int_digit_limit():
    """Put back the interpreter's int/str digit limit after each test.

    cli.main lifts the limit for the rest of the process, so without this a
    test of the library at the default limit would pass merely by running
    after a CLI test, and a test that sets the limit would leak it.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


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
