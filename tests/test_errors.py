"""The one range rule: interval ends, NaN, counts and the raised class."""

import math
import re

import pytest

from harmonicdisk.errors import (DegenerateE, ValidationError, checked_count,
                                 checked_real)


@pytest.mark.parametrize("ends,inside,outside", [
    ("()", (0.5,), (0.0, 1.0)),
    ("(]", (0.5, 1.0), (0.0, 1.5)),
    ("[)", (0.0, 0.5), (-0.5, 1.0)),
    ("[]", (0.0, 1.0), (-0.5, 1.5)),
])
def test_checked_real_ends_and_nan(ends, inside, outside):
    for x in inside:
        assert checked_real("x", x, 0.0, 1.0, ends) == x
    for x in (*outside, math.nan):
        message = f"x must be in {ends[0]}0,1{ends[1]}, got {x}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            checked_real("x", x, 0.0, 1.0, ends)


def test_checked_real_coerces_and_raises_the_given_class():
    got = checked_real("x", 1, 0, math.inf)
    assert got == 1.0 and type(got) is float
    with pytest.raises(DegenerateE,
                       match=re.escape("m must be in (0,inf), got inf")):
        checked_real("m", math.inf, 0.0, math.inf, error=DegenerateE)


def test_checked_count():
    got = checked_count("n", 3.0, 1, 4)
    assert got == 3 and type(got) is int
    for value in (0, 5, 4.5, math.nan):
        with pytest.raises(ValidationError,
                           match=re.escape(f"n must be 1 to 4, got {value}")):
            checked_count("n", value, 1, 4)
    assert checked_count("seed", 2 ** 70, 0, math.inf) == 2 ** 70
