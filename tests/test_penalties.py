from fractions import Fraction

import pytest

from agony.penalties import LINEAR, PenaltySpec, UnsupportedPenaltyError


def test_linear_values():
    p = PenaltySpec.linear()
    assert [p(d) for d in (-3, -1, 0, 1, 4)] == [0, 0, 1, 2, 5]


def test_constant_values():
    p = PenaltySpec.constant()
    assert [p(d) for d in (-2, -1, 0, 3)] == [0, 0, 1, 1]
    assert not p.solvable


def test_convex_sum_matches_hinge_formula():
    p = PenaltySpec.convex_sum([(1, -1), (2, 3)])
    for d in range(-4, 8):
        assert p(d) == max(0, d + 1) + 2 * max(0, d - 3)


def test_linear_is_one_term_convex_sum():
    q = PenaltySpec.convex_sum([(1, -1)])
    assert [q(d) for d in range(-3, 6)] == [LINEAR(d) for d in range(-3, 6)]
    assert q.integer_terms() == LINEAR.integer_terms() == ((1, -1),)


def test_fractional_slopes_are_scaled_to_integers():
    p = PenaltySpec.convex_sum([(Fraction(1, 2), 0), (Fraction(2, 3), 1)])
    assert p.scale == 6
    assert p.integer_terms() == ((3, 0), (4, 1))
    assert p(3) == Fraction(3, 2) + Fraction(4, 3)


def test_custom_penalty_scores_only():
    p = PenaltySpec.custom(lambda d: d * d if d >= 0 else 0)
    assert p(3) == 9
    assert not p.solvable
    with pytest.raises(UnsupportedPenaltyError):
        p.integer_terms()


def test_parse_mini_language():
    assert PenaltySpec.parse("linear") == LINEAR
    assert PenaltySpec.parse("const").kind == "constant"
    p = PenaltySpec.parse("sum:1,-1;2,3")
    assert p.terms == ((Fraction(1), -1), (Fraction(2), 3))
    p = PenaltySpec.parse("sum:3/2,0")
    assert p.terms == ((Fraction(3, 2), 0),)
    # breakpoints take the slopes' notations when their value is an integer
    p = PenaltySpec.parse("sum:1,-4/2;1,-2e0")
    assert p.terms == ((Fraction(1), -2), (Fraction(1), -2))


@pytest.mark.parametrize("bad", ["", "quad", "sum:", "sum:1", "sum:0,1", "sum:-1,2", "sum:1/0,1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        PenaltySpec.parse(bad)


@pytest.mark.parametrize("b", [1.5, Fraction(3, 2)])
def test_fractional_breakpoint_rejected(b):
    with pytest.raises(ValueError):
        PenaltySpec.convex_sum([(1, b)])


def test_integral_breakpoint_values_accepted():
    p = PenaltySpec.convex_sum([(1, 2.0), (1, Fraction(-4, 2))])
    assert p.terms == ((Fraction(1), 2), (Fraction(1), -2))
    assert all(type(b) is int for _, b in p.terms)


def test_nonpositive_slope_rejected():
    with pytest.raises(ValueError):
        PenaltySpec.convex_sum([(0, 1)])
    with pytest.raises(ValueError):
        PenaltySpec.convex_sum([(-2, 1)])


@pytest.mark.parametrize(
    "slope", ["1e20000", "1e5000", "1e-5000", "9" * 4300 + "E+4301"],
    ids=["1e20000", "1e5000", "1e-5000", "4300-nines-E+4301"],
)
def test_parse_rejects_huge_exponents(slope):
    # refused before the number is built, so 1e999999999 costs nothing
    with pytest.raises(ValueError, match="exponent"):
        PenaltySpec.parse(f"sum:{slope},-1")


@pytest.mark.parametrize(
    "spec", ["sum:1e" + "9" * 5000 + ",-1", "sum:1," + "9" * 5000, "sum:" + "9" * 5000 + ",-1",
             "sum:1/" + "9" * 4301 + ",-1"],
    ids=["5000-digit-exponent", "5000-digit-breakpoint", "5000-digit-slope", "4301-digit-denominator"],
)
def test_parse_refuses_overlong_numbers_before_int(spec):
    # counted before int() sees them: its own error names sys.set_int_max_str_digits
    with pytest.raises(ValueError) as info:
        PenaltySpec.parse(spec)
    message = str(info.value)
    assert "sys." not in message and len(message) < 100, message


def test_parse_keeps_long_numbers_within_the_limits():
    nines = "9" * 4300
    p = PenaltySpec.parse(f"sum:{nines},-1;1e4300,0;1e-4300,1")
    assert p.terms == (
        (Fraction(10**4300 - 1), -1), (Fraction(10**4300), 0), (Fraction(1, 10**4300), 1)
    )
