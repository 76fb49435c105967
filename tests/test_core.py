from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gstirling.core import (
    SequencePair,
    TriMatrix,
    digit_limit,
    format_matrix,
    format_rational,
    parse_rational,
)
from gstirling.stirling import stirling_recurrence
from oracles import identity_rows, is_identity, monomial_coeffs, tri_mul

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


class TestSerialization:
    def test_decimal_when_denominator_is_power_of_ten(self):
        assert format_rational(Fraction(3, 10)) == "0.3"
        assert format_rational(Fraction(123, 100)) == "1.23"
        assert format_rational(Fraction(-7, 100)) == "-0.07"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(0)) == "0"
        # the rule sees lowest terms: 12345/100 reduces away from 10^k
        assert format_rational(Fraction(12345, 100)) == "2469/20"

    def test_fraction_otherwise(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(1, 5)) == "1/5"
        assert format_rational(Fraction(-22, 7)) == "-22/7"

    def test_parse_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("-0.25") == Fraction(-1, 4)
        assert parse_rational("6/4") == Fraction(3, 2)
        assert parse_rational(" 1/3 ") == Fraction(1, 3)

    def test_parse_rejects_junk(self):
        for bad in ("", "x", "1//2", "1/0", "2.5.1"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


def _fraction_parse(text):
    """What parse_rational gives a token too short for the digit limit
    when it goes through Fraction's parser: the value, or the ValueError
    type and message."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return ValueError, f"not a rational: {text!r}"


def _parsed(text):
    try:
        return parse_rational(text)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


class TestParseFastPath:
    """Plain p and p/q tokens are built from their ints; every token
    parses to what Fraction's parser gives it."""

    @pytest.mark.parametrize("text", [
        "0", "-0", "+7", "007/3", "3/0", "-3/00", "1/-2",
        "123456789012345678/987654321098765432", "1234567890123456789",
        "1_000", "\u0663", " 5/6 ", "1.5", "1e3",
    ])
    def test_tokens(self, text):
        assert _parsed(text) == _fraction_parse(text)
        if "/0" in text:
            assert _parsed(text) == (ValueError, f"not a rational: {text!r}")

    @given(st.from_regex(r"[-+]?[0-9]{1,20}/[0-9]{1,20}", fullmatch=True))
    def test_signed_quotients(self, text):
        assert _parsed(text) == _fraction_parse(text)


class TestSequencePair:
    def test_coercion_and_flag(self):
        sp = SequencePair((0, 1, 2), ("1/2", 0, -1))
        assert sp.a == (Fraction(0), Fraction(1), Fraction(2))
        assert sp.e[0] == Fraction(1, 2)
        assert sp.a_nondecreasing

    def test_non_monotone_flag(self):
        assert not SequencePair((1, 0), (0, 0)).a_nondecreasing
        assert SequencePair((1, 1), (0, 0)).a_nondecreasing

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SequencePair((0, 1), (0,))

    def test_empty(self):
        sp = SequencePair((), ())
        assert sp.n == 0 and sp.a_nondecreasing

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=6))
    @example([])
    @example([Fraction(-1, 2)])
    @example([Fraction(-2, 3), Fraction(-2, 3), Fraction(1, 3)])
    @example([Fraction(1, 3), Fraction(-1, 2)])
    def test_flag_matches_fraction_order(self, a):
        sp = SequencePair(a, [Fraction(1, 7)] * len(a))
        assert sp.a_nondecreasing == all(x <= y for x, y in zip(a, a[1:]))


class TestTriMatrix:
    def test_ragged_shape_enforced(self):
        with pytest.raises(ValueError):
            TriMatrix(((1,), (2,)))

    def test_entry_above_diagonal_is_zero(self):
        m = TriMatrix(((1,), (2, 1)))
        assert m.entry(0, 1) == 0
        assert m.entry(1, 0) == 2

    def test_entry_out_of_range(self):
        m = TriMatrix(((1,),))
        with pytest.raises(IndexError):
            m.entry(1, 0)

    def test_identity_and_mul(self):
        assert is_identity(identity_rows(3))
        # identity_rows(n) is (n+1) x (n+1), matching a 3-row triangle at n = 2
        ident = identity_rows(2)
        m = TriMatrix(((1,), (5, 1), (2, 3, 1)))
        assert tri_mul(m.rows, ident) == m.rows
        assert tri_mul(ident, m.rows) == m.rows
        with pytest.raises(ValueError):
            tri_mul(m.rows, identity_rows(3))


def newton_coeffs(roots, basis):
    """Row len(roots) of S^{a,e} with e = roots and a = basis: the
    coefficients of prod (x - roots[i]) in the Newton basis
    B_k = prod_{i<k} (x - basis[i])."""
    m = len(roots)
    return stirling_recurrence(SequencePair(tuple(basis[:m]), tuple(roots))).rows[m]


class TestNewtonExpand:
    def test_single_root(self):
        # x - 7 = (x - 2) + (2 - 7)
        assert newton_coeffs([Fraction(7)], [Fraction(2)]) == (Fraction(-5), Fraction(1))

    def test_monomial_basis_is_plain_expansion(self):
        assert list(newton_coeffs([1, 2, 1], [0, 0, 0])) == monomial_coeffs([1, 2, 1])

    def test_falling_basis_cube(self):
        p = newton_coeffs([0, 0, 0], [0, 1, 2])
        assert p == (Fraction(0), Fraction(1), Fraction(3), Fraction(1))

    @given(
        st.lists(rationals, max_size=5),
        st.lists(rationals, min_size=5, max_size=5),
        rationals,
    )
    def test_expansion_evaluates_to_product(self, roots, basis, x):
        coeffs = newton_coeffs(roots, basis)
        total = sum(c * prod(x - b for b in basis[:k]) for k, c in enumerate(coeffs))
        assert total == prod(x - r for r in roots)

    @given(st.lists(rationals, min_size=1, max_size=5))
    def test_monomial_round_trip(self, roots):
        """Converting the shifted-basis coefficients back to the monomial
        basis recovers the plain expansion of the product."""
        basis = [Fraction(i) for i in range(len(roots))]
        acc = [Fraction(0)] * (len(roots) + 1)
        for k, c in enumerate(newton_coeffs(roots, basis)):
            for i, pc in enumerate(monomial_coeffs(basis[:k])):
                acc[i] += c * pc
        assert acc == monomial_coeffs(roots)


wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60)


@st.composite
def rational_rows(draw, max_size=5):
    size = draw(st.integers(1, max_size))
    return [draw(st.lists(wide_rationals, min_size=m + 1, max_size=m + 1))
            for m in range(size)]


class TestIntRepresentation:
    """TriMatrix holds int rows plus one scale; values come out as Fraction."""

    @given(rational_rows())
    def test_rational_rows_round_trip(self, rows):
        m = TriMatrix(rows)
        assert m.scale == 1
        assert all(isinstance(v, int) for row in m.ints for v in row)
        assert m.rows == tuple(tuple(row) for row in rows)
        assert all(m.entry(i, k) == rows[i][k]
                   for i in range(len(rows)) for k in range(i + 1))
        assert TriMatrix(m.rows) == m and hash(TriMatrix(m.rows)) == hash(m)
        assert format_matrix(m) == [[format_rational(v) for v in row] for row in rows]

    def test_fractional_diagonal_is_representable(self):
        m = TriMatrix(((Fraction(1, 2),), (3, Fraction(2, 3))))
        assert m.den == 6 and m.ints == ((3,), (18, 4))
        assert m.rows == ((Fraction(1, 2),), (Fraction(3), Fraction(2, 3)))

    def test_entry_and_rows_are_fractions(self):
        for m in (TriMatrix(((1,), (2, 1))), TriMatrix.scaled(((1,), (3, 1)), 2),
                  stirling_recurrence(SequencePair(("1/2", 3), ("1/3", 0)))):
            assert all(type(v) is Fraction for row in m.rows for v in row)
            assert all(type(m.entry(i, k)) is Fraction
                       for i in range(m.n + 1) for k in range(m.n + 1))

    def test_scaled_entries_divide_by_powers_of_the_scale(self):
        m = TriMatrix.scaled(((1,), (3, 1), (9, 6, 1)), 2)
        assert m.entry(1, 0) == Fraction(3, 2)
        assert m.entry(2, 0) == Fraction(9, 4)
        assert m.entry(2, 1) == 3
        assert m.entry(0, 2) == 0
        assert format_matrix(m) == [["1"], ["3/2", "1"], ["9/4", "3", "1"]]

    def test_equality_compares_values_across_scales(self):
        halves = TriMatrix.scaled(((1,), (1, 1)), 2)
        assert halves == TriMatrix(((1,), (Fraction(1, 2), 1)))
        assert halves == TriMatrix.scaled(((1,), (2, 1)), 4)
        assert hash(halves) == hash(TriMatrix.scaled(((1,), (2, 1)), 4))
        assert halves != TriMatrix.scaled(((1,), (1, 1)), 3)
        assert halves != TriMatrix(((1,),))
        assert halves != "not a matrix"

    def test_immutable(self):
        m = TriMatrix(((1,),))
        with pytest.raises(AttributeError):
            m.scale = 2

    def test_scaled_pair(self):
        a, e, scale = SequencePair(("1/2", 1), ("1/3", "-0.25")).scaled()
        assert scale == 12 and a == [6, 12] and e == [4, -3]
        assert SequencePair((), ()).scaled() == ([], [], 1)

    def test_scaled_pair_is_computed_once(self):
        sp = SequencePair(("1/2", 1), ("1/3", "-0.25"))
        first = sp.scaled()
        first[0].append(99)
        assert sp.scaled() == ([6, 12], [4, -3], 12)
        # the cached scale is invisible to equality, hashing and repr
        same = SequencePair((Fraction(1, 2), 1), (Fraction(1, 3), Fraction(-1, 4)))
        assert sp == same and hash(sp) == hash(same)
        assert repr(sp) == ("SequencePair(a=(Fraction(1, 2), Fraction(1, 1)), "
                            "e=(Fraction(1, 3), Fraction(-1, 4)), a_nondecreasing=True)")


@pytest.mark.skipif(digit_limit() == 0, reason="this Python has no int/str digit limit")
class TestDigitLimit:
    """Text that would not render back is refused; so is an entry that
    grows past the limit."""

    def test_oversized_literals(self):
        limit = digit_limit()
        for text in ("1e999999999", "1e-999999", "7" * (limit + 1),
                     f"1/{'3' * (limit + 1)}", f"9e{limit}"):
            with pytest.raises(OverflowError, match="digits"):
                parse_rational(text)
        assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)

    def test_render_overflow_names_the_entry(self):
        big = 10 ** digit_limit()
        m = TriMatrix.scaled(((1,), (0, 1), (5, big, 1)))
        with pytest.raises(ValueError, match=r"entry \(2,1\)"):
            format_matrix(m)
