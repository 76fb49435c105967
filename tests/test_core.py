from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gstirling.core import SequencePair, TriMatrix, format_rational, parse_rational
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
