from fractions import Fraction
from itertools import permutations, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstirling.core import SequencePair
from gstirling.network import build_initial, certify, path_matrix
from gstirling.stirling import (
    eulerian_matrix,
    preset,
    rgs_check,
    sequence_pair,
    stirling_explicit,
    stirling_recurrence,
    stirling_symmetric,
)
from gstirling.tnn import unit_lower_inverse
from oracles import (
    ascent_counts,
    cycle_counts,
    explicit_subset_sums,
    is_identity,
    lah_counts,
    monomial_coeffs,
    partition_counts,
    rgs_check_integer,
    subset_count,
    tri_mul,
)
from strategies import monotone_pairs

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def pairs(draw, max_n=6, nondecreasing_a=False):
    n = draw(st.integers(min_value=0, max_value=max_n))
    a = draw(st.lists(rationals, min_size=n, max_size=n))
    if nondecreasing_a:
        a = sorted(a)
    e = draw(st.lists(rationals, min_size=n, max_size=n))
    return SequencePair(tuple(a), tuple(e))


class TestRgsCheck:
    def test_cap_trace(self):
        rep = rgs_check(sequence_pair([0, 1, 2, 3], [0, 1, 1, 2]))
        assert rep.is_rgs
        assert rep.cap_indices == (1, 2, 3, 3)
        assert rep.hits == ((1, 1), (2, 2), (4, 3))
        assert rep.violation is None

    def test_first_entry_violation(self):
        rep = rgs_check(sequence_pair([0, 1], [1, 0]))
        assert not rep.is_rgs
        assert rep.violation.index == 1 and rep.violation.level == 1

    def test_cap_freezes_after_violation(self):
        rep = rgs_check(sequence_pair([0, 1, 2], [1, 0, 0]))
        assert rep.cap_indices == (1, 1, 1)
        assert rep.hits == ()

    def test_violation_after_advance(self):
        rep = rgs_check(sequence_pair([0, 1], [0, 2]))
        assert rep.violation.index == 2 and rep.violation.level == 2

    def test_requires_monotone_a(self):
        with pytest.raises(ValueError):
            rgs_check(sequence_pair([1, 0], [0, 0]))

    def test_empty_passes(self):
        assert rgs_check(sequence_pair([], [])).is_rgs

    @given(monotone_pairs())
    def test_hits_are_the_caps_met_before_the_violation(self, sp):
        rep = rgs_check(sp)
        stop = sp.n if rep.violation is None else rep.violation.index - 1
        hits = tuple((i, f) for i, f in enumerate(rep.cap_indices[:stop], start=1)
                     if sp.e[i - 1] == sp.a[f - 1])
        assert rep.hits == hits
        assert certify(sp).pivots == hits

    def test_integer_form(self):
        assert rgs_check_integer([])
        assert rgs_check_integer([0, 1, 0, 2, 1])
        assert not rgs_check_integer([0, 2])
        assert not rgs_check_integer([1])
        with pytest.raises(ValueError):
            rgs_check_integer([0, -1])

    def test_integer_form_matches_relative_form(self):
        for n in range(6):
            for e in product(range(5), repeat=n):
                a = tuple(Fraction(i) for i in range(n))
                rel = rgs_check(SequencePair(a, tuple(map(Fraction, e)))).is_rgs
                assert rel == rgs_check_integer(list(e)), e


class TestConstructionRoutes:
    def test_degenerate_sizes(self):
        m = stirling_recurrence(sequence_pair([], []))
        assert m.rows == ((Fraction(1),),)
        one = stirling_recurrence(sequence_pair([3], [5]))
        assert one.rows == ((Fraction(1),), (Fraction(-2), Fraction(1)))

    @given(pairs())
    def test_all_routes_agree(self, sp):
        m = stirling_recurrence(sp)
        assert stirling_explicit(sp) == m
        assert stirling_symmetric(sp) == m

    @given(pairs(max_n=5))
    def test_naive_subset_enumeration_agrees(self, sp):
        assert stirling_explicit(sp).rows == explicit_subset_sums(sp.a, sp.e)

    @given(pairs())
    def test_rows_are_basis_expansions(self, sp):
        """Row m holds the coefficients of prod_{i<=m}(x - e_i) in the
        shifted basis, which is the defining relation: both sides agree
        coefficient by coefficient in the monomial basis."""
        m = stirling_recurrence(sp)
        for row in range(sp.n + 1):
            lhs = [Fraction(0)] * (row + 1)
            for k, c in enumerate(m.rows[row]):
                for i, pc in enumerate(monomial_coeffs(sp.a[:k])):
                    lhs[i] += c * pc
            assert lhs == monomial_coeffs(sp.e[:row])

    @given(pairs())
    def test_column_zero_product(self, sp):
        m = stirling_recurrence(sp)
        prod = Fraction(1)
        for i in range(1, sp.n + 1):
            prod *= sp.a[0] - sp.e[i - 1]
            assert m.entry(i, 0) == prod

    @given(pairs())
    def test_unit_diagonal(self, sp):
        m = stirling_recurrence(sp)
        assert all(m.entry(i, i) == 1 for i in range(sp.n + 1))

    def test_row_entry_invariant_under_prefix_permutation(self):
        rng = Random(411)
        for _ in range(20):
            n = rng.randint(1, 6)
            sp = SequencePair(
                tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
                      for _ in range(n)),
                tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
                      for _ in range(n)),
            )
            m = rng.randint(1, n)
            base = stirling_recurrence(sp).rows[m]
            for _ in range(5):
                perm = list(sp.e[:m])
                rng.shuffle(perm)
                shuffled = SequencePair(sp.a, tuple(perm) + sp.e[m:])
                assert stirling_recurrence(shuffled).rows[m] == base


# denominators 1-7, so the common scale L ranges over 1..420, with entries
# far beyond machine words; L = 1 when every denominator is 1
wide = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 7))


@st.composite
def wide_pairs(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    entries = draw(st.sampled_from([wide, st.integers(-10**30, 10**30)]))
    a = draw(st.lists(entries, min_size=n, max_size=n))
    e = draw(st.lists(entries, min_size=n, max_size=n))
    return SequencePair(tuple(a), tuple(e))


class TestIntegerRoutes:
    """Every route runs on the pair scaled to ints; each must equal the
    independent oracles: the subset enumeration of the explicit formula and
    the monomial expansion of the defining relation."""

    @settings(max_examples=60, deadline=None)
    @given(wide_pairs())
    def test_every_route_matches_the_oracles(self, sp):
        subsets = explicit_subset_sums(sp.a, sp.e)
        routes = (stirling_recurrence, stirling_explicit, stirling_symmetric,
                  lambda p: path_matrix(build_initial(p)))
        for route in routes:
            m = route(sp)
            assert m.rows == subsets
            for row in range(sp.n + 1):
                lhs = [Fraction(0)] * (row + 1)
                for k, c in enumerate(m.rows[row]):
                    for i, pc in enumerate(monomial_coeffs(sp.a[:k])):
                        lhs[i] += c * pc
                assert lhs == monomial_coeffs(sp.e[:row])

    def test_integer_pairs_have_scale_one(self):
        sp = sequence_pair([10**40, 3], [-(10**40), 5])
        m = stirling_symmetric(sp)
        assert m.scale == 1 and m.entry(1, 0) == 2 * 10**40

    def test_scale_is_the_common_denominator(self):
        sp = sequence_pair(["1/2", "1/3"], ["1/7", 0])
        assert stirling_recurrence(sp).scale == 42
        assert stirling_explicit(sp).scale == 42
        assert stirling_symmetric(sp).scale == 42


class TestInverse:
    @given(pairs())
    def test_product_is_identity_both_ways(self, sp):
        m = stirling_recurrence(sp).rows
        inv = stirling_recurrence(SequencePair(sp.e, sp.a)).rows
        assert is_identity(tri_mul(m, inv))
        assert is_identity(tri_mul(inv, m))

    @given(pairs())
    def test_inverse_is_swapped_pair_matrix(self, sp):
        """The inverse of S^{a,e} is exactly S^{e,a}, signs included."""
        swapped = SequencePair(sp.e, sp.a)
        assert unit_lower_inverse(stirling_recurrence(sp)) == stirling_recurrence(swapped)


class TestPresets:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset("pascal", 3)

    def test_negative_size(self):
        with pytest.raises(ValueError):
            preset("binomial", -1)

    def test_binomial_matches_subset_counts(self):
        m = stirling_recurrence(preset("binomial", 6))
        for i in range(7):
            for k in range(i + 1):
                assert m.entry(i, k) == subset_count(i, k)

    def test_stirling2_matches_partition_counts(self):
        m = stirling_recurrence(preset("stirling2", 6))
        for i in range(7):
            counts = partition_counts(i)
            for k in range(i + 1):
                assert m.entry(i, k) == counts[k]

    def test_stirling1_matches_cycle_counts(self):
        m = stirling_recurrence(preset("stirling1", 6))
        for i in range(7):
            counts = cycle_counts(i)
            for k in range(i + 1):
                assert m.entry(i, k) == counts[k]

    def test_lah_matches_ordered_block_counts(self):
        m = stirling_recurrence(preset("lah", 6))
        for i in range(7):
            counts = lah_counts(i)
            for k in range(i + 1):
                assert m.entry(i, k) == counts[k]

    def test_stirling_kinds_are_mutually_inverse(self):
        n = 7
        sp = preset("stirling2", n)
        second = stirling_recurrence(sp)
        inv = stirling_recurrence(SequencePair(sp.e, sp.a))
        first = stirling_recurrence(preset("stirling1", n))
        for m in range(n + 1):
            for k in range(m + 1):
                assert abs(inv.entry(m, k)) == first.entry(m, k)
        assert is_identity(tri_mul(second.rows, inv.rows))


class TestEulerian:
    def test_small_triangle(self):
        m = eulerian_matrix(4)
        assert m.rows[3] == (Fraction(1), Fraction(4), Fraction(1), Fraction(0))
        assert m.entry(4, 1) == 11 and m.entry(4, 2) == 11

    def test_matches_ascent_counts(self):
        m = eulerian_matrix(6)
        for i in range(7):
            counts = ascent_counts(i)
            for k in range(i + 1):
                assert m.entry(i, k) == counts[k]

    def test_row_sums_are_factorials(self):
        from math import factorial

        m = eulerian_matrix(6)
        for i in range(1, 7):
            assert sum(m.rows[i]) == factorial(i)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            eulerian_matrix(-1)
