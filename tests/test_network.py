from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gstirling.core import SequencePair, TriMatrix, digit_limit, format_rational
from gstirling.network import WeightArray, build_initial, certify, path_matrix, pivot
from gstirling.stirling import rgs_check, sequence_pair, stirling_recurrence
from corpus import random_pair, random_rgs_pair, random_weight_array, weight_array
from oracles import (
    cofactor_det,
    enumerate_paths,
    lindstrom_minor,
    path_nodes,
    pivot_provenance,
)
from strategies import monotone_pairs

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def pairs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    a = draw(st.lists(rationals, min_size=n, max_size=n))
    e = draw(st.lists(rationals, min_size=n, max_size=n))
    return SequencePair(tuple(a), tuple(e))


class TestWeightArray:
    def test_initial_values(self):
        wa = build_initial(sequence_pair([0, 1], [5, 7]))
        assert wa.weight(1, 1) == -5
        assert wa.weight(2, 1) == -7
        assert wa.weight(2, 2) == -4
        assert wa.provenance == (((1, 1),), ((1, 2), (2, 1)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            WeightArray(((1,), (2,)))
        with pytest.raises(ValueError):
            WeightArray(((1, 2),))

    def test_provenance_consistency_enforced(self):
        sp = sequence_pair([0], [1])
        # the weights come from the provenance alone: ints given as well
        # raise, even ints equal to the derived ones
        for ints in (((5,),), ((-1,),)):
            with pytest.raises(ValueError, match="derived"):
                WeightArray(ints, provenance=(((1, 1),),), seq=sp)
        assert WeightArray(None, provenance=(((1, 1),),), seq=sp).ints == ((-1,),)
        with pytest.raises(ValueError, match="row 2 has 1 entries"):
            WeightArray(None, provenance=(((1, 1),), ((1, 1),)),
                        seq=sequence_pair([0, 1], [1, 2]))

    def test_weight_out_of_range(self):
        wa = build_initial(sequence_pair([0], [1]))
        with pytest.raises(IndexError):
            wa.weight(2, 1)


class TestRender:
    """Above scale 1 render formats each distinct weight once; the text is
    still format_rational of each weight, and an overlong one is named."""

    def test_each_entry_renders_as_its_weight(self):
        rng = Random(11)
        scales = set()
        for n in range(1, 13):
            decimals = weight_array([
                [Fraction(rng.randint(-40, 40), rng.choice((1, 4, 10, 100)))
                 for _ in range(m)] for m in range(1, n + 1)])
            for wa in (random_weight_array(rng, n), decimals,
                       build_initial(random_pair(rng, n))):
                scales.add(wa.scale)
                assert wa.render() == [
                    [format_rational(wa.weight(m, k)) for k in range(1, m + 1)]
                    for m in range(1, n + 1)
                ]
        assert len(scales - {1}) >= 4

    @pytest.mark.skipif(digit_limit() == 0, reason="this Python has no int/str digit limit")
    def test_overlong_weight_is_named_above_scale_one(self):
        big = 10 ** digit_limit() + 1
        # the smallest distinct value is -big at [3,2]; [2,1] comes first
        wa = WeightArray(((1,), (big, 3), (5, -big, 7)), scale=2)
        with pytest.raises(ValueError, match=r"weights: weight at \[2,1\] has more than"):
            wa.render()


class TestPathMatrix:
    def test_worked_entry(self):
        wa = weight_array([[1], [2, 3], [5, 7, 1]])
        m = path_matrix(wa)
        # s_3 -> t_1 paths: climbs (2,0), (1,1), (0,2) in columns 1,2
        assert m.entry(3, 1) == 2 * 5 + 5 * 3 + 3 * 7 == 46

    def test_all_ones_gives_binomials(self):
        wa = weight_array([[1] * m for m in range(1, 6)])
        m = path_matrix(wa)
        for i in range(6):
            for k in range(i + 1):
                assert m.entry(i, k) == comb(i, i - k)

    @given(pairs())
    def test_initial_array_realizes_matrix(self, sp):
        assert path_matrix(build_initial(sp)) == stirling_recurrence(sp)

    @given(pairs(max_n=5))
    def test_entries_match_path_sums(self, sp):
        wa = build_initial(sp)
        m = path_matrix(wa)
        for i in range(sp.n + 1):
            for k in range(i + 1):
                total = sum((w for _, w in enumerate_paths(wa, i, k)), Fraction(0))
                assert m.entry(i, k) == total


class TestScaledPathMatrix:
    def test_equal_values_on_different_scales(self):
        """A raw array's path matrix is on the array's scale, 2 here; the
        same values on scale 4 hold 2 over 4 at (1,0)."""
        network = path_matrix(weight_array([[Fraction(1, 2)]]))
        given = TriMatrix.scaled(((1,), (2, 1)), 4)
        assert (network.scale, given.scale) == (2, 4)
        assert network == given and hash(network) == hash(given)

    def test_weights_scaled_once_by_their_common_denominator(self):
        wa = weight_array([[Fraction(1, 2)], [Fraction(1, 3), Fraction(1, 4)]])
        m = path_matrix(wa)
        assert m.scale == 12
        assert m.rows == ((1,), (Fraction(1, 2), 1),
                          (Fraction(1, 6), Fraction(1, 3) + Fraction(1, 4), 1))


class TestEnumeratePaths:
    def test_two_step_climb_uses_both_column_edges(self):
        wa = build_initial(sequence_pair([0, 1], [5, 7]))
        paths = enumerate_paths(wa, 2, 0)
        assert len(paths) == 1
        comp, weight = paths[0]
        assert comp == (2,)
        assert weight == wa.weight(2, 1) * wa.weight(1, 1)

    def test_count_is_binomial(self):
        wa = weight_array([[1] * m for m in range(1, 7)])
        for m in range(7):
            for k in range(m + 1):
                assert len(enumerate_paths(wa, m, k)) == comb(m, k)

    def test_sink_above_source_has_no_paths(self):
        wa = weight_array([[1]])
        assert enumerate_paths(wa, 0, 1) == []

    def test_out_of_range(self):
        wa = weight_array([[1]])
        with pytest.raises(IndexError):
            enumerate_paths(wa, 2, 0)


class TestLindstrom:
    def test_validation(self):
        wa = weight_array([[1], [1, 1]])
        with pytest.raises(ValueError):
            lindstrom_minor(wa, (0, 1), (0,))
        with pytest.raises(ValueError):
            lindstrom_minor(wa, (1, 0), (0, 1))
        with pytest.raises(ValueError):
            lindstrom_minor(wa, (0, 0), (0, 1))
        with pytest.raises(IndexError):
            lindstrom_minor(wa, (0, 3), (0, 1))

    def test_identity_on_random_signed_arrays(self):
        rng = Random(5150)
        for _ in range(8):
            wa = random_weight_array(rng, 5)
            m = path_matrix(wa)
            for order in (1, 2, 3):
                for rows in combinations(range(6), order):
                    for cols in combinations(range(6), order):
                        sub = [[m.entry(r, c) for c in cols] for r in rows]
                        assert lindstrom_minor(wa, rows, cols) == cofactor_det(sub)

    def test_crossing_matchings_always_share_a_node(self):
        """Only the order-preserving matching can be vertex-disjoint: any
        family routed along a non-identity matching has two paths meeting."""
        for n in (3, 4):
            wa = weight_array([[1] * m for m in range(1, n + 1)])
            for order in (2, 3):
                for rows in combinations(range(n + 1), order):
                    for cols in combinations(range(n + 1), order):
                        for perm in permutations(range(order)):
                            if perm == tuple(range(order)):
                                continue
                            choices = [
                                [
                                    path_nodes(rows[t], cols[perm[t]], comp)
                                    for comp, _ in enumerate_paths(
                                        wa, rows[t], cols[perm[t]]
                                    )
                                ]
                                for t in range(order)
                            ]
                            if any(not c for c in choices):
                                continue

                            def disjoint_family_exists(t, used):
                                if t == order:
                                    return True
                                return any(
                                    not (used & nodes)
                                    and disjoint_family_exists(t + 1, used | nodes)
                                    for nodes in choices[t]
                                )

                            assert not disjoint_family_exists(0, frozenset())


class TestPivot:
    def test_requires_provenance(self):
        wa = weight_array([[0]])
        with pytest.raises(ValueError):
            pivot(wa, 1, 1)

    def test_position_validation(self):
        wa = build_initial(sequence_pair([0, 1], [0, 1]))
        with pytest.raises(ValueError):
            pivot(wa, 1, 2)
        with pytest.raises(ValueError):
            pivot(wa, 3, 1)

    def test_cyclic_shift_of_e_indices(self):
        sp = sequence_pair([2, 3, 11], [2, 5, 7])
        after = pivot(build_initial(sp), 1, 1)
        assert after.provenance == (
            ((1, 1),),
            ((1, 1), (2, 2)),
            ((1, 1), (2, 3), (3, 2)),
        )

    def test_row_below_swaps_two_entries(self):
        sp = sequence_pair([0, 1, 4, 5], [0, 1, 2, 3])
        before = build_initial(sp)
        after = pivot(before, 2, 1)
        b, a = before.provenance, after.provenance
        assert a[2][0] == (b[2][0][0], b[2][1][1])
        assert a[2][1] == (b[2][1][0], b[2][0][1])
        assert a[1] == b[1]

    def test_pivot_weight_unchanged_at_position(self):
        sp = sequence_pair([0, 1, 2], [0, 2, 1])
        before = build_initial(sp)
        after = pivot(before, 1, 1)
        assert after.weight(1, 1) == before.weight(1, 1)

    def test_zero_position_preserves_path_matrix(self):
        rng = Random(808)
        for _ in range(60):
            sp = random_pair(rng, rng.randint(1, 6))
            wa = build_initial(sp)
            base = path_matrix(wa)
            spots = [
                (m, k)
                for m in range(1, sp.n + 1)
                for k in range(1, m + 1)
                if wa.weight(m, k) == 0
            ]
            for m, k in spots:
                assert path_matrix(pivot(wa, m, k)) == base


class TestCertify:
    def test_diagonal_pivots(self):
        trace = certify(sequence_pair([0, 1, 2], [0, 1, 2]))
        assert trace.pivots == ((1, 1), (2, 2), (3, 3))
        assert trace.all_nonnegative

    def test_no_pivots_when_e_below_cap(self):
        trace = certify(sequence_pair([1, 2], [0, 0]))
        assert trace.pivots == ()
        assert trace.all_nonnegative

    def test_violation_exposes_negative_weight(self):
        sp = sequence_pair([0, 1], [0, 2])
        trace = certify(sp)
        assert not trace.all_nonnegative
        # trace stops at the violation: e_2 = 2 > a_2 = 1, weight at [2,2]
        assert trace.pivots == ((1, 1),)
        assert trace.final.weight(2, 2) == -1

    def test_requires_monotone_a(self):
        with pytest.raises(ValueError):
            certify(sequence_pair([1, 0], [0, 0]))

    @given(monotone_pairs(broken=True))
    @example(SequencePair((0, 1), (2, 0)))
    def test_broken_pair_pivots_only_before_the_violation(self, sp):
        # after a violation the cap pointer is frozen, and a later e_i may
        # equal a_f by chance (e_2 = a_1 = 0 in the example): no pivot there
        rep = rgs_check(sp)
        j, level = rep.violation.index, rep.violation.level
        hits = tuple((i, f) for i, f in enumerate(rep.cap_indices[:j - 1], start=1)
                     if sp.e[i - 1] == sp.a[f - 1])
        trace = certify(sp)
        assert trace.pivots == hits
        assert trace.final.weight(j, level) < 0
        assert not trace.all_nonnegative

    def test_pivot_positions_are_nested(self):
        rng = Random(99)
        for _ in range(30):
            sp = random_rgs_pair(rng, rng.randint(1, 8))
            trace = certify(sp)
            for (m1, k1), (m2, k2) in zip(trace.pivots, trace.pivots[1:]):
                l2 = k2 - k1
                l1 = m2 - m1
                assert 0 <= l2 <= l1

    def test_certificate_matches_growth_check(self):
        rng = Random(123)
        for _ in range(40):
            n = rng.randint(1, 7)
            sp = random_rgs_pair(rng, n)
            rep = rgs_check(sp)
            trace = certify(sp)
            assert rep.is_rgs
            assert trace.all_nonnegative
            hits = [
                i
                for i in range(1, n + 1)
                if sp.e[i - 1] == sp.a[rep.cap_indices[i - 1] - 1]
            ]
            assert trace.pivots == tuple(
                (i, rep.cap_indices[i - 1]) for i in hits
            )
            assert path_matrix(trace.final) == stirling_recurrence(sp)


class TestInPlaceRotation:
    """certify and pivot share one in-place rotation of e-indices; both are
    checked against the entry-by-entry rewrite in oracles.py."""

    @given(monotone_pairs())
    def test_certificate_is_the_pivot_fold(self, sp):
        trace = certify(sp)
        wa = build_initial(sp)
        for m, k in trace.pivots:
            assert wa.weight(m, k) == 0
            wa = pivot(wa, m, k)
        assert trace.final == wa
        assert trace.all_nonnegative == wa.all_nonnegative()

    @given(monotone_pairs(), st.data())
    def test_pivot_matches_entrywise_oracle(self, sp, data):
        wa = build_initial(sp)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            m = data.draw(st.integers(min_value=1, max_value=sp.n))
            k = data.draw(st.integers(min_value=1, max_value=m))
            expect = pivot_provenance(wa.provenance, m, k)
            wa = pivot(wa, m, k)
            assert wa.provenance == expect

    @given(monotone_pairs(max_n=5), st.data())
    def test_pivot_keeps_arbitrary_a_indices(self, sp, data):
        idx = st.integers(min_value=1, max_value=sp.n)
        prov = tuple(
            tuple((data.draw(idx), data.draw(idx)) for _ in range(m))
            for m in range(1, sp.n + 1)
        )
        wa = WeightArray(None, provenance=prov, seq=sp)
        m = data.draw(st.integers(min_value=1, max_value=sp.n))
        k = data.draw(st.integers(min_value=1, max_value=m))
        assert pivot(wa, m, k).provenance == pivot_provenance(prov, m, k)
