from fractions import Fraction
from itertools import combinations
from random import Random
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gstirling.tnn
from gstirling.core import SequencePair, TriMatrix
from gstirling.stirling import eulerian_matrix, preset, sequence_pair, stirling_recurrence
from gstirling.tnn import (
    MAX_MINORS,
    EntryWitness,
    check_scan_budget,
    decide_tnn,
    det_exact,
    first_sign_violation,
    is_tnn_exhaustive,
    iter_minors,
    minor_count,
    unit_lower_inverse,
)
from oracles import (
    cofactor_det,
    identity_rows,
    is_identity,
    tri_mul,
    triangular_minors,
    unit_lower_inverse_rows,
    walk_minors,
)
from strategies import monotone_pairs

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )
)

# entrywise non-negative, but rows (1,2) x cols (0,1) has determinant -2
NEG_MINOR = TriMatrix((
    (Fraction(1),),
    (Fraction(1), Fraction(1)),
    (Fraction(3), Fraction(1), Fraction(1)),
))


class TestDeterminant:
    @given(square_matrices)
    def test_matches_cofactor_expansion(self, rows):
        rows = [[Fraction(v) for v in r] for r in rows]
        assert det_exact([r[:] for r in rows]) == cofactor_det(rows)

    def test_singular_and_pivotless(self):
        assert det_exact([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]) == 0
        # zero leading pivot forces a row swap
        rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert det_exact(rows) == -1

    @pytest.mark.parametrize("rows, bad", [
        ([[1, 2], [3, 4, 5]], "row 1 has 3 entries, expected 2"),
        ([[1, 2]], "row 0 has 2 entries, expected 1"),
        ([[1, 2], [3]], "row 1 has 1 entries, expected 2"),
    ])
    def test_refuses_non_square(self, rows, bad):
        rows = [[Fraction(v) for v in r] for r in rows]
        with pytest.raises(ValueError, match=bad):
            det_exact(rows)


def _random_unit_lower(rng, n):
    return TriMatrix(
        tuple(
            tuple(
                Fraction(1) if k == m
                else Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                for k in range(m + 1)
            )
            for m in range(n + 1)
        )
    )


class TestExhaustiveScan:
    def test_pascal_is_tnn(self):
        m = stirling_recurrence(preset("binomial", 5))
        assert is_tnn_exhaustive(m) is None

    def test_negative_entry_is_order_one_witness(self):
        m = stirling_recurrence(sequence_pair([0, 1], [0, 2]))
        w = is_tnn_exhaustive(m)
        assert w is not None
        assert len(w.rows) == 1 and (w.rows[0], w.cols[0]) == (2, 1)
        assert w.value == -1

    def test_first_witness_is_order_then_lex(self):
        w = is_tnn_exhaustive(NEG_MINOR)
        assert w is not None
        assert w.rows == (1, 2) and w.cols == (0, 1)
        assert w.value == -2

    def test_max_minor_order_limits_scan(self):
        assert is_tnn_exhaustive(NEG_MINOR, max_order=1) is None
        w = is_tnn_exhaustive(NEG_MINOR, max_order=2)
        assert w is not None and w.value == -2
        with pytest.raises(ValueError):
            is_tnn_exhaustive(NEG_MINOR, max_order=0)

    def test_structural_skip_loses_no_information(self):
        """Minors skipped as structurally zero really are zero."""
        rng = Random(99)
        m = _random_unit_lower(rng, 4)
        seen = {(r, c) for r, c, _ in iter_minors(m)}
        for order in range(1, 6):
            for rows in combinations(range(5), order):
                for cols in combinations(range(5), order):
                    if (rows, cols) in seen:
                        continue
                    sub = [[m.entry(r, c) for c in cols] for r in rows]
                    assert cofactor_det(sub) == 0, (rows, cols)

    def test_minor_values_match_independent_determinants(self):
        rng = Random(7)
        m = _random_unit_lower(rng, 4)
        for rows, cols, value in iter_minors(m, max_order=3):
            sub = [[m.entry(r, c) for c in cols] for r in rows]
            assert value == cofactor_det(sub)


# entries with denominators 1-4, zero half of the time, so zero leading
# pivots (and row swaps inside the elimination) are common
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def lower_triangular(draw, max_size=5):
    size = draw(st.integers(1, max_size))
    return TriMatrix(tuple(
        tuple(draw(st.lists(sparse_rationals, min_size=m + 1, max_size=m + 1)))
        for m in range(size)
    ))


class TestMinorScanOracle:
    @given(lower_triangular(), st.one_of(st.none(), st.integers(1, 5)))
    def test_matches_combination_oracle(self, m, max_order):
        assert list(iter_minors(m, max_order)) == triangular_minors(m.rows, max_order)

    @given(lower_triangular(), st.one_of(st.none(), st.integers(1, 5)))
    def test_witness_is_the_first_negative_minor(self, m, max_order):
        negative = [(r, c, v) for r, c, v in triangular_minors(m.rows, max_order)
                    if v < 0]
        w = is_tnn_exhaustive(m, max_order)
        if not negative:
            assert w is None
        else:
            assert (w.rows, w.cols, w.value) == negative[0]
            assert type(w.value) is Fraction

    def test_full_scan_builds_no_fraction(self, monkeypatch):
        # L = 6: the scan tests the integer determinants' signs
        calls = []

        def counting(*args):
            calls.append(args)
            return Fraction(*args)

        monkeypatch.setattr(gstirling.tnn, "Fraction", counting)
        sp = SequencePair(tuple(Fraction(i, 3) for i in range(8)),
                          tuple(Fraction(-i, 2) for i in range(8)))
        assert sp.scaled()[2] == 6
        assert is_tnn_exhaustive(stirling_recurrence(sp)) is None
        assert calls == []

    def test_count_matches_enumeration(self):
        for size in range(1, 9):
            per_order = [0] * (size + 1)
            for rows, _, _ in iter_minors(TriMatrix(identity_rows(size - 1))):
                per_order[len(rows)] += 1
            for max_order in range(1, size + 1):
                assert minor_count(size, max_order) == sum(per_order[:max_order + 1])
            assert minor_count(size) == sum(per_order)

    def test_full_count_is_catalan_minus_one(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
        for size in range(1, 10):
            assert minor_count(size) == catalan[size + 1] - 1
        assert minor_count(13) == 2_674_439
        assert minor_count(15) == 35_357_669

    def test_budget_stops_before_the_first_minor(self):
        m = stirling_recurrence(preset("stirling2", 14))
        assert minor_count(15) > MAX_MINORS
        scan = iter_minors(m)
        with pytest.raises(ValueError, match=r"35357669 minors .* budget of 1000000"):
            next(scan)
        with pytest.raises(ValueError, match="budget"):
            is_tnn_exhaustive(m)
        # a bounded order brings the same matrix under the budget
        assert minor_count(15, 2) <= MAX_MINORS
        assert is_tnn_exhaustive(m, max_order=2) is None


# rows (2, 3) read 0 and 36 in column 1: the order-1 minor on (2,) x (1,)
# is a zero core for row set (2, 3, 4), which takes its Sylvester step on
# another pair of rows; an elimination would pivot on row 3 there, and on
# row 2 again in the sibling column 2
ZERO_PIVOT = TriMatrix.scaled(
    ((1,), (6, 1), (36, 0, 1), (324, 36, 1, 1), (3888, 324, 40, -5, 1)), 6)


class TestColumnWalk:
    """Matrices whose zero entries an elimination must pivot around, each
    scanned against cofactor expansion."""

    def test_zero_pivot_swaps_only_in_its_own_subtree(self):
        scan = list(iter_minors(ZERO_PIVOT))
        assert scan == triangular_minors(ZERO_PIVOT.rows)
        assert ((2, 3), (1, 2), -1) in scan
        assert ((2, 3), (2, 3), 1) in scan

    def test_all_zero_column_yields_every_completion(self):
        # S2(m, 0) = 0 for m >= 1: in every row set without row 0 no row
        # can pivot on column 0, and each minor starting there is 0
        m = stirling_recurrence(preset("stirling2", 6))
        scan = list(iter_minors(m))
        assert scan == triangular_minors(m.rows)
        assert len(scan) == minor_count(7)
        assert ((1, 2, 3), (0, 1, 2), 0) in scan

    @pytest.mark.parametrize("max_order", [1, 2, 4])
    def test_order_cut(self, max_order):
        m = stirling_recurrence(preset("lah", 6))
        scan = list(iter_minors(m, max_order))
        assert scan == triangular_minors(m.rows, max_order)
        assert len(scan) == minor_count(7, max_order)

    def test_fractional_entries(self):
        m = TriMatrix((
            (Fraction(1, 2),),
            (Fraction(0), Fraction(2, 3)),
            (Fraction(3, 4), Fraction(0), Fraction(1)),
            (Fraction(1, 3), Fraction(5, 6), Fraction(0), Fraction(1, 2)),
            (Fraction(2), Fraction(-1, 2), Fraction(1, 5), Fraction(0), Fraction(3)),
        ))
        assert m.den > 1
        assert list(iter_minors(m)) == triangular_minors(m.rows)


@st.composite
def sparse_int_lower(draw, max_size=9):
    size = draw(st.integers(1, max_size))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    return TriMatrix.scaled([draw(st.lists(entry, min_size=m + 1, max_size=m + 1))
                             for m in range(size)])


class TestSylvesterSteps:
    """The order-by-order scan against the elimination walk it replaced
    (walk_minors), with each way around a zero core shown to run."""

    @settings(max_examples=30)
    @given(sparse_int_lower(), st.one_of(st.none(), st.integers(1, 4)))
    def test_matches_the_elimination_walk(self, m, max_order):
        assert list(iter_minors(m, max_order)) == list(walk_minors(m, max_order))

    @pytest.fixture
    def other_cores(self, monkeypatch):
        """What each zero core is replaced by: None for a block of zeros."""
        results = []
        real = gstirling.tnn._other_core

        def counted(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(gstirling.tnn, "_other_core", counted)
        return results

    # S2(m, 0) = 0 for m >= 1: a zero core of stirling2 takes column 0
    # without row 0, and so does every minor on its block, which is 0 too
    @pytest.mark.parametrize("m", [
        TriMatrix(identity_rows(7)), stirling_recurrence(preset("stirling2", 6))])
    def test_all_zero_blocks(self, other_cores, m):
        assert list(iter_minors(m)) == list(walk_minors(m))
        assert other_cores and set(other_cores) == {None}

    @pytest.mark.parametrize("m", [ZERO_PIVOT, eulerian_matrix(6)])
    def test_another_pair_of_rows(self, other_cores, m):
        assert list(iter_minors(m)) == list(walk_minors(m))
        assert other_cores and None not in other_cores


class TestScanBudget:
    def test_exact_count_below_the_exact_size(self):
        with pytest.raises(ValueError, match=r"a scan of 2674439 minors exceeds"):
            check_scan_budget(13)
        check_scan_budget(13, max_order=2)
        with pytest.raises(ValueError, match="max_order"):
            check_scan_budget(13, max_order=0)

    def test_lower_bound_at_any_size(self):
        # at size 1501 the order-1 minors alone pass the budget
        with pytest.raises(ValueError, match=r"at least 1127251 minors .* 1000000"):
            check_scan_budget(1501)
        start = perf_counter()
        for size in (10**4, 10**20, 10**300):
            with pytest.raises(ValueError, match="at least"):
                check_scan_budget(size)
        assert perf_counter() - start < 1
        # a large size under a small order can fit: C(1001, 2) order-1 minors
        check_scan_budget(1000, max_order=1)

    def test_full_count_is_closed_form(self):
        start = perf_counter()
        assert minor_count(20001) > 10**12000
        assert perf_counter() - start < 1


class TestUnitLowerInverse:
    def test_requires_unit_diagonal(self):
        with pytest.raises(ValueError):
            unit_lower_inverse(TriMatrix(((Fraction(2),),)))

    def test_matches_cramer_cofactors(self):
        rng = Random(31)
        for _ in range(10):
            n = rng.randint(1, 5)
            m = _random_unit_lower(rng, n)
            inv = unit_lower_inverse(m)
            assert is_identity(tri_mul(m.rows, inv.rows))
            dense = [[m.entry(r, c) for c in range(n + 1)] for r in range(n + 1)]
            for i in range(n + 1):
                for k in range(i + 1):
                    # adjugate formula: inverse (i,k) entry is the signed
                    # complementary cofactor with row k and column i deleted
                    sub = [
                        [dense[r][c] for c in range(n + 1) if c != i]
                        for r in range(n + 1)
                        if r != k
                    ]
                    assert inv.entry(i, k) == (-1) ** (i + k) * cofactor_det(sub)


# below-diagonal entries with denominators 1-7
sevenths = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def unit_lower_rows(draw, max_size=6):
    size = draw(st.integers(2, max_size))
    return tuple(tuple(draw(st.lists(sevenths, min_size=m, max_size=m))) + (Fraction(1),)
                 for m in range(size))


@st.composite
def rational_pairs(draw, max_n=5):
    """Pairs whose common denominator L is above 1."""
    n = draw(st.integers(1, max_n))
    a, e = (tuple(draw(st.lists(sevenths, min_size=n, max_size=n))) for _ in "ae")
    sp = SequencePair(a, e)
    assume(sp.scaled()[2] > 1)
    return sp


class TestInverseOnInts:
    """unit_lower_inverse runs on the ints; the Fraction forward
    substitution of the oracles is the reference."""

    @given(unit_lower_rows())
    def test_rational_rows(self, rows):
        m = TriMatrix(rows)
        assume(m.den > 1)
        assert unit_lower_inverse(m).rows == unit_lower_inverse_rows(rows)

    @given(rational_pairs())
    def test_pair_scale(self, sp):
        m = stirling_recurrence(sp)
        assert m.scale > 1
        assert unit_lower_inverse(m).rows == unit_lower_inverse_rows(m.rows)


class TestMinorsOnPairScale:
    @given(rational_pairs(max_n=4), st.one_of(st.none(), st.integers(1, 5)))
    def test_matches_combination_oracle(self, sp, max_order):
        m = stirling_recurrence(sp)
        assert m.scale > 1
        assert list(iter_minors(m, max_order)) == triangular_minors(m.rows, max_order)


class TestSignPattern:
    def test_partition_preset_has_alternating_inverse(self):
        m = stirling_recurrence(preset("stirling2", 6))
        assert first_sign_violation(unit_lower_inverse(m)) is None

    def test_violation_located(self):
        m = TriMatrix((
            (Fraction(1),),
            (Fraction(-1), Fraction(1)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ))
        # inverse entry (1,0) is +1, breaking the (-1)^(m-k) pattern
        v = first_sign_violation(unit_lower_inverse(m))
        assert v == EntryWitness(row=1, col=0, value=Fraction(1))

    def test_zero_entries_conform(self):
        assert first_sign_violation(TriMatrix(identity_rows(3))) is None


class TestDecide:
    def test_positive_case_builds_certificate(self):
        v = decide_tnn(sequence_pair([0, 1, 2], [0, 1, 2]))
        assert v.is_tnn and v.witness is None
        assert v.certificate.pivots == ((1, 1), (2, 2), (3, 3))
        assert v.certificate.all_nonnegative

    def test_negative_case_names_entry(self):
        v = decide_tnn(sequence_pair([0, 1], [0, 2]))
        assert not v.is_tnn and v.certificate is None
        assert (v.witness.row, v.witness.col) == (2, 1)
        assert v.witness.value == -1

    def test_witness_at_level_one(self):
        v = decide_tnn(sequence_pair([0, 1], [1, 0]))
        assert (v.witness.row, v.witness.col) == (1, 0)
        assert v.witness.value == -1

    def test_requires_monotone_a(self):
        with pytest.raises(ValueError):
            decide_tnn(sequence_pair([1, 0], [0, 0]))

    def test_empty_pair_is_tnn(self):
        v = decide_tnn(sequence_pair([], []))
        assert v.is_tnn and v.certificate.pivots == ()

    def test_agreement_with_exhaustive_on_random_integer_pairs(self):
        rng = Random(2024)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = sorted(rng.randint(0, 3) for _ in range(n))
            e = [rng.randint(-2, 3) for _ in range(n)]
            sp = SequencePair(tuple(map(Fraction, a)), tuple(map(Fraction, e)))
            verdict = decide_tnn(sp)
            minor = is_tnn_exhaustive(stirling_recurrence(sp))
            assert verdict.is_tnn == (minor is None), (a, e)


class TestWitnessFromPrefix:
    @given(monotone_pairs(broken=True))
    def test_witness_is_the_full_matrix_entry(self, sp):
        verdict = decide_tnn(sp)
        w = verdict.witness
        assert not verdict.is_tnn and w is not None
        assert (w.row, w.col) == (verdict.rgs.violation.index,
                                  verdict.rgs.violation.level - 1)
        assert w.value == stirling_recurrence(sp).entry(w.row, w.col) < 0
