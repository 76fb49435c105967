"""Hypothesis strategies for sequence pairs with non-decreasing a."""

from fractions import Fraction

from hypothesis import strategies as st

from gstirling.core import SequencePair

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)
gaps = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3)


@st.composite
def monotone_pairs(draw, max_n=7, broken=None):
    """Non-decreasing rational a drawn from at most three values, so values
    repeat and zero weights appear off the pivot positions too.  e follows
    the growth rule, each e_i either the current cap (a hit, which moves the
    cap on) or below it, up to an optional break where e_i exceeds the cap;
    after the break e is arbitrary.  broken=None draws whether to break."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    values = draw(st.lists(rationals, min_size=1, max_size=3))
    a = sorted(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    if broken is None:
        broken = draw(st.booleans())
    cut = draw(st.integers(min_value=0, max_value=n - 1)) if broken else n
    e, f = [], 0
    for i in range(n):
        if i < cut:
            hit = draw(st.booleans())
            e.append(a[f] if hit else a[f] - draw(gaps))
            f += hit
        elif i == cut:
            e.append(a[f] + draw(gaps))
        else:
            e.append(draw(rationals))
    return SequencePair(tuple(a), tuple(e))
