"""Property-based tests: generalized-interval algebra invariants."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from vidb.intervals.generalized import GeneralizedInterval
from vidb.intervals.interval import Interval

# Small rational endpoints keep arithmetic exact and shrinking readable.
coordinates = st.integers(min_value=0, max_value=40).map(
    lambda n: Fraction(n, 2))


@st.composite
def intervals(draw):
    lo = draw(coordinates)
    width = draw(coordinates)
    closed_lo = draw(st.booleans())
    closed_hi = draw(st.booleans())
    if width == 0:
        return Interval(lo, lo)
    return Interval(lo, lo + width, closed_lo, closed_hi)


generalized = st.lists(intervals(), max_size=6).map(GeneralizedInterval)


class TestNormalFormInvariants:
    @given(generalized)
    def test_fragments_sorted_and_disjoint(self, g):
        for first, second in zip(g.fragments, g.fragments[1:]):
            assert first.hi <= second.lo
            assert not first.overlaps(second)
            assert not first.adjacent(second)  # maximal runs

    @given(generalized)
    def test_normalization_idempotent(self, g):
        assert GeneralizedInterval(g.fragments) == g


class TestAlgebraLaws:
    @given(generalized, generalized)
    def test_union_commutative(self, a, b):
        assert a | b == b | a

    @given(generalized, generalized, generalized)
    def test_union_associative(self, a, b, c):
        assert (a | b) | c == a | (b | c)

    @given(generalized)
    def test_union_idempotent(self, a):
        assert a | a == a

    @given(generalized, generalized)
    def test_intersection_commutative(self, a, b):
        assert (a & b) == (b & a)

    @given(generalized, generalized, generalized)
    def test_intersection_associative(self, a, b, c):
        assert (a & b) & c == a & (b & c)

    @given(generalized, generalized, generalized)
    def test_intersection_distributes_over_union(self, a, b, c):
        assert a & (b | c) == (a & b) | (a & c)

    @given(generalized, generalized)
    def test_difference_disjoint_from_subtrahend(self, a, b):
        assert ((a - b) & b).is_empty()

    @given(generalized, generalized)
    def test_difference_union_restores(self, a, b):
        assert (a - b) | (a & b) == a

    @given(generalized, generalized)
    def test_de_morgan_via_difference(self, a, b):
        universe = a | b
        assert universe - (a & b) == (universe - a) | (universe - b)


class TestOrderingAndMeasure:
    @given(generalized, generalized)
    def test_contains_iff_intersection_fixes(self, a, b):
        assert a.contains(b) == ((a & b) == b)

    @given(generalized, generalized)
    def test_union_measure_inclusion_exclusion(self, a, b):
        assert (a | b).measure == a.measure + b.measure - (a & b).measure

    @given(generalized, generalized)
    def test_overlaps_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(generalized, generalized)
    def test_before_implies_no_overlap(self, a, b):
        if a.before(b):
            assert not a.overlaps(b)

    @given(generalized)
    def test_span_contains_everything(self, a):
        span = a.span()
        if span is not None:
            assert GeneralizedInterval([span]).contains(a)


class TestConstraintDuality:
    @given(generalized)
    def test_point_based_roundtrip(self, g):
        assert GeneralizedInterval.from_constraint(g.to_constraint()) == g

    @given(generalized, coordinates)
    def test_constraint_and_footprint_agree_pointwise(self, g, point):
        from vidb.intervals.generalized import T

        constraint = g.to_constraint()
        if constraint.is_false():
            assert not g.contains_point(point)
        else:
            assert constraint.evaluate({T: point}) == g.contains_point(point)

    @given(generalized, generalized)
    def test_containment_matches_entailment(self, a, b):
        """The bridge the paper's 'contains' rule relies on: footprint
        containment coincides with duration-constraint entailment."""
        from vidb.constraints.kernel import default_kernel

        assert a.contains(b) == default_kernel().entails(
            b.to_constraint(), a.to_constraint())
