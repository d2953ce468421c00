"""Figure 1: the constant-propagation lattice and its meet rules."""

from hypothesis import given, strategies as st

from repro.lattice import BOTTOM, TOP, const, depth_to_bottom, meet_all


def elements():
    return st.one_of(
        st.just(TOP),
        st.just(BOTTOM),
        st.integers(-100, 100).map(const),
    )


class TestMeetRules:
    """The exact rules of Figure 1."""

    def test_top_is_identity(self):
        for x in (TOP, BOTTOM, const(3)):
            assert TOP.meet(x) == x
            assert x.meet(TOP) == x

    def test_equal_constants(self):
        assert const(5).meet(const(5)) == const(5)

    def test_unequal_constants_give_bottom(self):
        assert const(5).meet(const(6)) == BOTTOM

    def test_bottom_absorbs(self):
        for x in (TOP, BOTTOM, const(3)):
            assert BOTTOM.meet(x) == BOTTOM
            assert x.meet(BOTTOM) == BOTTOM


class TestProperties:
    @given(elements(), elements())
    def test_commutative(self, a, b):
        assert a.meet(b) == b.meet(a)

    @given(elements(), elements(), elements())
    def test_associative(self, a, b, c):
        assert a.meet(b).meet(c) == a.meet(b.meet(c))

    @given(elements())
    def test_idempotent(self, a):
        assert a.meet(a) == a

    @given(elements(), elements())
    def test_meet_is_lower_bound(self, a, b):
        result = a.meet(b)
        assert result <= a
        assert result <= b

    @given(elements())
    def test_partial_order_reflexive(self, a):
        assert a <= a

    @given(elements(), elements())
    def test_lowering_bounded_by_two(self, a, b):
        """The bounded-depth property: meets only descend, and from TOP
        at most two levels exist."""
        result = a.meet(b)
        assert depth_to_bottom(result) <= depth_to_bottom(a)
        assert depth_to_bottom(result) <= depth_to_bottom(b)


class TestDepth:
    def test_depths(self):
        assert depth_to_bottom(TOP) == 2
        assert depth_to_bottom(const(0)) == 1
        assert depth_to_bottom(BOTTOM) == 0


class TestMeetAll:
    def test_empty_meet_is_top(self):
        assert meet_all([]) == TOP

    def test_all_equal_constants(self):
        assert meet_all([const(2), const(2), const(2)]) == const(2)

    def test_mixed_constants(self):
        assert meet_all([const(2), const(3)]) == BOTTOM

    def test_short_circuit_on_bottom(self):
        assert meet_all([BOTTOM, const(1)]) == BOTTOM


class TestValueBasics:
    def test_immutability(self):
        import pytest

        with pytest.raises(AttributeError):
            TOP.kind = "const"

    def test_repr(self):
        assert repr(TOP) == "T"
        assert repr(BOTTOM) == "_|_"
        assert repr(const(4)) == "const(4)"

    def test_flags(self):
        assert TOP.is_top and not TOP.is_constant
        assert BOTTOM.is_bottom
        assert const(1).is_constant and const(1).value == 1

    def test_hashable(self):
        assert len({TOP, BOTTOM, const(1), const(1)}) == 3
