"""Square-class group, field models, parsing, and basis changes."""

import pytest
from hypothesis import given, strategies as st

from rigidwitt.errors import ParseError, UnitClassError
from rigidwitt.sqclass import (
    Base,
    FieldDesc,
    SquareClass,
    basis_change_map,
    class_map,
    find_basis_change,
    format_square_class,
    parse_field,
    parse_square_class,
)


def test_parse_field_examples():
    assert parse_field("F3[t1,t2]") == FieldDesc(Base.F3, 2)
    assert parse_field("C[]") == FieldDesc(Base.C, 0)
    assert parse_field("R[t1]") == FieldDesc(Base.R, 1)


def test_parse_field_rejects_noncontiguous():
    with pytest.raises(ParseError):
        parse_field("F3[t2]")
    with pytest.raises(ParseError):
        parse_field("F3[t1,t3]")
    with pytest.raises(ParseError):
        parse_field("Q[t1]")


def test_parse_field_points_at_the_repeated_variable():
    with pytest.raises(ParseError) as info:
        parse_field("F3[t1,t1]")
    assert info.value.position == 6


def test_parse_square_class_counts_the_unit_prefix():
    with pytest.raises(ParseError) as info:
        parse_square_class("u*t1*t9", FieldDesc(Base.SQUARE_MINUS_ONE, 2))
    assert info.value.position == 5


def test_parse_square_class_rejects_a_unit_prefix_with_no_body():
    # "u" alone is the unit class; "u*" lacks its body, as "-" does
    field = FieldDesc(Base.SQUARE_MINUS_ONE, 2)
    assert parse_square_class("u", field).bits == 1
    for text, position in (("u*", 2), ("-", 1)):
        with pytest.raises(ParseError, match="missing square-class body") \
                as info:
            parse_square_class(text, field)
        assert info.value.position == position


def test_square_class_counts():
    assert FieldDesc(Base.F3, 2).square_class_count() == 8
    assert FieldDesc(Base.C, 3).square_class_count() == 8
    assert FieldDesc(Base.SQUARE_MINUS_ONE, 1).square_class_count() == 4
    assert FieldDesc(Base.R, 0).square_class_count() == 2


def test_levels():
    assert FieldDesc(Base.F3, 5).level() == 2
    assert FieldDesc(Base.C, 2).level() == 1
    assert FieldDesc(Base.SQUARE_MINUS_ONE, 2).level() == 1
    assert FieldDesc(Base.R, 3).level() is None  # formally infinite


def test_c_base_has_no_unit_bit():
    f = FieldDesc(Base.C, 1)
    minus_t = -f.var(1)
    assert minus_t == f.var(1)  # -1 is a square
    assert SquareClass(f, 0b11).bits == 0b10


@pytest.mark.parametrize("base", list(Base), ids=lambda b: b.value)
def test_square_class_rejects_bits_outside_its_field(base):
    # no bit above t_nvars and no negative int: neither is a class of
    # the field, and neither is silently cut to one
    f = FieldDesc(base, 2)
    for bits in (1 << 3, 1 << 5, -1, -2):
        with pytest.raises(ValueError, match="out of range"):
            SquareClass(f, bits)
    assert SquareClass(f, 0b110).bits == 0b110


fields = st.builds(
    FieldDesc,
    st.sampled_from(list(Base)),
    st.integers(min_value=0, max_value=4),
)


@st.composite
def field_and_classes(draw, k=2):
    f = draw(fields)
    classes = st.sampled_from(list(f.classes()))
    return f, [draw(classes) for _ in range(k)]


@given(field_and_classes(k=2))
def test_group_laws(fc):
    f, (a, b) = fc
    one = f.one()
    assert a * one == a
    assert a * a == one  # every class is self-inverse
    assert a * b == b * a


@given(field_and_classes(k=1))
def test_negation_involution(fc):
    f, (a,) = fc
    assert -(-a) == a
    if f.level() == 1:
        assert -a == a


@given(field_and_classes(k=1))
def test_format_parse_roundtrip(fc):
    f, (a,) = fc
    assert parse_square_class(format_square_class(a), f) == a


def test_parse_square_class_examples():
    f = parse_field("F3[t1,t2]")
    t1t2 = parse_square_class("t1*t2", f)
    assert t1t2 == f.var(1) * f.var(2)
    assert parse_square_class("-1", f) == -f.one()
    with pytest.raises(ParseError):
        parse_square_class("t3", f)


def test_basis_change_moves_class_to_last_variable():
    # for every class a with a Laurent part over every base: a goes to
    # t_n, -1 is fixed, basis_change_map's back undoes the map, and
    # clearing t_n after the map is the projection of class_map(a), whose
    # section is lift
    for base in Base:
        f = FieldDesc(base, 3)
        top = 1 << f.nvars
        for a in f.classes():
            if a.is_unit_class():
                continue
            m = find_basis_change(a)
            assert m.apply(a) == f.var(3)
            assert m.apply(f.minus_one()) == f.minus_one()
            undo = basis_change_map(a.bits, f.nvars)[1]
            project, lift = class_map(a.bits)
            for c in f.classes():
                assert undo(m.apply(c).bits) == c.bits
                assert m.apply(c).bits & ~top == project(c.bits)
                if not c.bits & top:
                    assert project(lift(c.bits)) == c.bits


def test_basis_change_is_multiplicative():
    f = FieldDesc(Base.F3, 3)
    m = find_basis_change(f.var(1) * f.var(2))
    for x in f.classes():
        for y in (f.var(1), -f.var(3)):
            assert m.apply(x * y) == m.apply(x) * m.apply(y)


def test_basis_change_rejects_unit_classes():
    f = FieldDesc(Base.F3, 2)
    with pytest.raises(UnitClassError):
        find_basis_change(-f.one())


def test_residue_and_extension():
    f = FieldDesc(Base.F3, 2)
    assert f.residue() == FieldDesc(Base.F3, 1)
    assert f.extended(2) == FieldDesc(Base.F3, 4)


def test_sort_key_orders_units_first():
    f = FieldDesc(Base.F3, 1)
    classes = sorted(f.classes(), key=SquareClass.sort_key)
    assert [format_square_class(c) for c in classes] == ["1", "t1", "-1", "-t1"]
