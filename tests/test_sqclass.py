"""Square-class group, field models, parsing, and basis changes."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from rigidwitt.errors import ParseError, UnitClassError
from rigidwitt.sqclass import (
    _DENSE_BITS,
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


def test_parse_square_class_points_at_an_empty_literal():
    with pytest.raises(ParseError, match="empty square-class") as info:
        parse_square_class("", FieldDesc(Base.F3, 2))
    assert info.value.position == 0


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


# --- the field layer: one interned FieldDesc per (base, nvars) ------------

# the per-call formulas the field's constants replace, by base: the
# modulus of W(F) = (Z/m)[H] (0 for Z), index bits beyond nvars, whether
# the unit bit is split off H, the flex bit and the bit of -1
_OLD = {Base.F3: (4, 0, 1, 1, 1), Base.R: (0, 0, 1, 0, 1),
        Base.C: (2, 0, 0, 0, 0), Base.SQUARE_MINUS_ONE: (2, 1, 0, 0, 0)}


def _old_constants(f):
    modulus, extra, split, flex, minus = _OLD[f.base]
    m = f.nvars + extra
    lanes = (modulus, 0, 0, 0)
    if modulus and m <= 10:  # one byte lane per H-index
        lo = sum(1 << 8 * i for i in range(1 << m))
        lanes = (modulus, lo, lo * modulus, lo * (modulus - 1))
    return {"ring": (modulus, m, split), "lanes": lanes, "flex": flex,
            "minus": minus}


def test_field_constants_match_the_per_call_formulas():
    # every base at nvars 0-11, so the H-index bits fall on both sides of
    # _DENSE_BITS = 10, where vectors stop being packed
    from rigidwitt.witt import _pack

    assert _DENSE_BITS == 10
    for base in Base:
        for nvars in range(12):
            f = FieldDesc(base, nvars)
            old = _old_constants(f)
            assert f._ring == old["ring"], f
            assert f._lanes == old["lanes"], f
            assert (f._flex, f._minus_bit) == (old["flex"], old["minus"]), f
            assert f._zero == _pack(f, ()) == (
                0 if old["lanes"][3] else ()), f
            assert f.minus_one().bits == old["minus"], f


@pytest.mark.parametrize("base", list(Base), ids=lambda b: b.value)
def test_a_field_is_one_object(base):
    f = FieldDesc(base, 3)
    assert f is FieldDesc(base, 3)
    assert f.residue() is FieldDesc(base, 2) and f.residue().extended(1) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert f == FieldDesc(base, 3) and hash(f) == hash(FieldDesc(base, 3))
    assert f != FieldDesc(base, 2)
    assert repr(f) == f"FieldDesc(base={base!r}, nvars=3)"
    # a pickle carries the base and nvars, not the constants or classes
    list(f.classes())
    assert len(pickle.dumps(f)) < 100
    with pytest.raises(AttributeError):
        f.nvars = 4
    for name in ("nvars", "_lanes", "_classes"):
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f.nvars == 3


def test_an_invalid_field_is_not_interned():
    before = dict(FieldDesc._interned)
    for bad in ((Base.F3, -1), ("F3", 2)):
        with pytest.raises(ValueError):
            FieldDesc(*bad)
    assert FieldDesc._interned == before


@pytest.mark.parametrize("base", list(Base), ids=lambda b: b.value)
def test_interned_classes_equal_fresh_ones(base):
    # C's unit bit folds away in the table as in SquareClass itself
    f = FieldDesc(base, 2)
    for bits in range(8):
        interned = f._classes[bits]
        assert interned == SquareClass(f, bits) and interned.field is f
        assert f._classes[bits] is interned
    assert (f._classes[0b11].bits == 0b10) == (base is Base.C)
    assert f.minus_one() == -f.one()
    for bits in (8, -1):
        with pytest.raises(ValueError, match="out of range"):
            f._classes[bits]
        assert bits not in f._classes


def test_intern_map_and_class_tables_stay_bounded():
    # 40 distinct fields, each built twice and walked through its
    # classes and random draws: one object per (base, nvars), and no
    # table above the field's 2^(nvars+1) bit patterns
    import random

    rng = random.Random(28)
    keys = [(base, nvars) for base in Base for nvars in range(10)]
    before = set(FieldDesc._interned)
    for base, nvars in keys * 2:
        f = FieldDesc(base, nvars)
        list(f.classes())
        for _ in range(50):
            f.random_class(rng)
            f._classes[rng.getrandbits(nvars + 1)]
    assert set(FieldDesc._interned) - before <= set(keys)
    for (base, nvars), f in FieldDesc._interned.items():
        assert (f.base, f.nvars) == (base, nvars)
        assert len(f._classes) <= 2 << f.nvars
