"""Witt ring: the group-ring read-off vs the Springer recursion oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from rigidwitt.errors import IsotropicInputError, IsotropicSumError
from rigidwitt.ideals import extend_scalars_quadratic, lift_form
from rigidwitt.qform import (
    DiagonalForm,
    format_form,
    is_subform,
    neg,
    orth_sum,
    parse_form,
    pfister,
    scale,
    tensor,
)
from rigidwitt.sqclass import Base, FieldDesc, SquareClass, parse_field
from rigidwitt.witt import (
    anisotropic_part,
    group_ring_equal,
    is_anisotropic,
    is_hyperbolic,
    is_isotropic,
    represents,
    three_form_witt_index_check,
    value_set,
    witt_index,
    witt_vector,
)

F1 = FieldDesc(Base.F3, 1)
F2 = FieldDesc(Base.F3, 2)


def _f(text, field=F2):
    return parse_form(text, field)


def test_springer_examples():
    phi = DiagonalForm(F1, (F1.one(), F1.one(), F1.var(1),
                            F1.var(1), F1.var(1)))
    an = anisotropic_part(phi)
    assert format_form(an) == "<1,1,-t1>"
    assert witt_index(phi) == 1


def test_base_field_f3():
    f0 = FieldDesc(Base.F3, 0)
    phi = DiagonalForm(f0, (f0.one(),) * 3)
    assert format_form(anisotropic_part(phi)) == "<-1>"  # 3 = -1 mod squares


@pytest.mark.parametrize("field", [
    FieldDesc(Base.F3, 3), FieldDesc(Base.R, 2), FieldDesc(Base.C, 3),
    FieldDesc(Base.SQUARE_MINUS_ONE, 2)], ids=str)
def test_anisotropic_part_returns_a_canonical_input_itself(field):
    # a canonical anisotropic form comes back as the same object; a form
    # built from its entries in another order is that form, and so is
    # returned itself too
    rng = random.Random(808)
    classes = list(field.classes())
    for _ in range(60):
        phi = DiagonalForm(field, tuple(
            rng.choice(classes) for _ in range(rng.randrange(0, 10))))
        an = anisotropic_part(phi)
        assert anisotropic_part(an) is an
        shuffled = DiagonalForm(field, tuple(
            rng.sample(an.entries, an.dim)))
        assert shuffled == an
        assert anisotropic_part(shuffled) is shuffled


def test_anisotropic_part_of_a_non_canonical_input():
    # a doubled class written with the unit bit (<-x,-x> = <x,x> at
    # level 2) and an isotropic form give a new, canonical form
    phi = _f("<-t1,-t1,t2>")
    an = anisotropic_part(phi)
    assert an is not phi and an == _f("<t1,t1,t2>")
    assert anisotropic_part(an) is an
    iso = _f("<t2,1,-1,t1>")
    assert anisotropic_part(iso) == _f("<t1,t2>")
    assert anisotropic_part(_f("<1,-1>")) == _f("<>")


def test_generic_form_anisotropic():
    phi = _f("<1,t1,t2,t1*t2>")
    assert is_anisotropic(phi)
    assert witt_vector(phi) == (1, 1, 1, 1)


def test_hyperbolic_detection():
    assert is_hyperbolic(_f("<1,-1,t1,-t1>"))
    assert not is_hyperbolic(_f("<1,1>"))


def test_value_set_binary():
    phi = _f("<1,t1>")
    assert value_set(phi) == frozenset({F2.one(), F2.var(1)})


def test_zero_form_represents_nothing():
    zero = DiagonalForm(F2, ())
    assert not represents(zero, F2.one())
    assert value_set(zero) == frozenset()


def test_isotropic_forms_are_universal():
    phi = _f("<1,-1,t1>")
    assert all(represents(phi, x) for x in F2.classes())


@st.composite
def forms(draw, max_dim=6, max_vars=3):
    base = draw(st.sampled_from(list(Base)))
    field = FieldDesc(base, draw(st.integers(0, max_vars)))
    classes = st.sampled_from(list(field.classes()))
    dim = draw(st.integers(0, max_dim))
    return DiagonalForm(field, tuple(draw(classes) for _ in range(dim)))


@given(forms())
def test_group_ring_readout_matches_springer(springer, phi):
    an = anisotropic_part(phi)
    assert sorted(e.bits for e in an.entries) == springer(
        phi.field, [e.bits for e in phi])


@pytest.mark.parametrize("base", list(Base))
def test_readout_over_many_variables(springer, base):
    # |H| is 2^40 here, so the read-off must not build the dense vector
    field = FieldDesc(base, 40)
    rng = random.Random(40)
    for _ in range(200):
        x = SquareClass(field, rng.getrandbits(41))
        y = rng.choice([x, -x, SquareClass(field, rng.getrandbits(41))])
        entries = [x, y] + [SquareClass(field, rng.getrandbits(41))
                            for _ in range(rng.randint(0, 1))]
        phi = DiagonalForm(field, tuple(entries))
        expect = springer(field, [e.bits for e in phi])
        assert sorted(e.bits for e in anisotropic_part(phi)) == expect
        assert is_isotropic(phi) == (len(expect) < phi.dim)


@given(forms(), forms())
def test_group_ring_equality_oracle(phi, psi):
    if phi.field != psi.field:
        return
    assert group_ring_equal(phi, psi) == \
        (anisotropic_part(phi) == anisotropic_part(psi))


@given(forms(max_dim=4), forms(max_dim=4))
def test_witt_index_additivity(phi, psi):
    # Springer: the Witt index of an orthogonal sum of forms split by
    # variable parity is additive over the residue pieces
    if phi.field != psi.field:
        return
    total = orth_sum(phi, psi)
    assert witt_vector(total) == tuple(
        (a + b) % m if (m := _modulus(phi.field)) else a + b
        for a, b in zip(witt_vector(phi), witt_vector(psi)))


def _modulus(field):
    return field._ring[0]


# --- ring maps on Witt vectors, against the conftest group ring ------------

@st.composite
def field_forms(draw, max_dim=5, max_vars=3, unit=None):
    """Two forms and a square class over one field; with `unit` set, the
    class is the nonsquare unit class (True) or has a Laurent part
    (False)."""
    bases = [b for b in Base if not (unit and b is Base.C)]
    min_vars = 1 if unit is False else 0
    field = FieldDesc(draw(st.sampled_from(bases)),
                      draw(st.integers(min_vars, max_vars)))
    classes = list(field.classes())
    phi, psi = (DiagonalForm(field, tuple(draw(st.lists(
        st.sampled_from(classes), max_size=max_dim)))) for _ in range(2))
    if unit is not None:
        classes = [c for c in classes
                   if not c.is_one() and c.is_unit_class() == unit]
    return phi, psi, draw(st.sampled_from(classes))


def _bits(phi):
    return [e.bits for e in phi.entries]


@given(field_forms())
def test_scale_permutes_the_vector(raw_field, args):
    phi, _, c = args
    raw = raw_field(phi.field)
    v = raw.vector(_bits(phi))
    if raw.full_index:
        shift, sign = c.bits, 1
    else:
        shift, sign = c.bits >> 1, -1 if c.bits & 1 else 1
    assert witt_vector(scale(c, phi)) == raw.reduce(
        [sign * v[i ^ shift] for i in range(raw.size)])


@given(field_forms())
def test_tensor_is_the_group_ring_product(raw_field, args):
    phi, psi, _ = args
    raw = raw_field(phi.field)
    assert witt_vector(tensor(phi, psi)) == raw.mul(
        raw.vector(_bits(phi)), raw.vector(_bits(psi)))


def _check_ring_map(raw, target, f, phi, psi):
    """f, applied to the forms the oracle reads off Witt vectors, is
    additive and multiplicative on the vectors over `target`."""
    def image(v):
        return target.vector(_bits(f(raw.form(v))))

    v, w = raw.vector(_bits(phi)), raw.vector(_bits(psi))
    assert image(raw.add(v, w)) == target.add(image(v), image(w))
    assert image(raw.mul(v, w)) == target.mul(image(v), image(w))


@given(field_forms(), st.integers(0, 2))
def test_lift_form_is_a_ring_map(raw_field, args, extra):
    phi, psi, _ = args
    big = phi.field.extended(extra)
    _check_ring_map(raw_field(phi.field), raw_field(big),
                    lambda form: lift_form(form, big), phi, psi)


@pytest.mark.parametrize("unit", [False, True], ids=["non-unit", "unit"])
@given(data=st.data())
def test_quadratic_extension_is_a_ring_map(raw_field, unit, data):
    phi, psi, a = data.draw(field_forms(unit=unit))
    target, _ = extend_scalars_quadratic(phi, a)
    _check_ring_map(raw_field(phi.field), raw_field(target),
                    lambda form: extend_scalars_quadratic(form, a)[1],
                    phi, psi)


def test_pfister_forms_are_round_or_hyperbolic():
    rng = random.Random(5)
    f = FieldDesc(Base.F3, 3)
    for _ in range(100):
        slots = tuple(f.random_class(rng) for _ in range(3))
        phi = pfister(slots)
        assert witt_index(phi) in (0, 4)  # anisotropic or hyperbolic


def test_level2_value_set_of_sum():
    # D(phi1 + phi2) = D1 u D2 u {-x : x in D1 n D2} over level-2 fields
    rng = random.Random(13)
    f = FieldDesc(Base.F3, 2)
    checked = 0
    while checked < 50:
        phi1 = DiagonalForm(f, tuple(
            f.random_class(rng) for _ in range(rng.randrange(1, 4))))
        phi2 = DiagonalForm(f, tuple(
            f.random_class(rng) for _ in range(rng.randrange(1, 4))))
        total = orth_sum(phi1, phi2)
        if is_isotropic(total):
            continue
        d1, d2 = value_set(phi1), value_set(phi2)
        expected = d1 | d2 | {-x for x in d1 & d2}
        assert value_set(total) == expected
        checked += 1


def _rand_aniso(rng, field, max_dim):
    while True:
        phi = DiagonalForm(field, tuple(
            field.random_class(rng)
            for _ in range(rng.randrange(1, max_dim + 1))))
        if is_anisotropic(phi):
            return phi


def test_three_form_check_matches_direct_index():
    rng = random.Random(99)
    trials = 0
    while trials < 60:
        field = FieldDesc(rng.choice([Base.F3, Base.R]), rng.randrange(1, 3))
        phi1 = _rand_aniso(rng, field, 3)
        phi2 = _rand_aniso(rng, field, 3)
        if is_isotropic(orth_sum(phi1, phi2)):
            continue
        phi3 = _rand_aniso(rng, field, 4)
        total = orth_sum(orth_sum(phi1, phi2), phi3)
        iw = witt_index(total)
        for m in range(iw + 2):
            ok, witness = three_form_witt_index_check(phi1, phi2, phi3, m)
            assert ok == (iw >= m)
            if ok:
                assert is_subform(witness.psi1, phi1)
                assert is_subform(witness.psi2, phi2)
                d1, d2 = value_set(phi1), value_set(phi2)
                for x in witness.extra_classes:
                    assert x not in d1 and x not in d2
                assert (witness.psi1.dim + witness.psi2.dim
                        + len(witness.extra_classes)) >= iw
        trials += 1


def _common_part(raw, u, v):
    """Coefficient by coefficient, the largest Witt class below both u
    and v: the Witt vector of every maximal common subform of the forms
    in the classes u and v.  Below c mod 4 lie 0 and c, and everything
    below 2 = <h,h> = <-h,-h>; over Z the same-sign part of the lesser
    size; mod 2 the lesser."""
    if raw.m == 4:
        below = {0: {0}, 1: {0, 1}, 2: {0, 1, 2, 3}, 3: {0, 3}}
        dims = {0: 0, 1: 1, 2: 2, 3: 1}
        return tuple(max(below[a] & below[b], key=dims.get)
                     for a, b in zip(u, v))
    if raw.m == 2:
        return tuple(map(min, u, v))
    return tuple(0 if a * b <= 0 else min(a, b, key=abs)
                 for a, b in zip(u, v))


def test_three_form_witness_is_the_common_part(raw_field):
    # psi1 + psi2 + <extras> is a largest common subform of phi1 + phi2
    # and -phi3; that subform is unique up to isometry, so the witness
    # does not depend on which common value is peeled first
    rng = random.Random(305)
    for base in Base:
        trials = 0
        while trials < 40:
            field = FieldDesc(base, rng.randrange(0, 3))
            raw = raw_field(field)
            phi1, phi2 = (_rand_aniso(rng, field, 4) for _ in range(2))
            if is_isotropic(orth_sum(phi1, phi2)):
                continue
            phi3 = _rand_aniso(rng, field, 6)
            ok, w = three_form_witt_index_check(phi1, phi2, phi3, 0)
            assert ok
            found = raw.vector(_bits(w.psi1) + _bits(w.psi2)
                               + [x.bits for x in w.extra_classes])
            common = _common_part(raw, raw.vector(_bits(phi1) + _bits(phi2)),
                                  raw.vector(_bits(neg(phi3))))
            assert found == common
            trials += 1


@pytest.mark.parametrize("field,forms,witness", [
    # <1,1> represents -1, which neither summand does
    ("F3[]", ("<1>", "<1>", "<1>"), ("<>", "<>", ("-1",))),
    # -phi3 = <-t1,-t1> = <t1,t1>: peeling t1 or -t1 first ends alike
    ("F3[t1]", ("<t1>", "<t1>", "<t1,t1>"), ("<t1>", "<t1>", ())),
    ("F3[t1,t2]", ("<1,t1>", "<t1,t2>", "<-t1,-t1,-t2,t1*t2>"),
     ("<t1>", "<t1,t2>", ())),
])
def test_three_form_witness_examples(field, forms, witness):
    fld = parse_field(field)
    ok, w = three_form_witt_index_check(
        *(parse_form(text, fld) for text in forms), 0)
    assert ok
    assert (format_form(w.psi1), format_form(w.psi2),
            tuple(map(str, w.extra_classes))) == witness


def test_three_form_check_preconditions():
    phi = _f("<1,t1>")
    iso = _f("<1,-1>")
    with pytest.raises(IsotropicInputError):
        three_form_witt_index_check(iso, phi, phi, 0)
    with pytest.raises(IsotropicSumError):
        three_form_witt_index_check(_f("<1>"), _f("<-1>"), phi, 0)
