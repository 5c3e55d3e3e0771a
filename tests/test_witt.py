"""Witt ring: Springer recursion vs the group-ring picture."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from rigidwitt.errors import IsotropicInputError, IsotropicSumError
from rigidwitt.qform import (
    DiagonalForm,
    format_form,
    is_subform,
    neg,
    orth_sum,
    parse_form,
    pfister,
    scale,
)
from rigidwitt.sqclass import Base, FieldDesc
from rigidwitt.witt import (
    anisotropic_from_group_ring,
    anisotropic_part,
    form_from_witt_vector,
    group_ring_equal,
    is_anisotropic,
    is_hyperbolic,
    is_isotropic,
    represents,
    residue_forms,
    three_form_witt_index_check,
    to_group_ring,
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


def test_generic_form_anisotropic():
    phi = _f("<1,t1,t2,t1*t2>")
    assert is_anisotropic(phi)
    assert witt_vector(phi) == (1, 1, 1, 1)


def test_hyperbolic_detection():
    assert is_hyperbolic(_f("<1,-1,t1,-t1>"))
    assert not is_hyperbolic(_f("<1,1>"))


def test_residue_forms_renumber_down():
    f3 = FieldDesc(Base.F3, 3)
    phi = parse_form("<1,t2,-t1*t2*t3,t3>", f3)
    even, odd = residue_forms(phi, 2)
    assert even.field == FieldDesc(Base.F3, 2)
    # t3 renumbers to t2; entries with a t2 factor drop it
    assert format_form(even) == "<1,t2>"
    assert format_form(odd) == "<1,-t1*t2>"


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
def test_group_ring_readout_matches_springer(phi):
    assert anisotropic_from_group_ring(to_group_ring(phi)) == \
        anisotropic_part(phi)


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
    from rigidwitt.witt import _ring_params

    return _ring_params(field)[0]


@given(forms())
def test_witt_vector_roundtrip(phi):
    an = anisotropic_part(phi)
    assert form_from_witt_vector(phi.field, witt_vector(phi)) == an


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


def test_three_form_check_preconditions():
    phi = _f("<1,t1>")
    iso = _f("<1,-1>")
    with pytest.raises(IsotropicInputError):
        three_form_witt_index_check(iso, phi, phi, 0)
    with pytest.raises(IsotropicSumError):
        three_form_witt_index_check(_f("<1>"), _f("<-1>"), phi, 0)
