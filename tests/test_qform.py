"""Diagonal forms: construction, canonicalization, isometry, subforms."""

import pytest
from hypothesis import given, settings, strategies as st

from rigidwitt.errors import IsotropicInputError, NotASubformError, ParseError
from rigidwitt.qform import (
    DiagonalForm,
    PfisterSpec,
    canonicalize,
    complement,
    decompose_over_split,
    determinant,
    discriminant,
    format_form,
    hyperbolic_plane,
    is_isometric,
    is_subform,
    neg,
    orth_sum,
    parse_form,
    parse_pfister_spec,
    pfister,
    pure_part,
    scale,
    tensor,
)
from rigidwitt.sqclass import Base, FieldDesc
from rigidwitt.witt import anisotropic_part, is_anisotropic, value_set

F2 = FieldDesc(Base.F3, 2)
F3V = FieldDesc(Base.F3, 3)


def _f(text, field=F2):
    return parse_form(text, field)


def test_entries_are_sorted():
    phi = _f("<t1,1,-t2>")
    assert format_form(phi) == "<1,t1,-t2>"


def test_parse_examples():
    assert format_form(_f("<1,-t1,t2*t1>")) == "<1,t1*t2,-t1>"
    assert is_isometric(_f("<<t1,t2>>"), _f("<1,-t1,-t2,t1*t2>"))
    with pytest.raises(ParseError):
        parse_form("<t3>", FieldDesc(Base.F3, 1))
    with pytest.raises(ParseError):
        parse_form("1,t1", F2)


def test_pfister_sugar_and_spec():
    spec = parse_pfister_spec("-t1*<<t1,t2>>", F2)
    assert spec.scalar == -F2.var(1)
    assert spec.fold == 2
    assert is_isometric(spec.expand(), scale(-F2.var(1), pfister(spec.slots)))


def test_pfister_expansion():
    phi = pfister((F2.var(1), F2.var(2)))
    assert phi.dim == 4
    assert is_isometric(phi, _f("<1,-t1,-t2,t1*t2>"))


def test_pure_part():
    spec = PfisterSpec(F2.one(), (F2.var(1), F2.var(2)))
    pp = pure_part(spec)
    assert pp.dim == 3
    assert is_isometric(orth_sum(_f("<1>"), pp), pfister(spec.slots))


def test_determinant_discriminant():
    phi = _f("<1,t1,t2,t1*t2>")
    assert determinant(phi).is_one()
    assert discriminant(phi).is_one()
    psi = _f("<1,-t1>")
    assert discriminant(psi) == F2.var(1)  # -(-t1) = t1


def test_canonicalize_doubled_pair_rule():
    # over level-2 fields <x,x> and <-x,-x> are isometric; the canonical
    # representative takes the lexicographically smaller class twice
    phi = DiagonalForm(F2, (-F2.var(1), -F2.var(1)))
    assert canonicalize(phi) == DiagonalForm(F2, (F2.var(1), F2.var(1)))
    assert is_isometric(phi, canonicalize(phi))


def test_canonicalize_rejects_isotropic():
    with pytest.raises(IsotropicInputError):
        canonicalize(hyperbolic_plane(F2))


def test_isometry_basics():
    assert is_isometric(_f("<1,1>"), _f("<-1,-1>"))  # level 2
    assert not is_isometric(_f("<1,t1>"), _f("<1,-t1>"))
    assert not is_isometric(_f("<1>"), _f("<1,1>"))


def test_subform_and_complement():
    phi = _f("<1,-t1,-t2,t1*t2>")
    psi = _f("<1,-t1>")
    assert is_subform(psi, phi)
    rho = complement(psi, phi)
    assert is_isometric(orth_sum(psi, rho), phi)
    with pytest.raises(NotASubformError):
        complement(_f("<t1>"), phi)


def test_subform_sees_flipped_doubled_entries():
    phi = DiagonalForm(F2, (F2.one(), F2.one(), F2.var(1)))
    assert is_subform(_f("<-1>"), phi)  # <1,1> = <-1,-1> hides a <-1>


@st.composite
def small_forms(draw, max_dim=5):
    base = draw(st.sampled_from([Base.F3, Base.R, Base.C]))
    field = FieldDesc(base, draw(st.integers(0, 3)))
    classes = st.sampled_from(list(field.classes()))
    dim = draw(st.integers(0, max_dim))
    return DiagonalForm(field, tuple(draw(classes) for _ in range(dim)))


@given(small_forms())
def test_tensor_scale_dims(phi):
    assert scale(phi.field.one(), phi) == phi
    assert tensor(phi, phi).dim == phi.dim * phi.dim
    assert neg(neg(phi)) == phi


@given(small_forms())
def test_format_parse_roundtrip(phi):
    assert parse_form(format_form(phi), phi.field) == phi


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_decompose_over_split_properties(seed):
    import random

    rng = random.Random(seed)
    field = FieldDesc(rng.choice([Base.F3, Base.R]), rng.randrange(1, 3))

    def rand_aniso(max_dim):
        while True:
            phi = DiagonalForm(field, tuple(
                field.random_class(rng)
                for _ in range(rng.randrange(1, max_dim + 1))))
            if is_anisotropic(phi):
                return phi

    phi1 = rand_aniso(3)
    phi2 = rand_aniso(3)
    ambient = orth_sum(phi1, phi2)
    if not is_anisotropic(ambient):
        return
    k = rng.randrange(0, ambient.dim + 1)
    psi = DiagonalForm(field, ambient.entries[:k])
    psi1, psi2, psi3 = decompose_over_split(psi, phi1, phi2)
    assert is_isometric(orth_sum(orth_sum(psi1, psi2), psi3), psi)
    assert is_subform(psi1, phi1)
    assert is_subform(psi2, phi2)
    d1, d2 = value_set(phi1), value_set(phi2)
    for x in psi3:
        assert x not in d1 and x not in d2
    if field.level() != 2:
        assert psi3.dim == 0
