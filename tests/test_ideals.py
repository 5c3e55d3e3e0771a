"""Fundamental-ideal membership, unimodular splits, quadratic extensions."""

import itertools
import random

import pytest

from rigidwitt.errors import (
    HyperbolicResidueError,
    SquareClassIsOneError,
    UnitClassError,
)
from rigidwitt.ideals import (
    decompose_unimodular,
    extend_scalars_quadratic,
    in_In,
    lift_form,
    rigid_decompose,
)
from rigidwitt.qform import (
    DiagonalForm,
    discriminant,
    format_form,
    hyperbolic_plane,
    neg,
    orth_sum,
    parse_form,
    pfister,
    scale,
)
from rigidwitt.sqclass import Base, FieldDesc, SquareClass, basis_change_map
from rigidwitt.witt import (
    anisotropic_part,
    group_ring_equal,
    is_hyperbolic,
    represents,
    value_set,
)

F2 = FieldDesc(Base.F3, 2)


def _f(text, field=F2):
    return parse_form(text, field)


def test_in_In_examples():
    generic = _f("<1,t1,t2,t1*t2>")
    assert in_In(generic, 1)
    assert in_In(generic, 2)
    assert not in_In(generic, 3)
    assert not in_In(_f("<1,-t1>"), 2)
    assert in_In(_f("<1>"), 0)
    assert not in_In(_f("<1>"), 1)


def test_pfister_forms_in_their_ideal():
    rng = random.Random(17)
    f = FieldDesc(Base.F3, 3)
    for _ in range(50):
        slots = tuple(f.random_class(rng) for _ in range(3))
        assert in_In(pfister(slots), 3)


@pytest.mark.parametrize("base", [Base.F3, Base.R, Base.C])
def test_I2_oracle_exhaustive(base):
    # I^2 membership = even dimension + trivial discriminant
    field = FieldDesc(base, 2)
    classes = list(field.classes())
    for dim in range(4):
        for combo in itertools.combinations_with_replacement(classes, dim):
            phi = DiagonalForm(field, combo)
            expected = phi.dim % 2 == 0 and discriminant(phi).is_one()
            assert in_In(phi, 2) == expected, format_form(phi)


@pytest.mark.parametrize("field", [
    FieldDesc(Base.F3, 2), FieldDesc(Base.F3, 3), FieldDesc(Base.C, 3),
    FieldDesc(Base.SQUARE_MINUS_ONE, 2)], ids=str)
def test_in_In_matches_ideal_power_oracle(field, raw_field, ideal_power):
    # every Witt class in its anisotropic diagonalization, then seeded
    # diagonalizations with hyperbolic planes in them
    raw = raw_field(field)
    powers = {n: ideal_power(field, n) for n in range(1, 5)}
    for v, phi in raw.witt_classes():
        for n, members in powers.items():
            assert in_In(phi, n) == (v in members), (format_form(phi), n)
    rng = random.Random(41)
    for _ in range(300):
        phi = DiagonalForm(field, tuple(
            field.random_class(rng) for _ in range(rng.randrange(0, 13))))
        v = raw.vector([e.bits for e in phi.entries])
        for n, members in powers.items():
            assert in_In(phi, n) == (v in members), (format_form(phi), n)


@pytest.mark.parametrize("base", list(Base), ids=lambda b: b.value)
def test_in_In_matches_the_residue_recursion(base, raw_field,
                                             ideal_recursion):
    # the closed form against the recursion it unrolls, R included (its
    # Witt ring is infinite, so the ideal-power oracle above skips it):
    # seeded random forms, sums of scaled Pfister forms, isotropic forms
    # (a random form plus a hyperbolic copy of part of it) and long
    # forms, whose byte lanes wrap; 11 variables take the sparse path
    rng = random.Random(1509)
    for nvars in (0, 1, 2, 3, 4, 5, 11):
        field = FieldDesc(base, nvars)
        raw = raw_field(field)
        for trial in range(100 if nvars < 6 else 12):
            kind = trial % 4
            if kind == 0:
                bits = [rng.choice(raw.classes)
                        for _ in range(rng.randrange(0, 13))]
            elif kind == 1:
                bits = []
                for _ in range(rng.randrange(1, 4)):
                    bits += raw.pfister_bits(
                        rng.choice(raw.classes),
                        [rng.choice(raw.classes)
                         for _ in range(rng.randrange(1, 5))])
            elif kind == 2:
                bits = [rng.choice(raw.classes)
                        for _ in range(rng.randrange(1, 9))]
                bits += [b ^ raw.minus_one for b in bits[:rng.randrange(
                    1, len(bits) + 1)]]
            else:
                bits = [rng.choice(raw.classes)
                        for _ in range(rng.randrange(80, 400))]
            phi = DiagonalForm(field, tuple(
                SquareClass(field, b) for b in bits))
            for n in range(7):
                assert in_In(phi, n) == ideal_recursion(field, bits, n), (
                    format_form(phi), n)
    with pytest.raises(ValueError):
        in_In(phi, -1)


def test_real_base_signature_criterion():
    f = FieldDesc(Base.R, 0)
    four = DiagonalForm(f, (f.one(),) * 4)
    assert in_In(four, 2)
    assert not in_In(four, 3)
    eight = DiagonalForm(f, (f.one(),) * 8)
    assert in_In(eight, 3)


def test_decompose_unimodular_generic():
    generic = _f("<1,t1,t2,t1*t2>")
    split = decompose_unimodular(generic)
    assert split.t == F2.var(2)
    assert split.sigma.dim == 0
    assert format_form(split.tau) == "<1,t1>"
    assert group_ring_equal(split.reassembled(), generic)


def test_decompose_unimodular_rejects_hyperbolic_residue():
    with pytest.raises(HyperbolicResidueError):
        decompose_unimodular(_f("<t2,-t2>"))


def test_decompose_unimodular_random_reassembly():
    rng = random.Random(23)
    f = FieldDesc(Base.F3, 3)
    done = 0
    while done < 60:
        phi = DiagonalForm(f, tuple(
            f.random_class(rng) for _ in range(rng.randrange(2, 7))))
        try:
            split = decompose_unimodular(phi)
        except HyperbolicResidueError:
            continue
        assert group_ring_equal(split.reassembled(), phi)
        assert split.t.field == f
        done += 1


def test_rigid_decompose_example():
    generic = _f("<1,t1,t2,t1*t2>")
    split = rigid_decompose(generic, F2.var(1))
    assert split.t == F2.var(1)
    assert split.sigma.dim == 0
    assert format_form(split.tau) == "<1,t2>"
    assert group_ring_equal(split.reassembled(), generic)


def test_rigid_decompose_preconditions():
    generic = _f("<1,t1,t2,t1*t2>")
    with pytest.raises(UnitClassError):
        rigid_decompose(generic, -F2.one())
    with pytest.raises(ValueError):
        rigid_decompose(_f("<t1,t2>"), F2.var(1))  # does not represent 1


def _split_by_round_trip(phi, a):
    """rigid_decompose by the basis change: move a onto t_n with
    basis_change_map, split along t_n on its residue forms (the entries
    without t_n, and those with it, t_n cleared), and move the split
    back; (t, sigma, tau) or the error raised."""
    field = phi.field
    if a.is_unit_class():
        return UnitClassError
    if not represents(phi, field.one()):
        return ValueError
    moved, back = basis_change_map(a.bits, field.nvars)

    def image(f, psi):
        return DiagonalForm(field, tuple(
            SquareClass(field, f(e.bits)) for e in psi))

    top = 1 << field.nvars
    psi = image(moved, phi)
    even = DiagonalForm(field, tuple(e for e in psi if not e.bits & top))
    odd = DiagonalForm(field, tuple(
        SquareClass(field, e.bits & ~top) for e in psi if e.bits & top))
    if is_hyperbolic(even) or is_hyperbolic(odd):
        return HyperbolicResidueError
    u = (min(value_set(even), key=SquareClass.sort_key)
         * min(value_set(odd), key=SquareClass.sort_key))
    sigma = anisotropic_part(orth_sum(even, neg(scale(u, odd))))
    t = u * field.var(field.nvars)
    return (SquareClass(field, back(t.bits)), image(back, sigma),
            image(back, scale(u, odd)))


@pytest.mark.parametrize("field", [FieldDesc(b, nv) for b in Base
                                   for nv in (1, 2, 3)], ids=str)
def test_rigid_decompose_matches_the_basis_change_round_trip(field):
    # the split read along a directly against the split along t_n after
    # moving a there, the raised errors included, for every class a and
    # 40 random forms of dimension 1-8, every other one holding <1>
    rng = random.Random(field.nvars)
    for trial in range(40):
        entries = [field.random_class(rng)
                   for _ in range(rng.randrange(1, 9 - trial % 2))]
        if trial % 2:
            entries.append(field.one())
        phi = DiagonalForm(field, tuple(entries))
        for a in field.classes():
            try:
                split = rigid_decompose(phi, a)
                got = (split.t, split.sigma, split.tau)
            except (UnitClassError, ValueError,
                    HyperbolicResidueError) as err:
                got = type(err)
            assert got == _split_by_round_trip(phi, a), (str(phi), str(a))


def test_lift_form():
    f4 = FieldDesc(Base.F3, 4)
    phi = _f("<1,-t1>")
    lifted = lift_form(phi, f4)
    assert lifted.field == f4
    assert format_form(lifted) == "<1,-t1>"
    assert lift_form(phi, phi.field.extended(2)).field == f4


def test_extend_by_own_slot_splits_pfister():
    phi = pfister((F2.var(1),))
    new_field, ext = extend_scalars_quadratic(phi, F2.var(1))
    assert new_field == F2
    assert is_hyperbolic(ext)


def test_extend_two_fold_pfister():
    phi = pfister((F2.var(1), F2.var(2)))
    _, ext = extend_scalars_quadratic(phi, F2.var(2))
    assert is_hyperbolic(ext)
    # extending by an unrelated class keeps it anisotropic
    _, ext2 = extend_scalars_quadratic(phi, F2.var(1) * F2.var(2))
    assert not is_hyperbolic(ext2)


def test_extend_by_unit_changes_base():
    f0 = FieldDesc(Base.F3, 0)
    phi = DiagonalForm(f0, (f0.one(), f0.one()))
    new_field, ext = extend_scalars_quadratic(phi, -f0.one())
    assert new_field.base is Base.SQUARE_MINUS_ONE
    assert is_hyperbolic(ext)  # <1,1> dies once -1 is a square
    f_r = FieldDesc(Base.R, 1)
    new_field, _ = extend_scalars_quadratic(
        DiagonalForm(f_r, (f_r.var(1),)), -f_r.one())
    assert new_field.base is Base.C


@pytest.mark.parametrize("field", [
    F2, FieldDesc(Base.C, 3), FieldDesc(Base.SQUARE_MINUS_ONE, 2),
    FieldDesc(Base.R, 2)], ids=str)
def test_extension_matches_splitting_oracle(field, raw_field):
    # every anisotropic class (over R those with |c| <= 2) and every
    # nontrivial a, the unit classes included: the image is hyperbolic
    # exactly when the group-ring oracle on the classes modulo a says so
    raw = raw_field(field)
    for _v, phi in raw.witt_classes():
        bits = [e.bits for e in phi]
        for a in field.classes():
            if a.is_one():
                continue
            new_field, ext = extend_scalars_quadratic(phi, a)
            assert new_field.nvars == field.nvars
            assert is_hyperbolic(ext) == raw.hyperbolic_over(
                bits, (a.bits,)), (format_form(phi), str(a))


def test_extend_rejects_trivial_class():
    with pytest.raises(SquareClassIsOneError):
        extend_scalars_quadratic(_f("<1,t1>"), F2.one())


def test_hyperbolic_stays_hyperbolic_in_every_ideal():
    h = hyperbolic_plane(F2)
    for n in range(5):
        assert in_In(h, n)
