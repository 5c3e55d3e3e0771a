"""The fundamental-ideal filtration and residue-based decompositions.

Membership in I^n is decided by the split exact sequence of the
t-adic valuation, recursing into the residue field; forms in I^n are
split into unimodular pieces, and quadratic extensions stay inside the
four-base model family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    FieldMismatchError,
    HyperbolicResidueError,
    SquareClassIsOneError,
    UnitClassError,
)
from .qform import DiagonalForm, neg, orth_sum, scale
from .sqclass import Base, FieldDesc, SquareClass, basis_change_map, class_map
from .witt import (
    anisotropic_part,
    is_hyperbolic,
    represents,
    value_set,
    _minus_one,
)

__all__ = [
    "UnimodularSplit",
    "in_In",
    "decompose_unimodular",
    "rigid_decompose",
    "lift_form",
    "extend_scalars_quadratic",
]


def in_In(phi: DiagonalForm, n: int) -> bool:
    """Membership of phi's Witt class in the n-th fundamental-ideal power."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    field = phi.field
    minus_one = _minus_one(field)

    def member(bits: list[int], nvars: int, n: int) -> bool:
        if n <= 1:  # I is the ideal of even-dimensional forms
            return n == 0 or len(bits) % 2 == 0
        if nvars == 0:
            return _in_In_base(field.base, bits, n)
        # residue forms wrt the top variable: phi = (phi1 - phi2) +
        # <<-t>> (x) phi2 in WF
        top = 1 << nvars
        even = [b for b in bits if not b & top]
        odd = [b ^ top for b in bits if b & top]
        return (member(odd, nvars - 1, n - 1)
                and member(even + [b ^ minus_one for b in odd], nvars - 1, n))

    return member([e.bits for e in phi], field.nvars, n)


def _in_In_base(base: Base, bits: list[int], n: int) -> bool:
    if base is Base.C:
        return len(bits) % 2 == 0
    p = bits.count(0)
    if base is Base.R:
        return (2 * p - len(bits)) % (1 << n) == 0
    if base is Base.F3:  # W = Z/4 and I^2 = 0
        return (2 * p - len(bits)) % 4 == 0
    # the level-1 two-unit base: W = Z/2 x Z/2 and I^2 = 0
    return p % 2 == 0 and len(bits) % 2 == 0


@dataclass(frozen=True)
class UnimodularSplit:
    """Witt decomposition phi = sigma + <1,t> (x) tau with unimodular parts."""

    t: SquareClass
    sigma: DiagonalForm
    tau: DiagonalForm

    def reassembled(self) -> DiagonalForm:
        fld = self.t.field
        binary = DiagonalForm(fld, (fld.one(), self.t))
        from .qform import tensor

        return orth_sum(self.sigma, tensor(binary, self.tau))


def _inplace_residues(
    phi: DiagonalForm, i: int
) -> tuple[DiagonalForm, DiagonalForm]:
    """Residue class forms wrt t_i kept over the same field model."""
    bit = 1 << i
    fld = phi.field
    even = tuple(e for e in phi if not e.bits & bit)
    odd = tuple(
        SquareClass(fld, e.bits & ~bit) for e in phi if e.bits & bit)
    return DiagonalForm(fld, even), DiagonalForm(fld, odd)


def decompose_unimodular(phi: DiagonalForm, i: int | None = None) -> UnimodularSplit:
    """Split phi = sigma + <1,t> (x) tau along the variable t_i.

    The uniformizer class t is t_i times a unit multiple u chosen so the
    residue value sets of the two parts meet (u = a*b for the smallest
    represented classes a, b); both residues must be non-hyperbolic.
    """
    field = phi.field
    if i is None:
        i = field.nvars
    if not 1 <= i <= field.nvars:
        raise ValueError(f"variable index {i} out of range 1..{field.nvars}")
    phi1, phi2 = _inplace_residues(phi, i)
    if is_hyperbolic(phi1) or is_hyperbolic(phi2):
        raise HyperbolicResidueError(
            "both residue class forms must be non-hyperbolic")
    a = min(value_set(phi1), key=SquareClass.sort_key)
    b = min(value_set(phi2), key=SquareClass.sort_key)
    u = a * b
    t = u * field.var(i)
    sigma = anisotropic_part(orth_sum(phi1, neg(scale(u, phi2))))
    tau = scale(u, phi2)
    return UnimodularSplit(t, sigma, tau)


def rigid_decompose(phi: DiagonalForm, a: SquareClass) -> UnimodularSplit:
    """decompose_unimodular along the class a instead of a plain variable.

    Requires 1 in D(phi) and a with a nonzero exponent part; a is moved
    onto the last variable by the basis change of `find_basis_change`,
    the split is computed there, and the result is pulled back.  Both
    maps act on raw bits through `basis_change_map`.
    """
    if a.field != phi.field:
        raise FieldMismatchError(f"{a.field} vs {phi.field}")
    if a.is_unit_class():
        raise UnitClassError("class has no Laurent variable part")
    if not represents(phi, phi.field.one()):
        raise ValueError("phi must represent 1")
    field = phi.field
    moved, back = basis_change_map(a.bits, field.nvars)

    def image(f, psi: DiagonalForm) -> DiagonalForm:
        return DiagonalForm(field, tuple(
            SquareClass(field, f(e.bits)) for e in psi))

    split = decompose_unimodular(image(moved, phi), field.nvars)
    return UnimodularSplit(SquareClass(field, back(split.t.bits)),
                           image(back, split.sigma), image(back, split.tau))


def lift_form(phi: DiagonalForm, field: FieldDesc) -> DiagonalForm:
    """Inject phi through the canonical embedding into a larger model."""
    if field.base is not phi.field.base or field.nvars < phi.field.nvars:
        raise FieldMismatchError(
            f"cannot embed {phi.field} into {field}")
    return DiagonalForm(
        field, tuple(SquareClass(field, e.bits) for e in phi))


_UNIT_EXTENSION = {
    Base.F3: Base.SQUARE_MINUS_ONE,
    Base.R: Base.C,
    Base.SQUARE_MINUS_ONE: Base.SQUARE_MINUS_ONE,
}


def _extension_bits(
    field: FieldDesc, bits: Iterable[int], a: int
) -> tuple[FieldDesc, list[int]]:
    """extend_scalars_quadratic on raw bits: the field over F(sqrt a)
    and the images of the classes `bits`."""
    if a >> 1:
        project, _ = class_map(a)
        return field, [project(b) for b in bits]
    return (FieldDesc(_UNIT_EXTENSION[field.base], field.nvars),
            [b & ~1 for b in bits])


def extend_scalars_quadratic(
    phi: DiagonalForm, a: SquareClass
) -> tuple[FieldDesc, DiagonalForm]:
    """Image of phi over the quadratic extension by the square root of a.

    A class with a Laurent part keeps the field model and sends each
    entry to its project image under `sqclass.class_map(a)`, so the last
    variable's bit of every image is 0.  Extension by the nontrivial
    unit class changes the base field (F3 to the level-1 two-unit base,
    R to C) and clears the unit bit of every entry.
    """
    if a.field != phi.field:
        raise FieldMismatchError(f"{a.field} vs {phi.field}")
    if a.is_one():
        raise SquareClassIsOneError("extension requires a nonsquare class")
    target, bits = _extension_bits(phi.field, (e.bits for e in phi), a.bits)
    return target, DiagonalForm(
        target, tuple(SquareClass(target, b) for b in bits))
