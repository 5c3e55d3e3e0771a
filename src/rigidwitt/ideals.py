"""The fundamental-ideal filtration and residue-based decompositions.

Membership in I^n is decided in closed form on the Witt vector: the
split exact sequence of the t-adic valuation, unrolled over every
variable.  Forms in I^n are split into unimodular pieces, and quadratic
extensions stay inside the four-base model family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import (
    FieldMismatchError,
    HyperbolicResidueError,
    SquareClassIsOneError,
    UnitClassError,
)
from .qform import DiagonalForm, neg, orth_sum, scale
from .sqclass import Base, FieldDesc, SquareClass, class_map
from .witt import (
    anisotropic_part,
    is_hyperbolic,
    represents,
    value_set,
    _LANE,
    _form_vector,
    _lanes,
    _ring_params,
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
    """Membership of phi's Witt class in the n-th fundamental-ideal power.

    Decided in closed form on phi's Witt vector w (the coefficients by
    H-index, witt._pack).  The split exact sequence of the t-adic
    valuation gives, for the top variable t, phi = phi1 + t*phi2 =
    (phi1 - phi2) + <<-t>> (x) phi2, and phi lies in I^n exactly when
    the residue forms satisfy phi2 in I^(n-1) and phi1 - phi2 in I^n,
    one variable fewer.  On w the entries with t are the lanes with t's
    index bit set: writing (lo, hi) for the two halves, phi1 has vector
    lo, phi2 has hi and phi1 - phi2 has lo - hi.  So one step of the
    recursion maps (lo, hi) to (lo - hi, hi) along t's bit, and its two
    children are the halves.  Steps along different bits commute; let T
    be w after the step along every variable.  The node reached by
    taking the hi half at the variables of a set S and the lo half at
    the others, after all of them, is the lane T[S], asked to lie in
    I^(n - |S|) of the base field k.  The recursion stops early where
    the ideal reaches I^1 (even dimension) or I^0 (everything): a leaf
    with |S| = n - 1 tests its dimension's parity, which is the sum of
    its coefficients mod 2, and the steps it skips change only signs,
    so that parity is the parity of T[S]'s coefficient sum.  Every S
    with |S| <= n - 1 is tested once and no other, so for n >= 1:

        phi in I^n  iff  T[S] in I^(n - |S|)(k) for every |S| <= n - 1,

    with I^1(k) the even-dimensional classes.  Over F3 (W = Z/4, I^2 =
    0) that is T[S] = 0 mod 4 for |S| <= n - 2 and T[S] even for |S| =
    n - 1; over C (W = Z/2) T[S] = 0; over F3(i) (W = Z/2 x Z/2, I^2 =
    0) both unit lanes of S are 0, or for |S| = n - 1 their sum is
    even; over R (W = Z, I^m = 2^m Z) T[S] = 0 mod 2^(n - |S|).  phi's
    vector is read once per form (witt._form_vector).  On a packed
    vector the steps are lane operations: set the guards, subtract,
    mask.  On a sparse one (over R and over groups too large to pack),
    T[S] is summed from the nonzero coefficients (_in_In_sparse).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not n:
        return True
    field = phi.field
    w = _form_vector(phi)
    if not isinstance(w, int):
        return _in_In_sparse(field, w, n)
    coeffs, steps, zero, pairs = _ideal_masks(field, n)
    for shift, low, guard in steps:
        w = ((w | guard) - (w >> shift & low)) & coeffs
    return not w & zero and not (w ^ w >> _LANE) & pairs


@lru_cache(maxsize=256)
def _ideal_masks(field: FieldDesc, n: int) -> tuple:
    """in_In's masks for I^n, n >= 1, on packed vectors (witt._pack),
    with witt's lane width and coefficient mask.

    (coeffs, steps, zero, pairs): the mask of every coefficient bit; one
    (shift, low, guard) per variable, low the coefficient bits and guard
    the guard bits of the lanes without the variable's bit, whose
    partners lie shift bits up; the coefficient bits of T that must be
    0; and, with the unit bit in the index (F3(i)), the lanes (S, 1)
    whose sum with (S, u) must be even.
    """
    modulus, _, _, coeffs = _lanes(field)
    m = _ring_params(field)[1]
    top = modulus - 1
    first = m - field.nvars  # the index bit of t1
    steps = []
    for j in range(first, m):
        lanes = sum(1 << _LANE * i for i in range(1 << m) if not i >> j & 1)
        steps.append((_LANE << j, lanes * top, lanes * modulus))
    zero = pairs = 0
    for i in range(1 << m):
        level = n - (i >> first).bit_count()
        lane = 1 << _LANE * i
        if level >= 2:  # I^2(k) = 0
            zero |= lane * top
        elif level == 1 and not first:  # an even coefficient
            zero |= lane
        elif level == 1 and not i & 1:
            pairs |= lane
    return coeffs, tuple(steps), zero, pairs


def _in_In_sparse(field: FieldDesc, items: Iterable[tuple[int, int]],
                  n: int) -> bool:
    """in_In's criterion on a sparse vector (witt._pack), the nonzero
    (H-index, coefficient) pairs.

    The steps composed give T[S] as the sum of (-1)^(|V| - |S|) w[i]
    over the indices i whose set V of variables contains S, so each
    coefficient is spread over the subsets of V of size below n, and
    only those lanes are tested.
    """
    modulus, m, _ = _ring_params(field)
    first = m - field.nvars  # the index bit of t1
    units = (1 << first) - 1  # the unit bit, over F3(i)
    lanes: dict[int, int] = {}
    for i, c in items:
        have = [1 << j for j in range(first, m) if i >> j & 1]
        for k in range(min(n, len(have) + 1)):
            signed = -c if (len(have) - k) % 2 else c
            for part in combinations(have, k):
                key = sum(part) | i & units
                lanes[key] = lanes.get(key, 0) + signed
    pairs: dict[int, int] = {}
    for key, c in lanes.items():
        level = n - (key >> first).bit_count()
        if first and level == 1:  # F3(i): the two unit lanes together
            pairs[key >> 1] = pairs.get(key >> 1, 0) + c
        elif c % (modulus if modulus and level >= 2 else 1 << level):
            return False
    return all(c % 2 == 0 for c in pairs.values())


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


def _split_along(phi: DiagonalForm, a: int) -> UnimodularSplit:
    """phi = sigma + <1,t> (x) tau along the class a with a Laurent part.

    With top the highest variable bit of a, the residue forms are even,
    the entries without top, and odd, a times the entries with it.  The
    class t is u*a, with u chosen so that even and u*odd represent a
    common class: u = a'*b' for the least classes a', b' (in the class
    order) that even and odd represent.  sigma = an(even - u*odd) and
    tau = u*odd.  Both residues must be non-hyperbolic.
    """
    field = phi.field
    top = 1 << a.bit_length() - 1
    even = DiagonalForm(field, tuple(e for e in phi if not e.bits & top))
    odd = DiagonalForm(field, tuple(
        SquareClass(field, e.bits ^ a) for e in phi if e.bits & top))
    if is_hyperbolic(even) or is_hyperbolic(odd):
        raise HyperbolicResidueError(
            "both residue class forms must be non-hyperbolic")
    u = (min(value_set(even), key=SquareClass.sort_key)
         * min(value_set(odd), key=SquareClass.sort_key))
    sigma = anisotropic_part(orth_sum(even, neg(scale(u, odd))))
    return UnimodularSplit(u * SquareClass(field, a), sigma, scale(u, odd))


def decompose_unimodular(phi: DiagonalForm, i: int | None = None) -> UnimodularSplit:
    """Split phi = sigma + <1,t> (x) tau along the variable t_i, the last
    one by default: _split_along the class a = t_i."""
    field = phi.field
    if i is None:
        i = field.nvars
    if not 1 <= i <= field.nvars:
        raise ValueError(f"variable index {i} out of range 1..{field.nvars}")
    return _split_along(phi, 1 << i)


def rigid_decompose(phi: DiagonalForm, a: SquareClass) -> UnimodularSplit:
    """decompose_unimodular along the class a instead of a plain variable.

    Requires 1 in D(phi) and a with a nonzero exponent part.  The split
    is read along a directly: it is the split along t_n after the basis
    change of `find_basis_change`, which sends a to t_n, pulled back.
    """
    if a.field != phi.field:
        raise FieldMismatchError(f"{a.field} vs {phi.field}")
    if a.is_unit_class():
        raise UnitClassError("class has no Laurent variable part")
    if not represents(phi, phi.field.one()):
        raise ValueError("phi must represent 1")
    return _split_along(phi, a.bits)


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
