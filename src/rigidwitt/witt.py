"""Witt-ring computations for rigid-field models.

Two equivalent engines are provided: a Springer-style recursion on the
highest Laurent variable, and a group-ring picture in which the Witt
ring is (Z/nZ)[H] for a subgroup H of the square-class group.  Both
compute anisotropic parts; agreement between them is a test invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import FieldMismatchError
from .qform import DiagonalForm, _canon_bits, neg, orth_sum
from .sqclass import Base, FieldDesc, SquareClass, class_map

__all__ = [
    "anisotropic_part",
    "witt_index",
    "is_isotropic",
    "is_anisotropic",
    "is_hyperbolic",
    "value_set",
    "represents",
    "residue_forms",
    "GroupRingElt",
    "to_group_ring",
    "group_ring_equal",
    "anisotropic_from_group_ring",
    "witt_vector",
    "form_from_witt_vector",
    "ThreeFormWitness",
    "three_form_witt_index_check",
]


def residue_forms(
    phi: DiagonalForm, i: int | None = None
) -> tuple[DiagonalForm, DiagonalForm]:
    """Split phi into its two residue class forms with respect to t_i.

    Entries with even t_i exponent land in the first form, entries with
    odd exponent (divided by t_i) in the second; both live over the
    residue model (variables above t_i are renumbered down by one).
    """
    field = phi.field
    if i is None:
        i = field.nvars
    if not 1 <= i <= field.nvars:
        raise ValueError(f"variable index {i} out of range 1..{field.nvars}")
    bit = 1 << i
    target = field.residue()
    project, _ = class_map(bit)

    def drop(bits: int) -> SquareClass:
        return SquareClass(target, project(bits))

    even = [drop(e.bits) for e in phi if not e.bits & bit]
    odd = [drop(e.bits) for e in phi if e.bits & bit]
    return DiagonalForm(target, tuple(even)), DiagonalForm(target, tuple(odd))


@lru_cache(maxsize=1 << 18)
def _an_bits(field: FieldDesc, entries: tuple[int, ...]) -> tuple[int, ...]:
    """Anisotropic part on raw bit tuples (Springer recursion)."""
    if not entries:
        return ()
    if field.nvars == 0:
        return _an_base(field, entries)
    bit = 1 << field.nvars
    res = field.residue()
    even = tuple(sorted(b & ~bit for b in entries if not b & bit))
    odd = tuple(sorted(b & ~bit for b in entries if b & bit))
    out = _an_bits(res, even)
    out += tuple(b | bit for b in _an_bits(res, odd))
    return tuple(sorted(out))


def _an_base(field: FieldDesc, entries: tuple[int, ...]) -> tuple[int, ...]:
    base = field.base
    if base is Base.C:
        return (0,) if len(entries) % 2 else ()
    if base is Base.R:
        p = sum(1 for b in entries if not b)
        q = len(entries) - p
        return (0,) * (p - q) if p >= q else (1,) * (q - p)
    if base is Base.F3:
        p = sum(1 for b in entries if not b)
        q = len(entries) - p
        v = (p - q) % 4
        return {0: (), 1: (0,), 2: (0, 0), 3: (1,)}[v]
    # level-1 base with two unit classes: each class survives mod 2
    out = []
    for b in (0, 1):
        if sum(1 for e in entries if e == b) % 2:
            out.append(b)
    return tuple(out)


def anisotropic_part(phi: DiagonalForm) -> DiagonalForm:
    field = phi.field
    raw = _an_bits(field, tuple(sorted(e.bits for e in phi)))
    bits = _canon_bits(field, raw)
    return DiagonalForm(field, tuple(SquareClass(field, b) for b in bits))


def witt_index(phi: DiagonalForm) -> int:
    return (phi.dim - anisotropic_part(phi).dim) // 2


def is_isotropic(phi: DiagonalForm) -> bool:
    return anisotropic_part(phi).dim < phi.dim


def is_anisotropic(phi: DiagonalForm) -> bool:
    return not is_isotropic(phi)


def is_hyperbolic(phi: DiagonalForm) -> bool:
    return anisotropic_part(phi).dim == 0


# --- value sets ------------------------------------------------------------
#
# The fields are rigid: an anisotropic binary form represents at most two
# square classes.  So D(psi) of an anisotropic psi is read off its
# diagonal: the entries and, at level 2 where <z,z> = <-z,-z>, the
# negatives of its doubled entries.

def _flex(field: FieldDesc) -> int:
    """The bit of -1 when <z,z> = <-z,-z> (level 2), else 0."""
    return 1 if field.level() == 2 else 0


def _class_order(b: int) -> tuple[int, int]:
    """SquareClass.sort_key on raw bits."""
    return (b & 1, b >> 1)


def _values(rest: Sequence[int], flex: int) -> list[int]:
    """D(rest) of an anisotropic form, in the square-class order."""
    vals = set(rest)
    if flex:
        vals.update(z ^ flex for z in rest if rest.count(z) > 1)
    return sorted(vals, key=_class_order)


def _represented(phi: DiagonalForm) -> list[int] | None:
    """D(phi) on raw bits, or None when phi is isotropic (and so
    represents every class)."""
    field = phi.field
    bits = tuple(sorted(e.bits for e in phi))
    an = _an_bits(field, bits)
    if len(an) < len(bits):
        return None
    return _values(an, _flex(field))


def represents(phi: DiagonalForm, x: SquareClass) -> bool:
    """Whether phi represents the square class x (the zero form
    represents nothing)."""
    if x.field != phi.field:
        raise FieldMismatchError(f"{x.field} vs {phi.field}")
    vals = _represented(phi)
    return vals is None or x.bits in vals


def value_set(phi: DiagonalForm) -> frozenset[SquareClass]:
    field = phi.field
    vals = _represented(phi)
    if vals is None:
        return frozenset(field.classes())
    return frozenset(SquareClass(field, b) for b in vals)


# --- group-ring picture ---------------------------------------------------

def _ring_params(field: FieldDesc) -> tuple[int, int, int]:
    """(modulus, index-bit-count, whether H is the unit-bit-0 subgroup).

    modulus 0 means Z.  For F3 and R the subgroup H consists of classes
    with unit bit 0, indexed by the exponent bits; for the level-1 bases
    H is the whole class group.
    """
    base = field.base
    if base is Base.F3:
        return 4, field.nvars, 1
    if base is Base.R:
        return 0, field.nvars, 1
    if base is Base.C:
        return 2, field.nvars, 0
    return 2, field.nvars + 1, 0


@dataclass(frozen=True)
class GroupRingElt:
    """Element of (Z/nZ)[H] as a coefficient tuple indexed by H's bits."""

    field: FieldDesc
    coeffs: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return _ring_params(self.field)[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        n = self.modulus
        merged = tuple(
            (a + b) % n if n else a + b
            for a, b in zip(self.coeffs, other.coeffs))
        return GroupRingElt(self.field, merged)

    def __neg__(self) -> "GroupRingElt":
        n = self.modulus
        return GroupRingElt(
            self.field, tuple((-a) % n if n else -a for a in self.coeffs))

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        return self + (-other)


def witt_vector(phi: DiagonalForm) -> tuple[int, ...]:
    """Raw coefficient tuple of phi's Witt class, indexed by H."""
    field = phi.field
    modulus, m, split_units = _ring_params(field)
    coeffs = [0] * (1 << m)
    for e in phi:
        if split_units:
            if e.unit:
                coeffs[(-e).exps] -= 1
            else:
                coeffs[e.exps] += 1
        else:
            coeffs[e.bits if field.base is not Base.C else e.exps] += 1
    if modulus:
        coeffs = [c % modulus for c in coeffs]
    return tuple(coeffs)


def to_group_ring(phi: DiagonalForm) -> GroupRingElt:
    return GroupRingElt(phi.field, witt_vector(phi))


def group_ring_equal(phi: DiagonalForm, psi: DiagonalForm) -> bool:
    if phi.field != psi.field:
        raise FieldMismatchError(f"{phi.field} vs {psi.field}")
    return witt_vector(phi) == witt_vector(psi)


def anisotropic_bits_from_vector(
    field: FieldDesc, coeffs: tuple[int, ...]
) -> tuple[int, ...]:
    """Read the anisotropic representative off a Witt-class vector."""
    modulus, m, split_units = _ring_params(field)
    out: list[int] = []
    for idx, c in enumerate(coeffs):
        if not c:
            continue
        if split_units:
            h = idx << 1
            if modulus == 4:
                c %= 4
                if c == 1:
                    out.append(h)
                elif c == 2:
                    out.extend((h, h))
                else:
                    out.append(h | 1)
            else:  # Z coefficients (real base)
                out.extend([h if c > 0 else h | 1] * abs(c))
        else:
            h = idx if field.base is not Base.C else idx << 1
            if c % 2:
                out.append(h)
    return tuple(sorted(out))


def anisotropic_from_group_ring(elt: GroupRingElt) -> DiagonalForm:
    field = elt.field
    bits = _canon_bits(field, anisotropic_bits_from_vector(field, elt.coeffs))
    return DiagonalForm(field, tuple(SquareClass(field, b) for b in bits))


def form_from_witt_vector(
    field: FieldDesc, coeffs: tuple[int, ...]
) -> DiagonalForm:
    return anisotropic_from_group_ring(GroupRingElt(field, tuple(coeffs)))


# --- Witt index of a three-fold sum ---------------------------------------

@dataclass(frozen=True)
class ThreeFormWitness:
    """Subform data certifying i_W(phi1+phi2+phi3) >= m.

    psi1 embeds into phi1, psi2 into phi2, and the extra classes (only
    possible over level-2 fields) are represented by phi1+phi2 but by
    neither summand; -psi1 + -psi2 + -<extras> embeds into phi3 and the
    dimensions sum to at least m.
    """

    psi1: DiagonalForm
    psi2: DiagonalForm
    extra_classes: tuple[SquareClass, ...]


def three_form_witt_index_check(
    phi1: DiagonalForm,
    phi2: DiagonalForm,
    phi3: DiagonalForm,
    m: int,
) -> tuple[bool, ThreeFormWitness | None]:
    """Whether i_W(phi1+phi2+phi3) >= m, with an explicit witness.

    Requires phi1, phi2, phi3 and phi1+phi2 anisotropic.  On success the
    witness is constructed by peeling common values of phi1+phi2 and
    -phi3, then splitting the resulting form over the two summands.
    """
    from .errors import IsotropicInputError, IsotropicSumError
    from .qform import complement, decompose_over_split

    for f in (phi1, phi2, phi3):
        if is_isotropic(f):
            raise IsotropicInputError("all three forms must be anisotropic")
    if is_isotropic(orth_sum(phi1, phi2)):
        raise IsotropicSumError("phi1 + phi2 must be anisotropic")
    total = orth_sum(orth_sum(phi1, phi2), phi3)
    iw = witt_index(total)
    if iw < m:
        return False, None
    fld = phi1.field
    # psi of dimension i_W inside phi1+phi2 with -psi inside phi3
    psi_entries: list[SquareClass] = []
    cur12 = orth_sum(phi1, phi2)
    cur3 = phi3
    for _ in range(iw):
        x = min(
            (x for x in value_set(cur12) if represents(cur3, -x)),
            key=SquareClass.sort_key,
        )
        cur12 = complement(DiagonalForm(fld, (x,)), cur12)
        cur3 = complement(DiagonalForm(fld, (-x,)), cur3)
        psi_entries.append(x)
    psi = DiagonalForm(fld, tuple(psi_entries))
    psi1, psi2, psi3 = decompose_over_split(psi, phi1, phi2)
    return True, ThreeFormWitness(psi1, psi2, psi3.entries)
