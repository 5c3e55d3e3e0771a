"""Witt-ring computations for rigid-field models.

The Witt ring of every model is the group ring (Z/nZ)[H] for a subgroup
H of the square-class group, so a form's Witt class is a coefficient
vector and its anisotropic part is read off that vector.  One raw-bit
helper counts the vector's nonzero coefficients; anisotropic parts,
Witt indices, value sets and Witt-class equality all come from it, and
the dense vector is built from it only where it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import FieldMismatchError
from .qform import DiagonalForm, _canon_bits, orth_sum
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
    i = field.nvars if i is None else i
    if not 1 <= i <= field.nvars:
        raise ValueError(f"variable index {i} out of range 1..{field.nvars}")
    bit = 1 << i
    target = field.residue()
    project, _ = class_map(bit)
    parts: tuple[list, list] = ([], [])
    for e in phi:
        parts[bool(e.bits & bit)].append(SquareClass(target, project(e.bits)))
    return DiagonalForm(target, tuple(parts[0])), DiagonalForm(
        target, tuple(parts[1]))


# --- the group ring -------------------------------------------------------

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


def _counts(field: FieldDesc, bits: Iterable[int]) -> dict[int, int]:
    """Nonzero Witt coefficients of the form with these entries, by H-index.

    <x> adds 1 at x's index; when H is the unit-bit-0 subgroup, an x
    with the unit bit is -(-x) and adds -1 at the index of -x.
    """
    modulus, m, split_units = _ring_params(field)
    shift = field.nvars + 1 - m
    counts: dict[int, int] = {}
    for b in bits:
        counts[b >> shift] = counts.get(b >> shift, 0) + 1 - 2 * (
            b & split_units)
    return {i: r for i, c in counts.items()
            if (r := c % modulus if modulus else c)}


def _vector(field: FieldDesc, bits: Iterable[int]) -> tuple[int, ...]:
    """Witt vector of the form with these entries, indexed by H."""
    coeffs = [0] * (1 << _ring_params(field)[1])
    for i, c in _counts(field, bits).items():
        coeffs[i] = c
    return tuple(coeffs)


def _read_off(field: FieldDesc,
              items: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The anisotropic representative of the Witt class with these
    (H-index, coefficient) pairs."""
    modulus, m, split_units = _ring_params(field)
    out: list[int] = []
    for idx, c in items:
        c = c % modulus if modulus else c
        h = idx << (field.nvars + 1 - m)
        if not split_units:  # Z/2 coefficients
            out += [h] * c
        elif modulus:  # Z/4 over F3: 2 is <h,h>, 3 = -1 is <-h>
            out += ((), (h,), (h, h), (h | 1,))[c]
        else:  # Z coefficients over R
            out += [h | (c < 0)] * abs(c)
    return tuple(sorted(out))


def anisotropic_bits_from_vector(field: FieldDesc,
                                 coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Read the anisotropic representative off a Witt-class vector."""
    return _read_off(field, enumerate(coeffs))


@lru_cache(maxsize=1 << 18)
def _an_bits(field: FieldDesc, entries: tuple[int, ...]) -> tuple[int, ...]:
    """Anisotropic part on raw bits, read off the nonzero Witt coefficients."""
    return _read_off(field, _counts(field, entries).items())


def _form(field: FieldDesc, an: Sequence[int]) -> DiagonalForm:
    """The canonical diagonalization of the anisotropic form with these
    entries."""
    return DiagonalForm(field, tuple(
        SquareClass(field, b) for b in _canon_bits(field, an)))


def anisotropic_part(phi: DiagonalForm) -> DiagonalForm:
    field = phi.field
    return _form(field, _an_bits(field, tuple(sorted(e.bits for e in phi))))


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


# --- group-ring elements --------------------------------------------------

@dataclass(frozen=True)
class GroupRingElt:
    """Element of (Z/nZ)[H] as a coefficient tuple indexed by H's bits."""

    field: FieldDesc
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        size = 1 << _ring_params(self.field)[1]
        if len(self.coeffs) != size:
            raise ValueError(f"a Witt vector over {self.field} has {size} "
                             f"coefficients, got {len(self.coeffs)}")

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
    return _vector(phi.field, (e.bits for e in phi))


def to_group_ring(phi: DiagonalForm) -> GroupRingElt:
    return GroupRingElt(phi.field, witt_vector(phi))


def group_ring_equal(phi: DiagonalForm, psi: DiagonalForm) -> bool:
    if phi.field != psi.field:
        raise FieldMismatchError(f"{phi.field} vs {psi.field}")
    return _counts(phi.field, (e.bits for e in phi)) == _counts(
        psi.field, (e.bits for e in psi))


def anisotropic_from_group_ring(elt: GroupRingElt) -> DiagonalForm:
    field = elt.field
    return _form(field, anisotropic_bits_from_vector(field, elt.coeffs))


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
