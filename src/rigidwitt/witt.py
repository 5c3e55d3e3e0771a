"""Witt-ring computations for rigid-field models.

The Witt ring of every model is the group ring (Z/nZ)[H] for a subgroup
H of the square-class group, so a form's Witt class is a coefficient
vector and its anisotropic part is read off that vector.  One raw-bit
helper counts the vector's nonzero coefficients; anisotropic parts and
value sets come from it, and the dense vector is built from it only
where it is asked for.  This module owns the one comparable encoding
of a Witt vector (_pack): byte lanes in an int where the ring is finite
and H small, a sorted tuple of the nonzero coefficients otherwise.  A
form keeps its vector (_form_vector); Witt-class equality, isometry,
anisotropic dimensions, I^n membership and certificate checks read it,
and the generator search in pfnum works on it through _diffs, _neg
and _dims.  The raw-bit helpers are shared with qform and pfnum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import FieldMismatchError
from .qform import DiagonalForm, _canon_bits, orth_sum
from .sqclass import Base, FieldDesc, SquareClass

__all__ = [
    "anisotropic_part",
    "witt_index",
    "is_isotropic",
    "is_anisotropic",
    "is_hyperbolic",
    "value_set",
    "represents",
    "group_ring_equal",
    "witt_vector",
    "ThreeFormWitness",
    "three_form_witt_index_check",
]


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


_LANE = 8  # bits per coefficient lane of a packed vector: one byte
_DENSE_BITS = 10  # H-index bits up to which vectors are packed (1 KB at most)


@lru_cache(maxsize=256)
def _lanes(field: FieldDesc) -> tuple[int, int, int, int]:
    """(modulus, lo, guard, mask) of the Witt vectors over field: lo has
    1 in every lane, guard the bit above a lane's coefficient bits and
    mask the coefficient bits; lo, guard and mask are 0 where the
    vectors are sparse."""
    modulus, m, _ = _ring_params(field)
    if not modulus or m > _DENSE_BITS:
        return modulus, 0, 0, 0
    lo = int.from_bytes(b"\x01" * (1 << m), "little")
    return modulus, lo, lo * modulus, lo * (modulus - 1)


def _pack(field: FieldDesc, bits: Iterable[int]):
    """The Witt vector of the form with these entries as one value: two
    entry lists give equal values exactly when their forms are Witt
    equivalent.

    Packed, over a finite ring (Z/m)[H] with at most 2^_DENSE_BITS
    indices: an int with one byte lane per H-index, holding the
    coefficient in [0, m) under a guard bit that is 0 at rest.  The
    entries are counted in a bytearray, with no carry between lanes:
    each adds 1 to its lane, or m - 1 = -1 for a class with the unit bit
    when H is the unit-bit-0 subgroup (as in _counts); a lane that wraps
    at 256 loses nothing mod m, and the mask reduces the lanes mod m.
    Sparse, over R (coefficients in Z) and over larger groups: the
    sorted tuple of the nonzero (H-index, coefficient) pairs.
    """
    mask = _lanes(field)[3]
    if not mask:
        return tuple(sorted(_counts(field, bits).items()))
    modulus, m, split_units = _ring_params(field)
    shift = field.nvars + 1 - m
    unit = (modulus - 2) * split_units
    counts = bytearray(1 << m)
    for b in bits:
        i = b >> shift
        counts[i] = counts[i] + 1 + unit * (b & 1) & 255
    return int.from_bytes(counts, "little") & mask


def _form_vector(phi: DiagonalForm):
    """_pack of phi's entries, computed once per form: a form never
    changes, so the value is kept on the object, outside its fields."""
    vector = phi.__dict__.get("_vector")
    if vector is None:
        vector = _pack(phi.field, [e.bits for e in phi.entries])
        object.__setattr__(phi, "_vector", vector)
    return vector


def _diffs(field: FieldDesc, w, xs: Iterable) -> Iterator:
    """w - x for each vector x in xs, lazily.  Packed, every guard is
    set before the subtraction, so no lane borrows from the next, and
    masked off after it."""
    modulus, _, guard, mask = _lanes(field)
    if not mask:
        return _sparse_diffs(w, xs, modulus)
    top = w | guard
    return ((top - x) & mask for x in xs)


def _sparse_diffs(w: tuple, xs: Iterable, modulus: int) -> Iterator:
    base = dict(w)
    for x in xs:
        coeffs = base.copy()
        for i, c in x:
            coeffs[i] = coeffs.get(i, 0) - c
        out = [(i, r) for i, c in coeffs.items()
               if (r := c % modulus if modulus else c)]
        out.sort()
        yield tuple(out)


def _neg(field: FieldDesc, w):
    """-w, the zero vector minus w."""
    return next(_diffs(field, _pack(field, ()), (w,)))


def _dims(field: FieldDesc, ws: Iterable) -> Iterator[int]:
    """The anisotropic dimensions of the Witt classes ws, lazily: min(c,
    m - c) per coefficient c over Z/m, |c| over Z.  Packed, a lane
    holding 1 or 3 counts 1 and one holding 2 counts 2."""
    modulus, lo, _, _ = _lanes(field)
    if not lo:
        return (sum(min(c, modulus - c) if modulus else abs(c)
                    for _, c in w) for w in ws)
    return ((w & lo).bit_count() + 2 * (w >> 1 & lo & ~w).bit_count()
            for w in ws)


@lru_cache(maxsize=1 << 18)
def _an_bits(field: FieldDesc, entries: tuple[int, ...]) -> tuple[int, ...]:
    """Anisotropic part on raw bits, read off the nonzero Witt
    coefficients (_counts), sorted."""
    modulus, m, split_units = _ring_params(field)
    out: list[int] = []
    for idx, c in _counts(field, entries).items():
        h = idx << (field.nvars + 1 - m)
        if not split_units:  # Z/2 coefficients
            out += [h] * c
        elif modulus:  # Z/4 over F3: 2 is <h,h>, 3 = -1 is <-h>
            out += ((), (h,), (h, h), (h | 1,))[c]
        else:  # Z coefficients over R
            out += [h | (c < 0)] * abs(c)
    return tuple(sorted(out))


def _form(field: FieldDesc, an: Sequence[int]) -> DiagonalForm:
    """The canonical diagonalization of the anisotropic form with these
    entries."""
    return DiagonalForm(field, tuple([SquareClass(field, b)
                                      for b in _canon_bits(field, an)]))


def anisotropic_part(phi: DiagonalForm) -> DiagonalForm:
    """The canonical anisotropic form Witt-equivalent to phi; phi itself
    when it is that form already.

    phi is that form exactly when it is anisotropic and no class with
    the flex bit occurs twice in it.  An anisotropic form has as many
    entries at each Witt coefficient c as the anisotropic part, 1 or,
    for c = 2 over F3, 2; every DiagonalForm keeps its entries in the
    class order, and _an_bits writes a doubled class <-x,-x> = <x,x>
    without the unit bit.
    """
    field = phi.field
    flex = _flex(field)
    flexed = [e.bits for e in phi.entries if e.bits & flex]
    if _an_dim(phi) == phi.dim and len(set(flexed)) == len(flexed):
        return phi
    return _form(field, _an_bits(field, tuple(sorted(
        e.bits for e in phi.entries))))


def _an_dim(phi: DiagonalForm) -> int:
    """phi's anisotropic dimension, read off its Witt vector (_dims):
    witt_index, the isotropy tests and anisotropic_part read it and
    build no form."""
    return next(_dims(phi.field, (_form_vector(phi),)))


def witt_index(phi: DiagonalForm) -> int:
    return (phi.dim - _an_dim(phi)) // 2


def is_isotropic(phi: DiagonalForm) -> bool:
    return _an_dim(phi) < phi.dim


def is_anisotropic(phi: DiagonalForm) -> bool:
    return not is_isotropic(phi)


def is_hyperbolic(phi: DiagonalForm) -> bool:
    return not _an_dim(phi)


# --- value sets ------------------------------------------------------------
#
# The fields are rigid: an anisotropic binary form represents at most two
# square classes.  So D(psi) of an anisotropic psi is read off its
# diagonal: the entries and, at level 2 where <z,z> = <-z,-z>, the
# negatives of its doubled entries.

def _flex(field: FieldDesc) -> int:
    """The bit of -1 when <z,z> = <-z,-z> (level 2), else 0."""
    return 1 if field.level() == 2 else 0


def _minus_one(field: FieldDesc) -> int:
    """The bit of -1 (0 when -1 is a square, at level 1)."""
    return int(field.level() != 1)


def _class_order(b: int) -> tuple[int, int]:
    """SquareClass.sort_key on raw bits."""
    return (b & 1, b >> 1)


def _in_class_order(bits: Iterable[int]) -> list[int]:
    """The classes sorted by _class_order: a stable sort on the unit bit
    after the plain one, with no Python key call per class."""
    return sorted(sorted(bits), key=(1).__and__)


def _value_set(rest: Sequence[int], flex: int) -> set[int]:
    """D(rest) of an anisotropic form, as a set."""
    vals = set(rest)
    if flex and len(vals) < len(rest):
        once: set[int] = set()
        for z in rest:
            if z in once:
                vals.add(z ^ flex)
            once.add(z)
    return vals


def _values(rest: Sequence[int], flex: int) -> list[int]:
    """D(rest) of an anisotropic form, in the square-class order."""
    return _in_class_order(_value_set(rest, flex))


def _split_off(rest: list[int], y: int, flex: int) -> bool:
    """Replace the anisotropic rest by its complement of <y>, in place;
    False if rest does not represent y.  By Witt cancellation a form
    embeds in rest exactly when its entries split off one at a time."""
    if y in rest:
        rest.remove(y)
        return True
    z = y ^ flex
    if flex and rest.count(z) > 1:
        rest.remove(z)
        rest.remove(z)
        rest.append(y)
        return True
    return False


def _represented(phi: DiagonalForm) -> list[int] | None:
    """D(phi) on raw bits, or None when phi is isotropic (and so
    represents every class)."""
    if is_isotropic(phi):
        return None
    return _values([e.bits for e in phi], _flex(phi.field))


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


# --- Witt vectors ---------------------------------------------------------

def witt_vector(phi: DiagonalForm) -> tuple[int, ...]:
    """Raw coefficient tuple of phi's Witt class, indexed by H."""
    coeffs = [0] * (1 << _ring_params(phi.field)[1])
    for i, c in _counts(phi.field, (e.bits for e in phi)).items():
        coeffs[i] = c
    return tuple(coeffs)


def group_ring_equal(phi: DiagonalForm, psi: DiagonalForm) -> bool:
    if phi.field != psi.field:
        raise FieldMismatchError(f"{phi.field} vs {psi.field}")
    return _form_vector(phi) == _form_vector(psi)


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
    -phi3 off both entry lists, then splitting the resulting form over
    the two summands.
    """
    from .errors import IsotropicInputError, IsotropicSumError
    from .qform import decompose_over_split

    for f in (phi1, phi2, phi3):
        if is_isotropic(f):
            raise IsotropicInputError("all three forms must be anisotropic")
    if is_isotropic(orth_sum(phi1, phi2)):
        raise IsotropicSumError("phi1 + phi2 must be anisotropic")
    iw = witt_index(orth_sum(orth_sum(phi1, phi2), phi3))
    if iw < m:
        return False, None
    fld = phi1.field
    flex, minus_one = _flex(fld), _minus_one(fld)
    # psi of dimension i_W inside phi1+phi2 with -psi inside phi3
    rest12 = [e.bits for e in phi1] + [e.bits for e in phi2]
    rest3 = [e.bits for e in phi3]
    psi: list[SquareClass] = []
    for _ in range(iw):
        d3 = _values(rest3, flex)
        x = next(x for x in _values(rest12, flex) if x ^ minus_one in d3)
        _split_off(rest12, x, flex)
        _split_off(rest3, x ^ minus_one, flex)
        psi.append(SquareClass(fld, x))
    psi1, psi2, psi3 = decompose_over_split(
        DiagonalForm(fld, tuple(psi)), phi1, phi2)
    return True, ThreeFormWitness(psi1, psi2, psi3.entries)
