"""Diagonal quadratic forms over rigid-field models.

Forms are multisets of square classes stored as sorted tuples.  Isometry
and subform tests read the forms' Witt vectors (witt._form_vector),
complements the raw anisotropic part of phi + -psi; decompositions peel
raw entry lists (witt._split_off).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    FieldMismatchError,
    IsotropicInputError,
    IsotropicSumError,
    NotASubformError,
    ParseError,
)
from .sqclass import (
    FieldDesc,
    SquareClass,
    format_square_class,
    _parse_square_class,
)


_BITS = attrgetter("bits")


def _unit_bit(e: SquareClass) -> int:
    return e.bits & 1


@dataclass(frozen=True)
class DiagonalForm:
    """A diagonal quadratic form: a finite multiset of square classes."""

    field: FieldDesc
    entries: tuple[SquareClass, ...]

    def __post_init__(self) -> None:
        field = self.field
        for e in self.entries:
            if e.field is not field:
                raise FieldMismatchError(
                    f"entry over {e.field} in a form over {field}")
        # SquareClass.sort_key: by the bits, then stably by the unit bit
        ordered = sorted(sorted(self.entries, key=_BITS), key=_unit_bit)
        object.__setattr__(self, "entries", tuple(ordered))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[SquareClass]:
        return iter(self.entries)

    def __str__(self) -> str:
        return format_form(self)

    def __repr__(self) -> str:
        return f"DiagonalForm({self.field}, {format_form(self)!r})"


def zero_form(field: FieldDesc) -> DiagonalForm:
    return DiagonalForm(field, ())


def hyperbolic_plane(field: FieldDesc) -> DiagonalForm:
    return DiagonalForm(field, (field.one(), -field.one()))


@dataclass(frozen=True)
class PfisterSpec:
    """A scaled Pfister form: scalar times the k-fold form on the slots."""

    scalar: SquareClass
    slots: tuple[SquareClass, ...]

    @property
    def fold(self) -> int:
        return len(self.slots)

    def expand(self) -> DiagonalForm:
        return scale(self.scalar, pfister(self.slots))

    def __str__(self) -> str:
        body = "<<" + ",".join(format_square_class(s) for s in self.slots) + ">>"
        if self.scalar.is_one():
            return body
        return format_square_class(self.scalar) + "*" + body


def _check_fields(phi: DiagonalForm, psi: DiagonalForm) -> None:
    if phi.field != psi.field:
        raise FieldMismatchError(f"{phi.field} vs {psi.field}")


def orth_sum(phi: DiagonalForm, psi: DiagonalForm) -> DiagonalForm:
    _check_fields(phi, psi)
    return DiagonalForm(phi.field, phi.entries + psi.entries)


def scale(c: SquareClass, phi: DiagonalForm) -> DiagonalForm:
    return DiagonalForm(phi.field, tuple(c * e for e in phi))


def neg(phi: DiagonalForm) -> DiagonalForm:
    return DiagonalForm(phi.field, tuple(-e for e in phi))


def tensor(phi: DiagonalForm, psi: DiagonalForm) -> DiagonalForm:
    _check_fields(phi, psi)
    return DiagonalForm(phi.field, tuple(a * b for a in phi for b in psi))


def pfister(slots: Iterable[SquareClass]) -> DiagonalForm:
    """The fold form: tensor product of the binary forms <1, -a_i>."""
    slots = tuple(slots)
    if not slots:
        raise ValueError("need at least one slot (or a field for the 0-fold)")
    field = slots[0].field
    out = DiagonalForm(field, (field.one(),))
    for a in slots:
        out = tensor(out, DiagonalForm(field, (field.one(), -a)))
    return out


def pure_part(spec: PfisterSpec) -> DiagonalForm:
    """Orthogonal complement of <1> in the (unscaled) Pfister form."""
    full = pfister(spec.slots)
    return DiagonalForm(full.field, full.entries[1:])  # <1> sorts first


def determinant(phi: DiagonalForm) -> SquareClass:
    out = phi.field.one()
    for e in phi:
        out = out * e
    return out


def discriminant(phi: DiagonalForm) -> SquareClass:
    det = determinant(phi)
    return -det if phi.dim * (phi.dim - 1) // 2 % 2 else det


def canonicalize(phi: DiagonalForm) -> DiagonalForm:
    """Canonical diagonalization of an anisotropic form.

    Entries are sorted; over level-2 fields a doubled class x is replaced
    by the smaller of x and -x (taken twice), which by the uniqueness of
    rigid diagonalizations makes equality decide isometry.
    """
    from . import witt

    if witt.is_isotropic(phi):
        raise IsotropicInputError("canonicalize requires an anisotropic form")
    return witt._form(phi.field, [e.bits for e in phi])


def _canon_bits(field: FieldDesc, bits: Sequence[int]) -> tuple[int, ...]:
    """Canonical sorted bit tuple with the level-2 doubled-pair move."""
    if not field._flex or len(set(bits)) == len(bits):
        return tuple(sorted(bits))
    count: dict[int, int] = {}
    for b in bits:
        count[b] = count.get(b, 0) + 1
    return tuple(sorted(b & ~1 if count[b] == 2 else b for b in bits))


def is_isometric(phi: DiagonalForm, psi: DiagonalForm) -> bool:
    """Equal dimension and equal Witt vectors: by Witt cancellation,
    Witt-equivalent forms of one dimension are isometric."""
    from .witt import _form_vector

    _check_fields(phi, psi)
    return phi.dim == psi.dim and _form_vector(phi) == _form_vector(psi)


def is_subform(psi: DiagonalForm, phi: DiagonalForm) -> bool:
    """Witt-index criterion: psi embeds iff i_W(phi + (-psi)) >= dim psi,
    i.e. iff dim an(phi + (-psi)) <= dim phi - dim psi, read off the
    difference of their Witt vectors."""
    from .witt import _diffs, _dims, _form_vector

    _check_fields(psi, phi)
    (an_dim,) = _dims(phi.field, _diffs(
        phi.field, _form_vector(phi), (_form_vector(psi),)))
    return an_dim <= phi.dim - psi.dim


def complement(psi: DiagonalForm, phi: DiagonalForm) -> DiagonalForm:
    """The form rho with phi isometric to psi + rho; phi must be anisotropic."""
    from . import witt

    if witt.is_isotropic(phi):
        raise IsotropicInputError("complement requires an anisotropic ambient")
    _check_fields(psi, phi)
    minus_one = phi.field._minus_bit
    an = witt._an_bits(phi.field, [e.bits for e in phi]
                       + [e.bits ^ minus_one for e in psi])
    if len(an) > phi.dim - psi.dim:
        raise NotASubformError(f"{psi} is not a subform of {phi}")
    return witt._form(phi.field, an)


def decompose_over_split(
    psi: DiagonalForm, phi1: DiagonalForm, phi2: DiagonalForm
) -> tuple[DiagonalForm, DiagonalForm, DiagonalForm]:
    """Split a subform of phi1 + phi2 into parts inside each summand.

    Returns (psi1, psi2, psi3) with psi isometric to their sum, psi1 a
    subform of phi1, psi2 of phi2, and psi3 representing only classes
    outside D(phi1) and D(phi2) (possible only over level-2 fields),
    with all psi3 entries in distinct square classes.  Shared values are
    split off the entry lists of psi and of a summand, least first.
    """
    from . import witt

    _check_fields(psi, phi1)
    _check_fields(psi, phi2)
    ambient = orth_sum(phi1, phi2)
    if witt.is_isotropic(ambient):
        raise IsotropicSumError("phi1 + phi2 must be anisotropic")
    if not is_subform(psi, ambient):
        raise NotASubformError("psi must be a subform of phi1 + phi2")
    fld = psi.field
    flex = fld._flex
    rest = [e.bits for e in psi]
    summands = ([e.bits for e in phi1], [e.bits for e in phi2])
    parts: tuple[list[int], list[int]] = ([], [])
    while rest:
        d1, d2 = (witt._values(s, flex) for s in summands)
        x = next((x for x in witt._values(rest, flex) if x in d1 or x in d2),
                 None)
        if x is None:
            break
        side = x not in d1
        witt._split_off(rest, x, flex)
        witt._split_off(summands[side], x, flex)
        parts[side].append(x)
    psi1, psi2 = (DiagonalForm(fld, tuple(map(fld._classes.__getitem__, p)))
                  for p in parts)
    return psi1, psi2, witt._form(fld, rest)


# --- textual syntax -------------------------------------------------------

def format_form(phi: DiagonalForm) -> str:
    return "<" + ",".join(format_square_class(e) for e in phi) + ">"


def parse_form(s: str, field: FieldDesc) -> DiagonalForm:
    """Parse `<e1,...,ek>` or Pfister sugar `[c*]<<a1,...,ak>>`; a
    ParseError's position indexes s."""
    text = s.strip()
    if "<<" in text:
        return parse_pfister_spec(s, field).expand()
    if not (text.startswith("<") and text.endswith(">")):
        raise ParseError(f"form literal must be <...>, got {s!r}", 0)
    body = text[1:-1]
    if not body.strip():
        return zero_form(field)
    start = len(s) - len(s.lstrip()) + 1
    return DiagonalForm(field, _parse_classes(body, field, start))


def _parse_classes(body: str, field: FieldDesc,
                   start: int) -> tuple[SquareClass, ...]:
    """The comma-separated square classes of body, which begins at
    index start of the caller's string."""
    out = []
    for part in body.split(","):
        out.append(_parse_square_class(part, field, start))
        start += len(part) + 1
    return tuple(out)


def parse_pfister_spec(s: str, field: FieldDesc) -> PfisterSpec:
    text = s.strip()
    lead = len(s) - len(s.lstrip())
    idx = text.find("<<")
    if idx < 0 or not text.endswith(">>"):
        raise ParseError(f"Pfister literal must be [c*]<<...>>, got {s!r}", 0)
    prefix = text[:idx].rstrip()
    if prefix.endswith("*"):
        prefix = prefix[:-1]
    scalar = (_parse_square_class(prefix, field, lead) if prefix
              else field.one())
    body = text[idx + 2:-2]
    if not body.strip():
        raise ParseError("empty Pfister slot list", lead + idx)
    slots = _parse_classes(body, field, lead + idx + 2)
    return PfisterSpec(scalar, slots)
