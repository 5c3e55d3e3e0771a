"""Square-class groups of rigid-field models and their automorphisms.

A field model is an iterated Laurent series field over one of the bases
F3, R, C (or the 2-square-class level-1 base obtained from F3 by
adjoining a square root of -1).  A square class is a sign bit together
with an F2 exponent vector over the Laurent variables; the group law is
bitwise XOR.

Moving a class a onto a Laurent variable (over F(sqrt a), or by a change
of uniformizer) has a closed form on these bits: `class_map` defines it
once, and `find_basis_change` is built from it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import FieldMismatchError, ParseError, UnitClassError


class Base(enum.Enum):
    F3 = "F3"
    R = "R"
    C = "C"
    # Image of F3 under adjoining sqrt(-1): two unit square classes, but
    # -1 is a square (level 1).  Not directly parseable; arises from
    # quadratic extensions only.
    SQUARE_MINUS_ONE = "F3(i)"

    __hash__ = object.__hash__  # members are singletons; hashes in C


_LEVELS = {Base.F3: 2, Base.R: None, Base.C: 1, Base.SQUARE_MINUS_ONE: 1}
_BitMap = Callable[[int], int]  # a map of square classes on raw bits


@dataclass(frozen=True)
class FieldDesc:
    """A rigid-field model: base field plus Laurent variable count."""

    base: Base
    nvars: int

    def __post_init__(self) -> None:
        if self.nvars < 0:
            raise ValueError("nvars must be nonnegative")

    def level(self) -> int | None:
        """Level of the field: 1, 2, or None (meaning infinity)."""
        return _LEVELS[self.base]

    def unit_class_count(self) -> int:
        return 1 if self.base is Base.C else 2

    def square_class_count(self) -> int:
        return self.unit_class_count() * (1 << self.nvars)

    def random_class(self, rng) -> "SquareClass":
        """A uniformly drawn square class (C has no unit bit to draw)."""
        i = rng.randrange(self.square_class_count())
        return SquareClass(self, i << 1 if self.base is Base.C else i)

    def one(self) -> "SquareClass":
        return SquareClass(self, 0)

    def minus_one(self) -> "SquareClass":
        """The class of -1 (trivial when the level is 1)."""
        if self.base in (Base.C, Base.SQUARE_MINUS_ONE):
            return SquareClass(self, 0)
        return SquareClass(self, 1)

    def var(self, i: int) -> "SquareClass":
        """The class of the i-th Laurent variable (1-based)."""
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i} out of range 1..{self.nvars}")
        return SquareClass(self, 1 << i)

    def class_bits(self) -> list[int]:
        """Raw bits of all square classes, in the global tie-break order."""
        size = 2 << self.nvars
        units = range(1, size, 2) if self.unit_class_count() == 2 else ()
        return [*range(0, size, 2), *units]

    def classes(self) -> Iterator["SquareClass"]:
        """All square classes, in the global tie-break order."""
        return (SquareClass(self, b) for b in self.class_bits())

    def residue(self) -> "FieldDesc":
        """The residue field model (one Laurent variable fewer)."""
        if self.nvars == 0:
            raise ValueError("base field has no residue field in the model")
        return FieldDesc(self.base, self.nvars - 1)

    def extended(self, k: int) -> "FieldDesc":
        return FieldDesc(self.base, self.nvars + k)

    def __str__(self) -> str:
        vars_part = ",".join(f"t{i}" for i in range(1, self.nvars + 1))
        return f"{self.base.value}[{vars_part}]"


@dataclass(frozen=True, order=False)
class SquareClass:
    """An element of F*/F*^2: bit 0 is the unit bit, bit i the t_i exponent."""

    field: FieldDesc
    bits: int

    def __post_init__(self) -> None:
        field, bits = self.field, self.bits
        if bits >> field.nvars + 1:  # a negative int has every bit set
            raise ValueError(f"class bits {bits} out of range over {field}")
        if bits & 1 and field.base is Base.C:  # -1 is a square
            object.__setattr__(self, "bits", bits ^ 1)

    @property
    def unit(self) -> int:
        return self.bits & 1

    @property
    def exps(self) -> int:
        """Exponent vector as an integer, t1 in the least significant bit."""
        return self.bits >> 1

    def is_unit_class(self) -> bool:
        return self.exps == 0

    def is_one(self) -> bool:
        return self.bits == 0

    def _check(self, other: "SquareClass") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        self._check(other)
        return SquareClass(self.field, self.bits ^ other.bits)

    def __neg__(self) -> "SquareClass":
        """Multiply by the class of -1 (identity over level-1 fields)."""
        return self * self.field.minus_one()

    def sort_key(self) -> tuple[int, int]:
        return (self.unit, self.exps)

    def __lt__(self, other: "SquareClass") -> bool:
        self._check(other)
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return format_square_class(self)

    def __repr__(self) -> str:
        return f"SquareClass({self.field}, {format_square_class(self)!r})"


@dataclass(frozen=True)
class ClassAutomorphism:
    """Invertible F2-linear map on the (1 + nvars)-bit class representation.

    Column j holds the image of the j-th basis vector.  Maps fixing the
    class of -1 correspond to variable reorderings and uniformizer
    changes, and induce Witt-ring automorphisms of the model.
    """

    field: FieldDesc
    cols: tuple[int, ...]

    def apply(self, a: SquareClass) -> SquareClass:
        if a.field != self.field:
            raise FieldMismatchError(f"{a.field} vs {self.field}")
        out = 0
        for j, col in enumerate(self.cols):
            if a.bits >> j & 1:
                out ^= col
        return SquareClass(self.field, out)


def class_map(a: int) -> tuple[_BitMap, _BitMap]:
    """(project, lift) on raw bits for a class a with a Laurent part.

    With t_p the highest variable of a, project sends b to b*a when b
    has t_p and to b otherwise, then removes the t_p bit and shifts the
    higher bits down.  It is a homomorphism with kernel {1, a}: the map
    of square classes to F(sqrt a), written on one variable fewer (for
    a = t_i it is the residue map of t_i).  lift is its section: it
    inserts a zero t_p bit.
    """
    p = a.bit_length() - 1
    top = 1 << p
    low = top - 1

    def project(b: int) -> int:
        if b & top:
            b ^= a
        return (b & low) | ((b >> (p + 1)) << p)

    def lift(c: int) -> int:
        return (c & low) | ((c >> p) << (p + 1))

    return project, lift


def basis_change_map(a: int, nvars: int) -> tuple[_BitMap, _BitMap]:
    """(moved, back) on raw bits: find_basis_change(a) and its inverse.

    moved sends b to project(b), times t_n when b has a's highest
    variable; back sends t_n to a and everything else through lift.
    """
    project, lift = class_map(a)
    top = 1 << (a.bit_length() - 1)
    t_n = 1 << nvars

    def moved(b: int) -> int:
        return project(b) | (t_n if b & top else 0)

    def back(b: int) -> int:
        return lift(b & ~t_n) ^ (a if b & t_n else 0)

    return moved, back


def find_basis_change(a: SquareClass) -> ClassAutomorphism:
    """An automorphism fixing -1 and sending a to the class of t_n.

    Models the paper's two moves: reordering Laurent variables and
    replacing the uniformizer t_n by a unit multiple.  In closed form,
    with t_p the highest variable of a: t_i stays for i < p, t_i goes
    to t_(i-1) for i > p, and t_p goes to (a without t_p) * t_n; its
    columns are the images under basis_change_map's moved.
    """
    field = a.field
    if a.is_unit_class():
        raise UnitClassError("class has no Laurent variable part")
    moved, _ = basis_change_map(a.bits, field.nvars)
    return ClassAutomorphism(field, tuple(
        moved(1 << j) for j in range(field.nvars + 1)))


# --- textual syntax -------------------------------------------------------

_VAR_RE = re.compile(r"t(\d+)$")


def format_square_class(a: SquareClass) -> str:
    parts = []
    for i in range(1, a.field.nvars + 1):
        if (a.exps >> (i - 1)) & 1:
            parts.append(f"t{i}")
    body = "*".join(parts) if parts else "1"
    if a.unit:
        if a.field.base is Base.SQUARE_MINUS_ONE:
            return "u*" + body if parts else "u"
        return "-" + body
    return body


def parse_square_class(s: str, field: FieldDesc) -> SquareClass:
    """Parse `[-] (1 | t<k>(*t<k>)*)`, e.g. `-t1*t3`; round-trips bit-exactly."""
    return _parse_square_class(s, field, 0)


def _parse_square_class(s: str, field: FieldDesc, start: int) -> SquareClass:
    """parse_square_class of the literal s that begins at index start of
    the caller's string, which every ParseError position indexes."""
    text = s.strip()
    if not text:
        raise ParseError("empty square-class literal")
    bits = 0
    pos = start + len(s) - len(s.lstrip())
    if text.startswith("-"):
        # -1 is a square over level-1 bases, so the sign is a no-op there.
        if field.base in (Base.F3, Base.R):
            bits ^= 1
        text = text[1:]
        pos += 1
    elif text.startswith("u*") or text == "u":
        if field.base is not Base.SQUARE_MINUS_ONE:
            raise ParseError("unit class 'u' only exists over the level-1 "
                             "two-unit-class base", pos)
        bits ^= 1
        if text == "u":
            return SquareClass(field, bits)
        text = text[2:]
        pos += 2
    if not text:
        raise ParseError("missing square-class body", pos)
    for factor in text.split("*"):
        at = pos + len(factor) - len(factor.lstrip())
        pos += len(factor) + 1
        factor = factor.strip()
        if factor == "1":
            continue
        m = _VAR_RE.match(factor)
        if not m:
            raise ParseError(f"bad square-class factor {factor!r}", at)
        k = int(m.group(1))
        if not 1 <= k <= field.nvars:
            raise ParseError(f"unknown variable t{k} over {field}", at)
        bits ^= 1 << k
    return SquareClass(field, bits)


_FIELD_RE = re.compile(r"^\s*(F3|R|C)\s*\[\s*([^\]]*)\s*\]\s*$")


def parse_field(s: str) -> FieldDesc:
    """Parse `F3|R|C [t1,...,tn]` with contiguous variables t1..tn."""
    m = _FIELD_RE.match(s)
    if not m:
        raise ParseError(f"bad field literal {s!r}", 0)
    base = {"F3": Base.F3, "R": Base.R, "C": Base.C}[m.group(1)]
    body = m.group(2)
    if not body.strip():
        return FieldDesc(base, 0)
    at = m.start(2)
    names = body.split(",")
    for i, name in enumerate(names, start=1):
        if name.strip() != f"t{i}":
            raise ParseError(
                f"variables must be contiguous t1..tn, got {name.strip()!r} "
                f"in position {i}", at + len(name) - len(name.lstrip()))
        at += len(name) + 1
    return FieldDesc(base, len(names))
