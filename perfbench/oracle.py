"""Input sampling and output checks that share no code with rigidwitt.

Square classes are raw ints (bit 0 the unit bit, bit i the exponent of
t_i).  The Witt ring of every field model is the group ring (Z/m)[H]:

    base   modulus  H indexed by        <x> contributes
    F3     4        exponent bits       +1 at x, or -1 at -x if x has unit bit
    R      0 (Z)    exponent bits       +1 at x, or -1 at -x if x has unit bit
    C      2        exponent bits       +1
    F3(i)  2        all bits            +1

Everything here is computed from that table alone.  The only things
taken from the library are the field descriptions: ``Base``,
``FieldDesc`` and ``FieldDesc.classes()``, the list the sampler draws
from.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """An output of the library disagrees with the benchmark's own oracle."""


class Field:
    """Raw-bit view of a ``FieldDesc``: its classes and Witt-ring shape."""

    def __init__(self, desc):
        self.desc = desc
        base = desc.base.name
        self.nvars = desc.nvars
        self.classes = [c.bits for c in desc.classes()]
        self.minus_one = 1 if base in ("F3", "R") else 0
        self.modulus = {"F3": 4, "R": 0, "C": 2, "SQUARE_MINUS_ONE": 2}[base]
        self.signed = base in ("F3", "R")
        self.full_index = base == "SQUARE_MINUS_ONE"
        self.size = 1 << (self.nvars + (1 if self.full_index else 0))
        self.name = str(desc)

    # --- the group ring ---------------------------------------------------

    def vector(self, bits) -> tuple[int, ...]:
        """Witt class of the diagonal form with these entries."""
        coeffs = [0] * self.size
        for b in bits:
            if self.full_index:
                coeffs[b] += 1
            elif self.signed and b & 1:
                coeffs[b >> 1] -= 1
            else:
                coeffs[b >> 1] += 1
        return self.reduce(coeffs)

    def reduce(self, coeffs) -> tuple[int, ...]:
        m = self.modulus
        return tuple(c % m for c in coeffs) if m else tuple(coeffs)

    def add(self, u, v) -> tuple[int, ...]:
        return self.reduce([a + b for a, b in zip(u, v)])

    def sub(self, u, v) -> tuple[int, ...]:
        return self.reduce([a - b for a, b in zip(u, v)])

    def an_dim(self, v) -> int:
        """Dimension of the anisotropic form in the Witt class v."""
        if self.modulus == 4:
            return sum(min(c, 4 - c) for c in v)
        if self.modulus == 2:
            return sum(v)
        return sum(abs(c) for c in v)

    def an_bits(self, v) -> tuple[int, ...]:
        """The anisotropic representative of v, entries sorted by
        (unit bit, exponents); a doubled F3 class is taken with unit bit 0."""
        out = []
        for idx, c in enumerate(v):
            if self.full_index:
                out += [idx] * c
                continue
            h = idx << 1
            if self.modulus == 4:
                out += {0: [], 1: [h], 2: [h, h], 3: [h | 1]}[c]
            elif self.modulus == 2:
                out += [h] * c
            else:
                out += [h if c > 0 else h | 1] * abs(c)
        return tuple(sorted(out, key=lambda b: (b & 1, b >> 1)))

    def neg(self, b: int) -> int:
        return b ^ self.minus_one

    def pfister_bits(self, slots) -> list[int]:
        """Entries of <<a1,...,an>> = tensor of the binary forms <1,-a_i>."""
        out = [0]
        for a in slots:
            out = out + [e ^ self.neg(a) for e in out]
        return out

    def spec_bits(self, scalar: int, slots) -> list[int]:
        return [scalar ^ e for e in self.pfister_bits(slots)]

    # --- sampling -----------------------------------------------------------

    def draw(self, rng) -> int:
        """A square class, uniform over all classes of the field."""
        return rng.choice(self.classes)

    def random_In(self, rng, n: int, dim: int, terms=(1, 2, 3), fixed=()):
        """(vector, anisotropic entries) of a random sum of scaled n-fold
        Pfister forms whose anisotropic part has dimension ``dim``.  Each
        term starts with the ``fixed`` slots; the others are drawn."""
        for _ in range(100000):
            v = (0,) * self.size
            for _ in range(rng.choice(terms)):
                scalar = self.draw(rng)
                slots = [*fixed] + [self.draw(rng)
                                    for _ in range(n - len(fixed))]
                v = self.add(v, self.vector(self.spec_bits(scalar, slots)))
            if self.an_dim(v) == dim:
                return v, self.an_bits(v)
        raise RuntimeError(
            f"no I^{n} form of dimension {dim} over {self.name}")


# --- GP_n generator sets and the exact small-k oracle -----------------------

class Generators:
    """Every nonzero Witt class of a scaled (or unscaled) n-fold Pfister
    form, built by expanding all slot tuples with numpy."""

    def __init__(self, field: Field, n: int, unscaled: bool):
        self.field = field
        nonone = [c for c in field.classes if c]
        combos = np.array(
            list(itertools.combinations_with_replacement(nonone, n)),
            dtype=np.int64)
        entries = np.zeros((len(combos), 1), dtype=np.int64)
        for j in range(n):
            neg_a = combos[:, j:j + 1] ^ field.minus_one
            entries = np.concatenate([entries, entries ^ neg_a], axis=1)
        pfisters = self._unique(self._vectors(entries))
        pfisters = pfisters[np.any(pfisters != 0, axis=1)]
        scalars = [0, field.minus_one] if unscaled else field.classes
        scaled = np.concatenate(
            [self._vectors(entries_scaled)
             for entries_scaled in self._scaled_entries(pfisters, scalars)])
        self.rows = self._unique(scaled)
        self.keys = self._keys(self.rows)

    def _unique(self, rows: np.ndarray) -> np.ndarray:
        """Distinct rows, ordered by key."""
        _keys, first = np.unique(self._keys(rows), return_index=True)
        return rows[first]

    def _vectors(self, entries: np.ndarray) -> np.ndarray:
        f = self.field
        if f.full_index:
            idx, sign = entries, np.ones_like(entries)
        else:
            idx = entries >> 1
            sign = 1 - 2 * (entries & 1) if f.signed else np.ones_like(entries)
        flat = (np.arange(len(entries))[:, None] * f.size + idx).ravel()
        out = np.bincount(flat, weights=sign.ravel(),
                          minlength=len(entries) * f.size)
        out = out.astype(np.int64).reshape(len(entries), f.size)
        return out % f.modulus if f.modulus else out

    def _scaled_entries(self, pfisters: np.ndarray, scalars):
        """Entry lists of every scalar multiple of each Pfister class."""
        base = np.array([self.field.an_bits(tuple(int(c) for c in row))
                         for row in pfisters], dtype=np.int64)
        for s in scalars:
            yield base ^ s

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One uint64 per row; injective for the field sizes used here."""
        f = self.field
        if f.modulus:
            width = 1 if f.modulus == 2 else 2
            digits = rows.astype(np.uint64)
        else:
            width = 16
            digits = (rows + (1 << 15)).astype(np.uint64)
        if width * f.size > 64:
            raise ValueError(f"Witt vectors over {f.name} do not fit a key")
        shifts = (np.arange(f.size, dtype=np.uint64) * np.uint64(width))
        return np.bitwise_or.reduce(digits << shifts, axis=1)

    def contains(self, rows: np.ndarray) -> np.ndarray:
        keys = self._keys(rows)
        pos = np.searchsorted(self.keys, keys)
        pos[pos == len(self.keys)] = 0
        return self.keys[pos] == keys

    def minimal_terms(self, v, kmax: int) -> int | None:
        """The least k <= kmax with v a sum of k generators, else None.

        Exhaustive for k <= 2; k = kmax is reported once k <= kmax - 1
        has been ruled out, so callers pass a kmax the theory guarantees.
        """
        f = self.field
        vec = np.array(v, dtype=np.int64)
        if not vec.any():
            return 0
        if kmax >= 1 and self.contains(vec[None, :])[0]:
            return 1
        if kmax >= 2:
            diff = vec[None, :] - self.rows
            if f.modulus:
                diff %= f.modulus
            if self.contains(diff).any():
                return 2
        return kmax if kmax >= 3 else None


# --- checks -----------------------------------------------------------------

def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def spec_tuple(spec) -> tuple[int, tuple[int, ...]]:
    """(scalar, slots) raw bits of a library ``PfisterSpec``."""
    return spec.scalar.bits, tuple(s.bits for s in spec.slots)


def terms_vector(field: Field, terms) -> tuple[int, ...]:
    v = (0,) * field.size
    for scalar, slots in terms:
        v = field.add(v, field.vector(field.spec_bits(scalar, slots)))
    return v


def check_form(field: Field, bits, v, what: str) -> None:
    """The form with these entries is anisotropic and in the class v."""
    check(field.vector(bits) == tuple(v), f"{what}: wrong Witt class")
    check(field.an_dim(v) == len(bits), f"{what}: not anisotropic")


def check_terms(field: Field, k: int, terms, v, n: int,
                unscaled: bool) -> None:
    """k terms of fold n, each re-expanded, summing to the class v."""
    check(len(terms) == k, f"{len(terms)} certificate terms for k = {k}")
    for scalar, slots in terms:
        check(len(slots) == n, "certificate term of the wrong fold")
        if unscaled:
            check(scalar in (0, field.minus_one),
                  "scaled term in an unscaled certificate")
    check(terms_vector(field, terms) == tuple(v),
          "certificate terms do not sum to the form's Witt class")


def represents(field: Field, bits, x: int) -> bool:
    """Whether the form represents the class x: <x> is a value of phi iff
    phi + <-x> is isotropic (or phi itself is)."""
    if not bits:
        return False
    v = field.vector(bits)
    if field.an_dim(v) < len(bits):
        return True
    return field.an_dim(field.add(v, field.vector([field.neg(x)]))) \
        < len(bits) + 1


def hyperbolic_over(field: Field, bits, roots) -> bool:
    """Whether the form is hyperbolic over F(sqrt(r) for r in roots).

    The kernel of F*/F*^2 -> K*/K*^2 is the subgroup S spanned by the
    roots, and K is again a rigid model with the same residue field, so
    W(K) is the group ring over the classes modulo S.  The coefficient
    of a class pair {y, -y} is taken mod 4 (F3 residue), exactly (R),
    and each class mod 2 when -1 lies in S or is already a square.
    """
    span = {0}
    for r in roots:
        span |= {s ^ r for s in span}
    coset = {}
    for b in field.classes:
        coset[b] = min(b ^ s for s in span)
    counts: dict[int, int] = {}
    for b in bits:
        counts[coset[b]] = counts.get(coset[b], 0) + 1
    if field.modulus == 2 or coset[field.minus_one] == 0:
        return all(c % 2 == 0 for c in counts.values())
    m = field.modulus
    for y, c in counts.items():
        diff = c - counts.get(coset[field.neg(y)], 0)
        if (diff % m) if m else diff:
            return False
    return True


# Exact GP_3 of anisotropic I^3 forms by dimension (Hoffmann, Izhboldin,
# and the dimension-16 bound of the source paper).
GP3_BY_DIM = {8: (1,), 12: (2,), 14: (2,), 16: (2, 3)}


def pfister_bound(n: int, d: int) -> int:
    """The CLI's `bounds` table, from the closed forms: d/2 - 1 for n = 2,
    the exact small values and (d^2 - 8d - 82 + 2(-1)^(d/2))/16 for n = 3,
    and ceil(p_n(d)) with p_3 = X^2/16, p_n(X) = 1 + 2 p_{n-1}(X/2)."""
    if n == 2:
        return max(d // 2 - 1, 0)
    if n == 3:
        if d < 8:
            return 0
        if d <= 14:
            return 1 if d <= 10 else 2
        return (d * d - 8 * d - 82 + 2 * (-1) ** (d // 2)) // 16
    return math.ceil(_poly(n, Fraction(d)))


def _poly(n: int, x: Fraction) -> Fraction:
    if n == 3:
        return x * x / 16
    return 1 + 2 * _poly(n - 1, x / 2)


# --- the textual syntax of the command line ---------------------------------

def format_class(field: Field, b: int) -> str:
    body = "*".join(f"t{i}" for i in range(1, field.nvars + 1)
                    if b >> i & 1) or "1"
    return ("-" + body) if b & 1 else body


def format_form(field: Field, bits) -> str:
    return "<" + ",".join(format_class(field, b) for b in bits) + ">"


def parse_class(field: Field, text: str) -> int:
    text = text.strip()
    bits = 0
    if text.startswith("-"):
        bits, text = field.minus_one, text[1:]
    elif text == "u" or text.startswith("u*"):
        bits, text = 1, text[2:] or "1"
    for factor in text.split("*"):
        if factor != "1":
            check(factor.startswith("t"), f"bad class literal {text!r}")
            bits ^= 1 << int(factor[1:])
    return bits


def parse_form(field: Field, text: str) -> list[int]:
    body = text.strip()[1:-1]
    return [parse_class(field, p) for p in body.split(",")] if body else []


def parse_spec(field: Field, text: str) -> tuple[int, tuple[int, ...]]:
    """`[c*]<<a,...>>` as (scalar, slots)."""
    head, _, body = text.partition("<<")
    scalar = parse_class(field, head.rstrip("*")) if head else 0
    return scalar, tuple(parse_class(field, p)
                         for p in body.rstrip(">").split(","))
