"""Shared test oracles, computed from raw square-class bits.

A square class is an int: bit 0 the unit bit, bit i the exponent of
t_i.  The Witt ring of every field model is the group ring (Z/m)[H]:

    base   m        H indexed by        <x> contributes
    F3     4        exponent bits       +1 at x, or -1 at -x if x has unit bit
    R      0 (Z)    exponent bits       +1 at x, or -1 at -x if x has unit bit
    C      2        exponent bits       +1
    F3(i)  2        all bits            +1

The oracles below use that table and `FieldDesc.classes()` only (and
the form constructors, to hand forms to the library), so they share no
code with the library's Witt engine or Pfister search.  The `springer`
oracle reaches anisotropic parts another way, by Springer's theorem on
the residue forms of the top Laurent variable; the library reads them
off the group ring.
"""

import collections
import functools
import itertools

import numpy as np
import pytest

from rigidwitt.qform import DiagonalForm
from rigidwitt.sqclass import Base, SquareClass

_MODULUS = {Base.F3: 4, Base.R: 0, Base.C: 2, Base.SQUARE_MINUS_ONE: 2}


class RawField:
    """The group-ring model of a field's Witt ring on raw class bits."""

    def __init__(self, field):
        self.field = field
        self.m = _MODULUS[field.base]
        self.full_index = field.base is Base.SQUARE_MINUS_ONE
        self.size = 1 << (field.nvars + self.full_index)
        self.minus_one = 1 if field.base in (Base.F3, Base.R) else 0
        self.classes = [c.bits for c in field.classes()]

    def reduce(self, coeffs):
        return tuple(c % self.m for c in coeffs) if self.m else tuple(coeffs)

    def vector(self, bits):
        """Witt vector of the diagonal form with these entries."""
        v = [0] * self.size
        for b in bits:
            if self.full_index:
                v[b] += 1
            elif b & 1:
                v[b >> 1] -= 1
            else:
                v[b >> 1] += 1
        return self.reduce(v)

    def add(self, u, w):
        return self.reduce([a + b for a, b in zip(u, w)])

    def mul(self, u, w):
        """The product in the group ring: e_h * e_k = e_(h xor k), so an
        XOR convolution of the coefficients."""
        out = [0] * self.size
        for i, a in enumerate(u):
            for j, b in enumerate(w):
                out[i ^ j] += a * b
        return self.reduce(out)

    def an_dim(self, v):
        """Dimension of the anisotropic forms in the Witt class v."""
        if self.m == 4:
            return sum(min(c, 4 - c) for c in v)
        return sum(abs(c) for c in v)

    def an_bits(self, v):
        """Entries of the anisotropic form in the class v (a doubled F3
        class taken without the unit bit)."""
        out = []
        for idx, c in enumerate(v):
            if self.full_index:
                out += [idx] * c
            elif self.m == 4:
                out += {0: [], 1: [idx << 1], 2: [idx << 1] * 2,
                        3: [idx << 1 | 1]}[c]
            else:
                out += [idx << 1 | (c < 0)] * abs(c)
        return out

    def form(self, v):
        return DiagonalForm(self.field, tuple(
            SquareClass(self.field, b) for b in self.an_bits(v)))

    def pfister_bits(self, scalar, slots):
        """Entries of scalar * <<slots>>, the product of the <1, -a>."""
        out = [scalar]
        for a in slots:
            out += [e ^ a ^ self.minus_one for e in out]
        return out

    def spec_vector(self, spec):
        """Witt vector of a library PfisterSpec, re-expanded here."""
        return self.vector(self.pfister_bits(
            spec.scalar.bits, [s.bits for s in spec.slots]))

    def hyperbolic_over(self, bits, roots):
        """Whether the form with these entries is hyperbolic over
        F(sqrt r : r in roots).  The classes there that come from F are
        the classes modulo the span S of the roots, so the form is
        hyperbolic when in the group ring on the cosets y + S the
        coefficients of y and -y cancel: mod 4 over F3, exactly over
        R, and each coset's count is even once -1 lies in S (then F3
        becomes F3(i) and R becomes C) or the level is 1."""
        span = {0}
        for r in roots:
            span |= {s ^ r for s in span}

        def coset(b):
            return min(b ^ s for s in span)

        count = collections.Counter(coset(b) for b in bits)
        if coset(self.minus_one) == 0:
            return all(c % 2 == 0 for c in count.values())
        for y, c in count.items():
            diff = c - count[coset(y ^ self.minus_one)]
            if (diff % self.m if self.m else diff) != 0:
                return False
        return True

    def witt_classes(self, box=2):
        """(vector, anisotropic form) for every Witt class; over R
        (m = 0, infinitely many classes) those with all |c| <= box."""
        digits = range(self.m) if self.m else range(-box, box + 1)
        for v in itertools.product(digits, repeat=self.size):
            yield v, self.form(v)


class GPLookup(RawField):
    """Every nonzero Witt class of an n-fold Pfister form, three ways:
    scaled by any class, unscaled (scalar 1 or -1), and plain (scalar 1).

    Built by expanding every slot tuple with numpy.  `terms` looks a
    class up: the exact number of terms when it is at most 2.
    """

    def __init__(self, field, n):
        super().__init__(field)
        combos = np.array(list(itertools.combinations_with_replacement(
            self.classes, n)), dtype=np.int64).reshape(-1, n)
        entries = np.zeros((len(combos), 1), dtype=np.int64)
        for j in range(n):
            neg_a = combos[:, j:j + 1] ^ self.minus_one
            entries = np.concatenate([entries, entries ^ neg_a], axis=1)
        rows, first = np.unique(self._vectors(entries), axis=0,
                                return_index=True)
        nonzero = rows.any(axis=1)
        plain = entries[first[nonzero]]
        self.plain = self._set(rows[nonzero])
        self._rows = {}
        for unscaled, scalars in ((True, {0, self.minus_one}),
                                  (False, self.classes)):
            self._rows[unscaled] = np.unique(np.concatenate(
                [self._vectors(plain ^ c) for c in scalars]), axis=0)
        self.unscaled = self._set(self._rows[True])
        self.scaled = self._set(self._rows[False])

    def _vectors(self, entries):
        if self.full_index:
            idx, sign = entries, np.ones_like(entries)
        else:
            idx, sign = entries >> 1, 1 - 2 * (entries & 1)
        flat = (np.arange(len(entries))[:, None] * self.size + idx).ravel()
        out = np.bincount(flat, weights=sign.ravel(),
                          minlength=len(entries) * self.size)
        out = out.astype(np.int64).reshape(len(entries), self.size)
        return out % self.m if self.m else out

    @staticmethod
    def _set(rows):
        return frozenset(map(tuple, rows.tolist()))

    def terms(self, v, unscaled=False):
        """The least k <= 2 with v a sum of k (un)scaled classes, else None."""
        members = self.unscaled if unscaled else self.scaled
        if not any(v):
            return 0
        if tuple(v) in members:
            return 1
        diff = np.array(v, dtype=np.int64)[None, :] - self._rows[unscaled]
        if self.m:
            diff %= self.m
        return None if members.isdisjoint(map(tuple, diff.tolist())) else 2


def _springer(base, nvars, entries):
    """Anisotropic entries of the form over base[t1..t_nvars].  By
    Springer's theorem they are the anisotropic part of the first
    residue form of t = t_nvars (the entries with an even t exponent)
    plus t times that of the second (odd exponent, t divided out), both
    over the residue field; at the base W(F3) = Z/4, W(R) = Z,
    W(C) = Z/2 and W(F3(i)) = Z/2 x Z/2."""
    if not entries:
        return []
    if nvars == 0:
        p = entries.count(0)
        q = len(entries) - p
        if base is Base.C:
            return [0] * (len(entries) % 2)
        if base is Base.R:
            return [0] * (p - q) if p >= q else [1] * (q - p)
        if base is Base.F3:
            return {0: [], 1: [0], 2: [0, 0], 3: [1]}[(p - q) % 4]
        return [b for b in (0, 1) if entries.count(b) % 2]
    bit = 1 << nvars
    even = [b for b in entries if not b & bit]
    odd = [b ^ bit for b in entries if b & bit]
    return (_springer(base, nvars - 1, even)
            + [b | bit for b in _springer(base, nvars - 1, odd)])


@pytest.fixture(scope="session")
def springer():
    """springer(field, bits): the sorted anisotropic entries of the form
    with these entries, by the Springer recursion.  A doubled F3 class
    comes out without the unit bit, as in the library's canonical form."""
    return lambda field, bits: sorted(
        _springer(field.base, field.nvars, list(bits)))


@functools.lru_cache(maxsize=None)
def _raw_field(field):
    return RawField(field)


@functools.lru_cache(maxsize=None)
def _gp_lookup(field, n):
    return GPLookup(field, n)


@pytest.fixture(scope="session")
def raw_field():
    """raw_field(field): the group-ring model of W(field) on raw bits."""
    return _raw_field


@pytest.fixture
def gp_lookup():
    """gp_lookup(field, n): the n-fold Pfister classes of the field."""
    return _gp_lookup


def _subgroup(raw, gens):
    """The additive subgroup of the finite ring (Z/m)[H] generated by
    the vectors gens.  Each generator outside the current subgroup S
    adds the cosets S + g, S + 2g, ... until they wrap around to S."""
    members = {(0,) * raw.size}
    for g in gens:
        layer = list(members)
        while True:
            layer = [raw.add(v, g) for v in layer]
            if layer[0] in members:
                break
            members.update(layer)
    return frozenset(members)


@functools.lru_cache(maxsize=None)
def _pfister_multiples(pi):
    """The Witt vectors vec(pi) * vec(rho) over every Witt class rho.

    Brute force in the group ring (Z/m)[H], sharing no code with the
    library's divisibility test: the product is an XOR convolution mod
    m, and vec(pi) * e_h is vec(pi) shifted by h, so the products form
    the additive subgroup generated by those shifts.  Only finite Witt
    rings (every base but R) are supported.
    """
    raw = _raw_field(pi.field)
    if not raw.m:
        raise ValueError(f"the Witt ring of {pi.field} is infinite")
    p = raw.vector([e.bits for e in pi.entries])
    return _subgroup(raw, [tuple(p[i ^ h] for i in range(len(p)))
                           for h in range(len(p))])


@pytest.fixture
def pfister_multiples():
    """phi lies in pi*W(F) iff its Witt vector is in pfister_multiples(pi)."""
    return _pfister_multiples


@functools.lru_cache(maxsize=None)
def _ideal_power(field, n):
    """I^n as a set of Witt vectors: the additive subgroup generated by
    the scaled n-fold Pfister classes of `gp_lookup` (finite Witt rings
    only)."""
    look = _gp_lookup(field, n)
    if not look.m:
        raise ValueError(f"the Witt ring of {field} is infinite")
    return _subgroup(look, sorted(look.scaled))


@pytest.fixture
def ideal_power():
    """phi lies in I^n iff its Witt vector is in ideal_power(field, n)."""
    return _ideal_power
