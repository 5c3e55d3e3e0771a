"""Exact Pfister numbers, bounds, and the dimension-14/16 classifications.

Minimal representations are found by layered exact methods: tensor
reduction, an anchored search for scaled Pfister subforms on raw class
bits (it recognizes similar-to-Pfister forms and decides two-term
splittings), constructive certificates mandated by the classification
theorems, and a generator-set search on Witt-class vectors for small
fields.  Every certificate re-verifies before it is returned.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DepthCapExceededError,
    FieldMismatchError,
    InternalContradictionError,
    IsotropicInputError,
    NotInIdealError,
)
from .ideals import _extension_bits, in_In
from .qform import (
    DiagonalForm,
    PfisterSpec,
    _canon_bits,
    format_form,
    orth_sum,
    pfister,
    scale,
    tensor,
)
from .sqclass import FieldDesc, SquareClass, class_map
from .witt import (
    anisotropic_part,
    form_from_witt_vector,
    is_isotropic,
    _an_bits,
    _class_order,
    _counts,
    _flex,
    _form,
    _ring_params,
    _values,
    _vector,
)

__all__ = [
    "PfisterCertificate",
    "BoundPoly",
    "RESULT_LOG",
    "pfister_number",
    "enumerate_GPn_classes",
    "generic_I2_form",
    "lower_bound_generic",
    "two_pfister_bound",
    "three_pfister_bound",
    "faulhaber_sum",
    "poly_bound",
    "divisible_by_pfister",
    "common_slot",
    "find_GP2_subform",
    "classify14",
    "classify16",
    "random_In_form",
]

# The most recent exact Pfister numbers computed in this process, newest
# last; older records drop off so the log stays bounded.
RESULT_LOG: deque[dict] = deque(maxlen=4096)

_MAX_ENUM_CLASSES = 1 << 20  # square_class_count ** (n+1) gate
_MAX_SEARCH_ROWS = 1 << 23  # generator-pass row budget for deep search


# --- certificates ---------------------------------------------------------

@dataclass(frozen=True)
class PfisterCertificate:
    """A verified representation of a Witt class as a sum of GP_n forms."""

    n: int
    terms: tuple[PfisterSpec, ...]
    target: DiagonalForm  # canonical anisotropic representative

    def verify(self) -> bool:
        """Whether the terms, expanded on raw bits, sum to the target's
        Witt class."""
        field = self.target.field
        terms = [b for t in self.terms for b in _expand(t)]
        return _counts(field, terms) == _counts(
            field, (e.bits for e in self.target))

    def to_json_dict(self) -> dict:
        from .sqclass import format_square_class

        key = ",".join(str(e.bits) for e in self.target.entries)
        digest = hashlib.sha256(
            f"{self.target.field}|{key}".encode()).hexdigest()[:16]
        return {
            "schema": 1,
            "field": str(self.target.field),
            "fold": self.n,
            "target": format_form(self.target),
            "terms": [
                {
                    "scalar": format_square_class(t.scalar),
                    "slots": [format_square_class(s) for s in t.slots],
                }
                for t in self.terms
            ],
            "witt_hash": digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _expand(spec: PfisterSpec) -> list[int]:
    """The entries of spec.expand() on raw bits: the scalar times the
    products of the <1, -a>."""
    minus_one = spec.scalar.field.minus_one().bits
    out = [spec.scalar.bits]
    for a in spec.slots:
        out += [e ^ a.bits ^ minus_one for e in out]
    return out


def _minus(field: FieldDesc, bits: Sequence[int],
           spec: PfisterSpec) -> list[int]:
    """The canonical anisotropic part of <bits> - spec, in the class
    order."""
    minus_one = field.minus_one().bits
    total = list(bits) + [b ^ minus_one for b in _expand(spec)]
    an = _an_bits(field, tuple(sorted(total)))
    return sorted(_canon_bits(field, an), key=_class_order)


def _certificate(n: int, terms: Sequence[PfisterSpec],
                 target: DiagonalForm) -> PfisterCertificate:
    cert = PfisterCertificate(n, tuple(terms), target)
    if not cert.verify():
        raise InternalContradictionError(
            f"certificate failed verification for {format_form(target)}")
    return cert


# --- generator enumeration ------------------------------------------------

_GEN_CACHE: dict = {}


def _enum_feasible(field: FieldDesc, n: int) -> bool:
    return field.square_class_count() ** (n + 1) <= _MAX_ENUM_CLASSES


def _pfister_sets(field: FieldDesc, n: int) -> list[dict]:
    """S_k for k = 1..n: anisotropic k-fold Pfister classes.

    Each S_k maps the canonical entry-bit tuple to a slot witness.
    """
    key = (field, n)
    cached = _GEN_CACHE.get(("S", key))
    if cached is not None:
        return cached
    classes = [c for c in field.classes() if not c.is_one()]
    level: dict[tuple[int, ...], tuple[SquareClass, ...]] = {}
    for a in classes:
        bits = _canon_bits(field, (0, (-a).bits))
        level.setdefault(bits, (a,))
    sets = [level]
    for fold in range(2, n + 1):
        nxt: dict[tuple[int, ...], tuple[SquareClass, ...]] = {}
        target = 1 << fold
        for a in classes:
            na = (-a).bits
            for bits, slots in sets[-1].items():
                prod = bits + tuple(b ^ na for b in bits)
                an = _an_bits(field, tuple(sorted(prod)))
                if len(an) == target:
                    nxt.setdefault(_canon_bits(field, an), slots + (a,))
        sets.append(nxt)
    _GEN_CACHE[("S", key)] = sets
    return sets


def _generators(field: FieldDesc, n: int, unscaled: bool) -> dict:
    """All nonzero Witt classes of (un)scaled n-fold Pfister forms.

    Maps the Witt coefficient vector (as a tuple) to a PfisterSpec.
    """
    key = (field, n, unscaled)
    cached = _GEN_CACHE.get(("G", key))
    if cached is not None:
        return cached
    sets = _pfister_sets(field, n)
    if unscaled:
        scalars = [field.one(), -field.one()]
    else:
        scalars = list(field.classes())
    out: dict[tuple[int, ...], PfisterSpec] = {}
    for bits, slots in sets[n - 1].items():
        for c in scalars:
            v = _vector(field, [c.bits ^ b for b in bits])
            out.setdefault(v, PfisterSpec(c, slots))
    _GEN_CACHE[("G", key)] = out
    return out


def enumerate_GPn_classes(
    field: FieldDesc, n: int, unscaled: bool = False
) -> list[tuple[DiagonalForm, PfisterSpec]]:
    """Nonzero GP_n Witt classes with one Pfister witness each."""
    if n < 1:
        raise ValueError("fold must be at least 1")
    gens = _generators(field, n, unscaled)
    out = [(form_from_witt_vector(field, v), spec)
           for v, spec in gens.items()]
    out.sort(key=lambda pair: tuple(e.bits for e in pair[0].entries))
    return out


# --- Pfister subforms on raw class bits ------------------------------------
#
# D(psi) of an anisotropic psi is read off its entries (witt._values).
# By Witt cancellation a form embeds in psi exactly when its entries can
# be split off one at a time, so subforms are found by removing entries
# from a list; no anisotropic part is computed.

def _split_off(rest: list[int], y: int, flex: int) -> bool:
    """Replace the anisotropic rest by its complement of <y>, in place;
    False if rest does not represent y."""
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


def _pfister_subforms(
    field: FieldDesc, bits: Sequence[int], n: int, anchors: Sequence[int]
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Scaled n-fold Pfister subforms of an anisotropic form, on raw bits.

    For each anchor e, yields (e, slots, complement) once for every
    isometry class of subforms e*<<slots>> of the form with these
    entries.  Pfister forms are round, so these are all the scaled
    Pfister subforms that represent e.  pi = <<slots>> grows one slot at
    a time inside psi = e*phi: pi' = pi + x*pi embeds iff x*pi embeds in
    the complement of pi, and x then lies in its value set.
    """
    flex = _flex(field)
    minus_one = field.minus_one().bits
    for e in anchors:
        psi = [e ^ b for b in bits]
        if not _split_off(psi, 0, flex):
            continue
        seen: set[tuple[int, ...]] = set()
        stack = [((), (0,), psi)]
        while stack:
            slots, pi, rest = stack.pop()
            if len(slots) == n:
                yield e, slots, tuple(e ^ b for b in rest)
                continue
            for x in reversed(_values(rest, flex)):
                block = [x ^ p for p in pi]
                left = list(rest)
                if not all(_split_off(left, y, flex) for y in block):
                    continue
                grown = pi + tuple(block)
                key = _canon_bits(field, grown)
                if key not in seen:
                    seen.add(key)
                    stack.append((slots + (x ^ minus_one,), grown, left))


def _anchors(field: FieldDesc, bits: Sequence[int]) -> tuple[int, ...]:
    """Classes such that every orthogonal sum of scaled Pfister forms
    isometric to phi has a summand representing one of them.

    The anisotropic diagonalization is unique up to <x,x> = <-x,-x>, so
    an entry that occurs once is an entry of some summand; failing one,
    the summands hold x or -x for a doubled x.
    """
    for b in bits:
        if bits.count(b) == 1:
            return (b,)
    return tuple(dict.fromkeys((bits[0], bits[0] ^ _flex(field))))


def _spec(field: FieldDesc, e: int, slots: Sequence[int]) -> PfisterSpec:
    return PfisterSpec(SquareClass(field, e),
                       tuple(SquareClass(field, s) for s in slots))


def _as_scaled_pfister(
    phi: DiagonalForm,
    n: int,
    unscaled: bool = False,
    scalars: Sequence[SquareClass] | None = None,
) -> PfisterSpec | None:
    """A PfisterSpec with expand() isometric to phi, if one exists.

    phi must be anisotropic.  A scaled Pfister form represents each of
    its entries, so without restrictions on the scalar it is anchored at
    an entry of phi; with unscaled or scalars, at the allowed scalars.
    """
    field = phi.field
    if phi.dim != 1 << n:
        return None
    bits = [e.bits for e in phi.entries]
    if scalars is None and not unscaled:
        anchors = bits[:1]
    else:
        if scalars is None:
            scalars = (field.one(), -field.one())
        anchors = list(dict.fromkeys(c.bits for c in scalars))
    for e, slots, _comp in _pfister_subforms(field, bits, n, anchors):
        return _spec(field, e, slots)
    return None


def find_GP2_subform(
    phi: DiagonalForm,
) -> tuple[PfisterSpec, DiagonalForm] | None:
    """First GP_2 subform of an anisotropic form, with its complement.

    Any subform represents some class of D(phi), so every one is an anchor.
    """
    if is_isotropic(phi):
        raise IsotropicInputError("find_GP2_subform needs an anisotropic form")
    field = phi.field
    bits = [e.bits for e in phi.entries]
    anchors = _values(bits, _flex(field))
    for e, slots, comp in _pfister_subforms(field, bits, 2, anchors):
        return _spec(field, e, slots), _form(field, comp)
    return None


# --- divisibility ---------------------------------------------------------

def _splits(field: FieldDesc, bits: Sequence[int], a: int) -> bool:
    """Whether the form with entries `bits` becomes hyperbolic over
    F(sqrt a), i.e. lies in <<a>>W(F), the kernel of W(F) -> W(F(sqrt a))."""
    target, image = _extension_bits(field, bits, a)
    return not _an_bits(target, tuple(sorted(image)))


def divisible_by_pfister(
    phi: DiagonalForm, slots: Sequence[SquareClass]
) -> tuple[bool, DiagonalForm | None]:
    """Whether phi is isometric to <<slots>> tensor rho, with the quotient.

    phi must be anisotropic.  Every multiple of pi = <<slots>> splits
    over F(sqrt a) for each slot a, so a form that some slot leaves
    non-hyperbolic is rejected.  The rest is decided by peeling scaled
    copies x*pi off phi: an anisotropic form in pi*W(F) is divisible by
    pi, so peeling a multiple of pi never gets stuck.  For one slot the
    splitting test is exact and a stuck peeling is a contradiction; for
    more slots splitting is only necessary, and a stuck peeling means
    phi is not divisible.  Peeling splits entries off on raw bits, and
    pi * rho is checked against phi's Witt vector.
    """
    if is_isotropic(phi):
        raise IsotropicInputError("divisibility is tested on anisotropic forms")
    field = phi.field
    for a in slots:
        if a.field != field:
            raise FieldMismatchError(f"{a.field} vs {field}")
    if not slots:
        raise ValueError("need at least one slot")
    pi = _expand(PfisterSpec(field.one(), tuple(slots)))
    if not _an_bits(field, tuple(sorted(pi))):
        if phi.dim == 0:
            return True, DiagonalForm(field, ())
        return False, None
    bits = [e.bits for e in phi]
    if not all(_splits(field, bits, a.bits) for a in slots):
        return False, None
    flex = _flex(field)
    rest = list(bits)
    quotient: list[int] = []
    while rest:
        for x in _values(rest, flex):
            left = list(rest)
            if all(_split_off(left, x ^ p, flex) for p in pi):
                rest = left
                quotient.append(x)
                break
        else:
            if len(slots) > 1:
                return False, None
            raise InternalContradictionError(
                "form splits over the extension but peeling found no factor")
    product = [x ^ p for x in quotient for p in pi]
    if _counts(field, product) != _counts(field, bits):
        raise InternalContradictionError("peeled quotient fails to verify")
    return True, DiagonalForm(field, tuple(
        SquareClass(field, x) for x in quotient))


def common_slot(pi1: PfisterSpec, pi2: PfisterSpec) -> SquareClass | None:
    """A class d with both Pfister forms divisible by the binary <<d>>.

    A form is a multiple of <<d>> in W(F) exactly when it splits over
    F(sqrt d); the first nontrivial d that splits both is returned.
    """
    field = pi1.scalar.field
    if pi2.scalar.field != field:
        raise FieldMismatchError(f"{field} vs {pi2.scalar.field}")
    forms = [_expand(pi1), _expand(pi2)]
    for d in field.classes():
        if not d.is_one() and all(_splits(field, f, d.bits) for f in forms):
            return d
    return None


# --- the exact search -----------------------------------------------------

def _np_generators(field: FieldDesc, n: int, unscaled: bool):
    key = ("M", field, n, unscaled)
    cached = _GEN_CACHE.get(key)
    if cached is None:
        gens = _generators(field, n, unscaled)
        vecs = list(gens.keys())
        mat = np.array(vecs, dtype=np.int64)
        cached = (gens, vecs, mat)
        _GEN_CACHE[key] = cached
    return cached


def _an_dims_np(field: FieldDesc, mat: np.ndarray) -> np.ndarray:
    m = _ring_params(field)[0]
    if m == 4:
        lut = np.array([0, 1, 2, 1], dtype=np.int64)
        return lut[mat & 3].sum(axis=1)
    if m == 2:
        return (mat & 1).sum(axis=1)
    return np.abs(mat).sum(axis=1)


def _search_sum(
    field: FieldDesc,
    v: tuple[int, ...],
    n: int,
    k: int,
    unscaled: bool,
    _fail: set | None = None,
) -> list[PfisterSpec] | None:
    """Exact test: is v a sum of exactly <= k generator classes?

    Returns a term list or None.  Complete over the cached generator
    set; callers must ensure enumeration feasibility first.
    """
    gens, vecs, mat = _np_generators(field, n, unscaled)
    if _fail is None:
        _fail = set()
    if not any(v):
        return []
    if k <= 0:
        return None
    if v in gens:
        return [gens[v]]
    if k == 1:
        return None
    if (v, k) in _fail:
        return None
    m = _ring_params(field)[0]
    diff = np.array(v, dtype=np.int64)[None, :] - mat
    if m:
        diff %= m
    dims = _an_dims_np(field, diff)
    keep = np.nonzero(dims <= (1 << n) * (k - 1))[0]
    if k == 2:
        for i in keep:
            w = tuple(int(x) for x in diff[i])
            hit = gens.get(w)
            if hit is not None:
                return [gens[vecs[i]], hit]
        _fail.add((v, k))
        return None
    order = keep[np.argsort(dims[keep])]
    for i in order:
        w = tuple(int(x) for x in diff[i])
        rest = _search_sum(field, w, n, k - 1, unscaled, _fail)
        if rest is not None:
            return [gens[vecs[i]]] + rest
    _fail.add((v, k))
    return None


# --- constructive certificate routes --------------------------------------

def _gp1_terms(phi: DiagonalForm) -> list[PfisterSpec]:
    """phi as dim/2 scaled 1-fold Pfister forms: <a,b> = a<<-ab>>."""
    terms = []
    entries = list(phi.entries)
    for a, b in zip(entries[0::2], entries[1::2]):
        terms.append(PfisterSpec(a, (-(a * b),)))
    return terms


def _gp2_peeling_terms(phi: DiagonalForm) -> list[PfisterSpec]:
    """The dim/2 - 1 construction for I^2 forms: peel three entries at
    a time via <a,b,c,abc> = a<<-ab,-ac>>."""
    field = phi.field
    minus_one = field.minus_one().bits
    terms: list[PfisterSpec] = []
    cur = [e.bits for e in phi.entries]
    while len(cur) >= 4:
        a, b, c = cur[:3]
        spec = _spec(field, a, (a ^ b ^ minus_one, a ^ c ^ minus_one))
        terms.append(spec)
        last = len(cur) == 4
        cur = _minus(field, cur, spec)
        if last and cur:
            raise InternalContradictionError(
                "final quaternary I^2 class is not similar to a Pfister form")
    if cur:
        raise InternalContradictionError("I^2 peeling left an odd remainder")
    return terms


def _gp3_dim12_terms(phi: DiagonalForm) -> list[PfisterSpec]:
    """Two GP_3 terms for an anisotropic 12-dimensional I^3 form.

    Such a form is divisible by a binary Pfister form; splitting the
    6-dimensional quotient leaves an 8-dimensional I^3 class, which is
    itself similar to a Pfister form.
    """
    field = phi.field
    for a in field.classes():
        if a.is_one():
            continue
        ok, rho = divisible_by_pfister(phi, (a,))
        if not ok:
            continue
        r = rho.entries
        first = PfisterSpec(r[0], (a, -(r[0] * r[1]), -(r[0] * r[2])))
        rest = _minus(field, [e.bits for e in phi.entries], first)
        return [first] + _gp3_small_terms(_form(field, rest))
    raise InternalContradictionError(
        "12-dimensional I^3 form without a binary divisor")


def _gp3_dim14_terms(phi: DiagonalForm) -> list[PfisterSpec]:
    """Two GP_3 terms for an anisotropic 14-dimensional I^3 form.

    Searches the normal form s(tau1' + -tau2') with tau_i in P_3: the
    pure part tau1' must appear inside s*phi, and the complement must be
    the negated pure part of another Pfister form.
    """
    field = phi.field
    flex = _flex(field)
    minus_one = field.minus_one().bits
    bits = [e.bits for e in phi.entries]
    # subform entry candidates: entries, plus flips of doubled classes,
    # plus negatives (the scaled pure part sits inside phi up to signs
    # that a chosen z-entry pins down)
    cand = sorted(set(bits) | {b ^ minus_one for b in bits
                               if bits.count(b) == 2},
                  key=_class_order)
    allowed = set(cand)
    seen: set = set()
    for y1, y2, y3 in itertools.combinations_with_replacement(cand, 3):
        y12 = y1 ^ y2
        y13 = y1 ^ y3
        y23 = y2 ^ y3
        y123 = y12 ^ y3
        if y123 not in allowed:
            continue
        for z in cand:
            # s * phi contains the pure part of tau1 = <<a,b,c>> with
            # entries x_i = s*y_i; z pins the product entry s*y1*y2
            s = z ^ y12
            if (s ^ y13) not in allowed or (s ^ y23) not in allowed:
                continue
            slots = tuple(sorted((s ^ y ^ minus_one for y in (y1, y2, y3)),
                                 key=_class_order))
            if (s, slots) in seen:
                continue
            seen.add((s, slots))
            pure1 = (s ^ y1, s ^ y2, s ^ y3, y12, y13, y23, s ^ y123)
            if len(_an_bits(field, tuple(sorted((0,) + pure1)))) < 8:
                continue  # tau1 is isotropic
            comp = [s ^ b for b in bits]
            if not all(_split_off(comp, y, flex) for y in pure1):
                continue
            tau2 = [0] + [b ^ minus_one for b in _canon_bits(field, comp)]
            for _e, slots2, _ in _pfister_subforms(field, tau2, 3, (0,)):
                return [_spec(field, s, slots),
                        _spec(field, s ^ minus_one, slots2)]
    raise InternalContradictionError(
        "14-dimensional I^3 form without a two-term representation")


def _gp3_dim16_terms(phi: DiagonalForm) -> list[PfisterSpec]:
    """At most three GP_3 terms for an anisotropic 16-dimensional I^3 form.

    Extends a GP_2 subform c<<a,b>> through an entry w of its complement
    to the 3-fold c<<a,b,-cw>>; the remainder has dimension at most 14
    and is handled by the smaller-dimension routes.
    """
    found = find_GP2_subform(phi)
    if found is None:
        raise InternalContradictionError(
            "16-dimensional I^3 form without a GP_2 subform")
    sigma, comp = found
    c = sigma.scalar
    w = comp.entries[0]
    spec = PfisterSpec(c, sigma.slots + (-(c * w),))
    rest = _minus(phi.field, [e.bits for e in phi.entries], spec)
    return [spec] + _gp3_small_terms(_form(phi.field, rest))


def _gp3_small_terms(phi: DiagonalForm) -> list[PfisterSpec]:
    """GP_3 terms for anisotropic I^3 classes of dimension at most 14."""
    d = phi.dim
    if d == 0:
        return []
    if d == 8:
        spec = _as_scaled_pfister(phi, 3)
        if spec is None:
            raise InternalContradictionError(
                "8-dimensional I^3 form not similar to a Pfister form")
        return [spec]
    if d == 12:
        return _gp3_dim12_terms(phi)
    if d == 14:
        return _gp3_dim14_terms(phi)
    raise InternalContradictionError(
        f"I^3 class of unexpected anisotropic dimension {d}")


# --- tensor-identity reduction --------------------------------------------

def _tensor_reduction(
    phi: DiagonalForm,
) -> tuple[SquareClass, DiagonalForm] | None:
    """A factorization phi = <1,t> (x) tau with tau free of t's variable.

    phi must be anisotropic.  Returns (t, tau) or None, with tau the
    anisotropic part over the residue field after moving t onto the
    last variable.  Pfister numbers are preserved: GP_n of the product
    equals GP_{n-1} of tau.  The residue forms are anisotropic, so they
    are isometric exactly when their canonical diagonalizations agree.
    """
    field = phi.field
    flex = _flex(field)
    bits = [e.bits for e in phi.entries]
    for i in range(field.nvars, 0, -1):
        bit = 1 << i
        even = [b for b in bits if not b & bit]
        odd = [b ^ bit for b in bits if b & bit]
        if not odd or len(even) != len(odd):
            continue
        target = _canon_bits(field, even)
        a = _values(even, flex)[0]
        for b in _values(odd, flex):
            u = a ^ b
            if _canon_bits(field, [u ^ x for x in odd]) == target:
                project, _ = class_map(u ^ bit)
                res = field.residue()
                tau = sorted(project(u ^ x) for x in odd)
                return (SquareClass(field, u ^ bit),
                        _form(res, _an_bits(res, tuple(tau))))
    return None


# --- bounds ---------------------------------------------------------------

def two_pfister_bound(d: int) -> int:
    """GP_2(F, d) <= d/2 - 1 for even d >= 4."""
    if d % 2:
        raise ValueError("dimension must be even")
    return max(d // 2 - 1, 0)


def three_pfister_bound(d: int) -> int:
    """Exact small-dimension GP_3 values and the refined bound for d >= 16."""
    if d % 2:
        raise ValueError("dimension must be even")
    if d < 8:
        return 0
    if d <= 10:
        return 1
    if d <= 14:
        return 2
    val = (Fraction(d * d, 16) - Fraction(d, 2)
           - Fraction(82 - 2 * (-1) ** (d // 2), 16))
    if val.denominator != 1:
        raise InternalContradictionError(f"non-integral bound for d={d}")
    return int(val)


@dataclass(frozen=True)
class BoundPoly:
    """Polynomial with exact rational coefficients, ascending degree."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_scaled(self, factor: Fraction) -> "BoundPoly":
        """p(factor * X)."""
        return BoundPoly(tuple(
            c * factor ** i for i, c in enumerate(self.coeffs)))

    def __add__(self, other: "BoundPoly") -> "BoundPoly":
        a, b = self.coeffs, other.coeffs
        size = max(len(a), len(b))
        return BoundPoly(tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(size)))

    def scaled(self, factor) -> "BoundPoly":
        return BoundPoly(tuple(c * factor for c in self.coeffs))

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and self.degree:
                continue
            base = "1" if i == 0 else ("X" if i == 1 else f"X^{i}")
            parts.append(f"{c}" if i == 0 else f"{c}*{base}")
        return " + ".join(parts) if parts else "0"


def _bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n with the B_1 = +1/2 convention."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * out[k]
        out.append(-acc / (m + 1))
    if n >= 1:
        out[1] = Fraction(1, 2)  # only B_1 differs between the conventions
    return out


def _power_sum_poly(m: int) -> BoundPoly:
    """p with p(n) = 1^m + ... + n^m, via Bernoulli numbers."""
    bern = _bernoulli(m)
    coeffs = [Fraction(0)] * (m + 2)
    for j in range(m + 1):
        coeffs[m + 1 - j] = Fraction(math.comb(m + 1, j), m + 1) * bern[j]
    return BoundPoly(tuple(coeffs))


def faulhaber_sum(q: BoundPoly) -> BoundPoly:
    """The polynomial p with p(n) = q(1) + q(2) + ... + q(n), exactly."""
    total = BoundPoly((Fraction(0),))
    for m, c in enumerate(q.coeffs):
        total = total + _power_sum_poly(m).scaled(c)
    return total


def poly_bound(n: int) -> BoundPoly:
    """The degree n-1 polynomial bound for GP_n: p_3 = X^2/16,
    p_n = 1 + 2 p_{n-1}(X/2)."""
    if n < 3:
        raise ValueError("polynomial bounds start at fold 3")
    p = BoundPoly((0, 0, Fraction(1, 16)))
    for _ in range(n - 3):
        p = p.compose_scaled(Fraction(1, 2)).scaled(2) + BoundPoly((1,))
    return p


def _default_cap(n: int, d: int, unscaled: bool) -> int:
    if d == 0:
        return 0
    if n == 1:
        cap = d // 2
    elif n == 2:
        cap = two_pfister_bound(d)
    elif n == 3:
        cap = three_pfister_bound(d)
    else:
        cap = math.ceil(poly_bound(n)(d))
    return 2 * cap if unscaled else cap


# --- the Pfister number ---------------------------------------------------

def pfister_number(
    phi: DiagonalForm,
    n: int,
    *,
    unscaled: bool = False,
    depth_cap: int | None = None,
) -> tuple[int, PfisterCertificate]:
    """The minimal number of (scaled) n-fold Pfister classes summing to phi.

    Raises NotInIdealError if phi is not in I^n and DepthCapExceededError
    when exactness cannot be certified within the cap; a returned value
    is always exactly minimal, with a verified certificate.
    """
    if n < 1:
        raise ValueError("fold must be at least 1")
    if not in_In(phi, n):
        raise NotInIdealError(f"form is not in I^{n}")
    an = anisotropic_part(phi)
    k, terms = _pfister_number_impl(an, n, unscaled, depth_cap)
    cert = _certificate(n, terms, an)
    RESULT_LOG.append({
        "field": str(phi.field),
        "form": format_form(an),
        "dim": an.dim,
        "n": n,
        "unscaled": unscaled,
        "value": k,
    })
    return k, cert


def _pfister_number_impl(
    an: DiagonalForm, n: int, unscaled: bool, depth_cap: int | None
) -> tuple[int, list[PfisterSpec]]:
    field = an.field
    d = an.dim
    if d == 0:
        return 0, []
    theorem_cap = _default_cap(n, d, unscaled)
    cap = theorem_cap if depth_cap is None else depth_cap
    # exact fold-reduction for products with a binary Pfister factor
    if not unscaled and n >= 2:
        red = _tensor_reduction(an)
        if red is not None:
            t, tau = red
            k, sub_terms = _pfister_number_impl(tau, n - 1, unscaled, None)
            if depth_cap is not None and k > depth_cap:
                raise DepthCapExceededError(depth_cap)
            if k == 0:
                return 0, []
            # s*<<slots>> over the residue field lifts to
            # s*<<slots, -t>> over the field
            _, lift = class_map(t.bits)

            def up(c: SquareClass) -> SquareClass:
                return SquareClass(field, lift(c.bits))

            return k, [PfisterSpec(up(s.scalar),
                                   tuple(map(up, s.slots)) + (-t,))
                       for s in sub_terms]
    if n == 1 and not unscaled:
        if cap < d // 2:
            raise DepthCapExceededError(cap)
        return d // 2, _gp1_terms(an)
    spec = _as_scaled_pfister(an, n, unscaled)
    if spec is not None:
        if cap < 1:
            raise DepthCapExceededError(cap)
        return 1, [spec]
    enum_ok = _enum_feasible(field, n)
    for k in range(2, cap + 1):
        terms = _decide_k(an, n, k, unscaled, enum_ok, cap)
        if terms is not None:
            if len(terms) != k:
                raise InternalContradictionError(
                    f"{len(terms)}-term list where {k} was proved minimal")
            return k, terms
    if depth_cap is not None and depth_cap < theorem_cap:
        raise DepthCapExceededError(cap)
    raise InternalContradictionError(
        f"no representation within the theorem bound {theorem_cap}")


def _decide_k(
    an: DiagonalForm,
    n: int,
    k: int,
    unscaled: bool,
    enum_ok: bool,
    cap: int,
) -> list[PfisterSpec] | None:
    """Terms for a sum of exactly k generators, None if impossible.

    Raises DepthCapExceededError when no complete method is available,
    so a wrong minimum can never be reported.
    """
    field = an.field
    d = an.dim
    if not unscaled and n == 3 and k == 2 and d in (12, 14):
        # guaranteed two-term dimensions: D(14) and the binary-divisor route
        return _gp3_dim12_terms(an) if d == 12 else _gp3_dim14_terms(an)
    if not unscaled and k == 2 and d == 1 << (n + 1):
        # two terms of total dimension d are an isometric splitting
        # an = sigma1 + sigma2; one sigma_i represents an anchor e, so it
        # is e*pi for a Pfister subform found by the anchored search, and
        # its complement must be a scaled Pfister form as well
        bits = [e.bits for e in an.entries]
        for e, slots, comp in _pfister_subforms(
                field, bits, n, _anchors(field, bits)):
            for c, other, _ in _pfister_subforms(field, comp, n, comp[:1]):
                return [_spec(field, e, slots), _spec(field, c, other)]
        return None
    if not unscaled and n == 2 and k == d // 2 - 1:
        return _gp2_peeling_terms(an)
    if not unscaled and n == 3 and k == 3 and d == 16:
        terms = _gp3_dim16_terms(an)
        if len(terms) != 3:  # smaller representation would contradict k=2
            raise InternalContradictionError(
                "dimension-16 route produced a non-3-term certificate")
        return terms
    if enum_ok:
        gens = _generators(field, n, unscaled)
        cost = len(gens) if k == 2 else len(gens) ** (k - 1)
        if cost <= _MAX_SEARCH_ROWS:
            v = _vector(field, (e.bits for e in an.entries))
            return _search_sum(field, v, n, k, unscaled)
    raise DepthCapExceededError(cap)


# --- generic forms and the lower bound ------------------------------------

def generic_I2_form(field: FieldDesc, n: int) -> DiagonalForm:
    """<1, t1, ..., tn, sign * t1...tn> with sign = (-1)^((n+2)/2)."""
    if n % 2:
        raise ValueError("n must be even")
    if n > field.nvars:
        raise ValueError(f"need {n} variables, field has {field.nvars}")
    entries = [field.one()]
    prod = field.one()
    for i in range(1, n + 1):
        entries.append(field.var(i))
        prod = prod * field.var(i)
    if ((n + 2) // 2) % 2:
        prod = -prod
    entries.append(prod)
    return DiagonalForm(field, tuple(entries))


def lower_bound_generic(
    field: FieldDesc, d: int
) -> tuple[DiagonalForm, int]:
    """A dim <= d witness with GP_3 exactly floor(d/4) - 1.

    The witness is <<t_{n+1}>> tensor the generic I^2 form of dimension
    n + 2, where n = 2 floor(d/4) - 2.
    """
    n = 2 * (d // 4) - 2
    if n < 0 or field.nvars < n + 1:
        raise ValueError(f"need {n + 1} variables, field has {field.nvars}")
    psi = generic_I2_form(field, n)
    witness = tensor(pfister((field.var(n + 1),)), psi)
    return witness, d // 4 - 1


# --- classification reports -----------------------------------------------

def classify14(phi: DiagonalForm) -> dict:
    """GP_3 data for an anisotropic 14-dimensional I^3 form.

    The report carries the exact Pfister number (always 2), a verified
    2-term certificate, a GP_2-subform witness, and whether the found
    certificate exhibits the s(tau1' + -tau2') shape directly.
    """
    if phi.dim != 14:
        raise ValueError("classify14 requires a 14-dimensional form")
    if is_isotropic(phi):
        raise IsotropicInputError("form must be anisotropic")
    k, cert = pfister_number(phi, 3)
    subform = find_GP2_subform(phi)
    if subform is None:
        raise InternalContradictionError(
            "14-dimensional I^3 form without a GP_2 subform")
    t1, t2 = cert.terms
    shape_ii = t2.scalar == -t1.scalar
    return {
        "gp3": k,
        "certificate": cert,
        "gp2_subform": subform[0],
        "gp2_complement": subform[1],
        "conditions_i_iii": True,
        "shape_ii": shape_ii,
        "shape_scalar": t1.scalar if shape_ii else None,
    }


def _gp2_decomposition(phi: DiagonalForm) -> list[PfisterSpec] | None:
    """phi as an isometric orthogonal sum of dim/4 GP_2 forms.

    Some summand of any such sum represents an anchor of phi, so the
    first summand is searched among the subforms at the anchors.
    """
    field = phi.field

    def split(bits: Sequence[int]) -> list[PfisterSpec] | None:
        if not bits:
            return []
        for e, slots, comp in _pfister_subforms(
                field, bits, 2, _anchors(field, bits)):
            rest = split(comp)
            if rest is not None:
                return [_spec(field, e, slots)] + rest
        return None

    return split([e.bits for e in phi.entries])


def _biquadratic_splitting(
    phi: DiagonalForm,
) -> tuple[SquareClass, SquareClass] | None:
    """The first pair (a, b) in the class order, b outside {1, a}, such
    that phi is hyperbolic over F(sqrt a, sqrt b).

    b is carried to F(sqrt a) by the same class map as phi's entries;
    it is trivial there exactly when b is 1 or a.
    """
    field = phi.field
    classes = [c.bits for c in field.classes()]
    bits = [e.bits for e in phi]
    for a in classes[1:]:
        mid_field, mid = _extension_bits(field, bits, a)
        images = _extension_bits(field, classes, a)[1]
        for b, b_mid in zip(classes, images):
            if b_mid and _splits(mid_field, mid, b_mid):
                return SquareClass(field, a), SquareClass(field, b)
    return None


def classify16(phi: DiagonalForm) -> dict:
    """Full classification data for an anisotropic 16-dimensional I^3 form.

    GP_3 is at most 3; the report adds a certificate, a GP_2-subform
    witness, an isometric decomposition into four GP_2 forms, and a
    biquadratic splitting pair.
    """
    if phi.dim != 16:
        raise ValueError("classify16 requires a 16-dimensional form")
    if is_isotropic(phi):
        raise IsotropicInputError("form must be anisotropic")
    k, cert = pfister_number(phi, 3)
    if k > 3:
        raise InternalContradictionError("GP_3 above 3 for a 16-dim I^3 form")
    subform = find_GP2_subform(phi)
    if subform is None:
        raise InternalContradictionError(
            "16-dimensional I^3 form without a GP_2 subform")
    four = _gp2_decomposition(phi)
    if four is None:
        raise InternalContradictionError(
            "no isometric decomposition into four GP_2 forms")
    pair = _biquadratic_splitting(phi)
    if pair is None:
        raise InternalContradictionError("no biquadratic splitting pair")
    return {
        "gp3": k,
        "certificate": cert,
        "gp2_subform": subform[0],
        "gp2_complement": subform[1],
        "gp2_decomposition": four,
        "splitting_pair": pair,
    }


# --- random sampling ------------------------------------------------------

def random_In_form(
    field: FieldDesc,
    n: int,
    dim: int,
    rng,
    *,
    allow_smaller: bool = False,
    max_tries: int = 20000,
) -> DiagonalForm:
    """Anisotropic part of a random sum of n-fold Pfister specs with the
    requested dimension (or at most it, with allow_smaller)."""
    for attempt in range(max_tries):
        r = rng.randrange(1, 4)
        total = DiagonalForm(field, ())
        for _ in range(r):
            c = field.random_class(rng)
            slots = tuple(field.random_class(rng) for _ in range(n))
            total = orth_sum(total, scale(c, pfister(slots)))
        an = anisotropic_part(total)
        if an.dim == dim or (allow_smaller and an.dim <= dim):
            return an
    raise RuntimeError(
        f"no random I^{n} form of dimension {dim} found in {max_tries} tries")
