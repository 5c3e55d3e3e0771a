"""Exact Pfister numbers, bounds, and the dimension-14/16 classifications.

k runs up from the dimension bound ceil(dim / 2^n), and each k is
decided by one rule of an exact ladder: the recognizer (an anchored
search for scaled Pfister subforms); the anchored two-term split at
dimension 2^(n+1), which from n = 3 on first asks whether the
H-indices of the entries hold the coset of a summand at an anchor
(_may_split) and walks only when they do; GP_2 peeling; for two
scaled terms below dimension 2^(n+1), for scaled GP_3 = 3 at dimension
16 and for three scaled terms above 2^(n+1) from dimension 3*2^n - 2n
on, at every n, one term extended from an (n-1)-fold Pfister subform
and the rest decided at k - 1, exact by Elman-Lam linkage; for a
scaled product <<t>> (x) tau, GP_(n-1)(tau) over the residue field;
and otherwise a complete search over the generator classes on their
Witt vectors (witt._pack, with the 2-sumset of the generators when it
is small enough to store).  Only the search builds anything: the
generator classes, from the Pfister folds of the residue field by
Springer's theorem, only when their number, known before any is made,
is within a fixed step budget; a search is refused when it would take
more steps than that budget.
Every certificate re-verifies before it is returned.

Every route takes the field and the canonical entry bits of an
anisotropic form, in the class order, and returns raw terms: (scalar,
slots) pairs of class bits.  PfisterSpec and SquareClass objects are
built only for the certificate and the public outputs.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    DepthCapExceededError,
    FieldMismatchError,
    InternalContradictionError,
    IsotropicInputError,
    NotInIdealError,
    RigidWittError,
)
from .ideals import _extension_bits, in_In
from .qform import (
    DiagonalForm,
    PfisterSpec,
    _canon_bits,
    format_form,
    pfister,
    tensor,
)
from .sqclass import Base, FieldDesc, SquareClass, class_map
from .witt import (
    anisotropic_part,
    is_isotropic,
    _an_bits,
    _class_order,
    _diffs,
    _dims,
    _flex,
    _form,
    _form_vector,
    _in_class_order,
    _minus_one,
    _neg,
    _pack,
    _ring_params,
    _split_off,
    _value_set,
    _values,
)

__all__ = [
    "PfisterCertificate",
    "RESULT_LOG",
    "pfister_number",
    "enumerate_GPn_classes",
    "generic_I2_form",
    "lower_bound_generic",
    "two_pfister_bound",
    "three_pfister_bound",
    "divisible_by_pfister",
    "common_slot",
    "find_GP2_subform",
    "classify14",
    "classify16",
    "random_In_form",
]

# The most recent exact Pfister numbers computed in this process, newest
# last; older records drop off so the log stays bounded.  "form" holds
# the canonical entry bits of phi's anisotropic part over "field".
RESULT_LOG: deque[dict] = deque(maxlen=4096)

_MAX_SUMSET = 1 << 16  # generator pairs behind a stored 2-sumset
_MAX_SEARCH_COST = 1 << 23  # vector differences one build or search may take
_READ_COST = 64  # vector differences one generator's pack costs


# --- certificates ---------------------------------------------------------

@dataclass(frozen=True)
class PfisterCertificate:
    """A verified representation of a Witt class as a sum of GP_n forms."""

    n: int
    terms: tuple[PfisterSpec, ...]
    target: DiagonalForm  # canonical anisotropic representative

    def verify(self) -> bool:
        """Whether every term is n-fold over the target's field and the
        terms, expanded on their classes' bits, sum to the target's Witt
        class (whose vector is read once per form, see _form_vector)."""
        field = self.target.field
        entries: list[int] = []
        for t in self.terms:
            classes = (t.scalar, *t.slots)
            if len(classes) != self.n + 1:
                return False
            for c in classes:
                if c.field is not field and c.field != field:
                    return False
            entries += _expand(field, _raw(t))
        return _pack(field, entries) == _form_vector(self.target)

    def to_json_dict(self) -> dict:
        import hashlib  # only commands that print a certificate need it

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


def _expand(field: FieldDesc, term: tuple) -> list[int]:
    """The entries of the scaled Pfister form term = (scalar, slots) on
    raw bits: the scalar times the products of the <1, -a>."""
    minus_one = _minus_one(field)
    scalar, slots = term
    out = [scalar]
    for a in slots:
        na = a ^ minus_one
        out += [e ^ na for e in out]
    return out


def _raw(spec: PfisterSpec) -> tuple:
    """A PfisterSpec as a raw term (scalar, slots)."""
    return spec.scalar.bits, tuple([s.bits for s in spec.slots])


def _spec(field: FieldDesc, term: tuple) -> PfisterSpec:
    """The PfisterSpec of a raw term (scalar, slots)."""
    scalar, slots = term
    return PfisterSpec(SquareClass(field, scalar),
                       tuple([SquareClass(field, s) for s in slots]))


def _canon(field: FieldDesc, an: Sequence[int]) -> list[int]:
    """The canonical entries of an anisotropic form, in the class order."""
    return _in_class_order(_canon_bits(field, an))


def _minus(field: FieldDesc, bits: Sequence[int], term: tuple) -> list[int]:
    """The canonical anisotropic part of <bits> - term, in the class
    order.  _an_bits writes a doubled class over F3 without its unit
    bit, as _canon_bits does, and its part is canonical already."""
    minus_one = _minus_one(field)
    total = list(bits) + [b ^ minus_one for b in _expand(field, term)]
    return _in_class_order(_an_bits(field, total))


def _certificate(n: int, terms: Sequence[tuple],
                 target: DiagonalForm) -> PfisterCertificate:
    cert = PfisterCertificate(
        n, tuple([_spec(target.field, t) for t in terms]), target)
    if not cert.verify():
        raise InternalContradictionError(
            f"certificate failed verification for {format_form(target)}")
    return cert


# --- generator enumeration ------------------------------------------------

_GEN_CACHE: dict = {}


def _pfister_set(field: FieldDesc, n: int, limit: float) -> dict | None:
    """S_n, the anisotropic n-fold Pfister classes, or None when there
    are more than limit of them; cached one fold per entry, S_0 = {<1>}.

    Maps the canonical entry-bit tuple to a tuple of slot bits.  Over
    the base field the folds are known: F3 and F3(i) have <<a>> for
    their one nonsquare class a at n = 1 only (<<-1,-1>> is isotropic
    over F3, and over F3(i) the level is 1), R has <<-1>>^n at every n,
    and C has none above n = 0.  Above it, by Springer's theorem for the
    top variable t over the residue field K, an anisotropic n-fold
    Pfister form is either one over K or rho (x) <<u*t>> for rho in
    S_(n-1)(K) and a class u of K, and two of the second kind are
    isometric exactly when their rho are and their u agree up to a value
    of rho (the residue forms rho and -u*rho; D(rho) is the group of
    similarity factors of rho).  So |S_n| = |S_n(K)| + sum over rho of
    q(K)/|D(rho)|, q(K) the number of classes of K, is known before any
    new form is made.  Neither fold of K is larger, and as |D(rho)| <=
    dim rho, S_(n-1)(K) is at most limit * 2^(n-1)/q(K) when S_n fits:
    a fold over limit is refused before anything larger is built.
    """
    key = ("S", field, n)
    out = _GEN_CACHE.get(key)
    if out is None and n and not field.nvars:
        out = {}
        if field.base is Base.R or n == 1 and field.base is not Base.C:
            slots = (1,) * n
            out[_canon_bits(field, _expand(field, (0, slots)))] = slots
    elif out is None and n:
        residue = field.residue()
        units = residue.class_bits()
        rhos = _pfister_set(residue, n - 1, limit * (1 << n - 1) / len(units))
        out = None if rhos is None else _pfister_set(residue, n, limit)
        if out is None:
            return None
        values = [_value_set(bits, _flex(field)) for bits in rhos]
        if len(out) + sum(len(units) // len(v) for v in values) > limit:
            return None
        out = dict(out)
        for slots, vals in zip(rhos.values(), values):
            seen: set[int] = set()
            for u in units:
                if u not in seen:
                    seen.update([u ^ v for v in vals])
                    grown = slots + (u | 1 << field.nvars,)
                    out[_canon_bits(field, _expand(field, (0, grown)))] = grown
    elif out is None:
        out = {(0,): ()}
    _GEN_CACHE[key] = out
    return out if len(out) <= limit else None


def _generators(field: FieldDesc, n: int, unscaled: bool) -> dict:
    """All nonzero Witt classes of (un)scaled n-fold Pfister forms.

    Maps the Witt vector (witt._pack) to a raw term.
    """
    key = (field, n, unscaled)
    cached = _GEN_CACHE.get(("G", key))
    if cached is not None:
        return cached
    if unscaled:
        scalars = (0, _minus_one(field))
    else:
        scalars = field.class_bits()
    out: dict = {}
    for bits, slots in _pfister_set(field, n, math.inf).items():
        for c in scalars:
            out.setdefault(_pack(field, [c ^ b for b in bits]), (c, slots))
    _GEN_CACHE[("G", key)] = out
    return out


def _sumset(field: FieldDesc, n: int, unscaled: bool) -> set | None:
    """S2, the Witt vectors of the sums of at most two generator classes
    (zero, every generator and every pair, a class doubled included);
    None when there are more than _MAX_SUMSET pairs.

    Scaling by -1 keeps a generator a generator, so the sums g + h for h
    from g on hold every negative too: S2 = -S2, stored with both signs.
    """
    key = ("S2", field, n, unscaled)
    cached = _GEN_CACHE.get(key)
    if cached is not None:
        return cached
    gens = _generators(field, n, unscaled)
    if len(gens) * (len(gens) + 1) // 2 > _MAX_SUMSET:
        return None
    negs = [_neg(field, g) for g in gens]
    cached = {_pack(field, ()), *gens}
    for i, g in enumerate(gens):
        cached.update(_diffs(field, g, negs[i:]))  # g - (-h) = g + h
    _GEN_CACHE[key] = cached
    return cached


def enumerate_GPn_classes(
    field: FieldDesc, n: int, unscaled: bool = False
) -> list[tuple[DiagonalForm, PfisterSpec]]:
    """Nonzero GP_n Witt classes with one Pfister witness each.

    A scalar times a member of S_n is anisotropic, so each form is its
    term's expansion, canonicalized, with no anisotropic part read."""
    if n < 1:
        raise ValueError("fold must be at least 1")
    out = [(_form(field, _expand(field, t)), _spec(field, t))
           for t in _generators(field, n, unscaled).values()]
    out.sort(key=lambda pair: tuple(e.bits for e in pair[0].entries))
    return out


# --- Pfister subforms on raw class bits ------------------------------------
#
# D(psi) of an anisotropic psi is read off its entries (witt._values).
# By Witt cancellation a form embeds in psi exactly when its entries can
# be split off one at a time (witt._split_off), so subforms are found by
# removing entries from a list; no anisotropic part is computed.

def _pfister_subforms(
    field: FieldDesc, bits: Sequence[int], n: int, anchors: Sequence[int]
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Scaled n-fold Pfister subforms of an anisotropic form, on raw bits.

    For each anchor e, yields (e, slots, complement) once for every
    isometry class of subforms e*<<slots>> of the form with these
    entries.  Pfister forms are round, so these are all the scaled
    Pfister subforms that represent e.  pi = <<slots>> grows one slot at
    a time inside psi = e*phi: pi' = pi + x*pi embeds iff x*pi embeds in
    the complement rest of pi.

    Filter.  x*pi embeds in rest only if x*p lies in D(rest) for every
    entry p of pi, which is tested on the value set of the level first.
    A class seen before is skipped next: it embeds, and a second visit
    would be cut anyway.  _split_off stays the exact final test.

    Echelon order.  Below the first level only x not below the previous
    level's x in the class order are tried.  No class is lost.  For an
    n-fold subform pi of psi let pi_0 = <1>, x_(i+1) the least value of
    pi - pi_i, and pi_(i+1) = pi_i + x_(i+1)*pi_i.  pi is pi_i (x) rho
    for a Pfister form rho, and a multiple pi_i (x) gamma that
    represents y has y*pi_i as a subform, so x_(i+1)*pi_i lies in
    pi - pi_i, which lies in the walk's rest: the path is one the walk
    can take.  pi - pi_(i+1) is a subform of pi - pi_i, so x_(i+1) <=
    x_(i+2) and the path keeps to the order; steps can be equal (over R,
    <<-1,-1>> = <1,1,1,1> has x_1 = x_2 = 1), hence "not below".  Any
    other path y_1, y_2, ... to pi has y_(i+1) in D(pi - pi_i) where it
    agrees with this one up to i, so x_(i+1) <= y_(i+1): this path is
    the least in the lexicographic order, and its prefixes are the
    least paths to the pi_i.  The depth-first walk meets paths in that
    order, so it reaches every class first along its least path, and the
    seen set, one visit per class at every level, cuts only later
    visits.  So the yields, their order and the complements are those of
    the walk that tries every x and splits off before the seen test.

    Laziness.  The walk is depth first, so a caller that stops at the
    first subform it can use grows no other: each stack level keeps its
    iterator over the values still to try.  A level's value set is the
    one its candidates are sorted from; the filter builds no other set.
    """
    flex = _flex(field)
    minus_one = _minus_one(field)
    for e in anchors:
        psi = [e ^ b for b in bits]
        if not _split_off(psi, 0, flex):
            continue
        seen: set[tuple[int, ...]] = set()
        stack = [_level((), (0,), psi, 0, flex)]
        while stack:
            slots, pi, rest, member, xs = stack[-1]
            for x in xs:
                xpi = [x ^ p for p in pi]
                if not member.issuperset(xpi):
                    continue
                grown = pi + tuple(xpi)
                key = _canon_bits(field, grown)
                if key in seen:
                    continue
                left = list(rest)
                if not all(_split_off(left, y, flex) for y in xpi):
                    continue
                seen.add(key)
                if len(slots) + 1 == n:
                    yield e, slots + (x ^ minus_one,), tuple(
                        e ^ b for b in left)
                else:
                    stack.append(_level(slots + (x ^ minus_one,), grown,
                                        left, x, flex))
                    break
            else:
                stack.pop()


def _level(slots: tuple[int, ...], pi: tuple[int, ...], rest: list[int],
           low: int, flex: int) -> tuple:
    """One level of the subform walk: slots, pi, its complement rest,
    D(rest) as a set, and an iterator over D(rest) from low upwards in
    the class order."""
    member = _value_set(rest, flex)
    vals = _in_class_order(member)
    return slots, pi, rest, member, iter(
        vals[bisect_left(vals, _class_order(low), key=_class_order):])


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


def _may_split(field: FieldDesc, bits: Sequence[int], n: int) -> bool:
    """Whether the H-indices of the anisotropic form phi with these
    entries, of dimension 2^(n+1), leave room for an isometric split
    into two scaled n-fold Pfister forms: necessary, read off the
    support alone.

    Proof.  Let phi = x*pi + psi be such a split.  Some summand
    represents an anchor e (_anchors), say x*pi, and as Pfister forms
    are round it is e*pi.  Write iota(y) = y >> shift for the H-index
    of a class (shift as in witt._ring_params), a homomorphism on the
    class bits under xor.  The entries of
    e*<<a1..an>> are e times the slot products prod (-a_i)^(s_i); iota
    maps these onto a subgroup U of H of rank n - m, m the rank of the
    kernel, 2^m of them at each index, so e*pi holds exactly 2^m
    entries at each index of the coset iota(e) + U and none elsewhere.
    At every index the norm of the Witt coefficient (the count that
    witt._dims adds up) is at most that of e*pi plus that of psi, and
    of an anisotropic form it counts its entries there; as dim phi =
    dim e*pi + dim psi, the norms add up index by index.  So phi holds
    at least 2^m entries at each index of iota(e) + U.

    The test.  For each anchor index u0 and each m <= n, T is the set of
    indices where phi holds at least 2^m entries, translated by u0, and
    the split survives when T holds a subgroup of rank n - m
    (_holds_subgroup).  When none does, no split exists.
    """
    shift = field.nvars + 1 - _ring_params(field)[1]
    count: dict[int, int] = {}
    for b in bits:
        count[b >> shift] = count.get(b >> shift, 0) + 1
    for u0 in {e >> shift for e in _anchors(field, bits)}:
        for m in range(n + 1):
            if count.get(u0, 0) < 1 << m:
                break
            if _holds_subgroup({h ^ u0 for h, c in count.items()
                                if c >> m}, n - m):
                return True
    return False


def _holds_subgroup(support: set[int], r: int) -> bool:
    """Whether the set of H-indices support, which holds 0, contains a
    subgroup of rank r.

    Let U be one and u an element of U with the highest top bit b.  The
    elements of U below 2^b, those with bit b clear, form a subgroup U'
    of rank r - 1, and v ^ u lies in U for each v in U'.  So U' lies in
    {v in support : v < 2^b and v ^ u in support}, one pivot u per
    rank, and trying every u in support at each rank finds a U when
    there is one.
    """
    if not r:
        return True
    if len(support) < 1 << r:
        return False
    for u in support:
        if u:
            top = 1 << u.bit_length() - 1
            low = {v for v in support if v < top and v ^ u in support}
            if _holds_subgroup(low, r - 1):
                return True
    return False


def _orthogonal_terms(field: FieldDesc, bits: Sequence[int], n: int,
                      anchors: Sequence[int] | None = None
                      ) -> list[tuple] | None:
    """The anisotropic form with these entries as an isometric orthogonal
    sum e1*pi1 + ... + em*pim of scaled n-fold Pfister forms, in raw
    terms, or None when there is none.

    Some summand represents one of the anchors, so it is found among the
    Pfister subforms there and the rest is decomposed the same way.  The
    anchors default to _anchors(bits); for a single summand (dimension
    2^n) to its first entry, since a scaled Pfister form represents each
    of its entries.
    """
    if not bits:
        return []
    if anchors is None:
        anchors = bits[:1] if len(bits) == 1 << n else _anchors(field, bits)
    for e, slots, comp in _pfister_subforms(field, bits, n, anchors):
        rest = _orthogonal_terms(field, comp, n)
        if rest is not None:
            return [(e, slots)] + rest
    return None


def _as_scaled_pfister(field: FieldDesc, bits: Sequence[int], n: int,
                       unscaled: bool = False) -> list[tuple] | None:
    """[term] with a scaled Pfister form isometric to the anisotropic
    form with these entries, if one exists; an unscaled one is anchored
    at 1 or -1."""
    if len(bits) != 1 << n:
        return None
    return _orthogonal_terms(field, bits, n, dict.fromkeys(
        (0, _minus_one(field))) if unscaled else None)


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
        return _spec(field, (e, slots)), _form(field, comp)
    return None


# --- divisibility ---------------------------------------------------------

def _splits(field: FieldDesc, bits: Sequence[int], a: int) -> bool:
    """Whether the form with entries `bits` becomes hyperbolic over
    F(sqrt a), i.e. lies in <<a>>W(F), the kernel of W(F) -> W(F(sqrt a))."""
    target, image = _extension_bits(field, bits, a)
    return not _an_bits(target, image)


def _split_candidates(field: FieldDesc, bits: Sequence[int]) -> list[int]:
    """The b != 1 over whose F(sqrt b) the anisotropic form an with these
    entries may split, in the class order.  An anisotropic form that is
    hyperbolic over F(sqrt b) is <<b>> * rho (Lam, Ch. VII, 3), and
    -b*<<b>> = <-b, 1> is <<b>>, so -b is a similarity factor: -b*an is
    isometric to an.  Then -b*x0 = y lies in D(an) for an's first entry
    x0, and b = -x0*y.  So only such b are kept, and only when the
    shifted value set -b*D(an) is D(an) and -b*an has an's canonical
    entries; below level infinity D(an) already fixes an, over R it
    forgets multiplicities, which the canonical entries keep.  Every b
    that splits the form passes.  Every b != 1 for the zero form."""
    if not bits:
        return field.class_bits()[1:]
    flex, minus_one = _flex(field), _minus_one(field)
    member = _value_set(bits, flex)
    key = _canon_bits(field, bits)
    out = []
    for y in member:
        shift = bits[0] ^ y  # -b
        if (shift ^ minus_one
                and {shift ^ v for v in member} == member
                and _canon_bits(field, [shift ^ x for x in bits]) == key):
            out.append(shift ^ minus_one)
    return _in_class_order(out)


def divisible_by_pfister(
    phi: DiagonalForm, slots: Sequence[SquareClass]
) -> tuple[bool, DiagonalForm | None]:
    """Whether phi is isometric to <<slots>> tensor rho, with the quotient.

    phi must be anisotropic.  Every multiple of pi = <<slots>> splits
    over F(sqrt a) for each slot a, so a form that some slot leaves
    non-hyperbolic is rejected.  The rest is decided by peeling scaled
    copies x*pi off phi on raw bits: an anisotropic form in pi*W(F) is
    divisible by pi, so peeling a multiple of pi never gets stuck.  For
    one slot the splitting test is exact and a stuck peeling is a
    contradiction; for more slots splitting is only necessary, and a
    stuck peeling means phi is not divisible.  pi * rho is checked
    against phi's Witt vector.
    """
    if is_isotropic(phi):
        raise IsotropicInputError("divisibility is tested on anisotropic forms")
    field = phi.field
    for a in slots:
        if a.field != field:
            raise FieldMismatchError(f"{a.field} vs {field}")
    if not slots:
        raise ValueError("need at least one slot")
    pi = _expand(field, (0, tuple(a.bits for a in slots)))
    if not _an_bits(field, pi):
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
            if len(slots) == 1:
                raise InternalContradictionError(
                    "form splits over the extension but peeling got stuck")
            return False, None
    product = [x ^ p for x in quotient for p in pi]
    if _pack(field, product) != _form_vector(phi):
        raise InternalContradictionError("peeled quotient fails to verify")
    return True, DiagonalForm(field, tuple(
        SquareClass(field, x) for x in quotient))


def common_slot(pi1: PfisterSpec, pi2: PfisterSpec) -> SquareClass | None:
    """A class d with both Pfister forms divisible by the binary <<d>>.

    A form is a multiple of <<d>> in W(F) exactly when it splits over
    F(sqrt d); the first nontrivial d that splits both is returned,
    tried among the split candidates of the first.
    """
    field = pi1.scalar.field
    if pi2.scalar.field != field:
        raise FieldMismatchError(f"{field} vs {pi2.scalar.field}")
    forms = [_expand(field, _raw(pi1)), _expand(field, _raw(pi2))]
    an = _an_bits(field, forms[0])
    for d in _split_candidates(field, an):
        if all(_splits(field, f, d) for f in forms):
            return SquareClass(field, d)
    return None


# --- the exact search -----------------------------------------------------

def _search_sum(
    field: FieldDesc,
    bits: Sequence[int],
    n: int,
    k: int,
    unscaled: bool,
) -> list[tuple] | None:
    """Exact test: is the form with these entries a sum of at most k
    generator classes?

    Returns raw terms or None.  Complete over the cached generator set
    G.  With S2 (zero and the sums of one or two generators, see
    _sumset) stored, every k <= 4 is one meet in the middle: v is a sum
    of at most k generators exactly when v - s lies in S2 for some s in
    S_(k-2), where S_0 = {0}, S_1 = G and S_2 = S2, and s and v - s are
    split into their terms by one pass over G each (two).  So two terms
    are ruled out by one set lookup.  Without S2, k = 2 is that pass;
    any other k recurses on v - g, the candidates ordered by anisotropic
    dimension and bounded by 2^n (k - 1), until a level these rules
    decide.  Callers must keep the build and the search within
    _MAX_SEARCH_COST first (see _decide_k and _search_cost).
    """
    gens = _generators(field, n, unscaled)
    sums = _sumset(field, n, unscaled)
    fronts = ((_pack(field, ()),), gens, sums)

    def two(w) -> list[tuple] | None:
        """The terms of w when it is a sum of at most two generators."""
        if not w:
            return []
        if w in gens:
            return [gens[w]]
        for term, r in zip(gens.values(), _diffs(field, w, gens)):
            hit = gens.get(r)
            if hit is not None:
                return [term, hit]
        return None

    def search(w, j: int) -> list[tuple] | None:
        if not w or w in gens or j == 2 and sums is None:
            return two(w)
        if j <= 1:
            return None
        if sums is not None and j <= 4:
            front = fronts[j - 2]
            for s, r in zip(front, _diffs(field, w, front)):
                if r in sums:
                    return two(s) + two(r)
            return None
        bound = (1 << n) * (j - 1)
        rs = list(_diffs(field, w, gens))
        cands = sorted(
            (c for c in zip(_dims(field, rs), rs, gens.values())
             if c[0] <= bound),
            key=operator.itemgetter(0))
        for _dim, r, term in cands:
            rest = search(r, j - 1)
            if rest is not None:
                return [term] + rest
        return None

    return search(_pack(field, bits), k)


def _search_cost(field: FieldDesc, n: int, k: int, unscaled: bool) -> int:
    """About how many vector differences _search_sum may take for k."""
    size = len(_generators(field, n, unscaled))
    sums = _sumset(field, n, unscaled) if k >= 3 else None
    if k <= 2 or (k == 3 and sums is not None):
        return size
    if sums is None:
        return size ** (k - 1)
    return size ** (k - 4) * len(sums)


# --- constructive certificate routes --------------------------------------

def _gp1_terms(field: FieldDesc, bits: Sequence[int]) -> list[tuple]:
    """The form as dim/2 scaled 1-fold Pfister forms: <a,b> = a<<-ab>>."""
    minus_one = _minus_one(field)
    return [(a, (a ^ b ^ minus_one,)) for a, b in zip(bits[0::2], bits[1::2])]


def _gp2_peeling_terms(field: FieldDesc, bits: Sequence[int]) -> list[tuple]:
    """The dim/2 - 1 construction for I^2 forms: peel three entries at
    a time via <a,b,c,abc> = a<<-ab,-ac>>."""
    minus_one = _minus_one(field)
    terms: list[tuple] = []
    cur = list(bits)
    while len(cur) >= 4:
        a, b, c = cur[:3]
        term = (a, (a ^ b ^ minus_one, a ^ c ^ minus_one))
        terms.append(term)
        last = len(cur) == 4
        cur = _minus(field, cur, term)
        if last and cur:
            raise InternalContradictionError(
                "final quaternary I^2 class is not similar to a Pfister form")
    if cur:
        raise InternalContradictionError("I^2 peeling left an odd remainder")
    return terms


def _extension_terms(field: FieldDesc, bits: Sequence[int], n: int, k: int,
                     cap: int) -> list[tuple] | None:
    """k scaled n-fold terms for the anisotropic form phi with these
    entries, or None: extend a scaled (n-1)-fold subform c*pi to the
    n-fold term c<<slots, -cw>> = c*pi + w*pi through a value w of its
    complement, and decide the remainder, the complement minus w*pi
    (c*pi cancels), at k - 1.  Every anchored subform and every value w
    are tried, so None means that no term built this way leaves k - 1.

    k = 2.  The ladder asks this for 2^n < dim phi < 2^(n+1), every n,
    where it decides exactly (Elman-Lam linkage).  Let phi = x*pi1 -
    x*pi2 with linkage r: pi_i = rho (x) sigma_i for a common r-fold
    rho, and phi = x*rho (x) (sigma1' + -sigma2') of dimension 2^(n+1)
    - 2^(r+1), so r <= n - 2.  A summand represents an anchor e (see
    _anchors), say x*rho (x) sigma1'.  Then pi1 = rho (x) <<-ex>> (x) tau
    with tau at least 1-fold, so e*rho (x) tau is a scaled (n-1)-fold
    subform of phi at e whose complement holds x*rho (x) tau', and w = x*y
    for a value y of rho (x) tau' gives w*rho (x) tau = x*rho (x) tau:
    the term is x*pi1 and the remainder -x*pi2, which the recognizer
    finds at k - 1 = 1.  At n = 3 these are D(14) (r = 0) and D(12)
    (r = 1).

    k = 3 at dimension 16 for n = 3, once two is ruled out: every
    choice leaves a remainder of dimension 12 or 14 (w is a value of
    both the 12-dimensional complement and w*pi), which is two terms.

    k = 3 above 2^(n+1), every n, once d = dim phi >= 3*2^n - 2n (10 at
    n = 2, 18 at n = 3, 40 at n = 4); two terms are out by dimension.
    The anchors are all of D(phi) (witt._values), remainders above
    2^(n+1) are skipped, and the rest are decided at k = 2 by the exact
    rules, so no generator set is built.  The w with every w*p in D(comp)
    go first: w*pi may embed in comp there, which leaves the least
    remainder, of dimension d - 2^n.  This is exact.  Say phi = g1
    + g2 + g3.  an(phi - g1) = an(g2 + g3) has dimension at most
    2^(n+1), so phi and g1 share a subform tau of dimension at least
    (d - 2^n)/2 >= 2^n - n (the Witt index of phi - g1), and tau misses
    at most n entries of g1.  A form embeds one H-index (a class up to
    sign) at a time, as witt._split_off splits it off: at level 2
    <x,x> = <-x,-x>, so tau holds x where phi holds x or a doubled -x.
    g1 = <<-1>>^m (x) c*rho, where the entries of c*rho sit one each on
    the H-indices of a coset of rank r = n - m; m = 0 at level 1 (<1,1>
    is isotropic) and m <= 1 at level 2 (<1,1,1,1> is).  Let D be the
    indices where tau misses entries of g1.
    (a) D lies in an affine hyperplane of the coset, as it always does
    for m = 0 (any n points of an affine n-space over F2 do).  Then g1
    on the other half is a scaled (n-1)-fold Pfister form sigma = c*pi
    inside tau, and g1 on D's half is w*pi for some w.
    (b) Otherwise m >= 1, and no index misses more than 2^(m-1)
    entries: D lies in no hyperplane, so it has at least r + 1 =
    n - m + 1 indices, while with an index missing more it would have
    at most n - 2^(m-1) < r + 1.  So sigma, 2^(m-1) of g1's entries at
    every index, lies in tau, and g1 = sigma + sigma (w = c).  At level
    2 (m = 1) D is then n affinely independent indices that miss one
    entry each, so sigma's signs can follow tau's there (any signs on
    independent points extend to a coset), and a doubled <x,x> of tau
    takes either sign elsewhere.
    Either way sigma represents c, a value of phi, so the walk anchored
    at c yields it with its complement comp.  tau = sigma + tau' with
    dim tau' > 0, as d > 2^(n+1), and tau' embeds in comp and in w*pi.
    So some value v of comp is w*p for a value p of pi, and v*pi = w*pi
    (pi is round): the term for (c, v) is g1, and its remainder g2 + g3
    is found at k = 2.  g1 need not be an orthogonal summand of phi,
    which is why _anchors does not do here: at n = 4 it misses sums of
    three.  At n <= 3 every remainder below 2^(n+1) is two terms (0 and
    2^n would make phi at most two; the others are Albert forms at n =
    2, D(12) and D(14) at n = 3), so a miss there raises.  At n = 4 it
    need not be: some 28-dimensional I^4 forms over F3[t1..t5] are no
    sum of two.
    """
    flex = _flex(field)
    minus_one = _minus_one(field)
    top = 2 << n
    wide = len(bits) > top
    anchors = _values(bits, flex) if wide else _anchors(field, bits)
    for c, slots, comp in _pfister_subforms(field, bits, n - 1, anchors):
        ws = _values(comp, flex)
        if wide:  # first the w with w*pi in D(comp): the least remainders
            member = set(ws)
            pi = _expand(field, (0, slots))
            ws.sort(key=lambda w: not member.issuperset([w ^ p for p in pi]))
        for w in ws:
            rest = _minus(field, comp, (w, slots))
            if len(rest) > top:
                continue
            terms = _decide_k(field, rest, n, k - 1, False, cap)
            if terms is not None:
                return [(c, slots + (c ^ w ^ minus_one,))] + terms
            if k == 3 and n <= 3 and len(rest) < top:
                raise InternalContradictionError(
                    f"I^{n} remainder of dimension {len(rest)} without two"
                    f" terms")
    return None


# --- tensor-identity reduction --------------------------------------------

def _tensor_reduction(
    field: FieldDesc, bits: Sequence[int],
) -> tuple[int, FieldDesc, list[int]] | None:
    """A factorization <bits> = <1,t> (x) tau with tau free of t's variable.

    The form with these entries must be anisotropic.  Returns
    (t, residue field, tau) or None, with tau the canonical entries over
    the residue field after moving t onto the last variable.  Pfister
    numbers are preserved: GP_n of the product equals GP_(n-1) of tau,
    which _decide_k uses where the ladder would otherwise search.
    The residue forms even and odd along t_i are anisotropic, so they
    are isometric exactly when their canonical diagonalizations agree;
    u*odd = even gives t = u*t_i, and a variable is scanned only when
    its halves have one nonzero size.  tau is u*odd under class_map(t),
    which keeps it anisotropic: two of its entries differ by neither t
    nor -t, which hold t_i, so no two H-indices merge.
    """
    flex = _flex(field)
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
                return u ^ bit, res, _canon(res, [project(u ^ x)
                                                  for x in odd])
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
    val, rem = divmod(d * d - 8 * d - 82 + 2 * (-1) ** (d // 2), 16)
    if rem:
        raise InternalContradictionError(f"non-integral bound for d={d}")
    return val


def _theorem_bound(n: int, d: int) -> int:
    """The bound on scaled GP_n at even dimension d that the theorems
    give: d/2 for n = 1, then two_pfister_bound, three_pfister_bound and,
    for n >= 4, ceil(p_n(d)) for the paper's p_3 = X^2/16 and p_n = 1 +
    2 p_(n-1)(X/2).  If p_(n-1) = X^2/2^n + 2^(n-4) - 1, then p_n = 1 +
    2 (X^2/2^(n+2) + 2^(n-4) - 1) = X^2/2^(n+1) + 2^(n-3) - 1, so by
    induction from p_3 every p_n is that quadratic; its constant is an
    integer, and ceil(d^2/2^(n+1)) is an arithmetic shift."""
    if n == 1:
        return d // 2
    if n == 2:
        return two_pfister_bound(d)
    if n == 3:
        return three_pfister_bound(d)
    return -(-d * d >> n + 1) + (1 << n - 3) - 1


def _default_cap(n: int, d: int, unscaled: bool) -> int:
    cap = _theorem_bound(n, d)
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

    Raises ValueError if n < 1 or depth_cap < 0, NotInIdealError if phi
    is not in I^n and DepthCapExceededError when exactness cannot be
    certified within the cap; a returned value is always exactly
    minimal, with a verified certificate.
    """
    k, terms, an = _exact_terms(phi, n, unscaled, depth_cap)
    return k, _certificate(n, terms, an)


def _exact_terms(
    phi: DiagonalForm, n: int, unscaled: bool, depth_cap: int | None,
) -> tuple[int, list[tuple], DiagonalForm]:
    """The step pfister_number shares with the classification reports:
    the I^n check, phi's anisotropic part an, the ladder and the
    RESULT_LOG record.  Returns (k, raw terms, an); each caller builds
    its own certificate from them, once."""
    if n < 1:
        raise ValueError("fold must be at least 1")
    if depth_cap is not None and depth_cap < 0:
        raise ValueError("depth_cap must be nonnegative")
    if not in_In(phi, n):
        raise NotInIdealError(f"form is not in I^{n}")
    an = anisotropic_part(phi)
    bits = [e.bits for e in an.entries]
    k, terms = _pfister_number_impl(phi.field, bits, n, unscaled, depth_cap)
    RESULT_LOG.append({
        "field": phi.field,
        "form": tuple(bits),
        "dim": an.dim,
        "n": n,
        "unscaled": unscaled,
        "value": k,
    })
    return k, terms, an


def _pfister_number_impl(
    field: FieldDesc, bits: list[int], n: int, unscaled: bool,
    depth_cap: int | None,
) -> tuple[int, list[tuple]]:
    d = len(bits)
    if d == 0:
        return 0, []
    theorem_cap = _default_cap(n, d, unscaled)
    cap = theorem_cap if depth_cap is None else depth_cap
    # a sum of k terms has dimension at most k * 2^n
    for k in range(math.ceil(d / (1 << n)), cap + 1):
        terms = _decide_k(field, bits, n, k, unscaled, cap)
        if terms is not None:
            if len(terms) != k:
                raise InternalContradictionError(
                    f"{len(terms)}-term list where {k} was proved minimal")
            return k, terms
    if depth_cap is not None and depth_cap < theorem_cap:
        raise _over_cap(cap)
    raise InternalContradictionError(
        f"no representation within the theorem bound {theorem_cap}")


def _over_cap(cap: int) -> DepthCapExceededError:
    """The refusal when the caller's depth_cap is below the exact value."""
    return DepthCapExceededError(
        cap, f"the Pfister number exceeds depth_cap = {cap}", k=cap + 1)


def _decide_k(
    field: FieldDesc,
    bits: list[int],
    n: int,
    k: int,
    unscaled: bool,
    cap: int,
) -> list[tuple] | None:
    """Raw terms for a sum of exactly k generators, None if impossible.

    The caller has ruled out every k from the dimension bound up to
    k - 1.  The first rule that applies decides, in this order: scaled
    1-fold classes split into binary forms; k = 1 is the recognizer;
    two scaled terms of dimension 2^(n+1) are an isometric splitting,
    found by the anchored orthogonal decomposition (_orthogonal_terms)
    once the H-indices of the entries admit one (_may_split, a
    necessary test that walks nothing; it runs from n = 3 on, as at
    n <= 2 the walk costs about what the test does; a rejection there
    also spares the k = 3 scan above 2^(n+1) the walk of a remainder);
    scaled GP_2 is at most d/2 - 1 by peeling; two scaled terms below
    dimension 2^(n+1), scaled GP_3 = 3 at dimension 16, and three scaled
    terms above 2^(n+1) once d >= 3*2^n - 2n, for every n, extend an
    (n-1)-fold Pfister subform to one term and decide the rest at k - 1
    (_extension_terms, exact there by linkage: D(12) and D(14) at n = 3;
    at k = 3 each remainder is decided by these rules at k = 2); a
    scaled product <<t>> (x) tau (_tensor_reduction) is k terms exactly
    when GP_(n-1)(tau) = k, found by this ladder over the residue field
    and lifted by the slot -t; any other k goes to the generator search.
    Only the search needs the generator set, built only when packing
    it, _READ_COST per class of S_n and scalar, is within
    _MAX_SEARCH_COST (_pfister_set refuses S_n over that size before it
    is made), and the search must keep to it too (_search_cost).  Raises
    DepthCapExceededError, with reason "budget", when no complete
    method is available, so a wrong minimum can never be reported.
    """
    d = len(bits)
    top = 2 << n
    if not unscaled and n == 1:
        return _gp1_terms(field, bits)
    if k == 1:
        return _as_scaled_pfister(field, bits, n, unscaled)
    if not unscaled and k == 2 and d == top:
        if n >= 3 and not _may_split(field, bits, n):
            return None
        return _orthogonal_terms(field, bits, n)
    if not unscaled and n == 2 and k == d // 2 - 1:
        return _gp2_peeling_terms(field, bits)
    if not unscaled and (k == 2 and d < top or (n, d, k) == (3, 16, 3)
                         or k == 3 and d > top and d >= (3 << n) - 2 * n):
        return _extension_terms(field, bits, n, k, cap)
    if not unscaled and (red := _tensor_reduction(field, bits)) is not None:
        t, res, tau = red
        value, sub = _pfister_number_impl(res, tau, n - 1, False, None)
        if value != k:
            return None
        # s*<<slots>> over the residue field lifts to s*<<slots, -t>>
        _, lift = class_map(t)
        minus_t = t ^ _minus_one(field)
        return [(lift(s), tuple(map(lift, slots)) + (minus_t,))
                for s, slots in sub]
    limit = _MAX_SEARCH_COST // (_READ_COST * (
        2 if unscaled else field.square_class_count()))
    if _pfister_set(field, n, limit) is None:
        why = (f"building the generators would take over its budget of"
               f" {_MAX_SEARCH_COST} steps")
    elif (cost := _search_cost(field, n, k, unscaled)) <= _MAX_SEARCH_COST:
        return _search_sum(field, bits, n, k, unscaled)
    else:
        why = (f"the generator search would take about {cost} steps,"
               f" over its budget of {_MAX_SEARCH_COST}")
    raise DepthCapExceededError(
        cap, f"no exact route decides whether {k} terms suffice: {why}", k=k,
        reason="budget")


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
    2-term certificate in the shape s(tau1' + -tau2'), and a GP_2-subform
    witness.  The 8-dimensional terms t1, t2 of any certificate sum to a
    14-dimensional form, so t1 + t2 is isotropic and some s lies in
    D(t1) and -D(t2); Pfister forms are round, so t1 = s*tau1 and
    t2 = -s*tau2.  The least such s in the class order is used, and the
    ladder's terms are rescaled to it before the one certificate is
    built.

    Witness.  s*tau1 + -s*tau2 is s*tau1' + -s*tau2' plus the hyperbolic
    plane <s, -s>, and both forms are 14-dimensional, so phi is
    isometric to s*tau1' + -s*tau2'.  With tau1 = <<a, b, c>> = <<a, b>>
    + -c*<<a, b>>, the pure part tau1' holds -c*<<a, b>>, so
    (-c*s)*<<a, b>> is a GP_2 subform of phi; its complement is split
    off phi's entries.
    """
    if phi.dim != 14:
        raise ValueError("classify14 requires a 14-dimensional form")
    if is_isotropic(phi):
        raise IsotropicInputError("form must be anisotropic")
    k, terms, an = _exact_terms(phi, 3, False, None)
    field = phi.field
    flex, minus_one = _flex(field), _minus_one(field)
    (_, slots1), (_, slots2) = terms
    negs = {v ^ minus_one for v in _values(_expand(field, terms[1]), flex)}
    s = next((v for v in _values(_expand(field, terms[0]), flex)
              if v in negs), None)
    if s is None:
        raise InternalContradictionError(
            "14-dimensional I^3 form with terms of no common value")
    a, b, c = slots1
    sub = (s ^ c ^ minus_one, (a, b))
    return {
        "gp3": k,
        "certificate": _certificate(
            3, [(s, slots1), (s ^ minus_one, slots2)], an),
        "gp2_subform": _spec(field, sub),
        "gp2_complement": _complement(field, an, sub),
        "conditions_i_iii": True,
        "shape_ii": True,
        "shape_scalar": SquareClass(field, s),
    }


def _complement(field: FieldDesc, an: DiagonalForm,
                term: tuple) -> DiagonalForm:
    """The complement of the scaled Pfister subform term of the
    anisotropic form an, split off its entries by Witt cancellation."""
    flex = _flex(field)
    rest = [e.bits for e in an.entries]
    if not all(_split_off(rest, y, flex) for y in _expand(field, term)):
        raise InternalContradictionError("GP_2 witness is not a subform")
    return _form(field, rest)


def _biquadratic_splitting(field: FieldDesc,
                           bits: Sequence[int]) -> tuple[int, int] | None:
    """The first pair (a, b) in the class order, b outside {1, a}, such
    that the anisotropic form with these entries is hyperbolic over
    F(sqrt a, sqrt b).

    b is carried to F(sqrt a) by the same class map as the entries; its
    image c is trivial exactly when b is 1 or a, and c comes from c's
    lift and its product with a.  The lift comes first unless a has the
    unit bit, and the first pair's a has not: else b or ab would lack
    it, come before a and lead a pair for the same extension.

    Candidates.  Let an be the anisotropic part over F(sqrt a).  When
    an is hyperbolic over F(sqrt a, sqrt c) it is <<c>> * rho, so -c*an
    is isometric to an and c = -x0*y for an's first entry x0 and a value
    y of an; only such c are tried (_split_candidates), and the exact
    splitting test decides.  Every c that splits passes, so the scan
    returns the same first pair as one over all classes.  When an is
    hyperbolic already, the images of the two classes after 1
    hold the first b outside {1, a}.
    """
    classes = field.class_bits()
    for a in classes[1:]:
        mid_field, mid = _extension_bits(field, bits, a)
        an = _an_bits(mid_field, mid)
        cands = (_split_candidates(mid_field, an) if an else
                 set(_extension_bits(field, classes[1:3], a)[1]) - {0})
        lift = class_map(a)[1] if a >> 1 else (lambda c: c)
        for c in sorted(cands, key=lambda c: _class_order(lift(c))):
            if _splits(mid_field, an, c):
                return a, lift(c)
    return None


def classify16(phi: DiagonalForm) -> dict:
    """Full classification data for an anisotropic 16-dimensional I^3 form.

    GP_3 is at most 3; the report adds a certificate, a GP_2-subform
    witness, an isometric decomposition into four GP_2 forms, and a
    biquadratic splitting pair.

    Witnesses.  At GP_3 = 2 the two certificate terms have dimension
    16 = 2 * 2^3 and sum to phi in W(F), so they are an isometric
    orthogonal split of the anisotropic phi; each term e*<<a, b, c>> is
    e*<<a, b>> + (-c*e)*<<a, b>>, which gives the four GP_2 summands
    with no walk.  At GP_3 = 3 the summands come from the anchored
    orthogonal decomposition.  The GP_2 subform is the first summand,
    its complement split off phi's entries.
    """
    if phi.dim != 16:
        raise ValueError("classify16 requires a 16-dimensional form")
    if is_isotropic(phi):
        raise IsotropicInputError("form must be anisotropic")
    k, terms, an = _exact_terms(phi, 3, False, None)
    if k > 3:
        raise InternalContradictionError("GP_3 above 3 for a 16-dim I^3 form")
    cert = _certificate(3, terms, an)
    field = phi.field
    bits = [e.bits for e in an.entries]
    if k == 2:
        minus_one = _minus_one(field)
        four = [half for e, (a, b, c) in terms
                for half in ((e, (a, b)), (e ^ c ^ minus_one, (a, b)))]
    else:
        four = _orthogonal_terms(field, bits, 2)
        if four is None:
            raise InternalContradictionError(
                "no isometric decomposition into four GP_2 forms")
    pair = _biquadratic_splitting(field, bits)
    if pair is None:
        raise InternalContradictionError("no biquadratic splitting pair")
    return {
        "gp3": k,
        "certificate": cert,
        "gp2_subform": _spec(field, four[0]),
        "gp2_complement": _complement(field, an, four[0]),
        "gp2_decomposition": [_spec(field, t) for t in four],
        "splitting_pair": tuple(SquareClass(field, b) for b in pair),
    }


# --- random sampling ------------------------------------------------------

def _linkage_dim(n: int, d: int) -> bool:
    """Whether d is 2^(n+1) - 2^(r+1) for some r <= n - 2: the
    anisotropic dimensions strictly between 2^n and 2^(n+1) of sums of
    two scaled n-fold Pfister forms with linkage r (see
    _extension_terms), and by Karpenko's "Holes in I^n" the only ones an
    anisotropic I^n form takes there."""
    return d in {(2 << n) - (2 << r) for r in range(n - 1)}


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
    requested dimension (or at most it, with allow_smaller).

    A dimension no anisotropic I^n form has is rejected before the first
    draw: an odd one, a nonzero one below 2^n (Arason-Pfister
    Hauptsatz), and one strictly between 2^n and 2^(n+1) that is no
    linkage dimension 2^(n+1) - 2^(r+1) (Karpenko, "Holes in I^n"; see
    _linkage_dim).  So is one above 3 * 2^n, which a sum of at most
    three terms cannot reach.  Below 2^n only the zero form qualifies,
    by the same Hauptsatz, and it is returned with no draw.
    """
    if not allow_smaller and (
            dim % 2 or dim > 3 << n or dim < 2 << n and dim not in (0, 1 << n)
            and not _linkage_dim(n, dim)):
        raise ValueError(f"no anisotropic I^{n} form of dimension {dim} "
                         f"can be drawn")
    if 0 <= dim < 1 << n:
        return DiagonalForm(field, ())
    for attempt in range(max_tries):
        bits: list[int] = []
        for _ in range(rng.randrange(1, 4)):
            c = field.random_class(rng).bits
            slots = tuple(field.random_class(rng).bits for _ in range(n))
            bits += _expand(field, (c, slots))
        an = _an_bits(field, bits)
        if len(an) == dim or (allow_smaller and len(an) <= dim):
            return _form(field, an)
    raise RigidWittError(
        f"no random I^{n} form of dimension {dim} found in {max_tries} tries")
