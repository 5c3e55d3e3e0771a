"""Pfister numbers: recognition, search, certificates, bounds, reports."""

import itertools
import json
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, strategies as st

import rigidwitt

from rigidwitt import pfnum
from rigidwitt.errors import (
    DepthCapExceededError,
    FieldMismatchError,
    InternalContradictionError,
    IsotropicInputError,
    NotInIdealError,
    RigidWittError,
)
from rigidwitt.ideals import extend_scalars_quadratic, in_In, lift_form
from rigidwitt.pfnum import (
    PfisterCertificate,
    RESULT_LOG,
    classify14,
    classify16,
    common_slot,
    divisible_by_pfister,
    enumerate_GPn_classes,
    find_GP2_subform,
    generic_I2_form,
    lower_bound_generic,
    pfister_number,
    random_In_form,
    three_pfister_bound,
    two_pfister_bound,
    _anchors,
    _as_scaled_pfister,
    _biquadratic_splitting,
    _expand,
    _extension_terms,
    _generators,
    _orthogonal_terms,
    _pfister_subforms,
    _raw,
    _search_sum,
    _spec,
    _sumset,
    _tensor_reduction,
    _theorem_bound,
)
from rigidwitt.qform import (
    DiagonalForm,
    PfisterSpec,
    format_form,
    is_isometric,
    is_subform,
    orth_sum,
    parse_form,
    pfister,
    scale,
    tensor,
)
from rigidwitt.sqclass import Base, FieldDesc, SquareClass, basis_change_map
from rigidwitt.witt import (
    anisotropic_part,
    is_anisotropic,
    is_hyperbolic,
    witt_index,
    witt_vector,
    _DENSE_BITS,
    _LANE,
    _diffs,
    _dims,
    _form_vector,
    _neg,
    _pack,
)

F1 = FieldDesc(Base.F3, 1)
F2 = FieldDesc(Base.F3, 2)
F3V = FieldDesc(Base.F3, 3)
F5 = FieldDesc(Base.F3, 5)


def _f(text, field=F2):
    return parse_form(text, field)


# --- recognition ----------------------------------------------------------

def _recognize(phi, n, **kwargs):
    """_as_scaled_pfister on phi's entries, as a PfisterSpec or None."""
    terms = _as_scaled_pfister(phi.field, [e.bits for e in phi.entries], n,
                               **kwargs)
    return None if terms is None else _spec(phi.field, terms[0])


def test_recognizer_plain_pfister():
    phi = pfister((F2.var(1), F2.var(2)))
    spec = _recognize(phi, 2)
    assert spec is not None
    assert is_isometric(spec.expand(), phi)


def test_recognizer_scaled():
    phi = scale(-F2.var(1), pfister((F2.var(1), F2.var(2))))
    spec = _recognize(anisotropic_part(phi), 2)
    assert spec is not None and is_isometric(spec.expand(), phi)


def test_recognizer_doubled_classes():
    # <<-1,t1>> has entry multiset {1,1,t1,t1}
    phi = pfister((-F2.one(), F2.var(1)))
    assert is_anisotropic(phi)
    spec = _recognize(anisotropic_part(phi), 2)
    assert spec is not None and is_isometric(spec.expand(), phi)


def test_recognizer_rejects_non_pfister():
    phi = _f("<1,t1,t2,-t1*t2>")  # nontrivial discriminant
    assert _recognize(phi, 2) is None
    assert _recognize(_f("<1,t1>"), 2) is None  # wrong dim


def test_every_quaternary_I2_form_is_similar_to_pfister():
    classes = list(F2.classes())
    for combo in itertools.combinations_with_replacement(classes, 4):
        phi = DiagonalForm(F2, combo)
        if not is_anisotropic(phi) or not in_In(phi, 2):
            continue
        assert _recognize(phi, 2) is not None, format_form(phi)


def _recognizer_cases(raw, dim):
    """Every anisotropic form of this dimension, in every diagonalization
    (level 2 flips doubled pairs <x,x> to <-x,-x>)."""
    for v, phi in raw.witt_classes():
        if phi.dim != dim:
            continue
        bits = [e.bits for e in phi.entries]
        doubled = sorted({b for b in bits if bits.count(b) == 2})
        flips = doubled if raw.m == 4 else []
        for chosen in itertools.product((0, 1), repeat=len(flips)):
            flip = {b for b, c in zip(flips, chosen) if c}
            yield v, DiagonalForm(raw.field, tuple(
                SquareClass(raw.field, b ^ (b in flip)) for b in bits))


@pytest.mark.parametrize("field", [F2, FieldDesc(Base.C, 3)])
def test_recognizer_modes_match_lookup_exhaustive(field, gp_lookup):
    # default and unscaled against the lookup's scaled and unscaled
    # Pfister classes, on every anisotropic 4- and 8-dimensional form
    one = field.one()
    outcomes = set()
    for n in (2, 3):
        look = gp_lookup(field, n)
        for v, phi in _recognizer_cases(look, 1 << n):
            for kwargs, members, scalars in (
                    ({}, look.scaled, None),
                    ({"unscaled": True}, look.unscaled, (one, -one))):
                spec = _recognize(phi, n, **kwargs)
                assert (spec is not None) == (v in members), \
                    (format_form(phi), kwargs)
                if spec is not None:
                    assert spec.fold == n
                    assert look.spec_vector(spec) == v
                    assert scalars is None or spec.scalar in scalars
                outcomes.add((n, tuple(kwargs), spec is None))
    # each mode accepts and rejects at n = 2; at n = 3 the only
    # anisotropic 8-dimensional forms of these fields are Pfister forms
    for mode in ((), ("unscaled",)):
        assert {(2, mode, True), (2, mode, False), (3, mode, False)} \
            <= outcomes


# --- exactness against an independent breadth-first oracle ----------------

def _bfs_distances(raw, gens, cap):
    """The least number of generators summing to each class, up to cap."""
    zero = (0,) * raw.size
    dist = {zero: 0}
    frontier = [zero]
    for k in range(1, cap + 1):
        nxt = []
        for v in frontier:
            for g in gens:
                w = raw.add(v, g)
                if w not in dist:
                    dist[w] = k
                    nxt.append(w)
        frontier = nxt
    return dist


R2 = FieldDesc(Base.R, 2)
C2 = FieldDesc(Base.C, 2)


@pytest.mark.parametrize("n,field", [(2, F1), (2, F2), (3, F2), (2, R2),
                                     (2, C2)])
def test_pfister_number_matches_bfs_oracle(n, field, gp_lookup):
    # every Witt class in I^n (over R those with coefficients |c| <= 2);
    # over R the BFS frontier grows without end, so its depth is capped
    look = gp_lookup(field, n)
    cap = 3 if field.base is Base.R else 6
    dist = _bfs_distances(look, look.scaled, cap)
    total = skipped = 0
    for v, phi in look.witt_classes():
        if not in_In(phi, n):
            continue
        total += 1
        if v not in dist:
            skipped += 1
            continue
        k, cert = pfister_number(phi, n)
        assert k == dist[v], (format_form(phi), k, dist[v])
        assert cert.verify()
    print(f"GP_{n} over {field}: {total - skipped} classes checked, "
          f"{skipped} beyond the BFS cap {cap}")
    assert skipped < total


# --- two-term decisions against the Pfister-class lookup ------------------

def _random_class(look, rng, n, dim, terms, fixed=(), tries=20000):
    """(vector, form) of a random sum of scaled n-fold Pfister forms whose
    anisotropic part has dimension dim; each term starts with `fixed`.
    Fails after `tries` draws that miss dim."""
    for _ in range(tries):
        v = (0,) * look.size
        for _ in range(rng.choice(terms)):
            slots = list(fixed) + [rng.choice(look.classes)
                                   for _ in range(n - len(fixed))]
            v = look.add(v, look.vector(
                look.pfister_bits(rng.choice(look.classes), slots)))
        if look.an_dim(v) == dim:
            return v, look.form(v)
    count = " or ".join(map(str, terms))
    pytest.fail(f"no sum of {count} scaled {n}-fold Pfister forms over "
                f"{look.field} had dimension {dim} in {tries} draws")


def _dim16_forms(look, rng):
    """Dim-16 I^3 forms with 0, 2, 4 and 8 doubled classes; GP_3 = 2 and
    3 for the first three (with eight, the forms are multiples of <<-1>>
    and all such draws have GP_3 = 2)."""
    want = {(d, k): 2 for d in (0, 2, 4) for k in (2, None)}
    want[8, 2] = 3
    while want:
        fixed = (look.minus_one,) if rng.random() < 0.2 else ()
        v, phi = _random_class(look, rng, 3, 16, (2, 3), fixed)
        key = (v.count(2), look.terms(v))
        if want.get(key):
            want[key] -= 1
            if not want[key]:
                del want[key]
            yield v, phi


def test_two_term_decisions_match_lookup(gp_lookup):
    rng = random.Random(316)
    look = gp_lookup(F5, 3)
    for v, phi in _dim16_forms(look, rng):
        k, cert = pfister_number(phi, 3)
        expected = look.terms(v)
        assert k == (3 if expected is None else expected), format_form(phi)
        spec, comp = find_GP2_subform(phi)
        comp_v = look.vector([e.bits for e in comp.entries])
        assert comp.dim == 12 and look.an_dim(comp_v) == 12
        assert look.add(look.spec_vector(spec), comp_v) == v
        bits = [e.bits for e in phi.entries]
        # at dimension 16 two 3-fold terms are orthogonal summands
        assert (_orthogonal_terms(F5, bits, 3) is None) == (expected is None)
        four = [_spec(F5, t) for t in _orthogonal_terms(F5, bits, 2)]
        assert len(four) == 4 and all(t.fold == 2 for t in four)
        total = (0,) * look.size
        for t in four:
            total = look.add(total, look.spec_vector(t))
        assert total == v
    for field in (FieldDesc(Base.C, 4), FieldDesc(Base.SQUARE_MINUS_ONE, 3),
                  R2):
        look = gp_lookup(field, 2)
        for _ in range(12):
            v, phi = _random_class(look, rng, 2, 8, (2, 3))
            k, _ = pfister_number(phi, 2)
            expected = look.terms(v)
            assert k == (3 if expected is None else expected), \
                (str(field), format_form(phi))


# --- the generator search on packed Witt vectors --------------------------

def _spec_sum(look, terms):
    total = (0,) * look.size
    for t in terms:
        total = look.add(total, look.spec_vector(t))
    return total


def _coeffs(raw, w):
    """The coefficients by H-index of a vector from witt._pack: the byte
    lanes of a packed int, or the pairs of a sparse tuple."""
    if isinstance(w, int):
        return tuple(w >> _LANE * i & 0xFF for i in range(raw.size))
    assert list(w) == sorted(w) and all(c for _, c in w)
    out = [0] * raw.size
    for i, c in w:
        out[i] = c
    return tuple(out)


# every base at 0, 1 and 3 variables, and sparse vectors over finite
# rings: F3[t1..t11] and F3(i)[t1..t10] have 2^11 indices
@given(st.sampled_from([FieldDesc(b, nv) for b in Base for nv in (0, 1, 3)]
                       + [FieldDesc(Base.F3, 11),
                          FieldDesc(Base.SQUARE_MINUS_ONE, 10)]),
       st.data())
def test_packed_vectors_follow_the_group_ring(raw_field, field, data):
    # packing, difference, negation and anisotropic dimension of Witt
    # vectors against the group-ring oracle
    raw = raw_field(field)
    a, b = (data.draw(st.lists(st.sampled_from(raw.classes), max_size=10))
            for _ in range(2))
    u, w = raw.vector(a), raw.vector(b)
    minus_w = raw.reduce([-c for c in w])

    pa, pb = _pack(field, a), _pack(field, b)
    assert _coeffs(raw, pa) == u and _coeffs(raw, pb) == w
    (diff,) = _diffs(field, pa, [pb])
    assert _coeffs(raw, diff) == raw.add(u, minus_w)
    assert _coeffs(raw, _neg(field, pb)) == minus_w
    assert list(_dims(field, [diff, pa])) == [
        raw.an_dim(raw.add(u, minus_w)), raw.an_dim(u)]


@pytest.mark.parametrize("base,nvars", [
    (Base.F3, 10), (Base.F3, 11), (Base.C, 10), (Base.C, 11),
    (Base.SQUARE_MINUS_ONE, 9), (Base.SQUARE_MINUS_ONE, 10)],
    ids=lambda x: getattr(x, "name", str(x)))
def test_vectors_at_the_dense_bits_boundary(raw_field, ideal_recursion,
                                            base, nvars):
    # H with 2^10 indices is packed and with 2^11 sparse: on both sides
    # I^n membership, Witt indices and certificate checks agree with the
    # group ring, on sums of scaled 3-fold Pfister forms, every other
    # one with a binary form added
    field = FieldDesc(base, nvars)
    raw = raw_field(field)
    rng = random.Random(nvars)
    for trial in range(12):
        specs = [PfisterSpec(field.random_class(rng), tuple(
            field.random_class(rng) for _ in range(3)))
            for _ in range(rng.randrange(1, 4))]
        bits = [x for s in specs
                for x in raw.pfister_bits(s.scalar.bits,
                                          [a.bits for a in s.slots])]
        if trial % 2:
            bits += [field.random_class(rng).bits for _ in range(2)]
        phi = DiagonalForm(field, tuple(SquareClass(field, x) for x in bits))
        assert isinstance(_form_vector(phi), int) == (
            raw.size <= 1 << _DENSE_BITS)
        v = raw.vector(bits)
        for n in range(5):
            assert in_In(phi, n) == ideal_recursion(field, bits, n), n
        assert witt_index(phi) == (phi.dim - raw.an_dim(v)) // 2
        target = anisotropic_part(phi)
        for terms in (specs, specs[1:]):
            cert = PfisterCertificate(3, tuple(terms), target)
            assert cert.verify() == (_spec_sum(raw, terms) == v)
        assert trial % 2 or PfisterCertificate(3, tuple(specs),
                                               target).verify()


@pytest.mark.parametrize("field", [F2, FieldDesc(Base.C, 3),
                                   FieldDesc(Base.SQUARE_MINUS_ONE, 2), R2],
                         ids=str)
def test_generator_search_matches_lookup_on_every_class(field, gp_lookup):
    # every Witt class in I^2 (over R those with |c| <= 2): the search at
    # k = 2 and the scaled and unscaled P_2 agree with the lookup wherever
    # it is exact, and P_2 is at least 3 where it finds no two terms
    look = gp_lookup(field, 2)
    signs = (field.one(), -field.one())
    checked = 0
    for v, phi in look.witt_classes():
        if not in_In(phi, 2):
            continue
        bits = [e.bits for e in phi.entries]
        for unscaled in (False, True):
            expected = look.terms(v, unscaled)
            found = _search_sum(field, bits, 2, 2, unscaled)
            assert (found is None) == (expected is None), format_form(phi)
            if found is not None:
                assert len(found) == expected
                assert _spec_sum(look, [_spec(field, t) for t in found]) == v
            k, cert = pfister_number(phi, 2, unscaled=unscaled)
            assert k == expected if expected is not None else k >= 3
            assert _spec_sum(look, cert.terms) == v
            assert not unscaled or all(t.scalar in signs for t in cert.terms)
            checked += 1
    assert checked


def test_search_decides_unscaled_four_term_forms(gp_lookup):
    # unscaled dim-8 I^2 forms over F3[t1..t4] with P_2 = 4, which a
    # search that recursed three levels over the 295 generators would
    # have to try 295^3 rows for; the lookup's 2-sumset proves k >= 4
    field = FieldDesc(Base.F3, 4)
    look = gp_lookup(field, 2)
    gens, pairs = look.unscaled, look.sumset(unscaled=True)
    signs = (field.one(), -field.one())

    def at_most_three(v):
        return v in gens or v in pairs or not pairs.isdisjoint(
            look.differences(v, unscaled=True))

    def decided_as_four(v, phi):
        k, cert = pfister_number(phi, 2, unscaled=True)
        assert k == 4, format_form(phi)
        assert all(t.scalar in signs for t in cert.terms)
        assert _spec_sum(look, cert.terms) == v

    rng = random.Random(408)
    decided = 0
    while decided < 20:
        v, phi = _random_class(look, rng, 2, 8, (2, 3))
        if not at_most_three(v):
            decided_as_four(v, phi)
            decided += 1
    # every split of these into two sums of two classes takes both sums
    # from the half of S2 that lies above its negative in the order of
    # packed vectors: a set kept only up to sign would hold them negated
    for text in ("<t3,t2*t3,-t1*t3,-t1*t2*t3,-t3*t4,-t1*t3*t4,-t2*t3*t4,"
                 "-t1*t2*t3*t4>",
                 "<-t3,-t1*t3,-t4,-t1*t4,-t3*t4,-t1*t3*t4,-t2*t3*t4,"
                 "-t1*t2*t3*t4>"):
        phi = parse_form(text, field)
        v = look.vector([e.bits for e in phi.entries])
        assert not at_most_three(v)
        decided_as_four(v, phi)


def test_library_runs_without_numpy():
    # numpy is a test dependency only: importing the library and the
    # CLI and running the generator search must not load it
    code = textwrap.dedent("""
        import sys
        import rigidwitt, rigidwitt.cli
        from rigidwitt.pfnum import _GEN_CACHE, pfister_number
        from rigidwitt.qform import parse_form
        from rigidwitt.sqclass import parse_field
        phi = parse_form("<1,1,t1,t1,t2,t2,t1*t2,t1*t2>",
                         parse_field("F3[t1,t2]"))
        k, _ = pfister_number(phi, 2, unscaled=True)
        assert k == 2 and any(key[0] == "G" for key in _GEN_CACHE), k
        assert "numpy" not in sys.modules, "numpy was imported"
    """)
    src = pathlib.Path(rigidwitt.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_pfister_subforms_reads_no_anisotropic_part(monkeypatch):
    from rigidwitt import witt

    phi = _sample(16, 7)
    bits = [e.bits for e in phi.entries]
    # the walk splits entries off one by one and never calls _an_bits,
    # whether through pfnum or through witt
    calls = _count_calls(monkeypatch, ["_an_bits"])
    monkeypatch.setattr(witt, "_an_bits", pfnum._an_bits)
    found = list(_pfister_subforms(F5, bits, 3, _anchors(F5, bits)))
    found += list(_pfister_subforms(F5, bits, 2, bits))
    assert found
    assert calls["_an_bits"] == 0


# --- the generic examples -------------------------------------------------

@pytest.mark.parametrize("base", [Base.F3, Base.R, Base.C])
def test_generic_forms(base):
    f2 = FieldDesc(base, 2)
    g4 = generic_I2_form(f2, 2)
    assert g4.dim == 4 and in_In(g4, 2) and is_anisotropic(g4)
    k, cert = pfister_number(g4, 2)
    assert k == 1 and cert.verify()
    f4 = FieldDesc(base, 4)
    g6 = generic_I2_form(f4, 4)
    assert g6.dim == 6
    k, cert = pfister_number(g6, 2)
    assert k == 2 and cert.verify()


def test_generic_form_needs_enough_variables():
    with pytest.raises(ValueError):
        generic_I2_form(F2, 4)
    with pytest.raises(ValueError):
        generic_I2_form(F2, 3)  # odd


def test_lower_bound_generic():
    f5 = FieldDesc(Base.F3, 5)
    witness, value = lower_bound_generic(f5, 12)
    assert value == 2
    k, _ = pfister_number(witness, 3)
    assert k == 2


# --- tensor-identity reduction --------------------------------------------

def test_tensor_identity_moves_fold_down():
    psi = generic_I2_form(F2, 2)
    big = F2.extended(1)
    phi = tensor(pfister((big.var(3),)), lift_form(psi, big))
    k3, cert = pfister_number(phi, 3)
    k2, _ = pfister_number(psi, 2)
    assert k3 == k2 == 1
    assert cert.verify()


def test_tensor_identity_with_twisted_uniformizer():
    psi = _f("<1,t1,t2,t1*t2>")
    big = F2.extended(1)
    t = -big.var(1) * big.var(3)
    phi = tensor(pfister((t,)), lift_form(psi, big))
    k3, cert = pfister_number(phi, 3)
    assert k3 == 1 and cert.verify()


def _reduces(phi):
    """Whether _tensor_reduction factors phi's entries."""
    return _tensor_reduction(phi.field, [e.bits for e in phi.entries]) \
        is not None


def _check_tensor_reduction(raw, phi):
    """Whether _tensor_reduction factors phi's entries; asserts that a
    returned (t, residue field, tau), mapped back, gives <1,t> (x) tau'
    in phi's Witt class."""
    field = phi.field
    found = _tensor_reduction(field, [e.bits for e in phi.entries])
    if found is None:
        return False
    t, res, tau = found
    assert res == field.residue()
    _, undo = basis_change_map(t, field.nvars)
    back = [undo(b) for b in tau]
    product = back + [t ^ b for b in back]
    assert raw.vector(product) == raw.vector(
        [e.bits for e in phi.entries]), format_form(phi)
    return True


@pytest.mark.parametrize("field", [F2, FieldDesc(Base.C, 3), R2], ids=str)
def test_tensor_reduction_sound_on_every_class(field, raw_field):
    # every anisotropic form (over R those with coefficients |c| <= 2),
    # the I^2 classes among them
    raw = raw_field(field)
    hits = sum(_check_tensor_reduction(raw, phi)
               for _v, phi in raw.witt_classes() if phi.dim)
    assert hits


def test_tensor_reduction_sound_on_I3_forms(gp_lookup):
    look = gp_lookup(F5, 3)
    rng = random.Random(648)
    for dim in (12, 16):
        hits = sum(_check_tensor_reduction(
            look, _random_class(look, rng, 3, dim, (2, 3))[1])
            for _ in range(40))
        assert hits


@pytest.mark.parametrize("field", [
    F5, FieldDesc(Base.R, 3), FieldDesc(Base.C, 4),
    FieldDesc(Base.SQUARE_MINUS_ONE, 3)], ids=str)
def test_tensor_reduction_matches_the_candidate_scan(field, raw_field,
                                                     tensor_scan):
    # tau needs no anisotropic read-off: the same (t, residue field,
    # tau) or None as the scan that reads it off, on seeded I^2 and I^3
    # classes and on products <1,t> (x) tau built to factor
    raw = raw_field(field)
    rng = random.Random(1514)
    found = 0
    for n in (2, 3):
        for _ in range(100):
            v = (0,) * raw.size
            for _ in range(rng.randrange(1, 4)):
                v = raw.add(v, raw.vector(raw.pfister_bits(
                    rng.choice(raw.classes),
                    [rng.choice(raw.classes) for _ in range(n)])))
            bits = [e.bits for e in raw.form(v).entries]
            got = _tensor_reduction(field, bits)
            assert got == tensor_scan(field, bits), format_form(raw.form(v))
            found += got is not None
    for _ in range(120):
        # t has t_i as its top variable, tau lies below it
        i = rng.randrange(1, field.nvars + 1)
        t = rng.choice([c for c in raw.classes if c.bit_length() == i + 1])
        low = [c for c in raw.classes if c < 1 << i]
        tau = [rng.choice(low) for _ in range(rng.choice((1, 2, 4)))]
        product = raw.an_bits(raw.vector(tau + [t ^ b for b in tau]))
        if len(product) < 2 * len(tau):
            continue
        bits = [e.bits for e in raw.form(raw.vector(product)).entries]
        got = _tensor_reduction(field, bits)
        assert got is not None
        assert got == tensor_scan(field, bits), bits
        found += 1
    assert found


def test_fold_reduction_decides_the_lower_bound_witness(raw_field,
                                                        monkeypatch):
    # the dimension-20 witness over F3[t1..t9] is <<t>> (x) tau with
    # GP_3 = 4: the extension rule rules out three terms, and four, which
    # no other rule of the ladder decides, is GP_2(tau) over the residue
    # field, found with no generator search
    calls = _count_calls(monkeypatch, ["_tensor_reduction", "_search_sum"])
    field = FieldDesc(Base.F3, 9)
    witness, _ = lower_bound_generic(field, 20)
    k, cert = pfister_number(witness, 3)
    raw = raw_field(field)
    assert k == len(cert.terms) == 4
    assert _spec_sum(raw, cert.terms) == raw.vector(
        [e.bits for e in witness.entries])
    assert calls == {"_tensor_reduction": 1, "_search_sum": 0}


def test_fold_reduction_decides_a_gp4_product(raw_field, monkeypatch):
    # <<t5>> (x) psi at dimension 32 over F3[t1..t5] for a seeded psi of
    # dimension 16 over F3[t1..t4] with GP_3 = 3: the two-term split
    # fails, so k = 3 reaches the search branch, where the reduction
    # answers GP_3(psi) = 3
    look = raw_field(FieldDesc(Base.F3, 4))
    _v, psi = _random_class(look, random.Random(1), 3, 16, (3,))
    assert pfister_number(psi, 3)[0] == 3
    product = tensor(pfister((F5.var(5),)), lift_form(psi, F5))
    calls = _count_calls(monkeypatch, ["_tensor_reduction", "_search_sum"])
    k, cert = pfister_number(product, 4)
    raw = raw_field(F5)
    assert product.dim == 32 and k == len(cert.terms) == 3
    assert _spec_sum(raw, cert.terms) == raw.vector(
        [e.bits for e in product.entries])
    assert calls == {"_tensor_reduction": 1, "_search_sum": 0}


@pytest.mark.parametrize("field,n,dims", [
    (F5, 3, (8, 12, 14, 16)),
    (FieldDesc(Base.F3, 4), 2, (10,)),
], ids=str)
def test_ladder_decided_forms_skip_the_fold_reduction(field, n, dims,
                                                      raw_field, monkeypatch):
    # the benchmark's shapes: seeded scaled GP_3 forms at dimensions 8-16
    # and GP_2 forms at dimension 10 are decided by the ladder's exact
    # rules, so the reduction, tried only where the search would run, is
    # never called, although it would factor 30 of the 40 GP_3 forms (no
    # form of dimension 10 or 14 factors: tau would have odd dimension)
    calls = _count_calls(monkeypatch, ["_tensor_reduction", "_search_sum"])
    raw = raw_field(field)
    rng = random.Random(2626)
    factored = 0
    for dim in dims:
        for _ in range(10):
            v, phi = _random_class(raw, rng, n, dim, (1, 2, 3))
            factored += _tensor_reduction(
                field, [e.bits for e in phi.entries]) is not None
            k, cert = pfister_number(phi, n)
            assert k == len(cert.terms) and _spec_sum(raw, cert.terms) == v
    assert factored == (30 if n == 3 else 0)
    assert calls == {"_tensor_reduction": 0, "_search_sum": 0}


def test_certificate_verification_rejects_wrong_terms():
    # verify re-expands the terms' classes against the target's vector
    rng = random.Random(1515)
    phi = random_In_form(F5, 3, 14, rng)
    _k, cert = pfister_number(phi, 3)
    assert cert.verify()
    assert not PfisterCertificate(3, cert.terms[:1], cert.target).verify()
    swapped = PfisterSpec(cert.terms[0].scalar * F5.var(1),
                          cert.terms[0].slots)
    assert not PfisterCertificate(
        3, (swapped,) + cert.terms[1:], cert.target).verify()
    with pytest.raises(InternalContradictionError):
        pfnum._certificate(3, [_raw(t) for t in cert.terms[:1]], cert.target)


def test_certificate_round_trips_through_pickle():
    # the Witt vector a form keeps stays outside its fields and equality
    phi = random_In_form(F5, 3, 12, random.Random(1516))
    _k, cert = pfister_number(phi, 3)
    back = pickle.loads(pickle.dumps(cert))
    assert back == cert and back.verify()


# --- error paths ----------------------------------------------------------

def test_not_in_ideal():
    with pytest.raises(NotInIdealError):
        pfister_number(_f("<1,t1>"), 2)


def test_depth_cap_exceeded():
    f4 = FieldDesc(Base.F3, 4)
    g6 = generic_I2_form(f4, 4)
    with pytest.raises(DepthCapExceededError) as info:
        pfister_number(g6, 2, depth_cap=1)
    assert info.value.k == 2
    assert "exceeds depth_cap = 1" in str(info.value)


# an I^2 form over F3[t1..t4] with scaled P_2 above 3
_DIM14_T4 = ("<t2,t2,t1*t2,t1*t2,t3,t1*t3,t2*t4,t2*t4,t1*t2*t4,t1*t2*t3*t4,"
             "t1*t2*t3*t4,-t4,-t3*t4,-t2*t3*t4>")


# a sum of four scaled 3-fold forms over F3[t1..t5] with GP_3 = 4
_FOUR_TERMS_D22 = (
    "<1,t1,t1,t1*t3,t1*t4,t1*t4,t2*t4,t1*t2*t4,t3*t4,t2*t3*t4,t5,t5,"
    "t1*t3*t5,t1*t4*t5,t1*t2*t3*t4*t5,-t2,-t3,-t2*t3*t5,-t2*t4*t5,"
    "-t3*t4*t5,-t1*t3*t4*t5,-t2*t3*t4*t5>")


@pytest.mark.parametrize("field,text,n,k,why", [
    # GP_3 at dim 22 over F3[t1..t5]: the dimension rules out 2 terms,
    # the extension rule rules out 3, and four terms over the 11160
    # generators, with no stored 2-sumset, cost 11160^3 steps
    (F5, _FOUR_TERMS_D22, 3, 4, "over its budget"),
    # GP_2 at dim 14 over F3[t1..t4] is above 3, and four terms over the
    # 1240 scaled generators, with no stored 2-sumset, cost 1240^3 steps
    (FieldDesc(Base.F3, 4), _DIM14_T4, 2, 4, "over its budget"),
], ids=["four-terms", "over-budget"])
def test_depth_cap_reasons(field, text, n, k, why):
    with pytest.raises(DepthCapExceededError) as info:
        pfister_number(parse_form(text, field), n)
    assert info.value.k == k and info.value.reason == "budget"
    assert why in str(info.value)


def test_negative_depth_cap_is_rejected():
    g6 = generic_I2_form(F5, 4)
    for phi in (g6, DiagonalForm(F5, ())):
        with pytest.raises(ValueError, match="depth_cap"):
            pfister_number(phi, 2, depth_cap=-1)


def test_depth_cap_refusal_names_its_bound():
    # a cap below the value is the caller's bound, for the generic
    # 6-dimensional I^2 form (GP_2 = 2) and for the product <<t5>> times
    # it (GP_3 = 2) alike
    g6 = generic_I2_form(F5, 4)
    product = tensor(pfister((F5.var(5),)), g6)
    for phi, n in ((g6, 2), (product, 3)):
        with pytest.raises(DepthCapExceededError) as info:
            pfister_number(phi, n, depth_cap=1)
        assert info.value.k == 2 and info.value.reason == "depth_cap"


def test_generator_builds_keep_to_the_budget(monkeypatch):
    # S_2 of F3[t1..t6] has 2667 classes, and its generators would take
    # 341376 packs: the fold is counted from the folds of F3[t1..t5] and
    # refused before it is made.  Scaled P_2 = 3 at dim 10 there is
    # decided by the extension rule, and the dim-14 form that needs more
    # than three reaches the search at k = 4, which is refused: neither
    # S_2 nor G_2 is ever built
    monkeypatch.setattr(pfnum, "_GEN_CACHE", {})
    f6 = FieldDesc(Base.F3, 6)
    phi = random_In_form(f6, 2, 10, random.Random(6))
    assert pfister_number(phi, 2)[0] == 3
    with pytest.raises(DepthCapExceededError) as info:
        pfister_number(parse_form(_DIM14_T4, f6), 2)
    assert info.value.k == 4 and info.value.reason == "budget"
    assert "building the generators" in str(info.value)
    assert "over its budget" in str(info.value)
    assert ("S", f6, 2) not in pfnum._GEN_CACHE
    assert not any(key[0] == "G" for key in pfnum._GEN_CACHE)


def test_refusal_builds_no_large_fold(monkeypatch):
    # a GP_4 form of dimension 30 over R[t1..t5] (the random_In_form draw
    # with random.Random(0)) is not two terms, and three need the search,
    # whose S_4 has 2419 classes, over the 2048 that the budget allows
    # for 64 scalars: the refusal counts S_4 from the folds of
    # R[t1..t4], builds no fold larger than the limit and leaves S_4
    # unbuilt
    monkeypatch.setattr(pfnum, "_GEN_CACHE", {})
    field = FieldDesc(Base.R, 5)
    phi = random_In_form(field, 4, 30, random.Random(0))
    with pytest.raises(DepthCapExceededError) as info:
        pfister_number(phi, 4)
    assert info.value.reason == "budget" and info.value.k == 3
    assert ("S", field, 4) not in pfnum._GEN_CACHE
    folds = [len(v) for key, v in pfnum._GEN_CACHE.items() if key[0] == "S"]
    assert folds and max(folds) <= 2048


def test_unscaled_P3_over_F3_t6_is_searched():
    # <<t1,t2,t3>> - <<t4,t5,t6>> over F3[t1..t6]: the 3-fold classes
    # there are small enough to build for the two unscaled scalars, and
    # the search finds the two terms
    f6 = FieldDesc(Base.F3, 6)
    t = [f6.var(i) for i in range(1, 7)]
    phi = anisotropic_part(orth_sum(pfister(tuple(t[:3])),
                                    scale(f6.minus_one(),
                                          pfister(tuple(t[3:])))))
    k, cert = pfister_number(phi, 3, unscaled=True)
    assert k == 2 and cert.verify()
    assert all(term.scalar.bits in (0, 1) for term in cert.terms)


def test_search_stays_within_its_budget(raw_field):
    # deep searches refuse at once instead of running for minutes: the
    # unscaled dim-14 form over F3[t1..t4] (295 generators, S2 stored)
    # rules out 4 terms and refuses 5, which would take 295 passes over
    # S2; scaled P_2 at dim 10 over F3[t1..t5] is decided as 3 by the
    # extension rule, which builds none of its 10416 generators
    start = time.perf_counter()
    with pytest.raises(DepthCapExceededError) as info:
        pfister_number(parse_form(_DIM14_T4, FieldDesc(Base.F3, 4)), 2,
                       unscaled=True)
    assert info.value.k == 5 and "over its budget" in str(info.value)
    raw = raw_field(F5)
    rng = random.Random(3)
    for _ in range(3):
        phi = random_In_form(F5, 2, 10, rng)
        k, cert = pfister_number(phi, 2)
        assert k == len(cert.terms) == 3
        assert _spec_sum(raw, cert.terms) == raw.vector(
            [e.bits for e in phi])
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("field,unscaled,seed", [
    (FieldDesc(Base.F3, 4), False, 1),
    (FieldDesc(Base.C, 4), False, 2),
    (FieldDesc(Base.R, 2), True, 3),
], ids=["F3-scaled", "C-scaled", "R-unscaled"])
def test_search_starts_at_the_dimension_bound(monkeypatch, field, unscaled,
                                              seed):
    # k terms have dimension at most k 2^n, so a dim-10 P_2 form needs
    # at least 3: no rule of the ladder, the generator search included,
    # is asked for 2, nor for fewer terms than a remainder's dimension
    # needs
    asked = []
    decide, search = pfnum._decide_k, pfnum._search_sum

    def recorded_decide(fld, bits, n, k, unsc, cap):
        asked.append((len(bits), n, k))
        return decide(fld, bits, n, k, unsc, cap)

    def recorded(fld, bits, n, k, unsc):
        asked.append((len(bits), n, k))
        return search(fld, bits, n, k, unsc)

    monkeypatch.setattr(pfnum, "_decide_k", recorded_decide)
    monkeypatch.setattr(pfnum, "_search_sum", recorded)
    rng = random.Random(seed)
    for _ in range(3):
        phi = random_In_form(field, 2, 10, rng)
        pfister_number(phi, 2, unscaled=unscaled)
    assert (10, 2, 3) in asked
    assert all(k >= math.ceil(d / 2 ** n) for d, n, k in asked), asked


def test_scaled_P2_at_dim_10_never_searches(monkeypatch, raw_field):
    # scaled P_2 at dim 10 over F3[t1..t4] needs at least 3 terms; the
    # extension rule decides 3 (and 4 would be GP_2 peeling at d/2 - 1),
    # so the generator search is never called
    field = FieldDesc(Base.F3, 4)

    def search(*args):
        raise AssertionError(f"generator search called for k = {args[3]}")

    monkeypatch.setattr(pfnum, "_search_sum", search)
    look = raw_field(field)
    rng = random.Random(10)
    for _ in range(12):
        v, phi = _random_class(look, rng, 2, 10, (3, 4))
        k, cert = pfister_number(phi, 2)
        assert k == 3 and _spec_sum(look, cert.terms) == v


def _pass_oracle(look, n, v, terms):
    """Check a k = 3 answer for scaled GP_n of the class v against the
    lookup, which shares no code with the library.  With three terms
    (PfisterSpecs), the first is a generator and the rest of v is
    exactly two terms; with None (three ruled out), every v - g of
    anisotropic dimension at most 2^(n+1) needs more than two (a sum of
    two has no larger dimension)."""
    if terms is None:
        small = [r for r in look.differences(v)
                 if look.an_dim(r) <= 2 << n]
        assert all(look.terms(r) is None for r in small)
        return
    first = look.spec_vector(terms[0])
    assert first in look.scaled
    assert look.terms(look.add(v, look.reduce([-c for c in first]))) == 2
    assert _spec_sum(look, terms) == v


def test_pass_matches_the_search_over_F3_t4(gp_lookup):
    # scaled GP_3 beyond dimension 16 over F3[t1..t4] (620 generators),
    # at 20 and 24, the dimensions above 16 that sums of three or four
    # terms take there: the extension rule and the generator search both
    # find three terms, and both legs check out in the lookup
    field = FieldDesc(Base.F3, 4)
    look = gp_lookup(field, 3)
    rng = random.Random(1824)
    for dim in (20, 24):
        for terms in ((3,), (4,)) * 2:
            v, phi = _random_class(look, rng, 3, dim, terms)
            assert _search_sum(field, [e.bits for e in phi], 3, 3,
                               False) is not None
            k, cert = pfister_number(phi, 3)
            assert k == len(cert.terms) == 3 <= three_pfister_bound(dim)
            _pass_oracle(look, 3, v, cert.terms)


@pytest.mark.parametrize("n,dims", [(3, (18, 20, 22, 24)), (2, (10, 12))])
def test_pass_legs_over_F3_t5(gp_lookup, n, dims):
    # scaled GP_3 beyond dimension 16 and P_2 at dims 10 and 12 over
    # F3[t1..t5], where no search runs: sums of three are decided as 3,
    # within the theorem bounds, legs checked in the lookup
    look = gp_lookup(F5, n)
    bound = three_pfister_bound if n == 3 else two_pfister_bound
    rng = random.Random(5 * n)
    for dim in dims:
        for _ in range(3):
            v, phi = _random_class(look, rng, n, dim, (3,))
            k, cert = pfister_number(phi, n)
            assert k == 3 <= bound(dim)
            _pass_oracle(look, n, v, cert.terms)


def test_pass_rules_out_three_for_a_four_term_sum(gp_lookup):
    look = gp_lookup(F5, 3)
    phi = parse_form(_FOUR_TERMS_D22, F5)
    bits = [e.bits for e in phi]
    assert _extension_terms(F5, bits, 3, 3, 4) is None
    _pass_oracle(look, 3, look.vector(bits), None)


@pytest.mark.parametrize("field,n,dims", [
    (F5, 3, (18, 20, 22, 24)),
    (FieldDesc(Base.F3, 4), 2, (10, 12)),
    (FieldDesc(Base.R, 3), 2, (10, 12)),
    (FieldDesc(Base.C, 4), 2, (10, 12)),
    (FieldDesc(Base.SQUARE_MINUS_ONE, 3), 2, (10, 12)),
], ids=str)
def test_extension_scan_matches_the_pass_oracle(field, n, dims, gp_lookup):
    # the k = 3 extension rule above dimension 2^(n+1), run directly on
    # sums of three or four scaled n-fold terms at every base: three
    # terms exactly
    # when the lookup has a generator g with v - g a sum of two, with
    # legs that check out there
    look = gp_lookup(field, n)
    rng = random.Random(21 * n + field.nvars)
    for dim in dims:
        for _ in range(5):
            v, phi = _random_class(look, rng, n, dim, (3, 4))
            terms = _extension_terms(field, [e.bits for e in phi], n, 3, 3)
            assert terms is None or len(terms) == 3
            _pass_oracle(look, n, v, None if terms is None else [
                _spec(field, t) for t in terms])


@pytest.mark.parametrize("field,n,seed", [
    (FieldDesc(Base.R, 5), 4, 4),
    (FieldDesc(Base.F3, 6), 3, 6),
    (FieldDesc(Base.F3, 8), 3, 8),
], ids=str)
def test_three_terms_need_no_generators(field, n, seed, raw_field,
                                        monkeypatch):
    # sums of three scaled n-fold terms of dimension 3*2^n - 2n or more
    # (40 at n = 4, 18 at n = 3), where G_n is over the build budget: the
    # dimension rules out two, the extension rule finds three, the
    # certificates re-expand in the group ring, and no Pfister fold,
    # generator class or search is built.  The 13th and 15th draws over
    # R[t1..t5] are found only with every value of phi as an anchor: the
    # anchors of _anchors miss them, since the first term need not be an
    # orthogonal summand of phi
    monkeypatch.setattr(pfnum, "_tensor_reduction", lambda field, bits: None)
    calls = _count_calls(monkeypatch,
                         ["_generators", "_pfister_set", "_search_sum"])
    raw = raw_field(field)
    rng = random.Random(seed)
    found = 0
    while found < 15:
        v = (0,) * raw.size
        for _ in range(3):
            v = raw.add(v, raw.vector(raw.pfister_bits(
                rng.choice(raw.classes), rng.choices(raw.classes, k=n))))
        if raw.an_dim(v) < (3 << n) - 2 * n:
            continue
        k, cert = pfister_number(raw.form(v), n)
        assert k == len(cert.terms) == 3 and _spec_sum(raw, cert.terms) == v
        found += 1
    assert calls == dict.fromkeys(calls, 0)


def test_pfister_folds_are_built_once_per_field(monkeypatch):
    # one P_2 and one P_3 generator search over the same field: S_3 is
    # grown from S_2 and S_3 of F3[t1..t3], and S_2 from the folds of
    # F3[t1..t3] that S_3 also needs.  Each fold is built once and kept,
    # those of the residue fields too
    field = FieldDesc(Base.F3, 4)
    monkeypatch.setattr(pfnum, "_GEN_CACHE", {})
    t1, t2, t3, t4 = (field.var(i) for i in range(1, 5))
    assert pfister_number(scale(t1, pfister((t2, t3))), 2,
                          unscaled=True)[0] == 2
    first = {key: id(v) for key, v in pfnum._GEN_CACHE.items()
             if key[0] == "S"}
    assert pfister_number(scale(t1, pfister((t2, t3, t4))), 3,
                          unscaled=True)[0] == 2
    folds = {key: id(v) for key, v in pfnum._GEN_CACHE.items()
             if key[0] == "S"}
    assert {("S", field, 2), ("S", field, 3)} <= set(folds)
    assert ("S", field.residue(), 2) in first
    assert all(folds[key] == first[key] for key in first)


@pytest.mark.parametrize("base", list(Base), ids=lambda b: b.value)
def test_generators_match_the_lookup(gp_lookup, base):
    # the scaled and unscaled generator classes, grown from the residue
    # fields, against the conftest lookup: every base with 1-4
    # variables at n = 1-3, and at n = 4 where there are at most 32
    # classes.  Each term re-expands to its key, and no class repeats
    for nvars in range(1, 5):
        field = FieldDesc(base, nvars)
        for n in range(1, 5):
            if n == 4 and len(field.class_bits()) > 32:
                continue
            look = gp_lookup(field, n)
            for unscaled in (False, True):
                gens = _generators(field, n, unscaled)
                found = {look.vector(_expand(field, t)) for t in gens.values()}
                assert len(found) == len(gens)
                assert found == (look.unscaled if unscaled else look.scaled)
                assert all(_pack(field, _expand(field, t)) == key
                           for key, t in gens.items())


@pytest.mark.parametrize("base", list(Base), ids=lambda b: b.value)
def test_base_field_folds_match_the_group_ring(raw_field, gp_lookup, base):
    # over the base field S_n is known in closed form: at n = 0-5 its
    # keys are exactly the anisotropic expansions of the slot tuples,
    # by the group-ring oracle, each slot tuple re-expands to its key,
    # and from n = 1 on the generators are the lookup's
    field = FieldDesc(base, 0)
    raw = raw_field(field)
    for n in range(6):
        expected = set()
        for slots in itertools.product(raw.classes, repeat=n):
            v = raw.vector(raw.pfister_bits(0, slots))
            if raw.an_dim(v) == 1 << n:
                expected.add(tuple(sorted(raw.an_bits(v))))
        folds = pfnum._pfister_set(field, n, math.inf)
        assert {tuple(sorted(key)) for key in folds} == expected, n
        assert all(sorted(key) == sorted(raw.an_bits(raw.vector(
            raw.pfister_bits(0, slots)))) for key, slots in folds.items())
        for unscaled in (False, True) if n else ():
            look = gp_lookup(field, n)
            assert {look.vector(_expand(field, t)) for t in _generators(
                field, n, unscaled).values()} == (
                look.unscaled if unscaled else look.scaled)


_SUMSET_FIELDS = [F2, FieldDesc(Base.C, 3), FieldDesc(Base.SQUARE_MINUS_ONE, 2),
                  R2]


@pytest.mark.parametrize("field", _SUMSET_FIELDS, ids=str)
def test_sumset_holds_both_signs(gp_lookup, field):
    # S2 against the conftest lookup, scaled and unscaled: zero, every
    # generator and every sum of two, each once, closed under negation
    look = gp_lookup(field, 2)
    for unscaled in (False, True):
        sums = _sumset(field, 2, unscaled)
        found = {_coeffs(look, s) for s in sums}
        members = look.unscaled if unscaled else look.scaled
        assert len(found) == len(sums)
        assert found == look.sumset(unscaled) | members | {(0,) * look.size}
        assert {look.reduce([-c for c in v]) for v in found} == found


@pytest.mark.parametrize("field,unscaled,dim", [
    (FieldDesc(Base.F3, 4), True, 8), (F3V, False, 10)], ids=str)
def test_two_terms_are_ruled_out_by_one_lookup(gp_lookup, monkeypatch,
                                               field, unscaled, dim):
    # with S2 stored, a k = 2 search for a class outside S2 takes one
    # difference (the class minus zero) and no pass over the generators,
    # on ten drawn I^2 classes (the scaled generators over F3[t1..t4]
    # are too many to store S2; over F3[t1..t3] every scaled class of
    # dimension 8 lies in S2)
    look = gp_lookup(field, 2)
    assert _sumset(field, 2, unscaled) is not None
    inside = (look.unscaled if unscaled else look.scaled) | look.sumset(
        unscaled)
    taken = []

    def counted(field, w, xs, inner=pfnum._diffs):
        taken.append(len(xs))
        return inner(field, w, xs)

    monkeypatch.setattr(pfnum, "_diffs", counted)
    rng = random.Random(1059)
    ruled_out = 0
    while ruled_out < 10:
        v, phi = _random_class(look, rng, 2, dim, (3, 4))
        if v in inside:
            continue
        taken.clear()
        bits = [e.bits for e in phi.entries]
        assert _search_sum(field, bits, 2, 2, unscaled) is None
        assert taken == [1]
        ruled_out += 1


def test_search_misses_without_the_2_sumset(monkeypatch):
    # the 1240 scaled P_2 generators over F3[t1..t4] are too many to
    # store S2, so k = 2 is one pass over G, and k = 3 one pass that
    # keeps no candidate: a remainder of a dim-14 form minus a 4-dim
    # generator has dimension at least 10, above 2 * 4.  Dimension alone
    # proves both misses (10 > 2 * 4, 14 > 3 * 4)
    field = FieldDesc(Base.F3, 4)
    assert _sumset(field, 2, False) is None
    size = len(pfnum._generators(field, 2, False))
    taken = []

    def counted(field, w, xs, inner=pfnum._diffs):
        taken.append(len(xs))
        return inner(field, w, xs)

    monkeypatch.setattr(pfnum, "_diffs", counted)
    rng = random.Random(1128)
    for _ in range(3):
        bits = [e.bits for e in random_In_form(field, 2, 10, rng).entries]
        taken.clear()
        assert _search_sum(field, bits, 2, 2, False) is None
        assert taken == [size]
    taken.clear()
    bits = [e.bits for e in parse_form(_DIM14_T4, field).entries]
    assert _search_sum(field, bits, 2, 3, False) is None
    assert taken == [size]


@pytest.mark.parametrize("field", [F2, FieldDesc(Base.C, 3)], ids=str)
@pytest.mark.parametrize("unscaled", [False, True])
def test_search_sum_allows_fewer_terms(gp_lookup, field, unscaled):
    # _search_sum answers "at most k" on its own: every generator and
    # every sum of two is found at each k from its length up, through
    # the stored S2 at k = 3 and 4 as well as the recursion at k = 5
    # (over C the unscaled generators are no sums of two generators)
    look = gp_lookup(field, 2)
    assert _sumset(field, 2, unscaled) is not None
    members = look.unscaled if unscaled else look.scaled
    for v in sorted(members | look.sumset(unscaled)):
        if not any(v):
            continue
        bits = [e.bits for e in look.form(v).entries]
        least = look.terms(v, unscaled)
        for k in range(least, 6):
            found = _search_sum(field, bits, 2, k, unscaled)
            assert found is not None and least <= len(found) <= k
            assert _spec_sum(look, [_spec(field, t) for t in found]) == v


def test_hyperbolic_input_is_zero():
    k, cert = pfister_number(_f("<1,-1>"), 2)
    assert k == 0 and cert.terms == ()


# --- certificates ---------------------------------------------------------

def test_verify_rejects_terms_of_another_fold_or_field():
    # two 2-fold terms that sum to <<t1,t2,t3>>, and the real certificate
    # with its terms rebuilt over R[t1,t2,t3], carry the target's Witt
    # class on raw bits but certify no sum of 3-fold forms over F3
    t1, t2, t3 = (F3V.var(i) for i in (1, 2, 3))
    target = anisotropic_part(pfister((t1, t2, t3)))
    halves = (PfisterSpec(F3V.one(), (t1, t2)), PfisterSpec(-t3, (t1, t2)))
    assert PfisterCertificate(2, halves, target).verify()
    assert not PfisterCertificate(3, halves, target).verify()
    _, cert = pfister_number(target, 3)
    assert cert.verify()
    real = FieldDesc(Base.R, 3)
    moved = tuple(PfisterSpec(SquareClass(real, t.scalar.bits), tuple(
        SquareClass(real, a.bits) for a in t.slots)) for t in cert.terms)
    assert not PfisterCertificate(3, moved, target).verify()


def test_certificate_json():
    _, cert = pfister_number(_f("<1,t1,t2,t1*t2>"), 2)
    payload = json.loads(cert.to_json())
    assert payload["schema"] == 1
    assert payload["fold"] == 2
    assert len(payload["terms"]) == 1
    assert "witt_hash" in payload


def test_result_log_records_values():
    RESULT_LOG.clear()
    pfister_number(_f("<1,t1,t2,t1*t2>"), 2)
    assert RESULT_LOG and RESULT_LOG[-1]["value"] == 1
    assert RESULT_LOG[-1]["n"] == 2


def test_result_log_keeps_the_most_recent_records():
    RESULT_LOG.clear()
    size = RESULT_LOG.maxlen
    forms = [_f(text) for text in ("<1,t1>", "<1,t2>", "<1,t1,t2,-t1*t2>")]
    calls = [forms[i % 3] for i in range(size + 5)]
    for phi in calls:
        pfister_number(phi, 1)
    assert len(RESULT_LOG) == size
    assert [r["form"] for r in RESULT_LOG] == \
        [tuple(e.bits for e in phi) for phi in calls[-size:]]
    RESULT_LOG.clear()


# --- enumeration ----------------------------------------------------------

def test_enumerate_GPn_classes():
    classes = enumerate_GPn_classes(F1, 2)
    for phi, spec in classes:
        assert is_anisotropic(phi)
        assert is_isometric(spec.expand(), phi)
        assert phi.dim == 4
    keys = [tuple(e.bits for e in phi.entries) for phi, _ in classes]
    assert len(keys) == len(set(keys))


def test_enumerate_unscaled_subset():
    scaled = {tuple(e.bits for e in phi.entries)
              for phi, _ in enumerate_GPn_classes(F1, 2)}
    unscaled = {tuple(e.bits for e in phi.entries)
                for phi, _ in enumerate_GPn_classes(F1, 2, unscaled=True)}
    assert unscaled <= scaled


def test_enumerate_reads_no_anisotropic_part(monkeypatch, raw_field):
    # a scalar times a member of S_n is anisotropic, so each class is
    # its term's expansion: enumerating reads no anisotropic part, and
    # the forms are the classes' anisotropic parts
    field = FieldDesc(Base.F3, 4)
    raw = raw_field(field)
    for unscaled in (False, True):
        _generators(field, 3, unscaled)
    calls = _count_calls(monkeypatch, ["_an_bits"])
    for unscaled in (False, True):
        classes = enumerate_GPn_classes(field, 3, unscaled)
        assert len(classes) == len(_generators(field, 3, unscaled))
        for phi, spec in classes:
            assert sorted(e.bits for e in phi.entries) == sorted(
                raw.an_bits(raw.spec_vector(spec)))
    assert calls["_an_bits"] == 0


# --- divisibility ---------------------------------------------------------

def test_divisible_by_pfister_positive():
    pi_slots = (F3V.var(1), F3V.var(2))
    rho = DiagonalForm(F3V, (F3V.one(), F3V.var(3)))
    phi = anisotropic_part(tensor(pfister(pi_slots), rho))
    ok, quotient = divisible_by_pfister(phi, pi_slots)
    assert ok
    assert is_isometric(tensor(pfister(pi_slots), quotient), phi)


def test_divisible_by_pfister_negative():
    phi = _f("<1,t1,t2,t1*t2>")
    ok, q = divisible_by_pfister(phi, (F2.var(1) * F2.var(2),))
    assert not ok and q is None


def test_divisible_rejects_isotropic():
    with pytest.raises(IsotropicInputError):
        divisible_by_pfister(_f("<1,-1>"), (F2.var(1),))


def test_divisible_two_slots_split_but_not_divisible():
    # <1,t1> = <<-t1>> splits over F(sqrt -t1), the only slot of
    # <<-t1,-t1>>, yet is too small to be a multiple of that 4-dim form
    R1 = FieldDesc(Base.R, 1)
    phi = _f("<1,t1>", R1)
    slots = (-R1.var(1), -R1.var(1))
    assert not is_hyperbolic(pfister(slots))
    assert is_hyperbolic(extend_scalars_quadratic(phi, -R1.var(1))[1])
    assert divisible_by_pfister(phi, slots) == (False, None)


def test_divisibility_over_R_matches_splitting_oracle(raw_field):
    # one slot: phi is a multiple of <<a>> exactly when it splits over
    # F(sqrt a); every box class of R[t1,t2] and every slot, a = -1
    # (the extension to C) and a = 1 (pi hyperbolic) included
    raw = raw_field(R2)
    for v, phi in raw.witt_classes():
        bits = [e.bits for e in phi]
        for a in R2.classes():
            ok, quotient = divisible_by_pfister(phi, (a,))
            assert ok == raw.hyperbolic_over(bits, (a.bits,)), \
                (format_form(phi), str(a))
            if ok:
                pi = raw.pfister_bits(0, [a.bits])
                assert raw.vector([q.bits ^ p for q in quotient
                                   for p in pi]) == v


def test_divisibility_three_way_agreement_exhaustive(pfister_multiples,
                                                    raw_field):
    # brute-force membership in pi*W(F) == peeling == hyperbolicity
    # after extension, for every anisotropic Witt class and every
    # single-slot divisor
    field = F2
    for _v, phi in raw_field(field).witt_classes():
        if phi.dim == 0 or phi.dim > 8:
            continue
        for a in field.classes():
            pi = pfister((a,))
            ok, quotient = divisible_by_pfister(phi, (a,))
            assert ok == (witt_vector(phi) in pfister_multiples(pi))
            if is_hyperbolic(pi):
                continue
            # peeling result verifies by isometry whenever ok
            if ok:
                assert is_isometric(tensor(pi, quotient), phi)
            # third way: split over the quadratic extension by a
            _, ext = extend_scalars_quadratic(phi, a)
            assert ok == is_hyperbolic(ext), (format_form(phi), str(a))


def test_divisibility_rejects_classes_of_another_field():
    with pytest.raises(FieldMismatchError):
        divisible_by_pfister(_f("<1,t1>"), (F3V.var(1),))
    with pytest.raises(FieldMismatchError):
        common_slot(PfisterSpec(F2.one(), (F2.var(1),)),
                    PfisterSpec(F3V.one(), (F3V.var(1),)))


def test_common_slot():
    a, b, c = F3V.var(1), F3V.var(2), F3V.var(3)
    s = common_slot(PfisterSpec(F3V.one(), (a, b)),
                    PfisterSpec(F3V.one(), (a, c)))
    assert s == a
    s2 = common_slot(PfisterSpec(F3V.one(), (a, b)),
                     PfisterSpec(F3V.one(), (c, a * b * c)))
    assert s2 is not None  # linked forms always share a slot here


# --- GP_2 subforms --------------------------------------------------------

def test_find_GP2_subform():
    phi = anisotropic_part(orth_sum(
        pfister((F3V.var(1), F3V.var(2))),
        scale(F3V.var(3), pfister((F3V.var(1), F3V.var(3))))))
    found = find_GP2_subform(phi)
    assert found is not None
    spec, comp = found
    assert is_subform(spec.expand(), phi)
    assert is_isometric(orth_sum(spec.expand(), comp), phi)


def test_find_GP2_subform_too_small():
    assert find_GP2_subform(_f("<1,t1>")) is None


# --- dimension routes -----------------------------------------------------

def _sample(dim, seed):
    return random_In_form(F5, 3, dim, random.Random(seed))


@pytest.mark.parametrize("dim,expected", [(8, 1), (12, 2), (14, 2)])
def test_gp3_small_dimensions(dim, expected):
    for seed in range(3):
        phi = _sample(dim, seed)
        k, cert = pfister_number(phi, 3)
        assert k == expected
        assert cert.verify()


def _check_dim12_terms(raw, v, bits, terms):
    # two 3-fold terms summing to a 12-dimensional form are linked: they
    # share a slot a, and the form is hyperbolic over F(sqrt a)
    assert len(terms) == 2 and all(t.fold == 3 for t in terms)
    assert _spec_sum(raw, terms) == v
    a = common_slot(*terms)
    assert a is not None and raw.hyperbolic_over(bits, (a.bits,))


def test_gp3_dim12_route_minus_one_divisor(raw_field):
    # sums of two 3-fold forms sharing the slot -1, none of them a
    # product <<t>> (x) tau: the extension rule decides them
    raw = raw_field(F5)
    rng = random.Random(1212)
    for _ in range(20):
        v, phi = _random_class(raw, rng, 3, 12, (2,), (raw.minus_one,))
        assert not _reduces(phi), format_form(phi)
        k, cert = pfister_number(phi, 3)
        assert k == 2
        _check_dim12_terms(raw, v, [e.bits for e in phi], cert.terms)


def test_gp3_dim12_route_non_unit_divisor(raw_field):
    # a multiple of <<a>> with a non-unit a is a product <<t>> (x) tau
    # along a's top variable; the extension rule decides it all the same,
    # as it does the 12-dimensional remainders of the rule at dimension
    # 16, here run on the entries directly
    raw = raw_field(F5)
    rng = random.Random(1213)
    non_units = [c for c in raw.classes if c >> 1]
    for _ in range(20):
        a = rng.choice(non_units)
        v, phi = _random_class(raw, rng, 3, 12, (2,), (a,))
        assert _reduces(phi)
        bits = [e.bits for e in phi]
        _check_dim12_terms(raw, v, bits, [
            _spec(F5, t) for t in _extension_terms(F5, bits, 3, 2, 2)])


def test_gp3_dim14_route_shape(raw_field):
    # classify14 reports the normal form s(tau1' + -tau2'): scalars s
    # and -s, two anisotropic 8-dimensional terms that re-expand to phi
    raw = raw_field(F5)
    rng = random.Random(1414)
    for _ in range(40):
        v, phi = _random_class(raw, rng, 3, 14, (2, 3))
        assert not _reduces(phi), format_form(phi)
        rep = classify14(phi)
        cert = rep["certificate"]
        t1, t2 = cert.terms
        assert rep["gp3"] == 2 and t2.scalar == -t1.scalar
        assert rep["shape_ii"] and rep["shape_scalar"] == t1.scalar
        assert all(raw.an_dim(raw.spec_vector(t)) == 8 for t in cert.terms)
        assert _spec_sum(raw, cert.terms) == v


@pytest.mark.parametrize("field,dims", [
    (FieldDesc(Base.F3, 4), (12, 16)),
    (FieldDesc(Base.R, 4), (12, 14, 16)),
    (FieldDesc(Base.R, 4), (24, 28, 30)),
], ids=str)
def test_extension_rule_matches_lookup(field, dims, gp_lookup):
    # scaled GP_3 (dims up to 16) at level 2 (F3[t1..t4], which draws no
    # dimension-14 forms) and level infinity (R[t1..t4]), and scaled
    # GP_4 over R[t1..t4]: below 2^(n+1) two exactly when the lookup
    # finds two terms (always for n = 3: D(12) and D(14)), and at 16 two
    # exactly when the lookup finds at most two.  The rule is also run
    # directly on each one: at k = 2 below 2^(n+1), where it returns
    # None exactly when two terms do not suffice, and at 16 at the value
    # the lookup gives
    n = 3 if dims[-1] <= 16 else 4
    look = gp_lookup(field, n)
    rng = random.Random(1316)
    for dim in dims:
        for _ in range(16):
            v, phi = _random_class(look, rng, n, dim, (2, 3))
            expected = 2 if look.terms(v) is not None else 3
            assert n == 4 or dim == 16 or expected == 2, format_form(phi)
            k, cert = pfister_number(phi, n)
            assert k == len(cert.terms) == expected, format_form(phi)
            assert _spec_sum(look, cert.terms) == v
            if dim < 2 << n or expected == 3:
                k = 2 if dim < 2 << n else 3
                terms = _extension_terms(field, [e.bits for e in phi], n,
                                         k, k)
                assert (terms is None) == (k < expected)
                if terms is not None:
                    assert len(terms) == k
                    assert _spec_sum(
                        look, [_spec(field, t) for t in terms]) == v


def _linked_sum(raw, rng, n, r):
    """The Witt vector of x*pi1 - x*pi2 for random n-fold Pfister forms
    pi1, pi2 with r slots in common (and maybe more linkage)."""
    common = [rng.choice(raw.classes) for _ in range(r)]
    x = rng.choice(raw.classes)
    pis = [common + [rng.choice(raw.classes) for _ in range(n - r)]
           for _ in range(2)]
    return raw.add(raw.vector(raw.pfister_bits(x, pis[0])),
                   raw.vector(raw.pfister_bits(x ^ raw.minus_one, pis[1])))


@pytest.mark.parametrize("field,n,dims", [
    (FieldDesc(Base.R, 5), 4, (24, 28, 30)),
    (FieldDesc(Base.F3, 5), 4, (24,)),
    (FieldDesc(Base.C, 6), 4, (24,)),
    (FieldDesc(Base.R, 6), 5, (48, 56, 60)),
], ids=str)
def test_two_linked_terms_never_reach_the_search(field, n, dims, raw_field,
                                                 monkeypatch):
    # two scaled n-fold terms with linkage r have anisotropic dimension
    # 2^(n+1) - 2^(r+1); with the tensor reduction bypassed, the
    # extension rule answers 2 on five drawn sums at each such dimension
    # strictly between 2^n and 2^(n+1) that the field has, and the
    # generator search is never called.  Over F3[t1..t5] and C[t1..t6]
    # (six square-class bits) any two 4-fold Pfister forms share a
    # 2-fold one, so 24 is the only such dimension there.  Over R, where
    # the n-fold generators are over budget, sums with a third term in
    # that range are answered 2 or refused at k = 3, with no search too
    monkeypatch.setattr(pfnum, "_tensor_reduction", lambda field, bits: None)
    calls = _count_calls(monkeypatch, ["_search_sum"])
    raw = raw_field(field)
    rng = random.Random(45 * n + field.nvars)
    for d in dims:
        r = ((2 << n) - d).bit_length() - 2
        found = 0
        while found < 5:
            v = _linked_sum(raw, rng, n, r)
            if raw.an_dim(v) == d:
                k, cert = pfister_number(raw.form(v), n)
                assert k == 2 and _spec_sum(raw, cert.terms) == v
                found += 1
    found = 0
    while field.base is Base.R and found < 5:
        v = raw.add(_linked_sum(raw, rng, n, 0), raw.vector(raw.pfister_bits(
            rng.choice(raw.classes), rng.choices(raw.classes, k=n))))
        if not 1 << n < raw.an_dim(v) < 2 << n:
            continue
        try:
            k, cert = pfister_number(raw.form(v), n)
            assert k == 2 and _spec_sum(raw, cert.terms) == v
        except DepthCapExceededError as exc:
            assert exc.k == 3 and exc.reason == "budget"
        found += 1
    assert calls["_search_sum"] == 0


def test_extension_rule_misses_raise(raw_field, monkeypatch):
    # with every k = 2 decision made to miss, a 12-dimensional GP_3 form
    # fails the ladder's final check (no representation within the
    # theorem bound 2), and the k = 3 extension rule above dimension 16
    # fails its own guard at its first remainder below 16 (dimension 12
    # or 14; one of 16 may come first and is skipped): both raise, and
    # neither refuses nor returns another k
    raw = raw_field(F5)
    rng = random.Random(1212)
    _, phi12 = _random_class(raw, rng, 3, 12, (2,), (raw.minus_one,))
    assert not _reduces(phi12)
    decide = pfnum._decide_k

    def missing_two(field, bits, n, k, unscaled, cap):
        return None if k == 2 else decide(field, bits, n, k, unscaled, cap)

    monkeypatch.setattr(pfnum, "_decide_k", missing_two)
    with pytest.raises(InternalContradictionError, match="theorem bound 2"):
        pfister_number(phi12, 3)
    found = 0
    while found < 4:
        # a third term added to two that sum to dimension 12 or 14
        rest = _linked_sum(raw, rng, 3, rng.choice((0, 1)))
        v = raw.add(rest, raw.vector(raw.pfister_bits(
            rng.choice(raw.classes), rng.choices(raw.classes, k=3))))
        phi = raw.form(v)
        if raw.an_dim(rest) < 12 or phi.dim <= 16 or _reduces(phi):
            continue
        with pytest.raises(InternalContradictionError,
                           match="dimension 1[24] without two terms"):
            pfister_number(phi, 3)
        found += 1


def _objects_built(monkeypatch, run):
    """How many SquareClass and DiagonalForm objects run() constructs."""
    built = {SquareClass: 0, DiagonalForm: 0}
    with monkeypatch.context() as m:
        for cls in built:
            def counted(self, cls=cls, post_init=cls.__post_init__):
                built[cls] += 1
                post_init(self)

            m.setattr(cls, "__post_init__", counted)
        run()
    return built[SquareClass], built[DiagonalForm]


def test_gp3_routes_build_few_square_classes(raw_field, monkeypatch):
    # the engine runs on raw bits and builds objects only for what it
    # returns: at most one DiagonalForm per pfister_number call (the
    # certificate target; none when the input is already its canonical
    # anisotropic form), square classes for the certificate and the
    # report.  The cases: a <<-1>>-divisible dim-12 form, classify14, a
    # dim-8 product <<t>> (x) tau, a dim-16 form that is no such
    # product, and an unscaled P_2 op of the generator search with a cold
    # generator cache.  Bounds: the counts measured when the whole engine
    # moved to raw bits, plus 25 % (the object-level engine built 27, 43,
    # 30, 52 and 51 square classes).
    raw = raw_field(F5)
    rng = random.Random(77)
    _, phi12 = _random_class(raw, rng, 3, 12, (2,), (raw.minus_one,))
    _, phi14 = _random_class(raw, rng, 3, 14, (2, 3))
    _, phi8 = _random_class(raw, rng, 3, 8, (1,), (F5.var(1).bits,))
    assert _reduces(phi8)
    phi16 = _random_class(raw, rng, 3, 16, (3,))[1]
    while _reduces(phi16):
        phi16 = _random_class(raw, rng, 3, 16, (3,))[1]
    _, phi_s = _random_class(raw_field(F2), rng, 2, 8, (2, 3))

    def search():
        monkeypatch.setattr(pfnum, "_GEN_CACHE", {})
        return pfister_number(phi_s, 2, unscaled=True)

    for run, bound in ((lambda: pfister_number(phi12, 3), 25),
                       (lambda: pfister_number(phi8, 3), 15),
                       (lambda: pfister_number(phi16, 3), 35),
                       (search, 17)):
        classes, forms = _objects_built(monkeypatch, run)
        assert forms <= 1 and classes <= bound, (classes, forms)
    classes, _ = _objects_built(monkeypatch, lambda: classify14(phi14))
    assert classes <= 46


def _count_calls(monkeypatch, names):
    """A dict that counts the calls pfnum makes to each of its globals
    `names` from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, inner=getattr(pfnum, name)):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(pfnum, name, counted)
    return calls


def test_split_candidates_bound_the_splitting_scans(raw_field, monkeypatch):
    # classify16 over F3[t1..t10] and F3[t1..t12] tests only similarity
    # factors for the biquadratic pair (bounds: the 19 and 79 calls
    # measured when the split candidates became them, plus 25 %; with
    # every b = -xy for values x, y they made 1 407 and 6 147, and the
    # scans over every class 36 863 for the first form)
    calls = _count_calls(monkeypatch, ["_splits"])
    for nvars, bound in ((10, 23), (12, 98)):
        field = FieldDesc(Base.F3, nvars)
        _, phi = _random_class(raw_field(field), random.Random(1610), 3, 16,
                               (2, 3))
        calls["_splits"] = 0
        classify16(phi)
        assert 0 < calls["_splits"] <= bound, (nvars, calls)


def test_echelon_walk_bounds_the_dim16_disproof(gp_lookup, monkeypatch):
    # GP_3 = 3 forms at dimension 16 over F3[t1..t5] have no two-term
    # split; proving that walks every 3-fold subform at the anchors.
    # Filtering x by D(rest) and skipping seen classes before splitting
    # split off 30, 34, 30 and 30 entries for these forms (bound: 34
    # plus 25 %; the walk over every value split off 628, 672, 604 and
    # 616), and the echelon order keys 36, 42, 36 and 36 candidate
    # subforms (bound: 42 plus 25 %; 57, 69, 57 and 57 without it)
    look = gp_lookup(F5, 3)
    rng = random.Random(16)
    calls = _count_calls(monkeypatch, ["_split_off", "_canon_bits"])
    forms = 0
    while forms < 4:
        v, phi = _random_class(look, rng, 3, 16, (3,))
        if look.terms(v) is not None:
            continue
        forms += 1
        calls.update(dict.fromkeys(calls, 0))
        assert _orthogonal_terms(F5, [e.bits for e in phi.entries], 3) \
            is None, format_form(phi)
        assert 0 < calls["_split_off"] <= 42, (calls, format_form(phi))
        assert 0 < calls["_canon_bits"] <= 52, (calls, format_form(phi))


def _log_lengths(monkeypatch, names):
    """A list that records (name, number of entries, output) for each
    call pfnum makes to its globals `names` from now on; each takes the
    field and the entry bits first."""
    log = []
    for name in names:
        def logged(field, bits, *args, name=name, inner=getattr(pfnum, name)):
            out = inner(field, bits, *args)
            log.append((name, len(bits), out))
            return out

        monkeypatch.setattr(pfnum, name, logged)
    return log


def test_support_rules_out_the_dim16_split_before_the_walk(gp_lookup,
                                                           monkeypatch):
    # GP_3 = 3 forms at dimension 16 over F3[t1..t5] with two doubled
    # classes (the shape of the dim16 benchmark forms): the H-index
    # support rules out two terms, so the ladder walks no 16-entry form.
    # Neither does the k = 3 scan of this 22-dimensional form: each
    # 16-dimensional remainder is rejected by the support test alone
    look = gp_lookup(F5, 3)
    rng = random.Random(16)
    log = _log_lengths(monkeypatch, ["_may_split", "_orthogonal_terms"])
    forms = 0
    while forms < 4:
        v, phi = _random_class(look, rng, 3, 16, (3,))
        if v.count(2) != 2 or look.terms(v) is not None:
            continue
        forms += 1
        log.clear()
        k, cert = pfister_number(phi, 3)
        assert k == 3 and _spec_sum(look, cert.terms) == v
        assert ("_may_split", 16, False) in log, format_form(phi)
        assert ("_orthogonal_terms", 16) not in [x[:2] for x in log]
    phi = random_In_form(F5, 3, 22, random.Random(1))
    log.clear()
    k, cert = pfister_number(phi, 3)
    assert k == 3 and _spec_sum(look, cert.terms) == look.vector(
        [e.bits for e in phi.entries])
    assert log.count(("_may_split", 16, False)) >= 10
    assert ("_orthogonal_terms", 16) not in [x[:2] for x in log]


@pytest.mark.parametrize("field", [F3V, FieldDesc(Base.C, 4),
                                   FieldDesc(Base.SQUARE_MINUS_ONE, 3), R2],
                         ids=str)
def test_support_test_keeps_every_two_term_class(field, gp_lookup):
    # the support test is only necessary: of the classes of dimension 8,
    # it rejects none that the lookup finds as two scaled 2-fold terms
    # (over R those with every coefficient of size at most 8, which
    # holds all of dimension 8)
    look = gp_lookup(field, 2)
    digits = range(look.m) if look.m else range(-8, 9)
    rejected = 0
    for v in itertools.product(digits, repeat=look.size):
        if look.an_dim(v) != 8:
            continue
        bits = [e.bits for e in look.form(v).entries]
        if not pfnum._may_split(field, bits, 2):
            assert look.terms(v) is None, bits
            rejected += 1
    assert rejected or field.base is Base.R


@pytest.mark.parametrize("field,n", [
    (F5, 3), (FieldDesc(Base.C, 5), 3),
    (FieldDesc(Base.SQUARE_MINUS_ONE, 4), 3), (FieldDesc(Base.R, 4), 3),
    (FieldDesc(Base.F3, 6), 4), (FieldDesc(Base.C, 6), 4),
    (FieldDesc(Base.SQUARE_MINUS_ONE, 5), 4), (FieldDesc(Base.R, 4), 4)],
    ids=str)
def test_support_test_keeps_two_term_draws(field, n, raw_field):
    # seeded sums of two scaled n-fold forms of dimension 2^(n+1), which
    # one term cannot reach; over F3 and R both terms have a <<-1>>
    # factor one time in two, which over R puts 2^m entries at each
    # index of a term's coset for m >= 1 and over F3 doubles entries
    # (-1 is a square over C and F3(i))
    raw = raw_field(field)
    rng = random.Random(2400 + 10 * n + field.nvars)
    factored = 0
    for _ in range(40):
        fixed = (raw.minus_one,) if raw.minus_one and rng.random() < 0.5 \
            else ()
        v, phi = _random_class(raw, rng, n, 2 << n, (2,), fixed)
        bits = [e.bits for e in phi.entries]
        assert pfnum._may_split(field, bits, n), format_form(phi)
        factored += len(set(bits)) < len(bits)
    assert factored or field.base in (Base.C, Base.SQUARE_MINUS_ONE)


def test_gp3_dim16_at_most_three():
    for seed in range(3):
        phi = _sample(16, seed)
        k, cert = pfister_number(phi, 3)
        assert k <= 3 and cert.verify()


def test_classify14_report():
    phi = _sample(14, 4)
    rep = classify14(phi)
    assert rep["gp3"] == 2
    assert rep["certificate"].verify()
    assert is_subform(rep["gp2_subform"].expand(), phi)
    assert rep["conditions_i_iii"]


def test_classify16_report(raw_field):
    phi = _sample(16, 4)
    rep = classify16(phi)
    assert rep["gp3"] <= 3
    total = DiagonalForm(F5, ())
    for spec in rep["gp2_decomposition"]:
        total = orth_sum(total, spec.expand())
    assert is_isometric(total, phi)
    a, b = (c.bits for c in rep["splitting_pair"])
    assert b not in (0, a)
    assert raw_field(F5).hyperbolic_over([e.bits for e in phi], (a, b))


@pytest.mark.parametrize("field", [F5, FieldDesc(Base.R, 4)], ids=str)
def test_classification_witnesses_come_from_the_ladder(field, gp_lookup,
                                                       monkeypatch):
    # each report builds one certificate and walks no GP_2 subform with
    # find_GP2_subform; its witnesses re-expand here: at dimension 16 the
    # four GP_2 summands (from the certificate at GP_3 = 2, from one
    # walk at 3) sum to phi, each anisotropic of dimension 4, and at
    # dimensions 14 and 16 the GP_2 subform plus its complement is phi
    look = gp_lookup(field, 3)
    rng = random.Random(1416)
    calls = _count_calls(monkeypatch, ["_certificate", "find_GP2_subform"])
    for dim, classify, want in ((14, classify14, {2: 4}),
                                (16, classify16, {2: 4, 3: 4})):
        for _ in range(400):
            if not want:
                break
            v, phi = _random_class(look, rng, 3, dim, (2, 3))
            k = 2 if look.terms(v) is not None else 3
            if not want.get(k):
                continue
            want[k] -= 1
            if not want[k]:
                del want[k]
            calls.update(dict.fromkeys(calls, 0))
            rep = classify(phi)
            assert rep["gp3"] == k, format_form(phi)
            assert calls == {"_certificate": 1, "find_GP2_subform": 0}
            sub, comp = rep["gp2_subform"], rep["gp2_complement"]
            assert len(sub.slots) == 2 and comp.dim == dim - 4
            assert look.an_dim(look.spec_vector(sub)) == 4
            assert look.add(look.spec_vector(sub), look.vector(
                [e.bits for e in comp.entries])) == v, format_form(phi)
            if dim == 16:
                four = rep["gp2_decomposition"]
                assert len(four) == 4 and _spec_sum(look, four) == v
                assert all(len(t.slots) == 2
                           and look.an_dim(look.spec_vector(t)) == 4
                           for t in four), format_form(phi)
        assert not want, (dim, want)


def test_splitting_pair_is_the_first_oracle_pair(raw_field):
    # the reported pair is the first (a, b) in field.classes() order,
    # b outside {1, a}, over whose biquadratic extension the oracle
    # finds phi hyperbolic; this pins the order the CLI prints
    raw = raw_field(F5)
    for seed in range(100, 120):
        phi = _sample(16, seed)
        bits = [e.bits for e in phi]
        first = next((a, b) for a in raw.classes[1:] for b in raw.classes
                     if b not in (0, a) and raw.hyperbolic_over(bits, (a, b)))
        pair = classify16(phi)["splitting_pair"]
        assert tuple(c.bits for c in pair) == first, format_form(phi)


SMALL_FIELDS = [F2, R2, FieldDesc(Base.C, 3),
                FieldDesc(Base.SQUARE_MINUS_ONE, 2)]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_biquadratic_splitting_matches_brute_force(field, raw_field):
    # on every anisotropic form (over R those with |c| <= 2), the pair
    # found on split candidates is the first pair in the class order,
    # b outside {1, a}, of a scan over every pair with the oracle
    raw = raw_field(field)
    for _v, phi in raw.witt_classes():
        bits = [e.bits for e in phi.entries]
        first = next(((a, b) for a in raw.classes[1:] for b in raw.classes
                      if b not in (0, a)
                      and raw.hyperbolic_over(bits, (a, b))), None)
        assert _biquadratic_splitting(field, bits) == first, format_form(phi)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_common_slot_matches_brute_force(field, raw_field):
    # the first d != 1 over whose F(sqrt d) both scaled 1- or 2-fold
    # Pfister forms split, by a scan over every class with the oracle
    raw = raw_field(field)
    rng = random.Random(523)
    classes = list(field.classes())
    for _ in range(200):
        specs = [PfisterSpec(rng.choice(classes), tuple(
            rng.choice(classes) for _ in range(rng.randrange(1, 3))))
            for _ in range(2)]
        forms = [raw.pfister_bits(t.scalar.bits, [s.bits for s in t.slots])
                 for t in specs]
        first = next((d for d in raw.classes[1:] if all(
            raw.hyperbolic_over(f, (d,)) for f in forms)), None)
        found = common_slot(*specs)
        assert (None if found is None else found.bits) == first, \
            tuple(map(str, specs))


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_pfister_subforms_find_every_class_once(field, raw_field):
    # at each anchor e, the walk yields one e<<slots>> per isometry class
    # of scaled n-fold Pfister subforms representing e, and its
    # complement re-expands to the form.  Oracle: every slot tuple,
    # keeping the anisotropic e<<slots>> that embed (Witt index
    # criterion), each class keyed by its Witt vector
    raw = raw_field(field)
    pfisters = {n: {raw.vector(raw.pfister_bits(0, slots)): slots
                    for slots in itertools.combinations_with_replacement(
                        raw.classes, n)}
                for n in (1, 2, 3)}
    for v, phi in raw.witt_classes():
        bits = [e.bits for e in phi.entries]
        for n, reps in pfisters.items():
            if len(bits) < 1 << n:
                continue
            for e in raw.classes:
                want = set()
                for slots in reps.values():
                    sub = raw.vector(raw.pfister_bits(e, slots))
                    rest = raw.add(v, raw.reduce([-c for c in sub]))
                    if raw.an_dim(sub) == 1 << n \
                            and raw.an_dim(rest) == len(bits) - (1 << n):
                        want.add(sub)
                found = []
                for e2, slots, comp in _pfister_subforms(field, bits, n,
                                                         (e,)):
                    sub = raw.vector(raw.pfister_bits(e2, slots))
                    assert e2 == e and len(comp) == len(bits) - (1 << n)
                    assert raw.add(sub, raw.vector(comp)) == v
                    found.append(sub)
                assert len(found) == len(set(found)) and set(found) == want, \
                    (format_form(phi), n, e)


@pytest.mark.parametrize("field", [
    FieldDesc(Base.F3, 4), FieldDesc(Base.R, 3), FieldDesc(Base.C, 4),
    FieldDesc(Base.SQUARE_MINUS_ONE, 3)], ids=str)
def test_orthogonal_terms_decompose_sums_of_two_fold_forms(field,
                                                           raw_field):
    # an anisotropic orthogonal sum of 3 or 4 scaled 2-fold Pfister forms
    # splits into as many terms that re-expand to it, and the complement
    # of the first subform found at the anchors splits too, so no sum
    # here needs _orthogonal_terms to back up (none did in a sweep of
    # 29 098 such sums over these fields, F3[t1..t3] and R[t1,t2])
    raw = raw_field(field)
    rng = random.Random(1402)
    found = 0
    while found < 20:
        m = rng.choice((3, 4))
        entries = []
        for _ in range(m):
            entries += raw.pfister_bits(rng.choice(raw.classes), (
                rng.choice(raw.classes), rng.choice(raw.classes)))
        v = raw.vector(entries)
        if raw.an_dim(v) != len(entries):
            continue
        found += 1
        bits = sorted(raw.an_bits(v), key=lambda b: (b & 1, b >> 1))
        terms = _orthogonal_terms(field, bits, 2)
        assert terms is not None and len(terms) == m, bits
        total = (0,) * raw.size
        for e, slots in terms:
            sub = raw.vector(raw.pfister_bits(e, slots))
            assert raw.an_dim(sub) == 4
            total = raw.add(total, sub)
        assert total == v, bits
        _, _, comp = next(_pfister_subforms(field, bits, 2,
                                            _anchors(field, bits)))
        assert _orthogonal_terms(field, comp, 2) is not None, bits


def test_orthogonal_terms_backs_up_from_the_first_subform(raw_field):
    # three-term sums of scaled 2-fold forms over F3[t1..t5] at dim 12:
    # in 7 of these 20 draws the first subform found at the anchors
    # leaves a complement with no decomposition, so the terms are found
    # only by trying the next subform
    raw = raw_field(F5)
    rng = random.Random(3)
    backed_up = 0
    for _ in range(20):
        bits = [e.bits for e in random_In_form(F5, 2, 12, rng).entries]
        _, _, comp = next(_pfister_subforms(F5, bits, 2, _anchors(F5, bits)))
        backed_up += _orthogonal_terms(F5, comp, 2) is None
        terms = _orthogonal_terms(F5, bits, 2)
        assert terms is not None and len(terms) == 3, bits
        total = (0,) * raw.size
        for e, slots in terms:
            total = raw.add(total, raw.vector(raw.pfister_bits(e, slots)))
        assert total == raw.vector(bits), bits
    assert backed_up == 7


def test_classify_dimension_checks():
    with pytest.raises(ValueError):
        classify14(_f("<1,t1>"))
    with pytest.raises(ValueError):
        classify16(_f("<1,t1>"))


def test_classify_rejects_forms_outside_I3():
    rng = random.Random(1416)
    for dim, classify in ((14, classify14), (16, classify16)):
        while True:
            phi = DiagonalForm(F5, tuple(
                F5.random_class(rng) for _ in range(dim)))
            if is_anisotropic(phi) and in_In(phi, 2) and not in_In(phi, 3):
                break
        with pytest.raises(NotInIdealError):
            classify(phi)


# --- unscaled -------------------------------------------------------------

def test_unscaled_at_most_double():
    rng = random.Random(31)
    for _ in range(10):
        psi = random_In_form(F2, 2, 8, rng, allow_smaller=True)
        if psi.dim == 0:
            continue
        kg, _ = pfister_number(psi, 2)
        ku, cert = pfister_number(psi, 2, unscaled=True)
        assert kg <= ku <= 2 * kg
        assert cert.verify()
        for term in cert.terms:
            assert term.scalar in (F2.one(), -F2.one())


# --- bounds ---------------------------------------------------------------

def test_two_pfister_bound():
    assert [two_pfister_bound(d) for d in (0, 2, 4, 6, 8, 10)] == \
        [0, 0, 1, 2, 3, 4]


def test_three_pfister_bound_table():
    assert [three_pfister_bound(d) for d in (0, 6, 8, 10, 12, 14)] == \
        [0, 0, 1, 1, 2, 2]
    assert three_pfister_bound(16) == 3
    assert three_pfister_bound(18) == 6
    with pytest.raises(ValueError):
        three_pfister_bound(7)


def test_theorem_bound_closed_form(poly_bound):
    # ceil(p_n(d)) for the paper's recursion p_3 = X^2/16, p_n = 1 +
    # 2 p_(n-1)(X/2), read off the closed form in integers
    for n in range(4, 11):
        assert [_theorem_bound(n, d) for d in range(0, 401, 2)] == \
            [poly_bound(n, d) for d in range(0, 401, 2)], n


# --- sampler --------------------------------------------------------------

def test_random_In_form_hits_requested_dimension():
    rng = random.Random(2)
    for dim in (8, 12, 14, 16):
        phi = random_In_form(F5, 3, dim, rng)
        assert phi.dim == dim
        assert is_anisotropic(phi)
        assert in_In(phi, 3)


class _NoDraws(random.Random):
    def randrange(self, *args):
        raise AssertionError("a draw was made")


def test_random_In_form_impossible_dimension():
    # rejected before the first draw: no anisotropic I^n form has this
    # dimension (odd, nonzero below 2^n, or strictly between 2^n and
    # 2^(n+1) and no linkage dimension 2^(n+1) - 2^(r+1): Karpenko)
    for n, dim in ((3, 10), (3, 9), (3, 6), (2, 2), (2, -2), (4, 18),
                   (4, 26), (5, 40)):
        with pytest.raises(ValueError):
            random_In_form(F5, n, dim, _NoDraws())


def test_random_In_form_unreachable_dimension():
    # the sampler adds at most three n-fold terms, so a dimension above
    # 3 * 2^n is rejected before the first draw
    for n, dim in ((2, 14), (3, 26)):
        with pytest.raises(ValueError):
            random_In_form(F5, n, dim, _NoDraws())


def test_random_In_form_below_2_to_the_n_is_the_zero_form():
    # only the zero form has dimension below 2^n (Arason-Pfister
    # Hauptsatz), so no n-fold term is drawn or expanded to 2^n entries
    for n, dim, allow_smaller in ((30, 4, True), (30, 0, False)):
        phi = random_In_form(FieldDesc(Base.F3, 1), n, dim, _NoDraws(),
                             allow_smaller=allow_smaller)
        assert phi == DiagonalForm(FieldDesc(Base.F3, 1), ())


def test_anisotropic_parts_keep_no_state():
    # seeded GP_3 draws at d = 18-24 and GP_4 draws at d = 30-40 over
    # F3[t1..t6], answered or refused, leave nothing behind in _an_bits,
    # which reads its entries in any order
    from rigidwitt import witt

    f6 = FieldDesc(Base.F3, 6)
    minus_one = witt._minus_one(f6)
    for n, dims in ((3, (18, 20, 22, 24)), (4, (30, 32, 34, 36, 38, 40))):
        for d in dims:
            rng = random.Random(700 + d)
            for _ in range(3):
                phi = random_In_form(f6, n, d, rng)
                try:
                    pfister_number(phi, n)
                except DepthCapExceededError:
                    pass
                # phi minus every other entry of phi: half of it cancels
                entries = [e.bits for e in phi.entries]
                mixed = entries + [b ^ minus_one for b in entries[::2]]
                an = witt._an_bits(f6, mixed)
                assert an == witt._an_bits(f6, mixed[::-1])
                assert an == witt._an_bits(f6, iter(mixed))
                assert len(an) == d // 2
    assert witt._an_bits.cache_info().currsize == 0


def test_random_In_form_admissible_dimensions_still_draw():
    # allow_smaller never rejects (0 qualifies); running out of tries on
    # an admissible dimension is a library error
    assert random_In_form(F5, 3, 10, random.Random(0),
                          allow_smaller=True).dim in (0, 8)
    with pytest.raises(RigidWittError):
        random_In_form(F5, 3, 8, random.Random(0), max_tries=0)
