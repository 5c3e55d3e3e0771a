"""Acceptance criteria: one pass/fail line per criterion.

Run with `pytest -v` (add `-s` to see the lines live).  Criteria 2-4
share one seeded sample pool (criterion 4 adds forms that only the
two-term split decides); criterion 8 computes its own seeded Pfister
numbers and checks them against their bounds and an oracle.
"""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

from rigidwitt.ideals import extend_scalars_quadratic, in_In, lift_form
from rigidwitt.pfnum import (
    BoundPoly,
    _tensor_reduction,
    classify14,
    classify16,
    divisible_by_pfister,
    faulhaber_sum,
    generic_I2_form,
    lower_bound_generic,
    pfister_number,
    poly_bound,
    random_In_form,
    three_pfister_bound,
    two_pfister_bound,
)
from rigidwitt.qform import (
    DiagonalForm,
    discriminant,
    is_isometric,
    is_subform,
    orth_sum,
    pfister,
    tensor,
)
from rigidwitt.sqclass import Base, FieldDesc
from rigidwitt.witt import (
    anisotropic_part,
    group_ring_equal,
    is_hyperbolic,
    represents,
    value_set,
    witt_vector,
)

F5 = FieldDesc(Base.F3, 5)
SAMPLES_PER_DIM = 200


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@functools.lru_cache(maxsize=None)
def _samples(dim: int) -> tuple:
    """Seeded random anisotropic I^3 forms over F3[t1..t5].

    Dimension 10 does not occur in I^3 (the gap below 12), so that
    request samples dimension at most 10, realized as 0 or 8.
    """
    rng = random.Random(1000 + dim)
    allow_smaller = dim == 10
    return tuple(
        random_In_form(F5, 3, dim, rng, allow_smaller=allow_smaller)
        for _ in range(SAMPLES_PER_DIM))


@functools.lru_cache(maxsize=None)
def _gp3(phi: DiagonalForm):
    return pfister_number(phi, 3)


def test_criterion_1_generic_pfister_numbers():
    ok = True
    for base in (Base.F3, Base.R, Base.C):
        for n, expected in ((2, 1), (4, 2)):
            field = FieldDesc(base, n)
            start = time.monotonic()
            k, cert = pfister_number(generic_I2_form(field, n), 2)
            elapsed = time.monotonic() - start
            if k != expected or not cert.verify() or elapsed >= 10:
                ok = False
    _report(1, ok, "GP_2 of generic dim-4/dim-6 forms = 1/2 over F3, R, C")


def test_criterion_2_gp3_table():
    start = time.monotonic()
    expected_max = {8: 1, 10: 1, 12: 2, 14: 2}
    observed = {}
    ok = True
    for dim in (8, 10, 12, 14, 16):
        best = 0
        for phi in _samples(dim):
            if phi.dim == 0:
                continue
            k, cert = _gp3(phi)
            if not cert.verify():
                ok = False
            best = max(best, k)
        observed[dim] = best
    for dim, want in expected_max.items():
        if observed[dim] != want:
            ok = False
    if observed[16] > 3:
        ok = False
    witness, value = lower_bound_generic(F5, 12)
    k12, _ = pfister_number(witness, 3)
    if not (value == 2 and k12 == 2):
        ok = False
    elapsed = time.monotonic() - start
    if elapsed > 30 * 60:
        ok = False
    _report(2, ok,
            f"max GP_3 over {SAMPLES_PER_DIM} samples/dim: {observed} "
            f"(dim-12 extremum witnessed; {elapsed:.0f}s)")


def test_criterion_3_d14():
    failures = 0
    for phi in _samples(14):
        rep = classify14(phi)
        cert = rep["certificate"]
        if not (rep["gp3"] == 2 and len(cert.terms) == 2 and cert.verify()):
            failures += 1
            continue
        if not is_subform(rep["gp2_subform"].expand(), phi):
            failures += 1
    _report(3, failures == 0,
            f"2-term certificates and GP_2 subforms on all "
            f"{SAMPLES_PER_DIM} dim-14 instances ({failures} failures)")


def _split_samples(raw, count: int) -> list:
    """Seeded anisotropic dim-16 sums of two scaled 3-fold Pfister forms
    over F3[t1..t5] that no tensor reduction factors: only the two-term
    split decides them.  Built and reduced in the group ring."""
    rng = random.Random(1616)
    out = []
    while len(out) < count:
        bits = []
        for _ in range(2):
            scalar, *slots = (rng.choice(raw.classes) for _ in range(4))
            bits += raw.pfister_bits(scalar, slots)
        v = raw.vector(bits)
        if raw.an_dim(v) == 16 and _tensor_reduction(raw.form(v)) is None:
            out.append(raw.form(v))
    return out


def test_criterion_4_dim16_classification(gp_lookup, raw_field):
    # the exact GP_3 of every sample is read off the lookup of all GP_3
    # classes: 2 if it is a sum of two of them, else 3.  Random forms
    # almost never need the two-term split, so 20 samples that only it
    # decides ride along.
    look = gp_lookup(F5, 3)
    raw = raw_field(F5)
    samples = list(_samples(16)) + _split_samples(raw, 20)
    routes = {"tensor reduction": 0, "two-term split": 0, "dim-16 route": 0}
    failures = 0
    for phi in samples:
        bits = [e.bits for e in phi.entries]
        two = look.terms(look.vector(bits))
        oracle = 3 if two is None else two
        if _tensor_reduction(phi) is not None:
            routes["tensor reduction"] += 1
        elif oracle == 2:
            routes["two-term split"] += 1
        else:
            routes["dim-16 route"] += 1
        rep = classify16(phi)
        if not (rep["gp3"] == oracle and rep["certificate"].verify()):
            failures += 1
            continue
        total = DiagonalForm(F5, ())
        for spec in rep["gp2_decomposition"]:
            total = orth_sum(total, spec.expand())
        if len(rep["gp2_decomposition"]) != 4 or not is_isometric(total, phi):
            failures += 1
            continue
        a, b = (c.bits for c in rep["splitting_pair"])
        if b in (0, a) or not raw.hyperbolic_over(bits, (a, b)):
            failures += 1
    _report(4, failures == 0 and routes["two-term split"] >= 20,
            f"GP_3 = oracle value <= 3, 4-term GP_2 decompositions and "
            f"biquadratic splittings on all {len(samples)} dim-16 "
            f"instances ({failures} failures); decided by {routes}")


def test_criterion_5_sharpness_at_16():
    start = time.monotonic()
    # mandatory small instance first: 4 variables, GP_2 = 2, GP_3 = 2
    f4 = FieldDesc(Base.F3, 4)
    psi4 = generic_I2_form(f4, 4)
    k2_small, _ = pfister_number(psi4, 2)
    big4 = f4.extended(1)
    prod4 = tensor(pfister((big4.var(5),)), lift_form(psi4, big4))
    k3_small, _ = pfister_number(prod4, 3)
    ok = k2_small == 2 and k3_small == 2
    # the 6-variable sharpness instance
    f6 = FieldDesc(Base.F3, 6)
    psi8 = generic_I2_form(f6, 6)
    k2, cert2 = pfister_number(psi8, 2)
    big = f6.extended(1)
    product = tensor(pfister((big.var(7),)), lift_form(psi8, big))
    k3, cert3 = pfister_number(product, 3)
    ok = ok and k2 == 3 and k3 == 3 and cert2.verify() and cert3.verify()
    elapsed = time.monotonic() - start
    if elapsed > 60 * 60:
        ok = False
    _report(5, ok,
            f"GP_2(generic dim-8) = 3 over 6 vars; tensor identity gives "
            f"GP_3 = 3 ({elapsed:.1f}s; 4-var fallback instance also exact)")


def test_criterion_6_tensor_lift_identities():
    rng = random.Random(606)
    failures = 0
    for _ in range(50):
        base = rng.choice([Base.F3, Base.R, Base.C])
        field = FieldDesc(base, rng.randrange(1, 4))
        psi = random_In_form(field, 2, 8, rng, allow_smaller=True)
        k2, _ = pfister_number(psi, 2)
        big = field.extended(1)
        product = tensor(pfister((big.var(big.nvars),)), lift_form(psi, big))
        k3, cert = pfister_number(product, 3)
        if k3 != k2 or not cert.verify():
            failures += 1
        k2_lift, _ = pfister_number(lift_form(psi, big), 2)
        if k2_lift != k2:
            failures += 1
    _report(6, failures == 0,
            f"GP_3(<<t>> x psi) = GP_2(psi) and fresh-variable invariance "
            f"on 50 random I^2 forms ({failures} failures)")


def test_criterion_7_oracle_equivalences(pfister_multiples, raw_field,
                                         springer):
    discrepancies = 0
    # (a) anisotropic parts and group-ring equality vs the Springer
    # recursion of conftest, 10^4 pairs
    rng = random.Random(707)
    for _ in range(10_000):
        base = rng.choice(list(Base))
        field = FieldDesc(base, rng.randrange(0, 4))

        def rand_form():
            return DiagonalForm(field, tuple(
                field.random_class(rng) for _ in range(rng.randrange(0, 7))))

        phi, psi = rand_form(), rand_form()
        an_phi, an_psi = (springer(field, [e.bits for e in f])
                          for f in (phi, psi))
        if sorted(e.bits for e in anisotropic_part(phi).entries) != an_phi:
            discrepancies += 1
        if group_ring_equal(phi, psi) != (an_phi == an_psi):
            discrepancies += 1
    # (b) value_set vs represents, exhaustive dims <= 4 (the zero form
    # and isotropic forms included); the independent oracle reads the
    # represented classes off the group-ring vector: an isotropic form
    # represents every class, the zero form none, and an anisotropic
    # phi represents x iff an-dim(phi + <-x>) = dim - 1
    for base in Base:
        for nvars in range(4):
            field = FieldDesc(base, nvars)
            raw = raw_field(field)
            classes = list(field.classes())
            for dim in range(5):
                for combo in itertools.combinations_with_replacement(
                        classes, dim):
                    phi = DiagonalForm(field, combo)
                    bits = [e.bits for e in combo]
                    isotropic = raw.an_dim(raw.vector(bits)) < dim
                    vs = value_set(phi)
                    for x in classes:
                        if isotropic:
                            oracle = True
                        else:
                            oracle = dim > 0 and raw.an_dim(raw.vector(
                                bits + [x.bits ^ raw.minus_one])) == dim - 1
                        if (x in vs) != represents(phi, x) or \
                                oracle != (x in vs):
                            discrepancies += 1
    # (c) in_In(., 2) vs even dimension + trivial discriminant,
    # exhaustive dims <= 6 over nvars <= 2
    for base in Base:
        for nvars in range(3):
            field = FieldDesc(base, nvars)
            classes = list(field.classes())
            for dim in range(7):
                for combo in itertools.combinations_with_replacement(
                        classes, dim):
                    phi = DiagonalForm(field, combo)
                    expected = dim % 2 == 0 and discriminant(phi).is_one()
                    if in_In(phi, 2) != expected:
                        discrepancies += 1
    # (d) divisible_by_pfister three ways: brute-force membership of the
    # Witt vector in pi*W(F), verified peeling quotient, and (single
    # slot) hyperbolicity after the quadratic extension; exhaustive over
    # all anisotropic Witt classes of dim <= 8 with nvars <= 2 and one
    # or two slots over the finite Witt rings, sampled at nvars = 3
    def check_divisibility(phi, slots):
        nonlocal discrepancies
        pi = pfister(slots)
        ok, quotient = divisible_by_pfister(phi, slots)
        if ok != (witt_vector(phi) in pfister_multiples(pi)):
            discrepancies += 1
        if ok and not is_isometric(tensor(pi, quotient), phi):
            discrepancies += 1
        if len(slots) == 1 and not is_hyperbolic(pi):
            _, ext = extend_scalars_quadratic(phi, slots[0])
            if ok != is_hyperbolic(ext):
                discrepancies += 1

    for base in (Base.F3, Base.C, Base.SQUARE_MINUS_ONE):
        for nvars in range(3):
            field = FieldDesc(base, nvars)
            classes = list(field.classes())
            slot_choices = [(a,) for a in classes] + list(
                itertools.combinations_with_replacement(classes[1:], 2))
            for _v, phi in raw_field(field).witt_classes():
                if phi.dim == 0 or phi.dim > 8:
                    continue
                for slots in slot_choices:
                    check_divisibility(phi, slots)
    rng = random.Random(717)
    f3v = FieldDesc(Base.F3, 3)
    for _ in range(300):
        phi = anisotropic_part(DiagonalForm(f3v, tuple(
            f3v.random_class(rng) for _ in range(rng.randrange(1, 9)))))
        if phi.dim == 0:
            continue
        check_divisibility(phi, (f3v.random_class(rng),))
    _report(7, discrepancies == 0,
            f"group-ring/Springer, value-set, I^2 and divisibility oracles "
            f"agree ({discrepancies} discrepancies)")


def _gp_bound(n: int, d: int, unscaled: bool) -> int:
    if n == 2:
        bound = two_pfister_bound(d)
    elif n == 3:
        bound = three_pfister_bound(d)
    else:
        bound = math.ceil(poly_bound(n)(d))
    return 2 * bound if unscaled else bound


def test_criterion_8_bounds(gp_lookup):
    ok = three_pfister_bound(16) == 3
    # seeded exact GP values: each within its bound, and equal to the
    # lookup of all (un)scaled Pfister classes where that value is at
    # most 2 (at least 3 where the lookup finds no two-term sum)
    rng = random.Random(808)
    cases = [(F5, 3, d, False) for d in (8, 12, 14, 16) for _ in range(4)]
    f3v = FieldDesc(Base.F3, 3)
    cases += [(f3v, 2, d, u) for d in (4, 6, 8, 10, 12)
              for u in (False, True) for _ in range(2)]
    cases += [(FieldDesc(Base.F3, 4), 4, d, False) for d in (16, 32)
              for _ in range(2)]
    for field, n, d, unscaled in cases:
        phi = random_In_form(field, n, d, rng)
        k, cert = pfister_number(phi, n, unscaled=unscaled)
        look = gp_lookup(field, n)
        oracle = look.terms(look.vector([e.bits for e in phi.entries]),
                            unscaled)
        if k > _gp_bound(n, d, unscaled) or not cert.verify():
            ok = False
        if k != oracle and not (oracle is None and k >= 3):
            ok = False
    # faulhaber_sum against direct summation, degree <= 6, n <= 100
    for degree in range(7):
        q = BoundPoly(tuple(Fraction(1, i + 1) for i in range(degree + 1)))
        p = faulhaber_sum(q)
        for n in (1, 7, 42, 100):
            if p(n) != sum(q(k) for k in range(1, n + 1)):
                ok = False
    p4 = poly_bound(4)
    if p4.coeffs != (Fraction(1), Fraction(0), Fraction(1, 32)):
        ok = False
    vals = [p4(x) for x in (0, 2, 5, 11, 26, 64, 150)]
    if not all(a < b for a, b in zip(vals, vals[1:])):
        ok = False
    _report(8, ok,
            f"three_pfister_bound(16)=3; {len(cases)} seeded GP values "
            f"within bounds and equal to the oracle; faulhaber and "
            f"poly_bound(4) exact and monotone")
