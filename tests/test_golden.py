"""One SHA-256 over library outputs from seeded inputs.

The digest covers exact GP_3 values with their certificate terms as raw
class bits, the classify14/classify16 reports, and scaled and unscaled
P_2 ops on every base (most of them decided by the generator search).
A change meant to keep every output must keep the digest; a change that
alters an output on purpose records the new digest and says why.  A
second digest, VALUES, covers the same records with every certificate's
terms and every witness left out: it pins the exact values alone, so a
change that finds other (verified) witnesses keeps it.  The inputs are
drawn in the conftest group ring, not by the library.  A third digest
covers the library's own sampler, random_In_form.
"""

import hashlib
import json
import random

import pytest

from rigidwitt.errors import RigidWittError
from rigidwitt.pfnum import (
    PfisterCertificate,
    classify14,
    classify16,
    pfister_number,
    random_In_form,
)
from rigidwitt.qform import DiagonalForm, PfisterSpec
from rigidwitt.sqclass import Base, FieldDesc, SquareClass

GOLDEN = "e87c54ce9aa9849adecf61d534d76cf8e1e7e8af5766daafcbb5c66a85087cee"
VALUES = "7521f212e6e97827ee46cddcc9c3e6e66087cf2f20ade8654ce7f9b57211419a"

F5 = FieldDesc(Base.F3, 5)
SEARCH_FIELDS = (FieldDesc(Base.F3, 2), FieldDesc(Base.R, 2),
                 FieldDesc(Base.C, 3), FieldDesc(Base.SQUARE_MINUS_ONE, 2))


def _draw(raw, rng, n, dims, fixed=(), tries=20000):
    """The anisotropic part of a random sum of one to three scaled n-fold
    Pfister forms, each starting with the slots `fixed`, whose dimension
    lies in dims.  Fails after `tries` draws that miss dims."""
    for _ in range(tries):
        bits = []
        for _ in range(rng.randrange(1, 4)):
            slots = list(fixed) + [rng.choice(raw.classes)
                                   for _ in range(n - len(fixed))]
            bits += raw.pfister_bits(rng.choice(raw.classes), slots)
        v = raw.vector(bits)
        if raw.an_dim(v) in dims:
            return raw.form(v)
    pytest.fail(f"no sum of scaled {n}-fold Pfister forms over {raw.field}"
                f" had a dimension in {sorted(dims)} in {tries} draws")


def _encode(x):
    """x as plain JSON data, every square class as its raw bits."""
    if isinstance(x, SquareClass):
        return x.bits
    if isinstance(x, DiagonalForm):
        return [e.bits for e in x.entries]
    if isinstance(x, PfisterSpec):
        return [x.scalar.bits, [s.bits for s in x.slots]]
    if isinstance(x, PfisterCertificate):
        return [x.n, _encode(x.terms), _encode(x.target)]
    if isinstance(x, dict):
        return {key: _encode(val) for key, val in x.items()}
    if isinstance(x, (list, tuple)):
        return [_encode(val) for val in x]
    return x


def _outputs(raw_field):
    raw = raw_field(F5)
    rng = random.Random(909)
    out = []
    for dim, fixed in ((8, ()), (12, ()), (12, (raw.minus_one,)), (14, ()),
                       (16, ())):
        for _ in range(30):
            phi = _draw(raw, rng, 3, {dim}, fixed)
            out.append(["gp3", _encode(phi), _encode(pfister_number(phi, 3))])
    for dim, classify in ((14, classify14), (16, classify16)):
        for _ in range(20):
            phi = _draw(raw, rng, 3, {dim})
            out.append([dim, _encode(phi), _encode(classify(phi))])
    for field in SEARCH_FIELDS:
        raw = raw_field(field)
        for unscaled in (False, True):
            for _ in range(12):
                phi = _draw(raw, rng, 2, {6, 8, 10})
                out.append([str(field), unscaled, _encode(phi), _encode(
                    pfister_number(phi, 2, unscaled=unscaled))])
    return out


# report keys that hold a witness rather than a value
_WITNESS_KEYS = {"certificate", "gp2_subform", "gp2_complement",
                 "gp2_decomposition", "splitting_pair", "shape_ii",
                 "shape_scalar"}


def _values_only(record):
    """A record of _outputs with its certificate terms and witnesses
    removed: a certificate [n, terms, target] becomes [n, target]."""
    *head, result = record
    if isinstance(result, dict):
        result = {key: val for key, val in result.items()
                  if key not in _WITNESS_KEYS}
    else:
        k, (n, _terms, target) = result
        result = [k, [n, target]]
    return head + [result]


def _digest(out):
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_outputs_match_the_recorded_digest(raw_field):
    out = _outputs(raw_field)
    assert len(out) == 150 + 40 + 96
    assert _digest([_values_only(r) for r in out]) == VALUES
    assert _digest(out) == GOLDEN


# Seeded random_In_form draws on every base with 0-4 variables, n = 1-3,
# allow_smaller off and on.  Each record holds the drawn form (or the
# error after max_tries) and the next 32 bits of the generator, so the
# digest also pins how many classes each draw took from it.
DRAWS_GOLDEN = "27ddd7500734fa3f58ab6e8a73414cbde2e06e5b6ac885f188bb655b291aa7c0"


def _draws():
    out = []
    for base in Base:
        for nvars in range(5):
            field = FieldDesc(base, nvars)
            for n in (1, 2, 3):
                for allow_smaller in (False, True):
                    rng = random.Random(f"{field}|{n}|{allow_smaller}")
                    for dim in (1 << n, 2 << n, 3 << n):
                        try:
                            phi = random_In_form(
                                field, n, dim, rng,
                                allow_smaller=allow_smaller, max_tries=30)
                        except RigidWittError as err:
                            drawn = str(err)
                        else:
                            drawn = _encode(phi)
                        out.append([str(field), n, allow_smaller, dim, drawn,
                                    rng.getrandbits(32)])
    return out


def test_random_In_form_draws_match_the_recorded_digest():
    out = _draws()
    assert len(out) == 4 * 5 * 3 * 2 * 3
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DRAWS_GOLDEN
