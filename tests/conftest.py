"""Shared test oracles."""

import functools

import pytest

from rigidwitt.witt import _ring_params, witt_vector


@functools.lru_cache(maxsize=None)
def _pfister_multiples(pi):
    """The Witt vectors vec(pi) * vec(rho) over every Witt class rho.

    Brute force in the group ring (Z/m)[H], sharing no code with the
    library's divisibility test: the product is an XOR convolution mod
    m, and vec(pi) * e_h is vec(pi) shifted by h, so the products form
    the additive subgroup generated by those shifts.  Only finite Witt
    rings (every base but R) are supported.
    """
    m = _ring_params(pi.field)[0]
    if not m:
        raise ValueError(f"the Witt ring of {pi.field} is infinite")
    p = witt_vector(pi)
    shifts = [tuple(p[i ^ h] for i in range(len(p))) for h in range(len(p))]
    zero = (0,) * len(p)
    members = {zero}
    todo = [zero]
    while todo:
        v = todo.pop()
        for s in shifts:
            w = tuple((x + y) % m for x, y in zip(v, s))
            if w not in members:
                members.add(w)
                todo.append(w)
    return frozenset(members)


@pytest.fixture
def pfister_multiples():
    """phi lies in pi*W(F) iff witt_vector(phi) in pfister_multiples(pi)."""
    return _pfister_multiples
