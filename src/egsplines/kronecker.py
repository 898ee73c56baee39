"""Kronecker substitution: polynomial products and quotients on packed integers.

Internal to ``rings``, whose polynomial values are nested coefficient
tuples (see its module docstring).  A polynomial whose exponents lie in a
box of dims[0] x ... x dims[-1] slots (outermost variable first) and whose
integer coefficients have magnitude below 2^(8s-1) maps to the integer
sum of c_e 2^(8s*e), with e the slot index and the innermost variable
varying fastest.  The map is a ring homomorphism, and reading the slots
back is exact when no coefficient overflows its slot, so one bignum
product, done by CPython's Karatsuba multiplication, replaces the nested
loop of a schoolbook product (Kronecker 1882; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44 (2009)).  Buffers are built with int.from_bytes and int.to_bytes, with
an explicit length and byte order, never by shifting and adding.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Optional

# Fewest term pairs, counted with interior zeros, for which a product is
# packed, keyed by (rational base, more than one variable).  The packed
# path costs about 20 us even on tiny operands.  Dense random operands
# with coefficients up to 50 (over QQ, a third of them with denominator 2
# or 3), 2-core x86-64, CPython 3.11, schoolbook against packed: ZZ[x]
# 9x9 terms 20 against 29 us, 12x12 33 against 30 us; ZZ[x,y] 4x4 22
# against 31 us, 9x9 63 against 42 us; QQ[x] 2x2 24 against 28 us, 3x3 52
# against 37 us (every rational schoolbook step takes a gcd).  In several
# variables the count with interior zeros overstates small operands:
# (x+1/2*y)*(x*y-3) counts 9 pairs for 4 and takes 45 us by schoolbook
# against 57 us packed.
MIN_PAIRS = {(False, False): 128, (False, True): 36, (True, False): 9, (True, True): 16}
# Fewest dense slots of a dividend for which an exact division over a
# multivariate ZZ-base ring is first tried on packed coefficients.  One
# in-process pass over the poly_cli benchmark instances (seed 3, median of
# 6 alternating repeats) took 2.30 s with this cutoff, 2.32 s at 10 and
# 2.42 s at 30 slots, and 2.72 s without the packed path.  Ten alternating
# poly_cli benchmark pairs (seed 3, 20 s) read 92.3 ips and a 28.2 ms tail
# with the packed path against 81.5 ips and 34.8 ms without it.
MIN_DIVIDEND = 100
# struct formats of the slot widths that are packed and unpacked in one call
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def strip(coeffs: list) -> tuple:
    """The coefficient tuple without trailing zeros, the canonical form of
    every level of a polynomial value."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def dense(a, depth: int) -> int:
    """The scalar slots of the nested tuples of a value with depth
    variables, zeros included: a bound on its number of terms."""
    if depth == 1:
        return len(a)
    if depth == 2:
        return sum(map(len, a))
    return sum([dense(x, depth - 1) for x in a])


def _slot_width(bound: int) -> int:
    """Bytes of a slot that holds every int of magnitude at most bound
    with a sign bit to spare; widths up to 8 round up to a struct width."""
    s = bound.bit_length() // 8 + 1
    return 1 << (s - 1).bit_length() if s <= 8 else s


def _descend(items: list, d: int) -> list:
    """One level down: the (index, coefficient) pairs of the nonzero
    coefficients of (index, tuple) pairs, in a box of d slots per tuple."""
    return [(k * d + i, x) for k, v in items for i, x in enumerate(v) if x]


def _buffers(items: list, n: int, s: int):
    """Little-endian buffers of n slots of s bytes, one holding the positive
    coefficients of the (slot, int) pairs items and one the magnitudes of
    the negative ones."""
    fmt = _SLOT_FORMATS.get(s)
    if fmt is None:
        pos, neg = bytearray(n * s), bytearray(n * s)
        for k, x in items:
            if x > 0:
                pos[k * s:k * s + s] = x.to_bytes(s, "little")
            else:
                neg[k * s:k * s + s] = (-x).to_bytes(s, "little")
        return pos, neg
    pos, neg = [0] * n, [0] * n
    for k, x in items:
        if x > 0:
            pos[k] = x
        else:
            neg[k] = -x
    fmt = f"<{n}{fmt}"
    return struct.pack(fmt, *pos), struct.pack(fmt, *neg)


def _pack(items: list, n: int, s: int) -> int:
    """The integer of n slots of s bytes that holds items' coefficients."""
    pos, neg = _buffers(items, n, s)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(v: int, n: int, s: int) -> Optional[list]:
    """The n signed slots of s bytes of v, read through a bias of 2^(8s-1)
    per slot that makes every slot nonnegative; None when v does not fit."""
    half = 1 << (8 * s - 1)
    v += int.from_bytes(half.to_bytes(s, "little") * n, "little")
    if v < 0 or v.bit_length() > 8 * s * n:
        return None
    data = v.to_bytes(s * n, "little")
    fmt = _SLOT_FORMATS.get(s)
    if fmt:
        return [x - half for x in struct.unpack(f"<{n}{fmt}", data)]
    return [int.from_bytes(data[i:i + s], "little") - half for i in range(0, s * n, s)]


def _rebuild(flat: list, dims: list):
    """The stripped nested tuples of a dense slot list, laid out as the
    product box dims, outermost level first."""
    for d in reversed(dims):
        flat = [strip(flat[i:i + d]) for i in range(0, len(flat), d)]
    return flat[0]


def product(a, b, depth: int, rational: bool, most_pairs: int):
    """a*b, nonzero values with depth variables, by one bignum product; or
    None when their box of exponents has more slots than they have term
    pairs (a sparse product in many variables, whose box grows
    exponentially with their number), where the schoolbook product is the
    cheaper one.  So no buffer outgrows the operands' term product.
    most_pairs bounds the number of term pairs, and the walk down the
    levels stops as soon as the box outgrows it.

    Over a rational base each operand is scaled by the lcm of its
    denominators first.  A product coefficient sums at most min(#terms)
    products of one coefficient of each operand, which sizes the slots.
    """
    ia, ib, dims, n = [(0, a)], [(0, b)], [], 1
    for _ in range(depth):
        # slots per level: the product's degree in that variable, plus one
        d = max(len(v) for _, v in ia) + max(len(v) for _, v in ib) - 1
        n *= d
        if n > most_pairs:
            return None
        ia, ib = _descend(ia, d), _descend(ib, d)
        dims.append(d)
    if n > len(ia) * len(ib):
        return None
    if rational:
        da = math.lcm(*[x.denominator for _, x in ia])
        db = math.lcm(*[x.denominator for _, x in ib])
        ia = [(k, x.numerator * (da // x.denominator)) for k, x in ia]
        ib = [(k, x.numerator * (db // x.denominator)) for k, x in ib]
    bound = max(abs(x) for _, x in ia) * max(abs(x) for _, x in ib) * min(len(ia), len(ib))
    s = _slot_width(bound)
    flat = _unpack(_pack(ia, ia[-1][0] + 1, s) * _pack(ib, ib[-1][0] + 1, s), n, s)
    if rational:
        den = da * db
        flat = [Fraction(x, den) if x else 0 for x in flat]
    return _rebuild(flat, dims)


def quotient(a, b, inner_depth: int, mul):
    """The exact quotient a/b of nonzero values over a ZZ base with
    inner_depth >= 1 variables below the outermost, or None when this path
    cannot vouch for one.

    Each coefficient in the outermost variable is packed into one integer
    over the box of the dividend's inner degrees, and the long division in
    the outermost variable runs on those integers.  Dividing the whole
    packed integers instead is slower, since CPython's int division is
    quadratic.  The quotient is accepted only when it unpacks and
    mul(q, b) == a; every other outcome returns None, and the caller falls
    back to its schoolbook long division.  The box holds no more slots than
    the operands have term pairs.
    """
    ia = [(i, x) for i, x in enumerate(a) if x]
    ib = [(j, y) for j, y in enumerate(b) if y]
    dims = []
    for _ in range(inner_depth):
        d = max(len(v) for _, v in ia)
        if max(len(v) for _, v in ib) > d:
            return None
        ia, ib = _descend(ia, d), _descend(ib, d)
        dims.append(d)
    g = math.prod(dims)  # slots per coefficient
    if len(a) * g > len(ia) * len(ib):
        return None
    # a quotient coefficient exceeds the dividend's by at most a factor of
    # about 2^degree (Mignotte), and a quotient slot that overflows fails
    # the check below; the divisor's slots must hold it exactly
    degree = len(a) - 1 + sum(dims) - len(dims)
    bound = (max(abs(x) for _, x in ia) << degree) * len(ia)
    s = _slot_width(max(bound, max(abs(y) for _, y in ib)))
    width = g * s

    def coefficients(items, length):
        pos, neg = _buffers(items, length * g, s)
        return [
            int.from_bytes(pos[i:i + width], "little")
            - int.from_bytes(neg[i:i + width], "little")
            for i in range(0, length * width, width)
        ]

    rem, divisor = coefficients(ia, len(a)), coefficients(ib, len(b))
    db = len(divisor) - 1
    lead = divisor[db]
    quo = [0] * (len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        top = rem[k + db]
        if not top:
            continue
        q, r = divmod(top, lead)
        if r:
            return None
        quo[k] = q
        for j, y in enumerate(divisor):
            if y:
                rem[k + j] -= q * y
    if any(rem[:db]):
        return None
    out = []
    for q in quo:
        flat = _unpack(q, g, s)
        if flat is None:
            return None
        out.append(_rebuild(flat, dims))
    q = strip(out)
    return q if mul(q, b) == a else None
