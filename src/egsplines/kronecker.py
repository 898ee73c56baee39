"""Kronecker substitution: polynomial products and gcds on packed integers.

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

gcd is the heuristic gcd at xi = 2^(8s): the operands' images are
evaluations at xi, their integer gcd read back in balanced base-xi digits
gives a candidate, and the ring's exact division of both operands by it
makes it the gcd (see gcd).  gcd returns the two quotients of that check
with the gcd, so a caller that needs the cofactors (an lcm, or a / gcd)
divides no more.  Its one caller is the cofactors routine of each
polynomial ring, through which every polynomial gcd of the package runs.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Optional

# Fewest term pairs, counted with interior zeros, for which a product is
# packed, keyed by (rational base, more than one variable).  The packed
# path costs about 20 us even on tiny operands.  Dense random operands
# with coefficients up to 50, 2-core x86-64, CPython 3.11, schoolbook
# against packed: ZZ[x] 9x9 terms 20 against 29 us, 12x12 33 against
# 30 us; ZZ[x,y] 4x4 22 against 31 us, 9x9 63 against 42 us.  Over QQ an
# integral coefficient is an int, so a rational schoolbook step takes a
# gcd only on a true fraction; all coefficients integral, or a third of
# them with denominator 2 or 3: QQ[x] 3x3 7 against 28 us, or 23 against
# 33 us; 4x4 10 against 29 us, or 45 against 38 us; 6x6 20 against 34 us,
# or 103 against 49 us.  QQ[x,y] with 2x2 boxes (16 pairs) 28 against
# 41 us, or 66 against 52 us; 2x3 boxes (36 pairs) 59 against 47 us, or
# 143 against 66 us.  In several variables the count with interior zeros
# overstates small operands: (x+1/2*y)*(x*y-3) counts 9 pairs for 4.
MIN_PAIRS = {(False, False): 128, (False, True): 36, (True, False): 16, (True, True): 16}
# Most bytes of a packed gcd operand whose box has more slots than the
# operands have term pairs.  Sparse pairs, packed gcd against the PRS,
# 2-core x86-64, CPython 3.11: x^k against y^k+1 over ZZ[x,y] (1-byte
# slots) 0.31 against 0.56 ms at 4,225 bytes, 0.72 against 0.78 ms at
# 10,201 and 4.3 against 1.5 ms at 40,401; 10^12*x^k against y^k+10^12
# (8-byte slots) 0.43 against 0.33 ms at 7,688 bytes and 3.2 against
# 0.57 ms at 33,800.  A refused packed gcd is wasted: x^k+y against
# x^k*y^2, whose images share t^k, spends 0.37 ms at 303 bytes and 8.7 ms
# at 3,003 before its PRS.
GCD_BYTES = 4096
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


def _pack(items: list, n: int, s: int) -> int:
    """The integer of n slots of s bytes that holds the coefficients of the
    (slot, int) pairs items: a little-endian buffer of the positive ones
    minus one of the magnitudes of the negative ones."""
    fmt = _SLOT_FORMATS.get(s)
    if fmt is None:
        pos, neg = bytearray(n * s), bytearray(n * s)
        for k, x in items:
            if x > 0:
                pos[k * s:k * s + s] = x.to_bytes(s, "little")
            else:
                neg[k * s:k * s + s] = (-x).to_bytes(s, "little")
    else:
        pos, neg = [0] * n, [0] * n
        for k, x in items:
            if x > 0:
                pos[k] = x
            else:
                neg[k] = -x
        fmt = f"<{n}{fmt}"
        pos, neg = struct.pack(fmt, *pos), struct.pack(fmt, *neg)
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


def _flatten(a, b, depth: int, cap: int, slots):
    """The (slot, coefficient) pairs of the nonzero scalar coefficients of
    a and b in one box, the box's slots per level and its slot count; or
    None as soon as the box has more than cap slots.  slots(la, lb) gives
    a level's slots from the operands' largest coefficient counts there."""
    ia, ib, dims, n = [(0, a)], [(0, b)], [], 1
    for _ in range(depth):
        d = slots(max(len(v) for _, v in ia), max(len(v) for _, v in ib))
        n *= d
        if n > cap:
            return None
        ia, ib = _descend(ia, d), _descend(ib, d)
        dims.append(d)
    return ia, ib, dims, n


def _integral(items: list):
    """Rational (slot, coefficient) pairs, each coefficient an int or a
    Fraction, scaled by the lcm of their denominators, as ints, and that
    lcm (1 when every coefficient is an int)."""
    den = math.lcm(*[x.denominator for _, x in items])
    return [(k, x.numerator * (den // x.denominator)) for k, x in items], den


def product(a, b, depth: int, rational: bool, most_pairs: int):
    """a*b, nonzero values with depth variables, by one bignum product; or
    None when their box of exponents has more slots than they have term
    pairs (a sparse product in many variables, whose box grows
    exponentially with their number), where the schoolbook product is the
    cheaper one.  So no buffer outgrows the operands' term product.
    most_pairs bounds the number of term pairs, and the walk down the
    levels stops as soon as the box outgrows it.

    Over a rational base each operand is scaled by the lcm of its
    denominators first, and each slot read back is divided by the product
    of the two lcms: an int where that division is exact, else a Fraction,
    so operands with integral coefficients give ints throughout.  A
    product coefficient sums at most min(#terms) products of one
    coefficient of each operand, which sizes the slots.
    """
    # slots per level: the product's degree in that variable, plus one
    box = _flatten(a, b, depth, most_pairs, lambda la, lb: la + lb - 1)
    if box is None:
        return None
    ia, ib, dims, n = box
    if n > len(ia) * len(ib):
        return None
    if rational:
        (ia, da), (ib, db) = _integral(ia), _integral(ib)
    bound = max(abs(x) for _, x in ia) * max(abs(x) for _, x in ib) * min(len(ia), len(ib))
    s = _slot_width(bound)
    flat = _unpack(_pack(ia, ia[-1][0] + 1, s) * _pack(ib, ib[-1][0] + 1, s), n, s)
    den = da * db if rational else 1
    if den > 1:
        flat = [quotient(x, den) for x in flat]
    return _rebuild(flat, dims)


def quotient(x: int, d: int):
    """x / d for ints x and d != 0: an int when d divides x, else a
    Fraction, the form of a rational scalar."""
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def constant(c, depth: int):
    """The value with depth variables of the constant c: () or 0 for zero,
    else c nested in depth one-coefficient tuples."""
    if not c:
        return () if depth else 0
    for _ in range(depth):
        c = (c,)
    return c


def gcd(a, b, depth: int, rational: bool, divide):
    """(h, a/h, b/h) with h a gcd of nonzero values a and b with depth
    variables, up to a unit, from one integer gcd of their packed images
    (heuristic gcd, GCDHEU: Char, Geddes and Gonnet, J. Symbolic Comput. 7
    (1989)); or None when this path cannot vouch for one, and the caller
    runs its PRS.  The cofactors a/h and b/h are the quotients of the
    check divisions below, or constants, so they cost no further division.

    Both operands go into one box with max(deg_i a, deg_i b) + 1 slots for
    each variable i, so the gcd and both cofactors fit it too, and the
    packing K, the Kronecker substitution of t = 2^(8s), is multiplicative
    on them.  Over a rational base each operand is first scaled to integer
    coefficients by the lcm d of its denominators, and each is divided by
    its integer content c.  The slot width s makes
    2^(8s-1) > max(2 min(|A|, |B|) + 2, |A|, |B|) for the largest
    coefficient magnitudes |A| and |B| of these primitive operands, so
    xi = 2^(8s) is at least the 2 min(|A|, |B|) + 2 of the GCDHEU theorem
    and each operand reads back from its own image.  The balanced base-xi
    digits of gamma = gcd(A(xi), B(xi)), with their integer content
    divided out, give a primitive h.  If h divides a and b, checked with
    divide, the ring's exact division, then K(h) divides K(A) and K(B), so
    the theorem makes K(h) their gcd in Z[t] up to sign.  The primitive
    gcd G of A and B has K(G) dividing K(h), and h divides G, so h = +-G.
    Over ZZ, h is returned times the gcd of the two contents.  On either
    base h has int coefficients.

    When gamma is an operand's image P = K(A), h is sign(P) A times that
    common content over ZZ, so the operand needs no check and its
    cofactor is the constant sign(P) c / common, or sign(P) c / d over a
    rational base: an int where the division is exact, else a Fraction.
    A constant gamma (below 2^(8s-1)) with common content 1, always the
    case over a rational base, gives h = 1, whose cofactors are a and b
    with no check; a constant h above 1, the common content over ZZ,
    takes the check divisions like any other candidate.  A
    failed check retries with wider slots, at most twice.  Pairs whose
    images share a factor that they do not, such as x - y and x^2 - y
    (both images are multiples of t), always fail the check, and a wider
    slot most often reads back the same candidate: a candidate equal to
    the previous one would fail the same check, so it returns None at once.

    The box is refused, before anything is packed, when it has more slots
    than the operands have term pairs and a packed operand would take more
    than GCD_BYTES bytes: an integer gcd costs time quadratic in the
    packed length.  The walk down the levels stops as soon as the box
    passes the bound of the dense counts.
    """
    box = _flatten(a, b, depth, max(dense(a, depth) * dense(b, depth), GCD_BYTES), max)
    if box is None:
        return None
    ia, ib, dims, n = box
    if rational:
        (ia, da), (ib, db) = _integral(ia), _integral(ib)
    ca = math.gcd(*[x for _, x in ia])
    cb = math.gcd(*[x for _, x in ib])
    ia = [(k, x // ca) for k, x in ia]
    ib = [(k, x // cb) for k, x in ib]
    if rational:
        common = 1
    else:
        # the constant cofactors below are sign * content / common
        common = da = db = math.gcd(ca, cb)
    na = max(abs(x) for _, x in ia)
    nb = max(abs(x) for _, x in ib)
    s = _slot_width(max(2 * min(na, nb) + 2, na, nb))
    if n > len(ia) * len(ib) and n * s > GCD_BYTES:
        return None

    def cofactor(x, p, c, d):
        """x / h for the current gamma and h, or None: the constant
        sign(p) c / d when gamma is x's image p, else the check division."""
        if gamma != abs(p):
            return divide(x, h)
        c = c if p > 0 else -c
        return constant(quotient(c, d), depth)

    previous = None
    for _ in range(3):
        pa, pb = _pack(ia, ia[-1][0] + 1, s), _pack(ib, ib[-1][0] + 1, s)
        gamma = math.gcd(pa, pb)
        if common == 1 and gamma >> (8 * s - 1) == 0:
            return constant(1, depth), a, b
        flat = _unpack(gamma, n, s)
        if flat is not None:
            c = math.gcd(*flat)
            flat = [x // c * common for x in flat]
            if flat == previous:
                return None
            previous = flat
            h = _rebuild(flat, dims)
            qa = cofactor(a, pa, ca, da)
            qb = None if qa is None else cofactor(b, pb, cb, db)
            if qb is not None:
                return h, qa, qb
        s = _slot_width(1 << 8 * s)
    return None
