"""Exact arithmetic over the supported GCD domains.

Supported rings: the integers, the rationals, and polynomial rings in named
variables with integer or rational coefficients.  A RingElement pairs its
ring's descriptor with a raw value:

- an int over ZZ; over QQ an int when the rational is integral and a
  Fraction only when its denominator is above 1;
- over R[v1,...,vk], the tuple of coefficients of a polynomial in vk, lowest
  degree first, each a value of R[v1,...,v_{k-1}] (of R when k = 1), with
  no trailing zero; the zero polynomial is ().

All values are canonical (no trailing zero coefficients, rationals in lowest
terms, integral rationals as ints) and immutable, so equality is structural
and every operation is a pure function.  Python compares and hashes an int
and a Fraction of equal value alike, so a value written with integral
Fractions still equals, and hashes as, its canonical form.  There is one
RingDescriptor object per ring: constructing a ring again returns the same
object, and rings are compared with ``is``.  Each ring's operations on raw
values are fixed when it is constructed, as attributes of its descriptor
built from those of its coefficient ring, so no operation decides at call
time which ring it is working in.

Text becomes an element through parse_element, which evaluates the
expression on raw values by those operations and wraps only its result.
Its tokens come from one regular expression, whose name part is the
pattern that every variable name of a ring must match.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import kronecker
from .kronecker import constant as _constant, quotient as _quotient, strip as _strip


class RingError(Exception):
    """Base class for ring-layer errors."""


class DescriptorMismatchError(RingError):
    """Operands belong to different rings."""


class NotDivisibleError(RingError):
    """Exact division failed: the dividend is not a multiple of the divisor."""


class UnsupportedRingError(RingError):
    """Operation requires a ring capability this descriptor lacks."""


class ParseError(RingError):
    """Expression text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IncompatibleCongruencesError(RingError):
    """A congruence system has no solution; carries a violating pair."""

    def __init__(self, i: int, j: int):
        super().__init__(
            f"congruences {i} and {j} are incompatible: "
            f"residues differ modulo gcd of the moduli"
        )
        self.i = i
        self.j = j


# A variable name: an ASCII letter, then ASCII letters, digits and "_".
# The parser's name token is the same pattern.
_NAME = "[A-Za-z][A-Za-z0-9_]*"
_is_identifier = re.compile(_NAME).fullmatch


# Most variables of a polynomial ring.  Its operations recurse once per
# variable, and the PRS gcd recomputes contents through every coefficient
# ring.  The packed gcd answers gcd((x1+2)*(x0-3), x1+2) in 0.03 s with 90
# variables, where the PRS takes 2.3 s; a pair it refuses, such as
# (x0-x1)*(x1+2) and (x0^2-x1)*(x1+2), still takes 3.0 s with 90 variables
# and 30 s with 200 (2-core x86-64, CPython 3.11).
_MAX_VARIABLES = 90


class RingDescriptor:
    """Identifies one of the supported rings and carries its arithmetic.

    kind is "integers", "rationals" or "polynomial"; polynomial descriptors
    additionally carry the ordered variable names and the base kind, and
    depth is the number of variables (0 for scalar rings).  Constructing a
    ring that already exists returns its object, so rings are compared
    with ``is``.  Every attribute is fixed at construction, the ring's
    operations on raw values included:

    - add, sub, mul, neg, gcd and canon (the canonical associate);
    - lcm, the canonical least common multiple (0 when an operand is 0);
    - cofactors, on polynomial rings (None on ZZ and QQ): (g, a/g, b/g)
      with g = gcd(a, b), canonical, and both quotients exact; on a
      polynomial ring gcd(a, b) is cofactors(a, b)[0];
    - divide, the exact quotient, or None when there is none;
    - terms, the list of (exponents in variable order, scalar coefficient)
      pairs of the nonzero terms (_terms at this ring's depth);
    - primitive, the split (content, primitive part) of a polynomial, whose
      content is a value of the coefficient ring (None on ZZ and QQ);
    - divmod, the quotient and canonical remainder, size, the Euclidean
      size, and xgcd, the extended gcd (g, s, t) with s*a + t*b = g and g
      canonical, on the Euclidean rings ZZ, QQ and QQ[x] (None elsewhere).
      QQ and QQ[x] run the generic Euclidean loop (_extended_gcd) through
      their operations; ZZ runs the same loop on ints (_zz_xgcd), which
      gives the same (g, s, t) on every pair.

    values(elements) unwraps elements of the ring to their raw values, so
    that a loop can run on the operations above and wrap only its results.
    A polynomial ring has at most 90 variables (_MAX_VARIABLES).

    ZZ uses Python's int arithmetic.  QQ uses int and Fraction arithmetic,
    and its add, sub, mul and divide return an int whenever the result is
    integral, so a scalar of QQ, or a coefficient of a polynomial over QQ,
    is a Fraction only when its denominator is above 1; gcd, lcm and canon
    return the int 1 (0 on zero).  Rational values with integral
    coefficients, such as products of x - a for integers a, thus run on
    int arithmetic throughout.  A polynomial ring binds one set of
    univariate routines to the operations of its coefficient ring,
    ``coefficients``, so ZZ[x,y]'s mul runs ZZ[x]'s mul on its
    coefficients, and that runs int multiplication.  Products with
    enough term pairs to pay a fixed cost of about 20 us instead pack both
    operands into integers by Kronecker substitution and make one bignum
    product (see the kronecker module).  That is exact, since every slot is
    wider than the largest possible product coefficient, and it is skipped
    when the dense box of exponents has more slots than the operands have
    term pairs.  cofactors, and so gcd, first takes one integer gcd of the
    packed operands (the heuristic gcd, kronecker.gcd) and keeps its
    candidate only after dividing both operands by it; otherwise it runs
    the primitive pseudo-remainder sequence.  cofactors keeps the quotients
    of those check divisions, and lcm(a, b) is canon((a/g)*b) from them, so
    no lcm divides again.  divide always runs long division.

    pair_operations() gives gcd, lcm and a / gcd(a, b) for one
    computation that meets the same pairs again and again, over a cache
    of cofactors on polynomial rings.
    """

    __slots__ = (
        "kind", "variables", "base", "depth", "rational_coefficients",
        "is_polynomial", "is_pid", "zero", "one", "coefficients",
        "add", "sub", "mul", "neg", "divide", "gcd", "lcm", "cofactors",
        "canon", "terms", "primitive", "divmod", "size", "xgcd",
    )

    def __new__(cls, kind: str, variables: Sequence[str] = (), base: str = ""):
        key = (kind, tuple(variables), base)
        ring = _RINGS.get(key)
        if ring is not None:
            return ring
        kind, variables, base = key
        if kind in ("integers", "rationals"):
            if variables or base:
                raise ValueError(f"{kind} descriptor takes no variables")
        elif kind == "polynomial":
            if not variables:
                raise ValueError("polynomial descriptor needs at least one variable")
            if len(variables) > _MAX_VARIABLES:
                raise ValueError(
                    f"{len(variables)} variables, more than {_MAX_VARIABLES}"
                )
            if len(set(variables)) != len(variables):
                raise ValueError("variable names must be distinct")
            for name in variables:
                if not _is_identifier(name):
                    raise ValueError(f"invalid variable name {name!r}")
            if base not in ("integers", "rationals"):
                raise ValueError("polynomial base must be integers or rationals")
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        ring = object.__new__(cls)
        depth = len(variables)
        rational = "rationals" in (kind, base)
        coefficients = None
        if depth > 1:
            coefficients = RingDescriptor(kind, variables[:-1], base)
        elif depth:
            coefficients = RingDescriptor(base)
        table = _polynomial_operations(coefficients) if depth else _SCALAR_OPERATIONS[kind]
        zero = _constant(0, depth)
        one = _constant(1, depth)
        facts = {
            "kind": kind,
            "variables": variables,
            "base": base,
            "depth": depth,
            "rational_coefficients": rational,
            "is_polynomial": kind == "polynomial",
            # ZZ, QQ and QQ[x] are Euclidean; ZZ[x] and multivariate rings
            # are GCD domains but not PIDs
            "is_pid": table["divmod"] is not None,
            "zero": RingElement(ring, zero),
            "one": RingElement(ring, one),
            "coefficients": coefficients,
            "terms": functools.partial(_terms, depth=depth),
            "xgcd": _extended_gcd(table, zero, one) if table["divmod"] else None,
            **table,  # ZZ's table brings its own xgcd
        }
        for name, value in facts.items():
            object.__setattr__(ring, name, value)
        return _RINGS.setdefault(key, ring)

    def __setattr__(self, name, value):
        raise AttributeError("RingDescriptor is immutable")

    def __reduce__(self):
        return RingDescriptor, (self.kind, self.variables, self.base)

    def values(self, elements) -> list:
        """The raw values of elements, each checked to lie in this ring."""
        out = []
        for e in elements:
            if not isinstance(e, RingElement):
                raise TypeError(f"expected RingElement, got {type(e).__name__}")
            if e.descriptor is not self:
                raise DescriptorMismatchError(
                    f"cannot mix elements of {self} and {e.descriptor}"
                )
            out.append(e.value)
        return out

    def pair_operations(self) -> tuple:
        """(gcd, lcm, cofactor) on raw values, with cofactor(a, b) =
        a / gcd(a, b), for one computation that meets the same pairs of
        values again and again, such as a key element.

        On a polynomial ring all three read one cache of cofactors, filled
        on first sight of each pair in either order and dropped with the
        functions, so each unordered pair costs one cofactors call.  ZZ
        and QQ, whose gcd costs less than a lookup, get their own gcd and
        lcm uncached.
        """
        cofactors, cache = self.cofactors, {}
        if cofactors is None:
            gcd, divide = self.gcd, self.divide
            return gcd, self.lcm, lambda a, b: divide(a, gcd(a, b))

        def pair(a, b):
            found = cache.get((a, b))
            if found is None:
                g, qa, qb = found = cache[a, b] = cofactors(a, b)
                cache[b, a] = g, qb, qa
            return found

        lcm = _least_common_multiple(pair, self.mul, self.canon, self.zero.value, self.one.value)
        return (lambda a, b: pair(a, b)[0]), lcm, (lambda a, b: pair(a, b)[1])

    def from_int(self, k: int) -> "RingElement":
        return RingElement(self, _constant(int(k), self.depth))

    def variable(self, name: str) -> "RingElement":
        if name not in self.variables:
            raise UnsupportedRingError(f"no variable {name!r} in {self}")
        return RingElement(self, _variable_value(self, name))

    def __str__(self) -> str:
        if self.kind == "integers":
            return "ZZ"
        if self.kind == "rationals":
            return "QQ"
        base = "ZZ" if self.base == "integers" else "QQ"
        return f"{base}[{','.join(self.variables)}]"

    def __repr__(self) -> str:
        return (
            f"RingDescriptor(kind={self.kind!r}, variables={self.variables!r}, "
            f"base={self.base!r})"
        )


# ---------------------------------------------------------------------------
# Operations on raw values, one table per ring.
# ---------------------------------------------------------------------------


def _variable_value(ring: RingDescriptor, name: str):
    """The raw value of one of ring's variables: X^1 at the variable's
    nesting level, a constant of the levels above it."""
    pos = ring.variables.index(name)
    return _constant((_constant(0, pos), _constant(1, pos)), ring.depth - pos - 1)


def _power(ring: RingDescriptor, a, k: int):
    """a^k for a raw value a of ring and an int k >= 0, by repeated
    squaring."""
    mul, result = ring.mul, ring.one.value
    while k:
        if k & 1:
            result = mul(result, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return result


def _terms(value, depth: int) -> list:
    """The (exponents in variable order, scalar coefficient) pairs of the
    nonzero terms of a raw value with depth variables, by outer exponent
    first: one pass per nesting level, each prepending its exponent."""
    items = [((), value)] if value else []
    for _ in range(depth):
        items = [((i,) + exps, x) for exps, v in items for i, x in enumerate(v) if x]
    return items


def _lead(value, depth: int) -> tuple:
    """(total degree, exponents in variable order, scalar coefficient) of
    the graded-lex leading term of a nonzero raw value with depth > 0
    variables.  value[i] is the coefficient of the last variable's i-th
    power, so its own leading term, shifted by i in total degree and with
    i appended to its exponents, is the best of that coefficient's terms;
    each nested tuple is visited once."""
    if depth == 1:
        top = len(value) - 1
        return top, (top,), value[top]
    best = None
    for i, x in enumerate(value):
        if x:
            t, e, c = _lead(x, depth - 1)
            term = (t + i, e + (i,), c)
            # two terms never tie on (degree, exponents), so c is never compared
            if best is None or term > best:
                best = term
    return best


def _zz_divide(a, b):
    q, r = divmod(a, b)
    return q if r == 0 else None


def _zz_divmod(a, b):
    r = a % abs(b)
    return (a - r) // b, r


def _zz_xgcd(a, b):
    """ZZ's xgcd on ints: the (g, s, t) of _extended_gcd over ZZ, step for
    step, with the nonnegative remainders of _zz_divmod, but with no call
    through the ring's operations."""
    s, t, s2, t2 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        if r < 0:  # only for b < 0, where _zz_divmod's remainder is r - b
            q, r = q + 1, r - b
        a, b, s, s2, t, t2 = b, r, s2, s - q * s2, t2, t - q * t2
    if a < 0:
        return -a, -s, -t
    return (a, s, t) if a else (0, 0, 0)


def _qq(c):
    """The rational c as an int when it is integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _qq_add(a, b):
    return _qq(a + b)


def _qq_sub(a, b):
    return _qq(a - b)


def _qq_mul(a, b):
    return _qq(a * b)


def _qq_divide(a, b):
    """a / b for nonzero b: an int when it is integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        return _quotient(a, b)
    return _qq(a / b)


_SCALAR_OPERATIONS = {
    "integers": dict(
        add=operator.add, sub=operator.sub, mul=operator.mul, neg=operator.neg,
        divide=_zz_divide, gcd=math.gcd, lcm=math.lcm, cofactors=None,
        canon=abs, primitive=None, divmod=_zz_divmod, size=abs, xgcd=_zz_xgcd,
    ),
    "rationals": dict(
        add=_qq_add, sub=_qq_sub, mul=_qq_mul, neg=operator.neg,
        divide=_qq_divide,
        gcd=lambda a, b: 1 if a or b else 0,
        lcm=lambda a, b: 1 if a and b else 0,
        cofactors=None,
        canon=lambda a: 1 if a else 0,
        primitive=None,
        divmod=lambda a, b: (_qq_divide(a, b), 0),
        size=lambda a: 0,
    ),
}


def _least_common_multiple(cofactors, mul, canon, zero, one):
    """The lcm of a polynomial ring with these operations and constants:
    canon((a/g)*b) with a/g from cofactors, 0 when an operand is 0, and
    the other operand's canonical associate when one operand is 1."""

    def lcm(a, b):
        if not a or not b:
            return zero
        if a == one:
            return canon(b)
        if b == one:
            return canon(a)
        return canon(mul(cofactors(a, b)[1], b))

    return lcm


def _extended_gcd(table: dict, zero, one):
    """The extended gcd of the Euclidean ring with these operations and
    constants: xgcd(a, b) = (g, s, t) with s*a + t*b = g, g canonical."""
    divmod_, sub, mul = table["divmod"], table["sub"], table["mul"]
    canon, divide = table["canon"], table["divide"]

    def xgcd(a, b):
        g, s, t = a, one, zero
        g2, s2, t2 = b, zero, one
        while g2:
            q, r = divmod_(g, g2)
            g, g2 = g2, r
            s, s2 = s2, sub(s, mul(q, s2))
            t, t2 = t2, sub(t, mul(q, t2))
        if not g:
            return zero, zero, zero
        c = canon(g)
        u = divide(c, g)  # a unit
        return c, mul(u, s), mul(u, t)

    return xgcd


def _polynomial_operations(c: RingDescriptor) -> dict:
    """Operations on univariate polynomials with coefficients in c.

    A value is the tuple of its coefficients, lowest degree first, each a
    value of c, with no trailing zero.  Over a field c (QQ) the ring is
    Euclidean, and the content is the leading coefficient; over ZZ and
    polynomial rings c it is the gcd of the coefficients.  The canonical
    associate is graded-lex monic over a rational base, with a positive
    graded-lex leading coefficient over an integer one.

    cofactors(a, b) is (g, a/g, b/g) with g the canonical gcd, and the
    ring's one gcd routine: gcd(a, b) is its first item, so contents, the
    PRS and lcm all reach it.  A zero operand, equal operands and an
    operand 1 give the answer at once.  Otherwise cofactors tries
    kronecker.gcd, the heuristic gcd on packed integers, which answers only
    after divide shows that its candidate divides both operands; its check
    divisions give the quotients, times the unit that makes its gcd
    canonical.  When it refuses, cofactors runs the primitive
    pseudo-remainder sequence on every c (each remainder is the primitive
    part of a pseudo-remainder, so over QQ each Euclidean remainder is made
    monic) and divides both operands by g.  lcm multiplies a/g by b and
    divides nothing.

    mul with an operand of one coefficient (a constant in the outer
    variable) is a scaling: scale multiplies each nonzero coefficient of
    the other operand by it, with no zero list, no addition and no strip.
    Otherwise mul packs both operands into integers and makes one bignum
    product (kronecker.product) when they have enough term pairs for its
    fixed cost to pay and their box of exponents has no more slots than
    they have term pairs, and else runs the schoolbook product.  The
    scaling and the schoolbook product make their coefficient products
    through c's mul, which dispatches again one level down.  The packed
    product is exact: its slots are wide enough for any product
    coefficient.

    long_division is the package's one polynomial division loop: divide,
    divmod over QQ and the PRS pseudo-remainder all run it.
    """
    cadd, csub, cmul, cneg = c.add, c.sub, c.mul, c.neg
    cdivide, cgcd = c.divide, c.gcd
    czero = c.zero.value
    one = (c.one.value,)
    field = c is QQ
    depth = c.depth + 1
    rational = c.rational_coefficients
    min_pairs = kronecker.MIN_PAIRS[rational, depth > 1]
    dense = kronecker.dense

    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(map(cadd, a, b))
        out += a[len(b):]
        return _strip(out)

    def sub(a, b):
        out = list(map(csub, a, b))
        if len(a) >= len(b):
            out += a[len(b):]
        else:
            out += map(cneg, b[len(a):])
        return _strip(out)

    def neg(a):
        return tuple(map(cneg, a))

    def mul(a, b):
        if not a or not b:
            return ()
        # a product with a single coefficient in the outer variable is a
        # scaling, whose coefficient products dispatch on their own
        if len(b) == 1:
            return scale(a, b[0])
        if len(a) == 1:
            return scale(b, a[0])
        most = dense(a, depth) * dense(b, depth)
        if most >= min_pairs:
            product = kronecker.product(a, b, depth, rational, most)
            if product is not None:
                return product
        out = [czero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] = cadd(out[i + j], cmul(x, y))
        return _strip(out)

    def scale(a, s):
        """a times the nonzero coefficient s: zero coefficients stay, and
        no other product is zero, so there is nothing to strip."""
        return tuple([cmul(x, s) if x else x for x in a])

    def long_division(a, b):
        """(q, r) with a = q*b + r and deg r < deg b, dividing each leading
        coefficient exactly in c; None when one of them does not divide."""
        db = len(b) - 1
        lead = b[db]
        rem = list(a)
        quo = [czero] * max(len(a) - db, 0)
        for k in range(len(a) - 1 - db, -1, -1):
            top = rem[k + db]
            if not top:
                continue
            q = cdivide(top, lead)
            if q is None:
                return None
            quo[k] = q
            for j, y in enumerate(b):
                if y:
                    rem[k + j] = csub(rem[k + j], cmul(q, y))
        return _strip(quo), _strip(rem[:db])

    def divide(a, b):
        qr = long_division(a, b)
        return qr[0] if qr is not None and not qr[1] else None

    if c.rational_coefficients:

        def normal(a):
            """(canon(a), u) with a = u * canon(a), for nonzero a: monic in
            graded-lex order, and u the leading coefficient."""
            lead = _lead(a, depth)[2]
            if lead == 1:
                return a, lead
            return scale(a, _constant(_qq_divide(1, lead), c.depth)), lead

    else:

        def normal(a):
            """(canon(a), u) with a = u * canon(a), for nonzero a: a positive
            graded-lex leading coefficient, and u its sign."""
            if _lead(a, depth)[2] < 0:
                return neg(a), -1
            return a, 1

    def canon(a):
        return normal(a)[0] if a else a

    if field:

        def content(a):
            return a[-1]

    else:

        def content(a):
            g = czero
            for x in a:
                g = cgcd(g, x)
            return g

    def primitive(a):
        if not a:
            return czero, a
        cont = content(a)
        return cont, _strip([cdivide(x, cont) for x in a])

    def pseudo_remainder(a, b):
        """The remainder of lc(b)^(deg a - deg b + 1) * a by b, or a when
        deg a < deg b (Knuth, TAOCP Vol. 2, 4.6.1, Algorithm R).

        The scaling makes each of long_division's deg a - deg b + 1
        divisions by lc(b) exact in c: after j steps the remainder is
        lc(b)^(deg a - deg b + 1 - j) times a polynomial over c.  The PRS
        takes the primitive part at once, so the cofactor does not matter.
        """
        if len(a) < len(b):
            return a
        lead = u = b[-1]
        for _ in range(len(a) - len(b)):
            u = cmul(u, lead)
        return long_division(scale(a, u), b)[1]

    def prs(a, b):
        """The canonical gcd of nonzero a and b by the primitive PRS."""
        ca, f = primitive(a)
        cb, g = primitive(b)
        while g:
            f, g = g, primitive(pseudo_remainder(f, g))[1]
        return canon(scale(f, cgcd(ca, cb)))

    def cofactors(a, b):
        if a == one or b == one:
            return one, a, b
        if a == b or not a or not b:
            if not a and not b:
                return a, one, one
            # a zero operand's cofactor is 0, a nonzero one's the unit u
            g, u = normal(a or b)
            u = _constant(u, depth)
            return g, u if a else a, u if b else b
        found = kronecker.gcd(a, b, depth, rational, divide)
        if found is None:
            g = prs(a, b)
            return g, divide(a, g), divide(b, g)
        g, u = normal(found[0])
        if u == 1:
            return g, found[1], found[2]
        u = _constant(u, c.depth)
        return g, scale(found[1], u), scale(found[2], u)

    return {
        "add": add, "sub": sub, "mul": mul, "neg": neg, "divide": divide,
        "gcd": lambda a, b: cofactors(a, b)[0], "cofactors": cofactors,
        "canon": canon, "primitive": primitive,
        "lcm": _least_common_multiple(cofactors, mul, canon, (), one),
        "divmod": long_division if field else None, "size": len if field else None,
    }


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class RingElement:
    """An exact element of one of the supported rings.

    Immutable; arithmetic requires both operands to share one descriptor.
    """

    __slots__ = ("descriptor", "value")

    def __init__(self, descriptor: RingDescriptor, value):
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def __reduce__(self):
        return RingElement, (self.descriptor, self.value)

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.descriptor is not self.descriptor:
            raise DescriptorMismatchError(
                f"cannot mix elements of {self.descriptor} and {other.descriptor}"
            )

    @property
    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.descriptor is other.descriptor and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        d = self.descriptor
        return RingElement(d, d.add(self.value, other.value))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        d = self.descriptor
        return RingElement(d, d.sub(self.value, other.value))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        d = self.descriptor
        return RingElement(d, d.mul(self.value, other.value))

    def __neg__(self) -> "RingElement":
        d = self.descriptor
        return RingElement(d, d.neg(self.value))

    def __pow__(self, k: int) -> "RingElement":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        d = self.descriptor
        return RingElement(d, _power(d, self.value, k))

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{format_element(self)} in {self.descriptor}>"


# (kind, variables, base) -> the one descriptor of that ring
_RINGS: dict = {}

ZZ = RingDescriptor("integers")
QQ = RingDescriptor("rationals")


def polynomial_ring(*variables: str, base: RingDescriptor = ZZ) -> RingDescriptor:
    """Polynomial ring in the given variables over ZZ or QQ."""
    if base.kind not in ("integers", "rationals"):
        raise ValueError("base must be ZZ or QQ")
    return RingDescriptor("polynomial", tuple(variables), base.kind)


@dataclass(frozen=True)
class Congruence:
    """x = residue (mod modulus); both in one ring, modulus nonzero."""

    residue: RingElement
    modulus: RingElement

    def __post_init__(self):
        self.residue._check(self.modulus)
        if self.modulus.is_zero:
            raise ValueError("congruence modulus must be nonzero")


# ---------------------------------------------------------------------------
# Associates
# ---------------------------------------------------------------------------


def canonical_associate(a: RingElement) -> RingElement:
    """The canonical representative of a's associate class.

    Nonnegative integers; 1 for nonzero rationals; positive graded-lex leading
    coefficient over ZZ bases; graded-lex-monic over QQ bases.
    """
    d = a.descriptor
    return RingElement(d, d.canon(a.value))


def associate_unit(a: RingElement, b: RingElement) -> Optional[RingElement]:
    """The unit u with a = u*b when a and b are associates, else None.

    Associates share their canonical associate, the representative of
    their class, so only a and b with equal canonical forms are divided.
    """
    a._check(b)
    d = a.descriptor
    if d.canon(a.value) != d.canon(b.value):
        return None
    if b.is_zero:
        return d.one
    return RingElement(d, d.divide(a.value, b.value))


# ---------------------------------------------------------------------------
# Chinese remaindering over a Euclidean ring
# ---------------------------------------------------------------------------


def _require_euclidean(ring: RingDescriptor, what: str) -> None:
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"{what} requires a Euclidean ring (ZZ, QQ or QQ[x]); got {ring}"
        )


def crt(congruences: Sequence[Congruence]):
    """Solve a simultaneous congruence system over a Euclidean ring.

    Returns (x, L) with x = a_i (mod b_i) for every i, reduced modulo
    L = lcm of the moduli.  Raises IncompatibleCongruencesError naming a
    violating pair (0-based) when no solution exists.
    """
    congruences = list(congruences)
    if not congruences:
        raise ValueError("crt needs at least one congruence")
    ring = congruences[0].residue.descriptor
    _require_euclidean(ring, "crt")
    for c in congruences:
        if c.residue.descriptor is not ring:
            raise DescriptorMismatchError("congruences must share one ring")
    residues = [c.residue.value for c in congruences]
    moduli = [c.modulus.value for c in congruences]
    add, sub, mul, gcd_ = ring.add, ring.sub, ring.mul, ring.gcd
    canon, divide, divmod_ = ring.canon, ring.divide, ring.divmod

    # pairwise solvability criterion; reported pairs refer to input positions
    # (moduli are nonzero, so each gcd is too)
    n = len(congruences)
    for i in range(n):
        for j in range(i + 1, n):
            if divide(sub(residues[i], residues[j]), gcd_(moduli[i], moduli[j])) is None:
                raise IncompatibleCongruencesError(i, j)

    m = canon(moduli[0])
    x = divmod_(residues[0], m)[1]
    for r, b in zip(residues[1:], moduli[1:]):
        b = canon(b)
        g, s, _ = ring.xgcd(m, b)
        # pairwise compatibility of the merged class is implied by the
        # pairwise checks above (Euclidean CRT), so both divisions are exact
        step = divide(sub(r, x), g)
        x = add(x, mul(mul(m, s), step))
        m = canon(divide(mul(m, b), g))
        x = divmod_(x, m)[1]
    return RingElement(ring, x), RingElement(ring, m)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

# One token: an ASCII integer literal, a variable name, an operator, or any
# other character that is not white space, which _tokenize refuses.  White
# space (str.isspace) between tokens is skipped.
_TOKEN = re.compile(rf"(?P<int>[0-9]+)|(?P<name>{_NAME})|(?P<op>[-+*^()/])|\S")

# Deepest accepted nesting of parentheses and unary minus signs together;
# deeper input raises ParseError instead of exhausting the Python stack.
_MAX_NESTING = 100
# Longest accepted integer literal, in decimal digits.
_MAX_LITERAL_DIGITS = 100_000
# Largest accepted power, in bits as estimated by _power_bits before the
# power is computed; a larger one raises ParseError.
_MAX_POWER_BITS = 1 << 20
# Decimal conversions go through pieces of at most this many digits, below
# the interpreter's default limit of 4300 on int <-> str conversion.
_DIGIT_CHUNK = 4000
# Nonnegative ints below this (machine words) are printed by str directly.
_WORD = 1 << 63


def _int_from_digits(digits: str) -> int:
    """The int written by a string of ASCII decimal digits of any length."""
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits)
    low = len(digits) // 2
    return _int_from_digits(digits[:-low]) * 10**low + _int_from_digits(digits[-low:])


def _int_to_digits(n: int) -> str:
    """Decimal text of an int n >= 0 of any size."""
    if n.bit_length() <= _DIGIT_CHUNK * 3:  # fewer than _DIGIT_CHUNK digits
        return str(n)
    low = n.bit_length() * 3 // 20  # about half the digits
    high, rest = divmod(n, 10**low)
    return _int_to_digits(high) + _int_to_digits(rest).zfill(low)


def _scalar_bits(c) -> int:
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length() - 1
    return c.bit_length()


def _power_bits(a, k: int, ring: RingDescriptor) -> int:
    """Estimated bits of a**k: the number of monomials it can have times k
    times the summed coefficient bits of a, which bounds the bits of each
    of its coefficients (numerators and denominators together, up to a
    factor of 2)."""
    terms = ring.terms(a)
    bits = k * sum(_scalar_bits(c) for _, c in terms)
    if not bits or bits > _MAX_POWER_BITS:
        return bits
    dense = 1
    for v in range(ring.depth):
        dense *= k * max(exps[v] for exps, _ in terms) + 1
    return bits * min(dense, math.comb(k + len(terms) - 1, len(terms) - 1))


def _tokenize(text: str) -> list:
    """The (kind, text, position) tokens of text, ending in ("end", "",
    len(text)); an operator's kind is its character."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, token = m.lastgroup, m.group()
        if kind is None:
            raise ParseError(f"unexpected character {token!r}", m.start())
        tokens.append((token if kind == "op" else kind, token, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the element expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nonneg-int)?
    base   := int | int '/' int (rational bases only) | variable
              | '(' expr ')' | '-' factor

    Every rule returns a raw value of the ring, computed by the ring's own
    operations on raw values.
    """

    def __init__(self, text: str, ring: RingDescriptor):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        result = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return result

    def expr(self):
        ring = self.ring
        result = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            result = ring.add(result, rhs) if op == "+" else ring.sub(result, rhs)
        return result

    def term(self):
        result = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            result = self.ring.mul(result, self.factor())
        return result

    def factor(self):
        base = self.base()
        if self.peek()[0] == "^":
            caret = self.advance()
            exponent = self.exponent()
            if _power_bits(base, exponent, self.ring) > _MAX_POWER_BITS:
                raise ParseError(
                    f"power larger than {_MAX_POWER_BITS} bits", caret[2]
                )
            base = _power(self.ring, base, exponent)
        return base

    def exponent(self) -> int:
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            negative = False
            if self.peek()[0] == "-":
                self.advance()
                negative = True
            num = self.expect("int")
            self.expect(")")
            if negative:
                raise ParseError("negative exponent", num[2])
            return self.integer(num)
        if tok[0] == "-":
            raise ParseError("negative exponent", tok[2])
        return self.integer(self.expect("int"))

    def integer(self, tok) -> int:
        if len(tok[1]) > _MAX_LITERAL_DIGITS:
            raise ParseError(
                f"integer literal longer than {_MAX_LITERAL_DIGITS} digits", tok[2]
            )
        return _int_from_digits(tok[1])

    def base(self):
        tok = self.advance()
        if tok[0] == "int":
            return self.int_or_rational(tok)
        if tok[0] == "name":
            if tok[1] in self.ring.variables:
                return _variable_value(self.ring, tok[1])
            raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
        if tok[0] in ("(", "-"):
            self.nesting += 1
            if self.nesting > _MAX_NESTING:
                raise ParseError(
                    f"parentheses and unary minus nest deeper than {_MAX_NESTING}",
                    tok[2],
                )
            if tok[0] == "(":
                result = self.expr()
                self.expect(")")
            else:
                result = self.ring.neg(self.factor())
            self.nesting -= 1
            return result
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def int_or_rational(self, tok):
        c = self.integer(tok)
        if self.peek()[0] == "/":
            slash = self.advance()
            if not self.ring.rational_coefficients:
                raise ParseError(
                    "rational literal in an integer-based ring", slash[2]
                )
            denom = self.expect("int")
            denominator = self.integer(denom)
            if denominator == 0:
                raise ParseError("zero denominator", denom[2])
            c = _qq_divide(c, denominator)
        return _constant(c, self.ring.depth)


def parse_element(text: str, ring: RingDescriptor) -> RingElement:
    """Parse expression text into a canonical element of the given ring.

    The text is split into tokens by one regular expression, whose variable
    names are those that RingDescriptor accepts, and evaluated on raw
    values by the ring's add, sub, mul and neg, with powers by repeated
    squaring; only the result is wrapped, as one RingElement.

    Parentheses and unary minus signs may nest at most 100 levels deep
    (counted together), an integer literal may have at most 100,000 digits,
    and a power a^k may have at most 2^20 bits, estimated before it is
    computed as k times the coefficient bits of a times the number of
    monomials a^k can have.  Input past a limit raises ParseError.
    """
    return RingElement(ring, _Parser(text, ring).parse())


def _format_scalar(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{_int_to_digits(c.numerator)}/{_int_to_digits(c.denominator)}"
    return _int_to_digits(int(c))


def format_element(a: RingElement) -> str:
    """Canonical text; parse_element(format_element(a), ring) == a.

    Terms appear in descending graded-lex order on the variable list.
    """
    d = a.descriptor
    # the exponents differ between terms, so coefficients are never compared
    terms = sorted(
        ((sum(exps), exps, c) for exps, c in d.terms(a.value)), reverse=True
    )
    if not terms:
        return "0"
    parts = []
    for _, exps, c in terms:
        negative = c < 0
        m = -c if negative else c
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(d.variables, exps)
            if e
        ]
        if m != 1 or not factors:
            scalar = str(m) if type(m) is int and m < _WORD else _format_scalar(m)
            factors.insert(0, scalar)
        parts.append(("-" if negative else "+") + "*".join(factors))
    text = "".join(parts)
    return text[1:] if text[0] == "+" else text
