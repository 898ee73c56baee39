"""Exact arithmetic over the supported GCD domains.

Supported rings: the integers, the rationals, and polynomial rings in named
variables with integer or rational coefficients.  Polynomials are stored
recursively: an element of R[v1,...,vk] is a polynomial in vk whose
coefficients live in R[v1,...,v_{k-1}].  All values are canonical (no trailing
zero coefficients, rationals in lowest terms) and immutable, so equality is
structural and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence


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


_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_REST = _IDENT_FIRST | set("0123456789_")


def _is_identifier(name: str) -> bool:
    return (
        bool(name)
        and name[0] in _IDENT_FIRST
        and all(ch in _IDENT_REST for ch in name[1:])
    )


@dataclass(frozen=True)
class RingDescriptor:
    """Identifies one of the supported rings.

    kind is "integers", "rationals" or "polynomial"; polynomial descriptors
    additionally carry the ordered variable names and the base kind.
    """

    kind: str
    variables: tuple = ()
    base: str = ""

    def __post_init__(self):
        if self.kind in ("integers", "rationals"):
            if self.variables or self.base:
                raise ValueError(f"{self.kind} descriptor takes no variables")
        elif self.kind == "polynomial":
            if not self.variables:
                raise ValueError("polynomial descriptor needs at least one variable")
            if len(set(self.variables)) != len(self.variables):
                raise ValueError("variable names must be distinct")
            for name in self.variables:
                if not _is_identifier(name):
                    raise ValueError(f"invalid variable name {name!r}")
            if self.base not in ("integers", "rationals"):
                raise ValueError("polynomial base must be integers or rationals")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    # ---- structure ----

    @property
    def is_polynomial(self) -> bool:
        return self.kind == "polynomial"

    @property
    def rational_coefficients(self) -> bool:
        return self.kind == "rationals" or self.base == "rationals"

    @property
    def depth(self) -> int:
        """Number of polynomial variables (0 for scalar rings)."""
        return len(self.variables)

    def coefficient_ring(self) -> "RingDescriptor":
        """Ring of coefficients when the last variable is peeled off."""
        if not self.is_polynomial:
            raise UnsupportedRingError(f"{self} has no coefficient ring")
        if len(self.variables) == 1:
            return RingDescriptor(self.base)
        return RingDescriptor("polynomial", self.variables[:-1], self.base)

    @property
    def is_pid(self) -> bool:
        """True for the descriptors known to be principal ideal domains.

        Integers, rationals, and univariate polynomials over the rationals.
        Z[x] and every multivariate ring are GCD domains but not PIDs.
        """
        if self.kind in ("integers", "rationals"):
            return True
        return self.base == "rationals" and len(self.variables) == 1

    # ---- element construction ----

    def _wrap(self, value) -> "RingElement":
        return RingElement(self, value)

    @property
    def zero(self) -> "RingElement":
        return self._wrap(_zero_value(self.depth))

    @property
    def one(self) -> "RingElement":
        return self.from_int(1)

    def from_int(self, k: int) -> "RingElement":
        c = Fraction(k) if self.rational_coefficients else int(k)
        return self._wrap(_const_value(c, self.depth))

    def variable(self, name: str) -> "RingElement":
        if name not in self.variables:
            raise UnsupportedRingError(f"no variable {name!r} in {self}")
        pos = self.variables.index(name)
        one = Fraction(1) if self.rational_coefficients else 1
        # X^1 at nesting level pos, wrapped as a degree-0 coefficient above it
        value = (_zero_value(pos), _const_value(one, pos))
        for _ in range(pos + 1, self.depth):
            value = (value,)
        return self._wrap(value)

    def parse(self, text: str) -> "RingElement":
        return parse_element(text, self)

    def __str__(self) -> str:
        if self.kind == "integers":
            return "ZZ"
        if self.kind == "rationals":
            return "QQ"
        base = "ZZ" if self.base == "integers" else "QQ"
        return f"{base}[{','.join(self.variables)}]"


ZZ = RingDescriptor("integers")
QQ = RingDescriptor("rationals")


def polynomial_ring(*variables: str, base: RingDescriptor = ZZ) -> RingDescriptor:
    """Polynomial ring in the given variables over ZZ or QQ."""
    if base.kind not in ("integers", "rationals"):
        raise ValueError("base must be ZZ or QQ")
    return RingDescriptor("polynomial", tuple(variables), base.kind)


# ---------------------------------------------------------------------------
# Raw polynomial values: nested tuples, outermost level = last variable.
# Depth 0 values are int (ZZ base) or Fraction (QQ base); zero may be int 0
# in either case (int/Fraction compare and hash equal, so canonicity holds).
# ---------------------------------------------------------------------------


def _zero_value(depth: int):
    return () if depth else 0


def _const_value(c, depth: int):
    if not c:
        return _zero_value(depth)
    v = c
    for _ in range(depth):
        v = (v,)
    return v


def _strip(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _vadd(a, b, depth: int):
    if depth == 0:
        return a + b
    if not a:
        return b
    if not b:
        return a
    la, lb = len(a), len(b)
    out = []
    for i in range(max(la, lb)):
        x = a[i] if i < la else _zero_value(depth - 1)
        y = b[i] if i < lb else _zero_value(depth - 1)
        out.append(_vadd(x, y, depth - 1))
    return _strip(out)


def _vneg(a, depth: int):
    if depth == 0:
        return -a
    return tuple(_vneg(c, depth - 1) for c in a)


def _vsub(a, b, depth: int):
    return _vadd(a, _vneg(b, depth), depth)


def _vmul(a, b, depth: int):
    if depth == 0:
        return a * b
    if not a or not b:
        return ()
    out = [_zero_value(depth - 1)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            out[i + j] = _vadd(out[i + j], _vmul(x, y, depth - 1), depth - 1)
    return _strip(out)


def _vscale(a, c, depth: int):
    """Multiply a depth-level value by a coefficient c one level down."""
    if not c:
        return _zero_value(depth)
    if depth == 0:
        return a * c
    return _strip([_vmul(x, c, depth - 1) for x in a])


def _vpow(a, k: int, depth: int, rational: bool):
    result = _const_value(Fraction(1) if rational else 1, depth)
    for _ in range(k):
        result = _vmul(result, a, depth)
    return result


def _vexact_div(a, b, depth: int, rational: bool):
    """Quotient a/b when it exists in the ring, else None.  b must be nonzero."""
    if depth == 0:
        if rational:
            return Fraction(a) / b
        q, r = divmod(a, b)
        return q if r == 0 else None
    if not a:
        return ()
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return None
    rem = list(a)
    quo = [_zero_value(depth - 1)] * (da - db + 1)
    lead = b[db]
    for k in range(da - db, -1, -1):
        top = rem[k + db]
        if not top:
            continue
        c = _vexact_div(top, lead, depth - 1, rational)
        if c is None:
            return None
        quo[k] = c
        for j in range(db + 1):
            if b[j]:
                rem[k + j] = _vsub(rem[k + j], _vmul(c, b[j], depth - 1), depth - 1)
    if any(rem[j] for j in range(db)):
        return None
    return _strip(quo)


def _vterms(a, depth: int) -> Iterator:
    """Yield (exponent_tuple_in_variable_order, scalar_coefficient)."""
    if depth == 0:
        if a:
            yield ((), a)
        return
    for i, c in enumerate(a):
        for exps, s in _vterms(c, depth - 1):
            yield (exps + (i,), s)


def _lead_scalar(a, depth: int):
    """Scalar coefficient of the graded-lex leading term (0 for zero)."""
    if depth == 0:
        return a
    best = None
    best_key = None
    for exps, s in _vterms(a, depth):
        key = (sum(exps), exps)
        if best_key is None or key > best_key:
            best_key = key
            best = s
    return best if best is not None else 0


def _vcanon(a, depth: int, rational: bool):
    """Canonical associate: graded-lex-monic over QQ, positive lead over ZZ."""
    if not a and depth > 0:
        return a
    if depth == 0:
        if not a:
            return a
        return Fraction(1) if rational else abs(a)
    lead = _lead_scalar(a, depth)
    if rational:
        if lead == 1:
            return a
        inv = _const_value(Fraction(1, 1) / lead, depth - 1)
        return _strip([_vmul(c, inv, depth - 1) for c in a])
    if lead < 0:
        return _vneg(a, depth)
    return a


def _vcontent(a, depth: int, rational: bool):
    """Content: canonical gcd of the coefficients one level down.

    Over a rational scalar base the canonical choice is the coefficient of
    the highest power, which makes the primitive part monic in the top
    variable.
    """
    if depth == 1 and rational:
        return a[-1] if a else 0
    g = _zero_value(depth - 1)
    for c in a:
        g = _vgcd(g, c, depth - 1, rational)
    return g


def _vprimitive(a, depth: int, rational: bool):
    """(content, primitive) with a = content * primitive."""
    if not a:
        return _zero_value(depth - 1), a
    cont = _vcontent(a, depth, rational)
    prim = _strip([_vexact_div(c, cont, depth - 1, rational) for c in a])
    return cont, prim


def _vprem(a, b, depth: int):
    """Pseudo-remainder of a by b in the top variable (up to lc(b) powers).

    Returns r with r = u*a mod b for some power u of lc(b) and deg r < deg b.
    Only used inside the PRS loop, where the cofactor is irrelevant because
    the primitive part is taken immediately afterwards.
    """
    db = len(b) - 1
    lead_b = b[-1]
    rem = a
    while rem and len(rem) - 1 >= db:
        dr = len(rem) - 1
        lead_r = rem[-1]
        shifted = (_zero_value(depth - 1),) * (dr - db) + b
        rem = _vsub(_vscale(rem, lead_b, depth), _vscale(shifted, lead_r, depth), depth)
    return rem


def _vgcd(a, b, depth: int, rational: bool):
    if depth == 0:
        if rational:
            return Fraction(1) if (a or b) else 0
        return math.gcd(a, b)
    if not a:
        return _vcanon(b, depth, rational)
    if not b:
        return _vcanon(a, depth, rational)
    ca, pa = _vprimitive(a, depth, rational)
    cb, pb = _vprimitive(b, depth, rational)
    c = _vgcd(ca, cb, depth - 1, rational)
    if depth == 1 and rational:
        # Euclidean algorithm over the field base
        f, g = pa, pb
        while g:
            f, g = g, _vdivmod_field(f, g)[1]
        h = f
    else:
        # primitive pseudo-remainder sequence in the top variable
        f, g = pa, pb
        while g:
            r = _vprem(f, g, depth)
            f, g = g, _vprimitive(r, depth, rational)[1]
        h = f
    return _vcanon(_vscale(h, c, depth), depth, rational)


def _vdivmod_field(a, b):
    """Univariate division with remainder over Fraction coefficients."""
    db = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    while len(rem) - 1 >= db and rem:
        dr = len(rem) - 1
        c = rem[-1] / lead
        quo[dr - db] = c
        for j in range(db + 1):
            rem[dr - db + j] -= c * b[j]
        del rem[-1]
        while rem and not rem[-1]:
            del rem[-1]
    return _strip(quo), tuple(rem)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class RingElement:
    """An exact element of one of the supported rings.

    Immutable; arithmetic requires both operands to share one descriptor.
    """

    __slots__ = ("descriptor", "value", "_hash")

    def __init__(self, descriptor: RingDescriptor, value):
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.descriptor != self.descriptor:
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
        return self.descriptor == other.descriptor and self.value == other.value

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.descriptor, self.value))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(
            self.descriptor, _vadd(self.value, other.value, self.descriptor.depth)
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(
            self.descriptor, _vsub(self.value, other.value, self.descriptor.depth)
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(
            self.descriptor, _vmul(self.value, other.value, self.descriptor.depth)
        )

    def __neg__(self) -> "RingElement":
        return RingElement(self.descriptor, _vneg(self.value, self.descriptor.depth))

    def __pow__(self, k: int) -> "RingElement":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        d = self.descriptor
        return RingElement(d, _vpow(self.value, k, d.depth, d.rational_coefficients))

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{format_element(self)} in {self.descriptor}>"


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
# Arithmetic operations
# ---------------------------------------------------------------------------


def try_exact_div(a: RingElement, b: RingElement) -> Optional[RingElement]:
    """Quotient a/b if b divides a exactly, else None.  Raises on b = 0."""
    a._check(b)
    if b.is_zero:
        raise ZeroDivisionError("exact division by zero")
    d = a.descriptor
    q = _vexact_div(a.value, b.value, d.depth, d.rational_coefficients)
    return None if q is None else RingElement(d, q)


def exact_div(a: RingElement, b: RingElement) -> RingElement:
    """Quotient a/b; raises NotDivisibleError when a is not a multiple of b."""
    q = try_exact_div(a, b)
    if q is None:
        raise NotDivisibleError(f"{a} is not divisible by {b} in {a.descriptor}")
    return q


def divides(a: RingElement, b: RingElement) -> bool:
    """True when a divides b (with 0 | 0)."""
    if a.is_zero:
        a._check(b)
        return b.is_zero
    return try_exact_div(b, a) is not None


def canonical_associate(a: RingElement) -> RingElement:
    """The canonical representative of a's associate class.

    Nonnegative integers; 1 for nonzero rationals; positive graded-lex leading
    coefficient over ZZ bases; graded-lex-monic over QQ bases.
    """
    d = a.descriptor
    return RingElement(d, _vcanon(a.value, d.depth, d.rational_coefficients))


def gcd(a: RingElement, b: RingElement) -> RingElement:
    a._check(b)
    d = a.descriptor
    return RingElement(d, _vgcd(a.value, b.value, d.depth, d.rational_coefficients))


def lcm(a: RingElement, b: RingElement) -> RingElement:
    a._check(b)
    if a.is_zero or b.is_zero:
        return a.descriptor.zero
    return canonical_associate(exact_div(a * b, gcd(a, b)))


def gcd_many(elements: Sequence[RingElement], ring: RingDescriptor = None) -> RingElement:
    """Fold gcd over a sequence; the empty gcd is 0 (needs ring to type it)."""
    elements = list(elements)
    if not elements:
        if ring is None:
            raise ValueError("gcd of an empty sequence needs an explicit ring")
        return ring.zero
    out = elements[0]
    for e in elements[1:]:
        out = gcd(out, e)
    return canonical_associate(out)


def lcm_many(elements: Sequence[RingElement], ring: RingDescriptor = None) -> RingElement:
    """Fold lcm over a sequence; the empty lcm is 1 (needs ring to type it)."""
    elements = list(elements)
    if not elements:
        if ring is None:
            raise ValueError("lcm of an empty sequence needs an explicit ring")
        return ring.one
    out = elements[0]
    for e in elements[1:]:
        out = lcm(out, e)
    return canonical_associate(out)


def is_unit(a: RingElement) -> bool:
    """True when a divides 1, decided by attempting the division."""
    if a.is_zero:
        return False
    return try_exact_div(a.descriptor.one, a) is not None


def associate_unit(a: RingElement, b: RingElement) -> Optional[RingElement]:
    """The unit u with a = u*b when a and b are associates, else None."""
    a._check(b)
    if a.is_zero or b.is_zero:
        return a.descriptor.one if (a.is_zero and b.is_zero) else None
    u = try_exact_div(a, b)
    if u is not None and is_unit(u):
        return u
    return None


def is_associate(a: RingElement, b: RingElement) -> bool:
    return associate_unit(a, b) is not None


def content_and_primitive(p: RingElement):
    """Split p = content * primitive, peeling the last variable.

    The content lives in the coefficient ring (one variable fewer, or the
    scalar base ring for univariate input).  Content of 0 is 0.
    """
    d = p.descriptor
    if not d.is_polynomial:
        raise UnsupportedRingError("content requires a polynomial ring")
    coeff_ring = d.coefficient_ring()
    cont, prim = _vprimitive(p.value, d.depth, d.rational_coefficients)
    return RingElement(coeff_ring, cont), RingElement(d, prim)


# ---------------------------------------------------------------------------
# Euclidean layer: division with remainder, extended gcd, CRT
# ---------------------------------------------------------------------------


def _require_euclidean(ring: RingDescriptor, what: str) -> None:
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"{what} requires a Euclidean ring (ZZ, QQ or QQ[x]); got {ring}"
        )


def euclidean_divmod(a: RingElement, b: RingElement):
    """(q, r) with a = q*b + r and r canonical: 0 <= r < |b| over ZZ,
    deg r < deg b over QQ[x], r = 0 over QQ."""
    a._check(b)
    ring = a.descriptor
    _require_euclidean(ring, "division with remainder")
    if b.is_zero:
        raise ZeroDivisionError("division by zero")
    if ring.kind == "integers":
        m = abs(b.value)
        r = a.value % m
        return ring._wrap((a.value - r) // b.value), ring._wrap(r)
    if ring.kind == "rationals":
        return ring._wrap(Fraction(a.value) / b.value), ring.zero
    q, r = _vdivmod_field(a.value, b.value)
    return ring._wrap(q), ring._wrap(r)


def euclidean_xgcd(a: RingElement, b: RingElement):
    """(g, s, t) with s*a + t*b = g and g the canonical gcd."""
    a._check(b)
    ring = a.descriptor
    _require_euclidean(ring, "extended gcd")
    one, zero = ring.one, ring.zero
    g, s, t = a, one, zero
    g2, s2, t2 = b, zero, one
    while not g2.is_zero:
        q, r = euclidean_divmod(g, g2)
        g, g2 = g2, r
        s, s2 = s2, s - q * s2
        t, t2 = t2, t - q * t2
    if g.is_zero:
        return zero, zero, zero
    canon = canonical_associate(g)
    u = exact_div(canon, g)  # a unit
    return canon, u * s, u * t


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
        if c.residue.descriptor != ring:
            raise DescriptorMismatchError("congruences must share one ring")

    # pairwise solvability criterion; reported pairs refer to input positions
    n = len(congruences)
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(congruences[i].modulus, congruences[j].modulus)
            diff = congruences[i].residue - congruences[j].residue
            if not g.is_zero and not divides(g, diff):
                raise IncompatibleCongruencesError(i, j)

    x = congruences[0].residue
    m = canonical_associate(congruences[0].modulus)
    x = euclidean_divmod(x, m)[1]
    for c in congruences[1:]:
        b = canonical_associate(c.modulus)
        g, s, _ = euclidean_xgcd(m, b)
        diff = c.residue - x
        # pairwise compatibility of the merged class is implied by the
        # pairwise checks above (Euclidean CRT), so this division is exact
        step = exact_div(diff, g)
        lcm_mb = exact_div(m * b, g)
        x = x + m * s * step
        m = canonical_associate(lcm_mb)
        x = euclidean_divmod(x, m)[1]
    return x, m


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*^()/")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in _IDENT_FIRST:
            j = i
            while j < n and text[j] in _IDENT_REST:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser for the element expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nonneg-int)?
    base   := int | int '/' int (rational bases only) | variable
              | '(' expr ')' | '-' factor
    """

    def __init__(self, text: str, ring: RingDescriptor):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring

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

    def parse(self) -> RingElement:
        result = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return result

    def expr(self) -> RingElement:
        result = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> RingElement:
        result = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            result = result * self.factor()
        return result

    def factor(self) -> RingElement:
        base = self.base()
        if self.peek()[0] == "^":
            self.advance()
            exponent = self.exponent()
            base = base ** exponent
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
            return int(num[1])
        if tok[0] == "-":
            raise ParseError("negative exponent", tok[2])
        num = self.expect("int")
        return int(num[1])

    def base(self) -> RingElement:
        tok = self.advance()
        if tok[0] == "int":
            return self.int_or_rational(tok)
        if tok[0] == "name":
            if self.ring.is_polynomial and tok[1] in self.ring.variables:
                return self.ring.variable(tok[1])
            raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
        if tok[0] == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok[0] == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def int_or_rational(self, tok) -> RingElement:
        if self.peek()[0] == "/":
            slash = self.advance()
            if not self.ring.rational_coefficients:
                raise ParseError(
                    "rational literal in an integer-based ring", slash[2]
                )
            denom = self.expect("int")
            if int(denom[1]) == 0:
                raise ParseError("zero denominator", denom[2])
            frac = Fraction(int(tok[1]), int(denom[1]))
            return RingElement(
                self.ring, _const_value(frac, self.ring.depth)
            )
        return self.ring.from_int(int(tok[1]))


def parse_element(text: str, ring: RingDescriptor) -> RingElement:
    """Parse expression text into a canonical element of the given ring."""
    return _Parser(text, ring).parse()


def _format_scalar(c) -> str:
    return str(c)


def format_element(a: RingElement) -> str:
    """Canonical text; parse_element(format_element(a), ring) == a.

    Terms appear in descending graded-lex order on the variable list.
    """
    d = a.descriptor
    if not d.is_polynomial:
        return _format_scalar(a.value)
    terms = sorted(
        _vterms(a.value, d.depth),
        key=lambda t: (sum(t[0]), t[0]),
        reverse=True,
    )
    if not terms:
        return "0"
    parts = []
    for exps, c in terms:
        factors = []
        for name, e in zip(d.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body: str
        if not factors:
            body = _format_scalar(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_scalar(abs(c))] + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)
