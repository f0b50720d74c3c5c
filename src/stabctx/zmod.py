"""Arithmetic over Z_d for odd prime d.

Provides the prime modulus type, sparse multivariate polynomials over Z_d,
exhaustive permutation-polynomial testing, and the degree-at-most-3
permutation classifier (Dickson normal form a*g(x+b)+c with g = x or x^3,
valid for d not congruent to 1 mod 3).
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence


class StabctxError(Exception):
    """Base class for all library errors."""


class MalformedInput(StabctxError, ValueError):
    """Raised when an argument has the wrong length, sign or value; also a
    ValueError, so `except ValueError` callers keep working."""


class ZeroInverse(StabctxError):
    """Raised when inverting 0 mod d."""


class ArityMismatch(StabctxError):
    """Raised when a point or substitution does not match num_vars."""


class UnsupportedModulus(StabctxError):
    """Raised when the Dickson classifier is asked about d = 1 mod 3."""


class PolyParseError(StabctxError):
    """Raised on malformed polynomial text."""


def _integers(items, what: str) -> tuple[int, ...]:
    """`items` as a tuple of ints; anything but integers is malformed."""
    try:
        return tuple(map(operator.index, items))
    except TypeError:
        raise MalformedInput(f"{what} must be integers") from None


def _is_odd_prime(d: int) -> bool:
    if d < 3 or d % 2 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True, slots=True)
class Modulus:
    """An odd prime modulus d >= 3, checked by trial division."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or not _is_odd_prime(self.d):
            raise UnsupportedModulus(f"modulus must be an odd prime, got {self.d!r}")

    @property
    def inv2(self) -> int:
        # 2 * (d+1)//2 = d + 1 = 1 mod d
        return (self.d + 1) // 2

    def __str__(self):
        return str(self.d)


def inv(a: int, m: Modulus) -> int:
    """Multiplicative inverse of a mod d.

        >>> inv(2, Modulus(5))
        3
        >>> inv(1, Modulus(7))
        1
    """
    a %= m.d
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {m.d}")
    return pow(a, m.d - 2, m.d)


_DEFAULT_NAMES = {1: ("x",), 2: ("j", "k")}


@dataclass(frozen=True, slots=True)
class ZdPoly:
    """Sparse polynomial over Z_d in num_vars variables.

    Coefficients are stored canonically: keys are exponent tuples of length
    num_vars, values are nonzero residues in 1..d-1.  Exponents are kept as
    written (x^d is not folded to x eagerly); use :meth:`fermat_reduce` when
    the reduced functional form is wanted.
    """

    modulus: Modulus
    num_vars: int
    coeffs: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ArityMismatch("num_vars must be >= 1")
        d = self.modulus.d
        clean = {}
        for exps, c in self.coeffs.items():
            if len(exps) != self.num_vars:
                raise ArityMismatch(
                    f"exponent tuple {exps} does not have {self.num_vars} entries")
            c %= d
            if c:
                clean[tuple(int(e) for e in exps)] = c
        object.__setattr__(self, "coeffs", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: Modulus, num_vars: int) -> "ZdPoly":
        return cls(m, num_vars, {})

    @classmethod
    def constant(cls, m: Modulus, c: int, num_vars: int) -> "ZdPoly":
        return cls(m, num_vars, {(0,) * num_vars: c % m.d})

    @classmethod
    def variable(cls, m: Modulus, index: int, num_vars: int) -> "ZdPoly":
        exps = [0] * num_vars
        exps[index] = 1
        return cls(m, num_vars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, m: Modulus, coeff: int, exps: Sequence[int]) -> "ZdPoly":
        return cls(m, len(exps), {tuple(exps): coeff % m.d})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "ZdPoly":
        if isinstance(other, ZdPoly):
            if other.modulus != self.modulus or other.num_vars != self.num_vars:
                raise ArityMismatch("polynomial domains differ")
            return other
        return ZdPoly.constant(self.modulus, int(other), self.num_vars)

    def __add__(self, other) -> "ZdPoly":
        other = self._coerce(other)
        acc = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            acc[exps] = (acc.get(exps, 0) + c) % self.modulus.d
        return ZdPoly(self.modulus, self.num_vars, acc)

    __radd__ = __add__

    def __neg__(self) -> "ZdPoly":
        d = self.modulus.d
        return ZdPoly(self.modulus, self.num_vars,
                      {e: (-c) % d for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "ZdPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ZdPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ZdPoly":
        other = self._coerce(other)
        d = self.modulus.d
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = (acc.get(key, 0) + c1 * c2) % d
        return ZdPoly(self.modulus, self.num_vars, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ZdPoly":
        if n < 0:
            raise MalformedInput("negative polynomial power")
        out = ZdPoly.constant(self.modulus, 1, self.num_vars)
        for _ in range(n):
            out = out * self
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def coeff(self, exps: Sequence[int]) -> int:
        return self.coeffs.get(tuple(exps), 0)

    def terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Terms in canonical order: total degree descending, then exponent
        tuple descending lexicographically."""
        return iter(sorted(self.coeffs.items(),
                           key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]))))

    def fermat_reduce(self) -> "ZdPoly":
        """Fold exponents by x^d = x, giving the reduced functional form."""
        d = self.modulus.d
        acc: dict[tuple[int, ...], int] = {}
        for exps, c in self.coeffs.items():
            key = tuple(e if e < d else (e - 1) % (d - 1) + 1 for e in exps)
            acc[key] = (acc.get(key, 0) + c) % d
        return ZdPoly(self.modulus, self.num_vars, acc)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.num_vars:
            raise ArityMismatch(
                f"point of length {len(point)} for {self.num_vars} variables")
        d = self.modulus.d
        pt = [p % d for p in point]
        total = 0
        for exps, c in self.coeffs.items():
            t = c
            for p, e in zip(pt, exps):
                if e:
                    t = t * pow(p, e, d) % d
            total += t
        return total % d

    def substitute(self, replacements: Sequence["ZdPoly"]) -> "ZdPoly":
        """Substitute a polynomial for each variable.

        All replacement polynomials must share a modulus and variable count;
        the result lives in their variable space.
        """
        if len(replacements) != self.num_vars:
            raise ArityMismatch("one replacement per variable required")
        nv = replacements[0].num_vars
        for r in replacements:
            if r.modulus != self.modulus or r.num_vars != nv:
                raise ArityMismatch("replacement domains differ")
        out = ZdPoly.zero(self.modulus, nv)
        for exps, c in self.coeffs.items():
            term = ZdPoly.constant(self.modulus, c, nv)
            for r, e in zip(replacements, exps):
                if e:
                    term = term * (r ** e)
            out = out + term
        return out

    # -- text form -----------------------------------------------------------

    def format(self, names: Optional[Sequence[str]] = None) -> str:
        if names is None:
            names = _DEFAULT_NAMES.get(self.num_vars)
            if names is None:
                names = tuple(f"x{i}" for i in range(self.num_vars))
        if len(names) != self.num_vars:
            raise ArityMismatch("one name per variable required")
        if not self.coeffs:
            return "0"
        parts = []
        for exps, c in self.terms():
            factors = []
            if c != 1 or all(e == 0 for e in exps):
                factors.append(str(c))
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.format()


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\^)|(\*)|(\+)|(-))")


def parse_poly(text: str, m: Modulus,
               variables: Optional[Sequence[str]] = None) -> ZdPoly:
    """Parse the canonical polynomial text form.

    Grammar (documented in the README):
        poly   := ['-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := INT | VAR ['^' INT]

        >>> str(parse_poly("2*j^2*k + 4*j*k^2 + 1", Modulus(5)))
        '2*j^2*k + 4*j*k^2 + 1'
        >>> str(parse_poly("x^3 - x", Modulus(5), variables=("x",)))
        'x^3 + 4*x'
    """
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise PolyParseError(f"unexpected character at {text[pos:]!r}")
        tokens.append(match)
        pos = match.end()

    if variables is None:
        seen = [t.group(2) for t in tokens if t.group(2)]
        for candidate in (("j", "k"), ("x", "y"), ("x",)):
            if seen and set(seen) <= set(candidate):
                variables = candidate
                break
        else:
            if seen:
                raise PolyParseError(f"unknown variables {sorted(set(seen))}; "
                                     "expected j,k or x,y")
            variables = ("j", "k")
    var_index = {name: i for i, name in enumerate(variables)}
    nv = len(variables)

    poly = ZdPoly.zero(m, nv)
    i = 0
    n = len(tokens)

    def term_at(i: int) -> tuple[ZdPoly, int]:
        if i == n:
            raise PolyParseError(
                f"term expected after {tokens[i - 1].group(0).strip()!r}"
                if i else "empty polynomial")
        coeff = 1
        exps = [0] * nv
        expect_factor = True
        while i < n:
            t = tokens[i]
            if expect_factor:
                if t.group(1):
                    coeff = coeff * int(t.group(1))
                elif t.group(2):
                    name = t.group(2)
                    if name not in var_index:
                        raise PolyParseError(f"unknown variable {name!r}")
                    e = 1
                    if i + 1 < n and tokens[i + 1].group(3):
                        if i + 2 >= n or not tokens[i + 2].group(1):
                            raise PolyParseError("exponent expected after '^'")
                        e = int(tokens[i + 2].group(1))
                        i += 2
                    exps[var_index[name]] += e
                else:
                    raise PolyParseError(f"factor expected near {t.group(0)!r}")
                expect_factor = False
                i += 1
            elif t.group(4):
                expect_factor = True
                i += 1
            else:
                break
        if expect_factor:
            raise PolyParseError("dangling '*'")
        return ZdPoly.monomial(m, coeff, exps), i

    sign = 1
    if i < n and tokens[i].group(6):
        sign = -1
        i += 1
    term, i = term_at(i)
    poly = poly + term * sign
    while i < n:
        t = tokens[i]
        if t.group(5):
            sign = 1
        elif t.group(6):
            sign = -1
        else:
            raise PolyParseError(f"'+' or '-' expected near {t.group(0)!r}")
        i += 1
        term, i = term_at(i)
        poly = poly + term * sign
    return poly


def is_permutation_polynomial(p: ZdPoly) -> bool:
    """Exhaustively decide whether p takes each value in Z_d equally often.

    Evaluates p on all d^num_vars points and checks that every value in Z_d
    has exactly d^(num_vars-1) preimages.  Exact and fast at desk scale
    (d <= 13, num_vars <= 2 in the hot paths).
    """
    d = p.modulus.d
    counts = [0] * d
    for point in itertools.product(range(d), repeat=p.num_vars):
        counts[p.evaluate(point)] += 1
    expected = d ** (p.num_vars - 1)
    return all(c == expected for c in counts)


@dataclass(frozen=True, slots=True)
class DicksonClassification:
    """Outcome of the degree-<=3 permutation classifier.

    normal_form is (a, g, b, c) with g in {"x", "x^3"} meaning
    f(x) = a*g(x+b) + c; it is populated for permutations when d > 3.
    """

    is_permutation: bool
    normal_form: Optional[tuple[int, str, int, int]] = None


def dickson_classify(p: ZdPoly) -> DicksonClassification:
    """Classify a single-variable polynomial of degree <= 3 over Z_d.

    Requires d != 1 mod 3 (raises UnsupportedModulus otherwise: the normal
    form a*g(x+b)+c with g in {x, x^3} characterizes permutations only
    there).  Agrees with :func:`is_permutation_polynomial` on its domain.
    """
    d = p.modulus.d
    if d % 3 == 1:
        raise UnsupportedModulus(
            f"d={d} is 1 mod 3; use is_permutation_polynomial instead")
    if p.num_vars != 1:
        raise ArityMismatch("dickson_classify takes single-variable polynomials")
    if p.degree() > 3:
        raise ArityMismatch(f"degree {p.degree()} exceeds 3")

    e3 = p.coeff((3,))
    e2 = p.coeff((2,))
    e1 = p.coeff((1,))
    e0 = p.coeff((0,))

    if d == 3:
        # x^3 acts as x; classify the reduced functional form, no normal form.
        lin = (e1 + e3) % 3
        return DicksonClassification(is_permutation=(e2 == 0 and lin != 0))

    if e3 == 0:
        if e2 != 0 or e1 == 0:
            return DicksonClassification(is_permutation=False)
        return DicksonClassification(True, (e1, "x", 0, e0))

    # Complete the cube: f(x) = e3*(x+b)^3 + r*(x+b) + s with b = e2/(3*e3).
    b = e2 * inv(3 * e3 % d, p.modulus) % d
    r = (e1 - 3 * e3 * b * b) % d
    s = (e0 - e3 * pow(b, 3, d) - r * b) % d
    if r != 0:
        return DicksonClassification(is_permutation=False)
    return DicksonClassification(True, (e3, "x^3", b, s))
