"""Exact sparse reduced row echelon form over the rationals or a prime field.

A row is a dict {column: scalar} holding only its nonzero entries; scalars
are Fractions over the rationals and ints in 1..p-1 over GF(p).  The kernels
read the `FieldSpec`'s modulus once per call and do the arithmetic inline, so a
row operation costs one dict update per nonzero of the row it subtracts.

RREF is canonical: pivot entries are 1, pivot columns are otherwise zero,
pivot columns strictly increase, zero rows are dropped.  It is computed as
a structured sparse elimination: each incoming row is reduced by the pivot
rows at its minimum column until that column is new, and the echelon form
is then back-substituted from the largest pivot down.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RingError, excerpt

# Miller-Rabin with the first 13 primes as bases is exact below PRIME_LIMIT
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin primality; ValueError from PRIME_LIMIT on."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality of {n} is decided only below {PRIME_LIMIT}")
    if n < 2 or any(n % q == 0 for q in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d with d odd
    for a in _BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class FieldSpec:
    """A field is its modulus: the rationals when p is None, else the prime field GF(p)."""

    p: int | None = DEFAULT_PRIME

    def __post_init__(self):
        p = self.p
        if p is not None and not (isinstance(p, int) and 1 < p < PRIME_LIMIT and is_prime(p)):
            raise RingError(f"prime field needs a prime modulus below {PRIME_LIMIT}, got {excerpt(p)}")

    @property
    def name(self):
        return "rationals" if self.p is None else f"prime:{self.p}"

    def of(self, x):
        """The scalar of a rational number; RingError when p divides its denominator."""
        f = Fraction(x)
        if self.p is None:
            return f
        if f.denominator % self.p == 0:
            raise RingError(f"coefficient {x} is not defined over {self.name}")
        return f.numerator * pow(f.denominator, -1, self.p) % self.p

    def to_json(self):
        return "q" if self.p is None else f"p:{self.p}"

    @classmethod
    def from_json(cls, text):
        if text == "q":
            return cls(None)
        digits = text[2:] if isinstance(text, str) and text.startswith("p:") else ""
        if digits.isascii() and digits.isdigit():  # str.isdigit alone admits '²' and '٣'
            if len(digits) > len(str(PRIME_LIMIT)):  # int() refuses past 4,300 digits
                raise RingError(
                    f"prime field needs a prime modulus below {PRIME_LIMIT}, got {len(digits)} digits"
                )
            return cls(int(digits))
        raise RingError(f"unknown field spec {excerpt(text)}")


RATIONALS = FieldSpec(None)


def add_multiple(row, f, other, field):
    """row += f * other, in place, keeping only nonzero entries."""
    p = field.p
    get = row.get
    for c, w in other.items():
        v = get(c, 0) + f * w
        if p:
            v %= p
        if v:
            row[c] = v
        else:
            row.pop(c, None)


def rref(rows, ncols, field):
    """Canonical RREF.  Returns (rows, pivot_columns); input rows are not mutated.

    Only columns below ncols can be pivots; entries at ncols and beyond ride
    along with their row, and a row that is zero below ncols is dropped.
    """
    p = field.p
    piv = {}  # pivot column -> row, scaled so that its pivot entry is 1
    for r in rows:
        row = {c: v for c, v in r.items() if v}
        c = min(row, default=ncols)
        while c < ncols and c in piv:
            add_multiple(row, -row[c], piv[c], field)
            c = min(row, default=ncols)
        if c < ncols:
            lead = row[c]
            if lead != 1:
                inv = pow(lead, -1, p) if p else Fraction(1) / lead
                row = {k: (v * inv % p if p else v * inv) for k, v in row.items()}
            piv[c] = row
    cols = sorted(piv)
    # back substitution: larger pivot rows are already reduced, so clearing
    # one pivot column never refills another
    for c in reversed(cols):
        row = piv[c]
        for k in [k for k in row if k > c and k in piv]:
            add_multiple(row, -row[k], piv[k], field)
    return [piv[c] for c in cols], cols


def reduce_vector(rref_rows, pivots, vec, field):
    """Reduce vec against an RREF basis, or rows kept by `extend_echelon`;
    returns (coefficients, residual).

    vec == sum(coefficients[i] * rref_rows[i]) + residual, and residual is
    zero on every pivot column.
    """
    v = {c: x for c, x in vec.items() if x}
    coeffs = []
    for row, c in zip(rref_rows, pivots):
        f = v.get(c, 0)
        coeffs.append(f)
        if f:
            add_multiple(v, -f, row, field)
    return coeffs, v


def extend_echelon(rows, pivots, vec, field):
    """Reduce vec against echelon rows and append its remainder, if any, as a
    new row scaled to 1 at its least column; returns whether vec was
    independent of the rows.

    The rows must be 1 at their pivot and 0 at the pivots of the rows before
    them, as an RREF is; the appended row is 0 at every earlier pivot, so
    the rows stay so.
    """
    _, rest = reduce_vector(rows, pivots, vec, field)
    if rest:
        [row], [c] = rref([rest], max(rest) + 1, field)
        rows.append(row)
        pivots.append(c)
    return bool(rest)


def rref_with_transform(rows, ncols, field):
    """RREF plus the transform rows T with R = T * rows, T over row indices.

    Rows whose data part becomes zero are dropped along with their transform;
    only spanning information is kept.
    """
    one = field.of(1)
    aug = [{**r, ncols + i: one} for i, r in enumerate(rows)]
    red, pivots = rref(aug, ncols, field)
    data = [{c: v for c, v in r.items() if c < ncols} for r in red]
    transform = [{c - ncols: v for c, v in r.items() if c >= ncols} for r in red]
    return data, pivots, transform
