"""Fixed-precision p-adic arithmetic, the j-function q-expansion, Tate
parameters of split multiplicative curves, and the log q / ord q invariant.

A ``PadicNumber`` stores a valuation and a unit part known modulo
p**prec (prec significant base-p digits): it is known modulo p**(val + prec),
and a zero is O(p**(val + prec)).  Additions track the precision lost to
cancellation, and every operation keeps a zero's absolute precision.

The Tate parameter q of a curve with invariant j is the fixed point of
x -> x j(x) / j, found by exact iteration in the integers modulo
p**(val + prec): ceil(prec / val) steps from x = 0, each proving val digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import DomainError, is_prime, rational_valuation, valuation
from .curve import WeierstrassCurve
from .local_data import ReductionKind, reduction_type

DEFAULT_DIGITS = 20
# The most digits the CLI accepts; the functions take any.  A split prime with
# v_p(j) = -1 needs as many fixed-point steps, the k-th a Horner pass over k
# terms mod p^(k + 1).  On a 2-vCPU x86-64 container `linv` at the cap took
# 0.5 s at p = 71 and 2.4 s at p = 8964467; the cost grows with log p.
DIGITS_CAP = 250


@dataclass(frozen=True)
class PadicNumber:
    """p^valuation * unit, unit a p-adic unit known mod p^prec (prec digits)."""

    p: int
    val: int  # for a zero, val + prec is all that is known: it is O(p^(val + prec))
    unit: int  # 0 means the number is zero to working precision
    prec: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.prec < 1:
            raise DomainError("precision must be at least one digit")
        u = self.unit % self.p**self.prec
        object.__setattr__(self, "unit", u)
        if u and u % self.p == 0:
            raise AssertionError("unit part must be a unit (normalize on construction)")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int = DEFAULT_DIGITS) -> "PadicNumber":
        return cls(p, 0, 0, prec)

    @classmethod
    def from_fraction(cls, x, p: int, prec: int = DEFAULT_DIGITS) -> "PadicNumber":
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, prec)
        v = rational_valuation(x, p)
        num, den = x.numerator // p ** max(v, 0), x.denominator // p ** max(-v, 0)
        m = p**prec
        unit = num * pow(den % m, -1, m) % m
        return cls(p, v, unit, prec)

    def __str__(self) -> str:
        if self.unit == 0:
            return f"O({self.p}^{self.absolute_precision})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.val + self.prec})"

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def absolute_precision(self) -> int:
        """The N with the number known modulo p^N."""
        return self.val + self.prec

    def valuation(self) -> int:
        if self.is_zero:
            raise DomainError("valuation of (p-adic) zero")
        return self.val

    # -- arithmetic -----------------------------------------------------------

    def _binary_prec(self, other: "PadicNumber"):
        if self.p != other.p:
            raise DomainError("mixed primes")
        return min(self.prec, other.prec)

    def _zero_like(self, absolute_precision: int, prec: int) -> "PadicNumber":
        """O(p^absolute_precision), with prec digits for the exact rationals it meets."""
        return PadicNumber(self.p, absolute_precision - prec, 0, prec)

    def __mul__(self, other) -> "PadicNumber":
        other = self._coerce(other)
        k = self._binary_prec(other)
        if self.is_zero or other.is_zero:
            # p^v u * O(p^N) = O(p^(v + N)) and O(p^M) * O(p^N) = O(p^(M + N))
            least = sum(x.absolute_precision if x.is_zero else x.val for x in (self, other))
            return self._zero_like(least, k)
        return PadicNumber(self.p, self.val + other.val, self.unit * other.unit % self.p**k, k)

    def __truediv__(self, other) -> "PadicNumber":
        other = self._coerce(other)
        k = self._binary_prec(other)
        if other.is_zero:
            raise DomainError("division by p-adic zero")
        if self.is_zero:  # O(p^N) / (p^v u) = O(p^(N - v))
            return self._zero_like(self.absolute_precision - other.val, k)
        m = self.p**k
        return PadicNumber(self.p, self.val - other.val, self.unit * pow(other.unit, -1, m) % m, k)

    def __add__(self, other) -> "PadicNumber":
        other = self._coerce(other)
        prec = self._binary_prec(other)
        abs_prec = min(self.absolute_precision, other.absolute_precision)
        terms = [x for x in (self, other) if not x.is_zero]
        v = min((x.val for x in terms), default=abs_prec)
        if v >= abs_prec:
            return self._zero_like(abs_prec, prec)
        k = abs_prec - v
        s = sum(x.unit * self.p ** (x.val - v) for x in terms) % self.p**k
        if s == 0:
            return self._zero_like(abs_prec, prec)
        dv = valuation(s, self.p)
        return PadicNumber(self.p, v + dv, s // self.p**dv, k - dv)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        return PadicNumber(self.p, self.val, self.p**self.prec - self.unit, self.prec)

    def __sub__(self, other) -> "PadicNumber":
        return self + (-self._coerce(other))

    def __pow__(self, n: int) -> "PadicNumber":
        if n < 0:
            return PadicNumber.from_fraction(1, self.p, self.prec) / self**(-n)
        out = PadicNumber(self.p, 0, 1, self.prec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            return other
        return PadicNumber.from_fraction(other, self.p, self.prec)


# -- q-expansion of the modular j-function -----------------------------------


def _series_mul(a: list[int], b: list[int], T: int) -> list[int]:
    out = [0] * (T + 1)
    for i, ai in enumerate(a[: T + 1]):
        if ai:
            for j, bj in enumerate(b[: T + 1 - i]):
                out[i + j] += ai * bj
    return out


def j_q_expansion(T: int) -> tuple[int, ...]:
    """q j(q) to degree T + 1 as exact integers, j = E4(q)^3 / Delta(q).

    Index n + 1 holds the coefficient of q^n in j(q), for -1 <= n <= T.

    E4 = 1 + 240 sum sigma3(n) q^n; Delta = q prod (1 - q^n)^24, and Jacobi's
    identity gives prod (1 - q^n)^3 = sum_k (-1)^k (2k + 1) q^(k(k+1)/2).
    """
    if T < 1:
        raise DomainError("need at least one positive power")
    sigma3 = [0] * (T + 2)
    for d in range(1, T + 2):
        for mult in range(d, T + 2, d):
            sigma3[mult] += d**3
    e4 = [1] + [240 * sigma3[n] for n in range(1, T + 2)]
    e4cubed = _series_mul(_series_mul(e4, e4, T + 1), e4, T + 1)
    # Delta / q = prod (1 - q^n)^24: Jacobi's cube, squared three times
    eta24 = [0] * (T + 2)
    k = 0
    while k * (k + 1) // 2 <= T + 1:
        eta24[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        eta24 = _series_mul(eta24, eta24, T + 1)
    # j * q = E4^3 / (Delta / q); the divisor has constant term 1
    jq = []
    for k in range(T + 2):
        jq.append(e4cubed[k] - sum(eta24[i] * jq[k - i] for i in range(1, k + 1)))
    return tuple(jq)


# -- Tate parameter and the log/ord invariant ---------------------------------


def tate_parameter(C: WeierstrassCurve, p: int, prec: int = DEFAULT_DIGITS) -> PadicNumber:
    """The q with j(q) = j(C), val(q) = -val_p(j) > 0, for split multiplicative C.

    With F(x) = x j(x) = 1 + 744 x + ... (integer coefficients) and t = 1/j,
    q is the fixed point of x -> t F(x) in p Z_p.  Let m = val(t), so q lies
    in p^m Z_p, and N = ceil(prec / m).  For x, y in p^m Z_p, x = y mod p^(k m)
    gives F(x) = F(y) mod p^(k m), and the terms of F from x^k on vanish mod
    p^(k m); so t F(x) = t F(y) mod p^(k m + m), and that step needs only the
    terms below x^k.  From x = 0, which is q mod p^m, step k = 1..N gives q mod
    p^(k m + m), and step N gives q mod p^(m + prec): its valuation m and all
    prec digits of its unit are proved.
    """
    if reduction_type(C, p) is not ReductionKind.MULT_SPLIT:
        raise DomainError(f"reduction at {p} is not split multiplicative")
    j = C.j_invariant()
    vj = rational_valuation(j, p)
    if vj >= 0:
        raise DomainError(f"j-invariant is p-integral at {p}; no Tate parameter")
    m = -vj
    N = -(-prec // m)
    mod = p ** (m + prec)
    t = j.denominator * pow(j.numerator, -1, mod) % mod
    F = [c % mod for c in reversed(j_q_expansion(N)[:N])]
    x = 0
    for k in range(1, N + 1):
        r = p ** min(k * m + m, m + prec)
        acc = 0
        for c in F[-k:]:
            acc = (acc * x + c) % r
        x = t * acc % r
    return PadicNumber(p, m, x // p**m, prec)


def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """The p-adic logarithm with the branch log(p) = 0.

    Units u are reduced to 1 mod p via u^(p-1); the series log(1+t) then
    converges and log(u) = log(u^(p-1)) / (p-1).  u and so t are known
    modulo p^prec, and so is log(1+t).  The k-th term t^k/k has valuation
    at least k v(t) - floor(log_p k), which never decreases in k, so the sum
    stops at the first k where that bound reaches prec: every later term is
    O(p^prec).
    """
    if x.is_zero:
        raise DomainError("log of p-adic zero")
    p = x.p
    # branch: log(p^v * u) = v*log(p) + log(u) = log(u)
    u = PadicNumber(p, 0, x.unit, x.prec)
    w = u ** (p - 1)  # = 1 mod p
    t = w - 1
    if t.is_zero:
        return PadicNumber.zero(p, x.prec)
    total = PadicNumber.zero(p, x.prec)
    tk, k, log_k = t, 1, 0  # log_k = floor(log_p k)
    while k * t.valuation() - log_k < x.prec:
        total = total + (tk / k if k % 2 else -(tk / k))
        tk = tk * t
        k += 1
        if k == p ** (log_k + 1):
            log_k += 1
    return total / (p - 1)


@dataclass(frozen=True)
class LInvariantResult:
    p: int
    tate_q: PadicNumber
    value: PadicNumber  # log_p(q) / ord_p(q)


def l_invariant(C: WeierstrassCurve, p: int, prec: int = DEFAULT_DIGITS) -> LInvariantResult:
    """log_p(q_E) / ord_p(q_E) for a split multiplicative prime."""
    q = tate_parameter(C, p, prec)
    log_q = iwasawa_log(q)
    return LInvariantResult(p, q, log_q / q.valuation())
