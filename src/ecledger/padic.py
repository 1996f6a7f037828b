"""p-adic values, the j-function q-expansion, Tate parameters of split
multiplicative curves, and the log q / ord q invariant.

Everything is computed on plain integers modulo a power of p.  A
``PadicNumber`` only records a result: a valuation and a unit part known
modulo p**prec (prec significant base-p digits), so it is known modulo
p**(val + prec), and a zero is O(p**(val + prec)).

The Tate parameter q of a curve with invariant j is the fixed point of
x -> x j(x) / j, found by exact iteration in the integers modulo
p**(val + prec): ceil(prec / val) steps from x = 0, each proving val digits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import DomainError, is_prime, rational_valuation, valuation
from .curve import WeierstrassCurve
from .local_data import ReductionKind, reduction_type

DEFAULT_DIGITS = 20


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

    @classmethod
    def from_residue(cls, a: int, p: int, n: int) -> "PadicNumber":
        """The integer a known mod p^n: O(p^n) if p^n divides a."""
        a %= p**n
        if a == 0:
            return cls(p, 0, 0, n)
        v = valuation(a, p)
        return cls(p, v, a // p**v, n - v)

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
    return PadicNumber.from_residue(x, p, m + prec)


def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """The p-adic logarithm with the branch log(p) = 0, known mod p^n, n = x.prec.

    log(p^v u) = log(u) = log(1 + t) / (p - 1) with t = u^(p-1) - 1 in p Z_p.
    The unit u is known mod p^n, so t is: take its integer representative in
    [0, p^n), of valuation v >= 1 (t = 0 gives O(p^n)).  Any t' = t mod p^n has
    t'^k = t^k mod p^(n + (k - 1) v), and (k - 1) v >= v_p(k) since
    k >= p^(v_p(k)) > v_p(k); so t^k / k mod p^n, and with it every digit of
    the sum mod p^n, is the same for every t' and proved.

    The k-th term has valuation k v - v_p(k) >= k v - g, g = floor(log_p k),
    a bound that never decreases in k; the sum stops at the first k where it
    reaches n, and every later term is 0 mod p^n.  t^k is carried mod
    p^(n + g): that holds at k = 1, and multiplying by t proves v >= 1 more
    digits while g grows by at most one.  As v_p(k) <= g, t^k splits exactly
    by p^(v_p(k)), leaving t^k / p^(v_p(k)) mod p^n, and the unit part of k
    is inverted mod p^n.
    """
    if x.is_zero:
        raise DomainError("log of p-adic zero")
    p, n = x.p, x.prec
    mod = p**n
    t = (pow(x.unit, p - 1, mod) - 1) % mod
    if t == 0:
        return PadicNumber.from_residue(0, p, n)
    v = valuation(t, p)
    total, tk, k, g = 0, t, 1, 0  # tk = t^k mod p^(n + g), g = floor(log_p k)
    while k * v - g < n:
        e = valuation(k, p)
        term = tk // p**e * pow(k // p**e, -1, mod)
        total += term if k % 2 else -term
        k += 1
        if k == p ** (g + 1):
            g += 1
        tk = tk * t % p ** (n + g)
    return PadicNumber.from_residue(total * pow(p - 1, -1, mod), p, n)


@dataclass(frozen=True)
class LInvariantResult:
    tate_q: PadicNumber
    value: PadicNumber  # log_p(q) / ord_p(q)


def l_invariant(C: WeierstrassCurve, p: int, prec: int = DEFAULT_DIGITS) -> LInvariantResult:
    """log_p(q_E) / ord_p(q_E) for a split multiplicative prime."""
    q = tate_parameter(C, p, prec)
    log_q = iwasawa_log(q)
    # divide by m = ord(q) = p^e u: lower the valuation by e and multiply the
    # unit by u^-1 mod p^digits, so a zero O(p^N) becomes O(p^(N - e))
    m = q.valuation()
    e = valuation(m, p)
    mod = p**log_q.prec
    value = PadicNumber(p, log_q.val - e, log_q.unit * pow(m // p**e, -1, mod), log_q.prec)
    return LInvariantResult(q, value)
