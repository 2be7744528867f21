"""Hybrid product/SPOD quadrature weights and the associated error bounds.

The weight of a coordinate set u splits at a crossover dimension J: on
E = {1..J} the weight has product structure (per-coordinate factors), and
beyond J it has SPOD structure (a |nu|! factor coupling the derivative
orders).  Writing gamma_u as a sum over order vectors nu in {1..alpha}^u,

    gamma_u = sum_nu  nu_{u&E}! * |nu_{u&E^c}|! * prod_{j in u} 2^{delta(nu_j,alpha)} beta_j^{nu_j},

which factorizes exactly into (product part over u&E) x (SPOD part over
u&E^c); the SPOD part is evaluated by a coefficient recursion over the
total order, never by enumerating order vectors.

Also provided: the digital-net worst-case-error constant C_{alpha,b} (and
its 2^alpha variant for integrands rescaled from [-1,1] to [0,1]), the
per-step CBC error bound, the explicit error constant of the N^{-1/p}
rate, the crossover dimension from a tail-sum condition, and the
dimension-truncation bound.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfpoly import check_prime_base


def _fact(n: int) -> float:
    """n! as a float; exact below the float ceiling, lgamma beyond."""
    if n < 150:
        return float(math.factorial(n))
    return math.exp(math.lgamma(n + 1))


@dataclass(frozen=True)
class DecaySequence:
    """Positive sequence beta_j with a certified summability exponent p.

    Either a power law c*j^{-theta} (summable for theta*p > 1) or an
    explicit finite list whose tail rule is zero.
    """

    kind: str  # "power" | "list"
    p: float
    c: float = 1.0
    theta: float = 2.0
    values: tuple = ()

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError(f"summability exponent p must be in (0,1], got {self.p}")
        if self.kind == "power":
            if self.c <= 0:
                raise ValueError("power-law scale must be positive")
            if self.theta * self.p <= 1:
                raise ValueError(
                    f"power tail not p-summable: theta*p = {self.theta * self.p} <= 1"
                )
        elif self.kind == "list":
            if not self.values or any(v <= 0 for v in self.values):
                raise ValueError("list sequence must be nonempty and positive")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        else:
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    @classmethod
    def power(cls, c: float, theta: float, p: float) -> "DecaySequence":
        return cls(kind="power", p=p, c=c, theta=theta)

    @classmethod
    def from_list(cls, values, p: float = 1.0) -> "DecaySequence":
        return cls(kind="list", p=p, values=tuple(values))

    def beta(self, j: int) -> float:
        """beta_j, 1-based."""
        if j < 1:
            raise ValueError("index is 1-based")
        if self.kind == "power":
            return self.c * float(j) ** (-self.theta)
        return self.values[j - 1] if j <= len(self.values) else 0.0

    def head(self, s: int) -> np.ndarray:
        """beta_1..beta_s as an array."""
        return np.array([self.beta(j) for j in range(1, s + 1)])

    def sum_power(self, r: float) -> float:
        """sum_j beta_j^r, +inf when divergent."""
        if self.kind == "list":
            return float(sum(v**r for v in self.values))
        if self.theta * r <= 1:
            return math.inf
        return self.c**r * _zeta_tail(self.theta * r, 0)

    def sum1(self) -> float:
        return self.sum_power(1.0)

    def tail(self, s: int) -> float:
        """sum_{j > s} beta_j, +inf when divergent."""
        if self.kind == "list":
            return float(sum(self.values[s:]))
        if self.theta <= 1:
            return math.inf
        return self.c * _zeta_tail(self.theta, s)

    def to_json_dict(self) -> dict:
        doc = {"kind": self.kind, "p": self.p}
        if self.kind == "power":
            doc.update(c=self.c, theta=self.theta)
        else:
            doc["values"] = list(self.values)
        return doc


def _zeta_tail(r: float, s: int) -> float:
    """sum_{j > s} j^{-r}: the terms below M = s + 2000, then Euler-Maclaurin from M."""
    M = s + 2000
    js = np.arange(s + 1, M, dtype=np.float64)
    partial = float(np.sum(js**-r)) if len(js) else 0.0
    # sum_{j >= M} j^{-r} = M^{1-r}/(r-1) + M^{-r}/2 + r*M^{-r-1}/12 - O(M^{-r-3})
    rem = M ** (1 - r) / (r - 1) + 0.5 * M**-r + r * M ** (-r - 1) / 12.0
    return partial + rem


@dataclass(frozen=True)
class WeightSpec:
    """Everything that determines the weights: order, base, crossover, decay."""

    alpha: int
    b: int
    J: int
    beta: DecaySequence
    use_prime_constant: bool = True

    def __post_init__(self):
        check_prime_base(self.b)
        if self.alpha < 2:
            raise ValueError("interlacing order must be >= 2 for these weights")
        if self.J < 0:
            raise ValueError("crossover dimension must be >= 0")

    def to_json_dict(self) -> dict:
        beta_doc = self.beta.to_json_dict()
        beta_doc.pop("p")
        return {
            "alpha": self.alpha,
            "b": self.b,
            "J": self.J,
            "p": self.beta.p,
            "beta": beta_doc,
            "use_prime_constant": self.use_prime_constant,
        }


def wce_constant(alpha: int, b: int, rescaled: bool = True) -> float:
    """Digital-net worst-case-error constant C_{alpha,b}.

    With rescaled=True the value is multiplied by 2^alpha, the variant
    required when integrands come from problems parametrized over [-1,1]
    and mapped affinely onto [0,1].
    """
    check_prime_base(b)
    if alpha < 2:
        raise ValueError("order must be >= 2")
    s = 2.0 * math.sin(math.pi / b)
    first = max(2.0 / s**alpha, max(1.0 / s**z for z in range(1, alpha)))
    second = (1.0 + 1.0 / b + 1.0 / (b * (b + 1))) ** (alpha - 2)
    third = 3.0 + 2.0 / b + (2.0 * b + 1.0) / (b - 1.0)
    value = first * second * third
    return 2.0**alpha * value if rescaled else value


def _block_factor(spec: WeightSpec) -> float:
    """C'_{alpha,b} * b^{alpha(alpha-1)/2}, the per-block constant."""
    return wce_constant(spec.alpha, spec.b, spec.use_prime_constant) * float(
        spec.b
    ) ** (spec.alpha * (spec.alpha - 1) / 2.0)


def order_weight(j: int, nu: int, spec: WeightSpec) -> float:
    """Per-coordinate, per-order factor gamma_j(nu), used by the CBC recursion.

    gamma_j(nu) = C'_{alpha,b} b^{alpha(alpha-1)/2} 2^{delta(nu,alpha)} beta_j^nu,
    where delta is the indicator nu == alpha.
    """
    if not 1 <= nu <= spec.alpha:
        raise ValueError(f"order must lie in 1..{spec.alpha}, got {nu}")
    doubling = 2.0 if nu == spec.alpha else 1.0
    return _block_factor(spec) * doubling * spec.beta.beta(j) ** nu


def _order_poly(j: int, spec: WeightSpec) -> np.ndarray:
    """Coefficients (index nu) of sum_nu 2^{delta(nu,alpha)} beta_j^nu z^nu."""
    beta_j = spec.beta.beta(j)
    coef = np.zeros(spec.alpha + 1)
    for nu in range(1, spec.alpha + 1):
        coef[nu] = (2.0 if nu == spec.alpha else 1.0) * beta_j**nu
    return coef


def _product_order_sum(j: int, spec: WeightSpec) -> float:
    """sum_nu nu! 2^{delta(nu,alpha)} beta_j^nu, the product-regime factor."""
    coef = _order_poly(j, spec)
    return float(sum(_fact(nu) * coef[nu] for nu in range(1, spec.alpha + 1)))


def select_rate_parameters(p: float):
    """(lambda, alpha) = (p, floor(1/p)+1); guarantees 1/alpha < lambda <= 1."""
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0,1], got {p}")
    return p, int(math.floor(1.0 / p)) + 1


def bound_constant(alpha: int, b: int, lam: float, rescaled: bool = True) -> float:
    """The constant B absorbing per-block sums into the rate bound.

    B = C'_{alpha,b} b^{alpha(alpha-1)/2} ((1 + (b-1)/(b^{alpha*lam}-b))^alpha - 1)^{1/lam},
    defined for 1/alpha < lam <= 1 (so that b^{alpha*lam} > b).
    """
    if not 1.0 / alpha < lam <= 1.0:
        raise ValueError(f"lambda must lie in (1/{alpha}, 1], got {lam}")
    x = (b - 1.0) / (float(b) ** (alpha * lam) - b)
    core = ((1.0 + x) ** alpha - 1.0) ** (1.0 / lam)
    return wce_constant(alpha, b, rescaled) * float(b) ** (alpha * (alpha - 1) / 2.0) * core


def smallness_condition(spec: WeightSpec) -> bool:
    """Whether sum beta_j < 1/(2 alpha max(B,1)); required when p = 1."""
    B = bound_constant(spec.alpha, spec.b, 1.0, spec.use_prime_constant)
    total = spec.beta.sum1()
    return total < 1.0 / (2.0 * spec.alpha * max(B, 1.0))


# -- CBC error bound ----------------------------------------------------------


def _block_slots(d: int, alpha: int):
    """Per-block component counts for the first d interlaced components."""
    s_full, t = divmod(d, alpha)
    slots = [alpha] * s_full
    if t:
        slots.append(t)
    return slots


@lru_cache(maxsize=32)
def _spod_subset_table(spec: WeightSpec, first: int, last: int):
    """For every subset of blocks first..last: (gamma value, size, has-last flag).

    gamma values are SPOD order sums; they are independent of the bound's
    lambda, so one table serves a whole lambda grid.  Bit i of a row's index
    says whether its subset holds block first+i.  The table doubles once per
    block: the subsets holding block j are those without it, each order
    polynomial multiplied by block j's.  Cost 2^(last-first+1); the product
    regime never enters here, which is the point of the hybrid structure.
    """
    k = last - first + 1
    width = spec.alpha * k + 1
    polys = np.zeros((1, width))
    polys[0, 0] = 1.0
    sizes = np.zeros(1, dtype=np.int64)
    for j in range(first, last + 1):
        with_j = np.zeros_like(polys)
        for nu, coef in enumerate(_order_poly(j, spec)):
            with_j[:, nu:] += coef * polys[:, : width - nu]
        polys = np.concatenate([polys, with_j])
        sizes = np.concatenate([sizes, sizes + 1])
    facts = np.array([_fact(n) for n in range(width)])
    gamma = polys @ facts
    has_last = np.arange(1 << k) >= 1 << (k - 1)
    return gamma, sizes, has_last


def cbc_bound(spec: WeightSpec, m: int, d: int, lam: float) -> float:
    """Guaranteed bound on the CBC search criterion after d components.

    ( 2/(b^m-1) * sum_{nonempty v in {1:d}} gamma~_v^lam ((b-1)/(b^{alpha lam}-b))^{|v|} )^{1/lam}.

    Evaluated exactly by regrouping the component sets v into block sets u
    (the weight depends on v only through u(v); each block contributes
    (1+x)^slots - 1), then splitting u across the crossover: the product
    part collapses to a per-block product, the SPOD part enumerates
    subsets of the at most s-J trailing blocks.
    """
    if not 1.0 / spec.alpha < lam <= 1.0:
        raise ValueError(f"lambda must lie in (1/{spec.alpha}, 1], got {lam}")
    if d < 1:
        raise ValueError("need at least one component")
    b, alpha = spec.b, spec.alpha
    x = (b - 1.0) / (float(b) ** (alpha * lam) - b)
    slots = _block_slots(d, alpha)
    s = len(slots)
    K = _block_factor(spec)
    g = [(1.0 + x) ** c - 1.0 for c in slots]

    prod_factor = 1.0
    for j in range(1, min(spec.J, s) + 1):
        tj = _product_order_sum(j, spec)
        prod_factor *= 1.0 + (K * tj) ** lam * g[j - 1]

    spod_factor = 1.0
    if s > spec.J:
        first, last = spec.J + 1, s
        k = last - first + 1
        # the subset table is 2^k x (alpha*k+1) doubles and building it peaks
        # near twice that: refuse more than 1 GiB before allocating
        if (1 << k) * (alpha * k + 1) * 8 > 1 << 30:
            raise ValueError(f"SPOD bound enumeration over {k} blocks is too large")
        gamma, sizes, has_last = _spod_subset_table(spec, first, last)
        g_full = (1.0 + x) ** alpha - 1.0
        g_last = g[s - 1]
        with np.errstate(divide="ignore"):
            log_w = lam * (sizes * math.log(K) + np.log(gamma))
        gprod = np.where(
            has_last,
            g_full ** np.maximum(sizes - 1, 0) * g_last,
            g_full ** sizes.astype(np.float64),
        )
        terms = np.exp(log_w) * gprod
        terms[0] = 1.0  # empty subset
        spod_factor = float(terms.sum())

    total = prod_factor * spod_factor - 1.0
    return (2.0 / (float(b) ** m - 1.0) * total) ** (1.0 / lam)


def error_constant(spec: WeightSpec, N: int) -> float:
    """Explicit constant-times-rate bound on the integration error at N points.

    (2/(N-1))^{1/p} [ exp((floor(1/p)+1)!^p A) sum_l (l!)^{p-1} A^l ]^{1/p}
    with A = sum_j d_j^p and d_j = 2 max(B,1) beta_{ceil(j/alpha)}.  The
    series converges for p < 1; for p = 1 it is geometric and requires the
    smallness condition, otherwise +inf is returned with a warning.
    """
    p = spec.beta.p
    lam, auto_alpha = select_rate_parameters(p)
    alpha = spec.alpha
    if N < 2:
        raise ValueError("need N >= 2")
    B = bound_constant(alpha, spec.b, lam, spec.use_prime_constant)
    scale = 2.0 * max(B, 1.0)
    A = scale**p * alpha * spec.beta.sum_power(p)
    if not math.isfinite(A):
        warnings.warn("beta sequence not p-summable; error constant diverges")
        return math.inf
    if p >= 1.0 and A >= 1.0:
        warnings.warn(
            "p = 1 without the smallness condition: the series diverges"
        )
        return math.inf
    series = 0.0
    term = 1.0  # l = 0
    ell = 0
    while True:
        series += term
        ell += 1
        term = term * A * ell ** (p - 1.0)
        if term <= 1e-14 * series:
            series += term
            break
        if ell > 100000 or not math.isfinite(term):
            warnings.warn("error-constant series did not converge")
            return math.inf
    try:
        bracket = math.exp(_fact(auto_alpha) ** p * A) * series
        return (2.0 / (N - 1.0)) ** (1.0 / p) * bracket ** (1.0 / p)
    except OverflowError:
        warnings.warn("error constant overflows double precision")
        return math.inf


def crossover_dimension(seq: DecaySequence, eps: float, B_hol: float = 1.0) -> int:
    """Smallest s with sum_{j>s} b_j <= eps/(4 B_hol); 0 when the full sum fits.

    A return of 0 means the product regime is empty and the weights are
    pure SPOD.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if B_hol < 1.0:
        raise ValueError("holomorphy bound must be >= 1")
    threshold = eps / (4.0 * B_hol)
    if not math.isfinite(seq.sum1()):
        raise ValueError("sequence must be summable")
    s = 0
    while seq.tail(s) > threshold:
        s += 1
        if s > 10**7:
            raise ValueError("crossover dimension exceeds 1e7; check eps")
    return s


def truncation_bound(seq: DecaySequence, p: float, s: int) -> float:
    """Dimension-truncation tail bound min(1/(1/p-1), 1) (sum b_j^p)^{1/p} s^{-(1/p-1)}.

    Valid for nonincreasing sequences and 0 < p < 1.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0,1), got {p}")
    if s < 1:
        raise ValueError("truncation dimension must be >= 1")
    total = seq.sum_power(p)
    if not math.isfinite(total):
        warnings.warn("sequence not p-summable; truncation bound diverges")
        return math.inf
    return min(1.0 / (1.0 / p - 1.0), 1.0) * total ** (1.0 / p) * float(s) ** -(1.0 / p - 1.0)


@dataclass(frozen=True)
class ErrorBudget:
    """The three error sources: truncation, quadrature, discretization."""

    truncation: float
    quadrature: float
    discretization: float

    @property
    def total(self) -> float:
        return self.truncation + self.quadrature + self.discretization


def error_budget(trunc: float, qmc: float, pg_h: float, pg_t: float) -> ErrorBudget:
    """Combine the three bound terms; the discretization term is pg_h**pg_t.

    No solver is attached: the discretization contribution enters purely
    through its rate h^t supplied by the caller.
    """
    if min(trunc, qmc, pg_h) < 0:
        raise ValueError("error terms must be nonnegative")
    disc = pg_h**pg_t if pg_h > 0 else 0.0
    return ErrorBudget(truncation=trunc, quadrature=qmc, discretization=disc)
