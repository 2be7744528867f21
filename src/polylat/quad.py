"""QMC quadrature, built-in integrand families, and convergence studies.

Two families cover the two weight regimes the constructions target:

* product-exponential g(y) = prod_j exp(c beta_j y_j): purely product
  structure (its order-nu derivative is prod (c beta_j)^{nu_j} g), with a
  closed-form integral prod (e^{c beta_j}-1)/(c beta_j);
* rational g(y) = 1/(c0 - sum_j b_j y_j): genuine order-coupled growth
  (|d^nu g| = |nu|! prod b_j^{nu_j} |g|^{|nu|+1} up to scaling), with a
  reference integral from its Laplace representation 1/a = int_0^inf
  e^{-a t} dt, under which the cube integral factorises into one
  one-dimensional composite Gauss-Legendre quadrature in log t.

Quadrature means use exact compensated summation (math.fsum), so results
are independent of evaluation order.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre

from .cbc import fast_cbc
from .pointgen import lattice_points
from .weights import DecaySequence, WeightSpec

ERROR_FLOOR = 1e-14  # below this, measured errors are float noise


@dataclass
class Integrand:
    """An s-dimensional integrand with (when known) its reference integral."""

    dimension: int
    family: str
    evaluate: object  # callable (N, s) array -> (N,) array
    exact_integral: float | None = None
    provenance: str | None = None  # "closed-form" | "laplace-quadrature"
    params: dict = field(default_factory=dict)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dimension:
            raise ValueError(
                f"integrand expects dimension {self.dimension}, got {points.shape[1]}"
            )
        return np.asarray(self.evaluate(points), dtype=np.float64)


def qmc_apply(points: np.ndarray, g: Integrand) -> float:
    """Equal-weight quadrature mean over a point set, summed exactly."""
    values = g(points)
    return math.fsum(values.tolist()) / len(values)


def product_exponential(beta: DecaySequence, s: int, scale: float = 1.0) -> Integrand:
    """g(y) = prod_j exp(scale * beta_j * y_j) with its exact product integral."""
    rates = scale * beta.head(s)

    def evaluate(points):
        return np.exp(points @ rates)

    exact = 1.0
    for a in rates:
        exact *= math.expm1(a) / a if a != 0.0 else 1.0
    return Integrand(
        dimension=s,
        family="product-exponential",
        evaluate=evaluate,
        exact_integral=exact,
        provenance="closed-form",
        params={"rates": tuple(float(a) for a in rates)},
    )


REFERENCE_NODES = 64  # Gauss-Legendre nodes per panel; checked against twice as many
REFERENCE_PANELS = 8


def _rational_reference(b_head: np.ndarray, c0: float, n: int = REFERENCE_NODES) -> float:
    """Integral of 1/(c0 - sum b_j y_j) over the unit cube by one 1-D quadrature.

    With a = c0 - sum b_j y_j > 0, 1/a = int_0^inf e^{-a t} dt and the cube
    integral of e^{t sum b_j y_j} factorises, so the integral is
    int_0^inf e^{-a0 t} prod_j (1 - e^{-b_j t})/(b_j t) dt, a0 = c0 - sum b_j,
    with a factor of 1 wherever b_j = 0.  The integrand is 1 - O(c0 t) near
    0 and below e^{-a0 t}, so it is t_lo = 1e-17/c0 plus the integral over
    [t_lo, 60/a0], taken in v = log t, where the decays at t ~ 1/b_j and
    t ~ 1/a0 are each a few units wide however close a0 is to 0, with
    REFERENCE_PANELS equal panels of n Gauss-Legendre nodes.
    """
    b = b_head[b_head != 0.0]
    a0 = c0 - float(np.sum(b))
    t_lo = 1e-17 / c0
    edges = np.linspace(math.log(t_lo), math.log(60.0 / a0), REFERENCE_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes, weights = legendre.leggauss(n)
    t = np.exp(edges[:-1, None] + half * (nodes + 1.0)).ravel()
    bt = np.multiply.outer(b, t)
    factors = np.prod(-np.expm1(-bt) / bt, axis=0)
    return t_lo + float(np.sum((half * weights).ravel() * t * np.exp(-a0 * t) * factors))


def _make_rational(b_head: np.ndarray, c0: float) -> Integrand:
    total = float(np.sum(b_head))
    if c0 <= total:
        raise ValueError(f"pole inside cube: need c0 > {total}, got {c0}")

    def evaluate(points):
        return 1.0 / (c0 - points @ b_head)

    s = len(b_head)
    if np.all(b_head == 0.0):
        exact, prov = 1.0 / c0, "closed-form"
    elif s == 1:
        exact = math.log(c0 / (c0 - b_head[0])) / b_head[0]
        prov = "closed-form"
    else:
        exact = _rational_reference(b_head, c0)
        check = _rational_reference(b_head, c0, 2 * REFERENCE_NODES)
        if abs(exact - check) > 1e-12 * max(1.0, abs(exact)):
            raise ArithmeticError("reference quadrature did not stabilize")
        exact, prov = check, "laplace-quadrature"
    return Integrand(
        dimension=s,
        family="rational-spod",
        evaluate=evaluate,
        exact_integral=exact,
        provenance=prov,
        params={"b_head": tuple(float(v) for v in b_head), "c0": float(c0)},
    )


def rational_spod(b_seq: DecaySequence, s: int, c0: float) -> Integrand:
    """g(y) = 1/(c0 - sum_j b_j y_j); needs c0 > sum b_j to keep the pole out.

    The reference integral is a one-dimensional Laplace-transform
    quadrature, self-validated by doubling its node count; disagreement
    beyond 1e-12 of scale raises ArithmeticError.
    """
    return _make_rational(b_seq.head(s), c0)


def truncate_integrand(g: Integrand, s_trunc: int, anchor: float = 0.5) -> Integrand:
    """Pin coordinates beyond s_trunc to the anchor (cube midpoint by default).

    The midpoint is the image of the centered parametrization's origin
    under the affine map onto [0,1].  For the built-in families the exact
    integral of the truncated integrand is recomputed in closed form
    (product-exponential) or by the reference quadrature (rational).
    """
    if not 1 <= s_trunc <= g.dimension:
        raise ValueError(f"s_trunc must lie in 1..{g.dimension}")
    if s_trunc == g.dimension:
        return g
    if g.family == "product-exponential":
        rates = np.array(g.params["rates"])
        head, tail = rates[:s_trunc], rates[s_trunc:]

        def evaluate(points):
            return np.exp(points @ head) * math.exp(float(np.sum(tail)) * anchor)

        exact = math.exp(float(np.sum(tail)) * anchor)
        for a in head:
            exact *= math.expm1(a) / a if a != 0.0 else 1.0
        return Integrand(
            dimension=s_trunc,
            family=g.family,
            evaluate=evaluate,
            exact_integral=exact,
            provenance="closed-form",
            params={"rates": tuple(head), "pinned": tuple(tail), "anchor": anchor},
        )
    if g.family == "rational-spod":
        b_all = np.array(g.params["b_head"])
        c0_eff = g.params["c0"] - anchor * float(np.sum(b_all[s_trunc:]))
        return _make_rational(b_all[:s_trunc], c0_eff)
    base = g.evaluate

    def evaluate(points):
        full = np.empty((len(points), g.dimension))
        full[:, :s_trunc] = points
        full[:, s_trunc:] = anchor
        return base(full)

    return Integrand(dimension=s_trunc, family=g.family, evaluate=evaluate, params=dict(g.params))


@dataclass
class ConvergenceRecord:
    """Errors against N for a sequence of constructions, with fitted slope."""

    entries: list  # (m, N, error)
    slope: float | None
    mc_entries: list = field(default_factory=list)  # (m, N, rms error)
    mc_slope: float | None = None
    degenerate: bool = False
    skip_fit: int = 2
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        mc = {m: e for m, _n, e in self.mc_entries}
        with open(path, "w") as fh:
            header = "m,N,error" + (",mc_error" if self.mc_entries else "")
            fh.write(header + "\n")
            for m, n, err in self.entries:
                row = f"{m},{n},{float(err)!r}"
                if self.mc_entries:
                    row += f",{float(mc[m])!r}"
                fh.write(row + "\n")

    def to_json_dict(self) -> dict:
        return {
            "entries": [[m, n, e] for m, n, e in self.entries],
            "slope": self.slope,
            "mc_entries": [[m, n, e] for m, n, e in self.mc_entries],
            "mc_slope": self.mc_slope,
            "degenerate": self.degenerate,
            "skip_fit": self.skip_fit,
            "meta": self.meta,
        }


def fit_slope(Ns, errors, skip: int = 2):
    """Least-squares slope of log error against log N.

    The first `skip` entries (pre-asymptotic regime) and entries at or
    below the float-noise floor are excluded; returns None if fewer than
    two points survive.
    """
    pts = [
        (math.log(n), math.log(e))
        for n, e in list(zip(Ns, errors))[skip:]
        if e > ERROR_FLOOR
    ]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def convergence_study(
    spec: WeightSpec,
    g: Integrand,
    m_list,
    mc_baseline: bool = False,
    seed: int = 2026,
    mc_reps: int = 16,
) -> ConvergenceRecord:
    """Construct, integrate, and fit the empirical rate for each m.

    For every m a fresh rule is constructed for `spec`, the interlaced
    points are evaluated on g, and |I - Q_N| is recorded.  The optional
    Monte Carlo baseline reports the RMS error over mc_reps seeded
    replicates at the same N.
    """
    if g.exact_integral is None:
        raise ValueError("integrand has no reference integral")
    m_list = list(m_list)
    if any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise ValueError("m values must be strictly increasing")
    exact = g.exact_integral
    entries = []
    for m in m_list:
        result = fast_cbc(spec, m, g.dimension)
        pts = lattice_points(result.gen_vector)
        err = abs(qmc_apply(pts, g) - exact)
        entries.append((m, spec.b**m, float(err)))
    errors = [e for _m, _n, e in entries]
    degenerate = all(e <= ERROR_FLOOR for e in errors)
    slope = None if degenerate else fit_slope([n for _m, n, _e in entries], errors)

    mc_entries = []
    mc_slope = None
    if mc_baseline:
        rng = np.random.default_rng(seed)
        for m in m_list:
            n = spec.b**m
            errs = []
            for _rep in range(mc_reps):
                sample = rng.random((n, g.dimension))
                errs.append(qmc_apply(sample, g) - exact)
            mc_entries.append((m, n, float(np.sqrt(np.mean(np.square(errs))))))
        mc_slope = fit_slope(
            [n for _m, n, _e in mc_entries], [e for _m, _n, e in mc_entries], skip=0
        )
    return ConvergenceRecord(
        entries=entries,
        slope=slope,
        mc_entries=mc_entries,
        mc_slope=mc_slope,
        degenerate=degenerate,
        meta={
            "integrand": {
                "family": g.family,
                "dimension": g.dimension,
                "params": {k: v for k, v in g.params.items()},
                "provenance": g.provenance,
                "reference_integral": g.exact_integral,
            },
            "weights": spec.to_json_dict(),
            "seed": seed if mc_baseline else None,
            "mc_reps": mc_reps if mc_baseline else None,
        },
    )
