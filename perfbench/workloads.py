"""Benchmark workloads and the construct -> bound -> points -> quadrature pipeline.

Every call into polylat goes through the module namespace returned by
`import_polylat`, so the traced run can swap module attributes for
recording wrappers and the untraced run calls the originals directly.
"""

import contextlib
import hashlib
import importlib
import io
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

ALPHA = 2
BETA_C, BETA_THETA, BETA_P = 0.4, 2.0, 0.6  # beta_j = 0.4 j^-2, p = 0.6
POOL = 6  # moduli drawn per seed; iteration i uses modulus i mod POOL
SPOT = 4  # point indices spot-checked per modulus
MIN_POINTS_S = 0.5  # points are timed repeatedly until this much time is covered
QUAD_TOL = 1e-12  # |error - golden error| allowed, relative to the integral
OPS = ("construct", "bound", "points", "quad", "export")
MODULES = ("gfpoly", "kernel", "cbc", "weights", "pointgen", "quad", "cli")


@dataclass(frozen=True)
class Workload:
    b: int
    J: int
    s: int
    m: int
    family: str  # "product-exponential" | "rational-spod"
    export_format: str  # "csv" | "digits"


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "hybrid-m16": Workload(b=2, J=4, s=16, m=16, family="product-exponential", export_format="csv"),
    "spod-heavy": Workload(b=2, J=0, s=200, m=12, family="rational-spod", export_format="csv"),
    "base3-ties": Workload(b=3, J=4, s=16, m=9, family="product-exponential", export_format="digits"),
}


def import_polylat():
    """Fresh import of every polylat module; returns them as one namespace."""
    for name in [n for n in sys.modules if n == "polylat" or n.startswith("polylat.")]:
        del sys.modules[name]
    importlib.import_module("polylat")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"polylat.{name}") for name in MODULES}
    )


def no_span(_name):
    return contextlib.nullcontext()


@dataclass
class Inputs:
    workload: Workload
    spec: object
    integrand: object
    moduli: list  # POOL x (Modulus, spot-check indices)


def draw_modulus(pl, b: int, m: int, rng):
    """Uniform monic irreducible of degree m, by rejection sampling."""
    while True:
        cand = pl.gfpoly.GfPoly.from_int(b, int(rng.integers(b**m)) + b**m)
        if pl.gfpoly.is_irreducible(cand):
            return pl.gfpoly.Modulus(cand)


def make_integrand(pl, wl: Workload, beta):
    if wl.family == "rational-spod":
        return pl.quad.rational_spod(beta, wl.s, 2.0 * max(beta.sum1(), 1.0))
    return pl.quad.product_exponential(beta, wl.s)


def make_inputs(pl, wl: Workload, seed: int, span=no_span) -> Inputs:
    """Everything the pipeline consumes, a pure function of the seed."""
    beta = pl.weights.DecaySequence.power(BETA_C, BETA_THETA, p=BETA_P)
    spec = pl.weights.WeightSpec(alpha=ALPHA, b=wl.b, J=wl.J, beta=beta)
    integrand = make_integrand(pl, wl, beta)
    moduli = []
    for k in range(POOL):
        rng = np.random.default_rng([seed, k])
        with span("gfpoly.modulus"):
            modulus = draw_modulus(pl, wl.b, wl.m, rng)
        spots = sorted(int(n) for n in rng.integers(1, wl.b**wl.m, size=SPOT))
        moduli.append((modulus, spots))
    return Inputs(wl, spec, integrand, moduli)


# -- golden values --------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def construct_digest(pl, result) -> dict:
    """Bit-exact digest of a generating vector and its per-step criterion."""
    q = ",".join(pl.gfpoly.poly_to_string(qj) for qj in result.gen_vector.q)
    return {
        "q": _sha(q),
        "criterion": _sha(",".join(float(e).hex() for e in result.criterion_per_step)),
    }


def fingerprint(pl, result, quad_abs_error: float) -> dict:
    """Golden entry: the construction digest plus the quadrature error."""
    return dict(
        construct_digest(pl, result),
        criterion_final=float(result.criterion_per_step[-1]).hex(),
        quad_abs_error=float(quad_abs_error).hex(),
    )


def modulus_key(pl, modulus) -> str:
    return pl.gfpoly.poly_to_string(modulus.poly)


# -- one iteration ----------------------------------------------------------------


@dataclass
class Iteration:
    times: dict = field(default_factory=dict)  # op or "pipeline" -> seconds
    failures: list = field(default_factory=list)  # (op, exception type, message)
    golden_checked: bool = False
    criterion_final: float | None = None
    quad_abs_error: float | None = None
    outputs: tuple | None = None  # compared between traced and untraced runs
    result: object = None
    export_bytes: int = 0


def _exact_value(digits, b: int) -> float:
    num = 0
    for t in digits:
        num = num * b + t
    return float(Fraction(num, b ** len(digits)))


def _expected_point(pl, gv, n: int):
    """Interlaced digit strings of point n, from the Laurent-division oracle."""
    coords = pl.pointgen.point_for_index(gv, n).coords
    a = gv.alpha
    return [
        pl.pointgen.interlace_digits(list(coords[k * a:(k + 1) * a]), a).digits
        for k in range(gv.s)
    ]


def _check_export(path: Path, fmt: str, n_points: int, expected: dict, b: int, s: int):
    """Row count, header and the spot-checked rows of an exported point file."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != ",".join(f"y{j + 1}" for j in range(s)):
            return "header mismatch"
        rows = {}
        count = 0
        for n, line in enumerate(fh):
            count += 1
            if n in expected:
                rows[n] = line.rstrip("\n").split(",")
    if count != n_points:
        return f"{count} rows, expected {n_points}"
    for n, digit_rows in expected.items():
        if fmt == "digits":
            if rows[n] != ["".join(str(t) for t in d) for d in digit_rows]:
                return f"digits of point {n} differ"
        elif not _close(rows[n], digit_rows, b):
            return f"CSV values of point {n} differ"
    return None


def _close(values, digit_rows, b: int) -> bool:
    """Floats within 1e-14 of the exact values of their digit expansions."""
    ref = [_exact_value(d, b) for d in digit_rows]
    return max(abs(float(v) - r) for v, r in zip(values, ref)) <= 1e-14


class CheckFailed(Exception):
    """An output differs from its golden value or oracle."""


def run_iteration(pl, inputs: Inputs, k: int, workdir: Path, golden: dict | None,
                  span=no_span, export=True) -> Iteration:
    """construct -> bound -> points -> quadrature, then export; check every output.

    `golden` maps a modulus to its golden entry; a construction whose
    modulus is missing from it fails its check.  `golden=None` skips the
    golden comparison (used when the golden values are being recorded).

    An op that raises, or whose output fails its check, is recorded as a
    failure with its exception type.  Ops that need a failed op's output are
    recorded as skipped failures, and the caller goes on with the next
    iteration.
    """
    wl = inputs.workload
    spec, g = inputs.spec, inputs.integrand
    modulus, spots = inputs.moduli[k % POOL]
    it = Iteration()
    out = {}

    def attempt(op, fn):
        t0 = time.perf_counter()
        try:
            with span(f"op.{op}"):
                out[op] = fn()
        except Exception as exc:  # the benchmark records the failure and goes on
            it.failures.append((op, type(exc).__name__, str(exc)[:200]))
        it.times[op] = time.perf_counter() - t0

    def check(op, fn):
        if op in out:
            try:
                fn()
            except Exception as exc:  # a mismatch, or an oracle that raised
                msg = str(exc) if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: {exc}"
                it.failures.append((op, "CheckFailed", msg[:200]))
                del out[op]

    t0 = time.perf_counter()
    attempt("construct", lambda: pl.cbc.fast_cbc(spec, wl.m, wl.s, modulus=modulus))
    result = out.get("construct")
    if result is not None:
        attempt("bound", lambda: pl.cbc.verify_bound(result, spec))
        attempt("points", lambda: pl.pointgen.lattice_points(result.gen_vector))
        if "points" in out:
            attempt("quad", lambda: pl.quad.qmc_apply(out["points"], g))
    it.times["pipeline"] = time.perf_counter() - t0
    if "points" in out and span is no_span:
        # A short point set is timed again until MIN_POINTS_S is covered, so
        # its median is steady; the pipeline time keeps only the first call.
        reps = [it.times["points"]]
        while sum(reps) < MIN_POINTS_S:
            t1 = time.perf_counter()
            again = pl.pointgen.lattice_points(result.gen_vector)
            reps.append(time.perf_counter() - t1)
            if not np.array_equal(again, out["points"]):
                it.failures.append(("points", "CheckFailed", "repeated lattice_points differ"))
                del out["points"]
                break
        it.times["points"] = statistics.median(reps)

    if result is not None:
        it.result = result
        gv = result.gen_vector
        key = modulus_key(pl, modulus)
        want = None if golden is None else golden.get(key)
        it.golden_checked = want is not None
        oracle = {}

        def expected():
            if not oracle:
                oracle.update({n: _expected_point(pl, gv, n) for n in spots})
            return oracle

        def check_construct():
            if len(gv.q) != ALPHA * wl.s or len(result.criterion_per_step) != gv.d:
                raise CheckFailed("wrong number of components or criterion values")
            if golden is not None and want is None:
                raise CheckFailed(f"no golden values for P={key}")
            if want is not None:
                for name, digest in construct_digest(pl, result).items():
                    if digest != want[name]:
                        raise CheckFailed(f"{name} differs from golden for P={key}")

        def check_bound():
            for e in out["bound"].entries:
                if not (e["divergent"] or e["criterion"] <= e["bound"] * (1 + 1e-9) + 1e-12):
                    raise CheckFailed(f"criterion exceeds bound at lambda={e['lambda']}")

        def check_points():
            pts = out["points"]
            if pts.shape != (gv.n_points, wl.s):
                raise CheckFailed(f"points shape {pts.shape}")
            for n, digit_rows in expected().items():
                if not _close(pts[n].tolist(), digit_rows, wl.b):
                    raise CheckFailed(f"point {n} differs from point_for_index")

        def check_quad():
            if want is not None:
                ref = float.fromhex(want["quad_abs_error"])
                if abs(it.quad_abs_error - ref) > QUAD_TOL * abs(g.exact_integral):
                    raise CheckFailed(f"quadrature error {it.quad_abs_error!r} vs golden {ref!r}")

        it.criterion_final = float(result.criterion_per_step[-1])
        if "quad" in out:
            it.quad_abs_error = abs(out["quad"] - g.exact_integral)
        check("construct", check_construct)
        check("bound", check_bound)
        check("points", check_points)
        check("quad", check_quad)

        if export:
            gv_path = workdir / "gv.json"
            pts_path = workdir / f"points.{wl.export_format}"
            argv = ["points", "--gv", str(gv_path), "--out", str(pts_path),
                    "--format", wl.export_format]

            def run_cli():
                gv.save(gv_path)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = pl.cli.main(argv)
                if rc != 0:
                    raise RuntimeError(f"polylat points exited {rc}")

            def check_export():
                problem = _check_export(
                    pts_path, wl.export_format, gv.n_points, expected(), wl.b, wl.s)
                if problem:
                    raise CheckFailed(f"export: {problem}")

            attempt("export", run_cli)
            check("export", check_export)
            if pts_path.exists():
                it.export_bytes = pts_path.stat().st_size
                pts_path.unlink()

        pts = out.get("points")
        it.outputs = (
            tuple(qj.to_int() for qj in gv.q),
            tuple(float(e).hex() for e in result.criterion_per_step),
            None if pts is None else hashlib.sha256(pts.tobytes()).hexdigest(),
            None if it.quad_abs_error is None else float(it.quad_abs_error).hex(),
        )

    for op in OPS if export else OPS[:-1]:
        if op not in it.times:
            it.failures.append((op, "Skipped", "an op it depends on failed"))
    return it
