"""Command-line front end: construct, points, bounds, converge, selftest.

Configuration precedence is flags over config-file values over defaults;
the config file is a JSON object whose keys mirror the flag names with
underscores, and unknown keys are rejected.  Every output file embeds the
fully resolved configuration so artifacts are reproducible from their own
metadata.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical or
oracle failure.
"""

import argparse
import dataclasses
import json
import os
import sys
import warnings

import numpy as np

from .cbc import default_lambda_grid, fast_cbc, verify_bound
from .gfpoly import find_irreducible
from .kernel import OmegaMatrix
# classical_digit_array and interlace_digit_array are unused here but stay
# importable from this module: the benchmark's tracer wraps them by name
from .pointgen import (
    GeneratingVector,
    classical_digit_array,
    digit_chunks,
    digits_to_values,
    interlace_digit_array,
    write_points_csv,
    write_points_digits,
)
from .quad import convergence_study, product_exponential, rational_spod
from .weights import (
    DecaySequence,
    WeightSpec,
    cbc_bound,
    crossover_dimension,
    error_constant,
    truncation_bound,
)


class UsageError(Exception):
    """Configuration problem; message names the offending field."""


@dataclasses.dataclass
class RunConfig:
    """Resolved options for one CLI invocation."""

    command: str = ""
    b: int = 2
    m: int | None = None
    alpha: int | None = None
    s: int | None = None
    J: int | None = None
    p: float | None = None
    beta_c: float = 1.0
    beta_theta: float = 2.0
    beta_values: list | None = None
    eps: float | None = None
    b_hol: float = 1.0
    use_prime_constant: bool = True
    lambda_grid: list | None = None
    family: str = "product-exponential"
    scale: float = 1.0
    c0: float | None = None
    m_range: list | None = None
    out: str | None = None
    format: str | None = None
    seed: int = 2026
    mc_baseline: bool = False
    gv: str | None = None
    inject_fault: bool = False

    def resolved_dict(self) -> dict:
        return dataclasses.asdict(self)

    def decay_sequence(self) -> DecaySequence:
        p = self.p
        if p is None:
            raise UsageError("field 'p': summability exponent is required")
        try:
            if self.beta_values is not None:
                return DecaySequence.from_list(self.beta_values, p=p)
            return DecaySequence.power(self.beta_c, self.beta_theta, p=p)
        except ValueError as exc:
            raise UsageError(f"field 'beta': {exc}") from exc

    def weight_spec(self) -> WeightSpec:
        beta = self.decay_sequence()
        if self.alpha is None:
            raise UsageError("field 'alpha': interlacing order is required")
        J = self.J
        if J is None:
            if self.eps is None:
                raise UsageError("field 'J': give J directly or supply 'eps' to derive it")
            J = crossover_dimension(beta, self.eps, self.b_hol)
        try:
            return WeightSpec(
                alpha=self.alpha,
                b=self.b,
                J=J,
                beta=beta,
                use_prime_constant=self.use_prime_constant,
            )
        except ValueError as exc:
            raise UsageError(f"field 'alpha'/'b'/'J': {exc}") from exc


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"field 'config': cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("field 'config': top level must be a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise UsageError(f"field 'config': unknown keys {sorted(unknown)}")
    return data


def _parse_lambda_grid(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"field 'lambda_grid': {exc}") from exc


def _parse_m_range(text: str) -> list:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            out = list(range(int(lo), int(hi) + 1))
        else:
            out = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"field 'm_range': {exc}") from exc
    if not out or any(m2 <= m1 for m1, m2 in zip(out, out[1:])):
        raise UsageError("field 'm_range': need strictly increasing m values")
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--b", type=int, help="prime base (default 2)")
    p.add_argument("--alpha", type=int, help="interlacing order")
    p.add_argument("--J", type=int, help="crossover dimension (product weights on 1..J)")
    p.add_argument("--p", type=float, help="summability exponent of the weight sequence")
    p.add_argument("--beta-c", dest="beta_c", type=float, help="weight sequence scale c in c*j^-theta")
    p.add_argument("--beta-theta", dest="beta_theta", type=float, help="weight sequence decay theta")
    p.add_argument("--eps", type=float, help="tail threshold used to derive J when J is omitted")
    p.add_argument("--b-hol", dest="b_hol", type=float, help="holomorphy bound B >= 1 in the J rule")
    p.add_argument(
        "--use-prime-constant",
        dest="use_prime_constant",
        choices=["on", "off"],
        help="use the 2^alpha-rescaled error constant (default on)",
    )
    p.add_argument("--out", help="output path")
    p.add_argument("--seed", type=int, help="seed for the Monte Carlo baseline")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polylat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    c = sub.add_parser("construct", parents=[], help="run the fast CBC construction")
    _add_common(c)
    c.add_argument("--m", type=int, help="number of points is b^m")
    c.add_argument("--s", type=int, help="number of dimensions")
    c.add_argument("--lambda-grid", dest="lambda_grid", help="comma-separated bound-check grid")

    pts = sub.add_parser("points", help="emit the point set of a generating vector")
    _add_common(pts)
    pts.add_argument("--gv", help="generating-vector JSON produced by construct")
    pts.add_argument("--format", choices=["csv", "digits"], help="decimal CSV or exact digit strings")

    bnd = sub.add_parser("bounds", help="print the bound calculators' table")
    _add_common(bnd)
    bnd.add_argument("--m", type=int, help="number of points is b^m")
    bnd.add_argument("--s", type=int, help="number of dimensions")
    bnd.add_argument("--lambda-grid", dest="lambda_grid", help="comma-separated lambda grid")
    bnd.add_argument("--format", choices=["json", "text"], help="output style (default text)")

    cv = sub.add_parser("converge", help="construct, integrate, and fit the empirical rate")
    _add_common(cv)
    cv.add_argument("--s", type=int, help="integrand dimension")
    cv.add_argument("--m-range", dest="m_range", help="like 6:13 or 6,8,10")
    cv.add_argument("--family", choices=["product-exponential", "rational-spod"])
    cv.add_argument("--scale", type=float, help="product-exponential scale factor")
    cv.add_argument("--c0", type=float, help="rational family pole offset")
    cv.add_argument("--mc-baseline", dest="mc_baseline", action="store_true", default=None)

    st = sub.add_parser("selftest", help="run the oracle suite (fast-vs-slow, FFT, bounds)")
    _add_common(st)
    st.add_argument("--inject-fault", dest="inject_fault", action="store_true", default=None)
    return parser


def resolve_config(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not ns.command:
        raise UsageError("field 'command': choose one of construct, points, bounds, converge, selftest")
    values = {}
    if getattr(ns, "config", None):
        values.update(_load_config_file(ns.config))
    for key, val in vars(ns).items():
        if key in ("config",) or val is None:
            continue
        values[key] = val
    if isinstance(values.get("lambda_grid"), str):
        values["lambda_grid"] = _parse_lambda_grid(values["lambda_grid"])
    if isinstance(values.get("m_range"), str):
        values["m_range"] = _parse_m_range(values["m_range"])
    if isinstance(values.get("use_prime_constant"), str):
        values["use_prime_constant"] = values["use_prime_constant"] != "off"
    cfg = RunConfig(**{k: v for k, v in values.items() if k in _CONFIG_FIELDS or k == "command"})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.b < 2:
        raise UsageError("field 'b': base must be a prime >= 2")
    if cfg.m is not None and cfg.m < 1:
        raise UsageError("field 'm': need m >= 1")
    if cfg.s is not None and cfg.s < 1:
        raise UsageError("field 's': need s >= 1")
    if cfg.J is not None and cfg.J < 0:
        raise UsageError("field 'J': need J >= 0")
    if cfg.p is not None and not 0 < cfg.p <= 1:
        raise UsageError("field 'p': need 0 < p <= 1")
    if cfg.lambda_grid is not None and not cfg.lambda_grid:
        raise UsageError("field 'lambda_grid': grid is empty")
    if cfg.command == "construct" and cfg.b > 7:
        raise UsageError(
            "field 'b': the generating-vector file stores q and P as "
            "single-character digit strings, so construct needs b <= 7"
        )
    if cfg.command in ("construct", "bounds") and cfg.m is None:
        raise UsageError("field 'm': required for this command")
    if cfg.command in ("construct", "bounds", "converge") and cfg.s is None:
        raise UsageError("field 's': required for this command")
    if cfg.command == "converge" and cfg.m_range is None:
        raise UsageError("field 'm_range': required for converge")
    if cfg.command == "points" and cfg.gv is None:
        raise UsageError("field 'gv': path to a generating-vector JSON is required")
    if cfg.out is not None and cfg.command in ("construct", "points", "converge"):
        # checked before any work: construct would otherwise lose a finished search
        folder = os.path.dirname(cfg.out) or "."
        if not os.path.isdir(folder):
            raise UsageError(f"field 'out': directory {folder!r} does not exist")


# -- subcommands ---------------------------------------------------------------


def _write_sidecar(path: str, sidecar: dict):
    with open(path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_construct(cfg: RunConfig) -> int:
    spec = cfg.weight_spec()
    result = fast_cbc(spec, cfg.m, cfg.s)
    grid = cfg.lambda_grid or default_lambda_grid(spec.alpha)
    out = cfg.out or f"polylat_b{cfg.b}_m{cfg.m}_s{cfg.s}.json"
    meta = dict(cfg.resolved_dict(), J=result.J)
    # the finished vector and its sidecar go to disk before the bound check,
    # which can fail on its own (e.g. too many SPOD blocks to enumerate)
    result.gen_vector.save(out, metadata=meta)
    sidecar_path = out.removesuffix(".json") + ".cbc.json"
    sidecar = dict(result.sidecar_dict(), config=meta)
    _write_sidecar(sidecar_path, sidecar)
    print(f"constructed {result.d} components (J={result.J}) -> {out}")
    try:
        check = verify_bound(result, spec, grid)
    except ValueError as exc:
        sidecar["bound_check"] = {"ok": None, "error": str(exc)}
        raise
    else:
        sidecar["bound_check"] = check.to_json_dict()
    finally:
        _write_sidecar(sidecar_path, sidecar)
    print(f"final criterion {result.criterion_per_step[-1]:.6e}; bound check "
          f"{'passed' if check.ok else 'FAILED'}")
    if not check.ok:
        return 2
    return 0


def cmd_points(cfg: RunConfig) -> int:
    try:
        gv = GeneratingVector.load(cfg.gv)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"field 'gv': cannot load generating vector: {exc}") from exc
    chunks = digit_chunks(gv)
    out = cfg.out or "points.csv"
    if (cfg.format or "csv") == "digits":
        write_points_digits(out, chunks, gv.b)
    else:
        write_points_csv(out, (digits_to_values(chunk, gv.b) for chunk in chunks))
    print(f"wrote {gv.n_points} points in {gv.s} dimensions -> {out}")
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    spec = cfg.weight_spec()
    d = spec.alpha * cfg.s
    grid = cfg.lambda_grid or default_lambda_grid(spec.alpha)
    report = {"config": dict(cfg.resolved_dict(), J=spec.J), "warnings": []}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report["cbc_bound"] = [
            {"lambda": lam, "bound": cbc_bound(spec, cfg.m, d, lam)} for lam in grid
        ]
        if spec.beta.p < 1:
            s_grid = sorted({1, 2, 4, 8, 16, 32, 64, cfg.s} | {cfg.s})
            report["truncation_bound"] = [
                {"s": s, "bound": truncation_bound(spec.beta, spec.beta.p, s)}
                for s in s_grid
            ]
        else:
            report["truncation_bound"] = []
            report["warnings"].append("truncation bound needs p < 1")
        report["error_constant"] = [
            {"N": spec.b**mm, "constant": error_constant(spec, spec.b**mm)}
            for mm in range(cfg.m, cfg.m + 3)
        ]
        report["warnings"].extend(str(w.message) for w in caught)
    report = _sanitize(report)
    if (cfg.format or "text") == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"bounds for b={spec.b} alpha={spec.alpha} J={spec.J} m={cfg.m} d={d}")
        print("  lambda  cbc criterion bound")
        for row in report["cbc_bound"]:
            print(f"  {row['lambda']:<10.4f}  {_fmt(row['bound'])}")
        if report["truncation_bound"]:
            print("  s       truncation bound")
            for row in report["truncation_bound"]:
                print(f"  {row['s']:<6d}  {_fmt(row['bound'])}")
        print("  N       error constant")
        for row in report["error_constant"]:
            print(f"  {row['N']:<6d}  {_fmt(row['constant'])}")
        for w in report["warnings"]:
            print(f"  warning: {w}")
    return 0


def _sanitize(obj):
    """Replace non-finite floats by strings so the report is strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not (obj == obj and abs(obj) != float("inf")):
        return repr(obj)
    return obj


def _fmt(v) -> str:
    if isinstance(v, str):  # non-finite value serialized as its repr
        return v
    return f"{v:.6e}"


def cmd_converge(cfg: RunConfig) -> int:
    spec = cfg.weight_spec()
    beta = spec.beta
    if cfg.family == "rational-spod":
        c0 = cfg.c0 if cfg.c0 is not None else 2.0 * max(beta.sum1(), 1.0)
        g = rational_spod(beta, cfg.s, c0)
    else:
        g = product_exponential(beta, cfg.s, cfg.scale)
    if g.exact_integral is None:
        raise UsageError("field 'family': integrand has no reference integral")
    rec = convergence_study(
        spec, g, cfg.m_range, mc_baseline=cfg.mc_baseline, seed=cfg.seed
    )
    out = cfg.out or "convergence.csv"
    rec.to_csv(out)
    meta = rec.to_json_dict()
    meta["config"] = dict(cfg.resolved_dict(), J=spec.J)
    with open(out + ".meta.json", "w") as fh:
        json.dump(_sanitize(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if rec.degenerate:
        print(f"all errors at float noise; no slope fitted -> {out}")
    else:
        line = f"fitted slope {rec.slope:.3f}"
        if rec.mc_slope is not None:
            line += f"; Monte Carlo baseline slope {rec.mc_slope:.3f}"
        print(line + f" -> {out}")
    return 0


# -- selftest ------------------------------------------------------------------


def run_selftest(inject_fault: bool = False, seed: int = 2026) -> dict:
    """Oracle suite: fast-vs-slow CBC, FFT-vs-naive, direct-criterion, bounds."""
    from .oracle import criterion_from_columns, multiply_naive, pure_omega_column, slow_cbc

    checks = []
    beta = DecaySequence.power(0.4, 2.0, p=0.6)
    runs = []
    for alpha, J in [(2, 0), (2, 1), (2, 2)]:
        spec = WeightSpec(alpha=alpha, b=2, J=J, beta=beta)
        fast = fast_cbc(spec, 3, 2)
        slow = slow_cbc(spec, 3, 2)
        runs.append((spec, fast))
        same = [q.to_int() for q in fast.gen_vector.q] == [
            q.to_int() for q in slow.gen_vector.q
        ]
        rel = max(
            abs(a - b) / max(abs(b), 1e-300)
            for a, b in zip(fast.criterion_per_step, slow.criterion_per_step)
        )
        checks.append(
            {
                "name": f"cbc-oracle alpha={alpha} J={J}",
                "ok": bool(same and rel <= 1e-9),
                "detail": f"vectors {'match' if same else 'DIFFER'}, criterion rel {rel:.2e}",
            }
        )

    rng = np.random.default_rng(seed)
    for b, m in [(2, 6), (3, 4)]:
        om = OmegaMatrix(find_irreducible(b, m), 2)
        worst = 0.0
        for _ in range(5):
            vec = rng.standard_normal(om.size)
            ref = multiply_naive(om, vec)
            worst = max(
                worst,
                float(np.max(np.abs(om.multiply(vec) - ref)) / max(np.max(np.abs(ref)), 1e-300)),
            )
        checks.append(
            {
                "name": f"fft-vs-naive b={b} m={m}",
                "ok": bool(worst <= 1e-9),
                "detail": f"max rel {worst:.2e}",
            }
        )

    for spec, fast in runs[:1] + runs[-1:]:
        gv = fast.gen_vector
        worst = 0.0
        for d in range(1, gv.d + 1):
            cols = [
                pure_omega_column(gv.modulus, gv.q[j], spec.alpha) for j in range(d)
            ]
            if inject_fault and d == gv.d:
                cols[0] = cols[0].copy()
                cols[0][1] += 0.05  # one perturbed omega value must be caught
            ref = criterion_from_columns(cols, spec)
            worst = max(
                worst, abs(fast.criterion_per_step[d - 1] - ref) / max(abs(ref), 1e-300)
            )
        checks.append(
            {
                "name": f"direct-criterion J={spec.J}",
                "ok": bool(worst <= 1e-9),
                "detail": f"max rel {worst:.2e}",
            }
        )

    for spec, fast in runs:
        check = verify_bound(fast, spec)
        checks.append(
            {
                "name": f"cbc-bound J={spec.J}",
                "ok": bool(check.ok),
                "detail": f"tightest lambda {check.tightest_lambda}",
            }
        )
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def cmd_selftest(cfg: RunConfig) -> int:
    report = run_selftest(inject_fault=cfg.inject_fault, seed=cfg.seed)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 2


_COMMANDS = {
    "construct": cmd_construct,
    "points": cmd_points,
    "bounds": cmd_bounds,
    "converge": cmd_converge,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        cfg = resolve_config(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"polylat: invalid config: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"polylat: computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
