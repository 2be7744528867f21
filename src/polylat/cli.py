"""Command-line front end: construct, points, bounds, converge, selftest.

Each subcommand takes only the options it reads (see build_parser).
Configuration precedence is flags over config-file values over defaults.
A config file is a JSON object keyed by the command's option names with
underscores (plus beta_values on the weight commands) and, optionally,
"command" naming the subcommand; other keys are rejected.  Every output
embeds its resolved configuration in that form, so --config replays it.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical or
oracle failure, or out of memory.
"""

import argparse
import dataclasses
import json
import os
import sys
import math
import warnings

from .cbc import default_lambda_grid, fast_cbc, verify_bound
from .gfpoly import check_prime_base
# classical_digit_array, interlace_digit_array and digits_to_values are unused
# here but stay importable from this module: the benchmark's tracer wraps them
# by name
from .pointgen import (
    GeneratingVector,
    classical_digit_array,
    digits_to_values,
    distinct_coordinates,
    interlace_digit_array,
    value_chunks,
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
    # names of the options the command reads, taken from its parser
    options: tuple = ()

    def resolved_dict(self) -> dict:
        """The command and every option it read: a config file that replays it."""
        return {"command": self.command, **{k: getattr(self, k) for k in self.options}}

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


def _load_config_file(path: str, command: str, keys) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"field 'config': cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("field 'config': top level must be a JSON object")
    named = data.pop("command", command)
    if named != command:
        raise UsageError(f"field 'command': config file is for {named!r}, not {command!r}")
    unknown = set(data) - set(keys)
    if unknown:
        raise UsageError(f"field 'config': unknown keys {sorted(unknown)} for {command}")
    return data


def _parse_lambda_grid(grid) -> list:
    """Values from the flag's "0.6,0.8" or a config file's list of numbers."""
    if isinstance(grid, str):
        grid = [tok for tok in grid.split(",") if tok.strip()]
    elif not (isinstance(grid, list) and all(type(lam) in (int, float) for lam in grid)):
        raise UsageError(f"field 'lambda_grid': need a list of numbers, got {grid!r}")
    try:
        return [float(lam) for lam in grid]
    except ValueError as exc:
        raise UsageError(f"field 'lambda_grid': {exc}") from exc


def _parse_m_range(value) -> list:
    """m values from "6:13", "6,8,10" or a config file's list of integers."""
    try:
        if isinstance(value, list):
            out = value
        elif ":" in value:
            lo, hi = value.split(":")
            out = list(range(int(lo), int(hi) + 1))
        else:
            out = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"field 'm_range': {exc}") from exc
    if not out or any(m2 <= m1 for m1, m2 in zip(out, out[1:])):
        raise UsageError("field 'm_range': need strictly increasing m values")
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polylat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("construct", help="run the fast CBC construction")
    pts = sub.add_parser("points", help="emit the point set of a generating vector")
    bnd = sub.add_parser("bounds", help="print the bound calculators' table")
    cv = sub.add_parser("converge", help="construct, integrate, and fit the empirical rate")
    st = sub.add_parser("selftest", help="run the oracle suite (fast-vs-slow, FFT, bounds)")

    for p in (c, pts, bnd, cv, st):
        p.add_argument("--config", help="JSON config file (flags override it)")
    for p in (c, bnd, cv):  # the weight options
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
        p.add_argument("--s", type=int, help="number of dimensions")
    for p in (c, bnd):
        p.add_argument("--m", type=int, help="number of points is b^m")
        p.add_argument("--lambda-grid", dest="lambda_grid", help="comma-separated lambda grid")
    for p in (c, pts, cv):
        p.add_argument("--out", help="output path")
    for p in (cv, st):
        p.add_argument("--seed", type=int, help="random seed")

    pts.add_argument("--gv", help="generating-vector JSON produced by construct")
    pts.add_argument("--format", choices=["csv", "digits"], help="decimal CSV or exact digit strings")
    bnd.add_argument("--format", choices=["json", "text"], help="output style (default text)")
    cv.add_argument("--m-range", dest="m_range", help="like 6:13 or 6,8,10")
    cv.add_argument("--family", choices=["product-exponential", "rational-spod"])
    cv.add_argument("--scale", type=float, help="product-exponential scale factor")
    cv.add_argument("--c0", type=float, help="rational family pole offset")
    cv.add_argument("--mc-baseline", dest="mc_baseline", action="store_true", default=None)
    return parser


def _check_file_values(data: dict, actions: dict) -> dict:
    """Config-file values through their option's type and choices, as a flag's would go."""
    out = {}
    for name, value in data.items():
        if value is not None and name == "beta_values" and not (
            isinstance(value, list) and value
            and all(type(v) in (int, float) and math.isfinite(v) for v in value)
        ):
            raise UsageError(f"field 'beta_values': need a nonempty list of numbers, got {value!r}")
        if value is not None and name in ("out", "gv") and not isinstance(value, str):
            raise UsageError(f"field '{name}': need a path string, got {value!r}")
        action = actions.get(name)  # beta_values has no flag
        if value is None or action is None:
            out[name] = value
            continue
        if name == "use_prime_constant" and isinstance(value, bool):
            value = "on" if value else "off"
        if isinstance(action, argparse._StoreTrueAction) and not isinstance(value, bool):
            raise UsageError(f"field '{name}': need true or false, got {value!r}")
        if name == "m_range" and not isinstance(value, str) and not (
            isinstance(value, list) and all(type(v) is int for v in value)
        ):
            raise UsageError(f"field 'm_range': need integer m values, got {value!r}")
        if action.type is not None:
            try:
                value = action.type(str(value))
            except ValueError as exc:
                raise UsageError(
                    f"field '{name}': {value!r} is not a valid {action.type.__name__}"
                ) from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"field '{name}': need one of {', '.join(action.choices)}, got {value!r}"
            )
        out[name] = value
    return out


def resolve_config(argv) -> RunConfig:
    parser = build_parser()
    ns = vars(parser.parse_args(argv))
    command = ns.pop("command")
    path = ns.pop("config")
    keys = list(ns)  # the options this command reads
    if "p" in ns:
        keys.append("beta_values")
    file_values = {}
    if path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in sub.choices[command]._actions}
        file_values = _check_file_values(_load_config_file(path, command, keys), actions)
    values = {}
    for source in (file_values, ns):
        values.update((k, v) for k, v in source.items() if v is not None)
    if "lambda_grid" in values:
        values["lambda_grid"] = _parse_lambda_grid(values["lambda_grid"])
    if "m_range" in values:
        values["m_range"] = _parse_m_range(values["m_range"])
    if "use_prime_constant" in values:
        values["use_prime_constant"] = values["use_prime_constant"] == "on"
    cfg = RunConfig(command=command, options=tuple(keys), **values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    try:
        check_prime_base(cfg.b)
    except ValueError as exc:
        raise UsageError(f"field 'b': {exc}") from exc
    if cfg.m is not None and cfg.m < 1:
        raise UsageError("field 'm': need m >= 1")
    if cfg.s is not None and cfg.s < 1:
        raise UsageError("field 's': need s >= 1")
    if cfg.J is not None and cfg.J < 0:
        raise UsageError("field 'J': need J >= 0")
    if cfg.p is not None and not 0 < cfg.p <= 1:
        raise UsageError("field 'p': need 0 < p <= 1")
    if cfg.command == "construct" and cfg.b > 7:
        raise UsageError(
            "field 'b': the generating-vector file stores q and P as "
            "single-character digit strings, so construct needs b <= 7"
        )
    for name in ("m", "s", "m_range", "gv"):
        if name in cfg.options and getattr(cfg, name) is None:
            raise UsageError(f"field '{name}': required for {cfg.command}")
    if cfg.out is not None:
        # checked before any work: construct would otherwise lose a finished search
        folder = os.path.dirname(cfg.out) or "."
        if not os.path.isdir(folder):
            raise UsageError(f"field 'out': directory {folder!r} does not exist")


def _lambda_grid(cfg: RunConfig, alpha: int) -> list:
    """The bound-check grid, checked against (1/alpha, 1] before any work."""
    grid = default_lambda_grid(alpha) if cfg.lambda_grid is None else cfg.lambda_grid
    if not grid or not all(1.0 / alpha < lam <= 1.0 for lam in grid):
        raise UsageError(f"field 'lambda_grid': need values in (1/{alpha}, 1], got {grid}")
    return grid


# -- subcommands ---------------------------------------------------------------


def _write_json(path: str, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_construct(cfg: RunConfig) -> int:
    spec = cfg.weight_spec()
    grid = _lambda_grid(cfg, spec.alpha)
    result = fast_cbc(spec, cfg.m, cfg.s)
    out = cfg.out or f"polylat_b{cfg.b}_m{cfg.m}_s{cfg.s}.json"
    meta = dict(cfg.resolved_dict(), J=result.J)
    # the finished vector and its sidecar go to disk before the bound check,
    # which can fail on its own (e.g. too many SPOD blocks to enumerate)
    result.gen_vector.save(out, metadata=meta)
    sidecar_path = out.removesuffix(".json") + ".cbc.json"
    sidecar = dict(result.sidecar_dict(), config=meta)
    _write_json(sidecar_path, sidecar)
    print(f"constructed {result.d} components (J={result.J}) -> {out}")
    if result.repeated_coordinates:
        print(f"warning: {len(result.repeated_coordinates)} of {cfg.s} coordinates repeat an "
              f"earlier coordinate's generating polynomials ({result.distinct_coordinates} "
              f"distinct), so their point columns are equal; see {sidecar_path}", file=sys.stderr)
    try:
        check = verify_bound(result, spec, grid)
    except ValueError as exc:
        sidecar["bound_check"] = {"ok": None, "error": str(exc)}
        raise
    else:
        sidecar["bound_check"] = check.to_json_dict()
    finally:
        _write_json(sidecar_path, sidecar)
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
    out = cfg.out or "points.csv"
    if (cfg.format or "csv") == "digits":
        write_points_digits(out, gv)
    else:
        write_points_csv(out, value_chunks(gv), distinct_coordinates(gv)[1])
    print(f"wrote {gv.n_points} points in {gv.s} dimensions -> {out}")
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    spec = cfg.weight_spec()
    d = spec.alpha * cfg.s
    grid = _lambda_grid(cfg, spec.alpha)
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
    _write_json(out + ".meta.json", _sanitize(meta))
    if rec.degenerate:
        print(f"all errors at float noise; no slope fitted -> {out}")
    elif rec.slope is None:
        print(f"too few points to fit a slope (the first {rec.skip_fit} are skipped); "
              f"no slope fitted -> {out}")
    else:
        line = f"fitted slope {rec.slope:.3f}"
        if rec.mc_slope is not None:
            line += f"; Monte Carlo baseline slope {rec.mc_slope:.3f}"
        print(line + f" -> {out}")
    return 0


def cmd_selftest(cfg: RunConfig) -> int:
    from .oracle import run_selftest

    report = run_selftest(seed=cfg.seed)
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
    except (ValueError, ArithmeticError, MemoryError) as exc:
        # pocketfft raises a bare MemoryError
        print(f"polylat: computation failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
