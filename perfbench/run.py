"""polylat benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload base3-ties --seed 1 --seconds 57 --trace 0

Runs from the root of a source checkout and imports polylat from its
`src/`.  One untimed set-up (import polylat, draw the seeded moduli, build
the weight spec, the integrand and its reference integral) makes the
inputs; then closed-loop iterations of construct -> bound -> points ->
quadrature plus a CLI export run until the measuring time is used up.
Between iterations the set-up is repeated, timed, until it has taken
SETUP_SHARE of the elapsed time, so its samples see the same host as the
iterations.  Every output is checked; a failing op is counted and the run
goes on.

The benchmark ships golden outputs for the moduli of seeds
0..golden["seeds"]-1; seed n uses the inputs of seed n mod that count, so
every construction is compared bit for bit.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each iteration is paired with a traced rerun on the same inputs
(alternately after and before it), whose outputs must be bit-identical,
and the last line carries the per-layer metrics.  The line before it
(prefix "report: ") holds every metric with its sample count, for
perfbench/suite.py.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SHARE = 0.15  # share of the elapsed time spent repeating the set-up

sys.path.insert(0, str(HERE))
from tracing import Tracer, boundaries  # noqa: E402
from workloads import (  # noqa: E402
    ALPHA,
    OPS,
    WORKLOADS,
    import_polylat,
    make_inputs,
    run_iteration,
)

END_TO_END = {  # name -> unit; the first six are the ones BENCHMARK.json bounds
    "setup_s": "s",
    "construct_s": "s",
    "points_s": "s",
    "export_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "quad_abs_error": "abs",
    "criterion_final": "value",
}
GATED = list(END_TO_END)[:6]
COMPUTED = {"kernel.fft_len", "cbc.U_mb", "pointgen.digit_cube_mb"}  # from array sizes


def load_golden(workload: str) -> tuple[int, dict]:
    """(number of seeds recorded, modulus -> golden entry) for a workload."""
    with open(HERE / "golden.json") as fh:
        doc = json.load(fh)
    return doc["seeds"], doc["workloads"][workload]


def layer_metrics(tracer, it, wl) -> dict:
    """Per-layer numbers of one traced iteration, as name -> (value, unit)."""
    summary = tracer.summary()

    def total(name, root=None, field="s"):
        key = (name, root) if root else name
        return summary[key][field] if key in summary else 0

    result = it.result
    N = wl.b**wl.m
    d = ALPHA * wl.s
    multiply_calls = total("kernel.multiply", field="calls")
    fmt = wl.export_format
    return {
        "gfpoly.poly_mul_mod_calls": (total("gfpoly.poly_mul_mod", field="calls"), "count"),
        "gfpoly.poly_mul_mod_s": (total("gfpoly.poly_mul_mod"), "s"),
        "gfpoly.primitive_element_s": (total("gfpoly.primitive_element"), "s"),
        "gfpoly.mul_mod_matrix_calls": (total("gfpoly.mul_mod_matrix", field="calls"), "count"),
        "gfpoly.mul_mod_matrix_s": (total("gfpoly.mul_mod_matrix"), "s"),
        "gfpoly.modulus_s": (total("gfpoly.modulus"), "s"),
        "kernel.init_s": (total("kernel.init", field="self_s"), "s"),
        "kernel.multiply_calls": (multiply_calls, "count"),
        "kernel.multiply_s": (total("kernel.multiply"), "s"),
        "kernel.fft_len": (N - 1, "count"),
        "kernel.column_calls": (total("kernel.column", field="calls"), "count"),
        "kernel.column_s": (total("kernel.column"), "s"),
        "kernel.score_exact_calls": (total("kernel.score_exact", field="calls"), "count"),
        "kernel.rescore_per_step": (
            total("kernel.score_exact", field="calls") / max(multiply_calls, 1), "ratio"),
        "cbc.fast_cbc_s": (total("cbc.fast_cbc"), "s"),
        "cbc.self_s": (total("cbc.fast_cbc", field="self_s"), "s"),
        "cbc.steps": (len(result.criterion_per_step), "count"),
        "cbc.spod_assembly_units": (sum(result.cost.spod_assembly_units.values()), "count"),
        "cbc.spod_update_units": (sum(result.cost.spod_update_units.values()), "count"),
        "cbc.U_mb": ((ALPHA * (wl.s - wl.J) + 1) * N * 8 / 1e6 if wl.s > wl.J else 0.0, "MB"),
        "weights.cbc_bound_calls": (total("weights.cbc_bound", field="calls"), "count"),
        "weights.cbc_bound_s": (total("weights.cbc_bound"), "s"),
        "weights.cbc_bound_failed": (total("weights.cbc_bound", field="failed"), "count"),
        "pointgen.classical_digit_array_s": (
            total("pointgen.classical_digit_array", "op.points"), "s"),
        "pointgen.interlace_s": (total("pointgen.interlace", "op.points"), "s"),
        "pointgen.values_s": (total("pointgen.values", "op.points"), "s"),
        "pointgen.digit_cube_mb": (N * d * wl.m / 1e6, "MB"),
        "pointgen.write_csv_s": (total("pointgen.write_csv"), "s"),
        "pointgen.write_csv_mb": (it.export_bytes / 1e6 if fmt == "csv" else 0.0, "MB"),
        "pointgen.write_digits_s": (total("pointgen.write_digits"), "s"),
        "pointgen.write_digits_mb": (it.export_bytes / 1e6 if fmt == "digits" else 0.0, "MB"),
        "quad.reference_s": (total("quad.reference"), "s"),
        "quad.apply_s": (total("quad.apply"), "s"),
        "cli.points_s": (total("cli.points", field="self_s"), "s"),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    wl = WORKLOADS[workload]
    n_seeds, golden = load_golden(workload)
    seed %= n_seeds
    # The first set-up compiles and warms up; it makes the inputs and is not timed.
    pl = import_polylat()
    inputs = make_inputs(pl, wl, seed)
    if not Path(pl.cbc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"polylat imported from {pl.cbc.__file__}, not from {ROOT / 'src'}")

    setups = []
    plain, traced, extra_failures = [], [], []
    t_start = time.perf_counter()
    longest = 0.0
    k = 0
    while True:
        t_iter = time.perf_counter()
        # A traced run pairs each iteration with a traced rerun; the order
        # alternates so that neither half always runs right after set-up.
        halves = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
        for half in halves if trace else ("plain",):
            if half == "plain":
                it = run_iteration(pl, inputs, k, workdir, golden)
                plain.append(it)
                continue
            tracer = Tracer()
            with tracer.installed(boundaries(pl, wl.family)):
                with tracer.span("op.setup"):
                    t_inputs = make_inputs(pl, wl, seed, span=tracer.span)
                tit = run_iteration(pl, t_inputs, k, workdir, golden, span=tracer.span)
            traced.append((tracer, tit))
        if trace and tit.outputs != it.outputs:
            extra_failures.append(("trace", "CheckFailed", "traced outputs differ"))
        k += 1
        while sum(setups) < SETUP_SHARE * (time.perf_counter() - t_start):
            t0 = time.perf_counter()
            make_inputs(import_polylat(), wl, seed)
            setups.append(time.perf_counter() - t0)
        now = time.perf_counter()
        longest = max(longest, now - t_iter)
        # Stop before an iteration that would overrun; a traced run needs
        # three pairs, because the first pair is the warm-up.
        if now - t_start + longest > seconds and k >= 1 + 2 * trace:
            break

    iterations = plain + [tit for _tracer, tit in traced]
    failures = [f for it in iterations for f in it.failures] + extra_failures
    attempted = len(OPS) * len(iterations) + len(traced)

    def op_times(op):
        return [it.times[op] for it in plain if op in it.times]

    def values(attr):
        return [getattr(it, attr) for it in plain if getattr(it, attr) is not None]

    samples = {  # name -> per-sample values; a run reports their median
        "setup_s": setups,
        "construct_s": op_times("construct"),
        "points_s": op_times("points"),
        "export_s": op_times("export"),
        "pipeline_s": op_times("pipeline"),
        "quad_abs_error": values("quad_abs_error"),
        "criterion_final": values("criterion_final"),
    }
    e2e = {name: (statistics.median(v) if v else math.nan, len(v)) for name, v in samples.items()}
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    e2e["fail_ratio"] = (len(failures) / attempted, attempted)
    layers = {}
    if traced:
        per_iter = [layer_metrics(tracer, tit, wl) for tracer, tit in traced if tit.result]
        for name, (_v, unit) in (per_iter[0].items() if per_iter else []):
            value = statistics.median(m[name][0] for m in per_iter)
            if unit == "count" and value == int(value):
                value = int(value)
            layers[name] = (value, unit, len(per_iter))
        # Pair 0 is the warm-up; the rest alternate which half runs first.
        steady = range(1, len(traced))
        overhead = (statistics.median(traced[i][1].times["pipeline"] for i in steady)
                    - statistics.median(plain[i].times["pipeline"] for i in steady))
        layers["trace.overhead_s"] = (overhead, "s", len(steady))
    return {
        "e2e": {name: e2e[name] for name in END_TO_END},
        "samples": samples,
        "layers": layers,
        "failures": failures,
        "attempted": attempted,
        "correct": not any(f[1] == "CheckFailed" for f in failures),
        "golden_checked": sum(it.golden_checked for it in iterations),
        "constructed": sum(it.result is not None for it in iterations),
        "iterations": len(iterations),
        "inputs_seed": seed,
    }


def report(workload: str, seed: int, trace: bool, res: dict):
    print(f"perfbench {workload} seed={seed} (inputs of seed {res['inputs_seed']}) "
          f"trace={int(trace)}: {res['iterations']} iterations, {res['golden_checked']} of "
          f"{res['constructed']} constructions checked against golden values")
    for name, (value, n) in res["e2e"].items():
        print(f"  {name:<34} {value:>14.6g} {END_TO_END[name]:<6} n={n}")
    for name, (value, unit, n) in res["layers"].items():
        note = "  (computed from array sizes)" if name in COMPUTED else ""
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={n}{note}")
    for (op, kind, msg), count in Counter(res["failures"]).items():
        print(f"  failed: {op} {kind} x{count}: {msg}")
    full = {
        "workload": workload,
        "seed": seed,
        "inputs_seed": res["inputs_seed"],
        "golden_checked": res["golden_checked"],
        "constructed": res["constructed"],
        "e2e": {k: {"value": v, "unit": END_TO_END[k], "n": n} for k, (v, n) in res["e2e"].items()},
        "samples": res["samples"],
        "layers": {k: {"value": v, "unit": u, "n": n, "computed": k in COMPUTED}
                   for k, (v, u, n) in res["layers"].items()},
    }
    print("report: " + json.dumps(full))
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _n) in res["layers"].items()}
    else:
        metrics = {k: {"value": res["e2e"][k][0], "unit": END_TO_END[k]} for k in GATED}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "polylat" / "__init__.py").is_file():
        print(f"perfbench: no polylat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        res = bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    report(args.workload, args.seed, bool(args.trace), res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
