"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 10              # all workloads, seeds 0..9
    python3 perfbench/suite.py --seeds 5 --workloads base3-ties
    python3 perfbench/suite.py --seeds 10 --trace-runs 3 --write-baseline

Each run is a separate process (`run.py`), so peak memory never leaks from
one workload into the next.  For every end-to-end metric the table shows
the median over runs of the per-run medians, the quartiles, the spread
(q3 - q1) / median and the sample counts; the spread is set against the
metric's bound in BENCHMARK.json.  Traced runs (seeds 0, 1, ...) add the
per-layer metrics with the same statistics.  --write-baseline stores the
tables, with every run's per-iteration samples, in perfbench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    full = json.loads(next(ln for ln in lines if ln.startswith("report: "))[len("report: "):])
    return full, json.loads(lines[-1])


def stats(values) -> dict:
    """Median, quartiles and (q3 - q1) / median; spread is None when the median is 0."""
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else None,
            "runs": len(values), "values": values}


def fmt_spread(spread):
    return "-" if spread is None else f"{spread:.3f}"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    baseline = {"run_seconds": args.seconds, "seeds": list(range(args.seeds)), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in baseline["seeds"]:
            full, last = run_once(workload, seed, args.seconds, 0)
            runs.append((full, last))
            print(f"{workload} seed={seed} correct={last['correct']} attempted={last['attempted']} "
                  f"failed={last['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in full["e2e"].items()), flush=True)
        table = {}
        print(f"\n{workload}: {len(runs)} runs of {args.seconds} s")
        print(f"  {'metric':<18} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  samples/run")
        for name, info in runs[0][0]["e2e"].items():
            st = stats([full["e2e"][name]["value"] for full, _ in runs])
            samples = sorted({full["e2e"][name]["n"] for full, _ in runs})
            table[name] = {"unit": info["unit"], **st, "samples_per_run": samples}
            bound = bounds.get(name)
            print(f"  {name:<18} {info['unit']:<6} {st['median']:>12.5g} {st['q1']:>12.5g} "
                  f"{st['q3']:>12.5g} {fmt_spread(st['spread']):>7} "
                  f"{bound if bound is not None else '-':>6}  {samples}")
        entry = {
            "end_to_end": table,
            "runs": [{"seed": full["seed"], "samples": full["samples"]} for full, _ in runs],
            "correct": all(last["correct"] for _, last in runs),
            "attempted": sum(last["attempted"] for _, last in runs),
            "failed": sum(last["failed"] for _, last in runs),
        }
        traced = [run_once(workload, seed, args.seconds, 1) for seed in range(args.trace_runs)]
        layers = {}
        if traced:
            print(f"  per layer, {len(traced)} traced runs:")
        for name, info in (traced[0][0]["layers"].items() if traced else []):
            st = stats([full["layers"][name]["value"] for full, _ in traced])
            layers[name] = {"unit": info["unit"], "computed": info["computed"], **st}
            print(f"  {name:<34} {st['median']:>14.6g} {info['unit']:<6} "
                  f"spread {fmt_spread(st['spread']):>7}{'  (computed)' if info['computed'] else ''}")
        for full, last in traced:
            entry["correct"] = entry["correct"] and last["correct"]
            entry["attempted"] += last["attempted"]
            entry["failed"] += last["failed"]
        if layers:
            entry["per_layer"] = layers
        print(f"  correct={entry['correct']} attempted={entry['attempted']} failed={entry['failed']}\n")
        baseline["workloads"][workload] = entry

    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
