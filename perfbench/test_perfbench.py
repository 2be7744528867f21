"""Benchmark-local tests: tracing leaves outputs and the program untouched.

    python3 -m pytest perfbench/test_perfbench.py -q

Small workloads of the same three shapes keep this fast.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, boundaries  # noqa: E402
from workloads import (  # noqa: E402
    POOL,
    Workload,
    fingerprint,
    import_polylat,
    make_inputs,
    modulus_key,
    run_iteration,
)

SMALL = {
    "hybrid": Workload(b=2, J=2, s=4, m=8, family="product-exponential", export_format="csv"),
    "spod": Workload(b=2, J=0, s=30, m=6, family="rational-spod", export_format="csv"),
    "base3": Workload(b=3, J=2, s=4, m=5, family="product-exponential", export_format="digits"),
}


@pytest.fixture(scope="module")
def pl():
    return import_polylat()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_is_bit_identical_and_restores_originals(pl, name, tmp_path):
    wl = SMALL[name]
    targets = boundaries(pl, wl.family)
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    plain = run_iteration(pl, make_inputs(pl, wl, 3), 1, tmp_path, None)

    tracer = Tracer()
    with tracer.installed(targets):
        with tracer.span("op.setup"):
            inputs = make_inputs(pl, wl, 3, span=tracer.span)
        traced = run_iteration(pl, inputs, 1, tmp_path, None, span=tracer.span)

    assert plain.failures == traced.failures
    assert plain.outputs == traced.outputs
    assert all(v is not None for v in plain.outputs)
    assert all(getattr(owner, attr) is orig for owner, attr, orig in before)
    summary = tracer.summary()
    assert summary["cbc.fast_cbc"]["calls"] == 1
    assert summary["kernel.multiply"]["calls"] == 2 * wl.s - 1
    assert summary["cli.points"]["calls"] == 1
    for rec in tracer.spans:
        assert rec[1] <= rec[2]
        assert rec[3] < 0 or tracer.spans[rec[3]][1] <= rec[1] <= rec[2] <= tracer.spans[rec[3]][2]


def test_failures_are_counted_and_the_run_goes_on(pl, tmp_path, monkeypatch):
    inputs = make_inputs(pl, SMALL["hybrid"], 0)

    def broken(*_args, **_kwargs):
        raise OverflowError("injected")

    monkeypatch.setattr(pl.cbc, "verify_bound", broken)
    it = run_iteration(pl, inputs, 0, tmp_path, None)
    assert it.failures == [("bound", "OverflowError", "injected")]
    assert {"points", "quad", "export"} <= set(it.times)


def test_construct_failure_skips_dependent_ops(pl, tmp_path, monkeypatch):
    inputs = make_inputs(pl, SMALL["hybrid"], 0)
    monkeypatch.setattr(pl.cbc, "fast_cbc", lambda *a, **k: 1 / 0)
    it = run_iteration(pl, inputs, 0, tmp_path, None)
    assert [f[:2] for f in it.failures] == [("construct", "ZeroDivisionError")] + [
        (op, "Skipped") for op in ("bound", "points", "quad", "export")
    ]


def test_golden_mismatch_is_a_failed_op(pl, tmp_path):
    inputs = make_inputs(pl, SMALL["base3"], 0)
    it = run_iteration(pl, inputs, 0, tmp_path, None)
    key = modulus_key(pl, inputs.moduli[0][0])
    good = fingerprint(pl, it.result, it.quad_abs_error)
    again = run_iteration(pl, inputs, 0, tmp_path, {key: good})
    assert again.golden_checked and again.failures == []

    for field in ("q", "criterion", "quad_abs_error"):
        bad = dict(good, **{field: "0" * 32 if field != "quad_abs_error" else (1.0).hex()})
        it = run_iteration(pl, inputs, 0, tmp_path, {key: bad})
        assert [f[1] for f in it.failures] == ["CheckFailed"], field

    missing = run_iteration(pl, inputs, 0, tmp_path, {})
    assert not missing.golden_checked
    assert [f[:2] for f in missing.failures] == [("construct", "CheckFailed")]


def test_inputs_depend_only_on_the_seed(pl):
    a = make_inputs(pl, SMALL["base3"], 7)
    b = make_inputs(pl, SMALL["base3"], 7)
    c = make_inputs(pl, SMALL["base3"], 8)
    assert len(a.moduli) == POOL
    assert a.moduli == b.moduli
    assert a.moduli != c.moduli


def test_benchmark_json_names_match_the_output(pl, tmp_path):
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == run.GATED
    wl = SMALL["spod"]
    tracer = Tracer()
    with tracer.installed(boundaries(pl, wl.family)):
        inputs = make_inputs(pl, wl, 0, span=tracer.span)
        it = run_iteration(pl, inputs, 0, tmp_path, None, span=tracer.span)
    names = set(run.layer_metrics(tracer, it, wl)) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == names
