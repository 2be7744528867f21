"""The benchmark's contract: every polylat name perfbench/ reaches must exist.

perfbench/ runs outside this suite, so a deleted or renamed name it wraps or
calls would only show when the benchmark runs.  The tracer's boundaries and
every `pl.<module>.<name>` chain in its sources are resolved here against the
modules already imported, without re-importing polylat.  A few of the
benchmark's golden constructions are replayed here too, from its own inputs
and digests.
"""

import importlib
import importlib.util
import json
import re
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads")
PL = types.SimpleNamespace(
    **{name: importlib.import_module(f"polylat.{name}") for name in WORKLOADS.MODULES}
)
CHAINS = sorted({
    chain
    for path in PERFBENCH.glob("*.py")
    for chain in re.findall(r"\bpl\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", path.read_text())
})


@pytest.mark.parametrize("family", ["rational-spod", "product-exponential"])
def test_every_traced_boundary_resolves(family):
    for owner, attr, span in load("tracing").boundaries(PL, family):
        # the tracer reads a class attribute from the class's own __dict__
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{span}: {owner.__name__}.{attr} is gone"


def test_every_called_name_resolves():
    assert {"pointgen.point_for_index", "pointgen.interlace_digits", "gfpoly.is_irreducible",
            "gfpoly.Modulus", "cbc.fast_cbc", "cli.main"} <= set(CHAINS)
    for chain in CHAINS:
        obj = PL
        for attr in chain.split("."):
            assert hasattr(obj, attr), f"pl.{chain} is gone"
            obj = getattr(obj, attr)


def test_spod_heavy_digests_replay():
    # b = 2, m = 12: score_exact's dot products hold N - 1 = 4095 entries,
    # below OpenBLAS's 10,000-entry threshold for splitting one across
    # threads, so the tie rescoring and these digests do not depend on the
    # thread count
    golden = json.loads((PERFBENCH / "golden.json").read_text())["workloads"]["spod-heavy"]
    inputs = WORKLOADS.make_inputs(PL, WORKLOADS.WORKLOADS["spod-heavy"], 0)
    wl = inputs.workload
    for modulus, _spots in inputs.moduli[:3]:
        want = golden[WORKLOADS.modulus_key(PL, modulus)]
        res = PL.cbc.fast_cbc(inputs.spec, wl.m, wl.s, modulus=modulus)
        got = WORKLOADS.construct_digest(PL, res)
        assert got == {name: want[name] for name in got}, WORKLOADS.modulus_key(PL, modulus)
