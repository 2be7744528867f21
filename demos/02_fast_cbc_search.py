"""The fast component-by-component search under hybrid weights.

Constructs the same rule three ways: pure product weights (crossover J
equal to the dimension), pure SPOD weights (J = 0), and a genuine hybrid
(J in between).  Prints the per-step search criterion, checks the fast
recursion against the literal subset-sum criterion, and shows the cost
counters that separate the O(N log N) product regime from the SPOD
update tail.
"""

from polylat import DecaySequence, WeightSpec, fast_cbc, poly_to_string, verify_bound
from polylat.oracle import direct_criterion, slow_cbc

beta = DecaySequence.power(0.4, 2.0, p=0.6)
m, s = 4, 3

for J in (s, 0, 1):
    spec = WeightSpec(alpha=2, b=2, J=J, beta=beta)
    result = fast_cbc(spec, m, s)
    regime = {s: "pure product", 0: "pure SPOD"}.get(J, f"hybrid (J={J})")
    print(f"\n=== J={J} ({regime}) ===")
    print("components:", [poly_to_string(q) for q in result.gen_vector.q])
    print("criterion per step:", ["%.4e" % e for e in result.criterion_per_step])

    # oracle 1: the slow reference search must pick the same polynomials
    reference = slow_cbc(spec, m, s)
    assert result.gen_vector == reference.gen_vector
    print("slow reference search picks identical components")

    # oracle 2: the assembled criterion equals the literal 2^d subset sum
    worst = max(
        abs(result.criterion_per_step[d - 1] - direct_criterion(result.gen_vector, spec, d))
        / direct_criterion(result.gen_vector, spec, d)
        for d in range(1, result.d + 1)
    )
    print(f"max relative gap to the literal criterion: {worst:.2e}")

    # guaranteed bound, every lambda in (1/alpha, 1]
    check = verify_bound(result, spec)
    print(f"criterion bound satisfied on the lambda grid: {check.ok} "
          f"(tightest at lambda={check.tightest_lambda})")

# cost bookkeeping at a larger size: product-regime search work is flat,
# SPOD block updates grow with the distance past the crossover
spec = WeightSpec(alpha=2, b=2, J=4, beta=beta)
result = fast_cbc(spec, 9, 10)
units = result.cost.search_units
print(f"\nm=9, s=10, J=4: search units per step constant = {len(set(units)) == 1}")
print("SPOD assembly units by block:",
      {s_: u for s_, u in sorted(result.cost.spod_assembly_units.items())})
