"""How many assignments are nearly optimal? Bound vs exact count.

For a threshold tau on per-variable contribution, flipping at most
r = floor(eps*w/tau) of the low-contribution variables from an optimum
costs at most eps*w weight, so sum_{i<=r} C(|S|,i) assignments stay within
the additive slack. The brute-force oracle computes the exact count, which
must dominate the bound at every threshold. Its limit is the bytes of its
2^n-row weight table, not a variable count: real weights are bracketed by
an integer table of 2 bytes a row, so a weighted CNF at n = 26 is within
reach, and there the bound is no longer the trivial 2^0.

Run: python demos/03_counting_bound_vs_exact.py
"""

import math

from maxcsp import (
    brute_force_optimum,
    count_near_optimal,
    counting_bound,
    random_ekcnf,
    random_wcnf,
    verify_counting_bound,
)

inst = random_ekcnf(num_vars=12, num_clauses=40, k=3, seed=2024)
w_star, argmax = brute_force_optimum(inst)
print(f"random exact-3 CNF: n = {inst.num_vars}, m = {inst.num_constraints}")
print(f"optimum weight w* = {w_star} at  {argmax}")
print()

for eps in (0.05, 0.1, 0.25, 0.5):
    exact = count_near_optimal(inst, eps)
    cb = counting_bound(inst, eps)
    best = cb.best_record
    print(
        f"eps = {eps:<5}: exact D = {exact:>5}   bound 2^{cb.log2_count:.2f}"
        f" = {2 ** cb.log2_count:>8.1f}   (|S| = {best.s_size}, r = {best.r},"
        f" delta = {best.delta:.3f})"
    )

print()
print("per-threshold detail at eps = 0.25:")
report = verify_counting_bound(inst, 0.25)
print(f"  exact D = {report.d_exact}")
for check in report.per_delta_checks:
    status = "ok" if check.count_ok and check.members_ok else "VIOLATION"
    print(
        f"  delta = {check.delta:6.3f}  |S| = {check.s_size:>2}  r = {check.r}"
        f"  bound = {check.sigma_count:>5}  {status}"
    )

wide = random_wcnf(num_vars=26, num_clauses=87, max_len=3, seed=1)
wide_report = verify_counting_bound(wide, 0.1)
print()
print(f"random weighted CNF: n = {wide.num_vars}, m = {wide.num_constraints}")
print(
    f"eps = 0.1  : exact D = 2^{math.log2(wide_report.d_exact):.2f}"
    f"   bound 2^{counting_bound(wide, 0.1).log2_count:.2f}"
    f"   thresholds verified: {wide_report.all_pass}"
)
print("all thresholds verified:", report.all_pass and wide_report.all_pass)
