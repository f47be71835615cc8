"""The dense LP kernel that powers acceptance queries and functional fitting.

Two-phase simplex with Dantzig pricing and a Bland's-rule fallback against
cycling: deterministic pivoting, margin objectives, and Farkas certificates
for infeasible systems.
Run:  python3 demos/06_lp_kernel.py
"""

import numpy as np

from desirables.lp import (
    LpProblem,
    check_infeasibility_certificate,
    format_problem,
    solve,
)

print("=== a margin-maximization problem on the 2-simplex ===")
# maximize m subject to 2 w1 - w2 >= m, w1 + w2 = 1, w >= 0, m free.
# A problem is arrays: one row of the constraint matrix per constraint,
# with one relation and one right-hand side per row.
problem = LpProblem(
    objective=[0.0, 0.0, 1.0],
    constraints=np.array([[2.0, -1.0, -1.0], [1.0, 1.0, 0.0]]),
    relations=(">=", "="),
    rhs=[0.0, 1.0],
    lower_bounds=[0.0, 0.0, -np.inf],
)
print(format_problem(problem))
solution = solve(problem)
print(f"status = {solution.status.value}, w = {solution.x[:2]}, margin = {solution.value}")

print()
print("=== infeasibility comes with a checkable certificate ===")
# x >= 1 and x <= 0:
bad = LpProblem(objective=[0.0], constraints=[[1.0], [1.0]], relations=(">=", "<="), rhs=[1, 0])
verdict = solve(bad)
print(f"status = {verdict.status.value}")
print(f"certificate y = {verdict.certificate}")
print(f"certificate verifies: {check_infeasibility_certificate(bad, verdict.certificate)}")

print()
print("=== deterministic: identical inputs give bit-identical solutions ===")
a = solve(problem)
b = solve(problem)
print(f"x bytes equal across runs: {a.x.tobytes() == b.x.tobytes()}")
