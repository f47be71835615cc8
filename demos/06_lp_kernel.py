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
# maximize t subject to 2 w1 - w2 >= t, w1 + w2 = 1, w >= 0, t free.
# The kernel takes one form: maximize c @ x s.t. A x <= b, x >= 0.  So
# w2 = 1 - w1 is eliminated (w2 >= 0 becomes w1 <= 1), and the free margin is
# shifted, t = d - 1 with d >= 0: on the simplex 2 w1 - w2 >= -1, so d >= 0
# cuts off nothing.  The margin row becomes d - 3 w1 <= 0.
problem = LpProblem(
    objective=[0.0, 1.0],  # maximize d over x = (w1, d)
    constraints=np.array([[-3.0, 1.0], [1.0, 0.0]]),
    rhs=[0.0, 1.0],
)
print(format_problem(problem))
solution = solve(problem)
w1 = solution.x[0]
print(f"status = {solution.status.value}, w = [{w1:g}, {1.0 - w1:g}], margin = {solution.value - 1.0:g}")

print()
print("=== infeasibility comes with a checkable certificate ===")
# x >= 1 (stated as -x <= -1) and x <= 0:
bad = LpProblem(objective=[0.0], constraints=[[-1.0], [1.0]], rhs=[-1.0, 0.0])
verdict = solve(bad)
print(f"status = {verdict.status.value}")
print(f"certificate y = {verdict.certificate}")
print(f"certificate verifies: {check_infeasibility_certificate(bad, verdict.certificate)}")

print()
print("=== deterministic: identical inputs give bit-identical solutions ===")
a = solve(problem)
b = solve(problem)
print(f"x bytes equal across runs: {a.x.tobytes() == b.x.tobytes()}")
