"""Error exponent of the busy/idle detector, three ways.

Prints the Chernoff objective r(u) along the unit interval, the closed
form minimizer against the numeric one, and the small-rate quadratic
approximation.  The last block shows how fast the quadratic degrades as
the covert insertion rate grows.
"""

import numpy as np

from covertq import ModelParams, exponent_report, i_err_closed, i_err_taylor, r_of_u

params = ModelParams(0.3, 0.2, 1.0)
rep = exponent_report(params)

print("r(u) along the unit interval:")
for u in np.linspace(0.0, 1.0, 11):
    bar = "#" * int(round(4000 * (1 - r_of_u(params, float(u)))))
    print(f"  u={u:.1f}  r={r_of_u(params, float(u)):.6f}  {bar}")

print()
print(f"minimizer   closed {rep['v_closed']:.12f}   numeric {rep['v_numeric']:.12f}")
print(f"exponent    closed {rep['i_err_closed']:.12f}   numeric {rep['i_err_numeric']:.12f}")
print(f"quadratic approx   {rep['i_err_taylor']:.12f}")

print()
print("quadratic vs exact as lambda_b grows (lambda_w = 0.3):")
for lb in (1e-3, 1e-2, 0.05, 0.1, 0.2, 0.4):
    p = ModelParams(0.3, lb, 1.0)
    ratio = i_err_taylor(p) / i_err_closed(p)
    print(f"  lambda_b={lb:<6g} taylor/closed = {ratio:.4f}")
