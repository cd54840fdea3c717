"""How fast can Nillie insert jobs and stay covert?

Covertness asks that Willie's error probability stay above 1 - epsilon
after N observations.  Inverting the exponential decay gives the largest
admissible insertion rate, which falls off like 1/sqrt(N).  The table
below shows the bound and the constant bound * sqrt(N).
"""

from covertq import (
    CovertnessSpec,
    ModelParams,
    covertness_check,
    max_covert_rate,
    scaling_table,
    scaling_table_csv,
)

lambda_w, epsilon = 0.3, 0.1

rows = scaling_table(lambda_w, epsilon, [100, 1000, 10**4, 10**5, 10**6])
print(scaling_table_csv(rows))
print()

spec = CovertnessSpec(epsilon=epsilon, n=1000)
rate = max_covert_rate(lambda_w, spec)["bound"]
print(f"at N=1000 the bound is lambda_b <= {rate:.6f}")
for lb, label in ((0.9 * rate, "below"), (rate, "at"), (1.1 * rate, "above")):
    chk = covertness_check(ModelParams(lambda_w, lb, 1.0), spec, mode="taylor")
    print(f"  {label:>5} the bound: lambda_b={lb:.6f}  "
          f"predicted p_e {chk['p_e_raw']:.4f}  covert={chk['covert']}")
