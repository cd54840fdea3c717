"""Simulate busy/idle observations and run the threshold test on them.

Willie watches n arrivals, records whether the server was busy, and
compares the log likelihood ratio against a zero threshold.  The script
shows one simulated decision under each hypothesis, then checks the
Monte Carlo error rates against the closed-form binomial expression.
"""

from covertq import (
    Hypothesis,
    ModelParams,
    RngSeed,
    decide,
    exact_error_probabilities,
    log_likelihood_ratio,
    monte_carlo_error,
    simulate_sequence,
)

params = ModelParams(lambda_w=0.3, lambda_b=0.2, mu=1.0)
n, trials = 200, 50_000

print(f"rates: {params}")
print(f"idle seen by an arrival: H0 {params.idle_probability(Hypothesis.H0):.4f}, "
      f"H1 {params.idle_probability(Hypothesis.H1):.4f}")
print()

for hyp in Hypothesis:
    obs = simulate_sequence(params, hyp, n, RngSeed(42, hyp.value))
    llr = log_likelihood_ratio(obs, params)
    verdict = decide(obs, params)
    print(f"truth {hyp.name}: busy fraction {obs.busy_fraction:.3f}, "
          f"llr {llr:+.3f}, decision {verdict['decision']}")

print()
exact = exact_error_probabilities(params, n)
mc = monte_carlo_error(params, n, 0.0, trials=trials, seed=RngSeed(42, 7))
print(f"exact: p_f {exact['p_f']:.5f}  p_m {exact['p_m']:.5f}  p_e {exact['p_e']:.5f}")
print(f"monte carlo ({trials} trials): p_f {mc['p_f']:.5f} (+-{mc['se_f']:.5f})  "
      f"p_m {mc['p_m']:.5f} (+-{mc['se_m']:.5f})")
