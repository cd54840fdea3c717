"""Fit the empirical error decay rate and compare it to the exponent.

Runs a campaign of exact error evaluations over a grid of observation
window lengths, fits log p_e against n, and compares the fitted slope to
the negative Chernoff exponent.  The finite-n slope overshoots slightly
because of the sub-exponential prefactor.
"""

from covertq import CampaignConfig, ModelParams, RngSeed, i_err_closed, run_campaign

params = ModelParams(0.3, 0.2, 1.0)
cfg = CampaignConfig(
    params=params,
    n_grid=tuple(range(100, 2001, 100)),
    trials_per_point=1000,
    master_seed=RngSeed(2024),
)
result = run_campaign(cfg)

print("n      p_f          p_m          p_e")
for row in result["rows"][::4]:
    print(f"{row['n']:<6d} {row['p_f']:.6e} {row['p_m']:.6e} {row['p_e']:.6e}")

i_err = i_err_closed(params)
print()
print(f"fitted slope of log p_e : {result['fitted_slope_e']:+.6f}")
print(f"negative exponent -I_err: {-i_err:+.6f}")
print(f"relative gap            : {abs(result['fitted_slope_e'] + i_err) / i_err:.1%}")
print(f"slope under H0 fit {result['fitted_slope_f']:+.6f}, "
      f"under H1 fit {result['fitted_slope_m']:+.6f} (equalized at zero threshold)")
