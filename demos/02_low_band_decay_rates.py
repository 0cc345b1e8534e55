"""Low-band decay of the linear flow with divergence-form momentum data.

Because the pressure term degenerates at the critical state, the low-band
theta response to generic momentum data carries a 1/|xi| amplification; the
divergence structure m0 = Div M0 supplies an extra factor |xi| that cancels
it and restores heat-like decay.  Here we measure the pair sup norm of the
low band on a 2d box (predicted rate -(N/2)(1/2) = -0.5 at N=2 for
(p, q, j) = (inf, 2, 0)) and write the log-log curve next to the predicted
slope.  The same machinery at N=3, 128^3 is what the acceptance suite runs.
"""

from pathlib import Path

import numpy as np

from nsklab import (
    Grid,
    critical_quadratic,
    fit_decay,
    make_params,
    measure_semigroup_decay,
    riesz_momentum_pair,
)
from nsklab.svgplot import loglog_svg

params = make_params(1.0, 0.8, 0.7875, 1.0, critical_quadratic(1.0, 1.0))
grid = Grid(dim=2, box_len=96.0, n=128)
data = next(riesz_momentum_pair(grid, 1.0, 0.98 * grid.box_len / 4, rng=np.random.default_rng(42), amplitude=1.0))

times = np.geomspace(3.5, 65.0, 20)
window = (5.0, 50.0)
meas = measure_semigroup_decay(data, params, times, band="low", p=np.inf, j=0)
rep = fit_decay(
    meas.series, window, dim=2, p=np.inf, q=2, j=0,
    trust_ok=meas.trust_ok(window, "edge_leak"),
)

print(f"low-band pair sup norm, divergence-form data on {grid.n}^2, L = {grid.box_len}")
print(f"  fitted exponent    {rep.fitted_exponent:+.4f}")
print(f"  predicted exponent {rep.predicted_exponent:+.4f}  (tolerance {rep.tol_exp})")
print(f"  wrap-around trust  {rep.trust_window_ok} (edge leakage guard)")
print(f"  verdict            {'PASS' if rep.verdict else 'FAIL'}")

out = Path("out/demo02")
out.mkdir(parents=True, exist_ok=True)
svg = loglog_svg(
    meas.series.times,
    meas.series.values,
    title=f"low band: fitted {rep.fitted_exponent:+.3f} vs predicted {rep.predicted_exponent:+.3f}",
    guide_slope=rep.predicted_exponent,
    guide_label=f"guide {rep.predicted_exponent:+.2f}",
)
(out / "low_band_decay.svg").write_text(svg)
print(f"\nwrote {out / 'low_band_decay.svg'}")
