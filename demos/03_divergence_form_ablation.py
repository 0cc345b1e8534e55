"""What the divergence-form condition buys: a paired decay ablation.

Two momentum fields with identical spectral energy drive the linear flow:
one built as Div of a tensor kernel (spectrum vanishing linearly at xi = 0),
one generic.  The low-band theta response of the generic run decays half a
power slower; the gap in the fitted slopes quantifies the degeneracy of the
(lambda_+ - lambda_-) ~ |xi|^2 denominator that the divergence structure
cancels.
"""

import numpy as np

from nsklab import (
    Grid,
    critical_quadratic,
    default_cutoff,
    fit_decay,
    make_params,
    riesz_momentum_pair,
    theta_low_band_series,
)

params = make_params(1.0, 0.8, 0.7875, 1.0, critical_quadratic(1.0, 1.0))
grid = Grid(dim=2, box_len=96.0, n=128)
pair = riesz_momentum_pair(grid, 1.0, 0.98 * grid.box_len / 4, rng=np.random.default_rng(42), amplitude=1.0)

times = np.geomspace(3.5, 65.0, 20)
window = (5.0, 50.0)
cutoff = default_cutoff(grid)
reports = []
for data in pair:
    meas = theta_low_band_series(data, params, times, cutoff, np.inf)
    reports.append(fit_decay(meas.series, window, dim=2, p=np.inf, q=2, j=0, trust_ok=meas.trust_ok(window, "edge_leak")))
d, g = reports
gap = g.fitted_exponent - d.fitted_exponent

print("low-band theta decay, matched spectral energy:")
print(f"  divergence-form momentum: fitted {d.fitted_exponent:+.4f} (predicted {d.predicted_exponent:+.2f}, verdict {d.verdict})")
print(f"  generic momentum:         fitted {g.fitted_exponent:+.4f}")
print(f"  gap (generic - divergence): {gap:+.4f}  -- continuum value is +0.5")
print()
print("the generic run decays strictly slower; only the divergence-form data")
print("attains the theorem rate, which is exactly why the global theory needs m0 = Div M0.")
