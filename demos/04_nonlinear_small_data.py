"""Small-data nonlinear run: conservation, admissibility and the weighted aggregate.

Integrates the momentum-form system with the ETDRK2 exponential integrator
(exact linear propagation, phi-weighted Duhamel quadrature) from a Gaussian
density bump and a divergence-form random momentum tensor.  Tracks the
weighted sup/maximal-regularity aggregate, whose boundedness is the
finite-horizon counterpart of the small-data global theory, and verifies
the structural conservation laws to machine precision.
"""

import warnings

from nsklab import Grid, NonlinearInitBlock, NonlinearScenario, critical_quadratic, make_params, run

params = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(0.5, 1.0))
grid = Grid(dim=3, box_len=8.0, n=16)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    results = {
        eps: run(
            NonlinearScenario(
                params=params,
                grid=grid,
                amplitude=eps,
                t_end=50.0,
                dt=0.1,
                seed=12,
                sample_every=10,
                init=NonlinearInitBlock(theta_width=1.6, m_envelope_width=1.6, m_smooth_width=1.2),
            )
        )
        for eps in (0.02, 0.04)
    }

base = results[0.02]
print(f"3d run on {grid.n}^3, T = 50, dt = 0.1, amplitude 0.02:")
print(f"  step rejections        {base.rejected}")
print(f"  admissible throughout  {base.admissible_throughout}  (rho*/4 <= rho <= 4 rho*)")
print(f"  mean-theta drift       {base.mass_drift:.3e}   (conserved bit for bit)")
print(f"  conjugate symmetry     {base.symmetry_defect:.3e}")
print("\n  aggregate weighted norm along the run:")
for t, v in zip(base.aggregate.times[::10], base.aggregate.values[::10]):
    print(f"    t = {t:6.1f}   N = {v:.5f}")
ratio = results[0.04].aggregate.values[-1] / base.aggregate.values[-1]
print(f"\n  doubling the data amplitude scales the aggregate by {ratio:.3f} (~2: linear response,")
print("  the quadratic nonlinearity stays subdominant below the smallness threshold).")
