"""How much electrostatic repulsion can a soliton carry before unbinding?

Large balls of field are ever cheaper per unit charge, but charging them
costs Coulomb energy that grows faster with radius.  This script sweeps
explicit trial states to watch the two effects compete, calibrates the
closed-form bound on the energy-to-charge ratio, and computes the
largest coupling at which some trial state still beats the mass.  Every
ratio is a closed-form integral of the trial state, exactly quadratic in
the coupling, so no grid is involved; r_max only caps the trial radii.
"""

from qball.hylomorphy import q_threshold, ratio_sweep
from qball.potential import default_potential, hylomorphy_constants

spec = default_potential()
r_max = 40.0
alpha, s_bar = hylomorphy_constants(spec)

print(f"trial states: plateau s_bar = {s_bar:g} up to radius R, "
      f"rotation rate alpha = {alpha:g}\n")
for q in (0.0, 0.05, 0.2):
    rows = ratio_sweep(spec, q, r_max)
    line = "  ".join(f"R={R:<4g} {ratio:6.3f}" for R, ratio in rows)
    best = min(r for _, r in rows)
    tag = "bound" if best < spec.m else "unbound"
    print(f"q = {q:<5g} E/|C|: {line}   -> best {best:.3f} ({tag})")

print("\nuncharged, bigger is always better; with charge, the Coulomb")
print("cost grows like R^5 and flips the verdict at large R.\n")

report = q_threshold(spec, r_max)
print(f"closed-form coupling threshold: q_bar_est = {report.q_bar_est:.4f}")
print(f"  best ratio there {report.best_ratio:.4f} at R = {report.best_R:g}")
print(f"  calibrated constants c1 = {report.c1:.4f}, c6 = {report.c6:.4f}")
print(f"  closed-form scale (c/s_bar) sqrt((m-alpha)^3 alpha) = "
      f"{report.analytic_scale:.4f}")
print("\nbelow q_bar_est some trial state is hylomorphic, so a bound")
print("minimizer exists; the analytic scale tracks the closed-form value.")
