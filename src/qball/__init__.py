"""Numerical laboratory for charged Q-balls of the radial Klein-Gordon-Maxwell system.

Submodules:
  potential   scalar potentials W and admissibility certification
  fields      radial grid, gauge-invariant field states, energy and charge
  hylomorphy  explicit trial states, Coulomb estimates, coupling threshold
  solver      stationary profiles by shooting plus one coupled Newton, and by
              gradient flow
  dynamics    time evolution, conservation monitors, stability probes
  cli         batch driver (config parsing, sweeps, CSV artifacts)
"""

__version__ = "0.1.0"
