"""Cretin / minikin proxy: non-LTE atomic kinetics (§4.3).

Cretin "solves a system of rate equations to compute populations of
various atomic configurations ... The main computation calculates
transition rates between pairs of states, forms a rate matrix from
them, and inverts that matrix to update the populations", then derives
frequency-dependent opacities.  minikin is the mini-app with "versions
of each of the rate calculations".

- :mod:`repro.kinetics.atomicmodel` — screened-hydrogenic-flavored
  synthetic atomic models at the paper's four size classes
  (S/M/L/XL), with energies, degeneracies and oscillator strengths.
- :mod:`repro.kinetics.rates` — the transition-rate kernels
  (collisional excitation/deexcitation via detailed balance, radiative
  decay), each a differently-shaped parallelization problem, exactly
  as the paper notes ("each type posed a different parallelization
  issue").
- :mod:`repro.kinetics.ratematrix` — rate-matrix assembly, steady-
  state population solves (dense LU, the cuSOLVER proxy) and
  Boltzmann-limit validation.
- :mod:`repro.kinetics.minikin` — the mini-app: per-zone population
  solves and the node-throughput model of the two threading
  strategies (CPU thread-per-zone with private-memory pressure vs GPU
  thread-per-transition needing one zone resident) that reproduces
  the 5.75X headline.
"""

from repro.kinetics.atomicmodel import MODEL_SIZES, AtomicModel, make_model
from repro.kinetics.rates import (
    collisional_excitation,
    collisional_deexcitation,
    radiative_decay,
)
from repro.kinetics.ratematrix import (
    assemble_rate_matrix,
    boltzmann_populations,
    steady_state_populations,
)
from repro.kinetics.minikin import Minikin, Zone, node_throughput

__all__ = [
    "AtomicModel",
    "MODEL_SIZES",
    "make_model",
    "collisional_excitation",
    "collisional_deexcitation",
    "radiative_decay",
    "assemble_rate_matrix",
    "steady_state_populations",
    "boltzmann_populations",
    "Minikin",
    "Zone",
    "node_throughput",
]
