"""Viscosity-solution toolkit for fully nonlinear subelliptic PDE on the Heisenberg group.

Layout:

- ``core``        group arithmetic, gauge metric, frame coefficients on flat coordinate arrays
- ``fields``      analytic scalar fields (parsed expressions, exact jets over point batches) and grid fields
- ``operators``   the frame contraction and gradient term, the operator family, conformal variants, structural checks
- ``cones``       admissible eigenvalue cones; classification of matrix stacks; axiom sampler
- ``envelopes``   gauge-quartic sup/inf convolutions with witnesses
- ``viscosity``   the lattice scheme (F, rho, band, Jacobian), grid sub/supersolution classification, envelope-shift certificate
- ``comparison``  strictness perturbations and the touching-point harness
- ``perron``      semismooth Newton solve between sub- and supersolution data
- ``gridio``      grid, witness, classification and residuals CSV; every JSON the program reads or writes
- ``suites``      packaged seeded verification suites
- ``cli``         command-line front end
"""

from . import (
    core,
    fields,
    operators,
    cones,
    envelopes,
    viscosity,
    comparison,
    perron,
    gridio,
    suites,
    cli,
)

__all__ = [
    "core",
    "fields",
    "operators",
    "cones",
    "envelopes",
    "viscosity",
    "comparison",
    "perron",
    "gridio",
    "suites",
    "cli",
]

__version__ = "0.1.0"
