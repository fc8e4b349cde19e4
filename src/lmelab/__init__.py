"""lmelab: numerical laboratory for a scale-dependent weighted branching
recursion of inverse participation ratios.

Subpackages are organized by what they compute:

* :mod:`lmelab.analytics` - closed-form exponents T(q), H(q), q_c, p*(q), h, d(q)
* :mod:`lmelab.theta` - exact law of the resonance mixing angle
* :mod:`lmelab.engine` - Monte Carlo pool evolution of the normalized ratio
* :mod:`lmelab.moments` - deterministic limiting integer moments
* :mod:`lmelab.laplace` - Laplace-transform iteration and stationary residual
* :mod:`lmelab.brw` - Gaussian branching random walk calibration suite
* :mod:`lmelab.chain` - renormalization flow on a periodic chain
* :mod:`lmelab.prbm` - power-law random band matrix ensemble
* :mod:`lmelab.harness` - config parsing
"""

__version__ = "0.1.0"
