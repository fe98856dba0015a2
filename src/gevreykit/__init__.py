"""gevrey-kit: computable machinery for extended Gevrey regularity.

The kit evaluates and audits the two-parameter defining sequences
p^{tau p^sigma}, enumerates multi-index decompositions, computes
derivatives of compositions via the generalized higher-order chain rule
(cross-checked against an independent truncated-jet oracle), fits
regularity indices from derivative and Fourier-decay data, tests
wave-front membership on sampled fields, and constructs the
reduction-operator Neumann sums used for approximate solutions of
variable-coefficient operators, verifying their growth bounds.
"""

__version__ = "0.1.0"

from .numerics import log_factorial, multinomial

__all__ = [
    "log_factorial",
    "multinomial",
    "__version__",
]
