"""divsum: regularized sums of divergent power series.

Exact closed forms for 1^k + 2^k + 3^k + ... and 1^k - 2^k + 3^k - ...
obtained from derivatives of e^{it} / (1 + e^{it})^2, with independent
Bernoulli/zeta oracles, a numerical realization of the underlying periodic
distributions (finite-part kernel, derivative-of-delta comb, mollified
limits, Fourier coefficients), and the 1-D Casimir toy model.
"""

__version__ = "0.1.0"
