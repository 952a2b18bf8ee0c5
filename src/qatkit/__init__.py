"""Quantization-aware-training optimization toolkit.

Library layers, bottom to top: seeded generators and dense-matrix helpers
(``numerics``), the Walsh-Hadamard rotation (``transform``), quantizers
with exact error decomposition (``quantize``), trust-masked straight-through
transport (``qat_grad``), optimizer steps with the error-correction family
(``optim``), analytic test objectives (``objectives``), stationarity
diagnostics (``pareto``), the capacity scaling-law fit (``scaling``), and the
experiment lanes plus CLI (``experiments``, ``cli``).

The package root exports nothing: import from the submodules, e.g.
``from qatkit.quantize import quantize``.
"""

__version__ = "0.1.0"
