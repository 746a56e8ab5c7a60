"""horolab: numerical experiments on horocycle equidistribution.

Fractal measures with exact Fourier transforms, fundamental-domain
geometry, Eisenstein-series diagnostics, Khintchine-type counting, and
stationary-phase asymptotics, glued into reproducible decay experiments.
Each public name is imported from the module that defines it.
"""

from . import automorphic, diophantine, experiments, fitting, measures, modular, oscillatory, testfunctions

__version__ = "0.1.0"
