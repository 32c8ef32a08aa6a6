"""Wave propagation laboratory for a mixed finite element pair.

Velocity lives in elementwise-linear discontinuous 2-vectors, the surface
elevation in continuous quadratics, on doubly periodic triangulations of
the plane.  The package provides the discrete Helmholtz decomposition,
linear rotating shallow-water dynamics, and lattice dispersion analysis
for that pair.
"""

__version__ = "0.1.0"


class ParameterError(ValueError):
    """A caller's argument that a library function rejects, with the rule it breaks."""


class FormatError(ValueError):
    """A malformed input file, at a 1-based line; line 0 means the file ended early."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}: line {lineno}: {message}")
        self.path = path
        self.lineno = lineno
