"""Error types shared across the library, and the config-value checks that
raise them.

Every numerical failure carries the module, the operation and a short
statement of the violated contract, so a failing pipeline names the exact
property that broke instead of a bare linear-algebra traceback.
"""

import sys


class PlasmeigError(Exception):
    """Base class for all library errors."""

    def __init__(self, module, operation, contract, detail=""):
        self.module = module
        self.operation = operation
        self.contract = contract
        self.detail = detail
        msg = "%s.%s: %s" % (module, operation, detail or contract)
        if detail and contract:
            msg += " (contract: %s)" % contract
        super().__init__(msg)


class ConfigError(PlasmeigError):
    """Bad user input: malformed config, unknown keys, wrong types."""


class NumericalError(PlasmeigError):
    """A numerical contract was violated during a computation."""


class GeometryError(NumericalError):
    """Invalid geometry: non-positive radius, self-intersection, bad point."""


class PerturbationError(NumericalError):
    """A shape perturbation is invalid or leaves an operation's domain."""


class DegeneracyError(NumericalError):
    """A spectral map hit a pole or an eigenvalue cluster it cannot resolve."""


class SplittingError(NumericalError):
    """A degenerate eigenvalue was used without a diagonalizing basis."""


class ShapeMismatchError(NumericalError):
    """Grid shape and band limit are inconsistent."""


class EInfinitySignal(NumericalError):
    """The constant-interior branch (eigenvalue at infinity) was hit.

    Raised when an operation meets data whose interior extension is constant:
    the Rayleigh quotient denominator vanishes and no finite eigenvalue
    exists for that direction.
    """


def finite_number(value, key, module, operation):
    """A config value as a float; a ConfigError naming key when it is a
    JSON boolean, string, null, array or object, a NaN or infinity, or an
    integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(module, operation, "%s must be a finite number" % key,
                          "%s=%r" % (key, value))
    return float(value)


def finite_numbers(values, key, module, operation):
    """A config list of finite numbers as floats (see finite_number)."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(module, operation,
                          "%s must be a list of finite numbers" % key,
                          "%s=%r" % (key, values))
    return [finite_number(v, key, module, operation) for v in values]
