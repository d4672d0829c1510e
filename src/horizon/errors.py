"""Exception types shared across the package.

The CLI maps these onto process exit codes; see horizon.cli.
"""


class HorizonError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(HorizonError):
    """Malformed input: bad JSON, bad schema, bad parameter combination."""


class DomainEscapeError(HorizonError):
    """A trajectory left the configured state bound during integration."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class ConvergenceError(HorizonError):
    """An iterative solve stopped without meeting its tolerance."""


class ChartRadiusError(ConvergenceError):
    """Target outside the working radius of a steering chart."""


class AdmissibilityError(HorizonError):
    """Requested integrability exponent p is outside the admissible range."""


class UnsupportedStepError(HorizonError):
    """Drift steering requested on a system needing bracket depth > 2."""


class UnsupportedRepresentationError(HorizonError):
    """The system has no form the operation needs (a non-polynomial field in JSON)."""


class NotBracketGeneratingError(HorizonError):
    """Bracket search exhausted max_depth without spanning the tangent space."""


class SingularFiberError(HorizonError):
    """Fiber projection requested at a point where the differential drops rank."""
