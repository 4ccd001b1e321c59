"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: ConfigurationError -> 2, everything
else that is an assertion-style failure -> 1.

Numerics diagnostics are raised where found as SemiphaseWarning; an
experiment run lists each one raised during the run in its manifest.
"""


class SemiphaseError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SemiphaseError):
    """Bad user input: invalid grid sizes, parameters out of range,
    domains that cannot hold the requested state."""


class ShapeMismatchError(SemiphaseError):
    """Array length or grid incompatibility between arguments."""


class RepresentationError(SemiphaseError):
    """Operation applied to an unsupported phase-space representation
    (e.g. asking an atomic measure for its sup norm)."""


class NumericsError(SemiphaseError):
    """Runtime numerical failure: NaN detected, iteration that refuses
    to converge, a distance that should be positive coming out zero."""


class SemiphaseWarning(UserWarning):
    """A numerics diagnostic that does not stop the computation."""
