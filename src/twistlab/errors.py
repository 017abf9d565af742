"""Error types shared across the package."""


class TwistlabError(Exception):
    pass


class NotNilpotent(TwistlabError):
    """A finite series was requested for a matrix that is not nilpotent."""


class IndexOutOfRange(TwistlabError, ValueError):
    """Generator index outside [1, N]."""


class DimensionMismatch(TwistlabError, ValueError):
    """Operands live in spaces of different dimension."""


class NotApplicable(TwistlabError):
    """The requested check is undefined at this rank (e.g. needs N > 5)."""


class ConfigInvalid(TwistlabError, ValueError):
    """Suite configuration rejected before any check ran."""
