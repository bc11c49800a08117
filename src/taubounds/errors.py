"""Exception and warning types shared across the package, and the helper
that issues its warnings."""

import sys
import warnings


class TauBoundsError(Exception):
    """Base class for all errors raised by taubounds."""


class DomainError(TauBoundsError, ValueError):
    """An argument lies outside its mathematical domain."""


class TieError(TauBoundsError, ValueError):
    """Tied values in a coordinate where continuous (tie-free) data is required."""

    def __init__(self, coordinate: str, value: float):
        self.coordinate = coordinate
        self.value = value
        super().__init__(f"tied values in {coordinate} (value {value!r}); "
                         "the concordance estimate requires tie-free data")


class InvalidSummaryError(TauBoundsError, ValueError):
    """A distribution summary violates its internal consistency rules."""


class MarginTableError(TauBoundsError, ValueError):
    """A user-supplied CDF table is malformed or does not cover the data."""


class UnsupportedAnalysisError(TauBoundsError, ValueError):
    """A requested analysis combination is undefined (e.g. theta with unknown margins)."""


class EmptyDataError(TauBoundsError, ValueError):
    """No observation records were supplied."""


class CsvFormatError(TauBoundsError, ValueError):
    """A CSV input row could not be parsed."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class TiedDataWarning(UserWarning):
    """Observed values contain ties; the model assumes continuous data.

    Analysis proceeds (the bound formulas only need CDF values), but exact
    ties are incompatible with the continuity assumption and usually come
    from rounding.
    """


def _warn(message: str, category: type[Warning]) -> None:
    """Issue a warning attributed to the first caller outside the package.

    Python shows a warning once per code location, so a warning attributed
    to a package line would show once however many call sites reach it.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and \
            frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
