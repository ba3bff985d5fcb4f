"""Exception types shared across the library."""


class MacaulayLibError(Exception):
    """Base class for all library errors."""


class PosetError(MacaulayLibError):
    """Invalid poset construction or poset argument."""


class OrderError(MacaulayLibError):
    """Invalid order construction or order argument."""


class RingError(MacaulayLibError):
    """Invalid ring specification or a failed ring build."""


class ResourceLimitError(MacaulayLibError):
    """A configured resource cap was exceeded."""


class SearchBudgetExceeded(MacaulayLibError):
    """Order search exhausted its node budget before reaching a verdict."""


EXCERPT_CHARS = 100


def excerpt(value) -> str:
    """repr(value) with its middle cut out past EXCERPT_CHARS characters, so a
    refusal that echoes its input stays one short line."""
    text, half = repr(value), (EXCERPT_CHARS - 3) // 2
    return text if len(text) <= EXCERPT_CHARS else f"{text[:half]}...{text[-half:]}"
