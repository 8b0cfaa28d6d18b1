"""Exception types shared across the praf package."""


class PrafError(Exception):
    """Base class for all praf errors."""


class MissingFile(PrafError):
    """An input file does not exist."""


class IoFailure(PrafError):
    """A filesystem write or read failed."""


class MalformedCodebook(PrafError):
    """Codebook file is syntactically invalid or violates an invariant."""

    def __init__(self, message: str, locator: str | None = None):
        self.locator = locator
        super().__init__(f"{message} (at {locator})" if locator else message)


class CorruptCache(PrafError):
    """A cache entry exists but does not parse back into a document."""


class MalformedRules(PrafError):
    """Rule file is invalid: bad syntax, unknown dimension, or empty rule list."""


class EmptyAfterExtraction(PrafError):
    """HTML extraction produced no visible text."""


class NoSentences(PrafError):
    """Text contains no sentences; readability is undefined."""


class NonAlphabetic(PrafError):
    """Token passed to the syllable counter has no letters."""


class UnsupportedDimension(PrafError):
    """Dimension is handled by a different detector."""


class UnknownDimension(PrafError):
    """Annotation override names a dimension absent from the findings."""


class EmptyCorpus(PrafError):
    """Summary statistics need at least one profile."""
