"""Exception types shared across the package.

Every error carries a stable kebab-case ``code`` so the CLI can emit a
single machine-parsable line per failure.
"""


class HanstError(Exception):
    code = "error"


class ShapeMismatchError(HanstError):
    code = "shape-mismatch"


class DegenerateInputError(HanstError):
    code = "degenerate-input"


class NonScalarLossError(HanstError):
    code = "non-scalar-loss"


class NonFiniteGradientError(HanstError):
    code = "non-finite-gradient"


class ConfigurationError(HanstError):
    code = "config-error"


class UndefinedMetricError(HanstError):
    code = "undefined-metric"


class UndefinedTestError(HanstError):
    code = "undefined-test"


class AlignmentError(HanstError):
    code = "alignment-error"


class _LineFormatError(HanstError):
    """Format error in a line-oriented file; renders the offending line."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class EmbeddingFormatError(_LineFormatError):
    code = "embedding-format"


class CorpusFormatError(_LineFormatError):
    code = "corpus-format"


class CheckpointMismatchError(HanstError):
    code = "checkpoint-mismatch"


class TrainingAbortedError(HanstError):
    code = "training-aborted"


class OutputExistsError(HanstError):
    code = "output-exists"


class TextDecodeError(HanstError):
    code = "io-error"
