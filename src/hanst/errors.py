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


class EmbeddingFormatError(HanstError):
    code = "embedding-format"


class CorpusFormatError(HanstError):
    code = "corpus-format"


class CheckpointMismatchError(HanstError):
    code = "checkpoint-mismatch"


class TrainingAbortedError(HanstError):
    code = "training-aborted"


class WorkerDiedError(HanstError):
    code = "worker-died"


class OutputExistsError(HanstError):
    code = "output-exists"


class TextDecodeError(HanstError):
    code = "io-error"
