"""Exception types shared across the toolkit."""


class LidarEdgeError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(LidarEdgeError):
    """Shapes of arrays or kernels are incompatible."""


class ParameterError(LidarEdgeError):
    """A numeric parameter is outside its allowed range; fields names the
    parameters the refused rule reads (the config maps them to its keys)."""

    def __init__(self, message: str, fields: tuple = ()):
        super().__init__(message)
        self.fields = fields


class ConfigError(LidarEdgeError):
    """Invalid configuration document or option."""


class MissingInputError(LidarEdgeError):
    """A dataset or input file that a command reads does not exist."""


class ModelLoadError(LidarEdgeError):
    """Base class for model-file deserialization failures."""


class MagicError(ModelLoadError):
    """Model file does not start with the expected magic bytes."""


class VersionError(ModelLoadError):
    """Model file declares an unsupported format version."""


class TruncationError(ModelLoadError):
    """Model file ends before all declared payload bytes."""


class CorruptModelError(ModelLoadError):
    """Model file payload fails its integrity check."""


class DivergenceError(LidarEdgeError):
    """Training produced a non-finite loss."""
