"""Exception types shared across the pipeline."""


class SemMapError(Exception):
    """Base class for all pipeline errors."""


class InvalidDepth(SemMapError):
    pass


class PixelOutOfBounds(SemMapError):
    pass


class EmptyCloud(SemMapError):
    pass


class NonFiniteCloud(SemMapError, ValueError):
    pass


class NonMonotonicFrame(SemMapError):
    pass


class UnknownKeyframe(SemMapError):
    pass


class ClassMismatch(SemMapError):
    pass


class PointBehindCamera(SemMapError):
    pass


class DegenerateConfiguration(SemMapError):
    pass


class NoConvergence(SemMapError):
    pass


class NegativeDt(SemMapError):
    pass


class ClockWentBackwards(SemMapError):
    pass


class FrameOutOfRange(SemMapError):
    pass


class ConfigError(SemMapError):
    pass


class ScenarioError(SemMapError):
    pass
