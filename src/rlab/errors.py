"""Exception types shared across the library."""


class RlabError(Exception):
    pass


class LengthMismatch(RlabError):
    pass


class LevelCapExceeded(RlabError):
    pass


class LevelTooLow(RlabError):
    pass


class NotPowerOfTwo(RlabError):
    pass


class InvalidSpec(RlabError):
    pass


class UnsupportedDual(RlabError):
    pass


class NonPositiveWeight(RlabError):
    pass


class DivisionByZero(RlabError):
    pass


class TooManyCoefficients(RlabError):
    pass


class GrowthConditionViolated(RlabError):
    pass


class BlockTooSmall(RlabError):
    pass


class SchemaMismatch(RlabError):
    pass
