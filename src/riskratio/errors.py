"""Exception hierarchy shared by all riskratio modules."""


class RiskRatioError(Exception):
    """Base class for all errors raised by this package."""


class DataError(RiskRatioError):
    """Invalid input data (non-numeric cells, bad outcome values, ...)."""


class UnknownColumn(DataError):
    def __init__(self, name):
        super().__init__(f"column {name!r} not found in dataset")
        self.name = name


class DegenerateColumn(DataError):
    def __init__(self, name):
        super().__init__(f"column {name!r} is constant and cannot enter the model")
        self.name = name


class NonIncreasingKnots(DataError):
    def __init__(self, knots):
        super().__init__("spline knots must be strictly increasing, got "
                         f"{[float(k) for k in knots]}")
        self.knots = knots


class SpecParseError(RiskRatioError):
    """Model specification string could not be parsed."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NonConvergence(RiskRatioError):
    def __init__(self, iterations, last_max_abs_score):
        super().__init__(
            f"solver did not converge after {iterations} iterations "
            f"(max |score| = {last_max_abs_score:.3e})"
        )
        self.iterations = iterations
        self.last_max_abs_score = last_max_abs_score


class SingularJacobian(RiskRatioError):
    def __init__(self, condition_estimate):
        super().__init__(
            f"estimating-equation Jacobian is numerically singular "
            f"(condition estimate {condition_estimate:.3e})"
        )
        self.condition_estimate = condition_estimate


class NoFiniteSolution(RiskRatioError):
    """The estimating equations have no finite root for this outcome."""


class SingularBread(RiskRatioError):
    """Bread matrix of the sandwich covariance is not invertible."""


class Overflow(RiskRatioError):
    """Linear predictor overflowed even after exhausting step halving."""


class InfeasiblePoint(RiskRatioError):
    """Log-binomial likelihood evaluated where some x_i'beta > 0."""


class NoFeasibleStart(RiskRatioError):
    """No strictly feasible starting point found for the barrier method."""


class FitFailed(RiskRatioError):
    """A log-binomial fit did not converge or has no usable covariance."""


class NonFiniteStandardization(RiskRatioError):
    """Overflow while standardizing fitted means over the sample."""


class TooManyFailures(RiskRatioError):
    def __init__(self, failed, total):
        super().__init__(f"{failed}/{total} bootstrap resamples failed to fit")
        self.failed = failed
        self.total = total


class AllReplicationsFailed(RiskRatioError):
    """Every replication of a simulation study failed."""


class ConfigError(RiskRatioError):
    """Invalid study configuration or command-line option value.

    ``detail`` is the message without the ``config key`` prefix, for a
    caller that names the value another way (a command-line option)."""

    def __init__(self, message, key=None):
        self.detail = message
        if key is not None:
            message = f"config key {key!r}: {message}"
        super().__init__(message)
        self.key = key
