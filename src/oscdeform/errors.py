"""Exception taxonomy shared across the package.

Everything raised on purpose derives from OscdeformError so callers (and the
CLI) can tell library conditions apart from programming errors.
"""


class OscdeformError(Exception):
    """Base class for all library-specific errors."""


# --- expression DSL -------------------------------------------------------

class ExprSyntaxError(OscdeformError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (offset %d)" % (message, offset))
        self.offset = offset


class UnknownFunctionError(ExprSyntaxError):
    """A call to a function name that is not part of the DSL."""


class UnboundNameError(OscdeformError):
    """An expression uses a name with no binding: a parameter left free, or
    a variable outside the ones allowed where the expression is used."""

    def __init__(self, name, allowed=None):
        message = "unbound name: %s" % name
        if allowed is not None:
            message += " (this expression may use only %s)" % ", ".join(allowed)
        super().__init__(message)
        self.name = name


class EvalDomainError(OscdeformError):
    """Evaluation left the real domain (log of non-positive, division by
    zero, fractional power of a negative base, overflow...)."""


# --- deformation machinery -------------------------------------------------

class CotangentPole(OscdeformError):
    """First-integral evaluation too close to sin(omega*t + alpha) = 0."""


class SingularCoefficient(OscdeformError):
    """The generated equation cannot be solved for the acceleration here."""


class ZeroDenominator(OscdeformError):
    """Phase function undefined: (v+f)^2 + omega^2 (x+g)^2 = 0."""


class DegenerateParameters(OscdeformError):
    """Parameter combination outside the family (e.g. b = omega or b = 0)."""


# --- catalog ---------------------------------------------------------------

class PoleInRange(OscdeformError):
    """A quadrature interval contains a cotangent pole with an unbounded
    integrand."""


class BranchViolation(OscdeformError):
    """A bracket raised to a fractional power crossed zero."""


class BracketZero(BranchViolation):
    """The power-law bracket (the travelling-wave denominator at n = 2)
    vanished."""


class SeriesDivergence(OscdeformError):
    """Hypergeometric-path evaluation requested too close to |z| = 1."""


class NoConvergence(OscdeformError):
    """Series did not reach the requested tolerance within the term budget."""


class NoRealRoot(OscdeformError):
    """An implicit solution has no real root in the admissible range."""


class NonSmoothPoint(OscdeformError):
    """Requested a derivative at a point where the solution is not C^1."""


# --- numerics --------------------------------------------------------------

class NoSignChange(OscdeformError):
    """Root bracket end values do not have strictly opposite signs (the
    same sign, or one of them is NaN)."""


class ImplicitNoRoot(OscdeformError):
    """An implicit relation has no root near the starting guess: Newton
    stalled and no bracket around the guess changes sign."""


class StepSizeUnderflow(OscdeformError):
    """Integrator step control collapsed (pole or singular coefficient)."""


class NonFiniteState(OscdeformError):
    """Integration produced a non-finite state."""


# --- applications ----------------------------------------------------------

class DomainViolation(OscdeformError):
    """Evaluation outside the stated domain (e.g. u + g(u) vanished)."""


class NegativeAlpha(OscdeformError):
    """Beam deformation requires a positive nonlinearity coefficient."""


class ApproxOutOfRegime(OscdeformError):
    """Approximate beam solution requested outside beta = 2*alpha/3."""
