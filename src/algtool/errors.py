"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
``{code, message}`` payloads without string matching.
"""


class AlgtoolError(Exception):
    code = "error"


class InputError(AlgtoolError, ValueError):
    """Malformed input: wrong parameter count, unknown name, unparsable value."""

    code = "input"


class ModulusError(AlgtoolError, ValueError):
    """Modulus is not an odd prime, or two values live over different primes."""

    code = "modulus"


class RingMismatchError(AlgtoolError, ValueError):
    """Polynomial operands over different rings (variable tuples), or a
    coefficient or scalar that is not an int, Fraction, float or complex
    (a Cyclotomic included), or an exact division with a float or complex
    coefficient."""

    code = "ring-mismatch"


class ArityError(AlgtoolError, ValueError):
    """Wrong number of coordinates / variables for the requested operation."""

    code = "arity"


class ResourceLimitError(AlgtoolError, RuntimeError):
    """A request above a size limit: a degreewise computation past the cell
    cap, a catalog family with more relations than the cap, a sample count
    above `clifford.MAX_SAMPLES`, or an out-of-memory run."""

    code = "resource"


class StabilityError(AlgtoolError, ValueError):
    """Relation space is not stable under the requested group action."""

    code = "stability"


class PoleError(AlgtoolError, ArithmeticError):
    """Denominator vanishes while the numerator does not."""

    code = "pole"


class IndeterminateError(AlgtoolError, ArithmeticError):
    """0/0 parameter value; the caller hit a singular parameter."""

    code = "indeterminate"


class ConditioningError(AlgtoolError, RuntimeError):
    """Numeric factorization inconsistent with the stated rank."""

    code = "conditioning"


class SamplingError(AlgtoolError, RuntimeError):
    """Root finding / point sampling failed after the configured retries."""

    code = "sampling"
