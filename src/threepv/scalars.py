"""One place for scalar policy: `int` while integral, `QQ` otherwise.

Every quantity in this package is an exact rational number; there is no
floating point anywhere in the math path.  gmpy2's mpq is used when
available (arbitrary-precision, much faster), with fractions.Fraction as
a drop-in fallback.

Coefficients on the Fock path pass through qq: an integral value is kept
as a Python int, whose arithmetic and hashing cost far less than either
rational type's, and only a non-integral value (a rational kappa0 or B1
entry, say) stays QQ.  An int compares and hashes equal to the same QQ
and prints the same way, so the choice never shows in a report.
"""

try:
    from gmpy2 import mpq as QQ
    _BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ
    _BACKEND = "fractions"


def qq(x):
    """x as an int when integral, else as QQ."""
    if type(x) is int:
        return x
    if not isinstance(x, QQ):
        x = QQ(x)
    return int(x.numerator) if x.denominator == 1 else x


def rat(p, q=1):
    """Build the exact rational p/q."""
    return QQ(p, q)


def parse_rat(s):
    """Parse 'p' or 'p/q' into an exact rational.

    >>> parse_rat('-3/2') == rat(-3, 2)
    True
    """
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return QQ(int(p), int(q))
    return QQ(int(s))


def rat_str(x):
    """Serialize a rational as 'p' or 'p/q' (never a float)."""
    # both mpq and Fraction print this way already
    return str(QQ(x))


def binom(m, j):
    """Binomial coefficient binom(m, j) for integer m (possibly negative),
    integer j >= 0, as an exact int."""
    if j < 0:
        return 0
    num = 1
    for i in range(j):
        num *= m - i
    den = 1
    for i in range(2, j + 1):
        den *= i
    return num // den
