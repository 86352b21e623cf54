"""One place for scalar policy: `int` while integral, `QQ` otherwise.

Every quantity in this package is an exact rational number; there is no
floating point anywhere in the math path.  gmpy2's mpq is used when
available (arbitrary-precision, much faster), with fractions.Fraction as
a drop-in fallback.

Coefficients on the Fock path pass through qq at its edges: an integral
value is kept as a Python int, whose arithmetic and hashing cost far less
than either rational type's, and only a non-integral value (a rational
kappa0 or B1 entry, say) stays QQ.  An int compares and hashes equal to
the same QQ and prints the same way, so the choice never shows in a
report.  Inside the Fock kernel each operator keeps its coefficients as
ints over one denominator (fock.ModeOp.den), so a rational weight such as
1/(2 kappa0) costs no QQ arithmetic per term; results are divided back
through qq on the way out.

Vec is the one exact sparse vector under every layer: ring elements,
brackets, density-module vectors and Fock states are all finite
combinations {key: coefficient} with no zero stored and every coefficient
canonical under qq.
"""

import math

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ


def qq(x):
    """x as an int when integral, else as QQ; a float is refused."""
    if type(x) is int:
        return x
    if not isinstance(x, QQ):
        if isinstance(x, float):
            raise TypeError("float %r in the exact math path" % (x,))
        x = QQ(x)
    return int(x.numerator) if x.denominator == 1 else x


class Vec:
    """Finite exact combination {key: coefficient}, no zero stored.

    Every coefficient goes through qq; arithmetic returns type(self), so a
    subclass (FockState, RRingElem) inherits it and adds only what differs.
    The default rendering, for keys (family, mode), is the sorted sum of
    'c*family_mode' terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = qq(c)
                if c:
                    self.terms[key] = c

    def _new(self, terms):
        out = type(self)()
        out.terms = terms
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def add_term(self, key, c):
        """Add c to the coefficient of key in place, dropping a zero."""
        s = qq(self.terms.get(key, 0) + c)
        if s:
            self.terms[key] = s
        else:
            self.terms.pop(key, None)

    def __add__(self, other):
        out = self._new(dict(self.terms))
        for key, c in other.terms.items():
            out.add_term(key, c)
        return out

    def __sub__(self, other):
        out = self._new(dict(self.terms))
        for key, c in other.terms.items():
            out.add_term(key, -c)
        return out

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def scale(self, c):
        c = qq(c)
        if not c:
            return self._new({})
        return self._new({key: qq(c * v) for key, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*%s_%s" % (self.terms[k], k[0], k[1])
                          for k in sorted(self.terms))


def parse_rat(s):
    """Parse 'p' or 'p/q' into an exact rational.

    >>> parse_rat('-3/2') == QQ(-3, 2)
    True
    """
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        if not int(q):
            raise ValueError("zero denominator in %r" % (s,))
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
    if m >= 0:
        return math.comb(m, j)
    return (-1) ** j * math.comb(j - m - 1, j)
