"""Kaehler differentials of the three-point ring and their cohomology.

Omega^1_R = (R dt + R du) / (2u du - (2t+4) dt), and the quotient
H = Omega^1_R / dR is two-dimensional with basis

    w0 = class(t^-1 dt),    w1 = class(t^-1 u dt).

reduce_mod_dR computes the class of any one-form exactly by

    (i)   u du = (t+2) dt                      (module relation)
    (ii)  t^k du  == -k t^(k-1) u dt  mod dR   (from d(t^k u))
    (iii) t^k dt  == delta_{k,-1} w0           (from d(t^(k+1)))
    (iv)  (k+3) t^(k+1) u dt == -(4k+6) t^k u dt   mod dR

step (iv) walking the exponent toward -1 from either side; the degenerate
instance k = -3 forces class(t^-3 u dt) = 0, hence every exponent <= -3
vanishes.  The resulting coefficients class(t^j u dt) = lambda_j w1 are
signed Catalan numbers with two rational stragglers below zero:

    j       -3   -2    -1    0    1    2    3     4
    lambda   0   1/2    1   -1    2   -5   14   -42

The closed form for them is lambda_j = (-1)^(j+1) C_(j+1) for j >= -1,
with C_n = binom(2n, n) / (n+1) the Catalan numbers.
"""

import math

from .ring import RRingElem
from .scalars import QQ, Vec


class OneForm:
    """A one-form f dt + g du with f, g in R (before any reduction)."""

    __slots__ = ("ft", "fu")

    def __init__(self, ft=None, fu=None):
        self.ft = ft if ft is not None else RRingElem()
        self.fu = fu if fu is not None else RRingElem()

    def __add__(self, other):
        return OneForm(self.ft + other.ft, self.fu + other.fu)

    def __sub__(self, other):
        return OneForm(self.ft - other.ft, self.fu - other.fu)

    def rmul(self, r):
        """Left module action r * (f dt + g du)."""
        return OneForm(r * self.ft, r * self.fu)

    def __repr__(self):
        return "(%r) dt + (%r) du" % (self.ft, self.fu)


class CohomClass(Vec):
    """Element q0 * w0 + q1 * w1 of H = Omega^1_R / dR, on the keys "w0", "w1"."""

    __slots__ = ()

    def __init__(self, q0=0, q1=0):
        super().__init__({"w0": q0, "w1": q1})

    @property
    def q0(self):
        return self.terms.get("w0", 0)

    @property
    def q1(self):
        return self.terms.get("w1", 0)

    def __repr__(self):
        return "%s*w0 + %s*w1" % (self.q0, self.q1)


def differential(f):
    """d f as a OneForm: d(t^k) = k t^(k-1) dt, d(t^k u) = k t^(k-1) u dt + t^k du."""
    out = OneForm()
    for (k, uu), c in f.terms.items():
        out.ft.add_term((k - 1, uu), k * c)
        if uu:
            out.fu.add_term((k, 0), c)
    return out


def reduce_mod_dR(form):
    """Class of a one-form in H, as a CohomClass.

    Follows steps (i)-(iv) of the module docstring; all arithmetic exact.
    """
    # collect everything as coefficients of t^k dt and t^j u dt
    plain = Vec()   # k -> coeff of t^k dt
    ustem = Vec()   # j -> coeff of t^j u dt

    for (k, uu), c in form.ft.terms.items():
        (ustem if uu else plain).add_term(k, c)

    for (k, uu), c in form.fu.terms.items():
        if uu:
            # (i): t^k u du = t^(k+1) dt + 2 t^k dt
            plain.add_term(k + 1, c)
            plain.add_term(k, 2 * c)
        else:
            # (ii): t^k du == -k t^(k-1) u dt  mod dR
            ustem.add_term(k - 1, -k * c)

    # (iii)
    q0 = plain.terms.get(-1, 0)

    # (iv): walk each u-term exponent to -1
    q1 = 0
    for j, c in ustem.terms.items():
        while j > -1:
            # (j+2) t^j u dt == -(4j+2) t^(j-1) u dt
            c = c * QQ(-(4 * j + 2), j + 2)
            j -= 1
        while j < -1:
            if j == -3:
                c = 0
                break
            # (j+3) t^(j+1) u dt == -(4j+6) t^j u dt, read upward
            c = c * QQ(-(j + 3), 4 * j + 6)
            j += 1
        q1 += c

    return CohomClass(q0, q1)


def lambda_coeff(j):
    """lambda_j with class(t^j u dt) = lambda_j w1, in closed form: the
    signed Catalan number (-1)^(j+1) C_(j+1) for j >= -1, 1/2 at j = -2
    and 0 below.  An int wherever integral."""
    if j >= -1:
        catalan = math.comb(2 * j + 2, j + 1) // (j + 2)
        return -catalan if j % 2 == 0 else catalan
    return QQ(1, 2) if j == -2 else 0


def pairing(f, g):
    """class(f dg) in H — the cocycle pairing behind all central terms."""
    return reduce_mod_dR(differential(g).rmul(f))


def mu_oracle(m, n):
    """w1-coefficient of class(t^m d(t^n u)), computed through the
    reduction engine (no closed form)."""
    a = RRingElem.t_pow(m)
    b = RRingElem.monomial(n, 1)
    return pairing(a, b).q1
