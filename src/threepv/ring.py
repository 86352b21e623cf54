"""Exact arithmetic in the three-point coordinate ring and its derivations.

The ring is R = C[t, t^-1, u | u^2 = t^2 + 4t] over exact rationals.
Elements are scalars.Vec combinations {(tpow, upow): coeff} with upow in
{0, 1}; every product reduces u^2 via u^2 = t^2 + 4t = P(t).

Der(R) is free of rank one over R, generated by

    D = (t + 2) d/du + u d/dt,

so a derivation c D is handled as its coefficient c, an RRingElem.  Der(R)
carries the Witt-type basis d_n = t^n u D, d1_n = t^n D.  The geometric
bracket of coefficient derivations is

    [a D, b D] = (a D(b) - b D(a)) D,

decomposed over the basis as a Vec {(kind, mode): coeff}.
"""

from .scalars import Vec


class RRingElem(Vec):
    """Element of R = C[t, t^-1, u | u^2 = t^2+4t], stored sparsely.

    self.terms maps (tpow, upow) -> coefficient, upow in {0, 1}.

    Example: u*u gives {(2, 0): 1, (1, 0): 4}, i.e. t^2 + 4t.
    """

    __slots__ = ()

    @staticmethod
    def monomial(tpow, upow, coeff=1):
        return RRingElem({(tpow, upow): coeff})

    @staticmethod
    def t_pow(k):
        return RRingElem.monomial(k, 0)

    def __mul__(self, other):
        out = RRingElem()
        for (k1, u1), c1 in self.terms.items():
            for (k2, u2), c2 in other.terms.items():
                c = c1 * c2
                k = k1 + k2
                if u1 + u2 == 2:
                    # u^2 = t^2 + 4t
                    out.add_term((k + 2, 0), c)
                    out.add_term((k + 1, 0), 4 * c)
                else:
                    out.add_term((k, u1 + u2), c)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (k, uu) in sorted(self.terms):
            c = self.terms[(k, uu)]
            mono = []
            if k:
                mono.append("t^%d" % k)
            if uu:
                mono.append("u")
            body = "*".join(mono) if mono else "1"
            bits.append("%s*%s" % (c, body))
        return " + ".join(bits)


def apply_D(f):
    """Image of f under D = (t+2) d/du + u d/dt.

    On the monomial basis:
        D(t^k)   = k t^(k-1) u
        D(t^k u) = (k+1) t^(k+1) + (4k+2) t^k
    (the second line folds u^2 = t^2 + 4t into the t-part).
    """
    out = RRingElem()
    for (k, uu), c in f.terms.items():
        if uu == 0:
            out.add_term((k - 1, 1), k * c)
        else:
            out.add_term((k + 1, 0), (k + 1) * c)
            out.add_term((k, 0), (4 * k + 2) * c)
    return out


# Der(R) is free of rank one on D, so a derivation c D is its coefficient c.

def basis_derivation(kind, mode):
    """Coefficient of the basis derivation d_mode (kind 'd', t^mode u) or
    d1_mode (kind 'd1', t^mode)."""
    if kind == "d":
        return RRingElem.monomial(mode, 1)
    if kind == "d1":
        return RRingElem.monomial(mode, 0)
    raise ValueError("unknown derivation kind %r" % (kind,))


def der_commutator(a, b):
    """Coefficient of [a D, b D] = (a D(b) - b D(a)) D."""
    return a * apply_D(b) - b * apply_D(a)


def der_decompose(c):
    """Expand the derivation c D over the basis {t^n u D, t^n D}.

    Monomials t^n u of c map to d_n, monomials t^n map to d1_n.
    Round-trips with basis_derivation by construction.
    """
    return Vec({("d" if uu else "d1", k): v for (k, uu), v in c.terms.items()})


def witt_bracket_geometric(i, j):
    """Bracket of two basis derivations, computed geometrically and
    decomposed back over the Witt basis.

    i and j are (kind, mode) pairs.
    """
    return der_decompose(der_commutator(basis_derivation(*i),
                                        basis_derivation(*j)))
