"""Exact arithmetic in the three-point coordinate ring and its derivations.

The ring is R = C[t, t^-1, u | u^2 = t^2 + 4t] over exact rationals.
Elements are stored sparsely as {(tpow, upow): coeff} with upow in {0, 1};
every product reduces u^2 via u^2 = t^2 + 4t = P(t).

Der(R) is free of rank one over R, generated by

    D = (t + 2) d/du + u d/dt,

and carries the Witt-type basis d_n = t^n u D, d1_n = t^n D.  The geometric
bracket of coefficient derivations is

    [c_A D, c_B D] = (c_A D(c_B) - c_B D(c_A)) D.
"""

from .scalars import QQ


class RRingElem:
    """Element of R = C[t, t^-1, u | u^2 = t^2+4t], stored sparsely.

    self.terms maps (tpow, upow) -> rational coefficient, upow in {0, 1},
    with no zero coefficients stored.

    Example: u*u gives {(2, 0): 1, (1, 0): 4}, i.e. t^2 + 4t.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = QQ(c)
                if c:
                    self.terms[key] = c

    @staticmethod
    def monomial(tpow, upow, coeff=1):
        e = RRingElem()
        c = QQ(coeff)
        if c:
            e.terms[(tpow, upow)] = c
        return e

    @staticmethod
    def one():
        return RRingElem.monomial(0, 0)

    @staticmethod
    def t_pow(k, coeff=1):
        return RRingElem.monomial(k, 0, coeff)

    @staticmethod
    def u_elem():
        return RRingElem.monomial(0, 1)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, RRingElem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        e = RRingElem()
        e.terms = out
        return e

    def __neg__(self):
        e = RRingElem()
        e.terms = {key: -c for key, c in self.terms.items()}
        return e

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = QQ(c)
        e = RRingElem()
        if c:
            e.terms = {key: c * v for key, v in self.terms.items()}
        return e

    def __mul__(self, other):
        out = {}
        for (k1, u1), c1 in self.terms.items():
            for (k2, u2), c2 in other.terms.items():
                c = c1 * c2
                k = k1 + k2
                uu = u1 + u2
                if uu == 2:
                    # u^2 = t^2 + 4t
                    for kk, cc in ((k + 2, c), (k + 1, 4 * c)):
                        key = (kk, 0)
                        s = out.get(key, 0) + cc
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
                else:
                    key = (k, uu)
                    s = out.get(key, 0) + c
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        e = RRingElem()
        e.terms = out
        return e

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


def r_mul(a, b):
    """Product in R with u^2 eliminated; canonical sparse form."""
    return a * b


def apply_D(f):
    """Image of f under D = (t+2) d/du + u d/dt.

    On the monomial basis:
        D(t^k)   = k t^(k-1) u
        D(t^k u) = (k+1) t^(k+1) + (4k+2) t^k
    (the second line folds u^2 = t^2 + 4t into the t-part).
    """
    out = RRingElem()
    acc = out.terms
    for (k, uu), c in f.terms.items():
        if uu == 0:
            if k:
                key = (k - 1, 1)
                s = acc.get(key, 0) + k * c
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        else:
            for key, cc in (((k + 1, 0), (k + 1) * c), ((k, 0), (4 * k + 2) * c)):
                if cc:
                    s = acc.get(key, 0) + cc
                    if s:
                        acc[key] = s
                    else:
                        acc.pop(key, None)
    return out


class RDerivation:
    """A derivation coeff * D of R, with coeff an RRingElem."""

    __slots__ = ("coeff",)

    def __init__(self, coeff=None):
        self.coeff = coeff if coeff is not None else RRingElem()

    def is_zero(self):
        return self.coeff.is_zero()

    def __eq__(self, other):
        return isinstance(other, RDerivation) and self.coeff == other.coeff

    def __repr__(self):
        return "(%r)*D" % self.coeff


def basis_derivation(kind, mode):
    """The basis derivation d_mode (kind 'd', coeff t^mode u) or
    d1_mode (kind 'd1', coeff t^mode)."""
    if kind == "d":
        return RDerivation(RRingElem.monomial(mode, 1))
    if kind == "d1":
        return RDerivation(RRingElem.monomial(mode, 0))
    raise ValueError("unknown derivation kind %r" % (kind,))


def der_commutator(A, B):
    """[A, B] = (c_A D(c_B) - c_B D(c_A)) D for A = c_A D, B = c_B D."""
    c = A.coeff * apply_D(B.coeff) - B.coeff * apply_D(A.coeff)
    return RDerivation(c)


class WittVector:
    """Finite rational combination of Witt basis elements.

    self.terms maps (kind, mode) -> coefficient with kind in {'d', 'd1'}.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = QQ(c)
                if c:
                    self.terms[key] = c

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, WittVector) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        v = WittVector()
        v.terms = out
        return v

    def __sub__(self, other):
        v = WittVector()
        v.terms = dict(self.terms)
        for key, c in other.terms.items():
            s = v.terms.get(key, 0) - c
            if s:
                v.terms[key] = s
            else:
                v.terms.pop(key, None)
        return v

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (kind, mode) in sorted(self.terms):
            bits.append("%s*%s_%d" % (self.terms[(kind, mode)], kind, mode))
        return " + ".join(bits)


def der_decompose(A):
    """Expand a derivation coeff*D over the basis {t^n u D, t^n D}.

    The coefficient splits as (t-only part) + (u part): monomials t^n u
    map to d_n, monomials t^n map to d1_n.  Round-trips with
    basis_derivation by construction.
    """
    v = WittVector()
    for (k, uu), c in A.coeff.terms.items():
        v.terms[("d" if uu else "d1", k)] = c
    return v


def witt_bracket_geometric(i, j):
    """Bracket of two basis derivations, computed geometrically and
    decomposed back over the Witt basis.

    i and j are (kind, mode) pairs.
    """
    A = basis_derivation(*i)
    B = basis_derivation(*j)
    return der_decompose(der_commutator(A, B))
