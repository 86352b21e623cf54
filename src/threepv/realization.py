"""Mode operators realizing the three-point algebras on polynomial Fock spaces.

Every realized operator is a field, listed as pieces coeff * f(w) * :F ...:
(f a w-polynomial, zero to three families, d/dw on at most one) in _FIELDS or
_TAU_PIECES, and one rule, _field_op, makes the pieces into the field's modes,
merged on (families, total mode).  Three operator families are assembled so:

* tau_mode -- the affine generators e, f, h, e1, f1, h1; the first central
  class acts by the scalar chi0 = kappa0 + 4 (for r = 0) or kappa0 (for
  r = 1), which multiplies a second piece list, the second by zero.
* pi_witt_mode -- the derivation families d, d1, registered fields beside
  the identity, the currents, P db and the squares of b1.
* pi_vir_mode -- the centrally extended derivation families D, D1 add
  current-mode pieces whose coefficients live in VirParams; the abstract
  weight-one basis embeds via the index shift D_m = -(d_{m+1}), and the
  first central class acts by central_charge(r).

A bracket identity given against a formal parameter,
[A_lambda B] = sum_j lambda^j / j! G_j, translates into the mode identities

    [A_m, B_n] = sum_j binom(m, j) (G_j)_{m+n-j},

where each G_j is a w-polynomial combination of registered fields (expanded
as sum_K F_K w^{-K-1}, the constant field contributing at mode -1).
field_mode builds A_m and B_n, and bracket_rhs_op the right-hand side as one
combination (fock.combine) of field modes, each named once.
"""

from .scalars import QQ, binom, qq
from .fock import ModeOp, NormalSum, built_once, combine
from .ring import RRingElem

AFFINE_GENERATORS = ("e", "f", "h", "e1", "f1", "h1")
WITT_REP_PAIRS = (("d", "d"), ("d1", "d1"), ("d", "d1"))
PAIRS_ITEMS = (1, 3, 10, 14)


def chi0(params):
    """Scalar by which the first central class acts under tau."""
    return params.kappa0 + (4 if params.r == 0 else 0)


def _unit(params):
    # every multiple of the identity goes through this one operator
    return field_mode("1", -1, params)


# ---------------------------------------------------------------------------
# field pieces and the rule that makes their modes
# ---------------------------------------------------------------------------

# the weight wF of each family: its field is the sum of F_n w^{-n-wF}
_FAMILY_WEIGHT = {"a": 1, "a1": 1, "b": 1, "b1": 1, "a*": 0, "a1*": 0}

# every registered field as pieces (coeff, f, fams, i), each meaning
# coeff * f(w) * :F_0 ... F_j: over the 0 to 3 families fams, with d = d/dw
# on slot i (None for none; only with one or two families).  Each f is a
# ring element in t = w, made of 1, P = u^2 = w^2 + 4w and dP = dP/dw: pi_d
# is P (:a da*: + :a1 da1*:) + (dP/2) :a1 a1*:, pi_d1 is
# :a1 da*: + P :a da1*: + (dP/2) :a a1*: and P_dbeta is P db
_ONE = RRingElem.t_pow(0)
_P = RRingElem.monomial(0, 1) * RRingElem.monomial(0, 1)
_DP = RRingElem({(p - 1, 0): p * c for (p, _u), c in _P.terms.items() if p})
_FIELDS = {
    "1": ((1, _ONE, (), None),),
    "beta": ((1, _ONE, ("b",), None),),
    "beta1": ((1, _ONE, ("b1",), None),),
    "P_dbeta": ((1, _P, ("b",), 0),),
    "no_beta1_sq": ((1, _ONE, ("b1", "b1"), None),),
    "no_dbeta1_beta1": ((1, _ONE, ("b1", "b1"), 0),),
    "pi_d": ((1, _P, ("a", "a*"), 1), (1, _P, ("a1", "a1*"), 1),
             (1, _DP.scale(QQ(1, 2)), ("a1", "a1*"), None)),
    "pi_d1": ((1, _ONE, ("a1", "a*"), 1), (1, _P, ("a", "a1*"), 1),
              (1, _DP.scale(QQ(1, 2)), ("a", "a1*"), None)),
}

# each affine generator as (pieces, pieces that chi0 multiplies), in the
# format of _FIELDS; tau_mode gives the fields they spell
_TAU_PIECES = {
    "f": (((-1, _ONE, ("a",), None),), ()),
    "f1": (((-1, _ONE, ("a1",), None),), ()),
    "h": (((1, _ONE, ("b",), None), (2, _ONE, ("a", "a*"), None),
           (2, _ONE, ("a1", "a1*"), None)), ()),
    "h1": (((1, _ONE, ("b1",), None), (2, _ONE, ("a1", "a*"), None),
            (2, _P, ("a", "a1*"), None)), ()),
    "e": (
        ((1, _ONE, ("a", "a*", "a*"), None),
         (1, _P, ("a", "a1*", "a1*"), None),
         (2, _ONE, ("a1", "a*", "a1*"), None),
         (1, _ONE, ("b", "a*"), None), (1, _ONE, ("b1", "a1*"), None)),
        ((1, _ONE, ("a*",), 0),),
    ),
    "e1": (
        ((1, _ONE, ("a1", "a*", "a*"), None),
         (1, _P, ("a1", "a1*", "a1*"), None), (2, _P, ("a", "a*", "a1*"), None),
         (1, _ONE, ("b1", "a*"), None), (1, _P, ("b", "a1*"), None)),
        ((1, _P, ("a1*",), 0), (1, _DP.scale(QQ(1, 2)), ("a1*",), None)),
    ),
}


def _field_op(pieces, k, params):
    """Mode k (weight-one indexing) of a sum of field pieces, as one operator.

    Each term c w^p of a piece's f sums, at mode k, the normal-ordered
    products of the families' modes over the mode tuples adding up to
    M = k + p + 1 - (their weights) - (1 if i is set), weighted by coeff c,
    times -(mode_i + w_i) if i is set.  These merge on (fams, M) in
    first-seen order and zero weights drop; then no family gives the
    identity at M = 0, one family a term, two or three a NormalSum, and
    nothing left an operator with neither, which combine drops.
    """
    merged = {}
    for coeff, f, fams, i in pieces:
        weights = [_FAMILY_WEIGHT[fam] for fam in fams]
        for (p, _u), c in f.terms.items():
            c *= coeff
            total = k + p + 1 - sum(weights) - (i is not None)
            # the weight as c0 + c1 * (mode of slot 0), slot 1's total less it
            if i is None:
                c0, c1 = c, 0
            elif i == 0:
                c0, c1 = -c * weights[0], -c
            else:
                c0, c1 = -c * (total + weights[1]), c
            if fams or not total:   # the constant field has no other mode
                w0, w1 = merged.get((fams, total), (0, 0))
                merged[fams, total] = (w0 + c0, w1 + c1)
    terms, sums = [], []
    for (fams, total), (c0, c1) in merged.items():
        if len(fams) < 2 and c0 + c1 * total:
            terms.append((c0 + c1 * total, tuple((fam, total) for fam in fams)))
        elif len(fams) > 1 and (c0 or c1):
            sums.append(NormalSum(fams, total, qq(c0), qq(c1)))
    return ModeOp(terms, sums, params)


@built_once
def field_mode(name, k, params):
    """Mode k (weight-one indexing) of a registered field."""
    try:
        pieces = _FIELDS[name]
    except KeyError:
        raise ValueError("unknown field %r" % (name,))
    return _field_op(pieces, k, params)


# ---------------------------------------------------------------------------
# tau: the affine generators
# ---------------------------------------------------------------------------

@built_once
def tau_mode(gen, m, params):
    """Mode m of the realized affine generator.

    Conventions: every current expands as sum of (.)_m z^{-m-1}; the starred
    oscillator fields expand as sum of a*_n z^{-n} (weight zero), the
    unstarred ones as sum of a_n z^{-n-1}.  With P = z^2 + 4z and d = d/dz,
    the generators are the fields f = -a, f1 = -a1,

        h  = b + 2 :a a*: + 2 :a1 a1*:
        h1 = b1 + 2 :a1 a*: + 2P :a a1*:
        e  = :a a* a*: + P :a a1* a1*: + 2 :a1 a* a1*: + :b a*: + :b1 a1*:
             + chi0 da*
        e1 = :a1 a* a*: + P :a1 a1* a1*: + 2P :a a* a1*: + :b1 a*: + P :b a1*:
             + chi0 (P da1* + (dP/2) a1*)

    each listed in _TAU_PIECES with its chi0 part apart.
    """
    try:
        pieces, chi0_pieces = _TAU_PIECES[gen]
    except KeyError:
        raise ValueError("unknown generator %r" % (gen,))
    x0 = chi0(params)
    return _field_op(pieces + tuple((x0 * c, *rest) for c, *rest in chi0_pieces),
                     m, params)


def tau_realize(vec, params):
    """Realize a combination of affine generators and central classes.

    Generator modes go through tau_mode; the class w0 acts by chi0 times the
    identity and w1 acts by zero.
    """
    pairs = []
    for (fam, mode), coeff in sorted(vec.terms.items()):
        if fam == "w0":
            pairs.append((coeff * chi0(params), _unit(params)))
        elif fam != "w1":
            pairs.append((coeff, tau_mode(fam, mode, params)))
    return combine(pairs)


# ---------------------------------------------------------------------------
# pi: the derivation families and their central extensions
# ---------------------------------------------------------------------------

def pi_witt_mode(kind, m, params):
    """Mode m of the realized derivation family d or d1."""
    return field_mode("pi_" + kind, m, params)


class VirParams:
    """Coefficients of the current-mode pieces of the extended family: D
    adds gammaP P :b b: + gamma1 :b1 b1: to d, and D1 adds nu :b b1: to d1.
    """

    __slots__ = ("nu", "gamma1", "gammaP")

    def __init__(self, nu, gamma1=0, gammaP=0):
        self.nu = qq(nu)
        self.gamma1 = qq(gamma1)
        self.gammaP = qq(gammaP)

    @staticmethod
    def standard(kappa0):
        """The closing coefficient assignment at central value kappa0.

        nu = +1/(2 kappa0) (only nu^2 is forced; the sign choice is a
        convention, the other sign being induced by b1 -> -b1).
        """
        k0 = qq(kappa0)
        if not k0:
            raise ValueError("kappa0 must be nonzero")
        quarter = QQ(1) / (4 * k0)
        return VirParams(nu=QQ(1) / (2 * k0), gamma1=-quarter, gammaP=-quarter)

    def __repr__(self):
        return "VirParams(nu=%s, gamma1=%s, gammaP=%s)" % (
            self.nu, self.gamma1, self.gammaP)


def central_charge(r):
    """Scalar by which the first central class acts in the extended family
    (the second acts by zero)."""
    if r not in (0, 1):
        raise ValueError("r must be 0 or 1")
    d0 = 1 if r == 0 else 0
    return -(d0 + QQ(1, 2)) / 3


def pi_vir_mode(kind, m, params, vparams=None):
    """Mode m (weight-two labeling, coefficient of z^{-m-2}) of the extended
    derivation family D or D1."""
    if vparams is None:
        vparams = VirParams.standard(params.kappa0)
    return _vir_mode(kind, m, vparams.nu, vparams.gamma1, vparams.gammaP, params)


@built_once
def _vir_mode(kind, m, nu, gamma1, gammaP, params):
    # D_m and D1_m: the fields VirParams describes, at weight-one mode m + 1
    if kind == "D":
        pieces = _FIELDS["pi_d"] + ((gammaP, _P, ("b", "b"), None),
                                    (gamma1, _ONE, ("b1", "b1"), None))
    elif kind == "D1":
        pieces = _FIELDS["pi_d1"] + ((nu, _ONE, ("b", "b1"), None),)
    else:
        raise ValueError("unknown extended family %r" % (kind,))
    return _field_op(pieces, m + 1, params)


def vir_realize(vec, params, vparams=None):
    """Realize a combination of abstract d / d1 modes and central classes.

    The abstract weight-one basis embeds by the index shift D_m = -(d_{m+1}),
    so d_K maps to -D_{K-1} and d1_K to -D1_{K-1}; c1 acts by
    central_charge(r) times the identity and c2 by zero.
    """
    pairs = []
    for (fam, mode), coeff in sorted(vec.terms.items()):
        if fam == "c1":
            pairs.append((coeff * central_charge(params.r), _unit(params)))
        elif fam == "d":
            pairs.append((-coeff, pi_vir_mode("D", mode - 1, params, vparams)))
        elif fam == "d1":
            pairs.append((-coeff, pi_vir_mode("D1", mode - 1, params, vparams)))
        elif fam != "c2":
            raise ValueError("unexpected family %r" % (fam,))
    return combine(pairs)


# ---------------------------------------------------------------------------
# bracket identities against a formal parameter, translated to modes
# ---------------------------------------------------------------------------

def bracket_rhs_op(j_terms, m, n, params, shift=0):
    """The translated right-hand side sum_j binom(m, j) (G_j)_{m+n-j+shift}
    as one combination (shift is used by the suites' convention audit).

    j_terms is an iterable of (j, coeff, f, name, nderiv) contributions, each
    meaning that the order-j coefficient G_j contains
    coeff * f(w) * (d/dw)^nderiv of the named field.  By (w^p F)_k = F_{k+p}
    and (w^p dF)_k = -(k+p) F_{k+p-1}, each term c w^p of f, with
    K = m + n - j + shift + p, adds binom(m, j) coeff c times F_K, or times
    -K F_{K-1} for a derivative.
    """
    pairs = []
    for j, coeff, f, name, nderiv in j_terms:
        if j < 0:
            raise ValueError("negative bracket order %r" % (j,))
        if nderiv not in (0, 1):
            raise ValueError("unsupported derivative order %r" % (nderiv,))
        if name not in _FIELDS:
            raise ValueError("unknown field %r" % (name,))
        scale = binom(m, j) * coeff
        for (p, _u), c in f.terms.items():
            K = m + n - j + shift + p
            c *= scale * (-K if nderiv else 1)
            if c:
                pairs.append((c, field_mode(name, K - nderiv, params)))
    return combine(pairs)


# ---------------------------------------------------------------------------
# bracket data: derivation families and current-mode identities
# ---------------------------------------------------------------------------

def witt_rep_gj(pair, r):
    """G_j field-expression data for [pi(A)_m, pi(B)_n], A, B in {d, d1}.

    With P = w^2 + 4w (so dP = 2w + 4, d2P = 2), the three lines are

        [d_lambda d]       G0 = P dA + dP A; G1 = 2 P A + d0 (2P + 4);
                           G2 = 2 d0 P dP;   G3 = 2 d0 P^2
        [d1_lambda d1]     G0 = dA; G1 = 2 A; G2 = d0 dP; G3 = 2 d0 P
        [d_lambda d1]      G0 = P dB + (3/2) dP B; G1 = 2 P B

    where A is the realized d field, B the realized d1 field and
    d0 = 1 if r == 0 else 0 marks the anomaly terms.
    """
    d0 = 1 if r == 0 else 0
    if pair == ("d", "d"):
        return [
            (0, 1, _P, "pi_d", 1), (0, 1, _DP, "pi_d", 0),
            (1, 2, _P, "pi_d", 0), (1, d0, _P.scale(2) + _ONE.scale(4), "1", 0),
            (2, 2 * d0, _P * _DP, "1", 0), (3, 2 * d0, _P * _P, "1", 0),
        ]
    if pair == ("d1", "d1"):
        return [
            (0, 1, _ONE, "pi_d", 1), (1, 2, _ONE, "pi_d", 0),
            (2, d0, _DP, "1", 0), (3, 2 * d0, _P, "1", 0),
        ]
    if pair == ("d", "d1"):
        return [(0, 1, _P, "pi_d1", 1), (0, 3, _DP.scale(QQ(1, 2)), "pi_d1", 0),
                (1, 2, _P, "pi_d1", 0)]
    raise ValueError("unknown pair %r" % (pair,))


def pairs_gj(item, params):
    """The field and G_j data for the checked current-mode identities, each
    bracketing the field with itself.

    Returns (field, j_terms) for items 1, 3, 10, 14:

        1   [b_lambda b]           = -2 lambda kappa0
        3   [b1_lambda b1]         = -(2 P lambda + dP) kappa0
        10  [P db_lambda P db]     = 2 kappa0 (P lambda^3 + 3 dP lambda^2
                                     + 3 d2P lambda) P
        14  [:b1^2:_lambda :b1^2:] = -4 (2 P lambda + dP) kappa0 :b1^2:
                                     - 8 P kappa0 :(db1) b1:
                                     + 8 (P^2 lambda^3 / 6 + P dP lambda^2 / 2
                                     + (dP)^2 lambda / 4) kappa0^2
    """
    k0 = params.kappa0
    if item == 1:
        return "beta", [(1, -2 * k0, _ONE, "1", 0)]
    if item == 3:
        return "beta1", [(0, -k0, _DP, "1", 0), (1, -2 * k0, _P, "1", 0)]
    if item == 10:
        return "P_dbeta", [(1, 12 * k0, _P, "1", 0),
                           (2, 12 * k0, _P * _DP, "1", 0),
                           (3, 12 * k0, _P * _P, "1", 0)]
    if item == 14:
        k2 = k0 * k0
        return "no_beta1_sq", [
            (0, -4 * k0, _DP, "no_beta1_sq", 0),
            (0, -8 * k0, _P, "no_dbeta1_beta1", 0),
            (1, -8 * k0, _P, "no_beta1_sq", 0), (1, 2 * k2, _DP * _DP, "1", 0),
            (2, 8 * k2, _P * _DP, "1", 0), (3, 8 * k2, _P * _P, "1", 0),
        ]
    raise ValueError("unknown item %r" % (item,))
