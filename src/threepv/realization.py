"""Mode operators realizing the three-point algebras on polynomial Fock spaces.

Three operator families are assembled from the normal-ordered machinery in
fock:

* tau_mode -- the affine generators e, f, h, e1, f1, h1 act through quadratic
  and cubic normal-ordered sums in oscillator modes plus the current modes
  b, b1; the first central class acts by the scalar chi0 = kappa0 + 4 (for
  r = 0) or kappa0 (for r = 1), the second central class acts by zero.
* pi_witt_mode -- the derivation families d, d1 act through quadratic
  oscillator sums.  They and the squares of b1 are lists of field pieces
  coeff * w^p * :(d^i A)(d^j B): in _QUAD_FIELDS, which D, D1 extend; one
  rule, _quad_sums, makes pieces into mode sums.
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
operator.  convention_audit re-runs such a check on a small window and
reports the integer mode shift that would repair any failure, so a
convention drift surfaces as a loud diagnostic instead of a silent mismatch.
"""

from .scalars import QQ, binom, qq
from .fock import CubicSum, ModeOp, QuadSum, built_once, combine, commutator_apply

AFFINE_GENERATORS = ("e", "f", "h", "e1", "f1", "h1")
WITT_REP_PAIRS = (("d", "d"), ("d1", "d1"), ("d", "d1"))
PAIRS_ITEMS = (1, 3, 10, 14)


def chi0(params):
    """Scalar by which the first central class acts under tau."""
    return params.kappa0 + (4 if params.r == 0 else 0)


@built_once
def _unit(params):
    # every multiple of the identity goes through this one base
    return ModeOp(((1, ()),), (), params)


# ---------------------------------------------------------------------------
# tau: the affine generators
# ---------------------------------------------------------------------------

@built_once
def tau_mode(gen, m, params):
    """Mode m of the realized affine generator.

    Conventions: every current expands as sum of (.)_m z^{-m-1}; the starred
    oscillator fields expand as sum of a*_n z^{-n} (weight zero), the
    unstarred ones as sum of a_n z^{-n-1}; multiplying a weight-one family
    F by P(z) = z^2 + 4z sends mode m to F_{m+2} + 4 F_{m+1}.
    """
    if gen == "f":
        return ModeOp(((-1, (("a", m),)),), (), params)
    if gen == "f1":
        return ModeOp(((-1, (("a1", m),)),), (), params)
    if gen == "h":
        return ModeOp(
            ((1, (("b", m),)),),
            (QuadSum("a", "a*", m, 2, 0), QuadSum("a1", "a1*", m, 2, 0)),
            params,
        )
    if gen == "h1":
        return ModeOp(
            ((1, (("b1", m),)),),
            (
                QuadSum("a1", "a*", m, 2, 0),
                QuadSum("a", "a1*", m + 2, 2, 0),
                QuadSum("a", "a1*", m + 1, 8, 0),
            ),
            params,
        )
    if gen == "e":
        x0 = chi0(params)
        return ModeOp(
            ((-m * x0, (("a*", m),)),),
            (
                CubicSum("a", "a*", "a*", m, 1),
                CubicSum("a", "a1*", "a1*", m + 2, 1),
                CubicSum("a", "a1*", "a1*", m + 1, 4),
                CubicSum("a1", "a*", "a1*", m, 2),
                QuadSum("b", "a*", m, 1, 0),
                QuadSum("b1", "a1*", m, 1, 0),
            ),
            params,
        )
    if gen == "e1":
        x0 = chi0(params)
        return ModeOp(
            (
                (-(m + 1) * x0, (("a1*", m + 2),)),
                (-(4 * m + 2) * x0, (("a1*", m + 1),)),
            ),
            (
                CubicSum("a1", "a*", "a*", m, 1),
                CubicSum("a1", "a1*", "a1*", m + 2, 1),
                CubicSum("a1", "a1*", "a1*", m + 1, 4),
                CubicSum("a", "a*", "a1*", m + 2, 2),
                CubicSum("a", "a*", "a1*", m + 1, 8),
                QuadSum("b1", "a*", m, 1, 0),
                QuadSum("b", "a1*", m + 2, 1, 0),
                QuadSum("b", "a1*", m + 1, 4, 0),
            ),
            params,
        )
    raise ValueError("unknown generator %r" % (gen,))


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
# pi: the derivation families
# ---------------------------------------------------------------------------

# the weight wF of each family: its field is the sum of F_n w^{-n-wF}
_FAMILY_WEIGHT = {"a": 1, "a1": 1, "b": 1, "b1": 1, "a*": 0, "a1*": 0}

# every quadratic field as pieces (coeff, p, famA, famB, i, j), each meaning
# coeff * w^p * :(d^i famA)(d^j famB): with d = d/dw, at most one of i, j
# set, registered in FIELD_BUILDERS under its key.  With P = w^2 + 4w, pi_d
# is P (:a da*: + :a1 da1*:) + (dP/2) :a1 a1*: and pi_d1 is
# :a1 da*: + P :a da1*: + (dP/2) :a a1*:
_QUAD_FIELDS = {
    "no_beta1_sq": ((1, 0, "b1", "b1", 0, 0),),
    "no_dbeta1_beta1": ((1, 0, "b1", "b1", 1, 0),),
    "pi_d": (
        (1, 2, "a", "a*", 0, 1), (4, 1, "a", "a*", 0, 1),
        (1, 2, "a1", "a1*", 0, 1), (4, 1, "a1", "a1*", 0, 1),
        (1, 1, "a1", "a1*", 0, 0), (2, 0, "a1", "a1*", 0, 0),
    ),
    "pi_d1": (
        (1, 0, "a1", "a*", 0, 1),
        (1, 2, "a", "a1*", 0, 1), (4, 1, "a", "a1*", 0, 1),
        (1, 1, "a", "a1*", 0, 0), (2, 0, "a", "a1*", 0, 0),
    ),
}


def _quad_sums(pieces, k):
    """Mode k (weight-one indexing) of a sum of field pieces, as QuadSums
    merged on (famA, famB, M) in first-seen order, zero weights dropped.

    A piece's mode k sums :A_p1 B_q: over p1 + q = M with
    M = k + p + 1 - wA - wB - i - j, weighted by coeff, times -p1 - wA when
    i = 1 and -q - wB when j = 1.
    """
    merged = {}
    for coeff, p, fam_a, fam_b, i, j in pieces:
        w_a, w_b = _FAMILY_WEIGHT[fam_a], _FAMILY_WEIGHT[fam_b]
        total = k + p + 1 - w_a - w_b - i - j
        if i:
            c0, c1 = -coeff * w_a, -coeff
        elif j:
            c0, c1 = -coeff * (total + w_b), coeff
        else:
            c0, c1 = coeff, 0
        w0, w1 = merged.get((fam_a, fam_b, total), (0, 0))
        merged[fam_a, fam_b, total] = (w0 + c0, w1 + c1)
    return tuple(QuadSum(*key, c0, c1)
                 for key, (c0, c1) in merged.items() if c0 or c1)


def pi_witt_mode(kind, m, params):
    """Mode m of the realized derivation family d or d1."""
    return field_mode("pi_" + kind, m, params)


# ---------------------------------------------------------------------------
# extended (centrally corrected) derivation families
# ---------------------------------------------------------------------------

class VirParams:
    """Coefficients of the current-mode corrections in the extended family.

    gammaP is the scalar multiplying the P-convolution of :b b:, i.e. the
    quadratic correction enters mode m as
    gammaP * ((:b^2:)_{m+2} + 4 (:b^2:)_{m+1}).
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
    # D_m is d_{m+1} + gammaP P :b b: + gamma1 :b1 b1: and D1_m is
    # d1_{m+1} + nu :b b1:, each field at its weight-one mode m + 1
    if kind == "D":
        pieces = _QUAD_FIELDS["pi_d"] + ((gammaP, 2, "b", "b", 0, 0),
                                         (4 * gammaP, 1, "b", "b", 0, 0),
                                         (gamma1, 0, "b1", "b1", 0, 0))
    elif kind == "D1":
        pieces = _QUAD_FIELDS["pi_d1"] + ((nu, 0, "b", "b1", 0, 0),)
    else:
        raise ValueError("unknown extended family %r" % (kind,))
    return ModeOp((), _quad_sums(pieces, m + 1), params)


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

def _field_one(k, params):
    return _unit(params) if k == -1 else combine(())


def _field_single(fam):
    def build(k, params):
        return ModeOp(((1, ((fam, k),)),), (), params)
    return build


def _field_p_dbeta(k, params):
    # (P db)_K = -(K+2) b_{K+1} - 4 (K+1) b_K
    return ModeOp(
        ((-(k + 2), (("b", k + 1),)), (-4 * (k + 1), (("b", k),))),
        (),
        params,
    )


def _field_quad(name):
    def build(k, params):
        return ModeOp((), _quad_sums(_QUAD_FIELDS[name], k), params)
    return build


FIELD_BUILDERS = {
    "1": _field_one,
    "beta": _field_single("b"),
    "beta1": _field_single("b1"),
    "P_dbeta": _field_p_dbeta,
    **{name: _field_quad(name) for name in _QUAD_FIELDS},
}


@built_once
def field_mode(name, k, params):
    """Mode k (weight-one indexing) of a registered field."""
    try:
        build = FIELD_BUILDERS[name]
    except KeyError:
        raise ValueError("unknown field %r" % (name,))
    return build(k, params)


def _group_j_terms(j_terms):
    grouped = {}
    for j, coeff, p, name, nderiv in j_terms:
        if j < 0:
            raise ValueError("negative bracket order %r" % (j,))
        if nderiv not in (0, 1):
            raise ValueError("unsupported derivative order %r" % (nderiv,))
        if name not in FIELD_BUILDERS:
            raise ValueError("unknown field %r" % (name,))
        grouped.setdefault(j, []).append((coeff, p, name, nderiv))
    return grouped


def gj_mode_op(terms, k, params):
    """Mode k of a field expression sum of coeff * w^p * (d/dw)^nd F.

    Translation rules: (w^p F)_K = F_{K+p} and
    (w^p dF)_K = -(K+p) F_{K+p-1}.
    """
    pairs = []
    for coeff, p, name, nderiv in terms:
        if not coeff:
            continue
        if nderiv == 0:
            pairs.append((coeff, field_mode(name, k + p, params)))
        else:
            pairs.append((-coeff * (k + p), field_mode(name, k + p - 1, params)))
    return combine(pairs)


def bracket_rhs_op(j_terms, m, n, params, shift=0):
    """The translated right-hand side sum_j binom(m, j) (G_j)_{m+n-j+shift}
    as one operator (shift is used by the convention audit).

    j_terms is an iterable of (j, coeff, p, name, nderiv) contributions, each
    meaning that the order-j coefficient G_j contains
    coeff * w^p * (d/dw)^nderiv of the named field.
    """
    pairs = []
    for j, terms in sorted(_group_j_terms(j_terms).items()):
        bj = binom(m, j)
        if bj:
            pairs.append((bj, gj_mode_op(terms, m + n - j + shift, params)))
    return combine(pairs)


# the uniform mode shifts convention_audit tries on a failed identity
AUDIT_SHIFTS = (-2, -1, 1, 2)


def convention_audit(lhs_a, lhs_b, j_terms, params, mn_pairs, states):
    """Small-window bracket check reporting the observed mode shift.

    For each (m, n) pair and state, compares [A_m, B_n] applied to the state
    with the translated right-hand side; on mismatch, retries the right-hand
    side under each uniform mode shift K -> K + s, s in AUDIT_SHIFTS, and
    records which shift (if any) repairs the identity.  When A and B are one
    field and (n, m) is a pair too, one commutator_apply call checks both
    orders, each against its own right-hand side.  Returns a list of dicts
    with keys m, n, state, pass, shift, in the order of mn_pairs.
    """
    mn_pairs = list(mn_pairs)
    wanted = set(mn_pairs)
    passed = {}     # (m, n) -> [pass per state]
    for m, n in mn_pairs:
        if (m, n) in passed:
            continue
        orders = [(m, n)]
        if lhs_a == lhs_b and m != n and (n, m) in wanted:
            orders.append((n, m))
        op_a, op_b = field_mode(lhs_a, m, params), field_mode(lhs_b, n, params)
        rhss = [bracket_rhs_op(j_terms, mm, nn, params) for mm, nn in orders]
        resids = [commutator_apply(op_a, op_b, state, *rhss) for state in states]
        if len(orders) == 1:
            resids = [(resid,) for resid in resids]
        for i, order in enumerate(orders):
            passed[order] = [pair[i].is_zero() for pair in resids]
    results = []
    for m, n in mn_pairs:
        op_a, op_b = field_mode(lhs_a, m, params), field_mode(lhs_b, n, params)
        for idx, state in enumerate(states):
            ok = passed[(m, n)][idx]
            found = None
            if not ok:
                for s in AUDIT_SHIFTS:
                    shifted = bracket_rhs_op(j_terms, m, n, params, shift=s)
                    if commutator_apply(op_a, op_b, state, shifted).is_zero():
                        found = s
                        break
            results.append(
                {"m": m, "n": n, "state": idx, "pass": ok, "shift": found}
            )
    return results


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
            (0, 1, 2, "pi_d", 1), (0, 4, 1, "pi_d", 1),
            (0, 2, 1, "pi_d", 0), (0, 4, 0, "pi_d", 0),
            (1, 2, 2, "pi_d", 0), (1, 8, 1, "pi_d", 0),
            (1, 2 * d0, 2, "1", 0), (1, 8 * d0, 1, "1", 0),
            (1, 4 * d0, 0, "1", 0),
            (2, 4 * d0, 3, "1", 0), (2, 24 * d0, 2, "1", 0),
            (2, 32 * d0, 1, "1", 0),
            (3, 2 * d0, 4, "1", 0), (3, 16 * d0, 3, "1", 0),
            (3, 32 * d0, 2, "1", 0),
        ]
    if pair == ("d1", "d1"):
        return [
            (0, 1, 0, "pi_d", 1),
            (1, 2, 0, "pi_d", 0),
            (2, 2 * d0, 1, "1", 0), (2, 4 * d0, 0, "1", 0),
            (3, 2 * d0, 2, "1", 0), (3, 8 * d0, 1, "1", 0),
        ]
    if pair == ("d", "d1"):
        return [
            (0, 1, 2, "pi_d1", 1), (0, 4, 1, "pi_d1", 1),
            (0, 3, 1, "pi_d1", 0), (0, 6, 0, "pi_d1", 0),
            (1, 2, 2, "pi_d1", 0), (1, 8, 1, "pi_d1", 0),
        ]
    raise ValueError("unknown pair %r" % (pair,))


def pairs_gj(item, params):
    """LHS field names and G_j data for the checked current-mode identities.

    Returns (lhs_a, lhs_b, j_terms) for items 1, 3, 10, 14:

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
        return "beta", "beta", [(1, -2 * k0, 0, "1", 0)]
    if item == 3:
        return "beta1", "beta1", [
            (0, -2 * k0, 1, "1", 0), (0, -4 * k0, 0, "1", 0),
            (1, -2 * k0, 2, "1", 0), (1, -8 * k0, 1, "1", 0),
        ]
    if item == 10:
        return "P_dbeta", "P_dbeta", [
            (1, 12 * k0, 2, "1", 0), (1, 48 * k0, 1, "1", 0),
            (2, 24 * k0, 3, "1", 0), (2, 144 * k0, 2, "1", 0),
            (2, 192 * k0, 1, "1", 0),
            (3, 12 * k0, 4, "1", 0), (3, 96 * k0, 3, "1", 0),
            (3, 192 * k0, 2, "1", 0),
        ]
    if item == 14:
        k2 = k0 * k0
        return "no_beta1_sq", "no_beta1_sq", [
            (0, -8 * k0, 1, "no_beta1_sq", 0),
            (0, -16 * k0, 0, "no_beta1_sq", 0),
            (0, -8 * k0, 2, "no_dbeta1_beta1", 0),
            (0, -32 * k0, 1, "no_dbeta1_beta1", 0),
            (1, -8 * k0, 2, "no_beta1_sq", 0),
            (1, -32 * k0, 1, "no_beta1_sq", 0),
            (1, 8 * k2, 2, "1", 0), (1, 32 * k2, 1, "1", 0),
            (1, 32 * k2, 0, "1", 0),
            (2, 16 * k2, 3, "1", 0), (2, 96 * k2, 2, "1", 0),
            (2, 128 * k2, 1, "1", 0),
            (3, 8 * k2, 4, "1", 0), (3, 64 * k2, 3, "1", 0),
            (3, 128 * k2, 2, "1", 0),
        ]
    raise ValueError("unknown item %r" % (item,))
