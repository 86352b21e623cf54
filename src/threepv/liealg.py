"""Abstract bracket tables and 2-cocycles for the three-point algebras.

Generators are GenId pairs (family, mode):

    witt / virasoro: ("d", m), ("d1", m), plus centrals ("c1", 0), ("c2", 0)
    affine sl2:      ("e", m), ("e1", m), ("f", m), ("f1", m),
                     ("h", m), ("h1", m), centrals ("w0", 0), ("w1", 0)
    heisenberg:      ("b", m), ("b1", m), centrals ("one0", 0), ("one1", 0)

The un-superscripted families pair with t^m, the "1" families with t^m u.
Two independent routes produce the affine structure constants:

    affine_bracket        the closed bracket table, verbatim
    kassel_bracket()      sl2 tensor R with central term (x,y) class(f dg),
                          central values computed by the Kaehler reduction

and the two do NOT agree everywhere; mu_compare / kassel-vs-table report
the exact differences (all in the w1 coefficients of the mixed pairs).
Only the Kassel route satisfies the Jacobi identity.
"""

import itertools

from .kaehler import lambda_coeff, pairing
from .ring import RRingElem
from .scalars import QQ, Vec, qq

CENTRAL_FAMILIES = frozenset(["w0", "w1", "one0", "one1", "c1", "c2"])


def mu_closed_form(m, n):
    """mu_{m,n} = -m lambda_{m+n-1}: m (-1)^(m+n+1) C_(m+n) for m + n >= 0,
    -m/2 at m + n = -1 and zero whenever m + n <= -2."""
    return -m * lambda_coeff(m + n - 1)


# ---------------------------------------------------------------------------
# Witt and Virasoro
# ---------------------------------------------------------------------------

def witt_bracket(i, j):
    """Closed-form bracket on the d / d1 basis.

    [d_m, d_n]   = (n-m) (d_{m+n+1} + 4 d_{m+n})
    [d1_m, d1_n] = (n-m) d_{m+n-1}
    [d_m, d1_n]  = (n-m-1) d1_{m+n+1} + (4n-4m-2) d1_{m+n}
    """
    (ki, m), (kj, n) = i, j
    if ki in CENTRAL_FAMILIES or kj in CENTRAL_FAMILIES:
        return Vec()
    if ki == "d" and kj == "d":
        return Vec({("d", m + n + 1): n - m, ("d", m + n): 4 * (n - m)})
    if ki == "d1" and kj == "d1":
        return Vec({("d", m + n - 1): n - m})
    if ki == "d" and kj == "d1":
        return Vec(
            {("d1", m + n + 1): n - m - 1, ("d1", m + n): 4 * n - 4 * m - 2}
        )
    if ki == "d1" and kj == "d":
        return -witt_bracket(j, i)
    raise ValueError("not witt generators: %r, %r" % (i, j))


def phi1(i, j):
    """The first 2-cocycle on the Witt-type algebra, in closed form."""
    (ki, k), (kj, l) = i, j
    if ki == "d1" and kj == "d1":
        out = 0
        if k + l == 1:
            out += 2 * (l * l - l) * (2 * l - 1)
        if k + l == 0:
            out += l ** 3 - l
        return out
    if ki == "d1" and kj == "d":
        # (k-1) k l times the pairing's term lambda_{s-2}, zero for s <= -2
        s = k + l
        if s == -1:
            return -(k - 1) * k * l
        return qq(QQ(-12 * (k - 1) * k * l * lambda_coeff(s - 2), s + 1))
    if ki == "d" and kj == "d1":
        return -phi1(j, i)
    if ki == "d" and kj == "d":
        out = 0
        if k + l == -2:
            out += l * (l + 1) * (l + 2)
        if k + l == -1:
            out += 4 * l * (2 * l + 1) * (l + 1)
        if k + l == 0:
            out += 4 * l * (2 * l - 1) * (2 * l + 1)
        return out
    raise ValueError("not witt generators: %r, %r" % (i, j))


def phi2(i, j):
    """The second 2-cocycle: -2 phi1 on like-kind pairs, zero on mixed."""
    if i[0] == j[0]:
        return -2 * phi1(i, j)
    return 0


def vir_bracket(i, j):
    """Witt bracket centrally extended by phi1 c1 + phi2 c2."""
    if i[0] in CENTRAL_FAMILIES or j[0] in CENTRAL_FAMILIES:
        return Vec()
    out = witt_bracket(i, j)
    c1 = phi1(i, j)
    out.add_term(("c1", 0), c1)
    out.add_term(("c2", 0), -2 * c1 if i[0] == j[0] else 0)  # = phi2(i, j)
    return out


# ---------------------------------------------------------------------------
# Heisenberg
# ---------------------------------------------------------------------------

def heis_bracket(i, j):
    """Three-point Heisenberg bracket on b / b1 with centrals one0, one1.

    [b_m, b_n]   = (n-m) delta_{m+n,0} one0
    [b1_m, b1_n] = (n-m) (delta_{m+n,-2} + 4 delta_{m+n,-1}) one0
    [b1_m, b_n]  = 2 mu_{m,n} one1
    """
    (ki, m), (kj, n) = i, j
    if ki in CENTRAL_FAMILIES or kj in CENTRAL_FAMILIES:
        return Vec()
    out = Vec()
    if ki == "b" and kj == "b":
        if m + n == 0:
            out.add_term(("one0", 0), n - m)
    elif ki == "b1" and kj == "b1":
        if m + n == -2:
            out.add_term(("one0", 0), n - m)
        if m + n == -1:
            out.add_term(("one0", 0), 4 * (n - m))
    elif ki == "b1" and kj == "b":
        out.add_term(("one1", 0), 2 * mu_closed_form(m, n))
    elif ki == "b" and kj == "b1":
        out.add_term(("one1", 0), -2 * mu_closed_form(n, m))
    else:
        raise ValueError("not heisenberg generators: %r, %r" % (i, j))
    return out


# ---------------------------------------------------------------------------
# Affine sl2: closed table and the Kassel construction
# ---------------------------------------------------------------------------

def affine_bracket(i, j):
    """The closed bracket table for the three-point affine sl2 algebra.

    Central terms: w0 on like-kind pairs, w1 (with coefficient built from
    mu_closed_form) on the mixed pairs.
    """
    (ki, m), (kj, n) = i, j
    if ki in CENTRAL_FAMILIES or kj in CENTRAL_FAMILIES:
        return Vec()

    out = Vec()
    pair = (ki, kj)

    # same-letter e/f pairs vanish
    if {ki, kj} <= {"e", "e1"} or {ki, kj} <= {"f", "f1"}:
        return out

    if pair == ("h", "h"):
        if m + n == 0:
            out.add_term(("w0", 0), n - m)
    elif pair == ("h1", "h1"):
        if m + n == -2:
            out.add_term(("w0", 0), n - m)
        if m + n == -1:
            out.add_term(("w0", 0), 4 * (n - m))
    elif pair == ("h", "h1"):
        out.add_term(("w1", 0), -2 * mu_closed_form(m, n))
    elif pair == ("e", "f"):
        out.add_term(("h", m + n), 1)
        if m + n == 0:
            out.add_term(("w0", 0), -m)
    elif pair in (("e", "f1"), ("e1", "f")):
        out.add_term(("h1", m + n), 1)
        out.add_term(("w1", 0), -m * mu_closed_form(m, n))
    elif pair == ("e1", "f1"):
        out.add_term(("h", m + n + 2), 1)
        out.add_term(("h", m + n + 1), 4)
        if m + n == -2:
            out.add_term(("w0", 0), QQ(n - m, 2))
        if m + n == -1:
            out.add_term(("w0", 0), 2 * (n - m))
    elif pair == ("h", "e"):
        out.add_term(("e", m + n), 2)
    elif pair in (("h", "e1"), ("h1", "e")):
        out.add_term(("e1", m + n), 2)
    elif pair == ("h1", "e1"):
        out.add_term(("e", m + n + 2), 2)
        out.add_term(("e", m + n + 1), 8)
    elif pair == ("h", "f"):
        out.add_term(("f", m + n), -2)
    elif pair in (("h", "f1"), ("h1", "f")):
        out.add_term(("f1", m + n), -2)
    elif pair == ("h1", "f1"):
        out.add_term(("f", m + n + 2), -2)
        out.add_term(("f", m + n + 1), -8)
    else:
        return -affine_bracket(j, i)
    return out


_SL2_BRACKET = {
    ("e", "f"): (("h", 1),),
    ("f", "e"): (("h", -1),),
    ("h", "e"): (("e", 2),),
    ("e", "h"): (("e", -2),),
    ("h", "f"): (("f", -2),),
    ("f", "h"): (("f", 2),),
}

_SL2_FORM = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}


def _split_affine_gen(g):
    fam, m = g
    letter = fam[0]
    if letter not in ("e", "f", "h"):
        raise ValueError("not an affine generator: %r" % (g,))
    return letter, m, 1 if fam.endswith("1") else 0


def kassel_bracket():
    """A fresh Kassel bracket, [x (x) f, y (x) g] = [x,y] (x) fg + (x,y) class(f dg).

    The central term is computed by the Kaehler reduction engine, so this
    route is independent of the closed table and of mu_closed_form.  The
    returned function keeps, per monomial pair (m, uu, n, vv), the items of
    t^m u^uu * t^n u^vv and class(f dg) as (q0, q1), computed on first use;
    a call then reads the sl2 tables and builds one Vec.  Build one per run:
    the kept data goes with the function.
    """
    parts = {}

    def affine_bracket_kassel(i, j):
        if i[0] in CENTRAL_FAMILIES or j[0] in CENTRAL_FAMILIES:
            return Vec()
        x, m, uu = _split_affine_gen(i)
        y, n, vv = _split_affine_gen(j)
        part = parts.get((m, uu, n, vv))
        if part is None:
            f, g = RRingElem.monomial(m, uu), RRingElem.monomial(n, vv)
            cls = pairing(f, g)
            part = parts[(m, uu, n, vv)] = (
                tuple((f * g).terms.items()), cls.q0, cls.q1)
        prod, q0, q1 = part
        out = {}
        for z, c in _SL2_BRACKET.get((x, y), ()):
            for (k, w), cc in prod:
                out[(z + "1" if w else z, k)] = c * cc
        fv = _SL2_FORM.get((x, y))
        if fv:
            out[("w0", 0)] = fv * q0
            out[("w1", 0)] = fv * q1
        return Vec(out)

    return affine_bracket_kassel


# ---------------------------------------------------------------------------
# generic structural checks
# ---------------------------------------------------------------------------

def check_jacobi(bracket, gens):
    """Violations of antisymmetry and Jacobi over gens; an empty list means
    both hold.  Each is (where, residual): where is ("antisym", x, y) for a
    pair x, y of gens, x not after y, with [x, y] + [y, x] != 0, then
    ("jacobi", x, y, z) for an unordered triple whose jacobiator is nonzero.

    Each bracket is computed once per check and kept as item tuples:
    ad[i][w] holds [gens[i], w], filled up front for every ordered pair of
    gens and on first use for a mode an inner bracket reaches outside them,
    and inner[i][j] is ad[i][gens[j]] without its central families.  A pair
    or triple sums its brackets into one dict, and only a nonzero sum is
    turned into a Vec residual.
    """
    ad = [{w: tuple(bracket(x, w).terms.items()) for w in gens} for x in gens]
    inner = [[tuple((w, c) for w, c in row[y] if w[0] not in CENTRAL_FAMILIES)
              for y in gens] for row in ad]
    bad = []
    for i, j in itertools.combinations_with_replacement(range(len(gens)), 2):
        acc = dict(ad[i][gens[j]])
        for key, v in ad[j][gens[i]]:
            acc[key] = acc.get(key, 0) + v
        if any(acc.values()):
            bad.append((("antisym", gens[i], gens[j]), Vec(acc)))
    for i, j, k in itertools.combinations(range(len(gens)), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            row = ad[a]
            for w, cw in inner[b][c]:
                items = row.get(w)
                if items is None:
                    items = row[w] = tuple(bracket(gens[a], w).terms.items())
                for key, v in items:
                    acc[key] = acc.get(key, 0) + cw * v
        if any(acc.values()):
            bad.append((("jacobi", gens[i], gens[j], gens[k]), Vec(acc)))
    return bad


def check_cocycle_identity(window):
    """Violations of the 2-cocycle identities of phi1 and phi2 over the Witt
    basis with |modes| <= window, read off vir_bracket: as the Witt bracket
    is antisymmetric and satisfies Jacobi, the c1 and c2 coefficients of the
    residuals of check_jacobi on vir_bracket are phi(x,y) + phi(y,x) and
    phi(x,[y,z]) + phi(y,[z,x]) + phi(z,[x,y]) for phi1 and phi2.  Each
    violation is (("antisym", x, y) or ("jacobi", x, y, z), central family,
    value)."""
    gens = [(k, m) for k in ("d", "d1") for m in range(-window, window + 1)]
    bad = []
    for where, res in check_jacobi(vir_bracket, gens):
        for fam in ("c1", "c2"):
            value = res.terms.get((fam, 0))
            if value:
                bad.append((where, fam, value))
    return bad


def coboundary_window_test(phi, window):
    """Decide whether phi restricted to |modes| <= window is a coboundary,
    i.e. whether some linear psi satisfies phi(x,y) = psi([x,y]) there.

    Returns a dict:
      feasible    bool
      psi         {GenId: value} witnessing feasibility (free vars -> 0)
      certificate [((x, y), coeff), ...] witnessing infeasibility: the
                  combination sum coeff * [x,y] vanishes identically while
                  sum coeff * phi(x,y) != 0.  Verified before returning.
    """
    gens = [(k, m) for k in ("d", "d1") for m in range(-window, window + 1)]
    pivots = {}
    for x, y in itertools.combinations(gens, 2):
        a = witt_bracket(x, y)
        b = phi(x, y)
        combo = Vec({(x, y): 1})
        while a.terms:
            col = min(a.terms)
            if col in pivots:
                pa, pb, pcombo = pivots[col]
                c = a.terms[col]
                a = a - pa.scale(c)
                b -= c * pb
                combo = combo - pcombo.scale(c)
            else:
                inv = QQ(1) / a.terms[col]
                pivots[col] = (a.scale(inv), b * inv, combo.scale(inv))
                break
        else:
            if b:
                cert = sorted(combo.terms.items())
                _verify_certificate(phi, cert)
                return {"feasible": False, "psi": None, "certificate": cert}

    psi = {col: pb for col, (pa, pb, _) in pivots.items()}
    # pivot rows may still reference non-pivot columns; resolve by back-subst
    for col in sorted(pivots, reverse=True):
        pa, pb, _ = pivots[col]
        val = pb
        for cc, v in pa.terms.items():
            if cc != col:
                val -= v * psi.get(cc, 0)
        psi[col] = val
    return {"feasible": True, "psi": psi, "certificate": None}


def _verify_certificate(phi, cert):
    total_vec = Vec()
    total_phi = 0
    for (x, y), c in cert:
        total_vec += witt_bracket(x, y).scale(c)
        total_phi += c * phi(x, y)
    if not total_vec.is_zero() or not total_phi:
        raise AssertionError("invalid infeasibility certificate")
