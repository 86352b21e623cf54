"""Two-parameter family of modules over the Witt-type algebra.

For a weight alpha, the module U_alpha has basis {a_i, abar_i : i integer}
(written 𝐚_i, 𝐚̄_i elsewhere), with the action

    d_n  . a_i    = (alpha+i) (a_{i+n+1} + 4 a_{i+n})
    d_n  . abar_i = (alpha+i+1) abar_{n+i+1} + (4 alpha + 4i + 2) abar_{n+i}
    d1_n . a_i    = (alpha+i) abar_{n+i-1}
    d1_n . abar_i = (alpha+i+1) a_{n+i+1} + 2 (2 alpha + 2i + 1) a_{n+i}

Vectors of U_alpha are scalars.Vec combinations with keys ("a", i) and
("abar", i).  density_module_check verifies [x, y].v = x.(y.v) - y.(x.v)
exactly on a window of generators and basis vectors.
"""

import functools
import itertools

from .liealg import witt_bracket
from .scalars import QQ, Vec, qq


def density_act(gen, vec, alpha):
    """Action of the Witt generator gen = ("d"|"d1", n) on a vector of U_alpha."""
    kind, n = gen
    out = Vec()
    for (base, i), c in vec.terms.items():
        if kind == "d" and base == "a":
            w = c * (alpha + i)
            out.add_term(("a", i + n + 1), w)
            out.add_term(("a", i + n), 4 * w)
        elif kind == "d" and base == "abar":
            out.add_term(("abar", n + i + 1), c * (alpha + i + 1))
            out.add_term(("abar", n + i), c * (4 * alpha + 4 * i + 2))
        elif kind == "d1" and base == "a":
            out.add_term(("abar", n + i - 1), c * (alpha + i))
        elif kind == "d1" and base == "abar":
            out.add_term(("a", n + i + 1), c * (alpha + i + 1))
            out.add_term(("a", n + i), c * 2 * (2 * alpha + 2 * i + 1))
        else:
            raise ValueError("bad generator or basis key: %r, %r" % (gen, base))
    return out


def density_module_check(alpha, window):
    """All module-axiom violations on the window; empty list means U_alpha
    is a module there.

    Checks [x, y].v == x.(y.v) - y.(x.v) for Witt generators x, y with
    |mode| <= window and basis vectors v with |index| <= window.  With q
    the denominator of alpha, q (g . key) has integer coefficients; it is
    computed once per (generator, basis key) and kept as item tuples.
    Each (x, y, v) sums q^2 ([x, y].v - x.(y.v) + y.(x.v)) into one int
    dict, and only a nonzero sum is divided by q^2 into a Vec residual.
    """
    q = qq(alpha).denominator
    gens = [(k, m) for k in ("d", "d1") for m in range(-window, window + 1)]
    basis = [(b, i) for b in ("a", "abar") for i in range(-window, window + 1)]
    act = functools.cache(lambda gen, key: tuple(
        density_act(gen, Vec({key: q}), alpha).terms.items()))
    bad = []
    for x, y in itertools.combinations(gens, 2):
        via_bracket = [(gen, q * c) for gen, c in witt_bracket(x, y).terms.items()]
        for key in basis:
            acc = {}
            for gen, c in via_bracket:
                for k, v in act(gen, key):
                    acc[k] = acc.get(k, 0) + c * v
            for k1, c in act(y, key):
                for k, v in act(x, k1):
                    acc[k] = acc.get(k, 0) - c * v
            for k1, c in act(x, key):
                for k, v in act(y, k1):
                    acc[k] = acc.get(k, 0) + c * v
            if any(acc.values()):
                bad.append(((x, y, key),
                            Vec({k: QQ(v, q * q) for k, v in acc.items()})))
    return bad
