"""Polynomial Fock spaces and exact application of normal-ordered operators.

States are finite rational combinations of monomials in the variables

    x_j, x1_j   (j any integer)   oscillator pairs (a, a*), (a1, a1*)
    y_j, y1_j   (j < 0)           current modes (b, b1)

tensored with a two-dimensional auxiliary space (component vpart in {0, 1})
on which the zero modes b_0 and b1_0 act by the scalar B0 and the matrix B1.

A monomial, wherever it leaves this module (FockState.terms, make_monomial,
VACUUM_MONO, seeded_states, reports), is a plain hashable tuple

    FockMonomial = (vars, vpart)
    vars         = sorted tuple of ((code, idx), exponent)

with variable codes 0 = x, 1 = x1, 2 = y, 3 = y1.  Inside the module it is
packed into one int: bit 0 holds vpart, and each variable gets an 8-bit
exponent field at a shift interned on first sight, so multiplying by a
variable is one addition and a derivative reads one field.  An exponent
past 255 raises OverflowError rather than carry.  An ImageTable packs a
state once for ModeOp.apply and commutator_apply, and each result is
unpacked once, sorting each monomial's variables, so the interning order
never reaches the output.

Single modes act in one of two gauges r in {0, 1}:

    r = 0 ("usual")    a_m  = d/dx_m (m >= 0)  else  x_m .
                       a*_m = x_{-m} . (m <= 0) else -d/dx_{-m}
    r = 1 ("natural")  a_m  = x_m .  always;  a*_m = -d/dx_{-m}  always

(same for the "1" pair on x1), while the b-family is gauge-independent:

    b_m  = y_m .          (m < 0)
    b_m  = -2m k0 d/dy_{-m}                      (m > 0),  b_0 = B0
    b1_m = y1_m .         (m < 0)
    b1_m = -(2+2m) k0 d/dy1_{-2-m} - 4(1+2m) k0 d/dy1_{-1-m}   (m >= 0)
    b1_0 additionally acts by the matrix B1 on the auxiliary component.

The tables ANN_FROM, CREATES and ANNIHILATES hold these actions once:
apply_factor applies them, _ann_candidates inverts them on a monomial's
variables, and contraction reads the coefficient off them; only the
zero-mode data B0, B1 are special-cased.

An infinite normal-ordered sum, a NormalSum over two or three families,
acts locally finitely: for each monomial only finitely many summands
contribute, and they are found exactly.  Normal ordering puts every
annihilator right of every creator, so each summand is
creators(annihilators(monomial)).  Annihilators act by derivatives and
zero-mode scalars or matrices, and creators by multiplying with
coefficient 1, so each group commutes within itself.  The sum is therefore
walked slot by slot: a slot either annihilates, with a mode read
off the monomial's variables, and is applied at once to the partial image
the later slots share; or it is left to create.  The creating slots then
take up the rest of the total mode, each within its half-line.  A sum
with an unbounded creating slot beside another creating slot has no finite
range and raises AssertionError.  The annihilation stage depends only on the
families and the monomial, which ModeOp passes as the part the families
read, so _WALKS keeps it per (families, monomial) for every total mode and
weight.  The creation stage does not depend on the monomial: a creation
plan, kept per (creating slots, mode left) in a record that _PLANS shares
among walks, lists each way to fill the mode as the last slot's mode, one
packed delta adding every created variable, and a guard of the fields it
touches.  A term clear of the guard takes the delta in one addition; one
with a touched exponent at 128 or more is multiplied variable by variable,
checked against the limit.

A ModeOp keeps its term coefficients and sum weights multiplied by den,
the lcm of their denominators, so they are ints, and _MEMO holds the
images of its parts at those ints: the kernel and the memo multiply ints
wherever kappa0, B0 and B1 allow, and only a combination's coefficients
and a nonzero residual leaving commutator_apply are divided by den.  An
operator applies part by part at the parts' int multipliers, a part
being a bare ModeOp, never the operator itself, that holds its terms and
sums of one read set: the fields of the codes their families create or
annihilate through, and the auxiliary component for b1's zero mode, by
masks that _shift keeps current.  _MEMO keys an image by the part and the
part of the monomial it reads: a part creates, differentiates and meets
the field limit only in fields it reads, so each term of the read part's
image takes back the unread rest in one addition, and monomials differing
only in unread fields share the entry and its sums' walks.  A part whose
families exclude b and b1 has an image that depends on r and its weights
alone: _PARTS keeps it by r and the weights given, with the den it was
made at, and an operator of those weights whose den that one divides
applies it at the int multiplier of their quotient, so the operators of
one gauge at every kappa0, B0 and B1 share it and its entries.

Every cache entry is valid under any parameter set, keyed by what it
reads: a part holds the set it applies under, its operator's, or RepParams(r)
if it reads r alone, and _WALKS keys carry it; _OPS keys carry a builder's
set, and _PARTS keys r.  A set is one object, so keys compare it by
identity, and operators of several sets, such as virasoro-rep's grid and
its probes, apply side by side.  Eviction only bounds memory: hold, called
once per suite run, frees what other sets left (see there), so a repeated
configuration gets its operators and their images back.

A linear combination (combine) is a tuple of (coeff, op) pairs, each op a
whole ModeOp, and adds through its operators' images; the empty one, the
zero operator, adds nothing.  An ImageTable is no module cache: it belongs
to its caller, and an image in it stays valid under any hold.
"""

import functools
import itertools
import math
import random
from collections import namedtuple

from .scalars import QQ, Vec, qq

# variable codes
X, X1, Y, Y1 = 0, 1, 2, 3

VACUUM_MONO = ((), 0)


# parameter set key -> the one RepParams of that set
_SETS = {}


class RepParams:
    """Gauge r, central value kappa0, and the zero-mode data B0, B1: the one
    rule for their values.  r is 0 or 1, kappa0 is nonzero, and B1 is a 2x2
    matrix of exact rationals with equal diagonal entries.  An equal set is
    the same object, kept in _SETS by its key, which is hashed once."""

    __slots__ = ("r", "kappa0", "B0", "B1", "key")

    def __new__(cls, r=0, kappa0=1, B0=1, B1=((1, 2), (3, 1))):
        if r not in (0, 1):
            raise ValueError("r must be 0 or 1, got %r" % (r,))
        kappa0 = qq(kappa0)
        if not kappa0:
            raise ValueError("kappa0 must be nonzero")
        (a, b), (c, d) = B1
        B1 = ((qq(a), qq(b)), (qq(c), qq(d)))
        if B1[0][0] != B1[1][1]:
            raise ValueError("B1 must have equal diagonal entries")
        key = (int(r), kappa0, qq(B0), B1)
        self = _SETS.get(key)
        if self is None:
            self = _SETS[key] = object.__new__(cls)
            self.r, self.kappa0, self.B0, self.B1 = self.key = key
        return self

    def __reduce__(self):  # a copy is the one object of its set
        return RepParams, self.key

    def __repr__(self):
        return "RepParams(r=%d, kappa0=%s, B0=%s, B1=%r)" % self.key


class FockState(Vec):
    """Finite rational combination of Fock monomials."""

    __slots__ = ()

    @staticmethod
    def vacuum():
        return FockState({VACUUM_MONO: 1})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*%r" % (c, mono) for mono, c in sorted(self.terms.items()))


def make_monomial(var_powers, vpart=0):
    """Build a FockMonomial from {(code, idx): exponent}."""
    vars_tuple = tuple(
        sorted((key, e) for key, e in var_powers.items() if e)
    )
    return (vars_tuple, vpart)


# Packed monomials: bit 0 is vpart, and each variable owns an exponent field
# of _BITS bits at the shift it is given on first sight.  Shifts are never
# reused, so a packed monomial stays valid for the life of the process.
_BITS = 8
_LIMIT = (1 << _BITS) - 1
_SHIFT = {}                 # (code, idx) -> shift of its field
_FIELD_VAR = []             # field number -> (code, idx)
# read set -> mask of the fields it reads: a read set has bit c for each
# variable code c, so _READ_FIELDS[1 << c] masks the fields of code c, and
# bit _AUX for the auxiliary component, read as bit 0
_AUX = 1 << 4
_READ_FIELDS = [1 if i & _AUX else 0 for i in range(2 * _AUX)]
# the read sets of b and b1, the families whose actions read kappa0, B0, B1
_CURRENT = 1 << Y | 1 << Y1 | _AUX


def _shift(var):
    s = _SHIFT.get(var)
    if s is None:
        s = _SHIFT[var] = 1 + _BITS * len(_FIELD_VAR)
        _FIELD_VAR.append(var)
        field = _LIMIT << s
        for i in range(len(_READ_FIELDS)):
            if i >> var[0] & 1:
                _READ_FIELDS[i] |= field
    return s


def _fields(p):
    """[(var, exponent)] of the variables whose fields are set in p, which
    must have bit 0 clear."""
    out = []
    while p:
        k = ((p & -p).bit_length() - 2) >> 3
        s = 1 + _BITS * k
        e = (p >> s) & _LIMIT
        out.append((_FIELD_VAR[k], e))
        p -= e << s
    return out


def _pack(mono):
    vars_tuple, p = mono
    for var, e in vars_tuple:
        if e > _LIMIT:
            raise OverflowError("exponent %d of %r exceeds %d" % (e, var, _LIMIT))
        p += e << _shift(var)
    return p


def _unpack(p):
    return (tuple(sorted(_fields(p & ~1))), p & 1)


def _div(c, den):
    """c / den, canonical under qq, with no rational built when den divides
    an int c."""
    if type(c) is int and not c % den:
        return c // den
    return qq(QQ(c) / den)


def _state(packed_terms, den=1):
    """The FockState of a {packed monomial: coeff} dict divided by den, each
    coefficient canonical under qq."""
    st = FockState()
    st.terms = {_unpack(p): _div(c, den) for p, c in packed_terms.items()}
    return st


def _mono_mul(p, var):
    s = _SHIFT.get(var) or _shift(var)
    if (p >> s) & _LIMIT == _LIMIT:
        raise OverflowError("exponent of %r exceeds %d" % (var, _LIMIT))
    return p + (1 << s)


def _mono_diff(p, var):
    """(monomial, multiplicity) after d/d var, or None."""
    s = _SHIFT.get(var)
    e = (p >> s) & _LIMIT if s else 0
    return (p - (1 << s), e) if e else None


# Smallest annihilating mode of each family, per gauge r.  A mode m below it
# creates: it multiplies by the variable (code, sign * m), with
# (code, sign) = CREATES[fam] and coefficient 1.  A mode m at or above it
# annihilates: it acts by the derivatives ANNIHILATES[fam], each
# (code, s, t, coeff) meaning coeff(m, kappa0) * d/d(code, s * m + t), and
# at m = 0 the families b and b1 also act by the zero-mode scalar B0 and
# matrix B1.  -inf: the family never creates; +inf: every mode creates (the
# unstarred oscillators at r = 1).
_INF = float("inf")
ANN_FROM = (
    {"a": 0, "a1": 0, "a*": 1, "a1*": 1, "b": 0, "b1": 0},
    {"a": _INF, "a1": _INF, "a*": -_INF, "a1*": -_INF, "b": 0, "b1": 0},
)
CREATES = {"a": (X, 1), "a1": (X1, 1), "a*": (X, -1), "a1*": (X1, -1),
           "b": (Y, 1), "b1": (Y1, 1)}
ANNIHILATES = {
    "a": ((X, 1, 0, lambda m, k0: 1),),
    "a1": ((X1, 1, 0, lambda m, k0: 1),),
    "a*": ((X, -1, 0, lambda m, k0: -1),),
    "a1*": ((X1, -1, 0, lambda m, k0: -1),),
    "b": ((Y, -1, 0, lambda m, k0: -2 * m * k0),),
    "b1": ((Y1, -1, -2, lambda m, k0: -(2 + 2 * m) * k0),
           (Y1, -1, -1, lambda m, k0: -4 * (1 + 2 * m) * k0)),
}


def apply_factor(fam, m, mono, params):
    """Single mode on a packed monomial -> list of (packed monomial, coeff)."""
    if fam not in ANNIHILATES:
        raise ValueError("unknown mode family %r" % (fam,))
    if m < ANN_FROM[params.r][fam]:
        code, sign = CREATES[fam]
        return [(_mono_mul(mono, (code, sign * m)), 1)]
    out = []
    for code, s, t, coeff in ANNIHILATES[fam]:
        hit = _mono_diff(mono, (code, s * m + t))
        c = hit and qq(coeff(m, params.kappa0) * hit[1])
        if c:
            out.append((hit[0], c))
    if m == 0 and fam == "b" and params.B0:
        out.append((mono, params.B0))
    elif m == 0 and fam == "b1":
        vp = mono & 1
        out += [(mono - vp + col, c) for col, c in enumerate(params.B1[vp]) if c]
    return out


def apply_product(factors, mono, params):
    """Normal-ordered product of modes on a packed monomial.

    Creation factors move left (original order kept within each group), so
    application order is: annihilators right-to-left first, then creators.
    """
    if len(factors) == 1:
        (fam, m), = factors
        return apply_factor(fam, m, mono, params)
    ann_from = ANN_FROM[params.r]
    ordered = [f for f in factors if f[1] < ann_from[f[0]]]
    ordered += [f for f in factors if f[1] >= ann_from[f[0]]]
    current = [(mono, 1)]
    for fam, m in reversed(ordered):
        nxt = []
        for mo, c in current:
            for mo2, c2 in apply_factor(fam, m, mo, params):
                nxt.append((mo2, c * c2))
        if not nxt:
            return []
        current = nxt
    return current


# ---------------------------------------------------------------------------
# infinite normal-ordered sums
# ---------------------------------------------------------------------------

# sum over modes m_i of two or three families fams with total M of
# (c0 + c1 m_0) :prod_i fams[i](m_i):
NormalSum = namedtuple("NormalSum", "fams M c0 c1")


def _ann_candidates(fam, mono, params):
    """Modes on the annihilation side that can act nonzero on the monomial:
    ANNIHILATES inverted on its variables, plus the zero mode of b and b1."""
    low = ANN_FROM[params.r][fam]
    out = {0} if fam in ("b", "b1") else set()
    for code, s, t, _coeff in ANNIHILATES[fam]:
        for (_c, idx), _e in _fields(mono & _READ_FIELDS[1 << code]):
            m = s * (idx - t)
            if m >= low:
                out.add(m)
    return out


def _plan(creators, highs, rest):
    """The creation plan of the creating slots (creators, highs) at total
    mode rest, at most the sum of highs: one (mode of the last slot, delta,
    guard) per mode tuple summing to rest, each mode at most its slot's
    bound in highs.  delta adds one to the exponent of each variable the
    tuple creates, and guard holds bit 7 of each field it touches: a
    monomial clear of guard takes delta without reaching the field limit,
    since at most three slots create."""
    if len(highs) > 1 and _INF in highs:
        raise AssertionError("cannot bound creation range")
    plan = [(None, 0, 0, rest)]
    for i, ((code, sign), high) in enumerate(zip(creators, highs)):
        below = sum(highs[i + 1:])
        nxt = []
        for _, delta, guard, left in plan:
            # the last slot takes what the others leave, never above its bound
            modes = range(left - below, high + 1) if i < len(highs) - 1 else (left,)
            for m in modes:
                s = _SHIFT.get((code, sign * m)) or _shift((code, sign * m))
                nxt.append((m, delta + (1 << s), guard | 128 << s, left - m))
        plan = nxt
    return [entry[:3] for entry in plan if not entry[3]]


# family -> the bits of the codes it creates or annihilates through (a sum
# of distinct bits), and for b1, whose zero mode acts on it, the auxiliary
# component
_FAMILY_READ = {
    fam: sum({1 << CREATES[fam][0]} | {1 << code for code, _s, _t, _c in ANNIHILATES[fam]})
    | (_AUX if fam == "b1" else 0)
    for fam in CREATES}


def _read_set(fams):
    """The read set of fams: the union of their families' read sets."""
    i = 0
    for fam in fams:
        i |= _FAMILY_READ[fam]
    return i


# (fams, packed monomial, params) -> the branches of _walk under params;
# (creators, highs) -> the record (creators, highs, {rest: plan}) that
# branches share, parameter-free but cleared with the walks at another r.
_WALKS = {}
_PLANS = {}


def _walk(fams, mono, params):
    """The annihilation stage of every sum over fams on mono, whatever its
    total mode and weight, where mono is the part of a monomial that fams
    read: a list of branches

        (partial image, annihilated mode total, creating slots' record,
         the sum of their highest modes, mode of slot 0 or None)

    The slots are walked right to left, as apply_product applies them,
    ending with slot 0.  A slot either annihilates with a mode read off
    mono, applied at once so that the slots after it share the partial
    image, or is left to create.
    """
    ann_from = ANN_FROM[params.r]
    branches = [([(mono, 1)], 0, (), (), 0, None)]
    for i in range(len(fams) - 1, -1, -1):
        fam = fams[i]
        low = ann_from[fam]
        cands = _ann_candidates(fam, mono, params)
        nxt = []
        for terms, total, creators, highs, top, _ in branches:
            if low > -_INF:
                nxt.append((terms, total, creators + (CREATES[fam],),
                            highs + (low - 1,), top + low - 1, None))
            for m in cands:
                image = [(mo2, c * c2) for mo, c in terms
                         for mo2, c2 in apply_factor(fam, m, mo, params)]
                if image:
                    nxt.append((image, total + m, creators, highs, top,
                                m if i == 0 else None))
        if not nxt:
            return []
        branches = nxt
    return [(terms, total, _PLANS.setdefault((creators, highs), (creators, highs, {})),
             top, p) for terms, total, creators, highs, top, p in branches]


def _apply_sum(s, mono, params, acc):
    """Accumulate the NormalSum s = (fams, M, c0, c1), the sum over modes
    m_i of fams with total M of (c0 + c1 m_0) :prod_i fam_i(m_i):, applied
    to mono into the dict acc.

    Each term is creators(annihilators(mono)).  The annihilation branches
    come from _walk, once per fams and mono; the creating slots of each
    then fill the rest of M within their half-lines, slot 0 being the last
    of them when it creates, by the plan _plan makes once per (slots, rest).
    ModeOp.apply_mono passes a part's read part, which is what each of the
    part's sums reads, and its set, so the walks are shared by every
    monomial that differs from it only in unread fields.
    """
    fams, M, c0, c1 = s
    key = (fams, mono, params)
    branches = _WALKS.get(key)
    if branches is None:
        branches = _WALKS[key] = _walk(fams, mono, params)
    for terms, total, slots, top, p in branches:
        rest = M - total
        if rest > top:
            continue
        if p is not None and not c0 + c1 * p:
            continue
        plan = slots[2].get(rest)
        if plan is None:
            plan = slots[2][rest] = _plan(slots[0], slots[1], rest)
        for last, delta, guard in plan:
            w = c0 + c1 * (last if p is None else p)
            if not w:
                continue
            for mo, c in terms:
                if mo & guard:  # an exponent at 128 or more: add unit by unit
                    for var, k in _fields(delta):
                        for _ in range(k):
                            mo = _mono_mul(mo, var)
                else:
                    mo += delta
                # Vec.add_term inlined: the kernel's per-term loop
                v = acc.get(mo, 0) + w * c
                if v:
                    acc[mo] = v
                else:
                    acc.pop(mo, None)


# one entry point per arity, each its own function, so that a tracer can
# count the two-family and the three-family sums apart
def apply_quad_sum(s, mono, params, acc):
    """Accumulate (a NormalSum of two families applied to a packed monomial)
    into the dict acc."""
    _apply_sum(s, mono, params, acc)


def apply_cubic_sum(s, mono, params, acc):
    """Accumulate (a NormalSum of three families applied to a packed
    monomial) into the dict acc."""
    _apply_sum(s, mono, params, acc)


def naive_sum_apply(sum_op, state, params, box):
    """Brute-force windowed application, for cross-checking the smart
    enumeration: apply_product on every mode tuple whose modes but the last
    lie in [-box, box], the last taking the rest of M.  Only valid when box
    exceeds every contributing mode."""
    fams, M, c0, c1 = sum_op
    out = FockState()
    for mono, c in state.terms.items():
        mono = _pack(mono)
        for modes in itertools.product(range(-box, box + 1), repeat=len(fams) - 1):
            w = c0 + c1 * modes[0]
            if not w:
                continue
            factors = tuple(zip(fams, modes + (M - sum(modes),)))
            for mo, cc in apply_product(factors, mono, params):
                out.add_term(mo, c * w * cc)
    return _state(out.terms)


# ---------------------------------------------------------------------------
# composite operators
# ---------------------------------------------------------------------------

_MEMO = {}              # (part, packed monomial) -> image
_PARTS = {}             # (r, weights given) -> part reading no b or b1
_OPS = {}               # (build, args) -> the operator built_once kept
_HELD = None            # the parameter set of the last hold


def hold(params):
    """Free what the caches keep for sets other than params, the set of a
    suite run.  Unless it is the last hold's, clear _OPS and drop in place,
    at the same r, the memo entries and walks whose families include b or
    b1, whose actions read kappa0, B0 and B1, and at another r everything."""
    global _HELD
    held = _HELD
    if params is not held:
        _OPS.clear()
        if held is None or params.r != held.r:
            _MEMO.clear()
            _PARTS.clear()
            _WALKS.clear()
            _PLANS.clear()
        else:
            for key in [key for key in _MEMO if key[0].read & _CURRENT]:
                del _MEMO[key]
            for key in [key for key in _WALKS if "b" in key[0] or "b1" in key[0]]:
                del _WALKS[key]
        _HELD = params


def built_once(build):
    """build, with the operator it returns for its arguments, a parameter
    set last, kept in _OPS until a hold of another set frees it."""
    @functools.wraps(build)
    def builder(*args):
        op = _OPS.get((build, args))
        if op is None:
            op = _OPS[build, args] = build(*args)
        return op
    return builder


class ModeOp:
    """A finite combination of explicit mode products and normal-ordered
    infinite sums, at fixed parameters, kept over one denominator.

    terms: tuple of (coeff, ((family, mode), ...)) -- () is the identity
    sums:  tuple of NormalSum
    den:   the lcm of the denominators of the term coefficients and sum
           weights given; terms and sums keep them multiplied by den, as ints

    apply takes and returns a FockState of tuple monomials; _apply and
    apply_mono work on packed ones.  parts is ((part, mult), ...): the
    operator's terms and sums grouped by the read sets of their own
    families, in first-seen order, each group a part applied at the int
    multiplier mult.  A part is a bare ModeOp with terms, sums, den,
    read and params alone: den is that of the operator that made it, so that
    part.den * mult == den, and read is the read set of its families.  A
    part over b or b1 is its operator's own, with its params.  Any other
    has an image that depends on r and its weights alone, so it holds
    RepParams(r), _PARTS keeps it by r and the weights given, and an
    operator of the same weights at that r, at any kappa0, B0 and B1, whose
    den the part's divides shares it at the quotient; any other makes its
    own.  A part is its own key in _MEMO for its images on the parts of
    packed monomials it reads, and an operator is never one.  ModeOp keeps
    identity equality: equal operators share entries by sharing parts,
    through _PARTS or built_once.
    """

    __slots__ = ("terms", "sums", "params", "den", "read", "parts")

    def __init__(self, terms, sums, params):
        terms = [(qq(c), tuple(fs)) for c, fs in terms if c]
        sums = tuple(sums)
        given = terms + list(sums)
        loose = [w for s in sums for w in (s.c0, s.c1) if type(w) is not int]
        loose += [c for c, _fs in terms if type(c) is not int]
        den = self.den = math.lcm(*(w.denominator for w in loose))
        if loose:
            terms = [(qq(c * den), fs) for c, fs in terms]
            sums = tuple(s._replace(c0=qq(s.c0 * den), c1=qq(s.c1 * den)) for s in sums)
        self.terms = tuple(terms)
        self.sums = sums
        self.params = params
        used = [{f for f, _m in fs} for _c, fs in self.terms]
        used += [set(s.fams) for s in sums]
        fams = set().union(*used)
        if not fams <= ANNIHILATES.keys():
            raise ValueError("unknown mode family %r" % min(fams - ANNIHILATES.keys()))
        groups = {}
        for i, fs in enumerate(used):
            groups.setdefault(_read_set(fs), []).append(i)
        n, items, parts = len(terms), self.terms + sums, []
        for read, group in groups.items():
            key = None if read & _CURRENT else (params.r, tuple([given[i] for i in group]))
            part = key and _PARTS.get(key)
            if not part or den % part.den:
                # none kept, or made at a den that does not divide this one
                part = object.__new__(ModeOp)
                part.terms = tuple([items[i] for i in group if i < n])
                part.sums = tuple([items[i] for i in group if i >= n])
                part.read, part.den = read, den
                part.params = RepParams(params.r) if key else params
                if key:
                    _PARTS.setdefault(key, part)
            parts.append((part, den // part.den))
        self.parts = tuple(parts)

    def apply_mono(self, mono):
        """The image of a packed monomial under the part self at the int
        weights it keeps, ((packed monomial, coeff), ...), through _MEMO,
        made under the set the part holds.  _apply calls it on each part
        with the part of each monomial that the part reads, so monomials
        differing only in fields a part does not read share its entry."""
        key = (self, mono)
        cached = _MEMO.get(key)
        if cached is None:
            params = self.params
            acc = {}
            for coeff, factors in self.terms:
                for mo, c in apply_product(factors, mono, params):
                    # Vec.add_term inlined: per term of a miss
                    s = acc.get(mo, 0) + coeff * c
                    if s:
                        acc[mo] = s
                    else:
                        acc.pop(mo, None)
            for sum_op in self.sums:
                if len(sum_op.fams) == 2:
                    apply_quad_sum(sum_op, mono, params, acc)
                else:
                    apply_cubic_sum(sum_op, mono, params, acc)
            cached = tuple(acc.items())
            _MEMO[key] = cached
        return cached

    def apply(self, state):
        return _state(ImageTable(state).image(self), self.den)

    def _apply(self, packed_terms, out, sign=1):
        """Add sign (1 or -1) times the image of a packed dict under
        den * self into out; return out.  Part by part, each monomial is
        looked up by what the part reads, each coefficient taken at the
        part's multiplier, and each image term takes back the rest."""
        items = packed_terms.items()
        if sign != 1:
            items = [(mono, -c) for mono, c in items]
        scaled, at = items, 1
        for part, mult in self.parts:
            # the coefficients at the multiplier, made once for a run of
            # parts at one multiplier
            if mult != at:
                scaled = items if mult == 1 else [(mono, mult * c) for mono, c in items]
                at = mult
            mask = _READ_FIELDS[part.read]
            for mono, c in scaled:
                rel = mono & mask
                off = mono - rel
                for mo, cc in part.apply_mono(rel):
                    mo += off
                    # Vec.add_term inlined: per term of every apply
                    s = out.get(mo, 0) + c * cc
                    if s:
                        out[mo] = s
                    else:
                        out.pop(mo, None)
        return out


def combine(pairs):
    """The operator sum of c * op over the (c, op) pairs, op a ModeOp, as a
    tuple of (coeff, op) with each op once, in first-seen order, and zero
    coefficients and empty operators dropped; () is the zero operator."""
    merged = {}
    for c, op in pairs:
        merged[op] = merged.get(op, 0) + c
    return tuple((qq(c), op) for op, c in merged.items() if c and (op.terms or op.sums))


class ImageTable:
    """One FockState s, packed once, and per ModeOp op the packed image of
    op.den * op(s), made once through _apply and its memo entries.  A
    caller that keeps the table for a grid of commutators applies each
    operator, right-hand sides' included, to s once."""

    def __init__(self, state):
        self.packed = {_pack(mono): c for mono, c in state.terms.items()}
        self.images = {}

    def image(self, op):
        """The packed image of op.den * op(s)."""
        img = self.images.get(op)
        if img is None:
            img = self.images[op] = op._apply(self.packed, {})
        return img

    def add(self, pairs, out, scale):
        """Add scale * the combination pairs applied to s into the packed
        dict out, from its operators' images; return out."""
        for coeff, op in pairs:
            coeff = _div(coeff * scale, op.den)
            for mo, c in self.image(op).items():
                # Vec.add_term inlined: per term of every right-hand side
                v = out.get(mo, 0) + coeff * c
                if v:
                    out[mo] = v
                else:
                    out.pop(mo, None)
        return out


def commutator_apply(opA, opB, state, rhs=None, rhs_ba=None):
    """A(B(s)) - B(A(s)) - rhs(s), rhs optional, in one packed dict, built
    once and not at all when opA is opB; given rhs_ba, also the residual of
    the other order, the same commutator negated less rhs_ba(s), as a pair.

    rhs and rhs_ba are combinations, tuples of (coeff, ModeOp).  state is
    a FockState or the ImageTable of one, whose images the inner operators
    and the right-hand sides' operators are read from; a FockState gets a
    table for this call.  The dicts hold den_A * den_B times the
    residuals: the outer operators apply at the other's den to the inner
    images of den * op(s), and the right-hand sides add at -den_A * den_B,
    so operators kept over denominators add ints.  _state divides a
    nonzero residual back, and a zero one unpacks and divides nothing."""
    table = state if isinstance(state, ImageTable) else ImageTable(state)
    out = {}
    if opA is not opB:
        opA._apply(table.image(opB), out)
        opB._apply(table.image(opA), out, -1)
    den = opA.den * opB.den
    if rhs_ba is not None:
        out_ba = {mono: -c for mono, c in out.items()}
        table.add(rhs_ba, out_ba, -den)
    if rhs is not None:
        table.add(rhs, out, -den)
    if rhs_ba is None:
        return _state(out, den)
    return _state(out, den), _state(out_ba, den)


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def contraction(famA, famB, m, n, params):
    """Scalar with A_m B_n = :A_m B_n: + contraction * Id on every state:
    when A_m annihilates and B_n creates, the coefficient in A_m of the
    derivative by the variable B_n creates, and 0 otherwise."""
    for fam in (famA, famB):
        if fam not in ANNIHILATES:
            raise ValueError("unknown mode family %r" % (fam,))
    ann_from = ANN_FROM[params.r]
    if m < ann_from[famA] or n >= ann_from[famB]:
        return 0
    code, sign = CREATES[famB]
    return sum(coeff(m, params.kappa0) for c, s, t, coeff in ANNIHILATES[famA]
               if (c, s * m + t) == (code, sign * n))


def _commutator_value(famA, famB, m, n, params):
    """The c-number [A_m, B_n] in the oscillator / current algebra."""
    k0 = params.kappa0
    pair = (famA, famB)
    if pair in (("a", "a*"), ("a1", "a1*")):
        return 1 if m + n == 0 else 0
    if pair in (("a*", "a"), ("a1*", "a1")):
        return -1 if m + n == 0 else 0
    if pair == ("b", "b"):
        return -2 * m * k0 if m + n == 0 else 0
    if pair == ("b1", "b1"):
        out = 0
        if m + n == -2:
            out += (n - m) * k0
        if m + n == -1:
            out += 4 * (n - m) * k0
        return out
    return 0


def contraction_check(params, window, states):
    """Verify both contraction identities exactly; returns violations.

    (i)  contraction(A,B,m,n) - contraction(B,A,n,m) = [A_m, B_n]
    (ii) A_m(B_n(s)) - :A_m B_n:(s) = contraction(A,B,m,n)*s on each state
    """
    pairs = [
        ("a", "a*"), ("a*", "a"), ("a1", "a1*"), ("a1*", "a1"),
        ("b", "b"), ("b1", "b1"),
        ("a", "a1*"), ("a1", "a*"), ("a", "b"), ("b", "b1"), ("b1", "b"),
    ]
    bad = []
    for famA, famB in pairs:
        for m in range(-window, window + 1):
            for n in range(-window, window + 1):
                c_ab = contraction(famA, famB, m, n, params)
                c_ba = contraction(famB, famA, n, m, params)
                comm = _commutator_value(famA, famB, m, n, params)
                if c_ab - c_ba != comm:
                    bad.append((("identity", famA, famB, m, n), c_ab - c_ba - comm))
                op_a = ModeOp(((1, ((famA, m),)),), (), params)
                op_b = ModeOp(((1, ((famB, n),)),), (), params)
                normal_ab = ModeOp(((1, ((famA, m), (famB, n))),), (), params)
                for idx, s in enumerate(states):
                    plain = op_a.apply(op_b.apply(s))
                    resid = plain - normal_ab.apply(s) - s.scale(c_ab)
                    if not resid.is_zero():
                        bad.append((("states", famA, famB, m, n, idx), resid))
    return bad


# ---------------------------------------------------------------------------
# seeded states
# ---------------------------------------------------------------------------

def seeded_states(seed, count, max_degree=3):
    """Deterministic pseudo-random polynomial states for spot checks."""
    rng = random.Random(seed)
    pool = [(X, j) for j in range(-4, 5)]
    pool += [(X1, j) for j in range(-4, 5)]
    pool += [(Y, j) for j in range(-4, 0)]
    pool += [(Y1, j) for j in range(-4, 0)]
    states = []
    for _ in range(count):
        st = FockState()
        for _ in range(rng.randint(1, 3)):
            powers = {}
            for _ in range(rng.randint(0, max_degree)):
                var = rng.choice(pool)
                powers[var] = powers.get(var, 0) + 1
            mono = make_monomial(powers, rng.randint(0, 1))
            c = rng.randint(1, 9) * rng.choice((1, -1))
            st += FockState({mono: c})
        if st.is_zero():
            st = FockState.vacuum()
        states.append(st)
    return states
