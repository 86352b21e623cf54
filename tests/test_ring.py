"""Ring arithmetic, the generating derivation, and the geometric bracket."""

from hypothesis import given, settings, strategies as st

from threepv.ring import (
    RRingElem,
    apply_D,
    basis_derivation,
    der_commutator,
    der_decompose,
    witt_bracket_geometric,
)
from threepv.scalars import Vec


def elem(terms):
    return RRingElem(terms)


# --- strategies -----------------------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9)
monos = st.tuples(st.integers(min_value=-5, max_value=5), st.integers(min_value=0, max_value=1))
ring_elems = st.dictionaries(monos, coeffs, max_size=4).map(elem)


# --- multiplication -------------------------------------------------------

def test_u_squared_reduces():
    u = RRingElem.monomial(0, 1)
    assert u * u == elem({(2, 0): 1, (1, 0): 4})


def test_mul_example_with_u_parts():
    # (t^-1 u) * (t u + 2) = u^2 + 2 t^-1 u = t^2 + 4t + 2 t^-1 u
    a = elem({(-1, 1): 1})
    b = elem({(1, 1): 1, (0, 0): 2})
    assert a * b == elem({(2, 0): 1, (1, 0): 4, (-1, 1): 2})


@given(ring_elems, ring_elems)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(ring_elems, ring_elems, ring_elems)
@settings(max_examples=50)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(ring_elems, ring_elems, ring_elems)
@settings(max_examples=50)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


# --- the derivation D -----------------------------------------------------

def test_apply_D_on_powers_of_t():
    assert apply_D(RRingElem.t_pow(3)) == elem({(2, 1): 3})
    assert apply_D(RRingElem.t_pow(-2)) == elem({(-3, 1): -2})
    assert apply_D(RRingElem.monomial(0, 0)).is_zero()


def test_apply_D_on_u():
    # D(u) = t + 2
    assert apply_D(RRingElem.monomial(0, 1)) == elem({(1, 0): 1, (0, 0): 2})


def test_apply_D_on_u_monomials():
    # D(t^k u) = (k+1) t^(k+1) + (4k+2) t^k
    assert apply_D(elem({(2, 1): 1})) == elem({(3, 0): 3, (2, 0): 10})
    assert apply_D(elem({(-1, 1): 1})) == elem({(-1, 0): -2})


@given(ring_elems, ring_elems)
@settings(max_examples=50)
def test_apply_D_leibniz(a, b):
    lhs = apply_D(a * b)
    rhs = apply_D(a) * b + a * apply_D(b)
    assert lhs == rhs


@given(ring_elems, ring_elems)
def test_apply_D_linear(a, b):
    assert apply_D(a + b) == apply_D(a) + apply_D(b)


# --- bracket of derivations ------------------------------------------------

def expected_witt_bracket(i, j):
    """Frozen closed form for the bracket of basis derivations."""
    (ki, m), (kj, n) = i, j
    v = Vec()
    if ki == "d" and kj == "d":
        v.terms = {("d", m + n + 1): n - m, ("d", m + n): 4 * (n - m)}
    elif ki == "d1" and kj == "d1":
        v.terms = {("d", m + n - 1): n - m}
    elif ki == "d" and kj == "d1":
        v.terms = {("d1", m + n + 1): n - m - 1, ("d1", m + n): 4 * n - 4 * m - 2}
    else:
        w = expected_witt_bracket(j, i)
        v.terms = {key: -c for key, c in w.terms.items()}
    drop_zero = [key for key, c in v.terms.items() if not c]
    for key in drop_zero:
        del v.terms[key]
    return v


def test_bracket_small_cases():
    assert witt_bracket_geometric(("d", 0), ("d", 1)) == Vec(
        {("d", 2): 1, ("d", 1): 4}
    )
    assert witt_bracket_geometric(("d1", 0), ("d1", 1)) == Vec({("d", 0): 1})
    assert witt_bracket_geometric(("d", 0), ("d1", 0)) == Vec(
        {("d1", 1): -1, ("d1", 0): -2}
    )


def test_bracket_matches_closed_form_window_12():
    kinds = ("d", "d1")
    for m in range(-12, 13):
        for n in range(-12, 13):
            for ki in kinds:
                for kj in kinds:
                    got = witt_bracket_geometric((ki, m), (kj, n))
                    want = expected_witt_bracket((ki, m), (kj, n))
                    assert got == want, ((ki, m), (kj, n), got, want)


def test_bracket_antisymmetric_window_6():
    kinds = ("d", "d1")
    for m in range(-6, 7):
        for n in range(-6, 7):
            for ki in kinds:
                for kj in kinds:
                    ab = witt_bracket_geometric((ki, m), (kj, n))
                    ba = witt_bracket_geometric((kj, n), (ki, m))
                    assert (ab + ba).is_zero()


def bracket_of_vectors(v, w):
    out = Vec()
    for i, ci in v.terms.items():
        for j, cj in w.terms.items():
            piece = witt_bracket_geometric(i, j)
            out += piece.scale(ci * cj)
    return out


def test_bracket_jacobi_window_4():
    basis = [("d", m) for m in range(-4, 5)] + [("d1", m) for m in range(-4, 5)]
    singles = {i: Vec({i: 1}) for i in basis}
    import itertools

    for x, y, z in itertools.combinations(basis, 3):
        vx, vy, vz = singles[x], singles[y], singles[z]
        total = (
            bracket_of_vectors(vx, bracket_of_vectors(vy, vz))
            + bracket_of_vectors(vy, bracket_of_vectors(vz, vx))
            + bracket_of_vectors(vz, bracket_of_vectors(vx, vy))
        )
        assert total.is_zero(), (x, y, z, total)


def test_der_decompose_round_trip():
    v = witt_bracket_geometric(("d", 2), ("d1", -3))
    acc = RRingElem()
    for (kind, mode), c in v.terms.items():
        acc = acc + basis_derivation(kind, mode).scale(c)
    assert der_decompose(acc) == v


def test_der_commutator_on_scaled_input():
    # t * d_0 has coefficient t*u, i.e. equals d_1, so
    # [t d_0, d_0] = [d_1, d_0] = -(d_2 + 4 d_1)
    A = RRingElem.t_pow(1) * basis_derivation("d", 0)
    B = basis_derivation("d", 0)
    got = der_decompose(der_commutator(A, B))
    assert got == Vec({("d", 2): -1, ("d", 1): -4})
