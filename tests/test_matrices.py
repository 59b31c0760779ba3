import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from modclose import (
    IntMatrix,
    ZZ,
    Zmod,
    kernel_basis,
    present_module,
    smith_normal_form,
    solve_linear,
)
from modclose.elements import (
    ModuleElement,
    whole_submodule,
)
from modclose.lattices import Lattice
from modclose import matrices
from modclose.matrices import _snf_with_inverses
from modclose.cli import main
from modclose.oracles import det_cofactor, minor_gcd

from oracles import (
    _solve_over_z,
    det_bareiss,
    identity_matrix,
    kernel_by_modulus_columns,
    zero_matrix,
)


def snf_invariants_hold(a):
    res = smith_normal_form(a)
    assert (res.u @ a @ res.v) == res.d
    assert abs(det_cofactor([list(r) for r in res.u.entries])) == 1
    assert abs(det_cofactor([list(r) for r in res.v.entries])) == 1
    diag = res.diagonal
    for i in range(res.d.rows):
        for j in range(res.d.cols):
            if i != j:
                assert res.d.entries[i][j] == 0
    for x in diag:
        assert x >= 0
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # determinant-divisor property against brute-force minor enumeration
    prod = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        dk = diag[k - 1]
        prod = prod * dk if dk else 0
        assert minor_gcd(a, k) == prod
    return res


small_matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda r: st.integers(min_value=0, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix(rows, ZZ, rows=r, cols=c))
    )
)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_snf_random_properties(a):
    snf_invariants_hold(a)


def test_snf_worked_example():
    a = IntMatrix([[2, 4], [6, 8]])
    res = snf_invariants_hold(a)
    assert res.diagonal == (2, 4)


def test_snf_identity():
    a = identity_matrix(3)
    res = smith_normal_form(a)
    assert res.d == a
    assert res.u == a
    assert res.v == a


def test_snf_zero_matrix():
    a = zero_matrix(2, 3)
    res = smith_normal_form(a)
    assert res.d == a
    assert (res.u @ a @ res.v) == res.d


def test_snf_empty_matrices():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        a = zero_matrix(rows, cols)
        res = smith_normal_form(a)
        assert res.d.rows == rows and res.d.cols == cols
        assert (res.u @ a @ res.v) == res.d


def test_snf_rejects_modular_input():
    a = IntMatrix([[2]], Zmod(4))
    with pytest.raises(ValueError):
        smith_normal_form(a)


def test_snf_deterministic():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        a = IntMatrix(rows)
        r1 = smith_normal_form(a)
        r2 = smith_normal_form(a)
        assert r1.u == r2.u and r1.d == r2.d and r1.v == r2.v


def swell_matrix():
    rng = random.Random(32)
    return [[rng.randint(-100, 100) for _ in range(32)] for _ in range(32)]


def test_snf_transforms_stay_near_the_determinant():
    rows = swell_matrix()
    a = IntMatrix(rows)
    res = smith_normal_form(a)
    assert (res.u @ a @ res.v) == res.d
    assert abs(det_bareiss(res.u.entries)) == 1
    assert abs(det_bareiss(res.v.entries)) == 1
    det_bits = abs(det_bareiss(rows)).bit_length()
    assert det_bits > 200
    for m in (res.u, res.v):
        assert max(abs(x).bit_length() for r in m.entries for x in r) <= 4 * det_bits


def test_cli_snf_on_a_swelling_matrix(capsys):
    code = main(["snf", "--matrix", json.dumps(swell_matrix())])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert len(doc["d"]) == 32 and len(doc["u"]) == 32 and len(doc["v"]) == 32


# -- the Smith core on inputs random 5x5 matrices rarely reach ------------------


def _rank_three_6x6():
    rng = random.Random(66)
    left = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(6)]
    right = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(3)]
    return IntMatrix(left) @ IntMatrix([[2, 0, 0], [0, 6, 0], [0, 0, 12]]) @ IntMatrix(right)


def _z360_lattice_basis():
    # 16 generators of a lattice containing 360*Z^16, as matrix columns
    rng = random.Random(360)
    cols = []
    for c in (4, 6, 10, 12, 30, 36, 60, 90, 120, 180, 2, 3, 5, 8, 9, 20):
        cols.append(tuple(c * rng.randint(0, 360 // c - 1) for _ in range(16)))
    cols += [tuple(360 * (i == j) for i in range(16)) for j in range(16)]
    lat = Lattice.from_columns(16, cols)
    return IntMatrix.from_columns(lat.basis, 16)


_SMITH_CORE_CASES = {
    "diag(2,3)": lambda: IntMatrix([[2, 0], [0, 3]]),
    "diag(6,4)": lambda: IntMatrix([[6, 0], [0, 4]]),
    "diag(0,5)": lambda: IntMatrix([[0, 0], [0, 5]]),
    "[[4,6,0],[0,0,0]]": lambda: IntMatrix([[4, 6, 0], [0, 0, 0]]),
    "1x3": lambda: IntMatrix([[4, 6, 10]]),
    "3x1": lambda: IntMatrix([[4], [6], [10]]),
    "0x3": lambda: IntMatrix([], rows=0, cols=3),
    "3x0": lambda: IntMatrix([(), (), ()], rows=3, cols=0),
    "rank 3 6x6": _rank_three_6x6,
    "Z/360 lattice, 16 generators": _z360_lattice_basis,
}


@pytest.mark.parametrize("build", list(_SMITH_CORE_CASES.values()), ids=list(_SMITH_CORE_CASES))
def test_smith_core_edge_cases(build, monkeypatch):
    # a pass order that echelonizes a fixed diagonal straight back never
    # returns: fail once the core has run far more echelons than it needs
    real, calls = matrices._echelon, []

    def bounded(dim, columns):
        calls.append(dim)
        assert len(calls) <= 40, "the Smith core keeps running echelons"
        return real(dim, columns)

    a = build()
    rows, cols = a.rows, a.cols
    monkeypatch.setattr(matrices, "_echelon", bounded)
    u, d, v, uinv = _snf_with_inverses(a)
    monkeypatch.undo()
    um = IntMatrix(u, rows=rows, cols=rows)
    dm = IntMatrix(d, rows=rows, cols=cols)
    assert um @ a @ IntMatrix(v, rows=cols, cols=cols) == dm
    assert um @ IntMatrix(uinv, rows=rows, cols=rows) == identity_matrix(rows)
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y == 0 if x == 0 else y % x == 0
    if max(rows, cols) <= 8:
        prod = 1
        for k, x in enumerate(diag, 1):
            prod *= x
            assert minor_gcd(a, k) == prod
    if rows == 16:
        assert all(360 % x == 0 for x in diag)


@pytest.mark.parametrize("chain", [(), (3,), (1, 2, 4)], ids=str)
def test_diagonal_lattice_presets_the_smith_reduction(chain):
    preset = Lattice.diagonal(chain)
    fresh = Lattice.from_columns(len(chain), preset.basis)
    assert fresh == preset and fresh._smith is None
    assert preset.smith_coordinates() == fresh.smith_coordinates()


# -- kernels -----------------------------------------------------------------


def test_kernel_over_z_examples():
    assert kernel_basis(IntMatrix([[2]])).cols == 0

    k = kernel_basis(IntMatrix([[2, 3]]))
    assert k.cols == 1
    v = k.column(0)
    assert 2 * v[0] + 3 * v[1] == 0
    # primitivity: every solution in a small box is an integer multiple
    for x in range(-20, 21):
        for y in range(-20, 21):
            if 2 * x + 3 * y == 0 and (x, y) != (0, 0):
                assert x % v[0] == 0 and (x // v[0]) * v[1] == y


def test_kernel_mod4_example():
    k = kernel_basis(IntMatrix([[2]], Zmod(4)))
    assert k.columns() == [(2,)]
    # the integer solutions of x in 4Z have the basis (4,), which vanishes mod 4
    assert kernel_basis(IntMatrix([[1]], Zmod(4))).cols == 0


def span_mod_n(cols, n, width):
    out = {tuple([0] * width)}
    frontier = [tuple([0] * width)]
    while frontier:
        x = frontier.pop()
        for c in cols:
            y = tuple((a + b) % n for a, b in zip(x, c))
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_kernel_modular_matches_residue_enumeration(n):
    rng = random.Random(100 + n)
    ring = Zmod(n)
    for _ in range(12):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = IntMatrix(
            [[rng.randint(0, n - 1) for _ in range(cols)] for _ in range(rows)], ring
        )
        expected = {
            x for x in product(range(n), repeat=cols) if not any(a.apply(x))
        }
        k = kernel_basis(a)
        got = span_mod_n(k.columns(), n, cols)
        assert got == expected


# -- solving -----------------------------------------------------------------


def test_solve_examples():
    sol, k = solve_linear(IntMatrix([[2]]), (3,))
    assert sol is None
    sol, k = solve_linear(IntMatrix([[2]]), (4,))
    assert sol == (2,) and k.cols == 0
    sol, k = solve_linear(IntMatrix([[2]], Zmod(4)), (2,))
    assert sol is not None and (2 * sol[0]) % 4 == 2
    assert k.columns() == [(2,)]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(IntMatrix([[1, 2]]), (1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
def test_solve_agrees_with_exhaustive_search(rows, cols, rnd):
    a = IntMatrix(
        [[rnd.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    )
    b = tuple(rnd.randint(-6, 6) for _ in range(rows))
    sol, kernel = solve_linear(a, b)
    if sol is not None:
        assert a.apply(sol) == b
        for c in kernel.columns():
            assert all(v == 0 for v in a.apply(c))
    else:
        # no solution may exist in a box either (box chosen generously:
        # a solvable system of this size has a solution with small entries)
        for x in product(range(-30, 31), repeat=cols):
            assert a.apply(x) != b


def test_solve_over_z_many_right_hand_sides():
    a = IntMatrix([[2, 4], [0, 6], [2, 10]])
    bs = [(2, 0, 2), (0, 6, 6), (1, 0, 1), (4, 6, 10), (0, 0, 0)]
    sols = [_solve_over_z(a, b) for b in bs]
    assert sols[2] is None  # odd entries: no integer solution
    assert all(a.apply(x) != bs[2] for x in product(range(-30, 31), repeat=2))
    for b, sol in zip(bs, sols):
        if b != bs[2]:
            assert sol is not None and a.apply(sol) == b


@pytest.mark.parametrize("n", [4, 6, 9])
def test_solve_modular_agrees_with_enumeration(n):
    rng = random.Random(42 + n)
    ring = Zmod(n)
    for _ in range(10):
        rows, cols = rng.randint(1, 2), rng.randint(1, 3)
        a = IntMatrix(
            [[rng.randint(0, n - 1) for _ in range(cols)] for _ in range(rows)],
            ring,
        )
        b = tuple(rng.randint(0, n - 1) for _ in range(rows))
        sol, _ = solve_linear(a, b)
        brute = next(
            (x for x in product(range(n), repeat=cols) if a.apply(x) == b), None
        )
        assert (sol is None) == (brute is None)
        if sol is not None:
            assert a.apply(sol) == b and all(0 <= x < n for x in sol)


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_kernel_and_solve_on_empty_shapes(ring, rows, cols):
    a = zero_matrix(rows, cols, ring)
    kernel = kernel_basis(a)
    # with no rows every vector solves a x = 0: the kernel is all of Z^cols
    expected = identity_matrix(cols, ring) if rows == 0 else zero_matrix(0, 0, ring)
    assert kernel == expected
    sol, k = solve_linear(a, (0,) * rows)
    assert sol == (0,) * cols and k == kernel
    if rows:
        assert solve_linear(a, (1,) + (0,) * (rows - 1)) == (None, kernel)
        if ring.is_modular:
            assert solve_linear(a, (6,) * rows)[0] == ()


# -- matrix plumbing -----------------------------------------------------------


def test_modular_entries_are_reduced():
    a = IntMatrix([[-1, 5]], Zmod(4))
    assert a.entries == ((3, 1),)


def test_matmul_shape_check():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])


def test_empty_matrix_product():
    a = zero_matrix(2, 0)
    b = zero_matrix(0, 3)
    assert (a @ b) == zero_matrix(2, 3)


# -- one echelon per system ----------------------------------------------------


@pytest.mark.parametrize("ring", [ZZ, Zmod(12)], ids=str)
def test_solve_linear_runs_one_echelon(echelon_calls, ring):
    a = IntMatrix([[2, 4, 3], [6, 8, 5]], ring)
    sol, kernel = solve_linear(a, (9, 19))
    assert len(echelon_calls) == 1
    assert a.apply(sol) == a.apply((1, 1, 1))
    assert kernel.cols and all(not any(a.apply(c)) for c in kernel.columns())


@pytest.mark.parametrize("n", [4, 6, 12, 36, 72])
def test_kernel_mod_n_spans_the_modulus_columns_kernel(n):
    # the kernel read from (a e_j, e_j) and (n e_i, 0) spans the same residues
    # as the integer kernel of [a | n*I] cut to its first columns
    rng = random.Random(700 + n)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix(
            [[rng.randint(0, n - 1) for _ in range(cols)] for _ in range(rows)],
            Zmod(n),
        )
        units = [tuple(n * (i == j) for i in range(cols)) for j in range(cols)]
        got, expected = kernel_basis(a), kernel_by_modulus_columns(a)
        assert all(not any(a.apply(c)) for c in got.columns())
        got_span = Lattice.from_columns(cols, got.columns() + units)
        assert got_span == Lattice.from_columns(cols, expected.columns() + units)


# -- integers only -------------------------------------------------------------

_NON_INTEGERS = {
    "modulus": lambda: Zmod(4.5),
    "matrix entry": lambda: IntMatrix([[1.5, 2.9]]),
    "string entry": lambda: IntMatrix([["7"]]),
    "relation": lambda: present_module(ZZ, 1, [[2.7]]),
    "lattice column": lambda: Lattice.from_columns(1, [[2.9]]),
    "coset reduction": lambda: Lattice.from_columns(1, [(2,)]).reduce([2.5]),
    "element": lambda: ModuleElement(present_module(Zmod(12), 2), [1.7, 2]),
    "membership": lambda: whole_submodule(present_module(ZZ, 1)).contains([1.5]),
    "right-hand side": lambda: solve_linear(IntMatrix([[2]]), [4.0]),
}


@pytest.mark.parametrize("build", list(_NON_INTEGERS.values()), ids=list(_NON_INTEGERS))
def test_non_integers_are_refused_not_truncated(build):
    with pytest.raises(TypeError):
        build()
