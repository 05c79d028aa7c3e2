import math

import numpy as np
import pytest

from eigenmax.groups import (
    MATRIX_TOL,
    InvalidK,
    InvalidTriple,
    DimensionMismatch,
    closure,
    group_from_json,
    group_order,
    make_group,
    standard_action,
)

ALL_KINDS = [
    make_group("trivial"),
    make_group("onestar"),
    make_group("dihedral", (2,)),
    make_group("dihedral", (3,)),
    make_group("dihedral", (5,)),
    make_group("platonic", (2, 2, 4)),
    make_group("platonic", (2, 3, 3)),
    make_group("platonic", (2, 3, 4)),
    make_group("platonic", (2, 3, 5)),
]


def _closure(g):
    return closure(standard_action(g, 3).generator_matrices)


def _orbit_and_stabilizer(mats, point):
    """Distinct images of a point (within MATRIX_TOL) and its stabilizer order."""
    p = np.asarray(point, dtype=float)
    images = mats @ p
    close = np.all(np.abs(images[:, None] - images[None]) <= MATRIX_TOL, axis=2)
    n_orbit = int(np.sum(~np.any(np.tril(close, -1), axis=1)))
    return n_orbit, int(np.sum(close[:, 0]))


def test_make_group_examples():
    g = make_group("platonic", (2, 3, 5))
    assert g.n_generators == 3
    assert make_group("trivial").n_generators == 0
    with pytest.raises(InvalidTriple):
        make_group("platonic", (2, 3, 7))
    with pytest.raises(InvalidTriple):
        make_group("platonic", (3, 3, 3))
    with pytest.raises(InvalidK):
        make_group("dihedral", (1,))


def test_group_orders():
    assert group_order(make_group("platonic", (2, 3, 5))) == 120
    assert group_order(make_group("platonic", (2, 3, 4))) == 48
    assert group_order(make_group("platonic", (2, 3, 3))) == 24
    assert group_order(make_group("platonic", (2, 2, 6))) == 24
    assert group_order(make_group("dihedral", (5,))) == 10
    assert group_order(make_group("trivial")) == 1
    assert group_order(make_group("onestar")) == 2


def test_enumeration_matches_order():
    for g in ALL_KINDS:
        c = _closure(g)
        assert c.order == group_order(g), g
        assert c.words[0] == ()


def test_enumeration_icosahedral():
    assert _closure(make_group("platonic", (2, 3, 5))).order == 120


def test_enumeration_large_dihedral():
    for k in (12, 32):
        assert _closure(make_group("dihedral", (k,))).order == 2 * k


def test_enumeration_small_cases():
    assert _closure(make_group("trivial")).order == 1
    assert _closure(make_group("onestar")).words == [(), (0,)]
    assert _closure(make_group("dihedral", (2,))).order == 4


def test_parity_is_determinant():
    for g in ALL_KINDS[:7]:
        c = _closure(g)
        for word, m in zip(c.words, c.matrices):
            assert (-1) ** len(word) == pytest.approx(np.linalg.det(m), abs=1e-9)


def test_relation_words_give_identity():
    for g in ALL_KINDS:
        if g.kind == "trivial":
            continue
        act = standard_action(g, 3)
        n = g.n_generators
        for i in range(n):
            for j in range(n):
                m = g.relation_order(i, j)
                prod = np.linalg.matrix_power(act.matrix(i) @ act.matrix(j), m)
                assert np.allclose(prod, np.eye(3), atol=1e-12), (g, i, j)


def test_mirror_convention_and_angles():
    act = standard_action(make_group("onestar"), 3)
    assert np.allclose(act.fixed_plane_normals[0], [1, 0, 0])
    # single reflection across x = 0
    assert np.allclose(act.matrix(0) @ [1.0, 2.0, 3.0], [-1.0, 2.0, 3.0])
    for g in ALL_KINDS:
        if g.n_generators < 2:
            continue
        act = standard_action(g, 3)
        for i in range(g.n_generators):
            for j in range(i + 1, g.n_generators):
                cosang = abs(np.dot(act.fixed_plane_normals[i], act.fixed_plane_normals[j]))
                expected = abs(math.cos(math.pi / g.relation_order(i, j)))
                assert cosang == pytest.approx(expected, abs=1e-12)


def test_dihedral_2d_action():
    k = 4
    act = standard_action(make_group("dihedral", (k,)), 2)
    rot = act.matrix(0) @ act.matrix(1)
    angle = math.atan2(rot[1, 0], rot[0, 0])
    assert abs(abs(angle) - 2 * math.pi / k) < 1e-12


def test_platonic_needs_dim3():
    with pytest.raises(DimensionMismatch):
        standard_action(make_group("platonic", (2, 3, 3)), 2)


def test_orbit_stabilizer():
    rng = np.random.default_rng(7)
    for g in ALL_KINDS:
        if g.kind == "platonic" and g.params == (2, 3, 5):
            continue
        mats = _closure(g).matrices
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        n_orbit, n_stab = _orbit_and_stabilizer(mats, p)
        assert n_orbit * n_stab == group_order(g)
        # a point on the first mirror has stabilizer of order >= 2
        if g.n_generators >= 1:
            q = np.array([0.0, 0.3, 0.8])
            q /= np.linalg.norm(q)
            n_orbit, n_stab = _orbit_and_stabilizer(mats, q)
            assert n_orbit * n_stab == group_order(g)


def test_tetrahedral_generic_orbit():
    mats = _closure(make_group("platonic", (2, 3, 3))).matrices
    p = np.array([0.1, 0.5, 0.7])
    p /= np.linalg.norm(p)
    assert _orbit_and_stabilizer(mats, p)[0] == 24


def test_multiplication_closure():
    for g in (
        make_group("dihedral", (3,)),
        make_group("platonic", (2, 3, 4)),
        make_group("platonic", (2, 3, 5)),
    ):
        c = _closure(g)
        table = c.left_table()
        n = c.order
        # closure and group axioms via the table: each row/col is a permutation
        for a in range(n):
            assert sorted(table[a]) == list(range(n)), g
            assert sorted(table[:, a]) == list(range(n)), g
        products = np.einsum("aij,bjk->abik", c.matrices, c.matrices)
        assert np.all(np.abs(products - c.matrices[table]) <= MATRIX_TOL), g


def test_json_roundtrip():
    for g in ALL_KINDS:
        assert group_from_json(g.to_json()) == g


def test_product_with_tau():
    # Z2 x 1*: tau carries the two-point swap and no matrix, rho1 the mirror
    rho1 = standard_action(make_group("onestar"), 3).matrix(0)
    c = closure([np.eye(3), rho1], [[1, 0], [0, 1]])
    assert c.order == 4
    assert c.words[:3] == [(), (0,), (1,)]
    table = c.left_table()
    tau, r = 1, 2
    assert table[tau, tau] == 0
    # tau commutes with rho1
    assert table[tau, r] == table[r, tau]
    assert np.array_equal(c.labels[:, 0], [0, 1, 0, 1])
