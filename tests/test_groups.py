import math

import numpy as np
import pytest

from eigenmax import groups
from eigenmax.groups import (
    InvalidK,
    InvalidTriple,
    DimensionMismatch,
    enumerate_elements,
    group_from_json,
    group_order,
    make_group,
    multiplication_table,
    orbit,
    stabilizer_size,
    standard_action,
    subgroup_order,
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


def test_subgroup_orders():
    g234 = make_group("platonic", (2, 3, 4))
    assert subgroup_order(g234, 0, 2) == 6
    g233 = make_group("platonic", (2, 3, 3))
    assert subgroup_order(g233, 0, 1) == 4
    d2 = make_group("dihedral", (2,))
    assert subgroup_order(d2, 0, 1) == 4


def test_enumeration_matches_order():
    for g in ALL_KINDS:
        els = enumerate_elements(g)
        assert len(els) == group_order(g), g
        assert els[0].word == ()


def test_enumeration_icosahedral():
    g = make_group("platonic", (2, 3, 5))
    els = enumerate_elements(g)
    assert len(els) == 120


def test_enumeration_large_dihedral():
    for k in (12, 32):
        g = make_group("dihedral", (k,))
        assert len(enumerate_elements(g)) == 2 * k


def test_enumeration_small_cases():
    assert len(enumerate_elements(make_group("trivial"))) == 1
    one = enumerate_elements(make_group("onestar"))
    assert [e.word for e in one] == [(), (0,)]
    assert len(enumerate_elements(make_group("dihedral", (2,)))) == 4


def test_parity_is_determinant():
    for g in ALL_KINDS[:7]:
        for el in enumerate_elements(g):
            assert el.parity == pytest.approx(np.linalg.det(el.matrix), abs=1e-9)
            assert el.parity == (-1) ** len(el.word)


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
        els = enumerate_elements(g)
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        assert len(orbit(els, p)) * stabilizer_size(els, p) == group_order(g)
        # a point on the first mirror has stabilizer of order >= 2
        if g.n_generators >= 1:
            q = np.array([0.0, 0.3, 0.8])
            q /= np.linalg.norm(q)
            assert len(orbit(els, q)) * stabilizer_size(els, q) == group_order(g)


def test_tetrahedral_generic_orbit():
    els = enumerate_elements(make_group("platonic", (2, 3, 3)))
    p = np.array([0.1, 0.5, 0.7])
    p /= np.linalg.norm(p)
    assert len(orbit(els, p)) == 24


def test_multiplication_closure():
    for g in (
        make_group("dihedral", (3,)),
        make_group("platonic", (2, 3, 4)),
        make_group("platonic", (2, 3, 5)),
    ):
        els = enumerate_elements(g)
        table = multiplication_table(els)
        n = len(els)
        # closure and group axioms via the table: each row/col is a permutation
        for a in range(n):
            assert sorted(table[a]) == list(range(n)), g
            assert sorted(table[:, a]) == list(range(n)), g


def test_json_roundtrip():
    for g in ALL_KINDS:
        assert group_from_json(g.to_json()) == g


def test_product_with_tau():
    base = make_group("onestar")
    prod = groups.ProductWithTau(base)
    assert prod.order == 4
    gens = dict(prod.generators())
    assert set(gens) == {"tau", "rho1"}
    t = gens["tau"]
    r = gens["rho1"]
    assert prod.multiply(t, t)[0] == 0
    # tau commutes with rho1
    assert prod.element_name(prod.multiply(t, r)) == prod.element_name(prod.multiply(r, t))
