"""Finite reflection groups and their standard orthogonal actions.

Supported kinds: the trivial group, the order-two group ``1*`` generated by a
single reflection, the dihedral groups ``*kk`` (two mirrors at angle pi/k),
and the spherical triangle groups ``*k12 k13 k23`` with
(k12,k13,k23) in {(2,3,3), (2,3,4), (2,3,5)} or (2,2,m), m >= 2.

Mirror placement convention: the first generator always fixes the plane
x = 0; the remaining mirror normals are obtained from the Cholesky factor of
the Gram matrix G_ij = -cos(pi/m(i,j)), which pins the action down to a
single reproducible representative of its conjugacy class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ALLOWED_EXCEPTIONAL = {(2, 3, 3), (2, 3, 4), (2, 3, 5)}

MATRIX_TOL = 1e-10


class GroupError(ValueError):
    pass


class InvalidTriple(GroupError):
    pass


class InvalidK(GroupError):
    pass


class BadIndex(GroupError):
    pass


class DimensionMismatch(GroupError):
    pass


@dataclass(frozen=True)
class ReflectionGroup:
    """A finite reflection group given by its kind and parameters.

    kind is one of "trivial", "onestar", "dihedral", "platonic";
    params is () for trivial/onestar, (k,) for dihedral and
    (k12, k13, k23) for platonic.
    """

    kind: str
    params: tuple = ()

    @property
    def n_generators(self):
        return {"trivial": 0, "onestar": 1, "dihedral": 2, "platonic": 3}[self.kind]

    def relation_order(self, i, j):
        """Coxeter order m(i,j) of the product of generators i and j."""
        n = self.n_generators
        if not (0 <= i < n and 0 <= j < n):
            raise BadIndex(f"generator index out of range for {self}")
        if i == j:
            return 1
        if self.kind == "dihedral":
            return self.params[0]
        k12, k13, k23 = self.params
        return {frozenset((0, 1)): k12, frozenset((0, 2)): k13, frozenset((1, 2)): k23}[
            frozenset((i, j))
        ]

    @property
    def order(self):
        return group_order(self)

    def label(self):
        if self.kind == "trivial":
            return "Trivial"
        if self.kind == "onestar":
            return "1*"
        if self.kind == "dihedral":
            return f"*{self.params[0]}{self.params[0]}"
        return "*" + "".join(str(k) for k in self.params)

    def to_json(self):
        return {"kind": self.kind, "params": list(self.params)}

    def __str__(self):
        return self.label()


def make_group(kind, params=()):
    """Build a ReflectionGroup, validating parameters.

    kind: "trivial" | "onestar" | "dihedral" | "platonic".
    """
    kind = kind.lower()
    params = tuple(int(p) for p in params)
    if kind == "trivial":
        return ReflectionGroup("trivial", ())
    if kind == "onestar":
        return ReflectionGroup("onestar", ())
    if kind == "dihedral":
        if len(params) != 1:
            raise InvalidK("dihedral group *kk needs a single parameter k")
        if params[0] < 2:
            raise InvalidK(f"*kk requires k >= 2, got {params[0]}")
        return ReflectionGroup("dihedral", params)
    if kind == "platonic":
        if len(params) != 3:
            raise InvalidTriple("platonic group needs (k12, k13, k23)")
        if params not in ALLOWED_EXCEPTIONAL and not (
            params[0] == 2 and params[1] == 2 and params[2] >= 2
        ):
            raise InvalidTriple(f"triple {params} is not an allowed reflection triple")
        return ReflectionGroup("platonic", params)
    raise GroupError(f"unknown group kind {kind!r}")


def group_from_json(obj):
    if isinstance(obj, str):
        obj = json.loads(obj)
    return make_group(obj["kind"], obj.get("params", ()))


def group_order(group):
    if group.kind == "trivial":
        return 1
    if group.kind == "onestar":
        return 2
    if group.kind == "dihedral":
        return 2 * group.params[0]
    s = sum(1.0 / k for k in group.params) - 1.0
    order = 4.0 / s
    n = round(order)
    assert abs(order - n) < 1e-9
    return n


def subgroup_order(group, i, j):
    """Order of the dihedral subgroup generated by generators i and j."""
    if i == j:
        raise BadIndex("need two distinct generators")
    return 2 * group.relation_order(i, j)


@dataclass(frozen=True)
class OrthogonalAction:
    """Reflection matrices and fixed-plane unit normals for the generators."""

    dimension: int
    generator_matrices: tuple
    fixed_plane_normals: tuple

    def matrix(self, i):
        return self.generator_matrices[i]


def _gram_normals(group):
    """Unit mirror normals n_i with n_i . n_j = -cos(pi/m(i,j)).

    Computed by Cholesky so that n_1 = e_x exactly.
    """
    n = group.n_generators
    gram = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                gram[i, j] = -math.cos(math.pi / group.relation_order(i, j))
    chol = np.linalg.cholesky(gram)
    return chol  # rows are the normals, in an n-dim orthonormal frame


def standard_action(group, dimension):
    """The standard orthogonal action of the group in dimension 2 or 3."""
    if dimension not in (2, 3):
        raise DimensionMismatch("only dimensions 2 and 3 are supported")
    n = group.n_generators
    if group.kind == "platonic" and dimension != 3:
        raise DimensionMismatch("platonic groups act in dimension 3")
    if group.kind == "trivial":
        return OrthogonalAction(dimension, (), ())
    rows = _gram_normals(group)
    normals = np.zeros((n, dimension))
    if rows.shape[1] > dimension:
        raise DimensionMismatch(f"{group} does not fit in dimension {dimension}")
    normals[:, : rows.shape[1]] = rows
    mats = []
    for i in range(n):
        v = normals[i]
        mats.append(np.eye(dimension) - 2.0 * np.outer(v, v))
    return OrthogonalAction(dimension, tuple(m for m in mats), tuple(v for v in normals))


@dataclass(frozen=True)
class GroupElement:
    """Group element as a shortlex-reduced generator word plus its matrix."""

    word: tuple
    matrix: np.ndarray
    parity: int

    def name(self):
        if not self.word:
            return "e"
        return ".".join(f"r{i + 1}" for i in self.word)

    def __str__(self):
        return self.name()


def _lookup(bits, mats, cand_bits, cand_mats):
    """Index of the first element equal to each candidate, or -1.

    Two elements are equal when their tau bits agree and every matrix entry
    agrees within MATRIX_TOL, as ``np.allclose(atol=MATRIX_TOL, rtol=0)``.
    """
    same = (cand_bits[:, None] == bits[None, :]) & np.all(
        np.abs(cand_mats[:, None] - mats[None]) <= MATRIX_TOL, axis=(2, 3)
    )
    first = np.argmax(same, axis=1)
    return np.where(same[np.arange(len(first)), first], first, -1)


def _find(bits, mats, bit, m):
    """Index of the first element equal to (bit, m), or -1."""
    return int(_lookup(bits, mats, np.array([bit]), m[None])[0])


@dataclass(frozen=True)
class Closure:
    """Elements of the group generated by (tau bit, matrix) pairs.

    Elements appear in breadth-first order; each word is the shortlex-minimal
    generator-index word of its element, and ``right[k, i]`` is the index of
    element k times generator i.
    """

    bits: np.ndarray
    matrices: np.ndarray
    words: list
    right: np.ndarray

    @property
    def order(self):
        return len(self.words)

    def left_table(self):
        """``table[a, b]`` = index of element a times element b.

        Column b folds ``right`` along b's word, extending the column of the
        word's prefix, so no matrix is compared.
        """
        n = self.order
        index = {word: k for k, word in enumerate(self.words)}
        table = np.empty((n, n), dtype=int)
        table[:, 0] = np.arange(n)
        for b in range(1, n):
            word = self.words[b]
            table[:, b] = self.right[table[:, index[word[:-1]]], word[-1]]
        return table


def closure(gen_matrices, gen_bits=None, dimension=3):
    """Breadth-first closure of the group generated by the given matrices.

    Products are formed as element @ generator, frontier by frontier and
    generator by generator; a product that matches no listed element is
    appended with its word.  gen_bits are optional tau bits (added mod 2).
    """
    if gen_bits is None:
        gen_bits = [0] * len(gen_matrices)
    bits, mats, words, right = np.zeros(1, dtype=int), np.eye(dimension)[None], [()], []
    frontier = [0]
    while frontier:
        new_frontier = []
        for idx in frontier:
            row = []
            for i, (gb, gm) in enumerate(zip(gen_bits, gen_matrices)):
                bit, m = (bits[idx] + gb) % 2, mats[idx] @ gm
                k = _find(bits, mats, bit, m)
                if k < 0:
                    k = len(words)
                    bits, mats = np.append(bits, bit), np.concatenate([mats, m[None]])
                    words.append(words[idx] + (i,))
                    new_frontier.append(k)
                row.append(k)
            right.append(row)
        frontier = new_frontier
    right = np.array(right, dtype=int).reshape(len(words), len(gen_matrices))
    return Closure(bits, mats, words, right)


def enumerate_elements(group, dimension=None):
    """All group elements by breadth-first products of generator matrices.

    Elements are deduplicated by matrix comparison at tolerance 1e-10, and the
    word recorded for each element is shortlex-minimal by construction.
    """
    if dimension is None:
        dimension = 3
    action = standard_action(group, dimension)
    c = closure(action.generator_matrices, dimension=dimension)
    return [
        GroupElement(word, m, (-1) ** len(word)) for word, m in zip(c.words, c.matrices)
    ]


def multiplication_table(elements):
    """table[a][b] = index of elements[a] * elements[b]."""
    mats = np.array([g.matrix for g in elements])
    bits = np.zeros(len(mats), dtype=int)
    table = np.array([_lookup(bits, mats, bits, m @ mats) for m in mats], dtype=int)
    if np.any(table < 0):
        raise GroupError("element set not closed under multiplication")
    return table


def orbit(elements, point, tol=MATRIX_TOL):
    """Distinct images of a point under the listed elements."""
    images = []
    for g in elements:
        q = g.matrix @ np.asarray(point, dtype=float)
        if not any(np.allclose(q, r, atol=tol, rtol=0.0) for r in images):
            images.append(q)
    return images


def stabilizer_size(elements, point, tol=MATRIX_TOL):
    p = np.asarray(point, dtype=float)
    return sum(1 for g in elements if np.allclose(g.matrix @ p, p, atol=tol, rtol=0.0))


class ProductWithTau:
    """The product Z2 x G with the extra central generator tau.

    tau is the doubling involution; it has no ambient matrix and acts on
    meshes by a vertex permutation.  Elements are pairs (t, g) with t in
    {0, 1} and g an element of the base group.
    """

    def __init__(self, base_group, dimension=None):
        self.base = base_group
        self.base_elements = enumerate_elements(base_group, dimension)
        self.elements = [(t, g) for t in (0, 1) for g in self.base_elements]
        self._mats = np.array([g.matrix for g in self.base_elements])
        self._bits = np.zeros(len(self._mats), dtype=int)

    @property
    def order(self):
        return 2 * len(self.base_elements)

    def element_name(self, el):
        t, g = el
        if t == 0:
            return g.name()
        return "t" if not g.word else "t." + g.name()

    def multiply(self, a, b):
        ta, ga = a
        tb, gb = b
        idx = _find(self._bits, self._mats, 0, ga.matrix @ gb.matrix)
        return ((ta + tb) % 2, self.base_elements[idx])

    def generators(self):
        """(name, element) pairs for tau and the base-group generators."""
        gens = [("tau", (1, self.base_elements[0]))]
        for i in range(self.base.n_generators):
            gen_idx = next(
                k for k, g in enumerate(self.base_elements) if g.word == (i,)
            )
            gens.append((f"rho{i + 1}", (0, self.base_elements[gen_idx])))
        return gens
