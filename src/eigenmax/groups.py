"""Finite reflection groups and their standard orthogonal actions.

Supported kinds: the trivial group, the order-two group ``1*`` generated by a
single reflection, the dihedral groups ``*kk`` (two mirrors at angle pi/k),
and the spherical triangle groups ``*k12 k13 k23`` with
(k12,k13,k23) in {(2,3,3), (2,3,4), (2,3,5)} or (2,2,m), m >= 2.

Mirror placement convention: the first generator always fixes the plane
x = 0; the remaining mirror normals are obtained from the Cholesky factor of
the Gram matrix G_ij = -cos(pi/m(i,j)), which pins the action down to a
single reproducible representative of its conjugacy class.

``closure`` is the one enumeration of group elements: the assembly group
``Z2 x G`` of tau and the mirrors, and the Ginzburg-Landau transform group of
vertex permutations and target matrices, are both its closures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ALLOWED_EXCEPTIONAL = {(2, 3, 3), (2, 3, 4), (2, 3, 5)}

MATRIX_TOL = 1e-10
MAX_ORDER = 2048


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
class Closure:
    """Elements of the group generated by (label, matrix) pairs.

    Elements appear in breadth-first order; each word is the shortlex-minimal
    generator-index word of its element, and ``right[k, i]`` is the index of
    element k times generator i.
    """

    labels: np.ndarray
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


def closure(gen_matrices, gen_labels=None, dimension=3):
    """Breadth-first closure of the group generated by the given matrices.

    Each generator may carry a label, an integer permutation (the tau swap,
    or a vertex permutation of a mesh); labels compose as
    ``labels[element][gen_label]`` alongside ``element @ generator``.  Two
    elements are equal when their labels are equal and their matrices agree
    within MATRIX_TOL.  Products are formed frontier by frontier and
    generator by generator; a product that matches no listed element is
    appended with its word.  A group larger than MAX_ORDER raises GroupError.
    """
    if gen_labels is None:
        gen_labels = np.zeros((len(gen_matrices), 0), dtype=int)
    gen_labels = np.asarray(gen_labels, dtype=int)
    labels, mats = np.arange(gen_labels.shape[1])[None], np.eye(dimension)[None]
    words, right = [()], []
    frontier = [0]
    while frontier:
        new_frontier = []
        for idx in frontier:
            row = []
            for i, (gl, gm) in enumerate(zip(gen_labels, gen_matrices)):
                label, m = labels[idx][gl], mats[idx] @ gm
                same = np.all(labels == label, axis=1) & np.all(
                    np.abs(mats - m) <= MATRIX_TOL, axis=(1, 2)
                )
                k = int(np.argmax(same))
                if not same[k]:
                    if len(words) == MAX_ORDER:
                        raise GroupError(f"generators do not close within {MAX_ORDER} elements")
                    k = len(words)
                    labels, mats = np.vstack([labels, label]), np.concatenate([mats, m[None]])
                    words.append(words[idx] + (i,))
                    new_frontier.append(k)
                row.append(k)
            right.append(row)
        frontier = new_frontier
    right = np.array(right, dtype=int).reshape(len(words), len(gen_matrices))
    return Closure(labels, mats, words, right)
