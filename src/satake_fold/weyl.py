"""Weyl group combinatorics: canonical words, enumeration, braid moves.

Elements act on coweights through cached integer matrices; the action on
weights is the contragredient one, so pairings are preserved.  Words are
tuples of 1-based simple indices and multiply left to right: the word
(i_1, ..., i_k) is the operator s_{i_1} after s_{i_2} after ... s_{i_k}.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterable, Optional

from .errors import EnumerationCapError
from .root_datum import Coweight, RationalCoweight, RootDatum, Weight
from . import linalg

DEFAULT_WORD_CAP = 10 ** 6
_ENV_WORD_CAP = "SATAKE_FOLD_MAX_WORDS"
# Order of s_i s_j by the Cartan product a_ij * a_ji, for finite type.
_COXETER_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def _word_cap_default() -> int:
    raw = os.environ.get(_ENV_WORD_CAP)
    if raw is None:
        return DEFAULT_WORD_CAP
    try:
        val = int(raw)
    except ValueError:
        raise EnumerationCapError(f"{_ENV_WORD_CAP} must be an integer, got {raw!r}")
    if val <= 0:
        raise EnumerationCapError(f"{_ENV_WORD_CAP} must be positive")
    return val


class WeylElement:
    """Group element with its coweight-action matrix and canonical reduced word.

    The canonical word is the lexicographically smallest reduced word (all
    reduced words share one length, so this is also shortlex-minimal).
    """

    __slots__ = ("group", "mat", "_word", "_inv_mat")

    def __init__(self, group: "WeylGroup", mat, word=None):
        self.group = group
        self.mat = mat
        self._word = word
        self._inv_mat = None

    @property
    def word(self) -> tuple[int, ...]:
        if self._word is None:
            self._word = self.group.canonical_word(self.mat)
        return self._word

    @property
    def length(self) -> int:
        return len(self.word)

    def inverse_matrix(self):
        if self._inv_mat is None:
            self._inv_mat = linalg.int_inverse(self.mat)
        return self._inv_mat

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if other.group is not self.group:
            raise ValueError("elements belong to different groups")
        return self.group.from_matrix(linalg.mat_mul(self.mat, other.mat))

    def inverse(self) -> "WeylElement":
        return self.group.from_matrix(self.inverse_matrix())

    def apply(self, v):
        """Act on a Coweight/RationalCoweight directly, on a Weight contragrediently."""
        if isinstance(v, Coweight):
            return Coweight(linalg.mat_vec(self.mat, v.coords))
        if isinstance(v, RationalCoweight):
            return RationalCoweight(linalg.mat_vec(self.mat, v.coords))
        if isinstance(v, Weight):
            return Weight(linalg.mat_vec(linalg.transpose(self.inverse_matrix()), v.coords))
        raise TypeError(f"cannot act on {type(v).__name__}")

    def is_identity(self) -> bool:
        return self.mat == self.group.identity_matrix

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.group.datum == other.group.datum
            and self.mat == other.mat
        )

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        return f"WeylElement{self.word}"


class WeylGroup:
    """The Weyl group of a root datum, with interned elements."""

    def __init__(self, datum: RootDatum, element_cap: int = 10 ** 6):
        datum.require_valid()
        self.datum = datum
        self.element_cap = element_cap
        d = datum.d
        self.identity_matrix = linalg.identity(d)
        self._refl = []
        for i in range(datum.rank):
            root = datum.simple_roots[i].coords
            coroot = datum.simple_coroots[i].coords
            self._refl.append(
                tuple(
                    tuple(int(r == c) - coroot[r] * root[c] for c in range(d))
                    for r in range(d)
                )
            )
        self._by_mat: dict = {}
        self._canon: dict = {}
        self._words: dict = {}
        self._elements: Optional[tuple[WeylElement, ...]] = None
        self._w0: Optional[WeylElement] = None
        self.identity = self.from_matrix(self.identity_matrix)

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def simple_indices(self) -> range:
        return range(1, self.rank + 1)

    def reflection_matrix(self, i: int):
        return self._refl[i - 1]

    def from_matrix(self, mat) -> WeylElement:
        el = self._by_mat.get(mat)
        if el is None:
            el = WeylElement(self, mat)
            self._by_mat[mat] = el
        return el

    def simple(self, i: int) -> WeylElement:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range")
        return self.from_matrix(self._refl[i - 1])

    def element(self, word: Iterable[int]) -> WeylElement:
        mat = self.identity_matrix
        for i in word:
            mat = linalg.mat_mul(mat, self.reflection_matrix(i))
        return self.from_matrix(mat)

    # -- descents and canonical words ----------------------------------------

    def _neg_after_inverse(self, mat, i: int) -> bool:
        """True when w^{-1}(alpha_i) is a negative root, for w with matrix mat.

        The weight action of w^{-1} is transpose(mat) in dual bases.
        """
        root = self.datum.simple_roots[i - 1].coords
        img = tuple(sum(mat[r][c] * root[r] for r in range(len(root))) for c in range(len(root)))
        return self.datum.root_sign(Weight(img)) < 0

    def left_descents(self, w: WeylElement) -> tuple[int, ...]:
        return tuple(i for i in self.simple_indices if self._neg_after_inverse(w.mat, i))

    def canonical_word(self, mat) -> tuple[int, ...]:
        cached = self._canon.get(mat)
        if cached is not None:
            return cached
        letters = []
        cur = mat
        trail = []
        while cur != self.identity_matrix:
            hit = self._canon.get(cur)
            if hit is not None:
                letters.extend(hit)
                break
            trail.append(cur)
            for i in self.simple_indices:
                if self._neg_after_inverse(cur, i):
                    letters.append(i)
                    cur = linalg.mat_mul(self.reflection_matrix(i), cur)
                    break
            else:
                raise RuntimeError("no descent found; datum is inconsistent")
        result = tuple(letters)
        for k, mat_k in enumerate(trail):
            self._canon[mat_k] = result[k:]
        self._canon[mat] = result
        return result

    # -- enumeration -----------------------------------------------------------

    def elements(self) -> tuple[WeylElement, ...]:
        """All elements, sorted by length then canonical word."""
        if self._elements is None:
            seen = {self.identity_matrix}
            frontier = [self.identity_matrix]
            while frontier:
                nxt = []
                for mat in frontier:
                    for i in self.simple_indices:
                        new = linalg.mat_mul(mat, self.reflection_matrix(i))
                        if new not in seen:
                            if len(seen) >= self.element_cap:
                                raise EnumerationCapError(
                                    f"Weyl group exceeds the element cap {self.element_cap}"
                                )
                            seen.add(new)
                            nxt.append(new)
                frontier = nxt
            els = [self.from_matrix(m) for m in seen]
            els.sort(key=lambda w: (w.length, w.word))
            self._elements = tuple(els)
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def longest_element(self) -> WeylElement:
        """w0, reached from the identity by greedy ascents."""
        if self._w0 is None:
            cur = self.identity
            while True:
                for i in self.simple_indices:
                    # Ascent when w(alpha_i) is positive, i.e. l(w s_i) > l(w).
                    img = cur.apply(Weight(self.datum.simple_roots[i - 1].coords))
                    if self.datum.root_sign(img) > 0:
                        cur = cur * self.simple(i)
                        break
                else:
                    break
            self._w0 = cur
        return self._w0

    def reduced_words(self, w: WeylElement, cap: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
        """All reduced words of w, lexicographically sorted.

        Refuses with EnumerationCapError beyond the cap (default 10^6,
        overridable through SATAKE_FOLD_MAX_WORDS).
        """
        limit = _word_cap_default() if cap is None else cap
        budget = [limit]

        def rec(mat) -> tuple[tuple[int, ...], ...]:
            got = self._words.get(mat)
            if got is not None:
                return got
            if mat == self.identity_matrix:
                return ((),)
            out = []
            for i in self.simple_indices:
                if self._neg_after_inverse(mat, i):
                    rest = rec(linalg.mat_mul(self.reflection_matrix(i), mat))
                    for tail in rest:
                        out.append((i,) + tail)
                        if len(out) > budget[0]:
                            raise EnumerationCapError(
                                f"reduced word enumeration exceeds cap {limit}"
                            )
            result = tuple(out)
            self._words[mat] = result
            return result

        return rec(w.mat)

    # -- braid structure ---------------------------------------------------------

    def coxeter_order(self, i: int, j: int) -> int:
        """Order of s_i s_j read off the Cartan matrix."""
        if i == j:
            return 1
        prod = self.datum.cartan[i - 1][j - 1] * self.datum.cartan[j - 1][i - 1]
        if prod not in _COXETER_ORDER:
            raise ValueError(f"Cartan product {prod} at ({i}, {j}) is not finite type")
        return _COXETER_ORDER[prod]

    def braid_neighbors(self, word: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Words one braid move away, as (k, m, word) with 1-based start position k.

        A move at k with order m replaces the alternating window
        (a, b, a, ...) of length m by (b, a, b, ...).
        """
        out = []
        n = len(word)
        for k in range(n - 1):
            a, b = word[k], word[k + 1]
            if a == b:
                continue
            m = self.coxeter_order(a, b)
            if k + m > n:
                continue
            if word[k : k + m] != ((a, b) * 3)[:m]:
                continue
            out.append((k + 1, m, word[:k] + ((b, a) * 3)[:m] + word[k + m :]))
        return tuple(out)


@lru_cache(maxsize=None)
def weyl_group(datum: RootDatum) -> WeylGroup:
    return WeylGroup(datum)


def group_elements(datum: RootDatum) -> tuple[WeylElement, ...]:
    return weyl_group(datum).elements()


def longest_element(datum: RootDatum) -> WeylElement:
    return weyl_group(datum).longest_element()


def reduced_words(datum: RootDatum, w: WeylElement, cap: Optional[int] = None):
    return weyl_group(datum).reduced_words(w, cap)


def braid_neighbors(datum: RootDatum, word: tuple[int, ...]):
    return weyl_group(datum).braid_neighbors(word)
