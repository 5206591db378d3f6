"""Lusztig data, GGMS vertex maps, and the polytope membership test.

A Lusztig datum is a reduced word i for w0 together with nonnegative integers
n_k, one per letter.  Walking the word turns it into a lattice path: with
w_k the prefix product, the k-th step direction is -w_{k-1}(alpha_{i_k}^vee)
and the path moves by n_k such steps.  The endpoint only depends on the datum
up to braid transitions; changing the word transports the entries through
piecewise-linear moves, which need every braid order to be 2 or 3.

Routes between words are built locally, by Tits' solution of the word
problem (Tits 1969; Matsumoto 1964): to bring a left descent i to the front
of a reduced word starting with j, reshape the tail to start with the
alternating (i, j, i, ...) of length m - 1, m the order of s_i s_j, then
make one braid move of order m.  Doing this letter by letter along a target
word gives a route to it.  The Berenstein-Zelevinsky moves give the same
entries along every route, so no set of reduced words is ever enumerated.

For each Weyl element w the polytope vertex is the path point after l(w)
letters on a word of w0 that starts with a reduced word of w.  Canonical
words extend their parent's by one letter, so each vertex is the parent's
vertex plus one step, read after bringing that letter to the front of the
parent's tail.

Membership needs none of those vertices: by Kashiwara's embedding B(mu) in
B(infinity) and Kamnitzer's MV-polytope theorem (Annals 2010), the polytope
stays in hull(W mu) exactly when eps_i^*(b) <= <alpha_i, mu> for each simple
i, where eps_i^*(b) is the first entry of the datum transported to a word of
w0 starting with i.  The |W|-vertex test lives in the tests, as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import Iterable, Optional, Sequence

from .errors import NonSimplyLacedError
from .folding import FoldedDatum, PinnedAut, SigmaWord, fold, sigma_compatible_word
from .root_datum import Coweight, RootDatum, Weight
from .weyl import WeylElement, WeylGroup, weyl_group
from . import linalg


@dataclass(frozen=True)
class LusztigDatum:
    """Reduced word for w0 plus one nonnegative entry per letter."""

    word: tuple[int, ...]
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.word) != len(self.entries):
            raise ValueError("word and entries must have equal length")
        if min(self.entries, default=0) < 0:
            raise ValueError("entries must be nonnegative")


@dataclass(frozen=True)
class PathVertices:
    """Path points nu_0 = 0, ..., nu_l and the step coweights between them."""

    word: tuple[int, ...]
    points: tuple[Coweight, ...]
    steps: tuple[Coweight, ...]


@dataclass(frozen=True)
class GGMSDatum:
    """Vertex coweight nu_w for every Weyl group element."""

    vertices: tuple[tuple[WeylElement, Coweight], ...]

    def vertex(self, w: WeylElement) -> Coweight:
        for el, v in self.vertices:
            if el == w:
                return v
        raise KeyError(w)

    def as_dict(self) -> dict[WeylElement, Coweight]:
        return dict(self.vertices)


class MVCalculus:
    """Shared caches for one datum: checked words, braid-move routes, vertex steps."""

    def __init__(self, datum: RootDatum):
        datum.require_valid()
        self.datum = datum
        self.group: WeylGroup = weyl_group(datum)
        self._checked_words: set = set()
        self._orders_checked = False
        self._fronts: dict = {}
        self._steps: Optional[tuple] = None

    # -- plain path geometry -------------------------------------------------

    def require_word(self, word: Sequence[int]) -> tuple[int, ...]:
        word = tuple(word)
        if word not in self._checked_words:
            w0 = self.group.longest_element()
            if len(word) != w0.length or self.group.element(word) != w0:
                raise ValueError(f"{word} is not a reduced word for the longest element")
            self._checked_words.add(word)
        return word

    def step_coweights(self, word: tuple[int, ...]) -> tuple[Coweight, ...]:
        """Step directions -w_{k-1}(alpha_{i_k}^vee) along the word."""
        key = ("steps", word)
        got = self.datum._cache.get(key)
        if got is None:
            steps = []
            mat = self.group.identity_matrix
            for i in word:
                coroot = self.datum.simple_coroots[i - 1].coords
                img = linalg.mat_vec(mat, coroot)
                steps.append(Coweight(tuple(-x for x in img)))
                mat = linalg.mat_mul(mat, self.group.reflection_matrix(i))
            got = tuple(steps)
            self.datum._cache[key] = got
        return got

    def path_vertices(self, lus: LusztigDatum) -> PathVertices:
        word = self.require_word(lus.word)
        steps = self.step_coweights(word)
        points = [Coweight((0,) * self.datum.d)]
        for n, step in zip(lus.entries, steps):
            points.append(points[-1] + step.scale(n))
        return PathVertices(word=word, points=tuple(points), steps=steps)

    def coweight(self, lus: LusztigDatum) -> Coweight:
        return self._partial_sum(self.require_word(lus.word), lus.entries)

    def _partial_sum(self, word: tuple[int, ...], entries: Sequence[int]) -> Coweight:
        """Path point after len(entries) steps along a checked word."""
        total = (0,) * self.datum.d
        for n, step in zip(entries, self.step_coweights(word)):
            total = tuple(a + n * b for a, b in zip(total, step.coords))
        return Coweight(total)

    # -- braid transitions -----------------------------------------------------

    def braid_transition(
        self, lus: LusztigDatum, k: int, m: Optional[int] = None
    ) -> LusztigDatum:
        """Move the datum across the braid move starting at 1-based position k.

        Orders 2 and 3 only; larger orders have no piecewise-linear transport
        here and are refused.  When m is given it must match the braid order
        of the two letters at the window.
        """
        word = tuple(lus.word)
        if not 1 <= k <= len(word) - 1:
            raise ValueError(f"braid position {k} out of range")
        a, b = word[k - 1], word[k]
        if a == b:
            raise ValueError(f"no braid move starts at position {k}")
        order = self.group.coxeter_order(a, b)
        if m is not None and m != order:
            raise ValueError(
                f"letters {a} and {b} have braid order {order}, not {m}"
            )
        m = order
        if m > 3:
            raise NonSimplyLacedError(
                f"braid order {m} at position {k}; entry transport supports orders 2 and 3 only"
            )
        if k - 1 + m > len(word):
            raise ValueError(f"braid window at position {k} runs off the word")
        if word[k - 1 : k - 1 + m] != (a, b, a)[:m]:
            raise ValueError(f"no braid move of order {m} starts at position {k}")
        new_word = word[: k - 1] + (b, a, b)[:m] + word[k - 1 + m :]
        return LusztigDatum(word=new_word, entries=_braid_move(lus.entries, k, m))

    # -- routes and transport ----------------------------------------------------

    def _check_braid_orders(self) -> None:
        """Refuse, once per calculator, a datum with a braid order above 3."""
        if not self._orders_checked:
            for i in self.group.simple_indices:
                for j in self.group.simple_indices:
                    if i < j and self.group.coxeter_order(i, j) > 3:
                        raise NonSimplyLacedError(
                            "transport needs braid orders 2 and 3 everywhere; "
                            f"order {self.group.coxeter_order(i, j)} at ({i}, {j})"
                        )
            self._orders_checked = True

    def _front(self, word: tuple[int, ...], i: int) -> tuple[tuple, tuple[int, ...]]:
        """Braid moves (k, m) that turn a reduced word with left descent i into
        one starting with i, and that word (Tits' word problem solution).

        With j = word[0] != i and m the order of s_i s_j, the tail is first
        made to start with (i, j, i, ...)[:m-1], and one order-m move at
        position 1 then puts i in front.
        """
        key = (word, i)
        got = self._fronts.get(key)
        if got is None:
            j = word[0]
            if j == i:
                got = ((), word)
            else:
                m = self.group.coxeter_order(i, j)
                moves, tail = self._lead(word[1:], ((i, j) * 3)[: m - 1])
                shifted = tuple((k + 1, order) for k, order in moves)
                got = (shifted + ((1, m),), ((i, j) * 3)[:m] + tail[m - 1 :])
            self._fronts[key] = got
        return got

    def _lead(self, word: tuple[int, ...], letters: Sequence[int]) -> tuple[list, tuple[int, ...]]:
        """Braid moves (k, m) that make a reduced word start with the letters, a
        reduced word of a prefix of its element, brought forward one at a time;
        and the word they give."""
        moves = []
        for t, letter in enumerate(letters):
            sub_moves, sub = self._front(word[t:], letter)
            moves.extend((k + t, m) for k, m in sub_moves)
            word = word[:t] + sub
        return moves, word

    def _route(self, src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """Braid moves (k, m) leading from src to dst (checked words of w0)."""
        self._check_braid_orders()
        return tuple(self._lead(src, dst)[0])

    def transport_path(self, src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[int, ...]:
        """Braid move positions leading from src to dst (already verified words)."""
        return tuple(k for k, _ in self._route(src, dst))

    def transport(self, lus: LusztigDatum, target: Sequence[int]) -> LusztigDatum:
        src = self.require_word(lus.word)
        dst = self.require_word(target)
        return LusztigDatum(word=dst, entries=_apply_moves(lus.entries, self._route(src, dst)))

    # -- GGMS vertices -------------------------------------------------------------

    def _vertex_steps(self) -> tuple:
        """(w, w(alpha_i^vee)) for each Weyl element w, in elements() order, with
        i the last letter of w's canonical word; None for the identity.  That
        coweight is -w'(alpha_i^vee) for w = w' s_i, the step after w'."""
        if self._steps is None:
            coroots = self.datum.simple_coroots
            self._steps = tuple(
                (w, linalg.mat_vec(w.mat, coroots[w.word[-1] - 1].coords) if w.word else None)
                for w in self.group.elements()
            )
        return self._steps

    def ggms_datum(self, lus: LusztigDatum) -> GGMSDatum:
        """All polytope vertices of the datum, one reshaped word per Weyl element.

        Elements come in (length, canonical word) order, so a parent, whose
        canonical word is the child's minus its last letter i, comes first.  The
        parent keeps the tail of its word of w0 with the entries moved there;
        bringing i to the front of that tail adds entry x step to its vertex.
        """
        src = self.require_word(lus.word)
        self._check_braid_orders()
        state = {(): (src, lus.entries, (0,) * self.datum.d)}
        vertices = []
        for w, step in self._vertex_steps():
            c = w.word
            if c:
                tail, entries, point = state[c[:-1]]
                moves, tail = self._front(tail, c[-1])
                entries = _apply_moves(entries, moves)
                point = tuple(p + entries[0] * s for p, s in zip(point, step))
                state[c] = (tail[1:], entries[1:], point)
            vertices.append((w, Coweight(state[c][2])))
        return GGMSDatum(vertices=tuple(vertices))

    def validate_ggms(self, g: GGMSDatum) -> bool:
        """Pairwise vertex compatibility: nu_w >=_w nu_w' in integer mode."""
        items = g.vertices
        for w, vw in items:
            for _, vu in items:
                if not self.datum.le_w(w, vu, vw, "integer"):
                    return False
        return True

    # -- the membership test -------------------------------------------------------

    def is_mv(self, lus: LusztigDatum, mu: Coweight) -> bool:
        """Does the polytope of the datum, shifted to mu, stay in hull(W mu)?

        mu must be dominant and lambda = mu + coweight must lie in the weight
        set of mu; the test is then the crystal bound eps_i^* <= <alpha_i, mu>
        for each simple i (Kashiwara, Kamnitzer), eps_i^* being the first entry
        of the datum transported to a word of w0 that starts with i.
        """
        if not self.datum.is_dominant(mu):
            raise ValueError("is_mv needs a dominant mu")
        word = self.require_word(lus.word)
        lam = mu + self._partial_sum(word, lus.entries)
        dom = self.datum.dominant_representative(lam)
        if not self.datum.dominance_le(dom, mu, "rational"):
            raise ValueError(
                f"lambda {lam.coords} lies outside hull(W mu); not a weight of mu"
            )
        self._check_braid_orders()
        return all(
            _apply_moves(lus.entries, self._front(word, i)[0])[0]
            <= linalg.dot(self.datum.simple_roots[i - 1].coords, mu.coords)
            for i in self.group.simple_indices
        )

    # -- enumeration ------------------------------------------------------------------

    def _target_cocoeffs(self, nu: Coweight) -> Optional[tuple[int, ...]]:
        """Coefficients of -nu over the simple coroots, when nonneg integral."""
        coeffs = self.datum.coroot_coefficients(-nu)
        if coeffs is None:
            return None
        if any(c.denominator != 1 or c < 0 for c in coeffs):
            return None
        return tuple(int(c) for c in coeffs)

    def enumerate_data(self, word: Sequence[int], nu: Coweight) -> tuple[LusztigDatum, ...]:
        """All data on the word with path endpoint nu, in lexicographic order."""
        word = self.require_word(word)
        return self._block_data(word, tuple((pos,) for pos in range(1, len(word) + 1)), nu)

    def enumerate_block_data(self, sw: SigmaWord, nu: Coweight) -> tuple[LusztigDatum, ...]:
        """Data on the sigma-compatible word, constant on blocks, endpoint nu."""
        return self._block_data(self.require_word(sw.word), sw.blocks, nu)

    def _block_data(
        self, word: tuple[int, ...], blocks: Sequence[tuple[int, ...]], nu: Coweight
    ) -> tuple[LusztigDatum, ...]:
        """Data on a checked word, constant on each block of 1-based positions,
        with endpoint nu; lexicographic in the block values."""
        target = self._target_cocoeffs(nu)
        if target is None:
            return ()
        table = self.datum.coroot_coefficient_table()
        steps = self.step_coweights(word)
        block_coeffs = []
        for block in blocks:
            acc = (0,) * self.datum.rank
            for pos in block:
                step = steps[pos - 1]
                coeff = table[tuple(-x for x in step.coords)]
                acc = tuple(a + b for a, b in zip(acc, coeff))
            block_coeffs.append(acc)
        sols = _nonneg_solutions(block_coeffs, target)
        out = []
        for s in sols:
            entries = [0] * len(word)
            for value, block in zip(s, blocks):
                for pos in block:
                    entries[pos - 1] = value
            out.append(LusztigDatum(word=word, entries=tuple(entries)))
        return tuple(out)

    def kostant(self, nu: Coweight) -> int:
        """Number of multiset decompositions of -nu into positive coroots.

        Counted straight over the coroot list, with no reference to words or
        Lusztig data, so it can serve as an independent cross-check: one
        unbounded-knapsack pass per positive coroot over the box of
        coefficient vectors below the target, in lexicographic order.
        """
        target = self._target_cocoeffs(nu)
        if target is None:
            return 0
        strides = [1] * len(target)
        for j in range(len(target) - 1, 0, -1):
            strides[j - 1] = strides[j] * (target[j] + 1)
        ways = [1] + [0] * (prod(t + 1 for t in target) - 1)
        for coeff in self.datum.coroot_coefficient_table().values():
            shift = sum(c * s for c, s in zip(coeff, strides))
            for cell in product(*(range(c, t + 1) for c, t in zip(coeff, target))):
                idx = sum(x * s for x, s in zip(cell, strides))
                ways[idx] += ways[idx - shift]
        return ways[-1]


def _braid_move(entries: tuple[int, ...], k: int, m: int) -> tuple[int, ...]:
    """Entries after the braid move of order m at 1-based position k: order 2
    swaps, order 3 is the tropical rule (a, b, c) -> (b + c - p, p, a + b - p),
    p = min(a, c), of Berenstein-Zelevinsky."""
    n = entries
    if m == 2:
        return n[: k - 1] + (n[k], n[k - 1]) + n[k + 1 :]
    p = min(n[k - 1], n[k + 1])
    return n[: k - 1] + (n[k] + n[k + 1] - p, p, n[k - 1] + n[k] - p) + n[k + 2 :]


def _apply_moves(entries: tuple[int, ...], moves: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Entries after the braid moves (k, m), in order."""
    for k, m in moves:
        entries = _braid_move(entries, k, m)
    return entries


def _nonneg_solutions(
    step_coeffs: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All nonnegative integer x with sum_k x_k * step_coeffs[k] == target.

    Each step vector is nonnegative and nonzero, so a depth-first scan with
    componentwise bounds terminates; solutions come out lexicographically.
    """
    out: list[tuple[int, ...]] = []
    n = len(step_coeffs)

    def rec(idx: int, rem: tuple[int, ...], acc: list[int]) -> None:
        if idx == n:
            if all(x == 0 for x in rem):
                out.append(tuple(acc))
            return
        step = step_coeffs[idx]
        # Bound from the tightest coordinate; steps are nonzero by construction.
        bound = min(rem[j] // step[j] for j in range(len(rem)) if step[j] > 0)
        # Nothing after idx can reduce a coordinate the remaining steps miss.
        for val in range(bound + 1):
            rec(idx + 1, tuple(r - val * s for r, s in zip(rem, step)), acc + [val])

    if not n:
        return [()] if all(x == 0 for x in target) else []
    rec(0, target, [])
    return out


@lru_cache(maxsize=None)
def mv_calculus(datum: RootDatum) -> MVCalculus:
    return MVCalculus(datum)


def path_vertices(datum: RootDatum, lus: LusztigDatum) -> PathVertices:
    return mv_calculus(datum).path_vertices(lus)


def coweight(datum: RootDatum, lus: LusztigDatum) -> Coweight:
    return mv_calculus(datum).coweight(lus)


def braid_transition(
    datum: RootDatum, lus: LusztigDatum, k: int, m: Optional[int] = None
) -> LusztigDatum:
    return mv_calculus(datum).braid_transition(lus, k, m)


def transport(datum: RootDatum, lus: LusztigDatum, target: Sequence[int]) -> LusztigDatum:
    return mv_calculus(datum).transport(lus, target)


def ggms_datum(datum: RootDatum, lus: LusztigDatum) -> GGMSDatum:
    return mv_calculus(datum).ggms_datum(lus)


def is_mv(datum: RootDatum, lus: LusztigDatum, mu: Coweight) -> bool:
    return mv_calculus(datum).is_mv(lus, mu)


def enumerate_data(datum: RootDatum, word: Sequence[int], nu: Coweight):
    return mv_calculus(datum).enumerate_data(word, nu)


def kostant(datum: RootDatum, nu: Coweight) -> int:
    return mv_calculus(datum).kostant(nu)


def is_sigma_invariant(
    datum: RootDatum,
    sigma: PinnedAut,
    lus: LusztigDatum,
    sw: Optional[SigmaWord] = None,
) -> bool:
    """Entries constant on every block of the sigma-compatible word."""
    if sw is None:
        sw = sigma_compatible_word(datum, sigma)
    if tuple(lus.word) != sw.word:
        raise ValueError("datum does not live on the sigma-compatible word")
    for block in sw.blocks:
        vals = {lus.entries[pos - 1] for pos in block}
        if len(vals) > 1:
            return False
    return True


def fold_lusztig_datum(
    datum: RootDatum,
    sigma: PinnedAut,
    lus: LusztigDatum,
    sw: Optional[SigmaWord] = None,
) -> LusztigDatum:
    """Collapse an invariant datum to one entry per block, on the folded word.

    The folded datum lives over the folded root datum and keeps the same path
    endpoint under the inclusion of invariant coweights.
    """
    if sw is None:
        sw = sigma_compatible_word(datum, sigma)
    if not is_sigma_invariant(datum, sigma, lus, sw):
        raise ValueError("datum is not sigma-invariant")
    folded_entries = tuple(lus.entries[block[0] - 1] for block in sw.blocks)
    return LusztigDatum(word=sw.word_sigma, entries=folded_entries)
