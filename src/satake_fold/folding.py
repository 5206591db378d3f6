"""Diagram automorphisms and folded root data.

A pinned automorphism is a permutation of the simple indices together with a
lattice automorphism of X realizing it on the simple roots.  Folding passes to
the coinvariant lattice of X modulo torsion and to the invariant lattice of
X^vee; the two quotient/inclusion maps are adjoint to each other by
construction, so the folded pairing is again the plain dot product.

Orbits must be pairwise disconnected or a single edge; folded coroots are the
orbit sums, doubled on edge orbits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Optional, Sequence

from .errors import InputError, UnsupportedOrbitError
from .root_datum import Coweight, RationalCoweight, RootDatum, Weight, datum_from_json_dict
from .weyl import WeylElement, WeylGroup, weyl_group
from . import linalg

_MAX_AUT_ORDER = 24


@dataclass(frozen=True)
class PinnedAut:
    """Automorphism of a root datum preserving the pinning.

    perm is 1-based: perm[i-1] is the image of simple index i.  matrix_on_X acts
    on weight coordinates; the action on coweights is the inverse transpose.
    """

    perm: tuple[int, ...]
    matrix_on_X: tuple[tuple[int, ...], ...]

    def apply_index(self, i: int) -> int:
        return self.perm[i - 1]

    def matrix_on_coweights(self):
        return _coweight_matrix(self)

    def apply_to_weight(self, x: Weight) -> Weight:
        return Weight(linalg.mat_vec(self.matrix_on_X, x.coords))

    def apply_to_coweight(self, v: Coweight) -> Coweight:
        return Coweight(linalg.mat_vec(self.matrix_on_coweights(), v.coords))

    def apply_to_word(self, word: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.apply_index(i) for i in word)

    def apply_to_element(self, group: WeylGroup, w: WeylElement) -> WeylElement:
        return group.element(self.apply_to_word(w.word))

    def order(self) -> int:
        return _aut_order(self)

    def is_identity(self) -> bool:
        return all(self.perm[i] == i + 1 for i in range(len(self.perm))) and (
            self.matrix_on_X == linalg.identity(len(self.matrix_on_X))
        )


@lru_cache(maxsize=None)
def _coweight_matrix(sigma: PinnedAut):
    return linalg.int_inverse(linalg.transpose(sigma.matrix_on_X))


@lru_cache(maxsize=None)
def _aut_order(sigma: PinnedAut) -> int:
    ident = linalg.identity(len(sigma.matrix_on_X))
    power = sigma.matrix_on_X
    for k in range(1, _MAX_AUT_ORDER + 1):
        if power == ident:
            return k
        power = linalg.mat_mul(power, sigma.matrix_on_X)
    raise ValueError(f"automorphism order exceeds {_MAX_AUT_ORDER}")


class OrbitType(Enum):
    DISCONNECTED = "disconnected"
    CONNECTED_PAIR = "connected-pair"


@dataclass(frozen=True)
class OrbitData:
    """Orbits of the simple indices (sorted by minimum), with their shapes."""

    orbits: tuple[tuple[int, ...], ...]
    types: tuple[OrbitType, ...]

    def __len__(self) -> int:
        return len(self.orbits)


def validate_pinned_aut(datum: RootDatum, sigma: PinnedAut) -> None:
    """Raise unless sigma is a pinned automorphism of the datum."""
    datum.require_valid()
    r = datum.rank
    if sorted(sigma.perm) != list(range(1, r + 1)):
        raise ValueError("perm must be a permutation of the simple indices")
    if len(sigma.matrix_on_X) != datum.d or any(len(row) != datum.d for row in sigma.matrix_on_X):
        raise ValueError("matrix_on_X has the wrong shape")
    try:
        mvee = sigma.matrix_on_coweights()
    except ValueError as exc:
        raise ValueError(f"matrix_on_X is not a lattice automorphism: {exc}") from exc
    for i in range(1, r + 1):
        img = sigma.apply_to_weight(Weight(datum.simple_roots[i - 1].coords))
        if img.coords != datum.simple_roots[sigma.apply_index(i) - 1].coords:
            raise ValueError(f"matrix_on_X does not map root {i} to root {sigma.apply_index(i)}")
        cimg = linalg.mat_vec(mvee, datum.simple_coroots[i - 1].coords)
        if cimg != datum.simple_coroots[sigma.apply_index(i) - 1].coords:
            raise ValueError(f"contragredient does not map coroot {i} to coroot {sigma.apply_index(i)}")
    sigma.order()  # raises when not of finite order


def orbit_analysis(datum: RootDatum, sigma: PinnedAut) -> OrbitData:
    """Orbits of sigma on the simple indices, classified.

    Each orbit must consist of pairwise disconnected vertices, or be a pair
    joined by a single edge with Cartan entries -1; anything else is refused.
    """
    validate_pinned_aut(datum, sigma)
    r = datum.rank
    seen: set[int] = set()
    orbits = []
    for i in range(1, r + 1):
        if i in seen:
            continue
        orbit = [i]
        seen.add(i)
        j = sigma.apply_index(i)
        while j not in seen:
            orbit.append(j)
            seen.add(j)
            j = sigma.apply_index(j)
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])
    types = tuple(classify_orbit(datum.cartan, orbit) for orbit in orbits)
    return OrbitData(tuple(orbits), types)


def classify_orbit(cartan, orbit: tuple[int, ...]) -> OrbitType:
    """Classify one orbit of simple indices against the dichotomy.

    Valid pinned automorphisms of finite-type data never violate it; the
    refusal paths guard hand-assembled inputs.
    """
    c = cartan
    edges = [
        (i, j)
        for a, i in enumerate(orbit)
        for j in orbit[a + 1 :]
        if c[i - 1][j - 1] != 0
    ]
    if not edges:
        return OrbitType.DISCONNECTED
    if len(orbit) == 2 and len(edges) == 1:
        i, j = orbit
        if c[i - 1][j - 1] == -1 and c[j - 1][i - 1] == -1:
            return OrbitType.CONNECTED_PAIR
        raise UnsupportedOrbitError(
            f"orbit {orbit} is joined by an edge with Cartan entries "
            f"({c[i - 1][j - 1]}, {c[j - 1][i - 1]}), not (-1, -1)"
        )
    raise UnsupportedOrbitError(
        f"orbit {orbit} has {len(edges)} internal edges; only disconnected "
        "orbits and single edges are supported"
    )


@dataclass(frozen=True)
class FoldedDatum:
    """Folded root datum with the quotient and inclusion maps that produced it.

    q maps X onto the folded weight lattice (coinvariants modulo torsion);
    incl embeds the folded coweight lattice as the sigma-fixed part of X^vee.
    incl is the transpose of q, which makes the two maps adjoint:
    <q(x), b> == <x, incl(b)> for every weight x and folded coweight b.
    """

    ambient: RootDatum
    sigma: PinnedAut
    datum: RootDatum
    q: tuple[tuple[int, ...], ...]
    incl: tuple[tuple[int, ...], ...]
    orbit_data: OrbitData
    invariant_factors: tuple[int, ...]

    def project_weight(self, x: Weight) -> Weight:
        return Weight(linalg.mat_vec(self.q, x.coords))

    def project_coweight(self, v: Coweight) -> Coweight:
        """Folded coordinates of a sigma-invariant coweight."""
        if self.sigma.apply_to_coweight(v) != v:
            raise ValueError(f"coweight {v.coords} is not sigma-invariant")
        cols = [tuple(row[j] for row in self.incl) for j in range(len(self.incl[0]))] if self.incl else []
        sol = linalg.solve_columns(cols, v.coords)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError(f"coweight {v.coords} is not in the invariant lattice")
        return Coweight(tuple(int(x) for x in sol))

    def include_coweight(self, b: Coweight) -> Coweight:
        return Coweight(linalg.mat_vec(self.incl, b.coords))

    def include_rational(self, b: RationalCoweight) -> RationalCoweight:
        return RationalCoweight(linalg.mat_vec(self.incl, b.coords))


@lru_cache(maxsize=None)
def fold(datum: RootDatum, sigma: PinnedAut) -> FoldedDatum:
    """Fold a datum along a pinned automorphism.

    The folded weight lattice is X / (saturation of (1 - sigma) X), presented in
    the basis that the Smith form of (1 - sigma) fixes; this keeps the output
    reproducible.  Folded simple roots are images q(alpha_i), one per orbit;
    folded coroots are orbit sums, doubled on connected pairs.
    """
    orbit_data = orbit_analysis(datum, sigma)
    d = datum.d
    m = sigma.matrix_on_X
    one_minus = tuple(
        tuple(int(r == c) - m[r][c] for c in range(d)) for r in range(d)
    )
    u, diag, _v = linalg.smith_normal_form(one_minus)
    free = [j for j in range(d) if diag[j][j] == 0]
    invariant_factors = tuple(abs(diag[j][j]) for j in range(d) if abs(diag[j][j]) > 1)
    q = tuple(u[j] for j in free)
    incl = tuple(tuple(qrow[col] for qrow in q) for col in range(d))

    k = len(free)
    # One folded root per orbit; q collapses the orbit to a single image.
    folded_roots = []
    folded_coroots = []
    incl_cols = [tuple(row[j] for row in incl) for j in range(k)]
    for orbit, otype in zip(orbit_data.orbits, orbit_data.types):
        images = {
            tuple(linalg.mat_vec(q, datum.simple_roots[i - 1].coords)) for i in orbit
        }
        if len(images) != 1:
            raise AssertionError("orbit roots do not share a folded image")
        folded_roots.append(Weight(images.pop()))
        total = sum((datum.simple_coroots[i - 1] for i in orbit), Coweight((0,) * d))
        if otype is OrbitType.CONNECTED_PAIR:
            total = total.scale(2)
        sol = linalg.solve_columns(incl_cols, total.coords)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise AssertionError("folded coroot is not in the invariant lattice")
        folded_coroots.append(Coweight(tuple(int(x) for x in sol)))
    folded = RootDatum(k, folded_roots, folded_coroots)
    folded.require_valid()
    return FoldedDatum(
        ambient=datum,
        sigma=sigma,
        datum=folded,
        q=q,
        incl=incl,
        orbit_data=orbit_data,
        invariant_factors=invariant_factors,
    )


@dataclass(frozen=True)
class FoldedWeyl:
    """The fixed subgroup W^sigma as a Coxeter system.

    Generators are the longest elements of the orbit parabolics, indexed like
    the orbits (1-based).  Lengths are Coxeter lengths with respect to these
    generators, found by breadth-first search.
    """

    group: WeylGroup
    generators: tuple[WeylElement, ...]
    coxeter_matrix: tuple[tuple[int, ...], ...]
    elements: tuple[WeylElement, ...]
    w0: WeylElement

    def length(self, w: WeylElement) -> int:
        lengths = _subgroup_lengths(self)
        if w not in lengths:
            raise ValueError("element is not in the folded Weyl group")
        return lengths[w]

    def reduced_words(self, w: WeylElement) -> tuple[tuple[int, ...], ...]:
        """All reduced words of w in the generators, as tuples of orbit indices."""
        lengths = _subgroup_lengths(self)
        if w not in lengths:
            raise ValueError("element is not in the folded Weyl group")

        def rec(u: WeylElement) -> tuple[tuple[int, ...], ...]:
            if lengths[u] == 0:
                return ((),)
            out = []
            for idx, g in enumerate(self.generators, start=1):
                prev = g * u
                if lengths.get(prev, -1) == lengths[u] - 1:
                    for tail in rec(prev):
                        out.append((idx,) + tail)
            return tuple(out)

        return rec(w)

    def canonical_word(self, w: WeylElement) -> tuple[int, ...]:
        lengths = _subgroup_lengths(self)
        if w not in lengths:
            raise ValueError("element is not in the folded Weyl group")
        letters = []
        cur = w
        while lengths[cur] > 0:
            for idx, g in enumerate(self.generators, start=1):
                prev = g * cur
                if lengths.get(prev, -1) == lengths[cur] - 1:
                    letters.append(idx)
                    cur = prev
                    break
        return tuple(letters)


def _subgroup_lengths(fw: FoldedWeyl) -> dict[WeylElement, int]:
    got = getattr(fw, "_lengths", None)
    if got is None:
        got = {fw.group.identity: 0}
        frontier = [fw.group.identity]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for w in frontier:
                for g in fw.generators:
                    new = g * w
                    if new not in got:
                        got[new] = depth
                        nxt.append(new)
            frontier = nxt
        object.__setattr__(fw, "_lengths", got)
    return got


@lru_cache(maxsize=None)
def folded_weyl(datum: RootDatum, sigma: PinnedAut) -> FoldedWeyl:
    """Generators, Coxeter matrix, and elements of the fixed subgroup W^sigma."""
    orbit_data = orbit_analysis(datum, sigma)
    group = weyl_group(datum)
    gens = []
    for orbit, otype in zip(orbit_data.orbits, orbit_data.types):
        if otype is OrbitType.DISCONNECTED:
            gens.append(group.element(tuple(orbit)))
        else:
            i, j = orbit
            gens.append(group.element((i, j, i)))
    k = len(gens)
    cox = [[1] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            prod = gens[a] * gens[b]
            power = prod
            order = 1
            while not power.is_identity():
                power = power * prod
                order += 1
                if order > 64:
                    raise AssertionError("folded Coxeter order did not terminate")
            cox[a][b] = order
    probe = FoldedWeyl(
        group=group,
        generators=tuple(gens),
        coxeter_matrix=tuple(tuple(row) for row in cox),
        elements=(),
        w0=group.identity,
    )
    lengths = _subgroup_lengths(probe)
    els = sorted(lengths, key=lambda w: (lengths[w], w.word))
    top = els[-1]
    if sum(1 for w in els if lengths[w] == lengths[top]) != 1:
        raise AssertionError("folded longest element is not unique")
    fw = FoldedWeyl(
        group=group,
        generators=probe.generators,
        coxeter_matrix=probe.coxeter_matrix,
        elements=tuple(els),
        w0=top,
    )
    object.__setattr__(fw, "_lengths", lengths)
    return fw


@dataclass(frozen=True)
class SigmaWord:
    """A reduced word for w0 assembled from orbit blocks.

    word is the expanded word in simple indices; blocks[t] lists the 1-based
    positions of word coming from letter t of word_sigma, and the entries of a
    sigma-invariant Lusztig datum are constant on each block.
    """

    word: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    word_sigma: tuple[int, ...]


def _orbit_expansions(orbit: tuple[int, ...], otype: OrbitType) -> tuple[tuple[int, ...], ...]:
    if otype is OrbitType.DISCONNECTED:
        return tuple(sorted(permutations(orbit)))
    i, j = orbit
    return ((i, j, i), (j, i, j))


def sigma_compatible_word(
    datum: RootDatum, sigma: PinnedAut, word_sigma: Optional[Sequence[int]] = None
) -> SigmaWord:
    """Expand a reduced word for the folded longest element into one for w0.

    Every orbit letter contributes its default block (increasing order on
    disconnected orbits, (i, j, i) with i < j on pairs).  The result is checked
    to be a reduced word for w0 of the ambient group.
    """
    fw = folded_weyl(datum, sigma)
    orbit_data = orbit_analysis(datum, sigma)
    if word_sigma is None:
        word_sigma = fw.canonical_word(fw.w0)
    word_sigma = tuple(word_sigma)
    prod = fw.group.identity
    for t in word_sigma:
        if not 1 <= t <= len(fw.generators):
            raise ValueError(f"orbit index {t} out of range")
        prod = prod * fw.generators[t - 1]
    if prod != fw.w0 or len(word_sigma) != _subgroup_lengths(fw)[fw.w0]:
        raise ValueError("word_sigma is not a reduced word for the folded longest element")
    word: list[int] = []
    blocks: list[tuple[int, ...]] = []
    for t in word_sigma:
        block = _orbit_expansions(orbit_data.orbits[t - 1], orbit_data.types[t - 1])[0]
        start = len(word) + 1
        word.extend(block)
        blocks.append(tuple(range(start, start + len(block))))
    w0 = fw.group.longest_element()
    if len(word) != w0.length or fw.group.element(tuple(word)) != w0:
        raise AssertionError("expanded word is not a reduced word for w0")
    return SigmaWord(word=tuple(word), blocks=tuple(blocks), word_sigma=word_sigma)


def expansion_words(
    datum: RootDatum, sigma: PinnedAut, word_sigma: Optional[Sequence[int]] = None
) -> tuple[tuple[int, ...], ...]:
    """All expansions of word_sigma obtained by choosing a reduced word per block."""
    fw = folded_weyl(datum, sigma)
    orbit_data = orbit_analysis(datum, sigma)
    if word_sigma is None:
        word_sigma = fw.canonical_word(fw.w0)
    choices = [
        _orbit_expansions(orbit_data.orbits[t - 1], orbit_data.types[t - 1]) for t in word_sigma
    ]
    out = [()]
    for opts in choices:
        out = [prefix + opt for prefix in out for opt in opts]
    return tuple(sorted(out))


def rho_check(datum: RootDatum, sigma: PinnedAut) -> bool:
    """Half-sums of positive coroots agree upstairs and downstairs."""
    fd = fold(datum, sigma)
    upstairs = datum.rho_vee()
    downstairs = fd.include_rational(fd.datum.rho_vee())
    return upstairs.coords == downstairs.coords


def invariant_dominant_coweights(
    datum: RootDatum, sigma: PinnedAut, max_height: Fraction | int
) -> tuple[Coweight, ...]:
    """Sigma-invariant dominant coweights with <rho, mu> up to max_height.

    Enumerated through the folded datum, which must be semisimple for the set
    to be finite.
    """
    fd = fold(datum, sigma)
    k = fd.datum.d
    if fd.datum.rank != k:
        raise InputError("sweep needs a semisimple folded datum (no central directions)")
    if k == 0:
        return (Coweight((0,) * datum.d),)
    root_rows = tuple(x.coords for x in fd.datum.simple_roots)
    inv = linalg.frac_inverse(root_rows)
    fundamentals = [
        RationalCoweight(tuple(inv[r][j] for r in range(k))) for j in range(k)
    ]
    two_rho = datum.two_rho().coords
    weights = []
    for f in fundamentals:
        amb = fd.include_rational(f)
        w = Fraction(linalg.dot(two_rho, amb.coords), 2)
        if w <= 0:
            raise AssertionError("fundamental folded coweight has nonpositive height")
        weights.append(w)
    bound = Fraction(max_height)
    out = []

    def rec(idx: int, acc: list[Fraction], used: Fraction) -> None:
        if idx == k:
            coords = tuple(sum((acc[j] * Fraction(fundamentals[j].coords[r]) for j in range(k)), Fraction(0)) for r in range(k))
            if all(c.denominator == 1 for c in coords):
                out.append(Coweight(tuple(int(c) for c in coords)))
            return
        m = 0
        while used + m * weights[idx] <= bound:
            acc.append(Fraction(m))
            rec(idx + 1, acc, used + m * weights[idx])
            acc.pop()
            m += 1

    rec(0, [], Fraction(0))
    ambient = [fd.include_coweight(b) for b in out]
    ambient.sort(key=lambda v: (datum.height2(v), v.coords))
    return tuple(ambient)


def sigma_from_json_dict(obj: dict) -> PinnedAut:
    try:
        perm = obj["perm"]
        mat = obj["matrix_on_X"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"automorphism JSON needs keys perm and matrix_on_X: {exc}") from exc
    if not isinstance(perm, list) or not all(isinstance(x, int) for x in perm):
        raise InputError("perm must be a list of 1-based integers")
    if not isinstance(mat, list) or not all(
        isinstance(row, list) and all(isinstance(x, int) for x in row) for row in mat
    ):
        raise InputError("matrix_on_X must be a list of integer rows")
    return PinnedAut(perm=tuple(perm), matrix_on_X=tuple(tuple(row) for row in mat))


def load_sigma(path: str) -> PinnedAut:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse {path}: {exc}") from exc
    return sigma_from_json_dict(obj)


def _perm_matrix(perm: tuple[int, ...], d: int):
    mat = [[0] * d for _ in range(d)]
    for i, img in enumerate(perm, start=1):
        mat[img - 1][i - 1] = 1
    for i in range(len(perm), d):
        mat[i][i] = 1
    return tuple(tuple(row) for row in mat)


def builtin_sigma(name: str, datum: RootDatum) -> PinnedAut:
    """Named automorphisms for the built-in data.

    The matrix on X permutes coordinates, which realizes the diagram
    permutation on every built-in datum (their bases are permuted by it).
    """
    perms = {
        "identity": tuple(range(1, datum.rank + 1)),
        "A2-swap": (2, 1),
        "A3-flip": (3, 2, 1),
        "A4-flip": (4, 3, 2, 1),
        "D4-rot3": (3, 2, 4, 1),
    }
    if name not in perms:
        raise InputError(f"unknown built-in automorphism {name!r}")
    perm = perms[name]
    if len(perm) != datum.rank:
        raise InputError(f"automorphism {name!r} does not fit a rank {datum.rank} datum")
    sigma = PinnedAut(perm=perm, matrix_on_X=_perm_matrix(perm, datum.d))
    validate_pinned_aut(datum, sigma)
    return sigma


BUILTIN_SIGMAS = ("identity", "A2-swap", "A3-flip", "A4-flip", "D4-rot3")
