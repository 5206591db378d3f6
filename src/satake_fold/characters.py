"""Weight multiplicities and characters on the coweight side.

The representation-theoretic operations here are for the group whose roots
are the datum's coroots, so highest weights, weight sets, and characters all
live in the coweight lattice.  Multiplicities come from Freudenthal's
recursion, in integers, over the invariant form sum_a <a, x><a, y> through its
Gram matrix.  It runs on the dominant weights only, in decreasing height, and
copies each value to the W-orbit (Moody-Patera, Bull. AMS 1982); the weight
set is built from those orbits (Stembridge, Adv. Math. 1998).  The dimension
product formula is a second, independent consistency anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .mv_calculus import mv_calculus
from .root_datum import Coweight, RootDatum
from .weyl import weyl_group
from . import linalg


@dataclass(frozen=True)
class CharPoly:
    """Finite integer-valued function on the coweight lattice.

    Terms are kept sorted by (pairing with 2 rho, coordinates) with zero
    values dropped, so equal characters compare equal as dataclasses.
    """

    terms: tuple[tuple[Coweight, int], ...]

    @staticmethod
    def from_map(datum: RootDatum, mapping: dict[Coweight, int]) -> "CharPoly":
        items = [(lam, m) for lam, m in mapping.items() if m != 0]
        items.sort(key=lambda t: (datum.height2(t[0]), t[0].coords))
        return CharPoly(terms=tuple(items))

    @cached_property
    def _lookup(self) -> dict[tuple[int, ...], int]:
        return {lam.coords: m for lam, m in self.terms}

    def multiplicity(self, lam: Coweight) -> int:
        return self._lookup.get(lam.coords, 0)

    def mass(self) -> int:
        return sum(m for _, m in self.terms)

    def support(self) -> tuple[Coweight, ...]:
        return tuple(lam for lam, _ in self.terms)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"coweight": list(lam.coords), "mult": m} for lam, m in self.terms
            ]
        }


def _freudenthal_table(datum: RootDatum, mu: Coweight) -> dict[tuple[int, ...], int]:
    """Multiplicity of every weight of mu's module, in reversed(weight_set) order."""
    key = ("freudenthal", mu.coords)
    table = datum._cache.get(key)
    if table is not None:
        return table
    # Gram matrix of the invariant form (x, y) = sum over positive roots a of <a, x><a, y>.
    roots = [a.coords for a in datum.positive_roots()]
    gram = [[sum(a[i] * a[j] for a in roots) for j in range(datum.d)] for i in range(datum.d)]
    coroots = [(b.coords, linalg.mat_vec(gram, b.coords)) for b in datum.positive_coroots()]
    two_rho_vee = datum.two_rho_vee().coords
    table = {}
    # Decreasing height: dominant conjugates and chain terms are filled first.
    for lc, dom in reversed(datum._dominant_conjugates(mu).items()):
        if lc != dom:
            table[lc] = table[dom]
            continue
        if lc == mu.coords:
            table[lc] = 1
            continue
        rhs = 0
        for beta, gram_beta in coroots:
            cur = tuple(a + b for a, b in zip(lc, beta))
            while cur in table:
                rhs += table[cur] * linalg.dot(cur, gram_beta)
                cur = tuple(a + b for a, b in zip(cur, beta))
        denom = linalg.dot(
            tuple(m + l + t for m, l, t in zip(mu.coords, lc, two_rho_vee)),
            linalg.mat_vec(gram, tuple(m - l for m, l in zip(mu.coords, lc))),
        )
        if denom <= 0:
            raise AssertionError("multiplicity recursion hit a nonpositive divisor")
        if (2 * rhs) % denom:
            raise AssertionError("multiplicity recursion gave a non-integer")
        table[lc] = (2 * rhs) // denom
    datum._cache[key] = table
    return table


def freudenthal_multiplicity(datum: RootDatum, mu: Coweight, lam: Coweight) -> int:
    """Multiplicity of lam in the module with highest coweight mu; 0 outside."""
    return _freudenthal_table(datum, mu).get(lam.coords, 0)


def weyl_dimension(datum: RootDatum, mu: Coweight) -> int:
    """Dimension of the module with highest coweight mu, by the product formula."""
    if not datum.is_dominant(mu):
        raise ValueError("weyl_dimension needs a dominant coweight")
    two_rho_vee = datum.two_rho_vee().coords
    top = tuple(2 * m + t for m, t in zip(mu.coords, two_rho_vee))
    dim = Fraction(1)
    for a in datum.positive_roots():
        dim *= Fraction(linalg.dot(a.coords, top), linalg.dot(a.coords, two_rho_vee))
    if dim.denominator != 1:
        raise AssertionError("dimension product did not reduce to an integer")
    return int(dim)


def character(datum: RootDatum, mu: Coweight) -> CharPoly:
    # The table runs down reversed(weight_set) and holds no zero, so read
    # backwards it is already in CharPoly's term order.
    table = _freudenthal_table(datum, mu)
    return CharPoly(terms=tuple((Coweight(c), m) for c, m in reversed(table.items())))


def mv_character(datum: RootDatum, mu: Coweight) -> CharPoly:
    """Character with each multiplicity replaced by its polytope-datum count."""
    if not datum.is_dominant(mu):
        raise ValueError("mv_character needs a dominant coweight")
    calc = mv_calculus(datum)
    word = weyl_group(datum).longest_element().word
    out = {}
    for lam in datum.weight_set(mu):
        count = 0
        for lus in calc.enumerate_data(word, lam - mu):
            if calc.is_mv(lus, mu):
                count += 1
        if count:
            out[lam] = count
    return CharPoly.from_map(datum, out)
