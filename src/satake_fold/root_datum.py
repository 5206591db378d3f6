"""Root data in mutually dual bases, with exact dominance and weight-set tools.

A datum holds a character lattice X = Z^d and a cocharacter lattice X^vee = Z^d
written in dual bases, so the canonical pairing of a Weight with a Coweight is
the plain dot product of coordinate vectors.  Simple roots live in X, simple
coroots in X^vee, and the Cartan matrix is C[i][j] = <alpha_i, alpha_j^vee>.

Simple root indices are 1-based everywhere in the public API, matching the
usual Dynkin diagram labelling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import EnumerationCapError, InputError, InvalidDatumError
from . import linalg

#: Hard cap on the root closure loop; valid finite data stay far below it.
_ROOT_CLOSURE_CAP = 20000


@dataclass(frozen=True, slots=True)
class Weight:
    """Element of X, coordinates in the fixed basis."""

    coords: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scale(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coords))


@dataclass(frozen=True, slots=True)
class Coweight:
    """Element of X^vee, coordinates in the dual basis."""

    coords: tuple[int, ...]

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Coweight":
        return Coweight(tuple(-a for a in self.coords))

    def scale(self, k: int) -> "Coweight":
        return Coweight(tuple(k * a for a in self.coords))

    def to_rational(self) -> "RationalCoweight":
        return RationalCoweight(tuple(Fraction(a) for a in self.coords))


@dataclass(frozen=True, slots=True)
class RationalCoweight:
    """Element of X^vee tensor Q, used for rho^vee and hull arithmetic."""

    coords: tuple[Fraction, ...]

    def __add__(self, other: "RationalCoweight") -> "RationalCoweight":
        return RationalCoweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RationalCoweight") -> "RationalCoweight":
        return RationalCoweight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, k) -> "RationalCoweight":
        return RationalCoweight(tuple(k * a for a in self.coords))


def pairing(x: Weight, v: Coweight | RationalCoweight):
    """Canonical pairing <x, v>; integer for integral arguments."""
    return linalg.dot(x.coords, v.coords)


class RootDatum:
    """Root datum (X, simple roots, X^vee, simple coroots) in dual bases.

    Instances are immutable after construction and hash by content, so they can
    key caches.  Construction checks shapes only; semantic checks (Cartan axioms,
    finite type, independence) live in :func:`validate`.
    """

    def __init__(self, d: int, simple_roots: Sequence[Weight], simple_coroots: Sequence[Coweight]):
        if d < 0:
            raise ValueError("d must be nonnegative")
        if len(simple_roots) != len(simple_coroots):
            raise ValueError("simple_roots and simple_coroots must have equal length")
        for x in simple_roots:
            if len(x.coords) != d:
                raise ValueError("dimension mismatch in simple_roots")
        for v in simple_coroots:
            if len(v.coords) != d:
                raise ValueError("dimension mismatch in simple_coroots")
        self.d = d
        self.simple_roots = tuple(simple_roots)
        self.simple_coroots = tuple(simple_coroots)
        self.rank = len(simple_roots)
        self.cartan = tuple(
            tuple(pairing(a, bv) for bv in self.simple_coroots) for a in self.simple_roots
        )
        self._cache: dict = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootDatum)
            and self.d == other.d
            and self.simple_roots == other.simple_roots
            and self.simple_coroots == other.simple_coroots
        )

    def __hash__(self) -> int:
        return hash((self.d, self.simple_roots, self.simple_coroots))

    def __repr__(self) -> str:
        return f"RootDatum(d={self.d}, rank={self.rank})"

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Return the list of axiom violations; empty means the datum is valid."""
        out: list[str] = []
        c = self.cartan
        r = self.rank
        for i in range(r):
            if c[i][i] != 2:
                out.append(f"diagonal Cartan entry at ({i + 1}, {i + 1}) is {c[i][i]}, expected 2")
        for i in range(r):
            for j in range(r):
                if i != j and c[i][j] > 0:
                    out.append(f"positive off-diagonal Cartan entry at ({i + 1}, {j + 1})")
        for i in range(r):
            for j in range(i + 1, r):
                if (c[i][j] == 0) != (c[j][i] == 0):
                    spot = (i + 1, j + 1) if c[i][j] != 0 else (j + 1, i + 1)
                    out.append(f"asymmetric zero at {spot}")
        if self._independent(self.simple_roots) is False:
            out.append("simple roots are linearly dependent")
        if self._independent(self.simple_coroots) is False:
            out.append("simple coroots are linearly dependent")
        if not out and r > 0 and not self._finite_type():
            out.append("Cartan matrix is not of finite type")
        return out

    @staticmethod
    def _independent(vecs) -> bool:
        if not vecs:
            return True
        try:
            linalg.solve_columns([v.coords for v in vecs], (0,) * len(vecs[0].coords))
        except ValueError:
            return False
        return True

    def _finite_type(self) -> bool:
        """Check the symmetrized Cartan matrix is positive definite."""
        r = self.rank
        c = self.cartan
        # Symmetrizer by propagation along the diagram; fails only off finite type.
        dsym = [Fraction(0)] * r
        for start in range(r):
            if dsym[start] != 0:
                continue
            dsym[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(r):
                    if i == j or c[i][j] == 0:
                        continue
                    want = dsym[i] * c[i][j] / c[j][i]
                    if dsym[j] == 0:
                        dsym[j] = want
                        stack.append(j)
                    elif dsym[j] != want:
                        return False
        if any(x <= 0 for x in dsym):
            return False
        sym = [[dsym[i] * c[i][j] for j in range(r)] for i in range(r)]
        # Leading principal minors all positive.
        m = [row[:] for row in sym]
        det = Fraction(1)
        for k in range(r):
            piv = next((i for i in range(k, r) if m[i][k] != 0), None)
            if piv is None:
                return False
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det
            det *= m[k][k]
            if det <= 0:
                return False
            for i in range(k + 1, r):
                f = m[i][k] / m[k][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        return True

    def require_valid(self) -> None:
        if "valid" not in self._cache:
            violations = self.validate()
            if violations:
                raise InvalidDatumError(violations)
            self._cache["valid"] = True

    # -- roots ---------------------------------------------------------------

    def _positive_system(self):
        """Positive roots with parallel coroots and simple-coefficient vectors.

        Generated by reflection closure from the simple pairs, ordered by
        coefficient height then lexicographic coordinates.
        """
        if "possys" in self._cache:
            return self._cache["possys"]
        self.require_valid()
        r = self.rank
        # Entries: root coords -> (coroot coords, root coeffs over Pi, coroot coeffs over Pi^vee).
        seen: dict[tuple[int, ...], tuple] = {}
        frontier = []
        for i in range(r):
            unit = tuple(int(k == i) for k in range(r))
            item = (self.simple_roots[i].coords, self.simple_coroots[i].coords, unit, unit)
            seen[item[0]] = item[1:]
            frontier.append(item)
        steps = 0
        while frontier:
            nxt = []
            for root, coroot, coeff, cocoeff in frontier:
                for i in range(r):
                    steps += 1
                    if steps > _ROOT_CLOSURE_CAP:
                        raise EnumerationCapError("root closure did not stabilize; datum is not finite type")
                    a = linalg.dot(root, self.simple_coroots[i].coords)
                    b = linalg.dot(self.simple_roots[i].coords, coroot)
                    new_root = tuple(x - a * y for x, y in zip(root, self.simple_roots[i].coords))
                    new_coroot = tuple(x - b * y for x, y in zip(coroot, self.simple_coroots[i].coords))
                    new_coeff = tuple(x - a * int(k == i) for k, x in enumerate(coeff))
                    new_cocoeff = tuple(x - b * int(k == i) for k, x in enumerate(cocoeff))
                    if all(x >= 0 for x in new_coeff) and new_root not in seen:
                        seen[new_root] = (new_coroot, new_coeff, new_cocoeff)
                        nxt.append((new_root, new_coroot, new_coeff, new_cocoeff))
            frontier = nxt
        order = sorted(seen.items(), key=lambda kv: (sum(kv[1][1]), kv[0]))
        roots = tuple(Weight(root) for root, _ in order)
        coroots = tuple(Coweight(rest[0]) for _, rest in order)
        cocoeffs = tuple(rest[2] for _, rest in order)
        self._cache["possys"] = (roots, coroots, cocoeffs)
        return self._cache["possys"]

    def positive_roots(self) -> tuple[Weight, ...]:
        return self._positive_system()[0]

    def positive_coroots(self) -> tuple[Coweight, ...]:
        return self._positive_system()[1]

    def root_sign(self, x: Weight) -> int:
        """+1 / -1 for positive / negative roots, raises for non-roots."""
        table = self._cache.get("signs")
        if table is None:
            table = {}
            for root in self.positive_roots():
                table[root.coords] = 1
                table[tuple(-a for a in root.coords)] = -1
            self._cache["signs"] = table
        try:
            return table[x.coords]
        except KeyError:
            raise ValueError(f"{x.coords} is not a root") from None

    def coroot_coefficient_table(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Map positive coroot coordinates -> simple-coroot coefficient vector."""
        table = self._cache.get("cocoeffs")
        if table is None:
            _, coroots, coeffs = self._positive_system()
            table = {cv.coords: cf for cv, cf in zip(coroots, coeffs)}
            self._cache["cocoeffs"] = table
        return table

    def rho_vee(self) -> RationalCoweight:
        """Half the sum of the positive coroots."""
        two = self.two_rho_vee()
        return RationalCoweight(tuple(Fraction(a, 2) for a in two.coords))

    def two_rho_vee(self) -> Coweight:
        if "2rhov" not in self._cache:
            self._cache["2rhov"] = sum(self.positive_coroots(), Coweight((0,) * self.d))
        return self._cache["2rhov"]

    def two_rho(self) -> Weight:
        if "2rho" not in self._cache:
            self._cache["2rho"] = sum(self.positive_roots(), Weight((0,) * self.d))
        return self._cache["2rho"]

    def height2(self, v: Coweight | RationalCoweight):
        """<2 rho, v>; twice the usual height, but always exact."""
        return linalg.dot(self.two_rho().coords, v.coords)

    # -- dominance -----------------------------------------------------------

    def _coroot_solver(self):
        if "cosolver" not in self._cache:
            cols = [cv.coords for cv in self.simple_coroots]
            self._cache["cosolver"] = linalg.scaled_left_inverse(cols) if cols else ((), 1)
        return self._cache["cosolver"]

    def coroot_coefficients(self, v: Coweight) -> Optional[tuple[Fraction, ...]]:
        """Coefficients of v in the simple coroot basis, or None if outside the span."""
        self.require_valid()
        lint, den = self._coroot_solver()
        if self.rank == 0:
            return () if all(a == 0 for a in v.coords) else None
        num = linalg.mat_vec(lint, v.coords)
        # Residual check: the candidate must reproduce v exactly.
        for pos in range(self.d):
            acc = 0
            for j in range(self.rank):
                acc += num[j] * self.simple_coroots[j].coords[pos]
            if acc != den * v.coords[pos]:
                return None
        return tuple(Fraction(n, den) for n in num)

    def dominance_le(self, lam: Coweight, mu: Coweight, mode: str = "integer") -> bool:
        """lam <= mu when mu - lam is a nonnegative combination of simple coroots.

        mode 'integer' asks for nonnegative integer coefficients, 'rational' for
        nonnegative rational ones.
        """
        if mode not in ("integer", "rational"):
            raise ValueError(f"unknown dominance mode {mode!r}")
        coeffs = self.coroot_coefficients(mu - lam)
        if coeffs is None:
            return False
        if mode == "integer" and any(c.denominator != 1 for c in coeffs):
            return False
        return all(c >= 0 for c in coeffs)

    def le_w(self, w, lam: Coweight, mu: Coweight, mode: str = "integer") -> bool:
        """Dominance twisted by w: compare w^{-1}(lam) <= w^{-1}(mu)."""
        winv = w.inverse()
        return self.dominance_le(winv.apply(lam), winv.apply(mu), mode)

    def is_dominant(self, v: Coweight | RationalCoweight) -> bool:
        return all(linalg.dot(a.coords, v.coords) >= 0 for a in self.simple_roots)

    def dominant_representative(self, v: Coweight) -> Coweight:
        """The dominant element of the Weyl orbit of v."""
        self.require_valid()
        cur = v.coords
        while True:
            for i in range(self.rank):
                p = linalg.dot(self.simple_roots[i].coords, cur)
                if p < 0:
                    step = self.simple_coroots[i].coords
                    cur = tuple(a - p * b for a, b in zip(cur, step))
                    break
            else:
                return Coweight(cur)

    def _dominant_conjugates(self, mu: Coweight) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Map each weight of mu to its dominant conjugate, keyed in weight_set order.

        Dominant weights below mu are reached from mu through dominant points by
        subtracting positive coroots (Stembridge, Adv. Math. 1998); the W-orbit
        of each is expanded by the simple reflections that lower it.
        """
        self.require_valid()
        if not self.is_dominant(mu):
            raise ValueError("weight_set requires a dominant coweight")
        steps = [(a.coords, v.coords) for a, v in zip(self.simple_roots, self.simple_coroots)]
        conj = {mu.coords: mu.coords}
        dominant = [mu.coords]
        for lam in dominant:  # grows while it is read
            orbit = [lam]
            for x in orbit:
                for a, av in steps:
                    p = linalg.dot(a, x)
                    if p > 0 and (y := tuple(c - p * v for c, v in zip(x, av))) not in conj:
                        conj[y] = lam
                        orbit.append(y)
            for beta in self.positive_coroots():
                y = tuple(a - b for a, b in zip(lam, beta.coords))
                if y not in conj and self.is_dominant(Coweight(y)):
                    conj[y] = y
                    dominant.append(y)
        two_rho = self.two_rho().coords
        return {c: conj[c] for c in sorted(conj, key=lambda c: (linalg.dot(two_rho, c), c))}

    def weight_set(self, mu: Coweight) -> tuple[Coweight, ...]:
        """All lattice points of hull(W mu) in the coset mu + coroot lattice,
        sorted by height, then coordinates: the weights of the irreducible with
        highest weight mu for the group whose roots are this datum's coroots,
        as W-orbits of the dominant weights below mu.  Requires dominant mu."""
        return tuple(Coweight(c) for c in self._dominant_conjugates(mu))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "simple_roots": [list(x.coords) for x in self.simple_roots],
            "simple_coroots": [list(v.coords) for v in self.simple_coroots],
        }


def validate(datum: RootDatum) -> list[str]:
    return datum.validate()


def datum_from_json_dict(obj: dict) -> RootDatum:
    try:
        d = obj["d"]
        roots = obj["simple_roots"]
        coroots = obj["simple_coroots"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"root datum JSON needs keys d, simple_roots, simple_coroots: {exc}") from exc
    if not isinstance(d, int):
        raise InputError("d must be an integer")

    def to_vecs(rows, cls):
        out = []
        for row in rows:
            if not isinstance(row, list) or not all(isinstance(x, int) for x in row):
                raise InputError("root datum vectors must be lists of integers")
            out.append(cls(tuple(row)))
        return out

    try:
        return RootDatum(d, to_vecs(roots, Weight), to_vecs(coroots, Coweight))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load_datum(path: str) -> RootDatum:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse {path}: {exc}") from exc
    return datum_from_json_dict(obj)


def _cartan_datum(cartan: Sequence[Sequence[int]]) -> RootDatum:
    """Semisimple datum in the coroot basis: coroots are unit vectors,
    roots are the Cartan rows."""
    r = len(cartan)
    roots = [Weight(tuple(cartan[i])) for i in range(r)]
    coroots = [Coweight(tuple(int(j == i) for j in range(r))) for i in range(r)]
    return RootDatum(r, roots, coroots)


def _a_series_cartan(n: int) -> list[list[int]]:
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


_D4_CARTAN = [
    [2, -1, 0, 0],
    [-1, 2, -1, -1],
    [0, -1, 2, 0],
    [0, -1, 0, 2],
]


def builtin_datum(name: str) -> RootDatum:
    """Named data: A1..A4 and D4 in the coroot basis, sl5 (alias of A4),
    and pgl3 (adjoint A2, root-basis coordinates)."""
    if name in ("A1", "A2", "A3", "A4"):
        return _cartan_datum(_a_series_cartan(int(name[1])))
    if name == "sl5":
        return _cartan_datum(_a_series_cartan(4))
    if name == "D4":
        return _cartan_datum(_D4_CARTAN)
    if name == "pgl3":
        c = _a_series_cartan(2)
        roots = [Weight((1, 0)), Weight((0, 1))]
        coroots = [Coweight(tuple(c[i][j] for i in range(2))) for j in range(2)]
        return RootDatum(2, roots, coroots)
    raise InputError(f"unknown built-in datum {name!r}")


BUILTIN_DATA = ("A1", "A2", "A3", "A4", "D4", "sl5", "pgl3")
