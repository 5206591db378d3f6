"""The three benchmark workloads: their set-up, timed entry call and checks.

Nothing here imports satake_fold at module level, so that a sample can time
the package import as part of its set-up.  Each workload has a fixed input:
no other input of the same group has a cost close enough to keep the
run-to-run spread inside the benchmark's bounds (see baseline.json).
"""

from __future__ import annotations

import hashlib
import json


class _Cli:
    """A workload whose entry point is the command line; the CLI builds its own datum."""

    argv: list[str]

    def entry(self):
        """The timed call, and the datum it is handed (None: built inside the call)."""
        from satake_fold import cli

        return (lambda: cli.main(self.argv)), None


class Verify(_Cli):
    """`satake-fold verify` on D4 with the order-3 triality; its fold is G2."""

    name = "verify-d4-triality"
    argv = ["verify", "--group", "D4", "--sigma", "D4-rot3", "--mu", "1,2,1,1", "--format", "json"]
    stdout_sha256 = "38d05b1193959272766ba2e21212aa4e6e79c4d7bd266c0d3f7c83d907a739b4"

    def setup(self) -> None:
        from satake_fold import builtin_datum, builtin_sigma

        datum = builtin_datum("D4")
        datum.require_valid()
        builtin_sigma("D4-rot3", datum)

    def check(self, result, stdout: str) -> dict:
        rows = json.loads(stdout)["rows"] if result == 0 else []
        return {
            "exit_code_0": result == 0,
            "rows_agree": bool(rows) and all(r["lhs_trace"] == r["rhs_mult"] for r in rows),
            "stdout_sha256": _sha256(stdout) == self.stdout_sha256,
        }


class MVCharA3:
    """The polytope-datum character of A3 at mu = (2, 3, 2), through the library."""

    name = "mvchar-a3"
    mu = (2, 3, 2)
    dimension = 175

    def setup(self) -> None:
        from satake_fold import builtin_datum

        builtin_datum("A3").require_valid()

    def entry(self):
        from satake_fold import Coweight, builtin_datum, characters

        datum = builtin_datum("A3")
        mu = Coweight(self.mu)
        return (lambda: characters.mv_character(datum, mu)), datum

    def check(self, result, stdout: str) -> dict:
        from satake_fold import Coweight, builtin_datum, character, weyl_dimension

        datum = builtin_datum("A3")
        mu = Coweight(self.mu)
        return {
            "equals_freudenthal": result == character(datum, mu),
            "mass_is_dimension": result.mass() == weyl_dimension(datum, mu) == self.dimension,
        }


class CharacterD4(_Cli):
    """`satake-fold character` on D4 at mu = (5, 10, 5, 5): Freudenthal only."""

    name = "character-d4"
    argv = ["character", "--group", "D4", "--mu", "5,10,5,5", "--format", "json"]
    stdout_sha256 = "2160f9b453aaac5a1c2eecd548b63ec5bf710dea9a687407782f95a692a6f38d"
    dimension = 32928

    def setup(self) -> None:
        from satake_fold import builtin_datum

        builtin_datum("D4").require_valid()

    def check(self, result, stdout: str) -> dict:
        from satake_fold import Coweight, builtin_datum, weyl_dimension

        mass = json.loads(stdout)["mass"] if result == 0 else None
        dim = weyl_dimension(builtin_datum("D4"), Coweight((5, 10, 5, 5)))
        return {
            "exit_code_0": result == 0,
            "stdout_sha256": _sha256(stdout) == self.stdout_sha256,
            "mass_is_dimension": mass == dim == self.dimension,
        }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


WORKLOADS = {w.name: w for w in (Verify(), MVCharA3(), CharacterD4())}
