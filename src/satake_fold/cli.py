"""Command-line surface for the library.

Exit codes: 0 on success (and on a passing verification), 1 when a
verification or sweep reports a failed identity, 2 on any input problem
(malformed JSON, invalid datum, unsupported automorphism, bad coordinates).
JSON output is byte-stable for a fixed invocation: keys are sorted and
separators fixed, and every listing is deterministically ordered.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import characters, twining_verifier
from .errors import InputError, SatakeFoldError
from .folding import (
    BUILTIN_SIGMAS,
    OrbitType,
    PinnedAut,
    builtin_sigma,
    fold,
    invariant_dominant_coweights,
    load_sigma,
    orbit_analysis,
    sigma_compatible_word,
)
from .mv_calculus import LusztigDatum, mv_calculus
from .root_datum import (
    BUILTIN_DATA,
    Coweight,
    RootDatum,
    builtin_datum,
    load_datum,
)
from .weyl import weyl_group


def _resolve_datum(name_or_path: str) -> RootDatum:
    if name_or_path in BUILTIN_DATA:
        return builtin_datum(name_or_path)
    if os.path.exists(name_or_path):
        datum = load_datum(name_or_path)
        datum.require_valid()
        return datum
    raise InputError(
        f"unknown group {name_or_path!r}: not a built-in ({', '.join(BUILTIN_DATA)}) and not a file"
    )


def _resolve_sigma(name_or_path: str, datum: RootDatum) -> PinnedAut:
    if name_or_path in BUILTIN_SIGMAS:
        return builtin_sigma(name_or_path, datum)
    if os.path.exists(name_or_path):
        sigma = load_sigma(name_or_path)
        from .folding import validate_pinned_aut

        validate_pinned_aut(datum, sigma)
        return sigma
    raise InputError(
        f"unknown automorphism {name_or_path!r}: not a built-in ({', '.join(BUILTIN_SIGMAS)}) and not a file"
    )


def _parse_vector(text: str, d: int, name: str) -> tuple[int, ...]:
    try:
        coords = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"{name} must be comma-separated integers: {text!r}") from exc
    if len(coords) != d:
        raise InputError(f"{name} needs {d} coordinates, got {len(coords)}")
    return coords


def _parse_word(text: str, datum: RootDatum, name: str) -> tuple[int, ...]:
    try:
        word = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"{name} must be comma-separated simple indices: {text!r}") from exc
    for i in word:
        if not 1 <= i <= datum.rank:
            raise InputError(f"{name} contains index {i}, outside 1..{datum.rank}")
    return word


def _print_payload(payload: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for line in table_lines():
            sys.stdout.write(line + "\n")


def _charpoly_lines(poly: characters.CharPoly):
    out = []
    for lam, m in poly.terms:
        out.append(f"  {','.join(str(c) for c in lam.coords):>16}  mult {m}")
    return out


def _report_lines(report) -> list:
    lines = [f"mu = {','.join(str(c) for c in report.mu.coords)}"]
    for row in report.rows:
        mark = "pass" if row.passed else "FAIL"
        lam = ",".join(str(c) for c in row.lam.coords)
        lines.append(f"  lambda {lam:>16}  trace {row.lhs_trace}  folded {row.rhs_mult}  {mark}")
    if report.non_invariant:
        lines.append("  non-invariant weight pairs (trace contribution 0):")
        for p in report.non_invariant:
            lam = ",".join(str(c) for c in p.lam.coords)
            img = ",".join(str(c) for c in p.image.coords)
            lines.append(f"    {lam} <-> {img}  mult {p.mult}")
    lines.append("overall: " + ("pass" if report.overall else "FAIL"))
    return lines


def _cmd_fold(args) -> int:
    datum = _resolve_datum(args.group)
    sigma = _resolve_sigma(args.sigma, datum)
    fd = fold(datum, sigma)
    orbit_rows = []
    for pos, (orbit, otype) in enumerate(zip(fd.orbit_data.orbits, fd.orbit_data.types)):
        folded_root = fd.datum.simple_roots[pos]
        folded_coroot = fd.datum.simple_coroots[pos]
        orbit_rows.append(
            {
                "indices": list(orbit),
                "type": otype.value,
                "folded_root": list(folded_root.coords),
                "folded_coroot": list(folded_coroot.coords),
                "folded_coroot_ambient": list(fd.include_coweight(folded_coroot).coords),
            }
        )
    payload = {
        "ambient_cartan": [list(row) for row in datum.cartan],
        "folded_cartan": [list(row) for row in fd.datum.cartan],
        "folded_d": fd.datum.d,
        "folded_rank": fd.datum.rank,
        "q": [list(row) for row in fd.q],
        "incl": [list(row) for row in fd.incl],
        "invariant_factors": list(fd.invariant_factors),
        "orbits": orbit_rows,
    }

    def table():
        lines = [f"folded datum: d={fd.datum.d} rank={fd.datum.rank}"]
        lines.append("folded Cartan matrix:")
        for row in fd.datum.cartan:
            lines.append("  " + " ".join(f"{x:>3}" for x in row))
        lines.append(f"invariant factors of the torsion part: {list(fd.invariant_factors)}")
        for row in payload["orbits"]:
            lines.append(
                f"orbit {row['indices']} ({row['type']}): root {row['folded_root']}, "
                f"coroot {row['folded_coroot']} = ambient {row['folded_coroot_ambient']}"
            )
        lines.append("projection q:")
        for row in fd.q:
            lines.append("  " + " ".join(f"{x:>3}" for x in row))
        lines.append("inclusion incl:")
        for row in fd.incl:
            lines.append("  " + " ".join(f"{x:>3}" for x in row))
        return lines

    _print_payload(payload, args.format, table)
    return 0


def _cmd_orbits(args) -> int:
    datum = _resolve_datum(args.group)
    sigma = _resolve_sigma(args.sigma, datum)
    data = orbit_analysis(datum, sigma)
    payload = {
        "orbits": [
            {"indices": list(orbit), "type": otype.value}
            for orbit, otype in zip(data.orbits, data.types)
        ]
    }

    def table():
        return [
            f"orbit {row['indices']}: {row['type']}" for row in payload["orbits"]
        ]

    _print_payload(payload, args.format, table)
    return 0


def _cmd_weyl_words(args) -> int:
    datum = _resolve_datum(args.group)
    group = weyl_group(datum)
    if args.element == "w0":
        w = group.longest_element()
    else:
        w = group.element(_parse_word(args.element, datum, "--element"))
    words = group.reduced_words(w)
    payload = {
        "element": list(w.word),
        "length": w.length,
        "count": len(words),
        "words": [list(word) for word in words],
    }

    def table():
        lines = [f"element {list(w.word)} of length {w.length}: {len(words)} reduced words"]
        lines.extend("  " + ",".join(str(i) for i in word) for word in words)
        return lines

    _print_payload(payload, args.format, table)
    return 0


def _cmd_character(args) -> int:
    datum = _resolve_datum(args.group)
    mu = Coweight(_parse_vector(args.mu, datum.d, "--mu"))
    if not datum.is_dominant(mu):
        raise InputError(f"--mu {args.mu} is not dominant")
    poly = characters.character(datum, mu)
    payload = {
        "mu": list(mu.coords),
        "dimension": characters.weyl_dimension(datum, mu),
        "mass": poly.mass(),
    }
    payload.update(poly.to_json_dict())

    def table():
        lines = [f"character of mu={args.mu}: dimension {payload['dimension']}"]
        lines.extend(_charpoly_lines(poly))
        return lines

    _print_payload(payload, args.format, table)
    return 0


def _cmd_mv(args) -> int:
    datum = _resolve_datum(args.group)
    calc = mv_calculus(datum)
    if args.mv_command == "ggms":
        word = _parse_word(args.word, datum, "--word")
        entries = _parse_vector(args.entries, len(word), "--entries")
        if any(n < 0 for n in entries):
            raise InputError("--entries must be nonnegative")
        lus = LusztigDatum(word=word, entries=entries)
        g = calc.ggms_datum(lus)
        payload = {
            "word": list(word),
            "entries": list(entries),
            "vertices": [
                {"w": list(w.word), "vertex": list(v.coords)} for w, v in g.vertices
            ],
        }

        def table():
            lines = [f"vertices for word {args.word}, entries {args.entries}:"]
            for w, v in g.vertices:
                name = ",".join(str(i) for i in w.word) if w.word else "e"
                lines.append(f"  w={name:<16} vertex {list(v.coords)}")
            return lines

        _print_payload(payload, args.format, table)
        return 0

    nu = Coweight(_parse_vector(args.nu, datum.d, "--nu"))
    if args.word is None:
        word = weyl_group(datum).longest_element().word
    else:
        word = _parse_word(args.word, datum, "--word")
    if args.mv_command == "count":
        # Every reduced word of w0 carries kostant(nu) data of coweight nu.
        calc.require_word(word)
        count = calc.kostant(nu)
        payload = {"word": list(word), "nu": list(nu.coords), "count": count}

        def table():
            return [f"{count} data of coweight {args.nu} on word {list(word)}"]

        _print_payload(payload, args.format, table)
        return 0
    data = calc.enumerate_data(word, nu)
    payload = {
        "word": list(word),
        "nu": list(nu.coords),
        "count": len(data),
        "data": [list(lus.entries) for lus in data],
    }

    def table():
        lines = [f"{len(data)} data of coweight {args.nu} on word {list(word)}:"]
        lines.extend("  " + ",".join(str(n) for n in lus.entries) for lus in data)
        return lines

    _print_payload(payload, args.format, table)
    return 0


def _cmd_kostant(args) -> int:
    datum = _resolve_datum(args.group)
    nu = Coweight(_parse_vector(args.nu, datum.d, "--nu"))
    value = mv_calculus(datum).kostant(nu)
    payload = {"nu": list(nu.coords), "kostant": value}

    def table():
        return [f"kostant({args.nu}) = {value}"]

    _print_payload(payload, args.format, table)
    return 0


def _cmd_twining(args) -> int:
    datum = _resolve_datum(args.group)
    sigma = _resolve_sigma(args.sigma, datum)
    mu = Coweight(_parse_vector(args.mu, datum.d, "--mu"))
    if not datum.is_dominant(mu):
        raise InputError(f"--mu {args.mu} is not dominant")
    poly = twining_verifier.twining_character(datum, sigma, mu)
    payload = {"mu": list(mu.coords)}
    payload.update(poly.to_json_dict())

    def table():
        lines = [f"twining character of mu={args.mu}:"]
        lines.extend(_charpoly_lines(poly))
        return lines

    _print_payload(payload, args.format, table)
    return 0


def _cmd_verify(args) -> int:
    datum = _resolve_datum(args.group)
    sigma = _resolve_sigma(args.sigma, datum)
    mu = Coweight(_parse_vector(args.mu, datum.d, "--mu"))
    if not datum.is_dominant(mu):
        raise InputError(f"--mu {args.mu} is not dominant")
    report = twining_verifier.verify_jantzen(datum, sigma, mu)
    _print_payload(report.to_json_dict(), args.format, lambda: _report_lines(report))
    return 0 if report.overall else 1


def _cmd_sweep(args) -> int:
    datum = _resolve_datum(args.group)
    sigma = _resolve_sigma(args.sigma, datum)
    if args.max_height < 0:
        raise InputError("--max-height must be nonnegative")
    mus = invariant_dominant_coweights(datum, sigma, args.max_height)
    reports = [twining_verifier.verify_jantzen(datum, sigma, mu) for mu in mus]
    overall = all(r.overall for r in reports)
    payload = {
        "max_height": args.max_height,
        "mu_list": [list(mu.coords) for mu in mus],
        "reports": [r.to_json_dict() for r in reports],
        "overall": overall,
    }

    def table():
        lines = [f"sweep up to rho-height {args.max_height}: {len(mus)} invariant dominant coweights"]
        for report in reports:
            lines.extend(_report_lines(report))
        lines.append("sweep overall: " + ("pass" if overall else "FAIL"))
        return lines

    _print_payload(payload, args.format, table)
    return 0 if overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satake-fold",
        description="Folded root data, twining characters, and polytope multiplicities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, sigma=False):
        p.add_argument("--group", required=True, help="built-in name or JSON path")
        if sigma:
            p.add_argument("--sigma", required=True, help="built-in name or JSON path")
        p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("fold", help="folded root datum of a pinned automorphism")
    add_common(p, sigma=True)
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("orbits", help="orbit decomposition of the simple indices")
    add_common(p, sigma=True)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("weyl", help="Weyl group utilities")
    weyl_sub = p.add_subparsers(dest="weyl_command", required=True)
    pw = weyl_sub.add_parser("words", help="all reduced words of an element")
    add_common(pw)
    pw.add_argument("--element", default="w0", help="'w0' or a comma-separated word")
    pw.set_defaults(func=_cmd_weyl_words)

    p = sub.add_parser("character", help="weight multiplicities of one module")
    add_common(p)
    p.add_argument("--mu", required=True, help="dominant coweight, comma-separated")
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("mv", help="polytope data operations")
    mv_sub = p.add_subparsers(dest="mv_command", required=True)
    for name, helptext in (
        ("count", "number of data with a given coweight"),
        ("list", "all data with a given coweight"),
    ):
        pm = mv_sub.add_parser(name, help=helptext)
        add_common(pm)
        pm.add_argument("--nu", required=True, help="coweight, comma-separated")
        pm.add_argument("--word", default=None, help="reduced word (default: canonical)")
        pm.set_defaults(func=_cmd_mv)
    pm = mv_sub.add_parser("ggms", help="vertex family of one datum")
    add_common(pm)
    pm.add_argument("--word", required=True, help="reduced word, comma-separated")
    pm.add_argument("--entries", required=True, help="entries, comma-separated")
    pm.set_defaults(func=_cmd_mv)

    p = sub.add_parser("kostant", help="positive-coroot partition count")
    add_common(p)
    p.add_argument("--nu", required=True, help="coweight, comma-separated")
    p.set_defaults(func=_cmd_kostant)

    p = sub.add_parser("twining", help="twisted character by invariant-datum counting")
    add_common(p, sigma=True)
    p.add_argument("--mu", required=True, help="invariant dominant coweight")
    p.set_defaults(func=_cmd_twining)

    p = sub.add_parser("verify", help="compare the twisted and folded pipelines")
    add_common(p, sigma=True)
    p.add_argument("--mu", required=True, help="invariant dominant coweight")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify over all invariant dominant coweights")
    add_common(p, sigma=True)
    p.add_argument("--max-height", type=int, default=4, help="bound on <rho, mu>")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SatakeFoldError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
