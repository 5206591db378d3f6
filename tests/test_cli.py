"""End-to-end tests of the command-line interface.

Every invocation goes through main(argv), so the tests cover parsing,
dispatch, exit codes, and the JSON/table serializers together.
"""

import itertools
import json

import pytest

from satake_fold import BUILTIN_DATA, Coweight, TwiningReport, TwiningRow, builtin_datum, longest_element
from satake_fold.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return rc, json.loads(out)


def test_fold_json(capsys):
    rc, payload = run_json(capsys, "fold", "--group", "A3", "--sigma", "A3-flip")
    assert rc == 0
    assert payload["folded_cartan"] == [[2, -1], [-2, 2]]
    assert payload["folded_d"] == 2
    assert payload["folded_rank"] == 2
    assert payload["invariant_factors"] == []
    assert payload["q"] == [[0, 1, 0], [1, 0, 1]]
    assert payload["incl"] == [[0, 1], [1, 0], [0, 1]]
    assert payload["orbits"] == [
        {
            "indices": [1, 3],
            "type": "disconnected",
            "folded_root": [-1, 2],
            "folded_coroot": [0, 1],
            "folded_coroot_ambient": [1, 0, 1],
        },
        {
            "indices": [2],
            "type": "disconnected",
            "folded_root": [2, -2],
            "folded_coroot": [1, 0],
            "folded_coroot_ambient": [0, 1, 0],
        },
    ]


def test_fold_table(capsys):
    rc, out, err = run(capsys, "fold", "--group", "A2", "--sigma", "A2-swap")
    assert rc == 0
    assert "folded datum: d=1 rank=1" in out
    assert "connected-pair" in out


def test_orbits_json(capsys):
    rc, payload = run_json(capsys, "orbits", "--group", "A4", "--sigma", "A4-flip")
    assert rc == 0
    assert payload == {
        "orbits": [
            {"indices": [1, 4], "type": "disconnected"},
            {"indices": [2, 3], "type": "connected-pair"},
        ]
    }


def test_weyl_words_json(capsys):
    rc, payload = run_json(capsys, "weyl", "words", "--group", "A2")
    assert rc == 0
    assert payload["element"] == [1, 2, 1]
    assert payload["length"] == 3
    assert payload["count"] == 2
    assert payload["words"] == [[1, 2, 1], [2, 1, 2]]


def test_weyl_words_explicit_element(capsys):
    rc, payload = run_json(capsys, "weyl", "words", "--group", "A3", "--element", "2,1")
    assert rc == 0
    assert payload["element"] == [2, 1]
    assert payload["length"] == 2
    assert payload["words"] == [[2, 1]]


def test_character_json(capsys):
    rc, payload = run_json(capsys, "character", "--group", "A2", "--mu", "1,1")
    assert rc == 0
    assert payload["mu"] == [1, 1]
    assert payload["dimension"] == 8
    assert payload["mass"] == 8
    assert len(payload["terms"]) == 7
    assert {"coweight": [0, 0], "mult": 2} in payload["terms"]


def test_mv_count_and_list(capsys):
    rc, payload = run_json(capsys, "mv", "count", "--group", "A2", "--nu=-1,-1")
    assert rc == 0
    assert payload == {"word": [1, 2, 1], "nu": [-1, -1], "count": 2}

    rc, payload = run_json(capsys, "mv", "list", "--group", "A2", "--nu=-1,-1")
    assert rc == 0
    assert payload["data"] == [[0, 1, 0], [1, 0, 1]]

    rc, payload = run_json(
        capsys, "mv", "list", "--group", "A2", "--nu=-1,-1", "--word", "2,1,2"
    )
    assert rc == 0
    assert payload["word"] == [2, 1, 2]
    assert payload["count"] == 2


@pytest.mark.parametrize("group", sorted(BUILTIN_DATA))
def test_mv_count_equals_the_count_of_mv_list(capsys, group):
    datum = builtin_datum(group)
    zero = Coweight((0,) * datum.d)
    targets = [-Coweight((1,) + (0,) * (datum.d - 1)), datum.simple_coroots[0]]
    for coeffs in itertools.product(range(3), repeat=datum.rank):
        targets.append(-sum((v.scale(c) for c, v in zip(coeffs, datum.simple_coroots)), zero))
    word = longest_element(datum).word
    for words in ((), ("--word", ",".join(map(str, reversed(word))))):
        for nu in targets:
            nu_arg = "--nu=" + ",".join(map(str, nu.coords))
            rc, counted = run_json(capsys, "mv", "count", "--group", group, nu_arg, *words)
            assert rc == 0
            rc, listed = run_json(capsys, "mv", "list", "--group", group, nu_arg, *words)
            assert rc == 0
            assert counted == {key: listed[key] for key in ("word", "nu", "count")}, nu.coords


def test_mv_count_deep_target(capsys):
    rc, payload = run_json(capsys, "mv", "count", "--group", "A2", "--nu=-500,-500")
    assert rc == 0
    assert payload == {"word": [1, 2, 1], "nu": [-500, -500], "count": 501}


def test_mv_ggms(capsys):
    rc, payload = run_json(
        capsys,
        "mv", "ggms", "--group", "A2", "--word", "1,2,1", "--entries", "1,0,1",
    )
    assert rc == 0
    assert payload["vertices"] == [
        {"w": [], "vertex": [0, 0]},
        {"w": [1], "vertex": [-1, 0]},
        {"w": [2], "vertex": [0, 0]},
        {"w": [1, 2], "vertex": [-1, 0]},
        {"w": [2, 1], "vertex": [-1, -1]},
        {"w": [1, 2, 1], "vertex": [-1, -1]},
    ]


def test_kostant(capsys):
    rc, payload = run_json(capsys, "kostant", "--group", "A2", "--nu=-1,-1")
    assert rc == 0
    assert payload == {"nu": [-1, -1], "kostant": 2}


def test_kostant_deep_target(capsys):
    # For A2 the count at -(a, a) is a + 1: a copies of theta or of both simples.
    rc, payload = run_json(capsys, "kostant", "--group", "A2", "--nu=-500,-500")
    assert rc == 0
    assert payload == {"nu": [-500, -500], "kostant": 501}


def test_twining(capsys):
    rc, payload = run_json(
        capsys, "twining", "--group", "A2", "--sigma", "A2-swap", "--mu", "1,1"
    )
    assert rc == 0
    assert payload["mu"] == [1, 1]
    assert payload["terms"] == [
        {"coweight": [-1, -1], "mult": 1},
        {"coweight": [1, 1], "mult": 1},
    ]


def test_verify_pgl3(capsys):
    rc, payload = run_json(
        capsys, "verify", "--group", "pgl3", "--sigma", "A2-swap", "--mu", "1,1"
    )
    assert rc == 0
    assert payload["overall"] is True
    assert len(payload["rows"]) == 3
    for row in payload["rows"]:
        assert row["pass"] is True


def test_verify_table_output(capsys):
    rc, out, err = run(
        capsys, "verify", "--group", "A2", "--sigma", "A2-swap", "--mu", "1,1"
    )
    assert rc == 0
    assert "overall: pass" in out
    assert "trace 1  folded 1  pass" in out


def test_sweep(capsys):
    rc, payload = run_json(
        capsys, "sweep", "--group", "A2", "--sigma", "A2-swap", "--max-height", "4"
    )
    assert rc == 0
    assert payload["max_height"] == 4
    assert payload["mu_list"] == [[0, 0], [1, 1], [2, 2]]
    assert payload["overall"] is True
    assert len(payload["reports"]) == 3


def test_json_output_is_byte_stable(capsys):
    args = ("fold", "--group", "A4", "--sigma", "A4-flip", "--format", "json")
    rc1 = main(list(args))
    first = capsys.readouterr().out
    rc2 = main(list(args))
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second
    assert first.endswith("\n")


def test_file_based_group_and_sigma(tmp_path, capsys):
    a2 = builtin_datum("A2")
    group_path = tmp_path / "a2.json"
    group_path.write_text(json.dumps(a2.to_json_dict()))
    sigma_path = tmp_path / "swap.json"
    sigma_path.write_text(
        json.dumps({"perm": [2, 1], "matrix_on_X": [[0, 1], [1, 0]]})
    )
    rc, payload = run_json(
        capsys,
        "verify", "--group", str(group_path), "--sigma", str(sigma_path), "--mu", "1,1",
    )
    assert rc == 0
    assert payload["overall"] is True


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("fold", "--group", "Z9", "--sigma", "identity"), "unknown group"),
        (("fold", "--group", "A2", "--sigma", "mystery"), "unknown automorphism"),
        (("character", "--group", "A2", "--mu", "x,y"), "comma-separated integers"),
        (("character", "--group", "A2", "--mu", "1"), "needs 2 coordinates"),
        (("character", "--group", "A2", "--mu=-1,0"), "is not dominant"),
        (
            ("twining", "--group", "A4", "--sigma", "A4-flip", "--mu", "1,2,3,2"),
            "must be invariant",
        ),
        (
            ("mv", "ggms", "--group", "A2", "--word", "1,2,1", "--entries", "1,-1,0"),
            "must be nonnegative",
        ),
        (
            ("mv", "ggms", "--group", "A2", "--word", "1,2", "--entries", "0,0"),
            "not a reduced word for the longest element",
        ),
        (
            ("mv", "count", "--group", "A2", "--nu", "0,0", "--word", "1,5,1"),
            "outside 1..2",
        ),
        (
            ("sweep", "--group", "A2", "--sigma", "A2-swap", "--max-height=-1"),
            "must be nonnegative",
        ),
        (("weyl", "words", "--group", "A2", "--element", "1,9"), "outside 1..2"),
        (
            ("mv", "count", "--group", "A2", "--nu", "0,0", "--word", "1,2"),
            "not a reduced word for the longest element",
        ),
    ],
)
def test_input_problems_exit_two(capsys, argv, fragment):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ")
    assert fragment in err


def test_malformed_group_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    rc, out, err = run(capsys, "character", "--group", str(path), "--mu", "1,1")
    assert rc == 2
    assert "error: " in err


def test_invalid_datum_file_exits_two(tmp_path, capsys):
    # An affine Cartan matrix with linearly independent roots, so the
    # finite-type check is the failure that gets reported.
    path = tmp_path / "affine.json"
    path.write_text(
        json.dumps(
            {
                "d": 3,
                "simple_roots": [[2, -2, 1], [-2, 2, 0]],
                "simple_coroots": [[1, 0, 0], [0, 1, 0]],
            }
        )
    )
    rc, out, err = run(capsys, "character", "--group", str(path), "--mu", "1,1")
    assert rc == 2
    assert "not of finite type" in err


def test_failing_verification_exits_one(monkeypatch, capsys):
    lam = Coweight((1, 1))
    fake = TwiningReport(
        mu=lam,
        rows=(TwiningRow(lam=lam, lhs_trace=1, rhs_mult=2, passed=False),),
        overall=False,
        non_invariant=(),
    )
    monkeypatch.setattr(
        "satake_fold.twining_verifier.verify_jantzen", lambda *a, **k: fake
    )
    rc, out, err = run(
        capsys, "verify", "--group", "A2", "--sigma", "A2-swap", "--mu", "1,1"
    )
    assert rc == 1
    assert "overall: FAIL" in out

    rc, out, err = run(
        capsys, "sweep", "--group", "A2", "--sigma", "A2-swap", "--max-height", "2"
    )
    assert rc == 1
    assert "sweep overall: FAIL" in out
