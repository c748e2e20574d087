import json

import pytest

import stablebetti as sb
from stablebetti.cli import main
from stablebetti.formats import (
    format_ideal,
    format_matrix,
    format_profile,
    parse_ideal_text,
    parse_matrix_text,
    parse_profile,
)

IDEAL_TEXT = """\
# a strongly stable ideal
n=3

4 0 0
3 1 0   # inline comment
2 2 0
"""


def test_parse_ideal_text():
    I = parse_ideal_text(IDEAL_TEXT)
    assert I.n == 3
    assert set(I.gens) == {(4, 0, 0), (3, 1, 0), (2, 2, 0)}
    redundant = parse_ideal_text("n=2\n1 0\n2 1\n")
    assert redundant.gens == ((1, 0),)


def test_parse_ideal_errors():
    for text in ("", "n=0\n1", "n=2\n1 2 3\n", "n=2\nx y\n", "n=2\n", "n=2\n0 0\n", "2\n1 0\n"):
        with pytest.raises(sb.MalformedInputError):
            parse_ideal_text(text)


def test_ideal_roundtrip():
    I = sb.lexsegment_ideal(3, 2, 4)
    assert parse_ideal_text(format_ideal(I)) == I


def test_parse_matrix():
    M = parse_matrix_text("n=4 jmin=5\n1 3 2 2\n1 4 6 9\n")
    assert M.n == 4 and M.jmin == 5 and M.rows == ((1, 3, 2, 2), (1, 4, 6, 9))
    assert parse_matrix_text(format_matrix(M)) == M
    for text in ("", "n=4\n1 2 3 4\n", "n=2 jmin=1\n1\n", "n=2 jmin=1\n"):
        with pytest.raises(sb.MalformedInputError):
            parse_matrix_text(text)


def test_parse_profile():
    prof = parse_profile("3,2,2;2,4,2", 4)
    assert prof.triples == ((2, 4, 2), (3, 2, 2))
    assert format_profile(prof) == "2,4,2;3,2,2"
    for text in ("", "1,2", "a,b,c", "2,0,1", "3,2,1;2,2,1"):
        with pytest.raises(sb.MalformedInputError):
            parse_profile(text, 4)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_macaulay(capsys):
    code, out, _ = run_cli(capsys, "macaulay", "rep", "5", "2")
    assert code == 0 and "binom(3,2) + binom(2,1)" in out
    code, out, _ = run_cli(capsys, "macaulay", "rep", "100000000000000000000", "2")
    assert code == 0 and "binom(14142135624,2) + binom(3266133124,1)" in out
    code, out, _ = run_cli(capsys, "macaulay", "shift", "3", "2", "1")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, "macaulay", "oseq", "1,3,2,2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "macaulay", "oseq", "1,0,1", "--json")
    assert code == 1 and json.loads(out) == {"o_sequence": False}


def test_cli_betti_and_matrix(tmp_path, capsys):
    I = sb.MonomialIdeal(3, [
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0),
        (3, 0, 1), (2, 1, 2), (2, 0, 3), (1, 2, 2),
    ])
    path = tmp_path / "ideal.txt"
    path.write_text(format_ideal(I))
    code, out, _ = run_cli(capsys, "betti", str(path), "--method", "both")
    assert code == 0
    assert "6 6 1" in out and "3 6 3" in out and "agree" in out
    code, out, _ = run_cli(capsys, "betti", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    assert [2, 7, 3] in obj["entries"]
    code, out, _ = run_cli(capsys, "matrix", str(path))
    assert code == 0
    assert out.splitlines() == ["n=3 jmin=4", "1 4 1", "1 5 9"]


def test_cli_check_and_realize(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("n=3 jmin=2\n1 2 2\n1 3 6\n")
    code, out, _ = run_cli(capsys, "check-matrix", str(good))
    assert code == 0 and out.splitlines()[-1] == "pass"
    code, out, _ = run_cli(capsys, "realize-matrix", str(good))
    assert code == 0
    realized = parse_ideal_text(out)
    assert sb.generator_matrix(realized) == parse_matrix_text(good.read_text())

    bad = tmp_path / "bad.txt"
    bad.write_text("n=4 jmin=5\n1 3 2 2\n1 3 6 9\n")
    code, out, _ = run_cli(capsys, "check-matrix", str(bad))
    assert code == 1 and "FAIL" in out

    obstruction = tmp_path / "obstruction.txt"
    obstruction.write_text("n=4 jmin=5\n1 3 2 2\n1 4 6 9\n")
    code, _, err = run_cli(capsys, "realize-matrix", str(obstruction))
    assert code == 1 and "not realized" in err

    malformed = tmp_path / "malformed.txt"
    malformed.write_text("nonsense\n")
    code, _, err = run_cli(capsys, "check-matrix", str(malformed))
    assert code == 2 and "input error" in err


def test_cli_construct(capsys):
    code, out, _ = run_cli(capsys, "construct", "piecewise-lex", "--d", "5", "--counts", "1,3,2,2")
    assert code == 0
    assert "# strongly stable: true" in out
    ideal = parse_ideal_text(out)
    assert len(ideal.gens) == 8

    # the count vector's length is n; there is no --n to repeat it
    with pytest.raises(SystemExit) as exc:
        main(["construct", "piecewise-lex", "--n", "4", "--d", "5", "--counts", "1,3,2,2"])
    assert exc.value.code == 2
    capsys.readouterr()

    code, out, _ = run_cli(capsys, "construct", "murai", "--counts", "1,2,2")
    assert code == 0
    assert sb.count_vector(parse_ideal_text(out)) == (1, 2, 2)

    code, out, _ = run_cli(capsys, "construct", "u-ideal", "--n", "4", "--ell", "4", "--k", "2", "--d", "2")
    assert code == 0
    assert len(parse_ideal_text(out).gens) == 7
    # the segment is walked lazily, so a huge degree with a short answer
    # is not refused by the enumeration cap
    code, out, _ = run_cli(capsys, "construct", "u-ideal", "--n", "3", "--ell", "3", "--k", "1", "--d", "1000000")
    assert code == 0
    assert out.splitlines() == ["n=3", "1000000 0 0", "999999 1 0", "999999 0 1"]

    code, out, _ = run_cli(capsys, "construct", "lexsegment", "--n", "3", "--d", "2", "--mu", "4")
    assert code == 0
    assert parse_ideal_text(out) == sb.lexsegment_ideal(3, 2, 4)

    code, _, err = run_cli(capsys, "construct", "lexsegment", "--n", "3", "--d", "2", "--mu", "9")
    assert code == 2 and "input error" in err
    code, _, err = run_cli(capsys, "construct", "lexsegment", "--n", "0", "--d", "2", "--mu", "1")
    assert code == 2 and "need at least one variable" in err


def test_cli_extremal(capsys):
    code, out, _ = run_cli(capsys, "extremal", "check", "--profile", "2,4,4;3,2,1", "--n", "4")
    assert code == 0 and out.splitlines()[-1] == "pass"
    code, out, _ = run_cli(capsys, "extremal", "check", "--profile", "2,4,2;3,2,2", "--n", "4", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False and any(c["lhs"] == 11 for c in obj["checks"])

    code, out, _ = run_cli(capsys, "extremal", "construct", "--profile", "2,4,1;3,2,1", "--n", "4")
    assert code == 0
    ideal = parse_ideal_text(out)
    assert sb.extremal_from_stable(ideal) == [(2, 4, 1), (3, 2, 1)]
    code, _, err = run_cli(capsys, "extremal", "construct", "--profile", "2,4,2;3,2,2", "--n", "4")
    assert code == 1 and "infeasible" in err
    # construct prints an ideal file and has no JSON form
    with pytest.raises(SystemExit) as exc:
        main(["extremal", "construct", "--profile", "2,4,1;3,2,1", "--n", "4", "--json"])
    assert exc.value.code == 2


def test_cli_extremal_confirmation(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "check", "--profile", "2,4,2;3,2,2", "--n", "4", "--confirm"
    )
    assert code == 1 and "confirmed by exhaustive search" in out
    code, out, _ = run_cli(
        capsys, "extremal", "check", "--profile", "2,4,2;3,2,2", "--n", "4",
        "--confirm", "--json",
    )
    assert code == 1
    assert "confirmed" in json.loads(out)["confirmation"]
    code, out, _ = run_cli(
        capsys, "extremal", "check", "--profile", "2,8,2;3,2,2", "--n", "4", "--confirm"
    )
    assert code == 1 and "only offered" in out


def test_cli_construct_confirmation(capsys):
    # an infeasible profile exits 1 with the verdict and the search's
    # confirmation on stderr and nothing on stdout
    code, out, err = run_cli(
        capsys, "extremal", "construct", "--profile", "2,4,2;3,2,2", "--n", "4", "--confirm"
    )
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("infeasible: corner p=1 needs 11 <= 10")
    assert lines[1].startswith("confirmed by exhaustive search")
    # a feasible profile is built as without --confirm
    argv = ["extremal", "construct", "--profile", "2,4,1;3,2,1", "--n", "4"]
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--confirm") == plain


def test_cli_enumerate_and_search(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--dmax", "2", "--count-only")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--dmax", "2")
    assert code == 0
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 6
    assert all(parse_ideal_text(b).n == 2 for b in blocks)

    code, _, err = run_cli(capsys, "enumerate", "--n", "2", "--dmax", "2", "--budget", "2")
    assert code == 3

    mfile = tmp_path / "m.txt"
    mfile.write_text("n=4 jmin=2\n1 2 0 0\n1 3 3 4\n")
    code, out, _ = run_cli(capsys, "search", "matrix", str(mfile))
    assert code == 1 and "certified" in out
    # the search works out its own depth; --dmax is no option
    for argv in (
        ["search", "matrix", str(mfile), "--dmax", "2"],
        ["search", "profile", "--profile", "2,4,1;3,2,1", "--n", "4", "--dmax", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()

    code, out, _ = run_cli(capsys, "search", "profile", "--profile", "2,4,1;3,2,1", "--n", "4")
    assert code == 0
    assert sb.extremal_from_stable(parse_ideal_text(out)) == [(2, 4, 1), (3, 2, 1)]


def test_cli_betti_mismatch_tripwire(tmp_path, capsys, monkeypatch):
    import stablebetti.cli as cli_mod

    real = cli_mod.ek_betti

    def corrupted(I):
        T = real(I)
        entries = dict(T.entries)
        key = min(entries)
        entries[key] += 1
        return sb.BettiTable(T.n, entries)

    monkeypatch.setattr(cli_mod, "ek_betti", corrupted)
    path = tmp_path / "m2.txt"
    path.write_text("n=2\n2 0\n1 1\n0 2\n")
    code = main(["betti", str(path), "--method", "both"])
    captured = capsys.readouterr()
    assert code == 1 and "MISMATCH" in captured.err


def test_cli_verify_paper(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("fixtures passed")
    code, out, _ = run_cli(capsys, "verify-paper", "--json")
    assert code == 0
    results = json.loads(out)
    assert all(r["status"] == "pass" for r in results)
    names = {r["name"] for r in results}
    assert "two-corner-example-low-value-2" in names
    code, out, _ = run_cli(capsys, "verify-paper", "--budget", "1")
    assert code == 3 and "SKIP" in out


def test_cli_count_only_matches_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--dmax", "3", "--count-only")
    assert code == 0 and int(out) == sb.count_strongly_stable(3, 3)
    code, _, _ = run_cli(
        capsys, "enumerate", "--n", "2", "--dmax", "2", "--count-only", "--budget", "2"
    )
    assert code == 3


def test_cli_budget_zero_is_honoured(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text("n=2\n2 0\n1 1\n0 2\n")
    code, _, err = run_cli(capsys, "betti", str(path), "--method", "oracle", "--budget", "0")
    assert code == 3 and "budget" in err
    code, _, err = run_cli(
        capsys, "search", "profile", "--profile", "2,4,1;3,2,1", "--n", "4", "--budget", "0"
    )
    assert code == 3 and "budget" in err
    code, out, _ = run_cli(capsys, "verify-paper", "--budget", "0")
    assert code == 3 and "SKIP" in out


def test_cli_negative_budget_is_malformed(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("n=2\n2 0\n1 1\n0 2\n")
    for argv in (
        ["betti", str(path), "--method", "oracle", "--budget", "-1"],
        ["enumerate", "--n", "2", "--dmax", "2", "--budget", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_matrix_rejects_unstable(tmp_path, capsys):
    path = tmp_path / "unstable.txt"
    path.write_text("n=2\n0 2\n")
    code, _, err = run_cli(capsys, "matrix", str(path))
    assert code == 2 and "strongly stable" in err
