import stablebetti as sb
from stablebetti.verify import load_fixtures, run_fixtures


def test_fixture_data_loads():
    fixtures = load_fixtures()
    names = [fx["name"] for fx in fixtures]
    assert len(names) == len(set(names))
    assert "obstruction-matrix-degree-5" in names
    assert "two-corner-example-low-value-1" in names


def test_all_fixtures_pass():
    results = run_fixtures()
    assert [r.status for r in results] == ["pass"] * len(results)


def test_erratum_fixture_records_both_values():
    results = {r.name: r for r in run_fixtures()}
    detail = results["two-corner-example-low-value-2"].detail
    assert "9" in detail and "8" in detail and "erratum" in detail


def test_twin_with_another_table_fails_in_either_order(monkeypatch):
    # the oracle side holds another ideal with its true table, so it passes
    # and its twin must fail, whichever of the two comes first; a missing
    # twin fails too
    import stablebetti.verify as verify_mod

    fixtures = load_fixtures()
    twins = [f for f in fixtures if f["kind"] == "betti-table"]
    oracle_side = next(f for f in twins if f.get("same_table_as") is None)
    other = sb.MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 1)])
    oracle_side["ideal"] = {"n": other.n, "gens": [list(g) for g in other.gens]}
    oracle_side["expected"] = sb.table_to_json(sb.oracle_betti(other))["entries"]
    rest = [f for f in fixtures if f["kind"] != "betti-table"]
    exchange_side = next(f for f in twins if f is not oracle_side)
    for order in (twins, twins[::-1], [exchange_side]):
        monkeypatch.setattr(verify_mod, "load_fixtures", lambda order=order: order + rest)
        results = {r.name: r for r in verify_mod.run_fixtures()}
        failed = results[exchange_side["name"]]
        assert failed.status == "fail"
        assert failed.detail == f"table differs from fixture {oracle_side['name']}"
        if oracle_side in order:
            assert results[oracle_side["name"]].status == "pass"


def test_fault_injection_is_detected(monkeypatch):
    # corrupting the closed-formula path must flip the twin-table fixture
    import stablebetti.verify as verify_mod

    real = verify_mod.ek_betti

    def corrupted(I):
        T = real(I)
        entries = dict(T.entries)
        (key, value), *_ = sorted(entries.items())
        entries[key] = value + 1
        return sb.BettiTable(T.n, entries)

    monkeypatch.setattr(verify_mod, "ek_betti", corrupted)
    results = {r.name: r for r in verify_mod.run_fixtures()}
    assert results["twin-tables-exchange-closed-side"].status == "fail"
    assert "expected" in results["twin-tables-exchange-closed-side"].detail


def test_recorded_search_depth_is_checked(monkeypatch):
    # the search works out its own depth, so a recorded depth other than
    # the top corner degree is a fixture error, not a search parameter
    import stablebetti.verify as verify_mod

    fixtures = load_fixtures()
    fx = next(f for f in fixtures if "search_dmax" in f)
    assert fx["search_dmax"] == fx["corner_degrees"][0]
    fx["search_dmax"] += 1
    monkeypatch.setattr(verify_mod, "load_fixtures", lambda: fixtures)
    results = {r.name: r for r in verify_mod.run_fixtures()}
    assert results[fx["name"]].status == "fail"
    assert "not the top corner degree" in results[fx["name"]].detail


def test_each_profile_is_checked_once(monkeypatch):
    # nested_lex_ideal checks the profile and refuses an inadmissible one,
    # so the extremal branch takes its verdict from there: 21 checks, 5
    # fewer than when the branch called check_profile first
    import stablebetti.verify as verify_mod

    calls = []
    real = sb.extremal.check_profile

    def counted(profile):
        calls.append(profile)
        return real(profile)

    monkeypatch.setattr(sb.extremal, "check_profile", counted)
    monkeypatch.setattr(verify_mod, "check_profile", counted)
    results = verify_mod.run_fixtures()
    assert [r.status for r in results] == ["pass"] * len(results)
    assert len(calls) == 21
