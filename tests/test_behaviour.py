"""The behaviour lock (``tests/behaviour.py``): outputs stay byte-identical."""

import behaviour


def test_small_cases_keep_their_digests(monkeypatch):
    # every fixture, seeds 0-1 of the five polymatroid kinds at n = 4 and 12
    # with and without quality factors, and both demos: exit codes, stdout,
    # stderr and trace files of run, verify and check-submodular (CI checks
    # the large set the same way)
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)
    assert behaviour.moved("small") == []


def test_lock_holds_every_case_and_command():
    lock = behaviour.stored()
    for which in ("small", "large"):
        assert set(lock[which]) == set(behaviour.cases(which)), which
    markets = [r for which in ("small", "large") for r in lock[which].values() if "file" in r]
    assert all(set(r) == {"file", *behaviour.COMMANDS} for r in markets)
    assert all(r["run"]["trace"] is not None for r in markets)
    # each engine shows: the curve and H-polytope fixtures, and quality markets
    assert {"fixture/appendix-d", "fixture/impossibility", "fixture/adwords-quality",
            "demo/appendix-d", "demo/impossibility"} <= set(lock["small"])
