"""A one-second slice of the certification census (``tests/census.py``):
its records, and its rule that every failure is a listed one and every
listed one a failure."""

import math

from tests import census

SLICE = {"preset/s0/a0", "preset/s0/a2", "preset/s0/a1.01", "rng5000/k0", "mix/n2/k9", "mix/n4/k38"}


def test_slice_has_no_unlisted_failure():
    records = census.run(SLICE)
    assert {rec["key"] for rec in records} == SLICE
    unlisted, mended = census.check(records)
    assert unlisted == [] and mended == []
    # the listed failures of the slice: price Newton at alpha 100 (item 7)
    # and the utility scale near alpha 1 (item 8)
    failed = {f"{rec['key']}/{rec['scheme']}" for rec in records if census.failed(rec)}
    assert {"mix/n2/k9/me", "preset/s0/a1.01/so"} <= failed
    assert all(census.KNOWN[name] in (7, 8) for name in failed)
    for rec in records:
        if rec["status"] == "certified":
            assert rec["gap"] <= 1e-9 and not rec["silent"]
            assert len(rec["fingerprint"]) == 16 and math.isfinite(rec["welfare"])


def test_a_listed_entry_that_certifies_fails_the_run(monkeypatch, capsys):
    records = census.run({"preset/s0/a2"})
    monkeypatch.setattr(census, "run", lambda keys=None: records)
    assert census.main([]) == 0
    monkeypatch.setitem(census.KNOWN, "preset/s0/a2/me", 7)
    assert census.main([]) == 1
    assert "listed failure now certifies: preset/s0/a2/me (item 7)" in capsys.readouterr().out
