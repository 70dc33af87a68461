"""A one-second slice of the certification census (``tests/census.py``):
its records, and its rule that every failure is a listed one and every
listed one a failure."""

import json
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


def test_compare_exits_1_when_a_converged_flag_is_lost(tmp_path, capsys):
    def rec(key, status, fingerprint):
        return dict(
            key=key, scheme="me", status=status, method="newton", steps=3, gap=0.0,
            fingerprint=fingerprint, welfare=1.0, utilities=[1.0], prices=[1.0],
        )

    paths = {}
    for name, records in {
        "old": [rec("a", "certified", "f0"), rec("b", "certified", "f1")],
        "same": [rec("a", "certified", "f0"), rec("b", "certified", "f1")],
        "lost": [rec("a", "certified", "f0"), rec("b", "uncertified", "f2")],
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"reports": records}))
    assert census.main(["--compare", str(paths["old"]), str(paths["same"])]) == 0
    assert "converged flags lost: 0" in capsys.readouterr().out
    assert census.main(["--compare", str(paths["old"]), str(paths["lost"])]) == 1
    out = capsys.readouterr().out
    assert "converged flags lost: 1" in out and "b/me" in out
