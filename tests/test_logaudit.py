"""Hash-chain core: canonical bytes, link computation, tamper detection."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from utmaudit.logaudit import (
    GENESIS,
    LogChain,
    LogRecord,
    build_chain,
    canonical_serialization,
    chain_from_wire,
    compute_link,
    verify_chain,
)

from .oracles.pure_hash import sha256


def test_canonical_serialization_sorts_and_joins():
    fields = {"b": "2", "a": "1", "outcome": "ok"}
    assert canonical_serialization(fields) == b"a=1\nb=2\noutcome=ok"
    assert canonical_serialization({}) == b""


def test_canonical_serialization_utf8():
    assert canonical_serialization({"actor": "zoné"}) == "actor=zoné".encode("utf-8")


def test_single_record_link_matches_independent_oracle():
    fields = {"action": "boot", "actor_id": "system"}
    chain = build_chain([fields])
    expected = sha256(GENESIS + b"action=boot\nactor_id=system")
    assert chain.records[0].link == expected
    assert verify_chain(chain).ok


def test_multi_record_links_match_oracle():
    dicts = [{"n": str(i), "action": "a"} for i in range(5)]
    chain = build_chain(dicts)
    link = GENESIS
    for record, fields in zip(chain.records, dicts):
        link = sha256(link + canonical_serialization(fields))
        assert record.link == link
    assert verify_chain(chain).ok


def test_empty_chain_ok():
    report = verify_chain(LogChain(()))
    assert report.ok and report.first_broken_seq is None


def test_mutation_at_57_of_100():
    chain = build_chain([{"n": str(i)} for i in range(100)])
    records = list(chain.records)
    victim = records[56]
    records[56] = LogRecord(victim.seq, {"n": "tampered"}, victim.link)
    report = verify_chain(LogChain(tuple(records)))
    assert not report.ok
    assert report.first_broken_seq == 57


def test_link_mutation_detected_at_its_seq():
    chain = build_chain([{"n": str(i)} for i in range(10)])
    records = list(chain.records)
    victim = records[3]
    bad_link = bytes([victim.link[0] ^ 1]) + victim.link[1:]
    records[3] = LogRecord(victim.seq, victim.fields, bad_link)
    report = verify_chain(LogChain(tuple(records)))
    assert report.first_broken_seq == 4


def test_seq_gap_detected():
    chain = build_chain([{"n": str(i)} for i in range(5)])
    records = list(chain.records)
    del records[2]  # seq 3 missing
    report = verify_chain(LogChain(tuple(records)))
    assert not report.ok
    assert report.first_broken_seq == 4


def test_chain_from_wire_round_trip():
    chain = build_chain([{"action": "x", "outcome": "ok"}])
    entries = [
        {"seq": r.seq, "fields": r.fields, "link": r.link.hex()} for r in chain.records
    ]
    assert verify_chain(chain_from_wire(entries)).ok


def test_chain_from_wire_malformed_entry_breaks_at_its_seq():
    chain = build_chain([{"n": "0"}, {"n": "1"}, {"n": "2"}])
    entries = [
        {"seq": r.seq, "fields": r.fields, "link": r.link.hex()} for r in chain.records
    ]
    entries[1] = {"seq": 2, "fields": {"n": "1"}, "link": "zz-not-hex"}
    report = verify_chain(chain_from_wire(entries))
    assert report.first_broken_seq == 2


def test_chain_from_wire_non_integer_seq_gets_seq_0_and_never_verifies():
    chain = build_chain([{"n": "0"}, {"n": "1"}, {"n": "2"}])
    entries = [
        {"seq": r.seq, "fields": r.fields, "link": r.link.hex()} for r in chain.records
    ]
    entries[1] = dict(entries[1], seq="two")
    parsed = chain_from_wire(entries)
    assert [r.seq for r in parsed.records] == [1, 0, 3]
    assert parsed.records[1].link == b"\xff" * 32
    assert verify_chain(parsed).first_broken_seq == 0


# Detection completeness: any single mutated record is detected at exactly
# its own position. The bulk quantified run lives in the acceptance suite;
# this is the generator-driven variant.
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_single_mutation_detected_at_position(data):
    length = data.draw(st.integers(1, 40))
    dicts = [
        {"n": str(i), "v": data.draw(st.text("abc", max_size=4))} for i in range(length)
    ]
    chain = build_chain(dicts)
    position = data.draw(st.integers(0, length - 1))
    records = list(chain.records)
    victim = records[position]
    records[position] = LogRecord(
        victim.seq, {**victim.fields, "v": victim.fields["v"] + "!"}, victim.link
    )
    report = verify_chain(LogChain(tuple(records)))
    assert not report.ok
    assert report.first_broken_seq == victim.seq


def test_thousand_random_chains_single_mutation():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        length = rng.randint(1, 30)
        dicts = [{"n": str(i), "v": str(rng.random())} for i in range(length)]
        chain = build_chain(dicts)
        position = rng.randrange(length)
        records = list(chain.records)
        victim = records[position]
        records[position] = LogRecord(victim.seq, {**victim.fields, "v": "x"}, victim.link)
        report = verify_chain(LogChain(tuple(records)))
        assert report.first_broken_seq == victim.seq


def test_compute_link_depends_on_previous():
    fields = {"a": "1"}
    assert compute_link(GENESIS, fields) != compute_link(b"\x01" * 32, fields)
