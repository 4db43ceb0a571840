"""Regulation corpus and exposure schedule."""

import json

import pytest

from regflow.corpus import (
    LENIENT,
    STRICT,
    Regulation,
    Schedule,
    active_phase,
    build_default_corpus,
    load_corpus,
    regulations_for,
)
from regflow.errors import ArgumentError
from regflow.schema import json_default


class TestDefaultCorpus:
    def test_five_strict_five_lenient(self):
        corpus = build_default_corpus()
        assert len(corpus) == 10
        counts = {STRICT: 0, LENIENT: 0}
        for reg in corpus:
            counts[reg.strictness] += 1
        assert counts == {STRICT: 5, LENIENT: 5}

    def test_ids_distinct(self):
        corpus = build_default_corpus()
        assert len({reg.id for reg in corpus}) == 10

    def test_first_strict_body_is_the_transparency_regulation(self):
        corpus = build_default_corpus()
        first_strict = next(reg for reg in corpus if reg.strictness == STRICT)
        assert "Algorithm Transparency and Traceability" in first_strict.body
        assert "audit trail" in first_strict.body

    def test_covers_five_topics(self):
        corpus = build_default_corpus()
        topics = {reg.topic for reg in corpus}
        assert topics == {
            "transparency",
            "data quality",
            "post-market monitoring",
            "cybersecurity",
            "change control",
        }


class TestActivePhase:
    def test_starts_strict(self):
        assert active_phase(0, Schedule()) == STRICT

    def test_switches_to_lenient_after_ten(self):
        assert active_phase(9, Schedule()) == STRICT
        assert active_phase(10, Schedule()) == LENIENT
        assert active_phase(14, Schedule()) == LENIENT

    def test_cycles_back_to_strict(self):
        assert active_phase(15, Schedule()) == STRICT

    def test_periodicity(self):
        s = Schedule(strict_steps=7, lenient_steps=4, cycle=True)
        period = 11
        for t in range(40):
            assert active_phase(t, s) == active_phase(t + period, s)

    def test_no_cycle_holds_lenient_forever(self):
        s = Schedule(strict_steps=3, lenient_steps=2, cycle=False)
        phases = [active_phase(t, s) for t in range(10)]
        assert phases == [STRICT] * 3 + [LENIENT] * 7

    def test_negative_step_rejected(self):
        with pytest.raises(ArgumentError):
            active_phase(-1, Schedule())

    def test_bad_schedule_rejected(self):
        with pytest.raises(ArgumentError):
            active_phase(0, Schedule(strict_steps=0))


class TestRegulationsFor:
    def test_strict_phase_returns_all_strict(self):
        corpus = build_default_corpus()
        regs = regulations_for(0, corpus, Schedule())
        assert len(regs) == 5
        assert all(reg.strictness == STRICT for reg in regs)

    def test_lenient_phase_returns_all_lenient(self):
        corpus = build_default_corpus()
        regs = regulations_for(12, corpus, Schedule())
        assert len(regs) == 5
        assert all(reg.strictness == LENIENT for reg in regs)

    def test_cycling_remainder(self):
        # 29 mod 15 = 14, inside the lenient window
        corpus = build_default_corpus()
        regs = regulations_for(29, corpus, Schedule())
        assert all(reg.strictness == LENIENT for reg in regs)

    def test_preserves_corpus_order(self):
        corpus = build_default_corpus()
        regs = regulations_for(0, corpus, Schedule())
        expected = [reg.id for reg in corpus if reg.strictness == STRICT]
        assert [reg.id for reg in regs] == expected

    def test_uniform_strictness_property(self):
        corpus = build_default_corpus()
        for t in range(0, 45):
            regs = regulations_for(t, corpus, Schedule())
            assert regs
            assert len({reg.strictness for reg in regs}) == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ArgumentError):
            regulations_for(0, [], Schedule())

    def test_missing_phase_rejected(self):
        only_strict = [r for r in build_default_corpus() if r.strictness == STRICT]
        with pytest.raises(ArgumentError):
            regulations_for(12, only_strict, Schedule())


class TestCorpusJson:
    def test_round_trip(self, tmp_path):
        corpus = build_default_corpus()
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus, default=json_default))
        loaded = load_corpus(path)
        assert loaded == corpus

    def test_custom_corpus(self, tmp_path):
        data = [
            {"id": "s1", "strictness": "strict", "title": "T", "body": "B", "topic": "x"},
            {"id": "l1", "strictness": "lenient", "title": "T", "body": "B", "topic": "x"},
        ]
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(data))
        corpus = load_corpus(path)
        assert corpus == [
            Regulation("s1", "strict", "T", "B", "x"),
            Regulation("l1", "lenient", "T", "B", "x"),
        ]

    def test_duplicate_ids_rejected(self, tmp_path):
        data = [
            {"id": "s1", "strictness": "strict", "title": "T", "body": "B", "topic": "x"},
            {"id": "s1", "strictness": "lenient", "title": "T", "body": "B", "topic": "x"},
        ]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ArgumentError):
            load_corpus(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "a", "strictness": "strict"}]))
        with pytest.raises(ArgumentError):
            load_corpus(path)

    def test_invalid_strictness_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(
            json.dumps([{"id": "a", "strictness": "harsh", "title": "T", "body": "B", "topic": "x"}])
        )
        with pytest.raises(ArgumentError):
            load_corpus(path)
