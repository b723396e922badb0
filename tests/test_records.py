"""The parse elements and per-sentence records are slotted dataclasses.

The element types stay frozen and hashable.  Copying, pickling and
`dataclasses.replace` give back an equal value.  The module needs no test
runner, so it also runs as a plain script on interpreters without pytest:

    PYTHONPATH=src python tests/test_records.py
"""

import copy
import dataclasses
import pathlib
import pickle

from syntaxspace import corpus, qa
from syntaxspace.corpus import TaggedSentence, normalize_voice
from syntaxspace.qa import AnswerJudgment, QuestionSyntax
from syntaxspace.space import SentenceRecord, build_space
from syntaxspace.syntax import (Adverbial, Clause, ObjectGroup, Phrase,
                                SentenceSyntax, _Parser,
                                parse_sentence_parts)

DEMO = pathlib.Path(__file__).parent.parent / "demo" / "short.txt"
FROZEN = (Phrase, Clause, Adverbial, ObjectGroup)
RECORDS = (SentenceSyntax, _Parser, TaggedSentence, SentenceRecord,
           QuestionSyntax, AnswerJudgment)


def _demo() -> list[TaggedSentence]:
    return corpus.ingest_text(DEMO.read_text(encoding="utf-8"), "short")


def _demo_parts() -> list[SentenceSyntax]:
    return [part for s in _demo()
            for part in parse_sentence_parts(normalize_voice(s))]


def _elements(part: SentenceSyntax) -> list:
    """The part's subject, action, object group and adverbials, and the
    elements inside its clauses."""
    out, todo = [], [part.subject, part.action, part.object,
                     *part.adverbials]
    while todo:
        element = todo.pop()
        if element is None:
            continue
        out.append(element)
        if isinstance(element, Adverbial):
            todo.append(element.content)
        elif isinstance(element, ObjectGroup):
            todo += [element.direct, element.indirect, element.complement]
        elif isinstance(element, Clause):
            todo += [element.subject, element.action, element.object,
                     *element.adverbials]
    return out


def _one_of_each() -> dict[type, object]:
    sentences, parts = _demo(), _demo_parts()
    space = build_space(sentences)
    question = corpus.tag("How does unsupervised algorithm build an extract?")
    found = {type(e): e for part in parts for e in _elements(part)}
    found.update({
        SentenceSyntax: parts[0],
        _Parser: _Parser(sentences[0].tokens),
        TaggedSentence: sentences[0],
        SentenceRecord: space.records[1],
        QuestionSyntax: qa.parse_question(question),
        AnswerJudgment: qa.answer(space, question)[0][1],
    })
    return found


def _raises(exc: type, fn) -> bool:
    try:
        fn()
    except exc:
        return True
    return False


def test_every_record_type_has_an_instance_without_a_dict():
    instances = _one_of_each()
    assert set(instances) == {*FROZEN, *RECORDS}
    for cls, instance in instances.items():
        assert type(instance) is cls
        assert not hasattr(instance, "__dict__"), cls.__name__
        # a frozen slotted class raises TypeError here before Python 3.12
        assert _raises((AttributeError, TypeError),
                       lambda: setattr(instance, "extra", 1)), cls.__name__


def test_elements_and_edges_stay_frozen_and_hashable():
    instances = _one_of_each()
    for cls in FROZEN:
        instance = instances[cls]
        field = dataclasses.fields(cls)[0].name
        assert _raises(dataclasses.FrozenInstanceError,
                       lambda: setattr(instance, field, None)), cls.__name__
        assert hash(instance) == hash(copy.deepcopy(instance))


def test_a_parsed_sentence_round_trips():
    parts = _demo_parts()
    assert any(isinstance(e, Clause) for p in parts for e in _elements(p))
    for part in parts:
        for twin in (copy.copy(part), copy.deepcopy(part),
                     pickle.loads(pickle.dumps(part)),
                     dataclasses.replace(part)):
            assert twin == part and twin is not part
            assert dataclasses.asdict(twin) == dataclasses.asdict(part)
            for got, want in zip(_elements(twin), _elements(part)):
                assert got == want and hash(got) == hash(want)


if __name__ == "__main__":
    import sys
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    print(f"all ok on Python {sys.version.split()[0]}")
