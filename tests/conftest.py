import pathlib

import pytest

from syntaxspace import corpus
from syntaxspace.space import build_space
from syntaxspace.syntax import ADJECTIVE, ADVERB, NOUN, PREPOSITIONAL, Phrase, VERB

DATA = pathlib.Path(__file__).parent / "data"

# The four-sentence short input used throughout the examples.
SHORT_INPUT = [
    "LexRank builds an extract by selecting top ranked sentences.",
    "LexRank is an unsupervised algorithm due to no training data is required.",
    "The results show that the extract can be built well by unsupervised algorithm.",
    "Supervised algorithm builds an extract by classifying sentences.",
]

SHORT_QUESTION = "How does unsupervised algorithm build an extract?"

# Every code point for which `str.isspace` holds, which are the ones `\s`
# matches in a `str` pattern.
UNICODE_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
                  "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
                  "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def tag_corpus(texts, doc_id="doc"):
    return [corpus.tag(t, sentence_id=i + 1, doc_id=doc_id)
            for i, t in enumerate(texts)]


@pytest.fixture(scope="session")
def short_tagged():
    return tag_corpus(SHORT_INPUT, doc_id="short")


@pytest.fixture(scope="session")
def short_space(short_tagged):
    return build_space(short_tagged)


@pytest.fixture(scope="session")
def parse_fixture_sentences():
    return corpus.load_pretagged(DATA / "parse_fixtures.tsv")


def np(head, *mods):
    return Phrase(NOUN, head, tuple(mods))


def vp(head, *mods):
    return Phrase(VERB, head, tuple(mods))


def pp(prep, head, *mods):
    return Phrase(PREPOSITIONAL, head, (prep,) + tuple(mods))


def adjp(head, *mods):
    return Phrase(ADJECTIVE, head, tuple(mods))


def advp(head):
    return Phrase(ADVERB, head)


def pytest_runtest_logreport(report):
    """One visible FAIL line per acceptance criterion (the PASS lines are
    printed by the tests themselves)."""
    if report.when == "call" and report.failed \
            and "test_criterion_" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        number = name.split("_")[2]
        print(f"\nCRITERION {number} FAIL — {name}")
