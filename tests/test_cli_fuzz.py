"""`cli.main` over arbitrary outside input: questions, raw corpus bytes,
config JSON, synonyms files and damaged snapshots.

Whatever the input, `main` returns an exit code in {0, 1, 2} and never
raises; every strict prefix of a snapshot, and every change to its
dimension sections, is a data error, while every snapshot that `build`
writes loads again.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from syntaxspace.cli import CONFIG_ENV, main

from conftest import SHORT_INPUT, SHORT_QUESTION

EXIT_CODES = {0, 1, 2}

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def quiet_main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    raw = root / "short.txt"
    raw.write_text(" ".join(SHORT_INPUT[:2]) + "\n")
    assert quiet_main("ingest", raw, "-o", root / "corpus.snap") == 0
    assert quiet_main("build", root / "corpus.snap", "-o",
                      root / "space.snap") == 0
    return root


_WORDS = st.sampled_from(SHORT_QUESTION.split() + [
    "What", "Who", "is", "by", "LexRank", "extract?", "not", "?", "e.g.",
    "J.", "(", "\"", "-", "--explain", "the", "were", "built"])
_PROSE = st.lists(_WORDS, max_size=14).map(" ".join)


@FUZZ
@given(st.one_of(_PROSE, st.text(max_size=60)))
def test_any_question(files, question):
    assert quiet_main("query", files / "space.snap", question) in EXIT_CODES


@FUZZ
@given(st.one_of(_PROSE.map(str.encode),
                 st.lists(st.sampled_from(SHORT_INPUT), max_size=3)
                 .map(lambda s: " ".join(s).encode()),
                 st.binary(max_size=120)))
def test_any_corpus_bytes(files, data):
    raw = files / "raw.txt"
    raw.write_bytes(data)
    code = quiet_main("ingest", raw, "-o", files / "raw.snap")
    assert code in EXIT_CODES
    if code == 0:
        code = quiet_main("build", files / "raw.snap", "-o",
                          files / "raw-space.snap")
        assert code in EXIT_CODES
    if code == 0:
        assert quiet_main("stats", files / "raw-space.snap") == 0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
_FIELDS = st.sampled_from(["tagger", "synonym_path", "bm25_k1", "bm25_b",
                           "gst_min_tile", "top_k", "other"])


@FUZZ
@given(st.one_of(_JSON, st.dictionaries(_FIELDS, _JSON, max_size=4)))
def test_any_config(files, value):
    config = files / "config.json"
    config.write_text(json.dumps(value))
    with mock.patch.dict(os.environ, {CONFIG_ENV: str(config)}):
        assert quiet_main("query", files / "space.snap",
                          SHORT_QUESTION) in EXIT_CODES


_SYNONYM_LINES = st.lists(
    st.lists(st.sampled_from(["build", "construct", "extract", "", " ",
                              "#", "x"]), max_size=4).map("\t".join),
    max_size=5).map(lambda rows: "\n".join(rows).encode())


@FUZZ
@given(st.one_of(_SYNONYM_LINES, st.binary(max_size=60)))
def test_any_synonyms_file(files, data):
    synonyms = files / "synonyms.tsv"
    synonyms.write_bytes(data)
    assert quiet_main("--synonyms", synonyms, "query", files / "space.snap",
                      SHORT_QUESTION) in EXIT_CODES


def test_every_strict_prefix_of_a_snapshot_is_a_data_error(files):
    snapshot = (files / "space.snap").read_bytes()
    cut = files / "cut.snap"
    commands = [["stats"], ["dump-edges"], ["query", SHORT_QUESTION]]
    for size in range(len(snapshot)):
        cut.write_bytes(snapshot[:size])
        command, *rest = commands[size % 3]
        assert quiet_main(command, cut, *rest) == 2, size


@FUZZ
@given(st.data())
def test_flipped_snapshot_bytes(files, data):
    snapshot = bytearray((files / "space.snap").read_bytes())
    for _ in range(data.draw(st.integers(1, 3))):
        snapshot[data.draw(st.integers(0, len(snapshot) - 1))] ^= \
            data.draw(st.integers(1, 255))
    flipped = files / "flipped.snap"
    flipped.write_bytes(bytes(snapshot))
    assert quiet_main("query", flipped, SHORT_QUESTION) in EXIT_CODES


@FUZZ
@given(st.data())
def test_flipped_dimension_bytes_are_a_data_error(files, data):
    snapshot = bytearray((files / "space.snap").read_bytes())
    start = snapshot.index(b"[DIMENSION ")
    positions = data.draw(st.sets(st.integers(start, len(snapshot) - 1),
                                  min_size=1, max_size=3))
    for pos in positions:
        snapshot[pos] ^= data.draw(st.integers(1, 255))
        # text mode reads "\r" as "\n", so a "\n" turned into "\r" is
        # the same text
        assume(snapshot[pos] != ord("\r"))
    flipped = files / "flipped.snap"
    flipped.write_bytes(bytes(snapshot))
    command = data.draw(st.sampled_from(
        [["stats"], ["dump-edges"], ["query", SHORT_QUESTION]]))
    assert quiet_main(command[0], flipped, *command[1:]) == 2
