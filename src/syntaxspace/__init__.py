"""Sentence syntax tuples, subclass mining, multi-dimensional indexing,
and rule-based question answering."""

from .corpus import (TaggedSentence, Token, ingest_text, load_pretagged,
                     normalize_voice, serialize_pretagged, split_sentences,
                     tag)
from .evaluation import (BASELINE_METHODS, BaselineIndex, baseline_rank,
                         qa_precision, relation_prf)
from .qa import (AnswerJudgment, NotAQuestion, QuestionSyntax, answer,
                 candidate_search, match_answer, parse_question,
                 question_relevant, sentence_relevant)
from .space import (CycleDetected, Dimension, ResourceSpace, build_dimension,
                    build_space, check_normal_forms, coverage, search,
                    serialize_space, transitive_reduce)
from .subsume import (EdgeSet, KindMismatch, SynonymTable,
                      at_or_below, clause_subclass, element_subclass,
                      phrase_subclass, prep_phrase_subclass, question_subclass,
                      scan_syntactic_patterns, sentence_subclass,
                      verb_phrase_subclass)
from .syntax import (Adverbial, Clause, Element, NoFiniteVerb, ObjectGroup,
                     Phrase, SentenceSyntax, canonical_key, classify_adverbial,
                     display, dump_parse, parse_action, parse_object,
                     parse_sentence, parse_sentence_parts)

__version__ = "0.1.0"
