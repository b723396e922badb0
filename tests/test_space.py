import copy
import random

import pytest

from syntaxspace import corpus
from syntaxspace import subsume
from syntaxspace.corpus import tag
from syntaxspace.qa import answer
from syntaxspace.space import (CycleDetected, Dimension, ResourceSpace,
                               _break_cycles, build_dimension,
                               build_space, check_normal_forms, coverage,
                               search, serialize_space, space_stats,
                               transitive_reduce)
from syntaxspace.subsume import (MODIFIER, SYNTACTIC, EdgeSet, SynonymTable,
                                 harvest_edges)
from syntaxspace.syntax import (PRONOUN, Adverbial, Clause, Phrase,
                                canonical_key)

from conftest import SHORT_INPUT, np, pp, tag_corpus, vp


class TestBuildDimension:
    def test_example_corpus_subject_dimension(self, short_space):
        dim = short_space.dimensions["subject"]
        keys = set(dim.nodes)
        assert {"np(lexrank|)", "np(algorithm|unsupervised)",
                "np(algorithm|supervised)", "np(result|)"} == keys
        assert ("np(lexrank|)", "np(algorithm|unsupervised)") in dim.edges
        assert dim.postings["np(lexrank|)"] == {1, 2}
        assert dim.postings["np(algorithm|unsupervised)"] == set()

    def test_empty_dimension(self):
        dim = build_dimension("subject", [], EdgeSet())
        assert dim.nodes == {} and dim.edges == {}

    def test_chain_is_reduced(self):
        items = [
            (1, np("algorithm")),
            (2, np("algorithm", "unsupervised")),
            (3, np("algorithm", "unsupervised", "graph-based")),
        ]
        dim = build_dimension("subject", items, EdgeSet())
        assert dim.edges.keys() == {
            ("np(algorithm|graph-based unsupervised)", "np(algorithm|unsupervised)"),
            ("np(algorithm|unsupervised)", "np(algorithm|)"),
        }

    @pytest.mark.parametrize("n", [20, 200])
    def test_bucket_work_grows_with_nodes_not_pairs(self, monkeypatch, n):
        # "dog" and n dogs with distinct adjectives share one bucket; "dog"
        # reads the adjective dogs from the index's postings, and each of
        # them finds no other member posted under its adjective: no pair of
        # phrases is judged
        calls, real = [], subsume.at_or_below

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(subsume, "at_or_below", counted)
        items = [(0, np("dog"))] + [(i, np("dog", f"adj{i:03d}"))
                                    for i in range(1, n + 1)]
        dim = build_dimension("subject", items, EdgeSet())
        assert len(dim.edges) == n
        assert len(calls) <= n + 2
        assert calls == []

    @pytest.mark.parametrize("n", [20, 200])
    def test_attach_work_grows_with_nodes_plus_edges(self, monkeypatch, n):
        # a harvested chain of k edges, keys falling along it, whose first
        # child is no node but has "big" one below it, after n nodes of
        # other heads; each child is looked up in the index, not judged
        # against every node per edge and pass
        calls, real = [], subsume.at_or_below

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(subsume, "at_or_below", counted)
        k = 30
        chain = [np(f"rank{k - j:02d}") for j in range(k + 1)]
        items = [(i, np(f"dog{i:03d}")) for i in range(n)] \
            + [(n, np(f"rank{k:02d}", "big"))]
        edges = _harvested(*zip(chain, chain[1:]))
        dim = build_dimension("subject", items, edges)
        assert {canonical_key(c) for c in chain} <= dim.nodes.keys()
        assert len(dim.edges) == k + 1
        assert len(calls) <= n + k

    def test_clause_judges_no_clause_outside_its_bucket(self, monkeypatch):
        # the "build" clause holds every lemma of the "rank" clause, so the
        # index names it for the modifier rule; it is in another bucket
        # (action head), so no pair of the two is judged
        calls, real = [], subsume.at_or_below

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(subsume, "at_or_below", counted)
        parent = Clause("that", None, vp("rank"), np("sentence"))
        child = Clause("that", None, vp("rank"), np("sentence", "long"))
        other = Clause("that", np("rank"), vp("build"), np("sentence"))
        dim = build_dimension("subject", [(1, parent), (2, child),
                                          (3, other)], EdgeSet())
        assert dim.edges.keys() == {(canonical_key(child),
                                     canonical_key(parent))}
        judged = [(c, p) for c, p, *_ in calls if isinstance(p, Clause)]
        assert judged and all(c.action.head == p.action.head
                              for c, p in judged)

    def test_clause_edge_through_a_pronoun_equal_by_its_head(self):
        # the pronouns are equal by their head, modifiers aside, so the
        # clause with one more adverbial is below the other
        parent = Clause("that", Phrase(PRONOUN, "it", ("very",)), vp("move"),
                        None)
        child = Clause("that", Phrase(PRONOUN, "it"), vp("move"), None,
                       (Adverbial("place", pp("in", "model")),))
        dim = build_dimension("subject", [(1, child), (2, parent)], EdgeSet())
        assert dim.edges.keys() == {(canonical_key(child),
                                     canonical_key(parent))}

    def test_child_kind_picks_the_dimension_of_a_harvested_pair(self):
        # a noun pair and a verb pair on one lemma; every dimension holds
        # both "run" phrases, so each could attach either child
        edges = build_space(tag_corpus(["A run is a test.",
                                        "To run is to move."])).edge_set
        noun, verb = ("np(run|)", "np(test|)"), ("vp(run|)", "vp(move|)")
        assert edges.edges == {noun: 1, verb: 2}
        expected = {"subject": {noun: (SYNTACTIC, 1)},
                    "object": {noun: (SYNTACTIC, 1)},
                    "action": {verb: (SYNTACTIC, 2)}, "adverbial": {}}
        for name, pairs in expected.items():
            dim = build_dimension(name, [(1, np("run")), (2, vp("run"))],
                                  edges)
            assert dim.edges == pairs, name

    def test_merge_soundness(self, short_tagged, short_space):
        # total posting cardinality equals the number of (sentence, element)
        # inputs for each dimension
        from syntaxspace.space import sentence_elements
        expected = {name: 0 for name in ("subject", "action", "object", "adverbial")}
        for sid, parts in short_space.sentences.items():
            for part in parts:
                for name, elements in sentence_elements(part).items():
                    expected[name] += len(elements)
        for name, count in expected.items():
            total = sum(len(p) for p in short_space.dimensions[name].postings.values())
            assert total == count


class TestTransitiveReduce:
    def test_chain(self):
        assert transitive_reduce({("a", "b"), ("b", "c"), ("a", "c")}) \
            == {("a", "b"), ("b", "c")}

    def test_chain_of_four(self):
        edges = {("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("a", "d"),
                 ("b", "d")}
        assert transitive_reduce(edges) == {("a", "b"), ("b", "c"), ("c", "d")}

    def test_diamond(self):
        edges = {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "d")}
        assert transitive_reduce(edges) == {("a", "b"), ("a", "c"),
                                            ("b", "d"), ("c", "d")}

    def test_idempotent(self):
        edges = {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
        assert transitive_reduce(edges) == edges

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            transitive_reduce({("a", "b"), ("b", "a")})

    def test_closure_preserved_on_random_dags(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 12)
            nodes = [f"n{i}" for i in range(n)]
            edges = {(nodes[i], nodes[j])
                     for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3}
            reduced = transitive_reduce(edges)
            assert reduced <= edges
            assert _closure(reduced) == _closure(edges)
            # minimality: removing any edge changes the closure
            for edge in reduced:
                assert _closure(reduced - {edge}) != _closure(edges)


DEEP = [f"n{i:05d}" for i in range(5001)]
DEEP_CHAIN = list(zip(DEEP, DEEP[1:]))


class TestDeepGraphs:
    """A long "X is a Y" chain must not hit the recursion limit."""

    def test_reduce_drops_every_shortcut(self):
        shortcuts = set(zip(DEEP, DEEP[2:]))
        assert transitive_reduce(set(DEEP_CHAIN) | shortcuts) \
            == set(DEEP_CHAIN)

    def test_closing_edge_is_a_cycle(self):
        with pytest.raises(CycleDetected):
            transitive_reduce(set(DEEP_CHAIN) | {(DEEP[-1], DEEP[0])})

    def test_break_cycles_drops_weakest_latest_edge(self):
        weak = {10, 4000}
        raw = [(c, p, MODIFIER if i in weak else SYNTACTIC, None)
               for i, (c, p) in enumerate(DEEP_CHAIN)]
        raw.append((DEEP[-1], DEEP[0], SYNTACTIC, None))
        dropped = []
        kept = _break_cycles(raw, dropped)
        assert dropped == [(*DEEP_CHAIN[4000], MODIFIER)]
        assert kept == raw[:4000] + raw[4001:]


def _closure(edges):
    out = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(out):
            for c, d in list(out):
                if b == c and (a, d) not in out:
                    out.add((a, d))
                    changed = True
    return out


class TestSearch:
    def test_superclass_search(self, short_space):
        assert search(short_space, "subject", np("algorithm", "unsupervised")) == {1, 2}

    def test_action_search(self, short_space):
        assert search(short_space, "action", vp("build")) == {1, 4}

    def test_object_search(self, short_space):
        assert search(short_space, "object", np("extract")) == {1, 4}

    def test_no_match(self, short_space):
        assert search(short_space, "subject", np("nonexistent")) == set()

    def test_empty_dimension(self):
        space = build_space([])
        assert search(space, "subject", np("algorithm")) == set()

    def test_root_search(self, short_space):
        assert search(short_space, "subject", None) == {1, 2, 3, 4}
        assert search(short_space, "adverbial", None) == {1, 2, 4}

    def test_root_search_returns_a_new_set(self, short_space):
        search(short_space, "subject", None).clear()
        assert search(short_space, "subject", None) == {1, 2, 3, 4}
        assert coverage(short_space).covered["subject"] == 4

    def test_descendant_closure(self, short_space):
        # for any node X with descendant Y: search(Y) subset of search(X)
        for name, dim in short_space.dimensions.items():
            for child, parent in dim.edges:
                child_hits = search(short_space, name, dim.nodes[child])
                parent_hits = search(short_space, name, dim.nodes[parent])
                assert child_hits <= parent_hits


def _harvested(*pairs):
    """An edge set with one np edge per (child, parent) pair, in order."""
    return harvest_edges((child, parent, sid)
                         for sid, (child, parent) in enumerate(pairs, 1))


def _subject_space(items, edges):
    dim = build_dimension("subject", items, edges)
    return ResourceSpace({"subject": dim}, {}, {}, [], edges, SynonymTable())


class TestSearchIndex:
    def test_harvested_edge_dropped_by_cycle_breaking_still_counts(self):
        # the harvested cycle apple < berry < cherry < apple loses one edge
        # in the dimension, but at_or_below still follows it through
        # EdgeSet.up, so every node is below every other
        apple, berry, cherry = np("apple"), np("berry"), np("cherry")
        edges = _harvested((apple, berry), (berry, cherry), (cherry, apple))
        space = _subject_space([(1, apple), (2, berry), (3, cherry)], edges)
        dim = space.dimensions["subject"]
        assert len(dim.dropped_edges) == 1
        child, parent, _ = dim.dropped_edges[0]
        assert (child, parent) not in dim.edges
        assert all(p != parent for _, p in dim.edges)  # nothing below it
        for query in (apple, berry, cherry):
            assert search(space, "subject", query) == {1, 2, 3}

    def test_modifier_then_harvested_verb_path_is_not_searched(self):
        # the action tree holds compute carefully -> compute (modifier) ->
        # store (harvested), but at_or_below does not extend a harvested
        # verb edge to phrases modifier-below its child, so matching
        # rejects "carefully computes" for "stores" and search leaves it
        # out: the dimension's edges are not walked
        space = build_space(tag_corpus([
            "The system carefully computes data.",
            "The system computes data.", "The system stores data.",
            "To compute data is to store data."]))
        dim = space.dimensions["action"]
        assert {("vp(compute|carefully)", "vp(compute|)"),
                ("vp(compute|)", "vp(store|)")} <= dim.edges.keys()
        assert search(space, "action", vp("store")) == {2, 3}
        results = answer(space, tag("What stores data?"))
        assert [(sid, j.matched["action"]) for sid, j in results] \
            == [(3, "same"), (2, "subclass")]

    def test_query_work_does_not_grow_with_nodes(self, monkeypatch):
        # the same query over 20 and 200 unrelated noun heads, "to" clauses
        # and "that" clauses of other verbs makes the same judgments
        # (outermost at_or_below calls, not those a clause makes of its
        # slots): a noun query reads its bucket's modifier postings and
        # judges nothing; a clause query judges only the clauses of its
        # lead posted under all its lemmas
        edges = _harvested((np("lexrank"), np("algorithm", "unsupervised")))
        that_clause = Clause("that", None, vp("rank"), np("sentence"))
        spaces = [_subject_space(
            [(i, np(f"noun{i:03d}")) for i in range(unrelated)]
            + [(i, Clause("to", None, vp(f"verb{i:03d}"), None))
               for i in range(2000, 2000 + unrelated)]
            + [(i, Clause("that", None, vp(f"verb{i:03d}"), np("sentence")))
               for i in range(3000, 3000 + unrelated)]
            + [(1000, np("algorithm")), (1001, np("algorithm", "fast")),
               (1002, np("lexrank")), (1003, that_clause)], edges)
            for unrelated in (20, 200)]
        calls, real, depth = [], subsume.at_or_below, [0]

        def counted(*args):
            if not depth[0]:
                calls.append(args)
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(subsume, "at_or_below", counted)
        counts = []
        for space in spaces:
            calls.clear()
            assert search(space, "subject", np("algorithm")) \
                == {1000, 1001, 1002}
            counts.append(len(calls))
            calls.clear()
            # an equal clause: the node itself would pass unjudged
            assert search(space, "subject", Clause(
                "that", None, vp("rank"), np("sentence"))) == {1003}
            counts.append(len(calls))
        assert counts == [0, 1, 0, 1]

    def test_modifier_pairs_judge_no_clause_against_itself(self,
                                                            monkeypatch):
        # each node is among its own anchors and passes unjudged: of the
        # judgments the modifier step makes (outermost at_or_below calls,
        # not those a clause makes of its slots), none has the node as both
        # sides, and the clause adverbials still pair
        judged, real, depth = [], subsume.at_or_below, [0]

        def counted(e1, e2, *args, **kwargs):
            if not depth[0]:
                judged.append(e1 is e2)
            depth[0] += 1
            try:
                return real(e1, e2, *args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(subsume, "at_or_below", counted)
        space = build_space(tag_corpus([
            "The team builds models by ranking sentences.",
            "The team builds models by ranking salient sentences.",
            "The lab builds tools by ranking sentences quickly.",
            "The lab wins because the team builds models.",
            "The lab wins because the team builds deep models."]))
        assert judged and not any(judged)
        assert ("adv(method|cl(by|-|vp(rank|)|np(sentence|salient)|))",
                "adv(method|cl(by|-|vp(rank|)|np(sentence|)|))") \
            in space.dimensions["adverbial"].edges


    @pytest.mark.parametrize("query, kwargs, want", [
        # a lone bucket and no modifier: every member of the bucket
        (np("lexrank"), {}, {"np(lexrank|)"}),
        # a modifier that no member posts
        (np("algorithm", "slow"), {}, set()),
        # a verb and its synonym's bucket
        (vp("run"), {"syn": SynonymTable([("run", "sprint")])},
         {"vp(run|)", "vp(sprint|quickly)"}),
        # a hit through the harvested edge lexrank < algorithm
        (np("algorithm"), {}, {"np(algorithm|)", "np(algorithm|fast)",
                               "np(algorithm|fast fast)", "np(lexrank|)"}),
        # a repeated modifier, counted
        (np("algorithm", "fast", "fast"), {}, {"np(algorithm|fast fast)"}),
        (np("algorithm"), {"among": {"np(lexrank|)", "vp(run|)"}},
         {"np(lexrank|)"}),
    ], ids=["lone-bucket", "unposted-modifier", "synonym-buckets",
            "harvested-below", "repeated-modifier", "among"])
    def test_anchors_returns_a_set_the_caller_owns(self, query, kwargs,
                                                   want):
        # emptying the result changes neither the index nor the next call
        dim = build_dimension("subject", list(enumerate([
            np("algorithm"), np("algorithm", "fast"),
            np("algorithm", "fast", "fast"), np("lexrank"), vp("run"),
            vp("sprint", "quickly")], 1)),
            _harvested((np("lexrank"), np("algorithm"))))
        index = dim.index
        posted = copy.deepcopy((index.buckets, index.below))
        got = index.anchors(query, **kwargs)
        assert type(got) is set and got == want
        got.add("np(extra|)")
        got.clear()
        assert (index.buckets, index.below) == posted
        assert index.anchors(query, **kwargs) == want


class TestCoverage:
    def test_example_corpus(self, short_space):
        report = coverage(short_space)
        assert report.total == 4
        assert report.covered["subject"] == 4
        assert report.covered["action"] == 4
        assert report.covered["object"] == 4
        assert report.union_covered == 4
        assert report.intersection_covered == 4

    def test_imperative(self):
        space = build_space(tag_corpus(["Run the test."]))
        report = coverage(space)
        assert report.covered["subject"] == 0
        assert report.covered["action"] == 1
        assert report.lines()[0] == "subject    0/1 = 0.00%"

    def test_empty_corpus_flagged(self):
        report = coverage(build_space([]))
        assert report.total == 0
        assert report.lines() == ["coverage: undefined (empty corpus)"]
        assert report.covered["subject"] == 0


class TestNormalForms:
    def test_example_corpus(self, short_space):
        report = check_normal_forms(short_space)
        assert report.first_nf
        assert report.second_nf
        assert report.third_nf
        assert report.subspace_sentences == 4

    def test_rekeyed_node_breaks_1nf(self, short_space):
        assert check_normal_forms(short_space).first_nf
        dim = short_space.dimensions["subject"]
        saved = dim.nodes
        key = next(iter(saved))
        # store one node under a key that is not its canonical key
        dim.nodes = {("x" + k if k == key else k): node
                     for k, node in saved.items()}
        try:
            broken = check_normal_forms(short_space)
        finally:
            dim.nodes = saved
        assert not broken.first_nf
        assert not broken.second_nf and not broken.third_nf
        assert broken.miskeyed == ["x" + key]

    def test_imperative_breaks_3nf(self):
        space = build_space(tag_corpus([
            "Run the test.",
            "LexRank builds an extract.",
        ]))
        report = check_normal_forms(space)
        assert report.second_nf
        assert not report.third_nf
        assert not report.full_coverage["subject"]
        assert report.full_coverage["action"]
        # the subspace excluding the imperative attains 3NF
        assert report.subspace_sentences == 1


class TestDeterminism:
    def test_rebuild_identical(self, short_tagged):
        first = build_space(tag_corpus(SHORT_INPUT, doc_id="short"))
        second = build_space(tag_corpus(SHORT_INPUT, doc_id="short"))
        corpus_text = corpus.serialize_pretagged(tag_corpus(SHORT_INPUT, doc_id="short"))
        assert serialize_space(first, corpus_text) == serialize_space(second, corpus_text)

    def test_stats_shape(self, short_space):
        lines = space_stats(short_space)
        assert len(lines) == 4
        assert lines[0].startswith("subject dimension:")
