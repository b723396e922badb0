"""The resource space: four abstraction dimensions over one corpus.

Each dimension merges identical language representations into class nodes,
connects them with subclass edges (modifier rule plus harvested pattern
edges), breaks any cycles, transitively reduces the edge relation, and
attaches sentence postings.  After building, the space is immutable, and a
search unions the postings of the nodes its index puts at or below a query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import subsume
from .corpus import TaggedSentence, gc_paused
from .subsume import (EdgeSet, MODIFIER, SYNTACTIC, SynonymTable,
                      _contains, _inner_np, _modifier_below, at_or_below,
                      reach, scan_syntactic_patterns)
from .subsume import compare_elements  # noqa: F401 (callers rebind it)
from .syntax import (Adverbial, Clause, NOUN, NoFiniteVerb, PREPOSITIONAL,
                     PRONOUN, Phrase, SentenceSyntax, VERB, canonical_key,
                     display, parse_sentence_parts)

DIMENSIONS = ("subject", "action", "object", "adverbial")

_EVIDENCE_RANK = {SYNTACTIC: 2, MODIFIER: 1}


class CycleDetected(ValueError):
    pass


@dataclass
class Dimension:
    # canonical key -> element: an Element for subject/action/object, an
    # Adverbial otherwise
    nodes: dict[str, object] = field(default_factory=dict)
    # (child, parent) -> (source, evidence) of each subclass edge kept
    edges: dict[tuple[str, str], tuple[str, int | None]] = field(
        default_factory=dict)
    postings: dict[str, set[int]] = field(default_factory=dict)
    dropped_edges: list[tuple[str, str, str]] = field(default_factory=list)
    index: SearchIndex | None = None  # grows with the nodes
    covered: frozenset[int] = frozenset()  # sentences posted at any node


class SearchIndex:
    """The one answer to "which nodes are at or below X?" for a dimension:
    `build_dimension` adds each node as it is made, its attach and modifier
    steps read `anchors`, and so does `search`.  Phrases are posted in
    their bucket (`_shape`'s wrapper and head) under their modifiers,
    clauses in their lead's bucket under `_lemmas(element, edges)`, and
    every node under each harvested key its side reaches (`edges.up`, so
    also through edges cycle breaking drops)."""

    def __init__(self, edges: EdgeSet):
        self.edges, self.buckets, self.below = edges, {}, {}

    def add(self, key: str, element, shape: tuple) -> None:
        """Post `element`, whose canonical key is `key` and whose `_shape`
        is `shape`."""
        wrapper, head, side, mods = shape
        if wrapper[-2] == "clause":
            head, mods = None, _lemmas(element, self.edges)
        bucket = self.buckets.setdefault((wrapper, head), {})
        for lemma in (None, *mods):  # None: every member
            bucket.setdefault(lemma, {})[key] = element
        side_key = key if side is element else None
        for k in (self.edges.up(side, side_key)
                  if side and self.edges else ()):
            self.below.setdefault((wrapper, self.edges.elements[k].head),
                                  {}).setdefault(k, []).append(key)

    def anchors(self, query, syn: SynonymTable | None = None) -> set[str]:
        """Keys of the nodes `at_or_below` the query.  A phrase takes its
        bucket's members (a verb's synonym heads' too) posted under all its
        modifiers, counted if one repeats, and the nodes whose side reaches
        the side's key or, for nouns, one modifier-below it; it judges
        none.  A clause judges the clauses of its lead posted under all of
        `_lemmas(query, syn=syn)`, which holds every clause below it."""
        wrapper, head, side, mods = _shape(query)
        if wrapper[-2] == "clause":
            clauses = self.buckets.get((wrapper, None), {})
            return {k for k in _common(clauses, _lemmas(query, syn=syn))
                    if at_or_below(clauses[None][k], query,
                                   self.edges, syn)}
        verb = side is not None and side.kind == VERB
        heads = {head} | (syn.synonyms(head) if verb and syn else set())
        buckets = [self.buckets.get((wrapper, h), {}) for h in heads]
        repeated = len(set(mods)) < len(mods)
        found = {k for bucket in buckets for k in _common(bucket, mods)
                 if not repeated
                 or _contains(_shape(bucket[None][k])[3], mods)}
        reached = self.below.get((wrapper, side.head)) if side else None
        if not reached:
            return found
        side_key = canonical_key(side)
        keys = [side_key] if verb else [
            k for k in reached if k == side_key
            or _modifier_below(self.edges.elements[k], side)]
        below = {key for k in keys for key in reached.get(k, ())}
        if verb:  # of the same or a synonym head, modifiers alone decide
            below -= {k for bucket in buckets for k in bucket.get(None, ())}
        return found | below


def _common(bucket: dict, lemmas) -> set[str]:
    """Keys the bucket posts under every lemma, shortest posting first."""
    shortest, *rest = sorted((bucket.get(m, {}) for m in {None, *lemmas}),
                             key=len)
    keys = set(shortest)
    for posting in rest:
        keys &= posting.keys()
    return keys


@dataclass
class SentenceRecord:
    sentence_id: int
    doc_id: str
    text: str
    voice: str
    lemmas: list[str] = field(default_factory=list)


@dataclass
class ResourceSpace:
    dimensions: dict[str, Dimension]
    sentences: dict[int, list[SentenceSyntax]]  # id -> parsed parts
    records: dict[int, SentenceRecord]
    uncovered: list[int]  # sentence ids with no action (unparseable)
    edge_set: EdgeSet
    synonyms: SynonymTable

    def sentence_ids(self) -> list[int]:
        return sorted(self.records)


# ---------------------------------------------------------------------------
# Element extraction and comparison per dimension
# ---------------------------------------------------------------------------


def _shape(element) -> tuple[tuple, str | None, Phrase | None, tuple]:
    """(wrapper, head, side, modifiers): the modifier rule compares modifiers
    (none for clauses and pronouns) inside one wrapper (adverbial kind, phrase
    kind and preposition, or clause lead) and head (a clause's action head);
    harvested edges count from the noun or verb (a PP's inner noun) side."""
    if isinstance(element, Adverbial):
        wrapper, *rest = _shape(element.content)
        return ("adverbial", element.kind) + wrapper, *rest
    if isinstance(element, Phrase):
        side = _inner_np(element) if element.kind == PREPOSITIONAL else (
            element if element.kind in (NOUN, VERB) else None)
        return ((element.kind, element.preposition()), element.head, side,
                element.modifiers() if element.kind != PRONOUN else ())
    return (("clause", element.lead or "-"),  # a clause
            element.action.head if element.action else "-", None, ())


def sentence_elements(part: SentenceSyntax) -> dict[str, list]:
    """The four dimension elements carried by one parsed sentence part."""
    out: dict[str, list] = {name: [] for name in DIMENSIONS}
    if part.subject is not None:
        out["subject"].append(part.subject)
    if part.action is not None:
        out["action"].append(part.action)
    if part.object is not None:
        out["object"].append(part.object.direct)
    out["adverbial"].extend(part.adverbials)
    return out


# ---------------------------------------------------------------------------
# Dimension construction
# ---------------------------------------------------------------------------


def build_dimension(name: str, items: list[tuple[int, object]],
                    harvested: EdgeSet | None = None) -> Dimension:
    """Merge, connect, break cycles, reduce, attach postings."""
    harvested = harvested if harvested is not None else EdgeSet()
    dim = Dimension(index=SearchIndex(harvested))
    shapes: dict[str, tuple] = {}

    def add(key, element):
        dim.nodes[key] = element
        dim.postings[key] = set()
        shapes[key] = shape = _shape(element)
        dim.index.add(key, element, shape)

    # 1. canonicalize and merge duplicates
    for sid, element in items:
        key = canonical_key(element)
        if key not in dim.nodes:
            add(key, element)
        dim.postings[key].add(sid)

    raw_edges: list[tuple[str, str, str, int | None]] = []

    # 2a. inject harvested edges whose child is a node or has one below it,
    # materializing missing endpoints; passes repeat so edge chains attach
    kind = {"subject": "np", "object": "np", "action": "vp"}.get(name)
    pending = dict.fromkeys(sorted((e for e in harvested if e.kind == kind),
                                   key=lambda e: (e.child, e.parent)))
    size = None
    while size != len(pending):  # one pass, until one attaches nothing
        size = len(pending)
        for edge in list(pending):
            if edge.child not in dim.nodes and not dim.index.anchors(
                    harvested.elements[edge.child]):
                continue
            for endpoint in (edge.child, edge.parent):
                if endpoint not in dim.nodes:
                    add(endpoint, harvested.elements[endpoint])
            raw_edges.append((edge.child, edge.parent, edge.source,
                              edge.evidence))
            del pending[edge]

    # 2b. modifier-rule edges inside head buckets: the other members among
    # a member's anchors are below it, but for pronouns, equal by their head
    harvested_pairs = {(c, p) for c, p, _, _ in raw_edges}
    buckets: dict[tuple, list[str]] = {}
    for key in sorted(dim.nodes):
        buckets.setdefault(shapes[key][:2], []).append(key)
    for (wrapper, _), keys in buckets.items():
        if len(keys) < 2 or wrapper[-2] == PRONOUN:
            continue
        bucket = set(keys)
        below = sorted((c, p) for p in keys for c in bucket
                       & dim.index.anchors(dim.nodes[p])
                       if c != p and (c, p) not in harvested_pairs)
        raw_edges.extend((c, p, MODIFIER, None) for c, p in below)

    # 3. break cycles: drop lowest-evidence, then latest-discovered
    kept = _break_cycles(raw_edges, dim.dropped_edges)

    # 4. transitive reduction
    reduced = transitive_reduce({(c, p) for c, p, _, _ in kept})
    dim.edges = {(c, p): (src, ev) for c, p, src, ev in kept
                 if (c, p) in reduced}
    dim.covered = frozenset().union(*dim.postings.values())
    return dim


def _lemmas(element, harvested: EdgeSet | None = None,
            syn: SynonymTable | None = None) -> set[str]:
    """Head and modifiers of every phrase in `element` (of a pronoun, equal
    by its head, the head alone) and every clause lead; with `harvested`,
    also those of each element a phrase's noun or verb side reaches in it;
    with `syn`, no verb head that has synonyms.  So `at_or_below(c, p,
    harvested, syn)` is not None only if `_lemmas(p, syn=syn) <= _lemmas(c,
    harvested)`: the modifier rule needs equal heads (or synonym verbs)
    and more modifiers, a harvested step reaches the parent's key or one
    modifier-below it, and the rest are product orders."""
    if isinstance(element, Adverbial):
        return _lemmas(element.content, harvested, syn)
    if isinstance(element, Clause):
        parts = (element.subject, element.action, element.object,
                 *element.adverbials)
        return {element.lead or "-"}.union(
            *(_lemmas(x, harvested, syn) for x in parts if x))
    _, head, side, mods = _shape(element)
    synonyms = syn and element.kind == VERB and syn.synonyms(head)
    out = {*mods} if synonyms else {head, *mods}
    for k in (harvested.up(side) if harvested and side else ()):
        out |= _lemmas(harvested.elements[k])
    return out


def _break_cycles(raw_edges, dropped_log) -> list:
    """Drop edges until the rest is acyclic: on each cycle found, the one of
    lowest evidence, then latest.  One depth-first search in sorted order
    resumes after each drop where a search without the edge would be: that
    search repeats this one up to its first traversal of the edge, which is
    the back edge or a tree edge on the current path (Tarjan 1972)."""
    position = {(c, p): i for i, (c, p, _, _) in enumerate(raw_edges)}
    assert len(position) == len(raw_edges), "one entry per pair"
    by_child: dict[str, list[tuple[str, str]]] = {}
    for pair in sorted(position):
        by_child.setdefault(pair[0], []).append(pair)
    dropped: set[tuple[str, str]] = set()
    # stack: a virtual root above every node, then the path of grey nodes,
    # each with its iterator over its edges not dropped; found: the nodes
    # discovered, in order, with their place on the stack while grey
    nodes = sorted({n for pair in position for n in pair})
    stack = [(None, ((None, n) for n in nodes))]
    found: dict[str | None, int | None] = {None: 0}

    while stack:
        for _, nxt in stack[-1][1]:
            if found.get(nxt) is not None:  # grey: a cycle back to nxt
                cycle = [n for n, _ in stack[found[nxt]:]] + [nxt]
                pair = min(zip(cycle, cycle[1:]), key=lambda e: (
                    _EVIDENCE_RANK[raw_edges[position[e]][2]], -position[e]))
                dropped.add(pair)
                dropped_log.append((*pair, raw_edges[position[pair]][2]))
                if pair[1] != nxt:  # tree edge a -> b: forget all since b
                    while found.popitem()[0] != pair[1]:
                        pass
                    del stack[found[pair[0]] + 1:]
                break  # go on with the iterator now on top
            if nxt not in found:
                found[nxt] = len(stack)
                stack.append((nxt, (e for e in by_child.get(nxt, ())
                                    if e not in dropped)))
                break
        else:
            found[stack.pop()[0]] = None
    return [e for e in raw_edges if (e[0], e[1]) not in dropped]


def transitive_reduce(pairs: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Unique minimal relation with the same transitive closure (DAG only).

    An edge goes when another parent of its child already reaches its
    parent; a child that reaches itself is on a cycle.
    """
    parents: dict[str, set[str]] = {}
    for child, parent in pairs:
        parents.setdefault(child, set()).add(parent)
    reduced = set()
    for child, direct in parents.items():
        above = reach(parents, direct)
        if child in above:
            raise CycleDetected("edge set contains a cycle")
        reduced.update((child, p) for p in direct if p not in above)
    return reduced


# ---------------------------------------------------------------------------
# Space construction
# ---------------------------------------------------------------------------


@gc_paused
def build_space(tagged: list[TaggedSentence],
                synonyms: SynonymTable | None = None) -> ResourceSpace:
    """Parse every sentence, harvest pattern edges, and build all four
    dimensions.  Unparseable sentences are recorded, never fatal.

    Passive voice is normalized here, immediately before parsing; sentence
    records keep the raw surface and lemma order so that the ranking
    baselines compare against the text as written.
    """
    from .corpus import normalize_voice

    synonyms = synonyms or SynonymTable()
    parsed: dict[int, list[SentenceSyntax]] = {}
    records: dict[int, SentenceRecord] = {}
    uncovered: list[int] = []
    harvest_triples = []
    for raw_sentence in tagged:
        sentence = normalize_voice(raw_sentence)
        records[sentence.sentence_id] = SentenceRecord(
            sentence.sentence_id, sentence.doc_id,
            raw_sentence.surface_text(), sentence.voice,
            raw_sentence.lemmas())
        try:
            parts = parse_sentence_parts(sentence)
        except NoFiniteVerb:
            uncovered.append(sentence.sentence_id)
            continue
        parsed[sentence.sentence_id] = parts
        for part in parts:
            harvest_triples.extend(scan_syntactic_patterns(sentence, part))
    edge_set = subsume.harvest_edges(harvest_triples)

    items: dict[str, list[tuple[int, object]]] = {n: [] for n in DIMENSIONS}
    for sid in sorted(parsed):
        for part in parsed[sid]:
            for name, elements in sentence_elements(part).items():
                items[name].extend((sid, e) for e in elements)

    dimensions = {name: build_dimension(name, items[name], edge_set)
                  for name in DIMENSIONS}
    return ResourceSpace(dimensions, parsed, records, uncovered, edge_set,
                         synonyms)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def search(space: ResourceSpace, dimension: str, query) -> set[int]:
    """Sentences posted at the nodes the dimension's `SearchIndex` puts at or
    below the query, with the space's synonyms, in a new set; `query=None`
    addresses the dimension root: every sentence carrying the element."""
    dim = space.dimensions[dimension]
    if query is None:
        return set(dim.covered)
    keys = dim.index.anchors(query, space.synonyms)
    return set().union(*(dim.postings[key] for key in keys))


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


@dataclass
class CoverageReport:
    total: int
    covered: dict[str, int]
    ratios: dict[str, float | None]
    union_covered: int
    union_ratio: float | None
    intersection_covered: int  # subject & action & object
    intersection_ratio: float | None

    def lines(self) -> list[str]:
        if self.total == 0:
            return ["coverage: undefined (empty corpus)"]
        out = []
        for name in DIMENSIONS:
            out.append(f"{name:<10} {self.covered[name]}/{self.total}"
                       f" = {self.ratios[name]:.2%}")
        out.append(f"{'union':<10} {self.union_covered}/{self.total}"
                   f" = {self.union_ratio:.2%}")
        out.append(f"{'s&a&o':<10} {self.intersection_covered}/{self.total}"
                   f" = {self.intersection_ratio:.2%}")
        return out


def coverage(space: ResourceSpace) -> CoverageReport:
    ids = set(space.records)
    total = len(ids)
    if total == 0:
        return CoverageReport(0, {n: 0 for n in DIMENSIONS},
                              {n: None for n in DIMENSIONS}, 0, None, 0, None)
    per_dim = {name: space.dimensions[name].covered & ids
               for name in DIMENSIONS}
    union = set().union(*per_dim.values())
    intersection = per_dim["subject"] & per_dim["action"] & per_dim["object"]
    return CoverageReport(
        total=total,
        covered={n: len(per_dim[n]) for n in DIMENSIONS},
        ratios={n: len(per_dim[n]) / total for n in DIMENSIONS},
        union_covered=len(union),
        union_ratio=len(union) / total,
        intersection_covered=len(intersection),
        intersection_ratio=len(intersection) / total,
    )


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

_NF_DIMENSIONS = ("subject", "action", "object")


@dataclass
class NFReport:
    first_nf: bool
    second_nf: bool
    third_nf: bool
    miskeyed: list[str]  # keys that are not their node's canonical key
    double_posted: list[tuple[str, int]]
    full_coverage: dict[str, bool]
    subspace_sentences: int  # sentences covered by subject & action & object

    def lines(self) -> list[str]:
        out = [f"1NF: {self.first_nf}",
               f"2NF (subject/action/object): {self.second_nf}",
               f"3NF (subject/action/object, all sentences): {self.third_nf}"]
        for name in _NF_DIMENSIONS:
            out.append(f"  full coverage {name}: {self.full_coverage[name]}")
        out.append(f"  3NF subspace size: {self.subspace_sentences} sentences")
        return out


def check_normal_forms(space: ResourceSpace) -> NFReport:
    """1NF: every node is stored under its canonical key, so no coordinate
    appears twice; 2NF: sibling coordinates of one dimension are disjoint
    (one subject/action/object per sentence part); 3NF: every sentence is
    covered by each checked dimension.  The subspace restricted to
    commonly-covered sentences always attains 3NF."""
    miskeyed = [key for name in DIMENSIONS
                for key, element in space.dimensions[name].nodes.items()
                if key != canonical_key(element)]
    first = not miskeyed

    double_posted: list[tuple[str, int]] = []
    for name in _NF_DIMENSIONS:
        posted: dict[int, int] = {}
        for key in sorted(space.dimensions[name].postings):
            for sid in space.dimensions[name].postings[key]:
                posted[sid] = posted.get(sid, 0) + 1
        double_posted.extend((name, sid) for sid, count in sorted(posted.items())
                             if count > 1)
    second = first and not double_posted

    ids = set(space.records)
    per_dim = {name: space.dimensions[name].covered & ids
               for name in _NF_DIMENSIONS}
    full = {name: per_dim[name] == ids and bool(ids) for name in _NF_DIMENSIONS}
    subspace = per_dim["subject"] & per_dim["action"] & per_dim["object"]
    third = second and all(full.values())
    return NFReport(first, second, third, miskeyed, double_posted, full,
                    len(subspace))


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def space_stats(space: ResourceSpace) -> list[str]:
    out = []
    for name in DIMENSIONS:
        dim = space.dimensions[name]
        out.append(f"{name} dimension: {len(dim.nodes)} nodes, "
                   f"{len(dim.edges)} subclass relations")
    return out


def serialize_space(space: ResourceSpace, corpus_text: str) -> str:
    """Deterministic diffable snapshot.  The tagged corpus section is
    embedded so a snapshot is self-contained for queries."""
    lines = ["#space v1", "[CORPUS]"]
    lines.extend(corpus_text.rstrip("\n").splitlines())
    lines.append("")
    for name in DIMENSIONS:
        dim = space.dimensions[name]
        lines.append(f"[DIMENSION {name}]")
        lines.append("[NODES]")
        for key in sorted(dim.nodes):
            lines.append(f"{key}\t{display(dim.nodes[key])}")
        lines.append("[EDGES]")
        for (child, parent), (source, evidence) in sorted(dim.edges.items()):
            lines.append(f"{child}\t{parent}\t{source}\t"
                         f"{'' if evidence is None else evidence}")
        lines.append("[POSTINGS]")
        for key in sorted(dim.postings):
            ids = ",".join(str(s) for s in sorted(dim.postings[key]))
            lines.append(f"{key}\t{ids}")
        lines.append("[DROPPED]")
        for child, parent, source in dim.dropped_edges:
            lines.append(f"{child}\t{parent}\t{source}")
    lines.append("[UNCOVERED]")
    lines.append(",".join(str(s) for s in sorted(space.uncovered)))
    lines.append("")
    return "\n".join(lines)


_SNAPSHOT_HEAD = "#space v1\n[CORPUS]\n"
_SNAPSHOT_TAIL = re.compile(r"\[UNCOVERED\]\n(?:[0-9]+(?:,[0-9]+)*)?\n")


def corpus_section(snapshot_text: str) -> str:
    """Extract the embedded tagged corpus from a space snapshot.

    Raises ValueError unless the text starts and ends exactly as
    `serialize_space` writes it, so a cut-off file is never read as a
    smaller corpus.
    """
    tail = snapshot_text.rfind("\n[UNCOVERED]\n") + 1
    if not (snapshot_text.startswith(_SNAPSHOT_HEAD) and tail
            and _SNAPSHOT_TAIL.fullmatch(snapshot_text, tail)):
        raise ValueError("not a complete #space v1 snapshot")
    out = []
    for line in snapshot_text.splitlines()[2:]:
        # the first section header, never a corpus line (three columns)
        if line == f"[DIMENSION {DIMENSIONS[0]}]":
            break
        out.append(line)
    return "\n".join(out)
