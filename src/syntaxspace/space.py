"""The resource space: four abstraction dimensions over one corpus.

Each dimension merges identical language representations into class nodes,
connects them with subclass edges (modifier rule plus harvested pattern
edges), breaks any cycles, transitively reduces the edge relation, and
attaches sentence postings.  After building, the space is immutable and
serves descendant-closed searches.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from . import subsume
from .corpus import TaggedSentence
from .subsume import (EdgeSet, MODIFIER, SUBCLASS, SYNTACTIC, SynonymTable,
                      _inner_np, _modifier_below, at_or_below,
                      compare_elements, reach, scan_syntactic_patterns)
from .syntax import (Adverbial, Clause, NOUN, NoFiniteVerb, PREPOSITIONAL,
                     PRONOUN, Phrase, SentenceSyntax, VERB, canonical_key,
                     display, parse_sentence_parts)

DIMENSIONS = ("subject", "action", "object", "adverbial")

_EVIDENCE_RANK = {SYNTACTIC: 2, MODIFIER: 1}


class CycleDetected(ValueError):
    pass


@dataclass
class ClassNode:
    key: str
    display: str
    element: object  # Element for subject/action/object, Adverbial otherwise


@dataclass
class Dimension:
    name: str
    nodes: dict[str, ClassNode] = field(default_factory=dict)
    edges: set[tuple[str, str]] = field(default_factory=set)
    edge_meta: dict[tuple[str, str], tuple[str, int | None]] = field(default_factory=dict)
    postings: dict[str, set[int]] = field(default_factory=dict)
    dropped_edges: list[tuple[str, str, str]] = field(default_factory=list)
    index: SearchIndex | None = None  # set last by build_dimension

    def descendants(self, keys: set[str]) -> set[str]:
        return set(keys) | reach(self.index.children, keys)


class SearchIndex:
    """What `search` reads of a final dimension: nodes by `_shape` (clauses by
    lead alone), and the nodes whose side reaches each harvested key through
    `edges.up`, so also through edges that cycle breaking dropped."""

    def __init__(self, dim: Dimension, edges: EdgeSet):
        self.edges, self.buckets, self.below, self.children = edges, {}, {}, {}
        for key in sorted(dim.nodes):
            wrapper, head, side = _shape(dim.nodes[key].element)
            head = None if wrapper[-2] == "clause" else head  # clause fallback
            self.buckets.setdefault((wrapper, head), []).append(dim.nodes[key])
            for k in (edges.up(side) if side is not None and edges else ()):
                self.below.setdefault((wrapper, edges.elements[k].head),
                                      {}).setdefault(k, []).append(key)
        for child, parent in dim.edges:
            self.children.setdefault(parent, []).append(child)
        self.covered = frozenset().union(*dim.postings.values())

    def anchors(self, query, syn: SynonymTable | None = None) -> set[str]:
        """Keys of the nodes `at_or_below` the query.  Its bucket's nodes (a
        verb's synonyms' too; the clause fallback: every clause of the lead)
        are judged, and only judged; any other node is below when its side
        reaches the side's key or, for nouns, a key modifier-below it."""
        wrapper, head, side = _shape(query)
        heads = {None} if wrapper[-2] == "clause" else {head}
        if side is not None and side.kind == VERB and syn is not None:
            heads |= syn.synonyms(head)
        nodes = [n for h in heads for n in self.buckets.get((wrapper, h), ())]
        found = {n.key for n in nodes
                 if at_or_below(n.element, query, self.edges, syn)}
        if side is None:
            return found
        reached = self.below.get((wrapper, side.head), {})
        side_key = canonical_key(side)
        keys = [side_key] if side.kind == VERB else [
            k for k in reached if k == side_key
            or _modifier_below(self.edges.elements[k], side)]
        return found | ({key for k in keys for key in reached.get(k, ())}
                        - {n.key for n in nodes})


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


def _shape(element) -> tuple[tuple, str | None, Phrase | None]:
    """(wrapper, head, side): nodes meet by the modifier rule only inside one
    wrapper (adverbial kind, phrase kind and preposition, or clause lead) and
    head (a clause's action head); harvested edges count from the noun or
    verb phrase side, a prepositional phrase's inner noun phrase."""
    if isinstance(element, Adverbial):
        wrapper, head, side = _shape(element.content)
        return ("adverbial", element.kind) + wrapper, head, side
    if isinstance(element, Phrase):
        side = _inner_np(element) if element.kind == PREPOSITIONAL else (
            element if element.kind in (NOUN, VERB) else None)
        return (element.kind, element.preposition()), element.head, side
    return (("clause", element.lead or "-"),  # a clause
            element.action.head if element.action else "-", None)


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
    dim = Dimension(name)

    # 1. canonicalize and merge duplicates
    for sid, element in items:
        key = canonical_key(element)
        if key not in dim.nodes:
            dim.nodes[key] = ClassNode(key, display(element), element)
        dim.postings.setdefault(key, set()).add(sid)

    raw_edges: list[tuple[str, str, str, int | None]] = []

    # 2a. inject harvested edges whose child belongs to this dimension
    # (exactly, or through a more specific node), materializing missing
    # endpoints; repeated so edge chains attach
    kind = {"subject": "np", "object": "np", "action": "vp"}.get(name)
    if kind is not None:
        pending = sorted((e for e in harvested if e.kind == kind),
                         key=lambda e: (e.child, e.parent))
        seen_entries: set[tuple] = set()
        changed = True
        while changed:
            changed = False
            for edge in pending:
                entry = (edge.child, edge.parent, edge.source, edge.evidence)
                if entry in seen_entries:
                    continue
                child_elem = harvested.elements[edge.child]
                attaches = edge.child in dim.nodes or any(
                    at_or_below(node.element, child_elem, harvested)
                    == SUBCLASS for node in dim.nodes.values())
                if not attaches:
                    continue
                for endpoint in (edge.child, edge.parent):
                    if endpoint not in dim.nodes:
                        element = harvested.elements[endpoint]
                        dim.nodes[endpoint] = ClassNode(
                            endpoint, display(element), element)
                        dim.postings.setdefault(endpoint, set())
                raw_edges.append(entry)
                seen_entries.add(entry)
                changed = True

    # 2b. modifier-rule edges inside head buckets, from `_lemmas` postings
    edge_pairs = {(c, p) for c, p, _, _ in raw_edges}
    buckets: dict[tuple, list[str]] = {}
    for key in sorted(dim.nodes):
        buckets.setdefault(_shape(dim.nodes[key].element)[:2], []).append(key)
    for bucket_keys in buckets.values():
        own = [_lemmas(dim.nodes[key].element) for key in bucket_keys]
        postings: dict[str, list[int]] = {}
        for i, lemmas in enumerate(own):
            for lemma in lemmas:
                postings.setdefault(lemma, []).append(i)
        for child_key, lemmas in zip(bucket_keys, own):
            child = dim.nodes[child_key].element
            covered = _lemmas(child, harvested) if harvested else lemmas
            hits = Counter(i for lemma in covered
                           for i in postings.get(lemma, ()))
            for i in sorted(hits):
                parent_key = bucket_keys[i]
                if hits[i] < len(own[i]) or parent_key == child_key:
                    continue
                rel = at_or_below(child, dim.nodes[parent_key].element,
                                  harvested)
                if rel == SUBCLASS and (child_key, parent_key) not in edge_pairs:
                    raw_edges.append((child_key, parent_key, MODIFIER, None))
                    edge_pairs.add((child_key, parent_key))

    # 3. break cycles: drop lowest-evidence, then latest-discovered
    kept = _break_cycles(raw_edges, dim.dropped_edges)

    # 4. transitive reduction
    pairs = {(c, p) for c, p, _, _ in kept}
    reduced = transitive_reduce(pairs)
    dim.edges = reduced
    dim.edge_meta = {(c, p): (src, ev) for c, p, src, ev in kept
                     if (c, p) in reduced}
    dim.index = SearchIndex(dim, harvested)
    return dim


def _lemmas(element, harvested: EdgeSet | None = None) -> set[str]:
    """Head and modifiers of every phrase in `element` (of a pronoun, equal
    by its head, the head alone) and every clause lead; with `harvested`,
    also those of each element a phrase's noun or verb side reaches in it.
    Build compares without synonyms, so `at_or_below(c, p, harvested)` is
    SUBCLASS only if `_lemmas(p) <= _lemmas(c, harvested)`: the modifier
    rule needs equal heads and more modifiers, a harvested step reaches the
    parent's key or one modifier-below it, and the rest are product orders."""
    if isinstance(element, Adverbial):
        return _lemmas(element.content, harvested)
    if isinstance(element, Clause):
        return {element.lead or "-"}.union(*(_lemmas(x, harvested) for x in (
            element.subject, element.action, element.object,
            *element.adverbials) if x))
    out = {element.head, *(element.modifiers()
                           if element.kind != PRONOUN else ())}
    side = _shape(element)[2]
    for k in (harvested.up(side) if harvested and side else ()):
        out |= _lemmas(harvested.elements[k])
    return out


def _break_cycles(raw_edges, dropped_log) -> list:
    edges = list(raw_edges)
    while True:
        cycle = _find_cycle({(c, p) for c, p, _, _ in edges})
        if cycle is None:
            return edges
        # candidates on the cycle, weakest evidence first, then latest
        candidates = [
            (i, entry) for i, entry in enumerate(edges)
            if (entry[0], entry[1]) in cycle
        ]
        candidates.sort(key=lambda item: (_EVIDENCE_RANK[item[1][2]], -item[0]))
        idx, entry = candidates[0]
        edges.pop(idx)
        dropped_log.append((entry[0], entry[1], entry[2]))


def _find_cycle(pairs: set[tuple[str, str]]):
    """Return the edge set of one cycle, or None.

    Depth-first in sorted order; the order decides which cycle is found
    first, and so which edge `_break_cycles` drops.
    """
    graph: dict[str, list[str]] = {}
    for child, parent in sorted(pairs):
        graph.setdefault(child, []).append(parent)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in
             set(graph) | {p for ps in graph.values() for p in ps}}
    for root in sorted(color):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]
        pending = [iter(graph.get(root, ()))]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GREY:
                    cycle_nodes = path[path.index(nxt):] + [nxt]
                    return set(zip(cycle_nodes, cycle_nodes[1:]))
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(graph.get(nxt, ())))
                    break
            else:
                pending.pop()
                color[path.pop()] = BLACK
    return None


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


def search(space: ResourceSpace, dimension: str, query,
           syn: SynonymTable | None = None) -> set[int]:
    """Sentences reachable from the query downwards.

    Every node at or below the query, named by the dimension's `SearchIndex`,
    anchors the search.  Postings of the anchors and all their descendants
    are unioned into a new set.  `query=None` addresses the dimension root:
    every sentence carrying the element.
    """
    dim = space.dimensions[dimension]
    if query is None:
        return set(dim.index.covered)
    keys = dim.descendants(dim.index.anchors(query, syn))
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
    empty: bool

    def lines(self) -> list[str]:
        if self.empty:
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
                              {n: None for n in DIMENSIONS}, 0, None, 0, None,
                              empty=True)
    per_dim = {name: space.dimensions[name].index.covered & ids
               for name in DIMENSIONS}
    union = set().union(*per_dim.values()) if per_dim else set()
    intersection = per_dim["subject"] & per_dim["action"] & per_dim["object"]
    return CoverageReport(
        total=total,
        covered={n: len(per_dim[n]) for n in DIMENSIONS},
        ratios={n: len(per_dim[n]) / total for n in DIMENSIONS},
        union_covered=len(union),
        union_ratio=len(union) / total,
        intersection_covered=len(intersection),
        intersection_ratio=len(intersection) / total,
        empty=False,
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
    duplicate_keys: list[str]
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
    """1NF: no duplicate coordinates; 2NF: sibling coordinates of one
    dimension are disjoint (one subject/action/object per sentence part);
    3NF: every sentence is covered by each checked dimension.  The subspace
    restricted to commonly-covered sentences always attains 3NF."""
    duplicates: list[str] = []
    for name in DIMENSIONS:
        seen: set[str] = set()
        for key in space.dimensions[name].nodes:
            if key in seen:
                duplicates.append(key)
            seen.add(key)
    first = not duplicates

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
    per_dim = {name: space.dimensions[name].index.covered & ids
               for name in _NF_DIMENSIONS}
    full = {name: per_dim[name] == ids and bool(ids) for name in _NF_DIMENSIONS}
    subspace = per_dim["subject"] & per_dim["action"] & per_dim["object"]
    third = second and all(full.values())
    return NFReport(first, second, third, duplicates, double_posted, full,
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
            lines.append(f"{key}\t{dim.nodes[key].display}")
        lines.append("[EDGES]")
        for child, parent in sorted(dim.edges):
            source, evidence = dim.edge_meta[(child, parent)]
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
