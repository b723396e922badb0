"""The resource space: four abstraction dimensions over one corpus.

Each dimension merges identical language representations into class nodes,
connects them with subclass edges (modifier rule plus harvested pattern
edges), breaks any cycles, transitively reduces the edge relation, and
attaches sentence postings.  After building, the space is immutable, and a
search unions the postings of the nodes its index puts at or below a query.
The index, like every subclass rule, lives in `subsume`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import subsume
from .corpus import TaggedSentence, gc_paused
from .subsume import (EdgeSet, MODIFIER, SYNTACTIC, SearchIndex,
                      SynonymTable, reach, scan_syntactic_patterns)
from .subsume import compare_elements  # noqa: F401 (callers rebind it)
from .syntax import (NoFiniteVerb, SentenceSyntax, VERB, canonical_key,
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


@dataclass(slots=True)
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
    uncovered: list[int]  # sentence ids not parsed: no action, or too deep
    edge_set: EdgeSet
    synonyms: SynonymTable

    def sentence_ids(self) -> list[int]:
        return sorted(self.records)


# ---------------------------------------------------------------------------
# Element extraction per dimension
# ---------------------------------------------------------------------------


def sentence_elements(part: SentenceSyntax) -> dict[str, list]:
    """The four dimension elements carried by one parsed sentence part."""
    return {"subject": [] if part.subject is None else [part.subject],
            "action": [] if part.action is None else [part.action],
            "object": [] if part.object is None else [part.object.direct],
            "adverbial": list(part.adverbials)}


# ---------------------------------------------------------------------------
# Dimension construction
# ---------------------------------------------------------------------------


def build_dimension(name: str, items: list[tuple[int, object]],
                    harvested: EdgeSet | None = None) -> Dimension:
    """Merge, connect, break cycles, reduce, attach postings."""
    harvested = harvested if harvested is not None else EdgeSet()
    dim = Dimension()
    dim.index = SearchIndex(harvested, dim.nodes)

    def add(key, element):
        dim.nodes[key] = element
        dim.postings[key] = set()
        dim.index.add(key, element)

    # 1. canonicalize and merge duplicates
    for sid, element in items:
        key = canonical_key(element)
        if key not in dim.nodes:
            add(key, element)
        dim.postings[key].add(sid)

    raw_edges: list[tuple[str, str, str, int | None]] = []

    # 2a. inject harvested edges whose child is a node or has one below it,
    # materializing missing endpoints; passes repeat so edge chains attach.
    # verb children's pairs go to action, the others' to subject and object
    pending = {(c, p): ev for (c, p), ev in sorted(harvested.edges.items())
               if name != "adverbial"
               and (harvested.elements[c].kind == VERB) == (name == "action")}
    size = None
    while size != len(pending):  # one pass, until one attaches nothing
        size = len(pending)
        for (child, parent), ev in list(pending.items()):
            if child not in dim.nodes and not dim.index.anchors(
                    harvested.elements[child]):
                continue
            for endpoint in (child, parent):
                if endpoint not in dim.nodes:
                    add(endpoint, harvested.elements[endpoint])
            raw_edges.append((child, parent, SYNTACTIC, ev))
            del pending[child, parent]

    # 2b. modifier-rule edges from the index, but for the pairs harvested
    harvested_pairs = {(c, p) for c, p, _, _ in raw_edges}
    raw_edges.extend((c, p, MODIFIER, None)
                     for c, p in dim.index.modifier_pairs()
                     if (c, p) not in harvested_pairs)

    # 3. break cycles: drop lowest-evidence, then latest-discovered
    kept = _break_cycles(raw_edges, dim.dropped_edges)

    # 4. transitive reduction
    reduced = transitive_reduce({(c, p) for c, p, _, _ in kept})
    dim.edges = {(c, p): (src, ev) for c, p, src, ev in kept
                 if (c, p) in reduced}
    dim.covered = frozenset().union(*dim.postings.values())
    return dim


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
        except (NoFiniteVerb, RecursionError):  # no action, or too deep
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
                for element in elements:
                    items[name].append((sid, element))

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
    found = set()
    for key in dim.index.anchors(query, space.synonyms):
        found |= dim.postings[key]
    return found


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


@dataclass
class CoverageReport:
    total: int
    covered: dict[str, int]
    union_covered: int
    intersection_covered: int  # subject & action & object

    def lines(self) -> list[str]:
        if self.total == 0:
            return ["coverage: undefined (empty corpus)"]
        rows = [*((name, self.covered[name]) for name in DIMENSIONS),
                ("union", self.union_covered),
                ("s&a&o", self.intersection_covered)]
        return [f"{name:<10} {count}/{self.total} = {count / self.total:.2%}"
                for name, count in rows]


def coverage(space: ResourceSpace) -> CoverageReport:
    ids = set(space.records)
    per_dim = {name: space.dimensions[name].covered & ids
               for name in DIMENSIONS}
    return CoverageReport(
        len(ids), {name: len(per_dim[name]) for name in DIMENSIONS},
        len(set().union(*per_dim.values())),
        len(per_dim["subject"] & per_dim["action"] & per_dim["object"]))


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

_NF_DIMENSIONS = ("subject", "action", "object")


@dataclass
class NFReport:
    miskeyed: list[str]  # keys that are not their node's canonical key
    double_posted: list[tuple[str, int]]
    coverage: CoverageReport

    @property
    def first_nf(self) -> bool:
        return not self.miskeyed

    @property
    def second_nf(self) -> bool:
        return self.first_nf and not self.double_posted

    @property
    def third_nf(self) -> bool:
        return self.second_nf and all(self.full_coverage.values())

    @property
    def full_coverage(self) -> dict[str, bool]:
        total = self.coverage.total
        return {name: 0 < self.coverage.covered[name] == total
                for name in _NF_DIMENSIONS}

    @property
    def subspace_sentences(self) -> int:  # covered by subject & action & object
        return self.coverage.intersection_covered

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
    double_posted: list[tuple[str, int]] = []
    for name in _NF_DIMENSIONS:
        posted: dict[int, int] = {}
        for key in sorted(space.dimensions[name].postings):
            for sid in space.dimensions[name].postings[key]:
                posted[sid] = posted.get(sid, 0) + 1
        double_posted.extend((name, sid) for sid, count in sorted(posted.items())
                             if count > 1)
    return NFReport(miskeyed, double_posted, coverage(space))


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
            ids = ",".join(map(str, sorted(dim.postings[key])))
            lines.append(f"{key}\t{ids}")
        lines.append("[DROPPED]")
        for child, parent, source in dim.dropped_edges:
            lines.append(f"{child}\t{parent}\t{source}")
    lines.append("[UNCOVERED]")
    lines.append(",".join(map(str, sorted(space.uncovered))))
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
    header = f"[DIMENSION {DIMENSIONS[0]}]"  # never a corpus line (3 columns)
    # the corpus ends at the first match that is a line of its own by the
    # breaks of `str.splitlines`: with the characters around it (the text
    # ends in the tail, so one follows), it splits into "" and the header
    start = end = len(_SNAPSHOT_HEAD)
    while (end := snapshot_text.find(header, end)) >= 0:
        window = snapshot_text[end - 1:end + len(header) + 1]
        if window.splitlines()[:2] == ["", header]:
            break
        end += 1
    else:
        end = len(snapshot_text)  # no header: the corpus runs to the end
    return "\n".join(snapshot_text[start:end].splitlines())
