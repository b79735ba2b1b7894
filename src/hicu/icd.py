"""ICD-9 style code parsing, range tables and label tree construction.

Codes are organized in a five-level tree: two levels of code ranges, then
the integer code, the one-decimal code and the two-decimal code.  Codes
whose natural path is shorter are padded by repeating the code downward so
that every leaf sits at level ``K_MAX``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

K_MAX = 5
ROOT_LABEL = "<root>"

DIAGNOSIS = "diagnosis"
PROCEDURE = "procedure"


class CodeError(ValueError):
    """Malformed code, malformed range table or hierarchy coverage problem."""


_DIAG_RE = re.compile(r"^(V\d{2}|E\d{3}|\d{3})(?:\.(\d{1,2}))?$")
_PROC_RE = re.compile(r"^(\d{2})(?:\.(\d{1,2}))?$")


@dataclass(frozen=True)
class IcdCode:
    raw: str
    kind: str  # DIAGNOSIS or PROCEDURE
    integer_part: str
    decimals: str  # 0-2 digits, empty for integer codes


def parse_code(raw: str, kind: str) -> IcdCode:
    """Parse a raw code string of the given kind.

    Diagnosis integer parts are three digits, optionally prefixed 'V' (two
    digits) or 'E' (three digits); procedure integer parts are two digits.
    """
    if kind not in (DIAGNOSIS, PROCEDURE):
        raise CodeError(f"unknown code kind {kind!r}")
    pattern = _DIAG_RE if kind == DIAGNOSIS else _PROC_RE
    m = pattern.match(raw)
    if m is None:
        raise CodeError(f"malformed {kind} code {raw!r}")
    return IcdCode(raw=raw, kind=kind, integer_part=m.group(1), decimals=m.group(2) or "")


def infer_kind(raw: str) -> str:
    """Guess diagnosis vs procedure from the code shape (2-digit integer part)."""
    if _PROC_RE.match(raw):
        return PROCEDURE
    return DIAGNOSIS


def parse_code_auto(raw: str) -> IcdCode:
    return parse_code(raw, infer_kind(raw))


def _stratum(part: str) -> tuple[str, int]:
    """Numeric key for range comparisons, stratified by the V/E prefix."""
    if part and part[0] in "VE":
        return part[0], int(part[1:])
    return "", int(part)


@dataclass(frozen=True)
class RangeRow:
    kind: str
    l1_start: str
    l1_end: str
    l2_start: str
    l2_end: str

    @property
    def l1_label(self) -> str:
        return f"{self.l1_start}-{self.l1_end}"

    @property
    def l2_label(self) -> str:
        return f"{self.l2_start}-{self.l2_end}"


def _check_span(start: str, end: str, where: str) -> tuple[str, int, int]:
    ps, vs = _stratum(start)
    pe, ve = _stratum(end)
    if ps != pe:
        raise CodeError(f"{where}: range {start}-{end} mixes code prefixes")
    if vs > ve:
        raise CodeError(f"{where}: range {start}-{end} is reversed")
    return ps, vs, ve


class RangeTable:
    """Level-1/level-2 range rows used to anchor each code's path.

    Rows with ``l2_start == l2_end`` encode the synthetic same-start-end
    ranges used for code families that have no real second-level range.
    """

    def __init__(self, rows: Iterable[RangeRow]):
        self.rows = list(rows)
        self._validate()

    def _validate(self) -> None:
        by_l1: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
        l1_spans: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
        for row in self.rows:
            if row.kind not in (DIAGNOSIS, PROCEDURE):
                raise CodeError(f"range table: unknown kind {row.kind!r}")
            p1, s1, e1 = _check_span(row.l1_start, row.l1_end, "level-1")
            p2, s2, e2 = _check_span(row.l2_start, row.l2_end, "level-2")
            if p1 != p2 or s2 < s1 or e2 > e1:
                raise CodeError(
                    f"range table: level-2 range {row.l2_label} outside "
                    f"level-1 range {row.l1_label}"
                )
            by_l1.setdefault((row.kind, row.l1_label), []).append((p2, s2, e2))
            l1_spans.setdefault((row.kind, p1), []).append((row.l1_label, s1, e1))
        for key, spans in by_l1.items():
            spans = sorted(spans, key=lambda t: t[1])
            for (pa, sa, ea), (pb, sb, eb) in zip(spans, spans[1:]):
                if pa == pb and sb <= ea:
                    raise CodeError(
                        f"range table: overlapping level-2 ranges under {key[1]}"
                    )
        for key, spans in l1_spans.items():
            uniq = sorted(set(spans), key=lambda t: t[1])
            for (la, sa, ea), (lb, sb, eb) in zip(uniq, uniq[1:]):
                if sb <= ea:
                    raise CodeError(
                        f"range table: overlapping level-1 ranges {la} and {lb}"
                    )

    @classmethod
    def from_file(cls, path) -> "RangeTable":
        rows = []
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 5:
                    raise CodeError(f"{path}:{ln}: expected 5 tab-separated fields")
                kind = {"D": DIAGNOSIS, "P": PROCEDURE}.get(fields[0])
                if kind is None:
                    raise CodeError(f"{path}:{ln}: kind must be D or P")
                rows.append(RangeRow(kind, *fields[1:]))
        return cls(rows)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# kind\tl1_start\tl1_end\tl2_start\tl2_end\n")
            for row in self.rows:
                tag = "D" if row.kind == DIAGNOSIS else "P"
                fh.write(
                    f"{tag}\t{row.l1_start}\t{row.l1_end}\t{row.l2_start}\t{row.l2_end}\n"
                )

    def lookup(self, code: IcdCode) -> tuple[str, str]:
        """Return the (level-1, level-2) range labels covering a code.

        Falls back to a synthetic same-start-end level-2 range when only a
        level-1 row covers the integer part; raises if nothing covers it.
        """
        prefix, value = _stratum(code.integer_part)
        l1_hit = None
        for row in self.rows:
            if row.kind != code.kind:
                continue
            p1, s1, e1 = _check_span(row.l1_start, row.l1_end, "level-1")
            if p1 != prefix or not (s1 <= value <= e1):
                continue
            p2, s2, e2 = _check_span(row.l2_start, row.l2_end, "level-2")
            if s2 <= value <= e2:
                return row.l1_label, row.l2_label
            l1_hit = row.l1_label
        if l1_hit is not None:
            return l1_hit, f"{code.integer_part}-{code.integer_part}"
        raise CodeError(f"code {code.raw!r} not covered by any range table row")


class Node(NamedTuple):
    level: int
    label: str


ROOT = Node(0, ROOT_LABEL)


def build_path(code: IcdCode, ranges: RangeTable) -> list[Node]:
    """Full root-to-leaf path for a code: two ranges plus three code levels.

    Codes with fewer than two decimals are padded by copying the deepest
    available rendering downward, so the path always has K_MAX nodes.
    """
    l1, l2 = ranges.lookup(code)
    lvl3 = code.integer_part
    lvl4 = f"{lvl3}.{code.decimals[:1]}" if code.decimals else lvl3
    lvl5 = code.raw if len(code.decimals) == 2 else lvl4
    return [Node(1, l1), Node(2, l2), Node(3, lvl3), Node(4, lvl4), Node(5, lvl5)]


class LabelTree:
    """Depth-uniform tree over range and code nodes; nodes are (level, label)
    pairs and every leaf sits at level ``k_max``."""

    def __init__(self, parent: dict[Node, Node], k_max: int = K_MAX):
        self.root = Node(0, ROOT_LABEL)
        self.k_max = k_max
        self.parent = dict(parent)
        self.children: dict[Node, list[Node]] = {self.root: []}
        for child in self.parent:
            self.children.setdefault(child, [])
        for child, par in sorted(self.parent.items()):
            if child.level != par.level + 1:
                raise CodeError(f"node {child} is not one level below its parent {par}")
            self.children.setdefault(par, [])
            self.children[par].append(child)
        for par in self.children:
            self.children[par].sort()
        for leaf in self.leaves():
            if leaf.level != self.k_max:
                raise CodeError(f"leaf {leaf} not at level {self.k_max}")
        self._level_labels = {
            k: [n.label for n in self.nodes_at_level(k)] for k in range(1, k_max + 1)
        }
        self._parent_maps: dict[int, np.ndarray] = {}
        for k in range(1, k_max):
            up = {label: i for i, label in enumerate(self._level_labels[k])}
            self._parent_maps[k] = np.array(
                [up[self.parent[n].label] for n in self.nodes_at_level(k + 1)], dtype=np.int64
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabelTree)
            and self.k_max == other.k_max
            and self.parent == other.parent
        )

    @property
    def nodes(self) -> list[Node]:
        return [self.root] + sorted(self.parent)

    def nodes_at_level(self, k: int) -> list[Node]:
        return sorted(n for n in self.parent if n.level == k)

    def leaves(self) -> list[Node]:
        return sorted(n for n in self.parent if not self.children[n])

    def is_copy(self, node: Node) -> bool:
        """True for padding nodes that repeat their parent's label."""
        par = self.parent.get(node)
        return par is not None and par.label == node.label

    def original(self, node: Node) -> Node:
        while self.is_copy(node):
            node = self.parent[node]
        return node

    def core_graph(self) -> tuple[list[Node], list[tuple[int, int]]]:
        """Nodes and edges with padding self-copy chains contracted."""
        core = [self.root] + sorted(n for n in self.parent if not self.is_copy(n))
        index = {n: i for i, n in enumerate(core)}
        edges = []
        for node in core[1:]:
            par = self.original(self.parent[node])
            edges.append((index[par], index[node]))
        return core, edges

    def level_labels(self, k: int) -> list[str]:
        """Deterministic (lexicographic) label ordering for level k."""
        if not 1 <= k <= self.k_max:
            raise CodeError(f"level {k} out of range 1..{self.k_max}")
        return self._level_labels[k]

    def parent_index_map(self, k: int) -> np.ndarray:
        """Index of each level-(k+1) label's parent among level-k labels."""
        if not 1 <= k < self.k_max:
            raise CodeError(f"level {k} out of range 1..{self.k_max - 1}")
        return self._parent_maps[k]

    def ancestor_targets(self, y_leaf: np.ndarray, k: int) -> np.ndarray:
        """Binary targets at level k: 1 iff some positive leaf passes through."""
        y = np.asarray(y_leaf)
        n_leaf = len(self.level_labels(self.k_max))
        if y.shape[-1] != n_leaf:
            raise CodeError(
                f"leaf target width {y.shape[-1]} != number of leaves {n_leaf}"
            )
        if not 1 <= k <= self.k_max:
            raise CodeError(f"level {k} out of range 1..{self.k_max}")
        for j in range(self.k_max - 1, k - 1, -1):
            pmap = self.parent_index_map(j)
            out = np.zeros(y.shape[:-1] + (len(self.level_labels(j)),), dtype=y.dtype)
            # only positive cells can raise a parent above its zero start
            idx = np.nonzero(y > 0)
            np.maximum.at(out, idx[:-1] + (pmap[idx[-1]],), y[idx])
            y = out
        return y

    def to_json(self) -> str:
        nodes = self.nodes
        index = {n: i for i, n in enumerate(nodes)}
        parents = [-1] + [index[self.parent[n]] for n in nodes[1:]]
        payload = {
            "k_max": self.k_max,
            "nodes": [[n.level, n.label] for n in nodes],
            "parents": parents,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LabelTree":
        payload = json.loads(text)
        nodes = [Node(lvl, label) for lvl, label in payload["nodes"]]
        parent = {}
        for node, pidx in zip(nodes, payload["parents"]):
            if pidx >= 0:
                parent[node] = nodes[pidx]
        return cls(parent, k_max=payload["k_max"])


def build_label_tree(codes: Iterable[IcdCode], ranges: RangeTable) -> LabelTree:
    """Union of the padded paths of all codes (duplicates deduplicated)."""
    codes = list(codes)
    if not codes:
        raise CodeError("empty label set")
    parent: dict[Node, Node] = {}
    for code in codes:
        try:
            path = build_path(code, ranges)
        except CodeError as exc:
            raise CodeError(f"code {code.raw!r}: {exc}") from exc
        prev = ROOT
        for node in path:
            existing = parent.get(node)
            if existing is not None and existing != prev:
                raise CodeError(
                    f"code {code.raw!r}: node {node} already has parent {existing}"
                )
            parent[node] = prev
            prev = node
    return LabelTree(parent)


# Former name of LabelTree.  The benchmark's tracer (perfbench/tracing.py)
# still looks the class up under it to wrap ``ancestor_targets``.
AugmentedLabelTree = LabelTree
