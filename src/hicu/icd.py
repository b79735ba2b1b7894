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
        self._spans = self._validate()

    def _validate(self) -> list[tuple[RangeRow, str, int, int, int, int]]:
        """Check the rows; each row's (row, prefix, l1 start, l1 end, l2 start,
        l2 end), parsed once for ``lookup``."""
        checked = []
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
            checked.append((row, p1, s1, e1, s2, e2))
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
        return checked

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
        for row, p1, s1, e1, s2, e2 in self._spans:
            if row.kind != code.kind or p1 != prefix or not (s1 <= value <= e1):
                continue
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
        for child, par in sorted(self.parent.items()):
            if child.level != par.level + 1:
                raise CodeError(f"node {child} is not one level below its parent {par}")
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
        return sorted(set(self.parent) - set(self.parent.values()))

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

    def ancestor_index_map(self, k: int, j: int) -> np.ndarray:
        """Index of each level-k label's ancestor among level-j labels, j <= k;
        the identity when j == k."""
        if not 1 <= j <= k <= self.k_max:
            raise CodeError(f"levels k={k}, j={j} are not 1 <= j <= k <= {self.k_max}")
        ancestor = np.arange(len(self._level_labels[k]))
        for i in range(k - 1, j - 1, -1):
            ancestor = self._parent_maps[i][ancestor]
        return ancestor

    def ancestor_targets(self, y_leaf: np.ndarray, k: int) -> np.ndarray:
        """Binary targets at level k: 1 iff some positive leaf passes through."""
        y = np.asarray(y_leaf)
        n_leaf = len(self.level_labels(self.k_max))
        if y.shape[-1] != n_leaf:
            raise CodeError(
                f"leaf target width {y.shape[-1]} != number of leaves {n_leaf}"
            )
        n_labels = len(self.level_labels(k))  # checks k
        if k == self.k_max:
            return y  # the leaf targets themselves: no copy of the largest target matrix
        amap = self.ancestor_index_map(self.k_max, k)
        out = np.zeros(y.shape[:-1] + (n_labels,), dtype=y.dtype)
        # only positive cells can raise an ancestor above its zero start
        idx = np.nonzero(y > 0)
        np.maximum.at(out, idx[:-1] + (amap[idx[-1]],), y[idx])
        return out

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
        """The tree of ``to_json``'s text: an object with lists ``nodes`` and
        ``parents`` and an int ``k_max`` >= 1; each node an ``[int level, str
        label]`` pair listed once, every parent entry an index into ``nodes``,
        and -1 on the root alone."""
        payload = json.loads(text)
        if type(payload) is not dict:
            raise CodeError(f"tree file holds {type(payload).__name__} {payload!r}, not an object")
        for key in ("nodes", "parents"):
            if type(payload.get(key)) is not list:
                raise CodeError(f"tree file field {key!r} is {payload.get(key)!r}, not a list")
        k_max = payload.get("k_max")
        if type(k_max) is not int or k_max < 1:  # a bool is no depth
            raise CodeError(f"tree file field 'k_max' is {k_max!r}, not an int >= 1")
        nodes = []
        for i, entry in enumerate(payload["nodes"]):
            if type(entry) is not list or [type(v) for v in entry] != [int, str]:  # a bool is no level
                raise CodeError(f"tree file node entry {i} is {entry!r}, not an [int level, str label] pair")
            nodes.append(Node(*entry))
        parents = payload["parents"]
        if len(parents) != len(nodes):
            raise CodeError(f"tree file lists {len(nodes)} nodes but {len(parents)} parents")
        parent, seen = {}, set()
        for node, pidx in zip(nodes, parents):
            if node in seen:
                raise CodeError(f"node {node} listed twice")
            seen.add(node)
            if pidx == -1:
                if node != ROOT:
                    raise CodeError(f"node {node} has no parent but is not the root")
            elif type(pidx) is not int or not 0 <= pidx < len(nodes):
                raise CodeError(f"node {node} has parent entry {pidx!r}, not an index in [0, {len(nodes)})")
            else:
                parent[node] = nodes[pidx]
        return cls(parent, k_max=k_max)


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
