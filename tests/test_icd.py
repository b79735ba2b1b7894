import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicu.icd import (
    DIAGNOSIS,
    PROCEDURE,
    CodeError,
    LabelTree,
    Node,
    RangeRow,
    RangeTable,
    build_label_tree,
    build_path,
    infer_kind,
    parse_code,
    parse_code_auto,
)

from conftest import oracle_ancestors


@pytest.fixture(scope="module")
def ranges():
    return RangeTable([
        RangeRow(DIAGNOSIS, "390", "459", "401", "405"),
        RangeRow(DIAGNOSIS, "680", "709", "680", "686"),
        RangeRow(DIAGNOSIS, "740", "759", "745", "745"),
        RangeRow(DIAGNOSIS, "E800", "E999", "E810", "E819"),
        RangeRow(DIAGNOSIS, "V01", "V91", "V30", "V39"),
        RangeRow(PROCEDURE, "35", "39", "35", "35"),
    ])


class TestParsing:
    def test_diagnosis_two_decimals(self):
        code = parse_code("682.61", DIAGNOSIS)
        assert (code.integer_part, code.decimals) == ("682", "61")

    def test_diagnosis_v_and_e(self):
        assert parse_code("V30.0", DIAGNOSIS).integer_part == "V30"
        assert parse_code("E812.1", DIAGNOSIS).integer_part == "E812"

    def test_procedure_shape(self):
        code = parse_code("36.15", PROCEDURE)
        assert (code.integer_part, code.decimals) == ("36", "15")

    def test_kind_inference(self):
        assert infer_kind("36.15") == PROCEDURE
        assert infer_kind("401.9") == DIAGNOSIS
        assert infer_kind("V30") == DIAGNOSIS

    @pytest.mark.parametrize("bad", ["", "40", "4015", "401.", "401.123", "W12", "E81"])
    def test_malformed_codes_rejected(self, bad):
        with pytest.raises(CodeError):
            parse_code(bad, DIAGNOSIS)


class TestRangeTable:
    def test_lookup_real_l2(self, ranges):
        assert ranges.lookup(parse_code_auto("401.9")) == ("390-459", "401-405")

    def test_lookup_synthetic_l2(self, ranges):
        # only the level-1 range covers 700, so a same-start-end range is invented
        assert ranges.lookup(parse_code_auto("700")) == ("680-709", "700-700")

    def test_lookup_uncovered(self, ranges):
        with pytest.raises(CodeError):
            ranges.lookup(parse_code_auto("100"))

    def test_overlapping_l2_rejected(self):
        with pytest.raises(CodeError):
            RangeTable([
                RangeRow(DIAGNOSIS, "390", "459", "401", "405"),
                RangeRow(DIAGNOSIS, "390", "459", "403", "410"),
            ])

    def test_overlapping_l1_rejected(self):
        with pytest.raises(CodeError):
            RangeTable([
                RangeRow(DIAGNOSIS, "390", "459", "401", "405"),
                RangeRow(DIAGNOSIS, "450", "470", "450", "455"),
            ])

    def test_reversed_range_rejected(self):
        with pytest.raises(CodeError):
            RangeTable([RangeRow(DIAGNOSIS, "459", "390", "401", "405")])

    def test_l2_outside_l1_rejected(self):
        with pytest.raises(CodeError):
            RangeTable([RangeRow(DIAGNOSIS, "390", "459", "380", "405")])

    def test_file_round_trip(self, ranges, tmp_path):
        path = tmp_path / "ranges.tsv"
        ranges.to_file(path)
        back = RangeTable.from_file(path)
        assert back.rows == ranges.rows

    def test_from_file_rejects_bad_kind(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("X\t390\t459\t401\t405\n")
        with pytest.raises(CodeError):
            RangeTable.from_file(path)


class TestPaths:
    def test_full_depth_code(self, ranges):
        labels = [n.label for n in build_path(parse_code_auto("682.61"), ranges)]
        assert labels == ["680-709", "680-686", "682", "682.6", "682.61"]

    def test_one_decimal_padded(self, ranges):
        labels = [n.label for n in build_path(parse_code_auto("401.9"), ranges)]
        assert labels == ["390-459", "401-405", "401", "401.9", "401.9"]

    def test_integer_padded(self, ranges):
        labels = [n.label for n in build_path(parse_code_auto("681"), ranges)]
        assert labels == ["680-709", "680-686", "681", "681", "681"]

    def test_procedure_synthetic_l2(self, ranges):
        labels = [n.label for n in build_path(parse_code("36.15", PROCEDURE), ranges)]
        assert labels == ["35-39", "36-36", "36", "36.1", "36.15"]

    def test_same_start_end_l2(self, ranges):
        labels = [n.label for n in build_path(parse_code_auto("745.4"), ranges)]
        assert labels == ["740-759", "745-745", "745", "745.4", "745.4"]

    def test_paths_always_five_nodes(self, ranges):
        for raw in ["682.61", "401.9", "681", "745.4", "700", "E812.1", "V30"]:
            path = build_path(parse_code_auto(raw), ranges)
            assert len(path) == 5
            assert [n.level for n in path] == [1, 2, 3, 4, 5]


class TestLabelTree:
    CODES = ["682.61", "682.62", "401.9", "402.0", "681", "745.4", "700"]

    @pytest.fixture(scope="module")
    def tree(self, ranges):
        return build_label_tree([parse_code_auto(c) for c in self.CODES], ranges)

    def test_empty_label_set(self, ranges):
        with pytest.raises(CodeError, match="empty label set"):
            build_label_tree([], ranges)

    def test_leaves_are_codes(self, tree):
        assert tree.level_labels(tree.k_max) == sorted(self.CODES)

    def test_ancestors_by_oracle(self, tree, ranges):
        for raw in self.CODES:
            path = build_path(parse_code_auto(raw), ranges)
            leaf = path[-1]
            expected = list(reversed(path[:-1]))
            assert oracle_ancestors(tree, leaf) == expected

    def test_json_round_trip(self, tree):
        back = LabelTree.from_json(tree.to_json())
        assert back == tree
        assert json.loads(tree.to_json()) == json.loads(back.to_json())

    def test_core_graph_contracts_padding(self, tree):
        core, edges = tree.core_graph()
        labels_by_level = {}
        for node in core:
            labels_by_level.setdefault(node.label, []).append(node.level)
        # a padded chain keeps exactly one copy of its label
        assert labels_by_level["681"] == [3]
        assert labels_by_level["401.9"] == [4]
        assert len(edges) == len(core) - 1

    def test_level_skip_rejected(self):
        text = json.dumps({"k_max": 3, "nodes": [[0, "<root>"], [1, "a"], [3, "b"]],
                           "parents": [-1, 0, 1]})
        with pytest.raises(CodeError, match="node Node\\(level=3, label='b'\\) is not one level"):
            LabelTree.from_json(text)

    def test_conflicting_parent_detected(self, monkeypatch):
        # force the lookup to anchor the same integer code under two parents
        table = RangeTable([RangeRow(DIAGNOSIS, "390", "459", "401", "405")])
        results = iter([("390-459", "401-405"), ("390-459", "400-406")])
        monkeypatch.setattr(table, "lookup", lambda code: next(results))
        with pytest.raises(CodeError, match="already has parent"):
            build_label_tree(
                [parse_code_auto("401.9"), parse_code_auto("401.1")], table
            )


class TestAugmentedTree:
    """Level views of the padded tree: orderings, parent maps, ancestor targets."""

    @pytest.fixture(scope="module")
    def tree(self, ranges):
        return build_label_tree([parse_code_auto(c) for c in TestLabelTree.CODES], ranges)

    def test_all_leaves_at_k_max(self, tree):
        assert all(n.level == tree.k_max for n in tree.leaves())

    def test_level_labels_sorted(self, tree):
        for k in range(1, tree.k_max + 1):
            labels = tree.level_labels(k)
            assert labels == sorted(labels)

    def test_parent_index_map_matches_parents(self, tree):
        for k in range(1, tree.k_max):
            pmap = tree.parent_index_map(k)
            up = tree.level_labels(k)
            for j, node in enumerate(tree.nodes_at_level(k + 1)):
                assert up[pmap[j]] == tree.parent[node].label

    def test_ancestor_targets_by_oracle(self, tree):
        rng = np.random.default_rng(0)
        leaves = tree.nodes_at_level(tree.k_max)
        y = (rng.random((7, len(leaves))) < 0.3).astype(np.float64)
        for k in range(1, tree.k_max + 1):
            got = tree.ancestor_targets(y, k)
            labels = tree.level_labels(k)
            want = np.zeros((7, len(labels)))
            for d in range(7):
                for j, leaf in enumerate(leaves):
                    if y[d, j]:
                        chain = [leaf] + oracle_ancestors(tree, leaf)
                        for node in chain:
                            if node.level == k:
                                want[d, labels.index(node.label)] = 1.0
            assert np.array_equal(got, want)

    def test_augment_is_idempotent_on_padded_tree(self, tree, ranges):
        # padding is now done while building: rebuilding the padded tree from its
        # own parent map, or from its own leaf codes, changes nothing
        again = LabelTree(tree.parent, tree.k_max)
        assert again == tree and again.parent == tree.parent
        rebuilt = build_label_tree(
            [parse_code_auto(c) for c in tree.level_labels(tree.k_max)], ranges
        )
        assert rebuilt.parent == tree.parent

    def test_unpadded_leaf_rejected(self):
        shallow = {Node(1, "100-199"): Node(0, "<root>")}
        with pytest.raises(CodeError, match=r"leaf Node\(level=1, label='100-199'\) not at level 5"):
            LabelTree(shallow)
        text = json.dumps({"k_max": 5, "nodes": [[0, "<root>"], [1, "100-199"]], "parents": [-1, 0]})
        with pytest.raises(CodeError, match="not at level 5"):
            LabelTree.from_json(text)


@given(st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 9), st.integers(0, 9)),
    min_size=1, max_size=12, unique=True,
))
@settings(max_examples=40, deadline=None)
def test_augment_idempotence_property(specs):
    """Rebuilding an already depth-uniform tree, from its parent map or from its
    leaf codes, changes nothing."""
    rows, codes = [], []
    seen_l1 = set()
    for i, d, e in specs:
        base = 100 * (i + 1)
        if base not in seen_l1:
            rows.append(RangeRow(DIAGNOSIS, str(base), str(base + 99), str(base), str(base + 9)))
            seen_l1.add(base)
        codes.append(f"{base}.{d}{e}")
    table = RangeTable(rows)
    tree = build_label_tree([parse_code_auto(c) for c in sorted(set(codes))], table)
    again = LabelTree(tree.parent, tree.k_max)
    assert again.parent == tree.parent
    assert all(n.level == again.k_max for n in again.leaves())
    rebuilt = build_label_tree(
        [parse_code_auto(c) for c in tree.level_labels(tree.k_max)], table
    )
    assert rebuilt.parent == tree.parent


@given(st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 9), st.integers(0, 2), st.integers(0, 99)),
    min_size=1, max_size=12,
))
@settings(max_examples=40, deadline=None)
def test_built_trees_are_depth_uniform(specs):
    """Codes of every depth pad down to level k_max, each leaf is one code, and
    the tree survives a JSON round trip."""
    rows, codes = [], set()
    seen_l1 = set()
    for i, d, n_decimals, decimals in specs:
        base = 100 * (i + 1)
        if base not in seen_l1:
            rows.append(RangeRow(DIAGNOSIS, str(base), str(base + 99), str(base), str(base + 9)))
            seen_l1.add(base)
        code = str(base + d)
        if n_decimals:
            code += "." + f"{decimals:02d}"[:n_decimals]
        codes.add(code)
    tree = build_label_tree([parse_code_auto(c) for c in sorted(codes)], RangeTable(rows))
    assert all(n.level == tree.k_max for n in tree.leaves())
    assert tree.level_labels(tree.k_max) == sorted(codes)
    back = LabelTree.from_json(tree.to_json())
    assert back == tree and back.to_json() == tree.to_json()
    for k in range(1, tree.k_max + 1):
        assert back.level_labels(k) == tree.level_labels(k)
