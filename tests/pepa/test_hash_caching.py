"""Tests pinning the cached-hash optimisation's correctness.

The optimisation (repro.pepa.syntax._CachedHash) is only safe because
expressions are immutable; these tests pin the invariants it relies on
so a future refactor cannot silently break dictionary semantics.
"""

import pickle
from dataclasses import fields

from hypothesis import given, settings

from repro.pepa import parse_expression
from repro.pepa.syntax import Cell, Choice, Const, Cooperation, Hiding, Prefix
from repro.pepa.rates import ActiveRate

from .test_parser_roundtrip import expressions  # reuse the AST strategy


class TestHashSemantics:
    def test_structurally_equal_nodes_hash_equal(self):
        a = parse_expression("(a, 1).P <x> Q/{y}")
        b = parse_expression("(a, 1).P <x> Q/{y}")
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_different_nodes_differ(self):
        pairs = [
            ("(a, 1).P", "(a, 2).P"),
            ("(a, 1).P", "(b, 1).P"),
            ("P <a> Q", "P <b> Q"),
            ("P <a> Q", "P || Q"),
            ("P/{a}", "P/{b}"),
            ("File[_]", "File[P]"),
        ]
        for left, right in pairs:
            assert parse_expression(left) != parse_expression(right)

    def test_hash_stable_across_calls(self):
        expr = parse_expression("(a, 1).(b, 2).P + (c, 3).Q")
        assert hash(expr) == hash(expr)

    def test_all_node_classes_use_cached_hash(self):
        nodes = [
            Prefix("a", ActiveRate(1.0), Const("P")),
            Choice(Const("P"), Const("Q")),
            Const("P"),
            Cooperation(Const("P"), Const("Q"), frozenset({"a"})),
            Hiding(Const("P"), frozenset({"a"})),
            Cell("File", None),
        ]
        for node in nodes:
            hash(node)
            assert hasattr(node, "_hash_cache")
            assert hash(node) == node._hash_cache

    def test_hash_is_the_field_tuple_hash_and_is_not_pickled(self):
        """The per-class field names reproduce the reflective hash, and
        the cached value (seeded per process) stays out of pickles."""
        nodes = [
            Prefix("a", ActiveRate(1.0), Const("P")),
            Choice(Const("P"), Const("Q")),
            Cooperation(Const("P"), Const("Q"), frozenset({"a"})),
            Hiding(Const("P"), frozenset({"a"})),
            Cell("File", Const("P")),
        ]
        for node in nodes:
            expected = hash((type(node).__name__,) + tuple(
                getattr(node, f.name) for f in fields(node)
            ))
            assert hash(node) == expected
            clone = pickle.loads(pickle.dumps(node))
            assert "_hash_cache" not in vars(clone)
            assert clone == node and hash(clone) == expected

    @settings(max_examples=150, deadline=None)
    @given(expressions())
    def test_hash_consistent_with_equality(self, expr):
        """The contract: equal objects hash equal, and reconstruction
        from the printed form lands in the same dict bucket."""
        clone = parse_expression(str(expr))
        assert clone == expr
        assert hash(clone) == hash(expr)
        assert {expr: "v"}[clone] == "v"
