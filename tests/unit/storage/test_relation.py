"""Unit tests for the stored relation type and its lazy indexes."""

from vidb.storage.relation import Relation


class Reentrant:
    """A value whose first armed hash probes the relation it sits in —
    the interleaving two queries sharing one relation can produce."""

    def __init__(self, relation):
        self.relation = relation
        self.armed = False
        self.probed = None

    def __hash__(self):
        if self.armed and self.probed is None:
            self.probed = []  # re-enter once
            self.probed = list(self.relation.select((self, None)))
        return 7

    def __eq__(self, other):
        return self is other


class TestLazyIndex:
    def test_index_is_complete_before_it_is_published(self):
        rel = Relation()
        value = Reentrant(rel)
        rel.add((1, 10))
        rel.add((value, 12))
        value.armed = True
        # Building the position-0 index hashes ``value``, which probes
        # position 0 again while the outer build is still running.
        assert list(rel.select((1, None))) == [(1, 10)]
        assert value.probed == [(value, 12)]
        assert list(rel.select((value, None))) == [(value, 12)]

    def test_built_index_follows_adds_and_removes(self):
        rel = Relation()
        rel.add((1, "a"))
        rel.add((2, "a"))
        assert len(list(rel.select((None, "a")))) == 2  # builds position 1
        rel.add((3, "a"))
        assert rel.remove((1, "a"))
        assert not rel.remove((1, "a"))
        assert sorted(rel.select((None, "a"))) == [(2, "a"), (3, "a")]
        rel.remove((2, "a"))
        rel.remove((3, "a"))
        assert list(rel.select((None, "a"))) == []
        assert rel.index(1) == {}

    def test_copy_is_independent(self):
        rel = Relation()
        rel.add((1,))
        rel.index(0)
        twin = rel.copy()
        twin.add((2,))
        rel.remove((1,))
        assert list(twin.select((1,))) == [(1,)]
        assert list(rel.select((2,))) == []
        assert len(rel) == 0 and len(twin) == 2
