"""Unit tests for versioned block chains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lsn import NULL_LSN
from repro.core.records import EMPTY_IMAGE
from repro.errors import ReadPointError
from repro.storage.page import BlockVersionChain, image_checksum


class TestBlockVersionChain:
    def test_empty_chain_serves_empty_image(self):
        chain = BlockVersionChain(0)
        assert chain.latest_lsn == NULL_LSN
        assert chain.latest_image() == {}
        assert chain.version_at(100) is None
        assert chain.image_at(100) == {}

    def test_append_and_read_latest(self):
        chain = BlockVersionChain(0)
        chain.append(5, {"a": 1})
        chain.append(9, {"a": 2})
        assert chain.latest_lsn == 9
        assert chain.latest_image() == {"a": 2}

    def test_non_monotonic_append_rejected(self):
        chain = BlockVersionChain(0)
        chain.append(5, {})
        with pytest.raises(ReadPointError):
            chain.append(5, {})
        with pytest.raises(ReadPointError):
            chain.append(4, {})

    def test_version_at_binary_search(self):
        chain = BlockVersionChain(0)
        for lsn in (2, 5, 9, 14):
            chain.append(lsn, {"lsn": lsn})
        assert chain.version_at(1) is None
        assert chain.version_at(2).lsn == 2
        assert chain.version_at(8).lsn == 5
        assert chain.version_at(9).lsn == 9
        assert chain.version_at(100).lsn == 14

    def test_the_chain_holds_and_serves_the_image_it_was_given(self):
        chain = BlockVersionChain(0)
        image = {"a": 1}
        chain.append(1, image)
        assert chain.image_at(1) is image
        assert chain.latest_image() is image
        assert chain.version_at(1).image is image
        assert chain.image_at(0) is EMPTY_IMAGE

    def test_gc_keeps_newest_at_or_below_floor(self):
        chain = BlockVersionChain(0)
        for lsn in (1, 3, 5, 7):
            chain.append(lsn, {"lsn": lsn})
        removed = chain.gc_below(5)
        assert removed == 2  # versions 1 and 3
        assert chain.version_at(5).lsn == 5
        assert chain.version_at(6).lsn == 5  # base version retained
        assert chain.version_at(7).lsn == 7

    def test_gc_below_everything_keeps_latest(self):
        chain = BlockVersionChain(0)
        chain.append(1, {})
        chain.append(2, {})
        chain.gc_below(100)
        assert len(chain) == 1
        assert chain.latest_lsn == 2

    def test_truncate_above_discards_annulled_versions(self):
        chain = BlockVersionChain(0)
        for lsn in (1, 5, 9):
            chain.append(lsn, {"lsn": lsn})
        removed = chain.truncate_above(5)
        assert removed == 1
        assert chain.latest_lsn == 5

    def test_truncate_above_window_preserves_new_generation(self):
        chain = BlockVersionChain(0)
        for lsn in (1, 5, 101):
            chain.append(lsn, {"lsn": lsn})
        removed = chain.truncate_above(1, last=100)
        assert removed == 1          # only the version inside (1, 100]
        assert chain.latest_lsn == 101
        assert len(chain) == 2

    def test_scrub_detects_corruption(self):
        chain = BlockVersionChain(0)
        chain.append(1, {"a": 1})
        chain.append(2, {"a": 2})
        assert chain.scrub() == []
        chain.corrupt_version()
        assert chain.scrub() == [2]


class TestChecksums:
    def test_order_independent(self):
        assert image_checksum({"a": 1, "b": 2}) == image_checksum(
            {"b": 2, "a": 1}
        )

    def test_value_sensitive(self):
        assert image_checksum({"a": 1}) != image_checksum({"a": 2})

    def test_verify_round_trip(self):
        chain = BlockVersionChain(0)
        chain.append(5, {"x": "y"})
        version = chain.version_at(5)
        assert version.verify()
        version.image = {"x": "tampered"}
        assert not version.verify()


class ReferenceChain:
    """The chain as a plain list of ``[lsn, image, checksum, quarantined]``
    entries, one object per version, scanned linearly -- what
    :class:`BlockVersionChain` must behave like."""

    def __init__(self):
        self.entries = []

    def find(self, lsn):
        return next((e for e in self.entries if e[0] == lsn), None)

    def checksum(self, entry):
        if entry[2] is None:
            entry[2] = image_checksum(entry[1])
        return entry[2]

    def verify(self, entry):
        return not entry[3] and self.checksum(entry) == image_checksum(entry[1])

    def append(self, lsn, image):
        if self.entries and lsn <= self.entries[-1][0]:
            raise ReadPointError(lsn, 0, 0)
        self.entries.append([lsn, image, None, False])

    def insert(self, lsn, image):
        if self.find(lsn) is not None:
            raise ReadPointError(lsn, 0, 0)
        self.entries.append([lsn, image, None, False])
        self.entries.sort(key=lambda e: e[0])

    def remove_version(self, lsn):
        entry = self.find(lsn)
        if entry is None:
            return False
        self.entries.remove(entry)
        return True

    def at(self, read_point):
        older = [e for e in self.entries if e[0] <= read_point]
        return older[-1] if older else None

    def gc_below(self, floor):
        base = self.at(floor)
        doomed = [e for e in self.entries if base is not None and e[0] < base[0]]
        self.entries = [e for e in self.entries if e not in doomed]
        return len(doomed)

    def truncate_above(self, lsn, last):
        kept = [
            e for e in self.entries
            if e[0] <= lsn or (last is not None and e[0] > last)
        ]
        removed = len(self.entries) - len(kept)
        self.entries = kept
        return removed

    def corrupt_version(self, lsn, valid_checksum):
        if not self.entries:
            return None
        entry = self.entries[-1] if lsn is None else self.find(lsn)
        if entry is None:
            return None
        self.checksum(entry)
        entry[1] = {**entry[1], "__corrupted__": True}
        if valid_checksum:
            entry[2] = image_checksum(entry[1])
        return entry[0]

    def scrub(self):
        return [e[0] for e in self.entries if not self.verify(e)]


LSNS = st.integers(min_value=1, max_value=40)
OPS = st.one_of(
    st.tuples(st.just("append"), LSNS),
    st.tuples(st.just("insert"), LSNS),
    st.tuples(st.just("remove_version"), LSNS),
    st.tuples(st.just("gc_below"), LSNS),
    st.tuples(st.just("truncate_above"), LSNS, st.none() | LSNS),
    st.tuples(st.just("corrupt_version"), st.none() | LSNS, st.booleans()),
    st.tuples(st.just("scrub")),
    st.tuples(st.just("version_at"), LSNS),
    st.tuples(st.just("quarantine"), LSNS),
    st.tuples(st.just("repair"), LSNS),
)


class TestFlatChainAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPS, max_size=40))
    def test_same_answers_as_a_list_of_version_objects(self, ops):
        multi_version = set()
        chain = BlockVersionChain(7, multi_version)
        reference = ReferenceChain()
        handles = []  # taken at any point, must keep resolving by LSN
        for step, (op, *args) in enumerate(ops):
            image = {"step": step}
            if op in ("append", "insert"):
                try:
                    getattr(reference, op)(args[0], image)
                except ReadPointError:
                    with pytest.raises(ReadPointError):
                        getattr(chain, op)(args[0], image)
                else:
                    getattr(chain, op)(args[0], image)
            elif op == "corrupt_version":
                lsn, valid = args
                assert chain.corrupt_version(
                    lsn, valid_checksum=valid
                ) == reference.corrupt_version(lsn, valid)
            elif op == "version_at":
                entry = reference.at(args[0])
                version = chain.version_at(args[0])
                assert (version is None) == (entry is None)
                if version is not None:
                    assert version.lsn == entry[0]
                    assert version.verify() == reference.verify(entry)
                    handles.append(version)
            elif op == "quarantine":
                entry = reference.find(args[0])
                version = chain.version(args[0])
                assert (version is None) == (entry is None)
                if version is not None:
                    version.quarantined = entry[3] = True
            elif op == "repair":
                entry = reference.find(args[0])
                version = chain.version(args[0])
                if version is not None:
                    version.image = entry[1] = image
                    version.checksum = entry[2] = image_checksum(image)
                    version.quarantined = entry[3] = False
            else:
                assert getattr(chain, op)(*args) == getattr(reference, op)(*args)

            lsns = [e[0] for e in reference.entries]
            assert [v.lsn for v in chain.versions] == lsns
            assert len(chain) == len(lsns)
            assert chain.latest_lsn == (lsns[-1] if lsns else NULL_LSN)
            assert len(lsns) <= 1 or 7 in multi_version
            for version, entry in zip(chain.versions, reference.entries):
                assert version.image == entry[1]
                assert version.quarantined == entry[3]
            # Verification state only for retained LSNs; a quarantined
            # version always has a recorded checksum.
            recorded = set(chain._checksums or ())
            assert recorded <= set(lsns)
            assert set(chain._quarantined or ()) <= recorded
            for handle in handles:
                entry = reference.find(handle.lsn)
                if entry is None:
                    with pytest.raises(KeyError):
                        handle.image
                else:
                    assert handle.image == entry[1]
                    assert handle.quarantined == entry[3]
        assert chain.scrub() == reference.scrub()
        for version, entry in zip(chain.versions, reference.entries):
            assert version.checksum == reference.checksum(entry)

    def test_versions_in_is_the_half_open_window(self):
        chain = BlockVersionChain(0)
        for lsn in (2, 5, 9, 14):
            chain.append(lsn, {"lsn": lsn})
        assert [v.lsn for v in chain.versions_in(2, 9)] == [5, 9]
        assert [v.lsn for v in chain.versions_in(5)] == [9, 14]
        assert chain.versions_in(9, 5) == []
