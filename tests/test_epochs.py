"""Unit tests for epoch stamps and the storage-node epoch registry."""

import pytest

from repro.core.epochs import EpochRegistry, EpochStamp
from repro.errors import ConfigurationError, StaleEpochError


class TestEpochStamp:
    def test_defaults_to_all_ones(self):
        stamp = EpochStamp()
        assert (stamp.volume, stamp.membership, stamp.geometry) == (1, 1, 1)

    def test_bumps_are_independent(self):
        stamp = EpochStamp().bump_volume().bump_membership()
        assert stamp.volume == 2
        assert stamp.membership == 2
        assert stamp.geometry == 1
        assert stamp.bump_geometry().geometry == 2

    def test_zero_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            EpochStamp(volume=0)

    def test_immutability(self):
        stamp = EpochStamp()
        stamp.bump_volume()
        assert stamp.volume == 1  # original unchanged


class TestEpochRegistry:
    def test_accepts_equal_epochs(self):
        registry = EpochRegistry()
        registry.check_and_learn(EpochStamp())
        assert registry.rejections == 0

    def test_rejects_stale_volume_epoch(self):
        registry = EpochRegistry(EpochStamp(volume=3))
        with pytest.raises(StaleEpochError) as excinfo:
            registry.check_and_learn(EpochStamp(volume=2))
        assert excinfo.value.kind == "volume"
        assert excinfo.value.presented == 2
        assert excinfo.value.current == 3
        assert registry.rejections == 1

    def test_rejects_stale_membership_epoch(self):
        registry = EpochRegistry(EpochStamp(membership=5))
        with pytest.raises(StaleEpochError):
            registry.check_and_learn(EpochStamp(membership=4))

    def test_learns_newer_epochs(self):
        """A request carrying a newer epoch teaches the node: the increment
        was durably recorded on a write quorum elsewhere."""
        registry = EpochRegistry()
        registry.check_and_learn(EpochStamp(volume=4, membership=2))
        assert registry.current.volume == 4
        assert registry.current.membership == 2
        # Now the old epoch is stale here too.
        with pytest.raises(StaleEpochError):
            registry.check_and_learn(EpochStamp(volume=3, membership=2))

    def test_mixed_stale_and_new_is_rejected(self):
        """Any stale component rejects the request (no partial learning)."""
        registry = EpochRegistry(EpochStamp(volume=2, membership=2))
        with pytest.raises(StaleEpochError):
            registry.check_and_learn(EpochStamp(volume=3, membership=1))
        # The newer volume epoch must NOT have been adopted.
        assert registry.current.volume == 2

    def test_advance_is_monotonic_per_component(self):
        registry = EpochRegistry(EpochStamp(volume=5))
        registry.advance(EpochStamp(volume=2, membership=7))
        assert registry.current.volume == 5
        assert registry.current.membership == 7

    def test_fencing_scenario(self):
        """The paper's crash-recovery fence: a pre-crash instance with an
        old volume epoch is boxed out after recovery bumps it."""
        node = EpochRegistry()
        old_instance_stamp = EpochStamp(volume=1)
        node.check_and_learn(old_instance_stamp)  # pre-crash write: fine
        recovered_stamp = EpochStamp(volume=2)
        node.advance(recovered_stamp)  # recovery recorded the new epoch
        with pytest.raises(StaleEpochError):
            node.check_and_learn(old_instance_stamp)  # zombie boxed out
        node.check_and_learn(recovered_stamp)  # new instance proceeds


class RecordingProbe:
    def __init__(self):
        self.changes = []
        self.stale = []

    def on_epoch_change(self, owner, old, new):
        self.changes.append((owner, old, new))

    def on_stale_epoch(self, owner, kind, presented, current, rejected=True):
        self.stale.append((owner, kind, presented, current, rejected))


@pytest.fixture
def stamps_built(monkeypatch):
    """Counts every ``EpochStamp`` constructed while the test runs."""
    built = []
    validate = EpochStamp.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(EpochStamp, "__post_init__", counting)
    return built


class TestCompareAVersion:
    """The data plane compares the stamp; only an epoch change derives."""

    def _registry(self):
        current = EpochStamp(volume=3, membership=2)
        registry = EpochRegistry(current)
        registry.audit_probe = RecordingProbe()
        registry.audit_owner = "seg0"
        return registry, current

    def test_identical_and_equal_stamps_build_and_report_nothing(
        self, stamps_built
    ):
        registry, current = self._registry()
        equal = EpochStamp(volume=3, membership=2)
        del stamps_built[:]
        for _ in range(100):
            registry.check_and_learn(current)
            registry.check_and_learn(equal)
            registry.advance(current)
            registry.advance(equal)
        assert stamps_built == []
        assert registry.audit_probe.changes == []
        assert registry.current is current
        assert registry.rejections == 0

    def test_a_newer_stamp_is_adopted_with_exactly_one_report(
        self, stamps_built
    ):
        registry, current = self._registry()
        newer = EpochStamp(volume=4, membership=2)
        del stamps_built[:]
        registry.check_and_learn(newer)
        registry.check_and_learn(newer)
        assert stamps_built == []
        assert registry.current is newer
        assert registry.audit_probe.changes == [("seg0", current, newer)]

    def test_a_stale_stamp_still_raises_counts_and_reports(self):
        registry, current = self._registry()
        with pytest.raises(StaleEpochError):
            registry.check_and_learn(EpochStamp(volume=3, membership=1))
        assert registry.rejections == 1
        assert registry.current is current
        assert registry.audit_probe.changes == []
        assert registry.audit_probe.stale == [
            ("seg0", "membership", 1, 2, True)
        ]

    def test_advance_reports_only_a_real_change(self):
        registry, current = self._registry()
        registry.advance(EpochStamp(volume=1, membership=1))  # all behind
        assert registry.current == current
        assert registry.audit_probe.changes == []
        registry.advance(EpochStamp(volume=1, membership=5))
        merged = EpochStamp(volume=3, membership=5)
        assert registry.current == merged
        assert registry.audit_probe.changes == [("seg0", current, merged)]
