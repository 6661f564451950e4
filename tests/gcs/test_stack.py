"""Unit tests for group stack assembly."""

import pytest

from repro.core.obsolescence import ItemTagging
from repro.core.spec import check_all
from repro.gcs.stack import GroupStack, StackConfig
from repro.registry import RegistryError


class TestConfigValidation:
    def test_defaults_valid(self):
        StackConfig()

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            StackConfig(n=0)

    def test_unknown_consensus_rejected(self):
        with pytest.raises(ValueError):
            StackConfig(consensus="paxos")

    def test_unknown_fd_rejected(self):
        with pytest.raises(ValueError):
            StackConfig(fd="psychic")

    def test_negative_stability_interval_rejected(self):
        with pytest.raises(ValueError, match="stability_interval"):
            StackConfig(consensus="oracle", stability_interval=-1.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_stability_interval_rejected(self, interval):
        """NaN used to pass the ``<= 0`` check and fail later, inside
        ``set_timer``, with an error that did not name the field."""
        with pytest.raises(ValueError, match="stability_interval"):
            StackConfig(consensus="oracle", stability_interval=interval)

    def test_unknown_relation_name_rejected(self):
        with pytest.raises(RegistryError):
            GroupStack("no-such-relation", StackConfig(consensus="oracle"))


class TestAssembly:
    def test_instance_relation_used_as_given(self):
        relation = ItemTagging()
        stack = GroupStack(relation, StackConfig(n=2, consensus="oracle"))
        assert stack.relation is relation
        assert all(proc.relation is relation for proc in stack)

    def test_simulator_runs_under_config_seed(self):
        stack = GroupStack("item-tagging", StackConfig(seed=42, consensus="oracle"))
        assert stack.sim.seed == 42

    def test_all_processes_share_initial_view(self):
        stack = GroupStack(ItemTagging(), StackConfig(n=4))
        for proc in stack:
            assert proc.cv.vid == 0
            assert proc.cv.members == frozenset(range(4))

    def test_members_sorted(self):
        stack = GroupStack(ItemTagging(), StackConfig(n=3))
        assert stack.members == [0, 1, 2]

    def test_len_and_getitem(self):
        stack = GroupStack(ItemTagging(), StackConfig(n=3))
        assert len(stack) == 3
        assert stack[1].pid == 1

    def test_recorder_can_be_disabled(self):
        stack = GroupStack(ItemTagging(), StackConfig(record_history=False))
        assert stack.recorder is None

    def test_heartbeat_fd_per_process(self):
        stack = GroupStack(ItemTagging(), StackConfig(n=3, fd="heartbeat"))
        detectors = {id(p.fd) for p in stack}
        assert len(detectors) == 3

    def test_oracle_fd_shared(self):
        stack = GroupStack(ItemTagging(), StackConfig(n=3, fd="oracle"))
        detectors = {id(p.fd) for p in stack}
        assert len(detectors) == 1


class TestPartialHosting:
    CONFIG = StackConfig(n=3, consensus="chandra-toueg", fd="heartbeat")

    def test_pids_restrict_local_members(self):
        stack = GroupStack("item-tagging", self.CONFIG, pids=[2, 0, 2])
        assert stack.members == [0, 2]
        assert sorted(stack.network.pids) == [0, 2]
        # Hosting fewer members does not shrink the group itself.
        for proc in stack:
            assert proc.cv.members == frozenset(range(3))

    @pytest.mark.parametrize(
        "pids, message",
        [
            ([3], r"pids must lie in range\(3\): \[3\]"),
            ([0, -1], r"pids must lie in range\(3\): \[-1\]"),
            ([], "at least one local member"),
        ],
        ids=["beyond-n", "negative", "empty"],
    )
    def test_bad_pids_rejected(self, pids, message):
        with pytest.raises(ValueError, match=message):
            GroupStack("item-tagging", self.CONFIG, pids=pids)


@pytest.mark.parametrize("consensus", ["oracle", "chandra-toueg"])
@pytest.mark.parametrize("fd", ["oracle", "heartbeat"])
class TestSubstrateMatrix:
    def test_crash_and_reconfigure(self, consensus, fd):
        """All four consensus × fd combinations safely reconfigure."""
        stack = GroupStack(
            ItemTagging(), StackConfig(n=4, consensus=consensus, fd=fd)
        )
        for i in range(10):
            stack[0].multicast(i, annotation=i % 2)
        stack.run(until=0.3)
        stack.crash(3)
        stack.run(until=0.8)
        stack[0].trigger_view_change()
        stack.settle(max_time=20.0)
        survivors = [stack[p] for p in (0, 1, 2)]
        assert all(p.cv.vid == 1 for p in survivors)
        assert all(p.cv.members == frozenset({0, 1, 2}) for p in survivors)
        stack.drain_all()
        assert check_all(stack.recorder, stack.relation) == []


class TestHelpers:
    def test_settle_returns_when_quiet(self):
        stack = GroupStack(ItemTagging(), StackConfig(n=3))
        stack[0].trigger_view_change()
        stack.settle(max_time=10.0)
        assert not any(p.blocked for p in stack)

    def test_live_members_excludes_crashed_and_excluded(self):
        stack = GroupStack(ItemTagging(), StackConfig(n=3))
        stack.crash(2)
        stack.run(until=0.5)
        stack[0].trigger_view_change(leave=(1,))
        stack.settle(max_time=10.0)
        assert stack.live_members() == [0]

    def test_drain_all_empties_live_queues(self):
        stack = GroupStack(ItemTagging(), StackConfig(n=3))
        stack[0].multicast("x", annotation=None)
        stack.run(until=0.1)
        stack.drain_all()
        assert all(p.pending == 0 for p in stack)
