"""Tests for repro.mpi.faults — deterministic fault injection.

The contract under test: a FaultPlan is a pure function of
(seed, coordinates), so the same seed reproduces the same faults
byte-for-byte; `--faults off` (plan=None) leaves every timing exactly
as the fault-free path computes it; and a failed rank surfaces as a
diagnostic RankFailedError instead of a hang.
"""

import collections
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import (
    Comm,
    DeadlockError,
    FAULT_PRESETS,
    FaultPlan,
    MPIWorld,
    PingPong,
    RankFailedError,
    active_plan,
    fault_drift_report,
    get_active_plan,
    parse_fault_spec,
)
from repro.mpi.faults import FaultSpecError, list_presets
from repro.mpi.bindings import IMB_C
from repro.mpi.network import TofuDNetwork
from repro.mpi.topology import TofuDTopology


class TestFaultPlanDecisions:
    def test_defaults_are_fault_free(self):
        plan = FaultPlan(seed=3)
        assert not plan.any_link_faults
        assert not plan.is_lost(0, 1, 1e-6, 0)
        assert not plan.is_straggler(0)
        assert not plan.is_failed(0)
        assert plan.compute_factor(0) == 1.0
        assert plan.link_multipliers(0, 1) == (1.0, 1.0)
        assert "no faults" in plan.describe()

    def test_decisions_are_pure(self):
        plan = FaultPlan(seed=7, loss_rate=0.5, straggler_fraction=0.5,
                         failure_fraction=0.5, link_degrade_fraction=0.5)
        for _ in range(3):
            assert plan.is_lost(0, 1, 1e-6, 0) == plan.is_lost(0, 1, 1e-6, 0)
            assert plan.is_straggler(5) == plan.is_straggler(5)
            assert plan.is_failed(5) == plan.is_failed(5)
            assert plan.link_is_degraded(0, 1) == plan.link_is_degraded(0, 1)

    def test_link_degradation_is_undirected(self):
        plan = FaultPlan(seed=1, link_degrade_fraction=0.5)
        for a in range(4):
            for b in range(4):
                assert plan.link_is_degraded(a, b) == plan.link_is_degraded(b, a)

    def test_fractions_cover_expected_share(self):
        plan = FaultPlan(seed=0, straggler_fraction=0.25)
        share = sum(plan.is_straggler(r) for r in range(1000)) / 1000
        assert 0.15 < share < 0.35

    def test_explicit_failed_ranks(self):
        plan = FaultPlan(failed_ranks=(3, 1, 3))
        assert plan.failed_ranks == (1, 3)
        assert plan.is_failed(1) and plan.is_failed(3)
        assert not plan.is_failed(0)
        assert plan.failed_ranks_in(4) == [1, 3]

    def test_validation(self):
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(ValueError, match="straggler_factor"):
            FaultPlan(straggler_factor=0.5)
        with pytest.raises(ValueError, match="max_retransmits"):
            FaultPlan(max_retransmits=0)
        with pytest.raises(ValueError, match="recv_timeout"):
            FaultPlan(recv_timeout=-1.0)


class TestParseFaultSpec:
    def test_off_parses_to_none(self):
        assert parse_fault_spec(None) is None
        assert parse_fault_spec("off") is None
        assert parse_fault_spec("") is None
        assert parse_fault_spec("  none ") is None

    @pytest.mark.parametrize("name", sorted(set(FAULT_PRESETS) - {"off"}))
    def test_presets_parse(self, name):
        plan = parse_fault_spec(name, seed=9)
        assert isinstance(plan, FaultPlan)
        assert plan.seed == 9

    def test_severity_suffix_overrides_primary_knob(self):
        assert parse_fault_spec("lossy:0.1").loss_rate == 0.1
        assert parse_fault_spec("degraded:0.5").link_degrade_fraction == 0.5

    def test_key_value_overrides(self):
        plan = parse_fault_spec("lossy,loss_rate=0.3,max_retransmits=2")
        assert plan.loss_rate == 0.3
        assert plan.max_retransmits == 2

    def test_bare_key_values(self):
        plan = parse_fault_spec("straggler_fraction=0.5,straggler_factor=2")
        assert plan.straggler_fraction == 0.5
        assert plan.straggler_factor == 2.0

    def test_failed_ranks_plus_syntax(self):
        plan = parse_fault_spec("failed_ranks=0+3,recv_timeout=1e-3")
        assert plan.failed_ranks == (0, 3)
        assert plan.recv_timeout == 1e-3

    def test_errors_list_valid_names(self):
        with pytest.raises(ValueError, match="valid: .*lossy"):
            parse_fault_spec("bogus")
        with pytest.raises(ValueError, match="valid: .*loss_rate"):
            parse_fault_spec("nonsense_knob=1")
        with pytest.raises(ValueError, match="bad severity"):
            parse_fault_spec("lossy:not-a-number")
        with pytest.raises(ValueError, match="must be key=value"):
            parse_fault_spec("loss_rate=0.1,lossy")

    def test_seed_changes_decisions_not_structure(self):
        a = parse_fault_spec("straggler", seed=0)
        b = parse_fault_spec("straggler", seed=1)
        assert dataclasses.replace(a, seed=1) == b

    def test_errors_are_one_typed_exception(self):
        bad = [
            "bogus",                      # unknown preset
            "nonsense_knob=1",            # unknown parameter
            "lossy:not-a-number",         # bad severity
            "lossy,,loss_rate=0.1",       # doubled comma
            "lossy,loss_rate=0.1,",       # trailing comma
            ",lossy",                     # leading comma
            "loss_rate=0.1,loss_rate=0.2",  # duplicate key
            "loss_rate=0.1,lossy",        # non-leading preset
            "straggler:2,straggler_fraction=0.5",  # dup: severity + key
            "loss_rate=5",                # out-of-range value
            "loss_rate=abc",              # unparseable float
        ]
        for spec in bad:
            with pytest.raises(FaultSpecError, match="bad fault spec"):
                parse_fault_spec(spec)

    def test_empty_segment_message(self):
        with pytest.raises(FaultSpecError, match="empty segment"):
            parse_fault_spec("lossy,,loss_rate=0.1")

    def test_duplicate_key_message(self):
        with pytest.raises(FaultSpecError, match="duplicate fault parameter"):
            parse_fault_spec("loss_rate=0.1,loss_rate=0.2")

    def test_severity_then_same_knob_is_duplicate(self):
        with pytest.raises(FaultSpecError, match="duplicate fault parameter"):
            parse_fault_spec("lossy:0.1,loss_rate=0.3")
        # Overriding a preset *default* (no severity given) stays legal.
        assert parse_fault_spec("lossy,loss_rate=0.3").loss_rate == 0.3

    def test_fault_spec_error_is_value_error(self):
        # Callers that guard with `except ValueError` keep working.
        assert issubclass(FaultSpecError, ValueError)

    @pytest.mark.parametrize("spec,seed", [
        ("lossy", 0),
        ("degraded:0.5,degrade_latency_factor=8", 1),
        ("straggler:0.25,straggler_factor=6", 2),
        ("partition,partition_duration=1.2e-4", 3),
        ("failed_ranks=0+3,recv_timeout=1e-3", 4),
        ("off", 5),
    ])
    def test_to_spec_round_trips(self, spec, seed):
        plan = parse_fault_spec(spec, seed=seed)
        if plan is None:
            assert spec == "off"
            return
        assert parse_fault_spec(plan.to_spec(), seed=seed) == plan

    def test_list_presets_catalogue(self):
        presets = list_presets()
        assert set(presets) == set(FAULT_PRESETS) | {"off"}
        entry = presets["partition"]
        assert entry["severity_knob"] == "partition_fraction"
        assert entry["summary"]
        assert entry["plan"] is not None
        assert presets["off"]["plan"] is None


class TestPartition:
    def test_membership_is_pure_and_seeded(self):
        plan = FaultPlan(seed=4, partition_fraction=0.5,
                         partition_start=1e-6, partition_duration=1e-5)
        assert plan.partition_active
        for r in range(16):
            assert plan.in_partition(r) == plan.in_partition(r)
        other = dataclasses.replace(plan, seed=5)
        assert [plan.in_partition(r) for r in range(64)] != \
            [other.in_partition(r) for r in range(64)]

    def test_no_delay_outside_window_or_same_side(self):
        plan = FaultPlan(seed=0, partition_fraction=0.5,
                         partition_start=1e-5, partition_duration=1e-5)
        inside = plan.partition_ranks_in(16)
        outside = [r for r in range(16) if r not in inside]
        assert inside and outside
        src, dst = inside[0], outside[0]
        # Before the cut and at/after the heal: traffic flows.
        assert plan.partition_delay(src, dst, 0.0) == (0.0, 0)
        assert plan.partition_delay(src, dst, 2e-5) == (0.0, 0)
        # Same side of the cut: unaffected even mid-window.
        if len(inside) > 1:
            assert plan.partition_delay(inside[0], inside[1], 1.5e-5) == \
                (0.0, 0)

    def test_delay_lands_at_or_after_heal(self):
        plan = FaultPlan(seed=0, partition_fraction=0.5,
                         partition_start=0.0, partition_duration=1e-4,
                         retransmit_timeout=3e-5)
        inside = plan.partition_ranks_in(16)
        outside = [r for r in range(16) if r not in inside]
        src, dst = inside[0], outside[0]
        for t in (0.0, 1e-5, 9.9e-5):
            delay, attempts = plan.partition_delay(src, dst, t)
            assert attempts >= 1
            assert t + delay >= 1e-4  # heal time
            assert delay == pytest.approx(attempts * 3e-5)

    def test_partition_inflates_pingpong(self):
        base = PingPong(repetitions=2).run(
            IMB_C, sizes=(1024,), faults=None).latency_us
        plan = FaultPlan(seed=1, partition_fraction=0.5,
                         partition_start=0.0, partition_duration=6e-5)
        cut = PingPong(repetitions=2).run(
            IMB_C, sizes=(1024,), faults=plan).latency_us
        assert cut[0] > base[0]

    def test_partition_charges_stats(self):
        plan = FaultPlan(seed=1, partition_fraction=0.5,
                         partition_start=0.0, partition_duration=1e-4)
        world = MPIWorld(nranks=8, faults=plan)

        def prog(comm: Comm):
            for _ in range(4):
                if comm.rank == 0:
                    for peer in range(1, 8):
                        yield comm.send(peer, nbytes=1024)
                else:
                    yield comm.recv(0)

        world.run(prog)
        assert world.last_stats.messages_lost > 0
        assert world.last_stats.retransmits > 0

    def test_same_seed_byte_identical_results(self):
        plan = FaultPlan(seed=2, partition_fraction=0.25,
                         partition_start=5e-6, partition_duration=6e-5)
        a = PingPong(repetitions=2).run(IMB_C, sizes=(1024, 16384),
                                        faults=plan).latency_us
        b = PingPong(repetitions=2).run(IMB_C, sizes=(1024, 16384),
                                        faults=plan).latency_us
        assert a == b

    def test_inactive_partition_is_byte_identical_to_off(self):
        # partition_duration=0 => no partition; loss hashing must be
        # unchanged so prior faulted runs stay byte-identical.
        lossy = FaultPlan(seed=3, loss_rate=0.2)
        lossy_with_noop = dataclasses.replace(
            lossy, partition_fraction=0.5, partition_duration=0.0)
        a = PingPong(repetitions=2).run(IMB_C, sizes=(1024,),
                                        faults=lossy).latency_us
        b = PingPong(repetitions=2).run(IMB_C, sizes=(1024,),
                                        faults=lossy_with_noop).latency_us
        assert a == b

    def test_preset_parses(self):
        plan = parse_fault_spec("partition:0.5", seed=1)
        assert plan.partition_fraction == 0.5
        assert plan.partition_active
        assert "partition" in plan.describe()


class TestActivePlan:
    def test_context_manager_scopes_and_restores(self):
        assert get_active_plan() is None
        plan = FaultPlan(seed=5, loss_rate=0.1)
        with active_plan(plan):
            assert get_active_plan() is plan
            world = MPIWorld(nranks=2)
            assert world.faults is plan
        assert get_active_plan() is None

    def test_explicit_plan_wins_over_active(self):
        outer = FaultPlan(seed=1, loss_rate=0.5)
        inner = FaultPlan(seed=2)
        with active_plan(outer):
            assert MPIWorld(nranks=2, faults=inner).faults is inner


class TestNetworkDegradation:
    def _network(self, plan):
        topo = TofuDTopology.for_ranks(2, ranks_per_node=1)
        return TofuDNetwork(topo, faults=plan)

    def test_degraded_link_inflates_wire_time(self):
        healthy = self._network(None)
        # Force the single inter-node link degraded.
        plan = FaultPlan(seed=0, link_degrade_fraction=1.0,
                         degrade_latency_factor=4.0,
                         degrade_bandwidth_factor=2.0)
        degraded = self._network(plan)
        for nbytes in (8, 65536):
            assert degraded.wire_time(0, 1, nbytes).seconds > \
                healthy.wire_time(0, 1, nbytes).seconds

    def test_off_plan_is_byte_identical(self):
        base = self._network(None)
        noop = self._network(FaultPlan(seed=123))
        for nbytes in (8, 1024, 65536):
            assert noop.wire_time(0, 1, nbytes) == base.wire_time(0, 1, nbytes)


class TestEngineFaults:
    def _pingpong_latencies(self, plan, sizes=(1024, 16384)):
        return PingPong(repetitions=2).run(IMB_C, sizes=sizes,
                                           faults=plan).latency_us

    def test_same_seed_is_byte_identical(self):
        plan = parse_fault_spec("lossy", seed=1)
        again = parse_fault_spec("lossy", seed=1)
        assert self._pingpong_latencies(plan) == \
            self._pingpong_latencies(again)

    def test_loss_inflates_latency_and_counts_retransmits(self):
        base = self._pingpong_latencies(None)
        plan = FaultPlan(seed=1, loss_rate=0.3)
        world = MPIWorld(nranks=2, faults=plan)

        def prog(comm: Comm):
            for _ in range(20):
                if comm.rank == 0:
                    yield comm.send(1, nbytes=1024)
                else:
                    yield comm.recv(0)

        world.run(prog)
        assert world.last_stats.messages_lost > 0
        assert world.last_stats.retransmits > 0
        lossy = self._pingpong_latencies(plan)
        assert all(f >= b for f, b in zip(lossy, base))
        assert any(f > b for f, b in zip(lossy, base))

    def test_straggler_slows_compute(self):
        plan = FaultPlan(seed=0, straggler_fraction=1.0, straggler_factor=3.0)
        world = MPIWorld(nranks=1, faults=plan)

        def prog(comm: Comm):
            yield comm.compute(1e-3)
            return (yield comm.now())

        assert world.run(prog)[0] == pytest.approx(3e-3)

    def test_per_rank_decisions_are_drawn_once_per_world(self, monkeypatch):
        """Straggler and partition membership are pure per-rank hashes:
        a world draws each rank's once, however many operations and
        messages it runs."""
        from repro.mpi import faults

        calls = collections.Counter()
        real = faults._hash01

        def counting(seed, kind, *parts):
            calls[kind] += 1
            return real(seed, kind, *parts)

        monkeypatch.setattr(faults, "_hash01", counting)
        plan = FaultPlan(seed=3, straggler_fraction=0.5, straggler_factor=2.0,
                         partition_fraction=0.5, partition_start=0.0,
                         partition_duration=1e-5)
        world = MPIWorld(nranks=4, faults=plan)

        def prog(comm: Comm):
            peer = comm.rank ^ 1
            for _ in range(10):
                yield comm.compute(1e-6)
                if comm.rank % 2 == 0:
                    yield comm.send(peer, nbytes=64)
                    yield comm.recv(peer)
                else:
                    yield comm.recv(peer)
                    yield comm.send(peer, nbytes=64)
            return (yield comm.now())

        world.run(prog)
        assert calls["straggler"] == 4
        assert calls["partition"] == 4

    def test_failed_rank_raises_rank_failed_not_hang(self):
        plan = FaultPlan(failed_ranks=(1,), recv_timeout=1e-3)
        world = MPIWorld(nranks=2, faults=plan)

        def prog(comm: Comm):
            yield comm.recv(1 - comm.rank)

        with pytest.raises(RankFailedError) as err:
            world.run(prog)
        msg = str(err.value)
        assert "rank 0 timed out" in msg
        assert "rank 1 has failed" in msg
        assert err.value.rank == 0
        assert err.value.peer == 1

    def test_failed_rank_without_timeout_hits_deadlock_backstop(self):
        plan = FaultPlan(failed_ranks=(1,))
        world = MPIWorld(nranks=2, faults=plan)

        def prog(comm: Comm):
            yield comm.recv(1 - comm.rank)

        with pytest.raises(DeadlockError, match="rank 0 waiting"):
            world.run(prog)


class TestDriftReport:
    def test_structure_and_baseline(self):
        doc = fault_drift_report(
            seed=1, severities=["off", "straggler"], nranks=4,
            sizes=(1024,), repetitions=1,
        )
        assert set(doc["severities"]) == {"off", "straggler"}
        off = doc["severities"]["off"]
        assert off["pingpong_inflation"] == pytest.approx(1.0)
        assert off["allreduce_slowdown"] == pytest.approx(1.0)
        assert off["error"] is None

    def test_off_baseline_added_when_missing(self):
        doc = fault_drift_report(seed=1, severities=["lossy"], nranks=2,
                                 sizes=(1024,), repetitions=1)
        assert "off" in doc["severities"]

    def test_failstop_reports_error_not_raise(self):
        doc = fault_drift_report(
            seed=1, severities=["off", "failed_ranks=0+1,recv_timeout=1e-4"],
            nranks=4, sizes=(1024,), repetitions=1,
        )
        entry = doc["severities"]["failed_ranks=0+1,recv_timeout=1e-4"]
        assert entry["error"] is not None
        assert "timed out" in entry["error"]
        assert entry["failed_ranks"] == [0, 1]


_FAULT_TOKENS = st.sampled_from(
    ["off", "none", "lossy", "degraded", "straggler", "failstop",
     "partition", "lossy:0.1", "failstop:2", "bogus", ""]
) | st.builds(
    "{}={}".format,
    st.sampled_from(["loss_rate", "failed_ranks", "recv_timeout",
                     "max_retransmits", "seed", "nope"]),
    st.text(alphabet="0123456789.+-eEinfa", max_size=6),
)


@given(st.text(max_size=30)
       | st.lists(_FAULT_TOKENS, max_size=4).map(",".join))
@settings(max_examples=300, deadline=None)
def test_parse_fault_spec_returns_a_plan_none_or_a_fault_spec_error(text):
    """``--faults`` and ``--severities`` validate with it at parse time,
    so any text must end in a plan, no plan, or a typed error."""
    try:
        plan = parse_fault_spec(text)
    except FaultSpecError:
        return
    assert plan is None or isinstance(plan, FaultPlan)
