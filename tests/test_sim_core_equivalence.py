"""Differential equivalence: the engine must be byte-identical to the
reference object core.

Every :class:`~repro.mpi.comm.MPIWorld` runs
:class:`~repro.mpi.simulator.Engine`, which reorders *execution* —
memoised timing tables, tuple events, wave commits of neutral ops and
of compiled collectives — but must never reorder *observable
behaviour*: every rank's virtual times, returned values, and the run's
traffic statistics have to match the object core bit for bit.  The
object core is the oracle in ``tests/object_core.py``, reached only
through :func:`object_core`, which swaps it in for the engine class
``MPIWorld.run`` instantiates.  These tests pin that contract:

* figure-level equality on the real Fig. 2/3 workloads (reduced size);
* CLI-level equality across ``--jobs``, ``--faults``, ``--guard
  observe`` and ``--resume`` (pool workers fork, so they inherit the
  swap);
* a hypothesis property test over randomly composed rank programs —
  mixed SendRecv rings, non-blocking halo exchanges, collectives,
  compute, odd topologies, per-rank bindings and fault plans — which
  is the backstop for event-order tie handling at the vector/scalar
  boundary;
* the dense hop matrix against the scalar dimension-ordered router;
* compiled collectives: a wave of equal :class:`Collective` ops commits
  from its round table, and must match both the object core and the
  engine with the compile taken out (:func:`expanded_only`), which
  drives the same generators op by op;
* the wave commits still fire, and only with no delivery in flight
  (an equivalence test cannot see a commit that never runs).
"""

from __future__ import annotations

import contextlib
import json
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from object_core import object_core
from repro.core import figures
from repro.mpi import Comm, MPIWorld
from repro.mpi import schedules, simulator
from repro.mpi.bindings import IMB_C, MPI_JL
from repro.mpi.comm import Engine
from repro.mpi.faults import FAULT_PRESETS, parse_fault_spec
from repro.mpi.simulator import RankFailedError
from repro.mpi.topology import TofuDTopology


def _stats_doc(world: MPIWorld) -> dict:
    s = world.last_stats
    return {
        "messages": s.messages,
        "bytes": s.bytes_sent,
        "eager": s.eager_messages,
        "rendezvous": s.rendezvous_messages,
        "shm": s.shm_messages,
        "max_hops": s.max_hops,
        "sends_by_rank": dict(s.sends_by_rank),
    }


def _run_world(make_world, program, *args):
    """``(results, stats)`` of one run, or ``(error message, None)``
    when the run raises :class:`RankFailedError`."""
    world = make_world()
    try:
        return world.run(program, *args), _stats_doc(world)
    except RankFailedError as exc:
        return str(exc), None


@contextlib.contextmanager
def expanded_only():
    """Run the enclosed code with no collective compiled: every
    :class:`Collective` expands into its generator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schedules, "schedule_for", lambda op, size: None)
        yield


def _both_cores(make_world, program, *args):
    with object_core():
        ref = _run_world(make_world, program, *args)
    return ref, _run_world(make_world, program, *args)


def _three_cores(make_world, program, *args):
    """Object core, the engine with the compile taken out, the engine."""
    ref, got = _both_cores(make_world, program, *args)
    with expanded_only():
        expanded = _run_world(make_world, program, *args)
    return ref, expanded, got


@contextlib.contextmanager
def committed():
    """Record the collectives of every round table committed."""
    seen = []
    apply = Engine._apply

    def spy(self, plan, wave, ahead):
        seen.append(tuple(op.kind for op in plan.sched.collectives))
        return apply(self, plan, wave, ahead)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_apply", spy)
        yield seen


# ---------------------------------------------------------------------------
# Figure-level equality
# ---------------------------------------------------------------------------
class TestFigureEquality:
    def test_fig2_identical(self):
        with object_core():
            ro = figures.fig2_pingpong()
        rb = figures.fig2_pingpong()
        assert json.dumps(ro, sort_keys=True, default=repr) == json.dumps(
            rb, sort_keys=True, default=repr
        )

    def test_fig3_reduced_identical(self):
        run = lambda: figures.fig3_collectives(
            sizes=[4, 1024, 262144], nranks=96, repetitions=2
        )
        with object_core():
            ro = run()
        rb = run()
        assert json.dumps(ro, sort_keys=True, default=repr) == json.dumps(
            rb, sort_keys=True, default=repr
        )


# ---------------------------------------------------------------------------
# CLI-level equality (exec-engine modes)
# ---------------------------------------------------------------------------
def _cli(capsys, *argv: str) -> str:
    from repro.cli import main

    code = main(list(argv))
    out = capsys.readouterr().out
    assert code in (0, 1), f"repro {' '.join(argv)} exited {code}"
    return out


class TestCLIEquality:
    def test_plain_and_jobs(self, capsys):
        with object_core():
            base = _cli(capsys, "run", "fig2", "--quiet")
        for extra in ([], ["--jobs", "2"]):
            got = _cli(capsys, "run", "fig2", "--quiet", *extra)
            assert got == base, f"fig2 output drifted under {extra}"

    def test_faults_and_guard_observe(self, capsys):
        for mode in (["--faults", "lossy", "--seed", "1"],
                     ["--guard", "observe"]):
            with object_core():
                ref = _cli(capsys, "run", "fig2", "--quiet", *mode)
            got = _cli(capsys, "run", "fig2", "--quiet", *mode)
            assert got == ref, f"fig2 output drifted under {mode}"

    def test_resume_across_cores(self, capsys, tmp_path):
        """A journal written under one core restores byte-identically
        under the other (results are core-independent, so a resumed run
        may freely switch cores)."""
        journal = str(tmp_path / "run.jnl")
        base = _cli(capsys, "run", "fig2", "--quiet", "--journal", journal)
        with object_core():
            resumed = _cli(capsys, "run", "fig2", "--quiet",
                           "--resume", journal)
        assert resumed == base


# ---------------------------------------------------------------------------
# Property-based equivalence over composed programs
# ---------------------------------------------------------------------------
PHASE = st.one_of(
    st.tuples(st.just("barrier")),
    st.tuples(st.just("allreduce"),
              st.sampled_from([8, 256, 4096, 70000])),
    # payload-free: one Collective op, compiled when a wave allows
    st.tuples(st.just("allreduce0"),
              st.sampled_from([8, 65536, 70000])),
    st.tuples(st.just("gatherv"),
              st.sampled_from([16, 2048, 70000]),
              st.integers(0, 3)),
    st.tuples(st.just("bcast"), st.sampled_from([64, 70000])),
    st.tuples(st.just("ring"), st.sampled_from([32, 70000]),
              st.integers(1, 3)),
    st.tuples(st.just("compute"), st.integers(0, 5)),
    st.tuples(st.just("xchg"), st.sampled_from([8, 4096, 70000]),
              st.integers(0, 3)),
    st.tuples(st.just("now")),
    st.tuples(st.just("halo"), st.sampled_from([64, 70000])),
)


def _composed(phases):
    def program(comm: Comm):
        acc = comm.rank
        for phase in phases:
            kind = phase[0]
            if kind == "barrier":
                yield from comm.barrier()
            elif kind == "allreduce":
                acc = yield from comm.allreduce(
                    acc, op=operator.add, nbytes=phase[1]
                )
            elif kind == "allreduce0":
                yield from comm.allreduce(None, nbytes=phase[1])
            elif kind == "gatherv":
                root = phase[2] % comm.size
                got = yield from comm.gatherv(acc, root=root,
                                              nbytes=phase[1])
                if got is not None:
                    acc = sum(got) % 100003
            elif kind == "bcast":
                acc = yield from comm.bcast(acc, root=0, nbytes=phase[1])
            elif kind == "ring":
                shift = phase[2] % comm.size or 1
                dest = (comm.rank + shift) % comm.size
                src = (comm.rank - shift) % comm.size
                acc = yield comm.sendrecv(
                    dest, phase[1], src, send_payload=acc
                )
            elif kind == "compute":
                yield comm.compute(phase[1] * (comm.rank % 3 + 1) * 1e-7)
            elif kind == "xchg":
                # payload-free pairwise exchange (a lockstep round the
                # scalar path dispatches in wave order) on its own tag,
                # so a faster message from another phase cannot overtake
                # it; an unpaired rank computes instead
                partner = comm.rank ^ (1 << phase[2])
                if partner < comm.size:
                    yield comm.sendrecv(partner, phase[1], partner,
                                        send_tag=7, recv_tag=7)
                else:
                    yield comm.compute(1e-7)
            elif kind == "now":
                yield comm.now()
            elif kind == "halo":
                # non-blocking ring exchange, the distributed ShallowWaters
                # halo pattern, on tags no other phase uses
                left = (comm.rank - 1) % comm.size
                right = (comm.rank + 1) % comm.size
                to_left = yield comm.isend(left, phase[1], payload=acc,
                                           tag=11)
                to_right = yield comm.isend(right, phase[1], payload=acc,
                                            tag=12)
                from_left = yield comm.irecv(left, tag=12)
                from_right = yield comm.irecv(right, tag=11)
                west, east = yield comm.waitall([from_left, from_right])
                yield comm.wait(to_left)
                yield comm.wait(to_right)
                acc = (acc + west + east) % 100003
        t = yield comm.now()
        return (acc, t)

    return program


FAULTS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(sorted(FAULT_PRESETS)), st.integers(0, 1000)),
)


@settings(max_examples=30, deadline=None)
@given(
    nranks=st.integers(2, 16),
    rpn=st.sampled_from([1, 2, 4, 16]),
    phases=st.lists(PHASE, min_size=1, max_size=6),
    binding_mix=st.sampled_from(["imb", "jl", "mixed"]),
    faults=FAULTS,
)
# Deliveries in flight beside equal-time resumes: each resume a delivery
# makes must take its sequence number when that delivery pops, or
# equal-time resumes dispatch in the wrong order (ranks 5/6 swap here)...
@example(nranks=8, rpn=4, binding_mix="imb", faults=None,
         phases=[("barrier",), ("ring", 32, 2), ("allreduce", 8),
                 ("gatherv", 70000, 0)])
# ...and the same for a resume the object core runs between two
# deliveries (rank 0's time drifts here).
@example(nranks=16, rpn=2, binding_mix="jl", faults=None,
         phases=[("bcast", 70000), ("allreduce", 8), ("gatherv", 2048, 0)])
# Wave-commit regressions: a rank whose compute ends before a later
# member dispatches runs on first — ahead of a SendRecv member's send...
@example(nranks=13, rpn=2, binding_mix="imb", faults=None,
         phases=[("barrier",), ("xchg", 8, 1), ("allreduce", 4096)])
# ...or ahead of a later compute member's resume...
@example(nranks=13, rpn=4, binding_mix="jl", faults=None,
         phases=[("compute", 3), ("now",), ("barrier",), ("now",)])
# ...and a rank that resumes before another member's incoming delivery
# pops runs on before the object core creates that member's resume.
@example(nranks=11, rpn=2, binding_mix="imb", faults=None,
         phases=[("xchg", 8, 1), ("xchg", 8, 2), ("barrier",), ("now",)])
# Compiled collectives: a barrier right before a Gatherv (equal-time
# resumes decide which same-time sends queue first at the root)...
@example(nranks=16, rpn=4, binding_mix="imb", faults=None,
         phases=[("barrier",), ("gatherv", 16, 0)])
@example(nranks=12, rpn=2, binding_mix="jl", faults=None,
         phases=[("barrier",), ("now",), ("gatherv", 2048, 3)])
# ...a barrier or Allreduce entered at different times...
@example(nranks=16, rpn=2, binding_mix="imb", faults=None,
         phases=[("compute", 3), ("barrier",), ("compute", 5),
                 ("allreduce0", 8)])
@example(nranks=16, rpn=2, binding_mix="imb", faults=None,
         phases=[("compute", 3), ("allreduce0", 8), ("compute", 5),
                 ("barrier",)])
# ...non-power-of-two sizes (the Allreduce fold-in), chained after a
# barrier through Now...
@example(nranks=13, rpn=4, binding_mix="imb", faults=None,
         phases=[("barrier",), ("now",), ("allreduce0", 8), ("now",)])
@example(nranks=12, rpn=1, binding_mix="jl", faults=None,
         phases=[("allreduce0", 65536), ("gatherv", 16, 0)])
# ...sizes either side of the eager/rendezvous threshold...
@example(nranks=16, rpn=4, binding_mix="imb", faults=None,
         phases=[("barrier",), ("allreduce0", 65536),
                 ("allreduce0", 70000)])
# ...every rank on one node (shared memory only)...
@example(nranks=16, rpn=16, binding_mix="imb", faults=None,
         phases=[("barrier",), ("now",), ("allreduce0", 70000),
                 ("gatherv", 2048, 1)])
# ...and per-rank bindings.
@example(nranks=10, rpn=2, binding_mix="mixed", faults=None,
         phases=[("barrier",), ("now",), ("allreduce0", 8),
                 ("bcast", 64)])
# Non-blocking halo exchanges (Isend / Irecv / Wait / Waitall), eager
# and rendezvous, fault-free and on a lossy network.
@example(nranks=6, rpn=2, binding_mix="imb", faults=None,
         phases=[("halo", 70000), ("barrier",), ("halo", 64), ("now",)])
@example(nranks=8, rpn=2, binding_mix="jl", faults=("lossy", 5),
         phases=[("compute", 2), ("halo", 64), ("allreduce0", 8),
                 ("halo", 70000)])
def test_random_programs_equivalent(nranks, rpn, phases, binding_mix,
                                    faults):
    kwargs = {}
    if binding_mix == "imb":
        kwargs["binding"] = IMB_C
    elif binding_mix == "jl":
        kwargs["binding"] = MPI_JL
    else:
        kwargs["binding"] = IMB_C
        kwargs["bindings_by_rank"] = {
            r: MPI_JL for r in range(0, nranks, 2)
        }
    plan = None if faults is None else parse_fault_spec(
        faults[0], seed=faults[1]
    )
    make = lambda: MPIWorld(nranks=nranks, ranks_per_node=rpn,
                            faults=plan, **kwargs)
    ref, expanded, got = _three_cores(make, _composed(phases))
    assert expanded == ref
    assert got == ref


def test_same_tag_overtaking_matches_object_core():
    """Regression: two back-to-back gathervs where the second (small)
    message physically overtakes the first (large) one on the shm wire.
    The object core matches the *earlier-arriving* message first, and
    so must the engine, which has the large delivery queued while
    the source still has an earlier scheduled event (found by the
    property test above: nranks=2, phases gatherv 2048 then 16)."""
    make = lambda: MPIWorld(nranks=2, ranks_per_node=2, binding=IMB_C)
    program = _composed([("gatherv", 2048, 0), ("gatherv", 16, 0)])
    ref, got = _both_cores(make, program)
    assert got == ref


def test_faulted_world_equivalent():
    """With a fault plan the engine runs its scalar path — the
    outputs (including lost-message effects) must still match."""
    plan = parse_fault_spec("lossy", seed=3)
    make = lambda: MPIWorld(nranks=12, ranks_per_node=2, faults=plan)
    program = _composed([("barrier",), ("allreduce", 256),
                         ("ring", 32, 1)])
    ref, got = _both_cores(make, program)
    assert got == ref


def test_wave_commits_fire_only_with_no_delivery_in_flight():
    """On a fault-free 16-rank world the compiled-collective commit and
    the neutral-wave commit each run at least once, and a wave is only
    tried while the heap holds nothing but rank resumes.  The scalar
    path gives the same answers, so the equivalence tests alone would
    pass with either commit switched off."""
    cls = Engine
    collective, neutral, wave = (
        cls._commit_collective, cls._commit_neutral_wave, cls._wave
    )
    counts = {"collective": 0, "neutral": 0}

    def count_collective(self, members, ops):
        ok = collective(self, members, ops)
        counts["collective"] += ok
        return ok

    def count_neutral(self, members, ops):
        counts["neutral"] += 1
        return neutral(self, members, ops)

    def only_resumes(self):
        assert self._n_deliver == 0
        assert all(ev[2] == simulator._ADV for ev in self._events)
        return wave(self)

    make = lambda: MPIWorld(nranks=16, ranks_per_node=4, binding=IMB_C)
    program = _composed([("compute", 3), ("barrier",), ("now",),
                         ("allreduce0", 8)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_commit_collective", count_collective)
        mp.setattr(cls, "_commit_neutral_wave", count_neutral)
        mp.setattr(cls, "_wave", only_resumes)
        ref, got = _both_cores(make, program)
    assert got == ref
    assert counts["collective"] >= 1 and counts["neutral"] >= 1, counts


def test_fig3_point_worlds_compile_their_collectives():
    """A 96-rank Fig. 3 world commits its barrier, chained through the
    timer read into the Allreduce, from round tables rather than
    silently expanding them; the Gatherv world compiles its barrier."""
    with committed() as seen:
        figures.fig3_collectives_point("Allreduce", 1024, 96, 1)
    assert seen == [("barrier", "allreduce")] * 2  # one world per binding
    with committed() as seen:
        figures.fig3_collectives_point("Gatherv", 1024, 96, 1)
    assert seen == [("barrier",)] * 2


def test_compiled_barrier_then_gatherv_matches_object_core():
    """The members leave a compiled barrier with resume seqs in object
    core order: on the symmetric torus many leave at equal times, and
    the order of those resumes decides which same-time Gatherv sends
    queue first at the root's ingress."""
    def program(comm: Comm):
        yield from comm.barrier()
        yield from comm.gatherv(None, root=0, nbytes=4096)
        return (yield comm.now())

    make = lambda: MPIWorld(nranks=96, ranks_per_node=4, binding=MPI_JL)
    with committed() as seen:
        ref, expanded, got = _three_cores(make, program)
    assert ("barrier",) in seen
    assert got == ref and expanded == ref


# ---------------------------------------------------------------------------
# Dense hop matrix vs the scalar router
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "topo",
    [
        TofuDTopology(global_shape=(4, 6, 16), ranks_per_node=4),
        TofuDTopology(global_shape=(3, 2, 5), ranks_per_node=2),
        TofuDTopology(global_shape=(2, 3, 2), ranks_per_node=1,
                      use_local_axes=True),
    ],
    ids=["paper-4x6x16", "odd-3x2x5", "local-axes"],
)
def test_hops_matrix_matches_scalar(topo):
    mat = topo.hops_matrix()
    assert mat is not None and mat.shape == (topo.nodes, topo.nodes)
    step = max(1, topo.nodes // 48)
    sample = list(range(0, topo.nodes, step)) + [topo.nodes - 1]
    rpn = topo.ranks_per_node
    for na in sample:
        for nb in sample:
            if na == nb:
                continue
            assert int(mat[na, nb]) == topo.hops(na * rpn, nb * rpn), (
                na, nb
            )


def test_hops_matrix_cap():
    big = TofuDTopology(global_shape=(20, 20, 20), ranks_per_node=1)
    assert big.hops_matrix() is None  # above the dense-matrix cap
