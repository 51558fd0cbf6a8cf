"""Command-line interface: run registered experiments from the shell.

Usage::

    python -m repro list                      # show registered experiments
    python -m repro run fig1 --scale ci       # run one, print the report
    python -m repro run all --scale ci        # run everything
    python -m repro run all --jobs 4          # ... on a 4-process pool
    python -m repro run all --cache --stats   # cached + engine metrics
    python -m repro run all --stats --json    # machine-readable stats
    python -m repro run all --faults lossy --seed 7   # fault injection
    python -m repro run fig3 --trace out.json # record spans + sim events
    python -m repro trace summarize out.json  # inspect a recorded trace
    python -m repro run all --journal run.jnl # crash-safe write-ahead log
    python -m repro run all --resume run.jnl  # restore + finish the rest
    python -m repro journal show run.jnl      # inspect a journal
    python -m repro journal verify run.jnl    # checksum/torn-tail check
    python -m repro run fig4 --guard observe  # numerical sentinels on
    python -m repro run fig4 --guard repair --guard-inject overflow16
    python -m repro guard report guard.json   # inspect a guard report
    python -m repro faults --seed 42          # fault-severity drift sweep
    python -m repro faults --list-presets     # built-in fault presets
    python -m repro campaign list             # built-in scenario packs
    python -m repro campaign run mixed-chaos  # chaos campaign + scoreboard
    python -m repro campaign autopilot --seed 7 --budget 20 \
        --freeze-dir tests/golden/scenarios   # search + freeze regressions
    python -m repro campaign replay           # frozen scenarios still bite?
    python -m repro claims fig5               # show the checked claims
    python -m repro cache clear               # drop cached outcomes
    python -m repro chaos crashpoints --seed 7  # storage-chaos sweep
    python -m repro chaos replay              # frozen crashpoints safe?

Every ``run`` goes through the execution engine in :mod:`repro.exec`;
with the defaults (``--jobs 1``, no cache, ``--faults off``) its output
is byte-identical to the original serial path.  Exit status is non-zero
if any claim fails, so the CLI doubles as a reproduction gate in CI.
``--faults SPEC --seed N`` injects a deterministic fault plan (degraded
links, message loss, stragglers, rank failure) into every simulated MPI
world; ``--task-timeout``/``--retries`` bound and retry sweep-point
tasks so one bad point degrades its experiment instead of killing the
run.  ``--trace FILE`` records an observability trace (wall spans,
virtual-clock simulator events, metrics) without touching stdout — the
file opens in ``chrome://tracing`` (or, with a ``.jsonl`` suffix, greps
cleanly) and ``repro trace summarize`` renders it as text.

Numerical guardrails: ``--guard observe|strict|repair`` turns on the
:mod:`repro.guard` subsystem — vectorised NaN/Inf/overflow/subnormal
sentinels inside ShallowWaters stepping, roofline contracts on modelled
BLAS GFLOP/s, virtual-clock monotonicity and reduction-payload checks
in the MPI simulator.  ``observe`` records without changing a byte of
output; ``strict`` fails a task on the first violation (a structured
numerical error, distinct from a crash); ``repair`` rescues failing
ShallowWaters points through the paper's scale → compensated → promote
ladder and annotates the result as ``degraded`` with the full
remediation chain.  ``--guard-inject overflow16`` plants a synthetic
Float16 overflow to exercise the machinery; ``--guard-out FILE`` writes
the guard report as JSON and ``repro guard report`` renders it (or
digs the same data out of a ``--journal`` file).

Robustness: ``--journal FILE`` appends an fsync'd, checksummed record
of every task dispatch/completion, so a SIGKILL/OOM mid-run loses no
finished work; ``--resume FILE`` restores the completed sweep points
and only dispatches the remainder (figures byte-identical to an
uninterrupted run).  SIGINT/SIGTERM trigger a graceful drain — stop
dispatching, give in-flight tasks ``--grace`` seconds, flush
journal/trace — and exit with the resumable status 75 (``EX_TEMPFAIL``)
instead of a traceback; a second signal force-quits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import threading
from importlib import import_module
from typing import List, Optional

from .core.experiments import REGISTRY
from .exec import (
    DEFAULT_CACHE_DIR,
    GUARD_INJECTIONS,
    RESUMABLE_EXIT_CODE,
    Engine,
    JournalError,
    JournalWriter,
    ResultCache,
    guard_summary,
    journal_summary,
    load_journal,
    verify_journal,
)
from .exec.journal import try_load_journal
from .chaos.workloads import WORKLOADS as CHAOS_WORKLOADS
from .guard import GUARD_MODES

__all__ = ["UsageError", "build_parser", "job_command", "main"]


class _GracefulShutdown:
    """SIGINT/SIGTERM → drain instead of dying.

    The first signal sets :attr:`event` (which the scheduler polls to
    stop dispatching and drain in-flight tasks); a second signal raises
    :class:`KeyboardInterrupt` to force-quit.  Handlers are restored on
    exit; outside the main thread (no signal access) the event still
    works as a manual cancel hook.
    """

    def __init__(self) -> None:
        self.event = threading.Event()
        self._old: dict = {}

    def _handle(self, signum, frame) -> None:
        if self.event.is_set():
            raise KeyboardInterrupt  # second signal: force-quit
        self.event.set()
        print(
            "interrupt: draining (in-flight tasks get a grace period; "
            "signal again to force-quit)",
            file=sys.stderr,
        )

    def __enter__(self) -> "_GracefulShutdown":
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old[sig] = signal.signal(sig, self._handle)
            except ValueError:  # not the main thread
                break
        return self

    def __exit__(self, *exc) -> None:
        for sig, old in self._old.items():
            signal.signal(sig, old)
        self._old.clear()


# ---------------------------------------------------------------------------
# The driver: every leaf subcommand is one _Command run the same way
# ---------------------------------------------------------------------------

def _error(message: str) -> int:
    """Report a usage error on stderr (stdout stays clean); exit 2."""
    print(message, file=sys.stderr)
    return 2


class UsageError(Exception):
    """A malformed invocation or job spec.  ``main`` prints ``usage``
    (empty for a value a flag's validator rejected) and the message,
    and exits 2; the serve API answers 400 with the message."""

    def __init__(self, message: str, usage: str = "") -> None:
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would exit, so a
    daemon's request threads can parse job specs too."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: error: {message}",
                         self.format_usage())


def _dumps(doc) -> str:
    """The one JSON layout every ``--json`` document and file uses."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _lazy(module: str, name: str, key: Optional[str] = None):
    """``repro.<module>.<name>`` applied to a doc, imported on first
    call so importing the CLI loads no more than it must.  With ``key``
    it is applied to ``doc[key]`` and renders nothing when that is
    empty."""
    def call(doc):
        fn = getattr(import_module(f"{__package__}.{module}"), name)
        if key is None:
            return fn(doc)
        return fn(doc[key]) if doc[key] else None
    return call


def _probe(path: str, verb: str, what: str) -> int:
    """Fail fast (2) on a bad output destination, before any work, so
    a typo'd path costs nothing.  ``write``: the file opens for
    appending (which never truncates, so a journal about to be resumed
    is safe); ``read``: it also exists already; ``open``: a metric
    store can be created there.  What the probe creates it removes
    again: the command creates an output when it writes one, so a usage
    error leaves no new file behind."""
    absent, parent = [], os.path.abspath(path)
    while not os.path.lexists(parent):
        absent.append(parent)
        parent = os.path.dirname(parent)
    try:
        if verb == "open":
            from .obs.collector import MetricsStore

            MetricsStore(path)
        else:
            if verb == "read":
                open(path, "r").close()
            open(path, "a").close()
    except OSError as exc:
        return _error(f"cannot {verb} {what} at {path!r}: {exc}")
    finally:
        for created in absent:  # deepest first
            if os.path.isdir(created):
                os.rmdir(created)
            elif os.path.lexists(created):
                os.unlink(created)
    return 0


def _arg(*names, output=None, **kw):
    """One argument of a command.  ``output=(verb, what)`` marks a flag
    naming a destination the driver probes (see :func:`_probe`)."""
    return names, kw, output


class _Command:
    """One leaf subcommand: its arguments, what it runs, how it prints.

    ``run(args, shutdown, recorder)`` returns ``(doc, exit_code)``.  A
    ``None`` doc means the command already said everything (or failed
    before any work); otherwise the driver prints it -- as JSON under
    ``--json`` (through ``to_json``, if given), as-is when it is text,
    else through ``render`` -- then writes the ``--trace`` file and,
    unless the run was interrupted (exit 75), the metric document
    ``collect(doc)`` into ``--metrics-dir``.  ``drains`` runs the
    command under :class:`_GracefulShutdown`.
    """

    def __init__(self, run, *args, render=None, to_json=None, collect=None,
                 drains=False) -> None:
        self.run, self.args, self.render = run, args, render
        self.to_json, self.collect, self.drains = to_json, collect, drains
        self.outputs = [(kw["dest"], output) for specs, _ in self.specs()
                        for _, kw, output in specs if output]

    def specs(self):
        """(argument specs, mutually-exclusive or not) in --help order."""
        for spec in self.args:
            yield (spec, True) if isinstance(spec, list) else ([spec], False)

    def __call__(self, args: argparse.Namespace) -> int:
        for dest, output in self.outputs:
            path = getattr(args, dest)
            if path is not None and _probe(path, *output):
                return 2
        recorder = None
        if getattr(args, "trace_path", None) is not None:
            from .obs import TraceRecorder

            recorder = TraceRecorder()
        from contextlib import nullcontext

        scope = _GracefulShutdown() if self.drains else nullcontext()
        with scope as shutdown:
            doc, code = self.run(args, shutdown, recorder)
        if doc is None:
            return code
        as_json = (getattr(args, "json_doc", False)
                   or getattr(args, "json_stats", False))
        shown = self.to_json(doc) if as_json and self.to_json else doc
        _emit(shown, as_json, self.render)
        if recorder is not None:
            from .obs import write_trace

            try:
                write_trace(recorder, args.trace_path)
            except OSError as exc:
                return _error(
                    f"cannot write trace to {args.trace_path!r}: {exc}")
            print(f"trace written to {args.trace_path}", file=sys.stderr)
        metrics_dir = getattr(args, "metrics_dir", None)
        if metrics_dir is not None and code != RESUMABLE_EXIT_CODE:
            from .obs.collector import MetricsStore

            try:
                path = MetricsStore(metrics_dir).write(self.collect(doc))
            except OSError as exc:
                return _error(
                    f"cannot write metric document to {metrics_dir!r}: {exc}")
            print(f"metric document written to {path}", file=sys.stderr)
        return code


def _emit(doc, as_json: bool, render) -> None:
    """Print a command's result: JSON, ready text, or rendered."""
    text = (_dumps(doc) if as_json
            else doc if isinstance(doc, str) else render(doc))
    if text is not None:
        print(text)


# ---------------------------------------------------------------------------
# Shared flags
# ---------------------------------------------------------------------------

def _int_at_least(low: int, note: str = ""):
    """argparse type for a bounded integer flag (``note`` explains the
    bound in the error)."""
    def parse(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}{note}, got {number}")
        return number
    parse.__name__ = "int"  # "invalid int value: 'x'"
    return parse


_JOBS = _int_at_least(0, " (0 = one per CPU)")


# Validators for names only the program knows.  They raise UsageError,
# which argparse lets through, so the complaint is the bare message.

def _experiment(all_ok: bool):
    def parse(key: str) -> str:
        if key in REGISTRY or (all_ok and key == "all"):
            return key
        raise UsageError(
            f"unknown experiment {key!r}; valid names: "
            f"{', '.join(sorted(REGISTRY))}" + " (or 'all')" * all_ok)
    return parse


def _valid(module: str, check: str, error: str, keep_result=False):
    """The value, once ``repro.<module>.<check>(value)`` accepts it (with
    ``keep_result``, ``(value, result)``, so the command need not run the
    check again); the module's ``error`` it raises becomes a UsageError."""
    def parse(value: str):
        found = import_module(f"{__package__}.{module}")
        try:
            result = getattr(found, check)(value)
        except getattr(found, error) as exc:
            raise UsageError(str(exc)) from None
        return (value, result) if keep_result else value
    return parse


def _bounded(convert, low, message: str):
    """A number ``convert`` parses, refused below ``low`` with the bare
    ``message`` (``{}`` is the number) the command used to print."""
    def parse(value: str):
        number = convert(value)
        if number < low:
            raise UsageError(message.format(number))
        return number
    parse.__name__ = convert.__name__  # "invalid float value: 'x'"
    return parse


_GRACE = _bounded(float, 0, "grace must be >= 0")
_FAULT_SPEC = _valid("mpi.faults", "parse_fault_spec", "FaultSpecError")


def _severities(text: str) -> List[str]:
    severities = [s.strip() for s in text.split(",") if s.strip()]
    if not severities:
        raise UsageError("no fault severities given")
    return [_FAULT_SPEC(spec) for spec in severities]


def _json(what: str, dest: str = "json_doc", note: str = ""):
    return _arg("--json", action="store_true", dest=dest,
                help=f"emit {what} as JSON on stdout{note}")


def _metrics(what: str):
    return _arg(
        "--metrics-dir", default=None, metavar="DIR", dest="metrics_dir",
        output=("open", "metric store"),
        help=f"snapshot {what} into a per-run metric document in DIR "
        "(see 'repro bench trend')",
    )


def _trace(text: str):
    return _arg("--trace", default=None, metavar="FILE", dest="trace_path",
                output=("write", "trace"), help=text)


def _journal(journal_help: str, resume_help: str):
    return [
        _arg("--journal", default=None, metavar="FILE", dest="journal_path",
             output=("write", "journal"), help=journal_help),
        _arg("--resume", default=None, metavar="FILE", dest="resume_path",
             output=("read", "journal"), help=resume_help),
    ]


def _out(what: str, text: str, dest: str = "out_path"):
    return _arg("--out", default=None, metavar="FILE", dest=dest,
                output=("write", what), help=text)


def _url(text: Optional[str] = None):
    return _arg("--url", default=None, metavar="URL", help=text)


# ---------------------------------------------------------------------------
# Commands: each returns (doc, exit code)
# ---------------------------------------------------------------------------

def _list(args, *_):
    width = max(len(k) for k in REGISTRY)
    return "\n".join(
        f"{key:<{width}}  {exp.artefact:<16} {exp.description}"
        for key, exp in REGISTRY.items()
    ), 0


def _claims(args, *_):
    return "\n".join(f"- {c.text}" for c in REGISTRY[args.key].claims), 0


def _cache(args, *_):
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        return f"removed {removed} cached outcome(s) from {cache.directory}", 0
    lines = [f"{cache.directory}: {len(cache)} cached outcome(s)"]
    corrupt = cache.corrupt_entries()
    if corrupt:
        lines.append(f"{len(corrupt)} quarantined corrupt entr"
                     f"{'y' if len(corrupt) == 1 else 'ies'}:")
        lines += [f"  {path}" for path in corrupt]
    return "\n".join(lines), 0


def _resume_mismatch(meta: dict, keys: List[str], scale: str,
                     fault_spec: Optional[str], fault_seed: int,
                     guard_meta: Optional[dict] = None,
                     ) -> Optional[str]:
    """Why a journal cannot resume this run (None when it can).

    Resuming under different experiments, scale, fault plan or guard
    settings would splice incompatible sweep points into one figure, so
    any mismatch is a usage error — rerun with the journal's own
    settings."""
    if meta.get("keys") != keys:
        return f"journal ran {meta.get('keys')}, requested {keys}"
    if meta.get("scale") != scale:
        return f"journal scale {meta.get('scale')!r}, requested {scale!r}"
    if meta.get("fault_spec") != fault_spec:
        return (f"journal fault spec {meta.get('fault_spec')!r}, "
                f"requested {fault_spec!r}")
    if meta.get("fault_seed", 0) != fault_seed:
        return (f"journal fault seed {meta.get('fault_seed')}, "
                f"requested {fault_seed}")
    if meta.get("guard") != guard_meta:
        return (f"journal guard settings {meta.get('guard')!r}, "
                f"requested {guard_meta!r}")
    return None


def _open_journal(args):
    """``--journal``/``--resume`` as the ``(writer, resume state)`` pair
    both runners take.  A resumed run appends to the journal it resumes
    from, so a second crash resumes from the union of both segments."""
    state, path = None, args.journal_path
    if args.resume_path is not None:
        try:
            state = load_journal(args.resume_path)
        except JournalError as exc:
            raise JournalError(
                f"cannot resume from {args.resume_path!r}: {exc}") from None
        path = args.resume_path
    return (None if path is None else JournalWriter(path)), state


def _run(args, shutdown, recorder):
    key = args.key
    keys = list(REGISTRY) if key == "all" else [key]
    if args.guard_out is not None and args.guard_mode == "off":
        return None, _error("--guard-out needs an active guard; add "
                            "--guard observe|strict|repair")
    try:
        journal, resume_state = _open_journal(args)
    except JournalError as exc:
        return None, _error(str(exc))

    use_cache = args.cache or args.cache_dir != DEFAULT_CACHE_DIR
    try:
        engine = Engine(
            jobs=args.jobs,
            cache=ResultCache(args.cache_dir) if use_cache else None,
            task_timeout=args.task_timeout,
            retries=args.retries,
            fault_spec=args.faults,
            fault_seed=args.seed,
            recorder=recorder,
            journal=journal,
            resume_state=resume_state,
            cancel_event=shutdown.event,
            grace=args.grace,
            heartbeat_timeout=args.watchdog,
            guard_mode=args.guard_mode,
            guard_cadence=args.guard_cadence,
            guard_inject=args.guard_inject,
        )
    except ValueError as exc:  # e.g. a non-positive --watchdog
        return None, _error(str(exc))

    if resume_state is not None:
        mismatch = _resume_mismatch(
            resume_state.meta or {}, keys, args.scale,
            engine.fault_spec, args.seed, engine.guard_meta(),
        )
        if mismatch:
            return None, _error(f"journal {args.resume_path!r} does not "
                                f"match this run: {mismatch}")

    profiler = None
    if args.profile_top is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        outcomes = engine.run_many(keys, scale=args.scale)
    except KeyboardInterrupt:
        # Second signal (force-quit) escaped the scheduler's drain:
        # still exit with the resumable status, not a traceback — the
        # journal already holds every fsync'd completion.
        outcomes = {}
        engine.stats.interrupted = True
    finally:
        if profiler is not None:
            profiler.disable()
    stats = engine.stats

    if recorder is not None:
        stats.publish_metrics(recorder)
    if args.guard_out is not None:
        report = stats.guard_report() or {"mode": args.guard_mode}
        try:
            with open(args.guard_out, "w") as f:
                f.write(_dumps(report) + "\n")
        except OSError as exc:
            return None, _error(
                f"cannot write guard report to {args.guard_out!r}: {exc}")
        print(f"guard report written to {args.guard_out}", file=sys.stderr)
    if profiler is not None:
        from .core.report import render_profile

        print(render_profile(profiler, args.profile_top), file=sys.stderr)
    if stats.resume is not None:
        r = stats.resume
        note = (
            f"resumed from {args.resume_path}: {r['restored']} task(s) "
            f"restored, {r['executed']} executed"
        )
        if r["stale"]:
            note += f", {r['stale']} stale (source changed)"
        print(note, file=sys.stderr)
    if stats.interrupted:
        if journal is not None:
            hint = f"; resume with: repro run {key} --resume {journal.path}"
        else:
            hint = " (no --journal: completed work was not saved)"
        print(
            f"run interrupted: {stats.interrupted_tasks} task(s) "
            f"unfinished{hint}",
            file=sys.stderr,
        )
        code = RESUMABLE_EXIT_CODE
    else:
        code = int(any(not o.passed for o in outcomes.values()))
    return {"stats": stats, "outcomes": outcomes, "keys": keys,
            "args": args}, code


def _run_json(run: dict) -> dict:
    doc = run["stats"].as_dict()
    doc["scale"] = run["args"].scale
    for entry in doc["experiments"]:
        outcome = run["outcomes"].get(entry["key"])
        if outcome is not None:
            entry["claims"] = [
                {"text": text, "ok": ok}
                for text, ok in outcome.claim_results
            ]
    return doc


def _render_run(run: dict) -> str:
    lines = []
    for k in run["keys"]:
        outcome = run["outcomes"].get(k)
        if outcome is None:  # cut short by the shutdown: no verdict
            lines.append(f"[....] {k} ({REGISTRY[k].artefact}) — interrupted")
            continue
        status = "PASS" if outcome.passed else "FAIL"
        lines.append(f"[{status}] {k} ({REGISTRY[k].artefact})")
        lines += [f"    {'ok  ' if ok else 'FAIL'} {text}"
                  for text, ok in outcome.claim_results]
        if not run["args"].quiet:
            lines += ["", outcome.report, ""]
    if run["args"].stats:
        lines.append(run["stats"].render())
    return "\n".join(lines)


def _collect_run(run: dict) -> dict:
    from .obs.collector import collect_run

    return collect_run(run["stats"], run["outcomes"], keys=run["keys"],
                       scale=run["args"].scale)


def _faults(args, shutdown, recorder):
    from .mpi.faults import fault_drift_report, list_presets
    from .obs import recording, trace_span

    if args.list_presets:  # a catalogue, not a sweep: nothing to record
        presets = list_presets()
        _emit(presets, args.json_doc, _render_presets)
        return None, 0
    severities = args.severities
    with recording(recorder), trace_span(
        "fault_sweep", category="sweep",
        seed=args.seed, severities=",".join(severities),
    ):
        doc = fault_drift_report(
            seed=args.seed,
            severities=severities,
            nranks=args.nranks,
            repetitions=args.repetitions,
            cancel=shutdown.event.is_set,
        )
    if doc.get("interrupted"):
        print(
            "fault sweep interrupted: partial results "
            f"({len(doc['severities'])}/{len(severities)} severities)",
            file=sys.stderr,
        )
        return doc, RESUMABLE_EXIT_CODE
    errors = sum(
        1 for entry in doc["severities"].values() if entry.get("error")
    )
    return doc, 1 if errors == len(severities) else 0


def _render_presets(presets: dict) -> str:
    from .core.report import render_table

    rows = [
        [name, entry["severity_knob"] or "-", entry["summary"]]
        for name, entry in presets.items()
    ]
    return (render_table(["preset", "severity knob", "summary"], rows)
            + "\n\nuse with: repro run KEY --faults PRESET[:severity]"
            "[,knob=value,...] --seed N")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _campaign_list(args, *_):
    from .scenarios import list_packs

    return list_packs(), 0


def _campaign_run(args, shutdown, recorder):
    from .scenarios.campaign import (
        CampaignError,
        plan_campaign,
        run_campaign,
    )

    selector, (name, specs) = args.selector
    try:
        journal, resume_state = _open_journal(args)
        doc = run_campaign(
            plan_campaign(name, specs, budget=args.budget),
            jobs=args.jobs,
            journal=journal,
            resume_state=resume_state,
            cancel=shutdown.event,
            grace=args.grace,
            task_timeout=args.task_timeout,
            out_path=args.out_path,
            on_progress=_progress,
        )
    except (CampaignError, JournalError) as exc:
        return None, _error(str(exc))
    if doc["interrupted"]:
        if journal is not None:
            print(
                f"campaign interrupted; resume with: repro campaign run "
                f"{selector} --resume {journal.path}",
                file=sys.stderr,
            )
        return doc, RESUMABLE_EXIT_CODE
    return doc, int(any(e.get("status") == "error" for e in doc["scenarios"]))


def _campaign_autopilot(args, shutdown, recorder):
    from .scenarios import ScenarioError
    from .scenarios.autopilot import run_autopilot
    from .scenarios.campaign import CampaignError

    try:
        doc = run_autopilot(
            pack=args.pack,
            budget=args.budget,
            seed=args.seed,
            jobs=args.jobs,
            freeze=args.freeze,
            freeze_dir=args.freeze_dir,
            out_path=args.out_path,
            cancel=shutdown.event,
            on_progress=_progress,
        )
    except (ScenarioError, CampaignError) as exc:
        return None, _error(str(exc))
    return doc, RESUMABLE_EXIT_CODE if doc["interrupted"] else 0


def _campaign_replay(args, shutdown, recorder):
    from .core.frozen import FrozenFileError, frozen_paths
    from .scenarios import ScenarioError
    from .scenarios.campaign import CampaignError, replay_frozen

    rows = []
    try:
        paths = frozen_paths([args.target], "frozen scenario")
        for path in paths:
            if shutdown.event.is_set():
                break
            rows.append(replay_frozen(path))
    except (CampaignError, ScenarioError, FrozenFileError) as exc:
        return None, _error(str(exc))
    interrupted = len(rows) < len(paths)
    if interrupted:
        print(f"replay interrupted: {len(rows)}/{len(paths)} checked",
              file=sys.stderr)
        code = RESUMABLE_EXIT_CODE
    else:
        code = int(any(not r["ok"] for r in rows))
    return {"replays": rows, "interrupted": interrupted}, code


def _trace_summarize(args, shutdown, recorder):
    from .obs import load_trace, summarize_trace

    try:
        doc = load_trace(args.file)
        interrupted = shutdown.event.is_set()
        if not interrupted:
            return summarize_trace(doc, top=args.top), 0
    except OSError as exc:
        return None, _error(f"cannot read trace {args.file!r}: {exc}")
    except (ValueError, KeyError) as exc:
        return None, _error(f"not a trace file {args.file!r}: {exc}")
    except KeyboardInterrupt:
        # Force-quit (second signal) mid-load/summarize: still exit
        # with a marker document instead of a traceback.
        pass
    return ({"interrupted": True} if args.json_doc
            else "trace summary interrupted: no results"), RESUMABLE_EXIT_CODE


def _journal_doc(reader, args):
    try:
        return reader(args.file), 0
    except OSError as exc:
        return None, _error(f"cannot read journal at {args.file!r}: {exc}")
    except JournalError as exc:
        return None, _error(f"not a journal {args.file!r}: {exc}")


def _journal_verify(args, *_):
    doc, code = _journal_doc(verify_journal, args)
    return doc, code if doc is None else int(not doc["ok"])


def _guard_report(args, *_):
    # A --guard-out file is one JSON object with a top-level "mode";
    # anything else is read as a run journal.
    try:
        with open(args.file) as f:
            text = f.read()
    except OSError as exc:
        return None, _error(
            f"cannot read guard report at {args.file!r}: {exc}")
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "mode" in doc:
        return doc, 0
    try:
        return guard_summary(args.file), 0
    except JournalError as exc:
        return None, _error(
            f"not a guard report or journal {args.file!r}: {exc}")


def _metric_store(args):
    """``(store_dir, store)``; the store is None, after saying why, when
    it is missing or empty."""
    from .obs.collector import DEFAULT_STORE_DIR, MetricsStore

    store_dir = (args.store or os.environ.get("REPRO_METRICS_DIR")
                 or DEFAULT_STORE_DIR)
    if not os.path.isdir(store_dir):
        _error(f"no metric store at {store_dir!r}; runs write documents "
               "with --metrics-dir (or set REPRO_METRICS_DIR)")
        return store_dir, None
    store = MetricsStore(store_dir)
    if len(store) == 0:
        _error(f"metric store {store_dir!r} has no documents")
        return store_dir, None
    return store_dir, store


def _bench_list(args, *_):
    store_dir, store = _metric_store(args)
    if store is None:
        return None, 2
    docs = store.load_last()  # quarantines what no longer decodes
    return {
        "store": store_dir,
        "corrupt_documents": len(store.corrupt_documents()),
        "documents": [
            {
                "file": path.name,
                "kind": doc["kind"],
                "metrics": len(doc.get("metrics", {})),
                "digest": doc.get("digest"),
                "git_sha": doc.get("meta", {}).get("git_sha"),
            }
            for path, doc in docs
        ],
    }, 0


def _bench_trend(args, *_):
    from .obs.collector import DEFAULT_TOLERANCE, bench_trend

    _, store = _metric_store(args)
    if store is None:
        return None, 2
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    if tolerance < 0:
        return None, _error("--tolerance must be >= 0")
    try:
        verdict = bench_trend(
            store, last=args.last, kind=args.kind, tolerance=tolerance,
            since=args.since,
        )
    except ValueError as exc:
        return None, _error(str(exc))
    return verdict, 0 if verdict["ok"] else 1


def _serve_start(args, shutdown, recorder):
    from .serve.api import start_api
    from .serve.daemon import DaemonConfig, ServeDaemon

    config = DaemonConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        lease_timeout=args.lease_timeout,
        heartbeat=args.heartbeat,
        poll=args.poll,
        max_attempts=args.max_attempts,
        grace=args.grace,
    )
    try:
        daemon = ServeDaemon(config)
    except (ValueError, OSError) as exc:
        return None, _error(f"cannot start serve daemon: {exc}")
    try:
        server = start_api(daemon, shutdown.event)
    except OSError as exc:
        return None, _error(f"cannot bind {args.host}:{args.port}: {exc}")
    host, port = server.server_address[:2]
    print(
        f"serve daemon on http://{host}:{port} "
        f"(state: {daemon.store.state_dir})",
        file=sys.stderr,
    )
    try:
        status = daemon.run_forever(shutdown.event)
    except KeyboardInterrupt:
        # Second signal (force-quit): leases stay in the log; the next
        # start on this state dir recovers them.
        status = RESUMABLE_EXIT_CODE
    finally:
        server.shutdown()
        server.server_close()  # joins in-flight request threads
    return None, status


def _serve_client(request):
    """A command talking to a running daemon: ``request(client, args,
    url)`` returns (doc, exit code); a daemon error exits 2."""
    def run(args, *_):
        from .serve import client
        from .serve.client import DEFAULT_URL, ServeClientError

        # Explicit flag beats $REPRO_SERVE_URL beats the default.
        url = args.url or os.environ.get("REPRO_SERVE_URL") or DEFAULT_URL
        try:
            return request(client, args, url)
        except ServeClientError as exc:
            return None, _error(str(exc))
    return run


def _serve_submit(client, args, url):
    spec: dict = {}
    if args.spec is not None:
        try:
            with open(args.spec) as f:
                spec = json.load(f)
        except (OSError, ValueError) as exc:
            return None, _error(f"cannot read spec {args.spec!r}: {exc}")
        if not isinstance(spec, dict):
            return None, _error(f"spec {args.spec!r} must be a JSON object")
    for flag in ("key", "scale", "faults", "seed", "jobs", "selector",
                 "budget", "pack"):
        if getattr(args, flag) is not None:
            spec[flag] = getattr(args, flag)
    doc = client.submit_job(args.kind, spec, url=url)
    submitted = f"submitted {doc['job_id']} ({args.kind})"
    if not args.wait:
        return (doc if args.json_doc else submitted), 0
    print(f"{submitted}; waiting...", file=sys.stderr)
    final = client.wait_for_job(doc["job_id"], url=url, timeout=args.timeout)
    return final, 0 if final.get("status") == "done" else 1


def _serve_status(client, args, url):
    doc = client.get_job(args.job_id, url=url)
    if args.tail is not None:
        doc["journal_tail"] = client.job_journal(
            args.job_id, tail=args.tail, url=url,
        )["lines"]
    return doc, 0


def _serve_drain(client, args, url):
    client.drain(url=url)
    return ("daemon draining (it exits 75 once in-flight jobs "
            "checkpoint)"), 0


def _chaos_crashpoints(args, *_):
    from pathlib import Path

    from .chaos import run_crashpoints
    from .core.atomicio import atomic_write_text

    workloads = None
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",")
                     if w.strip()]
        unknown = [w for w in workloads if w not in CHAOS_WORKLOADS]
        if unknown:
            return None, _error(
                f"unknown workload(s): {', '.join(unknown)} "
                f"(choose from {', '.join(CHAOS_WORKLOADS)})"
            )
    doc = run_crashpoints(
        workloads=workloads, seed=args.seed, budget=args.budget,
        jobs=args.jobs,
    )
    if args.out:
        atomic_write_text(Path(args.out), _dumps(doc) + "\n", durable=False)
    return doc, 0 if doc["ok"] else 1


def _chaos_replay(args, *_):
    from .chaos import replay_crashpoint
    from .core.frozen import FrozenFileError, frozen_paths

    try:
        paths = frozen_paths(
            args.paths or ["tests/golden/chaos"], "frozen crashpoint"
        )
    except FrozenFileError as exc:
        return None, _error(str(exc))
    if not paths:
        return None, _error("no frozen crashpoints found (freeze some with "
                            "repro.chaos.freeze_crashpoint)")
    verdicts = []
    for p in paths:
        try:
            verdicts.append(replay_crashpoint(p))
        except (OSError, ValueError) as exc:
            return None, _error(f"cannot replay {p}: {exc}")
    ok = all(v["ok"] for v in verdicts)
    return {"verdicts": verdicts, "ok": ok}, 0 if ok else 1


# ---------------------------------------------------------------------------
# The command table, in --help order: (name, help, _Command) for a leaf,
# (name, help, (subcommands...)) for a group
# ---------------------------------------------------------------------------

_STORE = _arg(
    "--store", default=None, metavar="DIR",
    help="metric-document store (default: $REPRO_METRICS_DIR or "
    ".repro-metrics)",
)
_JOURNAL_FILE = _arg("file", help="journal file written by --journal")

#: What a serve job of each kind runs: its command, and the spec keys it
#: takes -- ``NAME=DEFAULT`` fills the positional, every other key
#: becomes ``--KEY``.
_JOB_SPECS = {
    "run": ("run", "key=all scale jobs faults seed grace"),
    "faults": ("faults", "seed severities nranks repetitions"),
    "campaign": ("campaign run", "selector=mixed-chaos budget jobs grace"),
    "autopilot": ("campaign autopilot", "pack budget seed jobs"),
}

_COMMANDS = (
    ("list", "list registered experiments", _Command(_list)),
    ("run", "run an experiment and check claims", _Command(
        _run,
        _arg("key", type=_experiment(all_ok=True),
             help="experiment key (fig1..fig5, lst1) or 'all'"),
        _arg("--scale", default="ci", choices=["ci", "paper"],
             help="problem scale (default: ci)"),
        _arg("--quiet", action="store_true",
             help="suppress the rendered report"),
        _arg("--jobs", type=_JOBS, default=1, metavar="N",
             help="worker processes for sweep-point tasks "
             "(default: 1 = in-process; 0 = one per CPU)"),
        _arg("--cache", action="store_true",
             help=f"reuse/store outcomes under {DEFAULT_CACHE_DIR}/ "
             "(invalidated when parameters or repro sources change)"),
        _arg("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
             help="cache directory (implies --cache when given)"),
        _arg("--stats", action="store_true",
             help="print per-task timings and cache hit/miss statistics"),
        _json("run statistics", dest="json_stats",
              note=" (suppresses reports)"),
        _arg("--faults", type=_FAULT_SPEC, default="off", metavar="SPEC",
             help="fault-injection spec: off, a preset "
             "(degraded, lossy, straggler, failstop) with optional "
             "':severity' multiplier, or 'key=value,...' overrides "
             "(default: off)"),
        _arg("--seed", type=int, default=0, metavar="N",
             help="fault-plan seed; same seed + spec => identical injected "
             "faults, regardless of --jobs (default: 0)"),
        _arg("--task-timeout", type=float, default=None, metavar="S",
             help="per-task wall-clock bound in seconds (pool mode); an "
             "expired task degrades its experiment instead of hanging"),
        _arg("--retries", type=_int_at_least(0), default=1, metavar="K",
             help="fresh-pool retries after a worker crash (default: 1)"),
        _trace("record an observability trace to FILE (Chrome trace JSON; "
               "a .jsonl suffix selects flat JSONL); stdout is unchanged"),
        _journal(
            "append a crash-safe write-ahead log of every task "
            "dispatch/completion to FILE (fsync'd, checksummed JSONL)",
            "resume an interrupted run from its journal: completed "
            "sweep points are restored, the rest executed, and new "
            "records appended to the same FILE",
        ),
        _arg("--guard", default="off", choices=list(GUARD_MODES),
             dest="guard_mode",
             help="numerical guardrails: observe records sentinel/contract "
             "events without changing anything, strict fails a task on the "
             "first violation, repair additionally rescues ShallowWaters "
             "points through the scale/compensated/promote ladder "
             "(default: off)"),
        _arg("--guard-cadence", type=_int_at_least(1), default=16,
             metavar="N",
             help="simulation steps between guard sentinel probes "
             "(default: 16)"),
        _arg("--guard-inject", default=None, choices=list(GUARD_INJECTIONS),
             help="inject a synthetic numerical fault (overflow16: run the "
             "Fig. 4 Float16 point with an overflowing scaling) to exercise "
             "the guard end to end"),
        _arg("--guard-out", default=None, metavar="FILE", dest="guard_out",
             output=("write", "guard report"),
             help="write the run's guard report (events, violations, "
             "remediation chains) to FILE as JSON; requires --guard"),
        _arg("--grace", type=_GRACE, default=5.0, metavar="S",
             help="seconds to let in-flight tasks finish after SIGINT/SIGTERM "
             "before the pool is terminated (default: 5)"),
        _arg("--watchdog", type=float, default=None, metavar="S",
             help="kill the pool and journal in-flight tasks as interrupted "
             "if no worker heartbeat lands for S seconds (pool mode only)"),
        _arg("--profile", type=_int_at_least(1), default=None, metavar="N",
             dest="profile_top",
             help="profile the run under cProfile and print the top N "
             "functions by cumulative time to stderr (in-process tasks "
             "only; pool workers are not profiled)"),
        _metrics("this run"),
        render=_render_run, to_json=_run_json, collect=_collect_run,
        drains=True,
    )),
    ("journal", "inspect or verify crash-safe run journals", (
        ("show", "run metadata and per-task status from a journal", _Command(
            lambda args, *_: _journal_doc(journal_summary, args),
            _JOURNAL_FILE, _json("the journal summary"),
            render=_lazy("core.report", "render_journal"),
        )),
        ("verify", "integrity-check a journal (checksums, torn tail); exit 0 "
         "when clean, 1 when corrupt records were skipped", _Command(
             _journal_verify,
             _JOURNAL_FILE, _json("the verification document"),
             render=_lazy("core.report", "render_journal"),
         )),
    )),
    ("guard", "inspect numerical-guard reports", (
        ("report", "render the guard events/remediation chains from a "
         "--guard-out JSON file or a --journal run journal", _Command(
             _guard_report,
             _arg("file", help="guard report (--guard-out) or journal "
                  "(--journal) file"),
             _json("the guard report"),
             render=_lazy("core.report", "render_guard_report"),
         )),
    )),
    ("faults", "sweep fault severities and report drift from the "
     "fault-free baseline", _Command(
         _faults,
         _arg("--seed", type=int, default=0, metavar="N",
              help="fault-plan seed (default: 0)"),
         _arg("--severities", type=_severities,
              default="off,degraded,lossy,straggler,failstop",
              metavar="LIST", help="comma-separated fault specs to sweep "
              "(default: off,degraded,lossy,straggler,failstop)"),
         _arg("--nranks", type=_int_at_least(1), default=16, metavar="N",
              help="simulated MPI world size (default: 16)"),
         _arg("--repetitions", type=_int_at_least(1), default=2, metavar="N",
              help="benchmark repetitions per point (default: 2)"),
         _json("the drift report"),
         _trace("record the sweep's observability trace to FILE "
                "(Chrome trace JSON, or JSONL with a .jsonl suffix)"),
         _arg("--list-presets", action="store_true", dest="list_presets",
              help="list the built-in fault presets (knobs, severity knob, "
              "summary) and exit without running a sweep"),
         _metrics("the sweep"),
         render=_lazy("core.report", "render_fault_sweep"),
         collect=_lazy("obs.collector", "collect_faults"), drains=True,
     )),
    ("campaign", "run declarative chaos-scenario packs and the coverage "
     "autopilot", (
         ("list", "list built-in scenario packs and their scenarios",
          _Command(_campaign_list, _json("the pack catalogue"),
                   render=_lazy("core.report", "render_scenario_packs"))),
         ("run", "run a scenario pack (or a scenario spec file) and print "
          "the drift/remediation scoreboard", _Command(
              _campaign_run,
              _arg("selector", type=_valid("scenarios.campaign",
                                           "resolve_selector", "ScenarioError",
                                           keep_result=True),
                   help="pack name (see 'repro campaign list') or a path to "
                   "a JSON/YAML scenario document"),
              _arg("--budget", type=_int_at_least(1), default=None,
                   metavar="N",
                   help="cap the campaign at N scenario runs, baselines "
                   "included (default: no cap)"),
              _arg("--jobs", type=_JOBS, default=1, metavar="N",
                   help="worker processes for scenario runs (default: 1; the "
                   "scoreboard is identical at any value)"),
              _journal(
                  "crash-safe write-ahead log of every scenario run",
                  "resume an interrupted campaign from its journal "
                  "(completed scenarios restored byte-identically)",
              ),
              _out("campaign document",
                   "write the campaign document to FILE as JSON (atomic)"),
              _arg("--task-timeout", type=float, default=None, metavar="S",
                   help="per-scenario wall-clock bound in seconds (pool "
                   "mode)"),
              _arg("--grace", type=_GRACE, default=2.0, metavar="S",
                   help="drain grace period after SIGINT/SIGTERM "
                   "(default: 2)"),
              _json("the campaign document"),
              _metrics("the campaign scoreboard"),
              render=_lazy("core.report", "render_campaign"),
              collect=_lazy("obs.collector", "collect_campaign"),
              drains=True,
          )),
         ("autopilot", "seeded mutation search for worst-drift scenarios; "
          "freezes the top offenders as replayable regressions", _Command(
              _campaign_autopilot,
              _arg("--pack", default="mixed-chaos", metavar="NAME",
                   type=_valid("scenarios", "get_pack", "ScenarioError"),
                   help="seed population pack (default: mixed-chaos)"),
              _arg("--budget", default=20, metavar="N", type=_bounded(
                  int, 1, "autopilot budget must be >= 1, got {}"),
                   help="total scenario-evaluation budget, baselines "
                   "included (default: 20)"),
              _arg("--seed", type=int, default=0, metavar="N",
                   help="search seed; same seed + budget + pack => identical "
                   "scoreboard and frozen files at any --jobs (default: 0)"),
              _arg("--jobs", type=_JOBS, default=1, metavar="N",
                   help="worker processes per evaluation batch (default: 1)"),
              _arg("--freeze", type=_int_at_least(0), default=1, metavar="K",
                   help="freeze the K worst scenarios as regressions "
                   "(default: 1)"),
              _arg("--freeze-dir", default=None, metavar="DIR",
                   dest="freeze_dir",
                   help="directory for frozen regression files (e.g. "
                   "tests/golden/scenarios); omitted = report only, write "
                   "nothing"),
              _out("autopilot document",
                   "write the autopilot document to FILE as JSON (atomic)"),
              _json("the autopilot document"),
              _metrics("the autopilot scoreboard"),
              render=_lazy("core.report", "render_autopilot"),
              collect=_lazy("obs.collector", "collect_autopilot"),
              drains=True,
          )),
         ("replay", "re-run frozen scenario regressions and check result "
          "digests; exit 1 on any drift", _Command(
              _campaign_replay,
              _arg("target", nargs="?", default="tests/golden/scenarios",
                   help="frozen scenario file or directory "
                   "(default: tests/golden/scenarios)"),
              _json("replay results"),
              render=_lazy("core.report", "render_replay", "replays"),
              drains=True,
          )),
     )),
    ("trace", "inspect recorded observability traces", (
        ("summarize", "summarize a trace file written by --trace", _Command(
            _trace_summarize,
            _arg("file", help="trace file (.json or .jsonl)"),
            _arg("--top", type=_int_at_least(0), default=10, metavar="N",
                 help="slowest spans to show (default: 10)"),
            _json("the summary"),
            render=_lazy("core.report", "render_trace_summary"),
            drains=True,
        )),
    )),
    ("bench", "inspect the per-run metric-document store and gate on "
     "performance trends", (
         ("trend", "compare the newest metric document of each kind against "
          "its predecessors; exit 1 when a metric regresses beyond "
          "tolerance", _Command(
              _bench_trend,
              _STORE,
              _arg("--last", type=_int_at_least(1), default=10, metavar="N",
                   help="trend window: newest N documents (default: 10)"),
              _arg("--kind", default=None,
                   choices=["run", "faults", "campaign", "autopilot",
                            "bench"],
                   help="restrict the window to one document kind"),
              _arg("--tolerance", type=float, default=None, metavar="T",
                   help="relative tolerance for higher/lower-is-better "
                   "metrics (default: 0.10, the paper's ~10%% bar; "
                   "per-metric tolerances in documents win)"),
              _arg("--since", default=None, metavar="SHA",
                   help="window the history on the recorded git sha: drop "
                   "documents older than the first one whose meta.git_sha "
                   "matches this (prefix) sha"),
              _json("the machine-readable verdict"),
              render=_lazy("core.report", "render_bench_trend"),
          )),
         ("list", "list the documents in a metric store", _Command(
             _bench_list, _STORE, _json("the document listing"),
             render=_lazy("core.report", "render_metric_store"),
         )),
     )),
    ("serve", "run (or talk to) the crash-tolerant sweep daemon with a "
     "durable job queue and HTTP API", (
         ("start", "start the daemon on a state directory (restarting on an "
          "existing one resumes every unfinished job)", _Command(
              _serve_start,
              _arg("--state-dir", required=True, metavar="DIR",
                   help="durable state directory (job log, per-job "
                   "journals, results, metric store)"),
              _arg("--host", default="127.0.0.1", help="HTTP bind host"),
              _arg("--port", type=int, default=8750,
                   help="HTTP port (0 = ephemeral)"),
              _arg("--workers", type=int, default=2, metavar="N",
                   help="concurrent job leases (default: 2)"),
              _arg("--lease-timeout", type=float, default=30.0, metavar="S",
                   help="seconds without a heartbeat before a lease expires "
                   "and the job is re-dispatched (default: 30)"),
              _arg("--heartbeat", type=float, default=1.0, metavar="S",
                   help="worker heartbeat interval (default: 1.0)"),
              _arg("--poll", type=float, default=0.5, metavar="S",
                   help="longest the daemon's control loop sleeps between "
                   "ticks; submits, cancels, drains and worker exits wake "
                   "it at once (default: 0.5)"),
              _arg("--max-attempts", type=int, default=3, metavar="K",
                   help="expired leases before a job fails terminally "
                   "(default: 3)"),
              _arg("--grace", type=float, default=5.0, metavar="S",
                   help="drain grace period for in-flight workers "
                   "(default: 5)"),
              drains=True,
          )),
         ("submit", "submit a job to a running daemon", _Command(
             _serve_client(_serve_submit),
             _arg("kind", choices=list(_JOB_SPECS), help="what to run"),
             _url("daemon address (default: $REPRO_SERVE_URL or "
                  "http://127.0.0.1:8750)"),
             _arg("--key", default=None, help="experiment key for run jobs"),
             _arg("--scale", default=None, choices=["ci", "paper"],
                  help="sweep scale for run jobs"),
             _arg("--faults", default=None, metavar="SPEC",
                  help="fault spec for run jobs"),
             _arg("--seed", type=int, default=None, help="fault/sweep seed"),
             _arg("--jobs", type=int, default=None, metavar="N",
                  help="in-job parallelism (the engine's --jobs)"),
             _arg("--selector", default=None, metavar="PACK",
                  help="scenario selector for campaign jobs"),
             _arg("--budget", type=int, default=None, metavar="N",
                  help="scenario budget for campaign/autopilot jobs"),
             _arg("--pack", default=None, metavar="PACK",
                  help="scenario pack for autopilot jobs"),
             _arg("--spec", default=None, metavar="FILE",
                  help="JSON file with the full job spec (merged under the "
                  "flags)"),
             _arg("--wait", action="store_true",
                  help="block until the job reaches a terminal state"),
             _arg("--timeout", type=float, default=None, metavar="S",
                  help="give up waiting after S seconds (with --wait)"),
             _json("the job document"),
             render=_lazy("core.report", "render_serve_status"),
         )),
         ("status", "show one job's status (and journal tail)", _Command(
             _serve_client(_serve_status),
             _arg("job_id"),
             _url(),
             _arg("--tail", type=int, default=None, metavar="N",
                  help="also print the last N lines of the job's run "
                  "journal"),
             _json("the status document"),
             render=_lazy("core.report", "render_serve_status"),
         )),
         ("jobs", "list all jobs the daemon knows about", _Command(
             _serve_client(lambda client, args, url: (
                 client.list_jobs(url=url), 0)),
             _url(), _json("the listing"),
             render=_lazy("core.report", "render_serve_jobs"),
         )),
         ("cancel", "cancel a queued or running job", _Command(
             _serve_client(lambda client, args, url: (
                 f"{client.cancel_job(args.job_id, url=url)['job_id']} "
                 "cancelled", 0)),
             _arg("job_id"), _url(),
         )),
         ("drain", "ask the daemon to drain: stop leasing, checkpoint "
          "in-flight jobs, exit 75", _Command(
              _serve_client(_serve_drain), _url(),
          )),
     )),
    ("claims", "show an experiment's claims", _Command(
        _claims, _arg("key", type=_experiment(all_ok=False)),
    )),
    ("cache", "inspect or clear the result cache", _Command(
        _cache,
        _arg("action", choices=["info", "clear"]),
        _arg("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
             help="cache directory"),
    )),
    ("chaos", "deterministic storage-chaos harness: crashpoint sweeps "
     "and injected I/O faults across every durable store", (
         ("crashpoints", "enumerate every durability point of each workload, "
          "crash at each point in the budget, and assert recovery converges",
          _Command(
              _chaos_crashpoints,
              _arg("--seed", type=int, default=0,
                   help="chaos plan seed (default: 0)"),
              _arg("--budget", type=_int_at_least(0), default=16, metavar="N",
                   help="crashpoints per workload; a seeded subset is "
                   "selected when a workload has more points (default: 16)"),
              _arg("--jobs", type=_int_at_least(1), default=1, metavar="N",
                   help="crashpoints to run in parallel worker processes "
                   "(default: 1; the verdict is identical at any value)"),
              _arg("--workloads", default=None, metavar="W1,W2",
                   help="comma-separated workload subset "
                   f"(default: all of {','.join(CHAOS_WORKLOADS)})"),
              _out("verdict document",
                   "also write the verdict document to FILE as JSON",
                   dest="out"),
              _json("the verdict document"),
              render=_lazy("core.report", "render_chaos_verdict"),
          )),
         ("replay", "re-run frozen crashpoint regressions (files written by "
          "repro.chaos.freeze_crashpoint); exit 1 if any bites again",
          _Command(
              _chaos_replay,
              _arg("paths", nargs="*", default=None, metavar="FILE",
                   help="frozen crashpoint files or directories "
                   "(default: tests/golden/chaos)"),
              _json("the replay verdicts"),
              render=_lazy("core.report", "render_chaos_replay", "verdicts"),
          )),
     )),
)


def _add_commands(sub, table) -> None:
    for name, help, node in table:
        parser = sub.add_parser(name, help=help)
        if not isinstance(node, _Command):
            _add_commands(parser.add_subparsers(dest=f"{name}_command",
                                                required=True), node)
            continue
        for specs, exclusive in node.specs():
            target = (parser.add_mutually_exclusive_group() if exclusive
                      else parser)
            for names, kw, _ in specs:
                target.add_argument(*names, **kw)
        parser.set_defaults(handler=node)


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser from the command table."""
    ap = _Parser(
        prog="repro",
        description="Reproduce 'Productivity meets Performance: Julia on "
        "A64FX' (CLUSTER 2022)",
    )
    _add_commands(ap.add_subparsers(dest="command", required=True),
                  _COMMANDS)
    return ap


#: The parser, built once per process (a forked worker inherits it
#: from the serve worker template).
_parser = functools.lru_cache(maxsize=None)(build_parser)


def job_command(kind: str, spec: dict, journal=None):
    """A serve job as the command-table entry it runs: ``(command,
    args)``, its spec parsed by the CLI's own parser.

    ``{"key": "fig1", "jobs": 2}`` parses as ``run fig1 --jobs 2``.
    Keys starting with ``_`` (test levers) and ``None`` values are
    dropped; an unknown kind, a spec that is not an object, a key the
    kind does not take, or a value its command rejects raises
    :class:`UsageError`.  ``journal`` is the job's run
    journal, for the kinds that keep one: resumed (``--resume``) when it
    holds a valid segment, started (``--journal``) otherwise.
    """
    if not (isinstance(kind, str) and kind in _JOB_SPECS):
        raise UsageError(f"unknown job kind {kind!r} (expected one of "
                         f"{', '.join(_JOB_SPECS)})")
    if not isinstance(spec, dict):
        raise UsageError("job spec must be a JSON object")
    command, keys = _JOB_SPECS[kind]
    accepted = dict(k.partition("=")[::2] for k in keys.split())
    given = {k: v for k, v in spec.items()
             if not k.startswith("_") and v is not None}
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise UsageError(
            f"unknown {kind} job spec key(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(accepted)})")
    argv = [*command.split(),
            *(f"--{k}={v}" for k, v in given.items() if not accepted[k])]
    for key, default in accepted.items():
        if default:  # after "--" no value is read as a flag ("--help")
            argv += ["--", str(given.get(key, default))]
    args = _parser().parse_args(argv)
    if journal is not None and hasattr(args, "journal_path"):
        resume = try_load_journal(journal) is not None
        setattr(args, "resume_path" if resume else "journal_path",
                str(journal))
    return args.handler, args


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"{exc.usage}{exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return exc.code
    try:
        return args.handler(args)
    except BrokenPipeError:
        # `repro journal show run.jsonl | head` closes stdout early;
        # die quietly like POSIX tools do instead of tracebacking.
        # Point the fd at devnull so interpreter shutdown doesn't trip
        # over the same broken pipe while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except KeyboardInterrupt:
        # Ctrl-C outside a drain scope (startup, teardown, or a second
        # force-quit signal): no traceback, conventional 130.
        print("interrupted", file=sys.stderr)
        return 128 + signal.SIGINT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
