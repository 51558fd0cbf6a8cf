"""The four workloads of the end-to-end benchmark.

Each workload is one client in a closed loop: the next operation starts
when the previous one has finished.  Its inputs come from the seed and
nothing else, and every operation's output is checked:

* ``paper-figures`` -- ``repro run all --scale paper --jobs 1``; exit 0
  (every paper claim holds) and the same stdout bytes on every rep.
* ``ci-sweep`` -- a cold ``run all --jobs 2`` on a fresh cache, journal
  and metric store, then the warm rerun on the same ones.  Cold and warm
  print the same stdout bytes; each phase writes the same metric
  document ``digest`` on every rep (the two phases differ by design: a
  warm run schedules no tasks).
* ``chaos-campaign`` -- ``repro campaign run`` on a generated copy of the
  ``mixed-chaos`` pack whose fault seeds come from the seed; the metric
  document ``digest`` is the same on every rep (stdout is not compared:
  it carries per-scenario seconds).
* ``serve-queue`` -- ``repro serve start --port 0 --workers 1`` and a
  seeded mix of ``run`` jobs submitted one at a time over HTTP; each
  finished job's digest equals that of the direct CLI run of its spec.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from harness import HERE, SRC, Child, reap, repro, run_child, spawn
from layers import layer_metrics

#: repetitions of the set-up measurement (``repro list`` for the CLI
#: workloads, daemon spawn to first ``/healthz`` for ``serve-queue``).
SETUP_REPEATS = 9

#: fresh interpreters timed for ``cli.import_s``.
IMPORT_REPEATS = 5

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


class OpFailed(Exception):
    """An operation whose exit status or output check failed."""


class Abort(Exception):
    """A failure that leaves no point in running further operations."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _latest_digest(metrics_dir: Path) -> str:
    docs = sorted(metrics_dir.glob("metrics-*.json"))
    if not docs:
        raise OpFailed(f"no metric document in {metrics_dir}")
    return json.loads(docs[-1].read_text())["digest"]


class Workload:
    """Shared shape: set-up, warm-up, then one operation at a time."""

    name = ""
    #: operations in each of the traced and the untraced half of a
    #: traced run.
    traced_ops = 1

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.rng = random.Random(seed)
        self._dirs = 0
        self.refs: Dict[str, str] = {}

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}-{self._dirs:04d}"
        path.mkdir(parents=True)
        return path

    def command(self, args: List[str], traced: bool, cwd: Path,
                name: str = "cmd") -> Tuple[Child, Optional[dict]]:
        """Run one ``repro`` command; traced runs go through
        :mod:`tracer` and also return its span list."""
        if not traced:
            return run_child(repro(*args), cwd, name), None
        spans_path = cwd / f"{name}.spans.json"
        child = run_child(
            [str(HERE / "tracer.py"), str(spans_path), *args], cwd, name
        )
        spans = json.loads(spans_path.read_text())["spans"]
        return child, {"wall": child.wall, "spans": spans}

    def check(self, child: Child, ok_codes: Tuple[int, ...] = (0,)) -> None:
        if child.code not in ok_codes:
            raise OpFailed(
                f"exit {child.code}: {' '.join(child.args)}\n"
                f"{child.stderr_tail()}"
            )

    def same(self, key: str, value: str) -> None:
        """The first value seen under ``key`` is the reference; every
        later one must equal it."""
        ref = self.refs.setdefault(key, value)
        if value != ref:
            raise OpFailed(f"{key} {value[:16]} != reference {ref[:16]}")

    # -- the interface the measuring loop drives --------------------------
    def prepare(self) -> None:
        """Generate inputs and references (untimed)."""

    def start(self, timed_setup: bool) -> List[float]:
        """Bring the workload up; returns set-up samples when timed.  A
        CLI workload has nothing to bring up: its set-up is the CLI's
        own start, timed as ``repro list``."""
        out = []
        for i in range(SETUP_REPEATS if timed_setup else 0):
            child = run_child(repro("list"), self.work, f"list-{i}")
            self.check(child)
            self.same("list stdout", _sha(child.stdout))
            out.append(child.wall)
        return out

    def warmup(self) -> None:
        self.op(False)

    def op(self, traced: bool) -> Tuple[List[dict], List[dict]]:
        """One operation: ``(samples, traced processes)``.  A sample is
        ``{"phase", "wall", "cpu", "rss_mb"}``; phase ``warm`` marks a
        rerun against state an earlier phase left behind."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    def totals(self, samples: List[dict]) -> Tuple[float, float, int]:
        """``(cpu seconds, peak RSS MB, operations)`` behind
        ``cpu_per_op_s`` and ``peak_rss_mb``."""
        return (
            sum(s["cpu"] for s in samples),
            max(s["rss_mb"] for s in samples),
            len(samples),
        )

    def layers(self, traced: List[list]) -> Tuple[Dict[str, tuple], list]:
        """Per-layer metrics and span lists of the traced operations
        (what :meth:`op` returned for each)."""
        spans = [[proc["spans"] for proc in procs] for procs in traced]
        return layer_metrics(traced), spans


def _sample(child: Child, phase: str = "op") -> dict:
    return {"phase": phase, "wall": child.wall, "cpu": child.cpu,
            "rss_mb": child.rss_mb}


class PaperFigures(Workload):
    name = "paper-figures"

    def warmup(self) -> None:
        child, _ = self.command(
            ["run", "all", "--scale", "ci", "--jobs", "1"], False,
            self.fresh_dir("warmup"),
        )
        self.check(child)

    def op(self, traced):
        child, proc = self.command(
            ["run", "all", "--scale", "paper", "--jobs", "1"], traced,
            self.fresh_dir("paper"),
        )
        self.check(child)
        self.same("paper stdout", _sha(child.stdout))
        return [_sample(child)], [proc] if proc else []


class CiSweep(Workload):
    name = "ci-sweep"
    traced_ops = 2

    def op(self, traced):
        d = self.fresh_dir("sweep")
        args = [
            "run", "all", "--jobs", "2",
            "--cache-dir", str(d / "cache"),
            "--journal", str(d / "journal.jsonl"),
            "--metrics-dir", str(d / "metrics"),
        ]
        samples, procs = [], []
        for phase in ("op", "warm"):
            child, proc = self.command(args, traced, d, phase)
            self.check(child)
            self.same("sweep stdout", _sha(child.stdout))
            self.same(f"{phase} digest", _latest_digest(d / "metrics"))
            samples.append(_sample(child, phase))
            if proc:
                procs.append(proc)
        return samples, procs


#: the ``mixed-chaos`` pack: name, experiment and knobs of each scenario.
#: Fault seeds are drawn from the benchmark seed; the overflow drill has
#: no fault plan to seed.
_CHAOS_SCENARIOS = (
    ("chaos-sick-links", "fig2", {"faults": "degraded:0.25,loss_rate=0.02"}),
    ("chaos-lossy-storm", "fig3", {
        "faults": "lossy:0.05,straggler_fraction=0.25,straggler_factor=3",
    }),
    ("chaos-split-brain", "fig3", {"faults": "partition:0.25,loss_rate=0.01"}),
    ("chaos-overflow", "fig4", {"guard": "repair",
                                "guard_inject": "overflow16"}),
)


class ChaosCampaign(Workload):
    name = "chaos-campaign"

    def prepare(self) -> None:
        scenarios = []
        for name, experiment, knobs in _CHAOS_SCENARIOS:
            spec = {"name": name, "experiment": experiment, **knobs}
            if "faults" in knobs:
                spec["fault_seed"] = self.rng.randrange(1, 1 << 30)
            scenarios.append(spec)
        self.spec_path = self.work / "campaign.json"
        self.spec_path.write_text(json.dumps(
            {"name": "e2e-mixed-chaos", "scenarios": scenarios}, indent=2
        ))

    def op(self, traced):
        d = self.fresh_dir("campaign")
        child, proc = self.command([
            "campaign", "run", str(self.spec_path), "--jobs", "1",
            "--journal", str(d / "journal.jsonl"),
            "--metrics-dir", str(d / "metrics"),
        ], traced, d)
        self.check(child)
        self.same("campaign digest", _latest_digest(d / "metrics"))
        return [_sample(child)], [proc] if proc else []


# ---------------------------------------------------------------------------
# serve-queue
# ---------------------------------------------------------------------------
_TERMINAL = ("done", "failed", "cancelled")
#: the client's status poll, and the daemon's control-loop poll.
_POLL_S = 0.05
_JOB_TIMEOUT_S = 60.0
_URL_RE = re.compile(r"serve daemon on (http://\S+)")


def _http(url: str, body: Optional[dict] = None) -> Tuple[dict, float]:
    """One API request: ``(decoded JSON, seconds)``."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method="GET" if data is None else "POST",
        headers={"Content-Type": "application/json"} if data else {},
    )
    t0 = time.perf_counter()
    with urllib.request.urlopen(req, timeout=10.0) as resp:
        doc = json.loads(resp.read())
    return doc, time.perf_counter() - t0


class ServeQueue(Workload):
    name = "serve-queue"
    traced_ops = 10
    warmup_jobs = 3

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        lossy_seed = self.rng.randrange(0, 1 << 20)
        #: the job mix: every spec equally often, in seeded order.
        self.specs = [
            {"key": "fig1", "scale": "ci"},
            {"key": "fig2", "scale": "ci"},
            {"key": "fig5", "scale": "ci"},
            {"key": "lst1", "scale": "ci"},
            {"key": "fig2", "scale": "ci", "faults": "lossy",
             "seed": lossy_seed},
        ]
        self._queue: List[dict] = []
        self.daemon: Optional[subprocess.Popen] = None
        self.url = ""
        self.jobs: List[dict] = []
        self.usage: Optional[Tuple[int, float, float]] = None

    def _next_spec(self) -> dict:
        if not self._queue:
            self._queue = list(self.specs)
            self.rng.shuffle(self._queue)
        return self._queue.pop()

    @staticmethod
    def _spec_key(spec: dict) -> str:
        return json.dumps(spec, sort_keys=True)

    def prepare(self) -> None:
        """Reference digests from the direct CLI run of each spec."""
        for i, spec in enumerate(self.specs):
            d = self.fresh_dir("reference")
            args = ["run", spec["key"], "--scale", spec["scale"], "--quiet",
                    "--metrics-dir", str(d / "metrics")]
            if "faults" in spec:
                args += ["--faults", spec["faults"],
                         "--seed", str(spec["seed"])]
            child = run_child(repro(*args), d, f"reference-{i}")
            # Under injected faults a paper claim may fail (exit 1); the
            # job must still reproduce the direct run's document.
            self.check(child, (0, 1) if "faults" in spec else (0,))
            self.refs[self._spec_key(spec)] = _latest_digest(d / "metrics")

    def _start_daemon(self) -> float:
        state = self.fresh_dir("serve")
        log = state.parent / f"{state.name}.stderr"
        t0 = time.perf_counter()
        # At the default 0.5 s control-loop poll a job's latency is a
        # step function of machine speed (a job either makes the next
        # tick or waits a whole extra one), so run-to-run medians jump
        # between two modes.  A 0.05 s poll keeps the tick, and so the
        # job-log replay it does, on the measured path at a step small
        # enough for a median to be stable.
        self.daemon = spawn(
            repro("serve", "start", "--state-dir", str(state),
                  "--port", "0", "--workers", "1", "--poll", str(_POLL_S)),
            self.work, log, stdout=subprocess.DEVNULL,
        )
        self.state = state
        deadline = t0 + 60.0
        url = None
        while True:
            if self.daemon.poll() is not None:
                raise Abort(f"serve daemon exited {self.daemon.returncode}")
            if time.perf_counter() > deadline:
                raise Abort("serve daemon did not answer /healthz")
            if url is None:
                m = _URL_RE.search(log.read_text(errors="replace"))
                url = m.group(1) if m else None
            if url is not None:
                try:
                    _http(url + "/healthz")
                except (urllib.error.URLError, OSError):
                    pass
                else:
                    self.url = url
                    return time.perf_counter() - t0
            time.sleep(0.005)

    def _drain(self) -> Tuple[int, float, float]:
        try:
            _http(self.url + "/api/drain", {})
        except (urllib.error.URLError, OSError):
            pass  # it may exit before answering
        daemon, self.daemon = self.daemon, None
        return reap(daemon, timeout=30.0)

    def start(self, timed_setup: bool) -> List[float]:
        samples = []
        for i in range(SETUP_REPEATS if timed_setup else 1):
            if self.daemon is not None:
                self._drain()
            samples.append(self._start_daemon())
        return samples if timed_setup else []

    def warmup(self) -> None:
        for _ in range(self.warmup_jobs):
            self.op(False, warmup=True)

    def op(self, traced, warmup: bool = False):
        spec = self._next_spec()
        requests: List[float] = []
        spans: List[dict] = []
        started_at = time.time()
        t0 = time.perf_counter()

        def call(path: str, body: Optional[dict] = None) -> dict:
            start = time.perf_counter() - t0
            doc, seconds = _http(self.url + path, body)
            requests.append(seconds)
            spans.append({"name": "serve.api.request", "parent": None,
                          "start": start, "end": start + seconds,
                          "path": path})
            return doc

        try:
            job_id = call("/api/jobs", {"kind": "run", "spec": spec})["job_id"]
            while True:
                doc = call(f"/api/jobs/{job_id}")
                if doc["status"] in _TERMINAL:
                    break
                if time.perf_counter() - t0 > _JOB_TIMEOUT_S:
                    raise Abort(f"{job_id} not finished after "
                                f"{_JOB_TIMEOUT_S:g}s")
                time.sleep(_POLL_S)
        except (urllib.error.URLError, OSError) as exc:
            raise Abort(f"serve API request failed: {exc}") from None
        wall = time.perf_counter() - t0
        self.jobs.append({
            "id": job_id, "started_at": started_at, "seen_at": time.time(),
            "wall": wall,
            "requests": requests, "traced": traced, "warmup": warmup,
            "spans": spans,
        })
        if doc["status"] != "done":
            raise OpFailed(f"{job_id} {doc['status']}: {doc.get('error')}")
        digest = doc.get("digests", {}).get("run")
        ref = self.refs[self._spec_key(spec)]
        if digest != ref:
            raise OpFailed(f"{job_id} digest {digest} != direct CLI {ref}")
        return ([{"phase": "op", "wall": wall, "cpu": 0.0, "rss_mb": 0.0}],
                [job_id] if traced else [])

    def close(self) -> None:
        if self.daemon is not None:
            self.usage = self._drain()
            if self.usage[0] != 0:
                raise OpFailed(f"serve daemon exited {self.usage[0]} on "
                               "drain with an empty queue")

    def totals(self, samples):
        # The daemon's own rusage at drain folds in every worker it
        # reaped, warm-up jobs included.
        _, cpu, rss = self.usage
        return cpu, rss, len(self.jobs)

    def layers(self, traced):
        """Measured from outside: client timings, the job log read back
        after the drain, and the traced jobs' run journals."""
        traced_ids = {job for ids in traced for job in ids}
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from repro.serve.store import JobStore

        store = JobStore(self.state)
        loads = []
        for _ in range(5):
            t0 = time.perf_counter()
            state = store.load()
            loads.append(time.perf_counter() - t0)
        timed = [j for j in self.jobs if not j["warmup"]]
        records = {j["id"]: state.jobs[j["id"]] for j in timed}
        waits = [records[j["id"]].leased_at - records[j["id"]].submitted_at
                 for j in timed]
        runs = [records[j["id"]].finished_at - records[j["id"]].leased_at
                for j in timed]
        notify = [j["seen_at"] - records[j["id"]].finished_at for j in timed]
        first = [r for j in timed[:10] for r in j["requests"]]
        last = [r for j in timed[-10:] for r in j["requests"]]
        traced = [j for j in timed if j["id"] in traced_ids]
        tasks = task_s = unattributed = 0.0
        for j in traced:
            rec = records[j["id"]]
            # A job's life is queue wait + run + notify; what is left is
            # the submit request up to its log record.
            unattributed += rec.submitted_at - j["started_at"]
            journal = self.state / "journals" / f"{j['id']}.jsonl"
            for line in journal.read_text().splitlines():
                entry = json.loads(line)
                if entry.get("type") == "task_done":
                    tasks += 1
                    task_s += entry["seconds"]
            for name, start, end in (
                ("serve.queue_wait", rec.submitted_at, rec.leased_at),
                ("serve.job_run", rec.leased_at, rec.finished_at),
                ("serve.notify", rec.finished_at, j["seen_at"]),
            ):
                j["spans"].append({
                    "name": name, "parent": None,
                    "start": start - j["started_at"],
                    "end": end - j["started_at"],
                })
        n = len(traced)
        return {
            "serve.api.request_s_p50": (
                median([r for j in timed for r in j["requests"]]), "s"),
            "serve.api.request_growth": (median(last) / median(first),
                                         "ratio"),
            "serve.queue_wait_s_p50": (median(waits), "s"),
            "serve.job_run_s_p50": (median(runs), "s"),
            "serve.notify_s_p50": (median(notify), "s"),
            "serve.store.load_s": (median(loads), "s"),
            "serve.store.records": (float(state.records), "count"),
            # A serve job's tasks run in its worker, which journals each
            # task's TaskResult.seconds.
            "exec.scheduler.tasks": (tasks / n, "count"),
            "exec.scheduler.task_s": (task_s / n, "s"),
            "unattributed_s": (unattributed / n, "s"),
        }, [[j["spans"]] for j in traced]


WORKLOADS = {
    w.name: w for w in (PaperFigures, CiSweep, ChaosCampaign, ServeQueue)
}


def cli_import_seconds(work: Path) -> float:
    """Median time to ``import repro.cli`` in a fresh interpreter."""
    samples = []
    for i in range(IMPORT_REPEATS):
        child = run_child(["-c", _IMPORT_PROBE], work, f"import-{i}")
        if child.code != 0:
            raise Abort(f"importing repro.cli failed:\n{child.stderr_tail()}")
        samples.append(float(child.stdout))
    return median(samples)
