"""A serve job is a ``repro`` command.

* For every job kind, a job executed and finalized in-process stamps
  the same metric-document digest as the direct CLI invocation of its
  spec with ``--metrics-dir``.
* Over random specs, :func:`repro.cli.job_command` returns or raises
  :class:`repro.cli.UsageError`, never anything else.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import UsageError, job_command, main
from repro.obs.collector import MetricsStore
from repro.serve.store import JobStore
from repro.serve.worker import execute_job, finalize_job


def _cli_digest(argv, directory):
    """The digest ``repro ARGV --metrics-dir DIR`` stamps."""
    assert main([*argv, "--metrics-dir", str(directory)]) in (0, 1)
    ((_, doc),) = MetricsStore(directory).load_last()
    return doc["digest"]


#: (kind, spec, the equivalent CLI argv): small enough for tier-1.
PARITY = [
    pytest.param("run", {"key": "lst1"}, ["run", "lst1", "--quiet"],
                 id="run"),
    pytest.param("faults",
                 {"nranks": 4, "repetitions": 1, "severities": "off,lossy"},
                 ["faults", "--nranks", "4", "--repetitions", "1",
                  "--severities", "off,lossy"], id="faults"),
    pytest.param("campaign", {"selector": "mixed-chaos", "budget": 2},
                 ["campaign", "run", "mixed-chaos", "--budget", "2"],
                 id="campaign"),
    pytest.param("autopilot", {"budget": 3, "seed": 1},
                 ["campaign", "autopilot", "--budget", "3", "--seed", "1"],
                 id="autopilot"),
]


@pytest.mark.parametrize("kind, spec, argv", PARITY)
def test_job_digest_matches_the_cli(kind, spec, argv, tmp_path, capsys):
    store = JobStore(tmp_path / "state")
    job_id = store.submit(kind, spec)
    doc, interrupted = execute_job(
        store, job_id, kind, dict(spec), threading.Event()
    )
    assert not interrupted
    digest = finalize_job(store, job_id, kind, doc)
    assert digest == _cli_digest(argv, tmp_path / "cli")
    result = json.loads(store.result_path(job_id).read_text())
    assert result["digest"] == digest


_KEYS = st.sampled_from([
    "key", "scale", "jobs", "faults", "seed", "grace", "severities",
    "nranks", "repetitions", "selector", "budget", "pack", "out",
    "trace", "_wedge_attempts",
]) | st.text(max_size=8)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["fig1", "all", "lossy", "off,lossy", "mixed-chaos",
                       "ci", "-h", "--help", "0", "-1"]),
    lambda inner: st.lists(inner, max_size=3), max_leaves=4,
)


@given(kind=st.sampled_from(["run", "faults", "campaign", "autopilot",
                             "dance"]),
       spec=st.dictionaries(_KEYS, _VALUES, max_size=4) | _VALUES)
@settings(max_examples=200, deadline=None)
def test_job_command_returns_or_raises_a_usage_error(kind, spec):
    """No job is executed: only the parse runs."""
    try:
        command, args = job_command(kind, spec)
    except UsageError:
        return
    assert args.handler is command and command.collect is not None


def test_job_journal_is_resumed_once_it_holds_a_segment(tmp_path, capsys):
    journal = tmp_path / "job.jsonl"
    _, args = job_command("run", {"key": "lst1"}, journal)
    assert (args.journal_path, args.resume_path) == (str(journal), None)
    assert main(["run", "lst1", "--quiet", "--journal", str(journal)]) == 0
    _, args = job_command("run", {"key": "lst1"}, journal)
    assert (args.journal_path, args.resume_path) == (None, str(journal))
    _, args = job_command("faults", {}, journal)  # keeps no journal
    assert not hasattr(args, "journal_path")


def test_a_usage_error_of_the_command_fails_the_job_with_its_message(
    tmp_path, capsys,
):
    """A spec the parser takes but the command refuses (its journal
    holds another run) raises what the command said, for
    ``job_failed``."""
    store = JobStore(tmp_path / "state")
    spec = {"key": "fig5"}
    job_id = store.submit("run", spec)
    journal = store.journal_path(job_id)
    journal.parent.mkdir(parents=True, exist_ok=True)
    assert main(["run", "lst1", "--quiet", "--journal", str(journal)]) == 0
    with pytest.raises(UsageError, match="^journal .* does not match this "
                       r"run: journal ran \['lst1'\], requested \['fig5'\]$"):
        execute_job(store, job_id, "run", spec, threading.Event())
