"""Tests for the repro CLI (python -m repro)."""

import argparse

import pytest

from repro.cli import build_parser, main


def _parser_doc(parser, path="repro", help=None, out=None):
    """Every parser path's prog, help and actions, in declaration order.

    ``type`` is left out on purpose: converters are checked by the
    invocation tests, and their reprs differ across Python versions."""
    out = {} if out is None else out
    groups = [set(map(id, g._group_actions))
              for g in parser._mutually_exclusive_groups]
    actions, children = [], []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            children += [(name, sub, helps.get(name))
                         for name, sub in action.choices.items()]
            choices = list(choices)
        actions.append({
            "option_strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "choices": None if choices is None else list(choices),
            "nargs": action.nargs,
            "required": action.required,
            "metavar": action.metavar,
            "help": action.help,
            "group": next((i for i, g in enumerate(groups)
                           if id(action) in g), None),
        })
    out[path] = {"prog": parser.prog, "help": help, "actions": actions}
    for name, sub, sub_help in children:
        _parser_doc(sub, f"{path} {name}", sub_help, out)
    return out


def test_parser_matches_golden(golden):
    """Every flag, default, help string and subcommand of ``repro`` as
    committed in ``tests/golden/cli.json``."""
    golden("cli.json", _parser_doc(build_parser()))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig1"])
        assert args.scale == "ci"
        assert not args.quiet

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--scale", "huge"])

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["run", "fig1"])
        assert args.jobs == 1
        assert not args.cache
        assert not args.stats
        assert not args.json_stats

    def test_engine_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "all", "--jobs", "4", "--cache", "--stats", "--json"]
        )
        assert args.jobs == 4 and args.cache and args.stats and args.json_stats


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("fig1", "fig2", "fig3", "fig4", "fig5", "lst1"):
            assert key in out

    def test_claims(self, capsys):
        assert main(["claims", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "4x" in out

    def test_claims_unknown(self, capsys):
        assert main(["claims", "nope"]) == 2

    def test_run_listing_passes(self, capsys):
        assert main(["run", "lst1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] lst1" in out

    def test_run_prints_report(self, capsys):
        assert main(["run", "lst1"]) == 0
        out = capsys.readouterr().out
        assert "@julia_muladd" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig42"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line error, no traceback
        for key in ("fig1", "fig2", "fig3", "fig4", "fig5", "lst1", "all"):
            assert key in err

    def test_claims_unknown_lists_valid_names(self, capsys):
        assert main(["claims", "fig42"]) == 2
        assert "fig5" in capsys.readouterr().err

    def test_run_fig5_ci(self, capsys):
        assert main(["run", "fig5", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok  ") == 4  # four claims hold


class TestEngineCommands:
    def test_jobs_output_byte_identical_to_serial(self, capsys):
        assert main(["run", "fig5", "--quiet"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "fig5", "--quiet", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_stats_table_printed(self, capsys):
        assert main(["run", "fig5", "--quiet", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "experiment engine: jobs=1" in out
        assert "slowest task" in out

    def test_cache_flag_hits_on_second_run(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert main(["run", "fig5", "--quiet", "--cache-dir", cache_dir,
                     "--stats"]) == 0
        cold = capsys.readouterr().out
        assert "0 hits, 1 misses" in cold
        assert main(["run", "fig5", "--quiet", "--cache-dir", cache_dir,
                     "--stats"]) == 0
        warm = capsys.readouterr().out
        assert "1 hits, 0 misses" in warm
        assert "cache" in warm

    def test_json_stats_parse_and_carry_claims(self, tmp_path, capsys):
        import json

        assert main(["run", "fig5", "--json", "--cache-dir",
                     str(tmp_path / "c")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["jobs"] == 1
        assert doc["scale"] == "ci"
        (fig5,) = doc["experiments"]
        assert fig5["key"] == "fig5" and fig5["ntasks"] == 4
        assert all(c["ok"] for c in fig5["claims"])
        assert doc["cache"]["misses"] == 1

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert main(["run", "fig5", "--quiet", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "1 cached outcome(s)" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_cache_info_reports_quarantined_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        cache_dir.mkdir()
        (cache_dir / "fig5-ci.json.corrupt").write_text("{broken")
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined corrupt entry" in out
        assert "fig5-ci.json.corrupt" in out

    def test_retired_core_switches_are_inert(
        self, tmp_path, capsys, monkeypatch
    ):
        """The event core and the ShallowWaters stepper are chosen from
        the input alone: the environment variables that once selected
        them change neither the exit status nor the metric document."""
        from repro.obs.collector import MetricsStore

        def digest(store):
            assert main(["run", "fig2", "--quiet",
                         "--metrics-dir", store]) == 0
            capsys.readouterr()
            (doc,) = [d for _, d in MetricsStore(store).load_last()]
            return doc["digest"]

        clean = digest(str(tmp_path / "clean"))
        monkeypatch.setenv("REPRO_SIM_CORE", "bogus")
        monkeypatch.setenv("REPRO_FUSED_SW", "0")
        assert digest(str(tmp_path / "env")) == clean


class TestFaultCommands:
    def test_bad_fault_spec_exits_2(self, capsys):
        assert main(["run", "fig5", "--faults", "bogus"]) == 2
        assert "unknown fault preset" in capsys.readouterr().err

    def test_faults_off_is_byte_identical(self, capsys):
        assert main(["run", "fig5", "--quiet"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "fig5", "--quiet", "--faults", "off",
                     "--seed", "7"]) == 0
        assert capsys.readouterr().out == plain

    def test_faulted_run_deterministic_across_jobs(self, capsys):
        codes, outs = [], []
        for jobs in ("1", "2"):
            codes.append(main(["run", "fig2", "--faults", "lossy",
                               "--seed", "1", "--jobs", jobs]))
            outs.append(capsys.readouterr().out)
        assert codes[0] == codes[1]
        assert outs[0] == outs[1]

    def test_stats_header_names_the_fault_plan(self, capsys):
        main(["run", "fig5", "--quiet", "--stats", "--faults",
              "straggler", "--seed", "3"])
        assert "faults=straggler (seed 3)" in capsys.readouterr().out

    def test_json_stats_carry_fault_plan(self, capsys):
        import json

        main(["run", "lst1", "--json", "--faults", "lossy", "--seed", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["faults"] == {"spec": "lossy", "seed": 5}

    def test_faults_subcommand_renders_sweep(self, capsys):
        assert main(["faults", "--seed", "1", "--nranks", "4",
                     "--repetitions", "1",
                     "--severities", "off,straggler"]) == 0
        out = capsys.readouterr().out
        assert "fault severity sweep: seed=1" in out
        assert "straggler" in out and "pingpong" in out

    def test_faults_subcommand_json(self, capsys):
        import json

        assert main(["faults", "--seed", "1", "--nranks", "2",
                     "--repetitions", "1", "--severities", "off",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 1
        assert "off" in doc["severities"]

    def test_faults_subcommand_bad_spec(self, capsys):
        assert main(["faults", "--severities", "off,bogus"]) == 2
        assert "bad fault spec" in capsys.readouterr().err


class TestTraceCommands:
    def test_run_trace_writes_file_and_notes_on_stderr(
        self, tmp_path, capsys
    ):
        path = tmp_path / "t.json"
        assert main(["run", "lst1", "--quiet", "--trace", str(path)]) == 0
        captured = capsys.readouterr()
        assert path.exists()
        assert f"trace written to {path}" in captured.err
        assert "trace" not in captured.out  # stdout untouched

    def test_run_trace_with_json_stats_keeps_stdout_pure_json(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "t.json"
        assert main(["run", "fig5", "--json", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # still exactly one JSON document
        assert doc["experiments"][0]["key"] == "fig5"
        assert path.exists()

    def test_run_trace_unwritable_path_exits_2_before_running(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "no-such-dir" / "t.json"
        assert main(["run", "fig5", "--quiet", "--trace", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "cannot write trace" in captured.err
        assert captured.out == ""  # failed fast: no experiment ran

    def test_faults_trace_unwritable_path_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "t.json"
        assert main(["faults", "--nranks", "2", "--repetitions", "1",
                     "--severities", "off", "--trace", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "cannot write trace" in captured.err
        assert captured.out == ""

    def test_faults_trace_with_json_doc(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.jsonl"
        assert main(["faults", "--nranks", "2", "--repetitions", "1",
                     "--severities", "off,degraded", "--json",
                     "--trace", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "degraded" in doc["severities"]
        lines = path.read_text().splitlines()
        assert any('"type": "event"' in line for line in lines)

    def test_trace_summarize_renders_run_trace(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main(["run", "fig2", "--quiet", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out
        assert "send" in out and "recv" in out
        assert "mpi.messages" in out

    def test_trace_summarize_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.jsonl"
        assert main(["run", "lst1", "--quiet", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nspans"] >= 1
        assert "metrics" in doc

    def test_trace_summarize_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.json")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_summarize_not_a_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "not a trace file" in capsys.readouterr().err

    def test_trace_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestJournalCommands:
    def test_journal_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["journal"])

    def test_journal_and_resume_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fig1", "--journal", str(tmp_path / "j"),
                 "--resume", str(tmp_path / "j")]
            )

    def test_journal_unwritable_path_exits_2_before_running(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "no-such-dir" / "run.jsonl"
        assert main(["run", "fig5", "--quiet", "--journal", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "cannot write journal" in captured.err
        assert captured.out == ""  # failed fast: no experiment ran

    def test_resume_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "fig5", "--quiet",
                     "--resume", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read journal" in capsys.readouterr().err

    def test_journal_off_output_is_byte_identical(self, tmp_path, capsys):
        assert main(["run", "fig2", "--quiet"]) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "run.jsonl"
        assert main(["run", "fig2", "--quiet", "--journal", str(path)]) == 0
        journalled = capsys.readouterr().out
        assert journalled == plain

    def test_run_journal_writes_verifiable_journal(self, tmp_path, capsys):
        import json

        path = tmp_path / "run.jsonl"
        assert main(["run", "fig5", "--quiet", "--journal", str(path)]) == 0
        capsys.readouterr()
        assert main(["journal", "verify", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["complete"]
        assert doc["tasks"]["completed"] > 0 and doc["tasks"]["pending"] == 0

    def test_journal_show_renders_run(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "fig5", "--quiet", "--journal", str(path)]) == 0
        capsys.readouterr()
        assert main(["journal", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "complete" in out

    def test_journal_show_not_a_journal_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a journal\n")
        assert main(["journal", "show", str(bad)]) == 2
        assert "not a journal" in capsys.readouterr().err

    def test_journal_verify_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["journal", "verify", str(tmp_path / "nope")]) == 2
        assert "cannot read journal" in capsys.readouterr().err

    def test_resume_complete_journal_restores_everything(
        self, tmp_path, capsys
    ):
        path = tmp_path / "run.jsonl"
        assert main(["run", "fig5", "--quiet", "--journal", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["run", "fig5", "--quiet", "--resume", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "restored" in captured.err

    def test_resume_scale_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "fig2", "--quiet", "--journal", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "fig2", "--quiet", "--scale", "paper",
                     "--resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert "does not match" in err or "mismatch" in err

    def test_resume_experiment_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "fig2", "--quiet", "--journal", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "fig5", "--quiet", "--resume", str(path)]) == 2


#: Malformed invocations: (argv, stderr fragment, probed output that must
#: stay unwritten).  ``{tmp}`` is the test's tmp_path.  Each one exits 2
#: before any experiment work.
MALFORMED = [
    pytest.param(["faults", "--nranks", "0", "--metrics-dir", "{tmp}/M"],
                 "argument --nranks: must be >= 1, got 0", "M",
                 id="faults-nranks-0"),
    pytest.param(["faults", "--nranks", "-3"],
                 "argument --nranks: must be >= 1, got -3", None,
                 id="faults-nranks-negative"),
    pytest.param(["faults", "--repetitions", "0", "--trace", "{tmp}/t.json"],
                 "argument --repetitions: must be >= 1, got 0", "t.json",
                 id="faults-repetitions-0"),
    pytest.param(["faults", "--severities", ",", "--metrics-dir", "{tmp}/M"],
                 "no fault severities given", "M",
                 id="faults-severities-empty"),
    pytest.param(["chaos", "crashpoints", "--budget", "1", "--workloads",
                  "stores", "--out", "{tmp}/missing/x.json"],
                 "cannot write verdict document", "missing/x.json",
                 id="chaos-out-missing-dir"),
    pytest.param(["chaos", "crashpoints", "--jobs", "0"],
                 "argument --jobs: must be >= 1, got 0", None,
                 id="chaos-jobs-0"),
    pytest.param(["run", "fig1", "--retries", "-1", "--trace", "{tmp}/t.json"],
                 "argument --retries: must be >= 0, got -1", "t.json",
                 id="run-retries-negative"),
    pytest.param(["run", "fig1", "--grace", "-1", "--trace", "{tmp}/t.json"],
                 "grace must be >= 0", "t.json", id="run-grace-negative"),
    pytest.param(["run", "fig1", "--task-timeout", "-1",
                  "--metrics-dir", "{tmp}/M"],
                 "task_timeout must be positive", "M",
                 id="run-task-timeout-negative"),
    pytest.param(["run", "fig1", "--watchdog", "0",
                  "--journal", "{tmp}/j.jsonl"],
                 "heartbeat_timeout must be positive", "j.jsonl",
                 id="run-watchdog-0"),
    pytest.param(["campaign", "autopilot", "--freeze", "-1", "--budget", "2",
                  "--out", "{tmp}/a.json"],
                 "argument --freeze: must be >= 0, got -1", "a.json",
                 id="autopilot-freeze-negative"),
    pytest.param(["trace", "summarize", "{tmp}/t.json", "--top", "-1"],
                 "argument --top: must be >= 0, got -1", None,
                 id="trace-top-negative"),
    pytest.param(["bench", "trend", "--store", "{tmp}", "--last", "0"],
                 "argument --last: must be >= 1, got 0", None,
                 id="bench-last-0"),
    pytest.param(["campaign", "run", "mixed-chaos", "--budget", "0",
                  "--out", "{tmp}/c.json"],
                 "argument --budget: must be >= 1, got 0", "c.json",
                 id="campaign-budget-0"),
    pytest.param(["run", "fig1", "--jobs", "-1"],
                 "argument --jobs: must be >= 0 (0 = one per CPU), got -1",
                 None, id="run-jobs-negative"),
    pytest.param(["run", "fig1", "--guard-cadence", "0"],
                 "argument --guard-cadence: must be >= 1, got 0", None,
                 id="run-guard-cadence-0"),
]


@pytest.mark.parametrize("argv, message, output", MALFORMED)
def test_malformed_invocation_is_a_usage_error(
    argv, message, output, tmp_path, capsys
):
    """Exit 2 with the flag's own one-line complaint: no traceback, no
    'bad fault spec' for a flag that is not one, nothing written."""
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "bad fault spec" not in err
    assert message in err
    if output is not None:
        path = tmp_path / output
        written = path.is_dir() and any(path.iterdir()) or (
            path.is_file() and path.stat().st_size > 0)
        assert not written, f"{path} was written"


def test_bounded_int_flags_accept_their_bound(capsys):
    assert main(["faults", "--nranks", "1", "--repetitions", "1",
                 "--severities", "off", "--json"]) == 0
    assert '"nranks": 1' in capsys.readouterr().out
    args = build_parser().parse_args(
        ["run", "fig1", "--retries", "0", "--jobs", "0"])
    assert (args.retries, args.jobs) == (0, 0)
    args = build_parser().parse_args(
        ["campaign", "autopilot", "--freeze", "0"])
    assert args.freeze == 0


def test_bad_int_names_the_type(capsys):
    assert main(["run", "fig1", "--jobs", "x"]) == 2
    assert "argument --jobs: invalid int value: 'x'" in (
        capsys.readouterr().err)
