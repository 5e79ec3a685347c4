"""Tests for judging bare programs across models and for the command-line interface."""

import pytest

from repro.harness import Job, differential_mismatches, run_jobs
from repro.lang.kinds import Arch
from repro.litmus import get_test
from repro.outcomes import Outcome, OutcomeSet
from repro.promising import ExploreConfig
from repro.tools import cli
from repro.tools.cli import build_parser, main


def judge(program, models):
    """Run ``program`` under ``models`` as bare-program jobs and judge them."""
    jobs = [Job.for_program(program, model, Arch.ARM) for model in models]
    results = run_jobs(jobs)
    assert all(r.ok and not r.truncated for r in results), [r.status for r in results]
    return jobs, results


class TestCompare:
    def test_observables_cover_program_registers_and_locations(self):
        regs, locs = Job.for_program(get_test("MP").program, "promising").observables()
        assert regs[1] == ["r1", "r2"]
        assert len(locs) == 2

    def test_compare_promising_and_axiomatic(self):
        jobs, results = judge(get_test("MP+dmb+addr").program, ("promising", "axiomatic"))
        assert differential_mismatches(jobs, results) == ([], 0)

    def test_compare_with_naive_and_flat(self):
        jobs, results = judge(get_test("SB").program, ("promising", "flat", "promising-naive"))
        assert differential_mismatches(jobs, results) == ([], 0)

    def test_doctored_flat_outcome_on_a_bare_program_violates_containment(self):
        # Bare-program jobs must pair up, or the checks above pass vacuously.
        jobs, results = judge(get_test("SB").program, ("promising", "flat"))
        invented = Outcome.make([{}, {}], {})
        results[1].outcomes = OutcomeSet([*results[1].outcomes, invented])
        counterexamples, _explained = differential_mismatches(jobs, results)
        assert [(ce["models"], ce["kind"]) for ce in counterexamples] == [
            (["flat", "promising"], "subset-violated")
        ]


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--test", "MP"])
        assert args.command == "run" and args.test == "MP"
        args = parser.parse_args(["sweep", "--max-tests", "5"])
        assert args.max_tests == 5 and args.models == "promising,axiomatic"

    def test_abbreviated_flags_are_rejected(self):
        # A prefix must never resolve to another flag: `--backend` would
        # otherwise parse as `fuzz --backend-url` and be silently ignored.
        parser = build_parser()
        for argv in (
            ["fuzz", "--backend", "packed"],
            ["run", "--ax"],
            ["--strat", "sample", "run"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2, argv

    def test_parser_serve_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "4",
                                  "--batch-delay-ms", "2.5", "--cache-dir", "/tmp/c"])
        assert args.command == "serve" and args.port == 0
        assert args.workers == 4 and args.batch_delay_ms == 2.5
        assert args.cache_dir == "/tmp/c" and args.lru_capacity == 4096

    def test_run_command(self, capsys):
        assert main(["run", "--test", "MP+dmbs", "--axiomatic"]) == 0
        out = capsys.readouterr().out
        assert "forbidden" in out and "agree" in out

    def test_run_axiomatic_never_agrees_with_a_truncated_run(self, monkeypatch, capsys):
        # The policy skips a truncated pair, so silence must not read as agreement.
        monkeypatch.setattr(cli, "_explore_config", lambda args: ExploreConfig(max_states=1))
        assert main(["run", "--test", "MP+dmbs", "--axiomatic"]) == 0
        out = capsys.readouterr().out
        assert "exploration truncated" in out
        assert "outcome sets not compared" in out and "agree" not in out

    def test_run_reports_the_requested_arch(self, capsys):
        assert main(["--arch", "rv64", "run", "--test", "MP"]) == 0
        assert "model     : promising (RISC-V)" in capsys.readouterr().out

    def test_catalogue_command(self, capsys):
        assert main(["catalogue"]) == 0
        out = capsys.readouterr().out
        assert "MP+dmb+addr" in out

    def test_run_litmus_file(self, tmp_path, capsys):
        litmus = tmp_path / "mp.litmus"
        litmus.write_text(
            "AArch64 MP-file\n"
            "{ 0:X1=x; 0:X3=y; 1:X1=y; 1:X3=x; }\n"
            " P0          | P1          ;\n"
            " MOV W0,#1   | LDR W0,[X1] ;\n"
            " STR W0,[X1] | LDR W2,[X3] ;\n"
            " STR W0,[X3] |             ;\n"
            "exists (1:X0=1 /\\ 1:X2=0)\n"
        )
        assert main(["run", "--file", str(litmus)]) == 0
        out = capsys.readouterr().out
        assert "MP-file" in out and "allowed" in out
