"""Tests for the comparison utilities and the command-line interface."""

import pytest

from repro.lang.kinds import Arch
from repro.litmus import get_test
from repro.tools import compare_models, observables
from repro.tools.cli import build_parser, main


class TestCompare:
    def test_observables_cover_program_registers_and_locations(self):
        test = get_test("MP")
        regs, locs = observables(test.program)
        assert regs[1] == ["r1", "r2"]
        assert len(locs) == 2

    def test_compare_promising_and_axiomatic(self):
        comparison = compare_models(get_test("MP+dmb+addr").program, Arch.ARM)
        assert comparison.promising_equals_axiomatic is True
        assert "==" in comparison.describe()

    def test_compare_with_naive_and_flat(self):
        comparison = compare_models(
            get_test("SB").program,
            Arch.ARM,
            include_axiomatic=False,
            include_flat=True,
            include_naive=True,
        )
        assert comparison.promising_equals_naive is True
        assert comparison.flat_subset_of_promising is True
        assert comparison.promising_equals_axiomatic is None


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
        for argv in (["fuzz", "--backend", "packed"], ["run", "--ax"], ["--strat", "bfs", "run"]):
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
