"""Tests for the ``repro-ppr`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "F4", "--full"])
        assert args.experiment == "F4"
        assert args.full

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "dblp-s"])
        assert args.method == "powerpush"
        assert args.source == 0

    def test_query_parses_reorder(self):
        args = build_parser().parse_args(
            ["query", "dblp-s", "--reorder", "degree"]
        )
        assert args.reorder == "degree"

    def test_query_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "unknown-s"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "dblp-s" in out
        assert "DY" in out  # the dynamic-updates experiment is registered

    def test_methods_prints_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        from repro.api import solver_specs

        for spec in solver_specs():
            assert f"{spec.name} [{spec.kind}]" in out
            for alias in spec.aliases:
                assert alias in out
        # declared capabilities; incremental is a block of the same loop
        assert "artefact:walk" in out and "artefact:bepi" in out
        assert "incremental [exact]" in out and "tracked" in out

    def test_query_incremental_method(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert (
            main(
                [
                    "query",
                    "dblp-s",
                    "--source",
                    "1",
                    "--method",
                    "incremental",
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "IncrementalPPR" in out and "#1" in out

    def test_run_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "F99"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method",
        [
            # canonical names
            "powerpush",
            "powitr",
            "fifo-fwdpush",
            "bepi",
            "speedppr",
            "fora",
            "resacc",
            "montecarlo",
            # aliases keep working (registry normalisation)
            "fwdpush",
            "power-iteration",
            "fora+",
            "speedppr-index",
            "mc",
        ],
    )
    def test_query_every_method(self, capsys, monkeypatch, tmp_path, method):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        code = main(
            [
                "query",
                "dblp-s",
                "--source",
                "1",
                "--method",
                method,
                "--epsilon",
                "0.5",
                "--top",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#1" in out

    def test_query_prints_the_work_done(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert main(["query", "dblp-s", "--source", "1", "--top", "1"]) == 0
        out = capsys.readouterr().out
        (work,) = [line for line in out.splitlines() if "work:" in line]
        for part in (
            " residue updates, ",
            " pushes, ",
            " 8 epochs, ",
            " extrapolations, ",
            "final r_sum=",
        ):
            assert part in work, work
        # a solver that pushes nothing has no work to report
        assert main(["query", "dblp-s", "--method", "mc", "--top", "1"]) == 0
        assert "work:" not in capsys.readouterr().out

    def test_query_unknown_method_exits_2_listing_names(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert main(["query", "dblp-s", "--method", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "powerpush" in err and "fwdpush" in err

    def _query_output(self, capsys, monkeypatch, tmp_path, seed):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert (
            main(
                [
                    "query",
                    "dblp-s",
                    "--method",
                    "montecarlo",
                    "--epsilon",
                    "0.5",
                    "--seed",
                    str(seed),
                    "--top",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # keep only the ranking lines (the header includes wall time)
        return [line for line in out.splitlines() if line.startswith("  #")]

    def test_query_seed_makes_stochastic_methods_reproducible(
        self, capsys, monkeypatch, tmp_path
    ):
        first = self._query_output(capsys, monkeypatch, tmp_path, seed=11)
        replay = self._query_output(capsys, monkeypatch, tmp_path, seed=11)
        other = self._query_output(capsys, monkeypatch, tmp_path, seed=12)
        assert first == replay
        assert first != other

    def test_query_speedppr_one_shot_is_index_free(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert main(["query", "dblp-s", "--method", "speedppr"]) == 0
        out = capsys.readouterr().out
        # a one-shot process must not pay for the m-walk index
        assert out.startswith("SpeedPPR on")
        assert main(["query", "dblp-s", "--method", "speedppr-index"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SpeedPPR-Index on")

    def test_list_includes_methods(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "methods:" in out
        assert "powerpush" in out
        assert "aliases" in out

    def test_run_t1_to_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "dblp-s")
        monkeypatch.setenv("REPRO_BENCH_SOURCES", "1")
        out_file = tmp_path / "report.txt"
        assert main(["run", "T1", "--out", str(out_file)]) == 0
        assert "dblp-s" in out_file.read_text()


class TestServingCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "dblp-s"])
        assert args.cache_capacity == 4096

    def test_serve_cache_capacity_is_the_only_cache_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--cache-capacity" in out
        assert out.count("--cache-") == out.count("--cache-capacity")
        assert "ttl" not in out

    def test_loadtest_parser_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.method == "powerpush"
        assert args.arrival == "closed"
        assert args.read_fraction == 1.0

    def test_loadtest_writes_metrics_json(self, capsys, tmp_path):
        out_file = tmp_path / "bench" / "serving.json"
        code = main(
            [
                "loadtest",
                "--scale", "9",
                "--edges", "3000",
                "--requests", "60",
                "--sources", "10",
                "--concurrency", "2",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "cache hit rate" in out
        import json

        payload = json.loads(out_file.read_text())
        assert payload["served"]["queries"] == 60
        assert payload["identical"] is True

    def test_loadtest_soak_mode(self, capsys):
        code = main(
            [
                "loadtest",
                "--scale", "9",
                "--edges", "3000",
                "--requests", "40",
                "--sources", "8",
                "--read-fraction", "0.8",
                "--concurrency", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "updates" in out
        assert "n/a" in out  # byte-compare is off under write traffic

    def test_serve_pipe_session(self, capsys, monkeypatch, tmp_path):
        import io

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                "1 powerpush l1_threshold=1e-7\n"
                "1 powerpush l1_threshold=1e-7\n"
                "stats\n"
                "bogus-line\n"
                "quit\n"
            ),
        )
        assert main(["serve", "dblp-s"]) == 0
        out = capsys.readouterr().out
        assert "serving dblp-s" in out
        assert out.count("PowerPush source=1") == 2
        assert "cache" in out and "hit_rate" in out
        assert "writer_waits=0" in out  # no update met a read
        assert "error:" in out  # the bogus line is reported, not fatal

    def test_serve_rejects_unparseable_request_tokens(
        self, capsys, monkeypatch, tmp_path
    ):
        import io

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        # '1e-7' is neither the method nor key=value: refuse instead of
        # silently answering with default parameters.
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("1 powerpush 1e-7\nquit\n")
        )
        assert main(["serve", "dblp-s"]) == 0
        out = capsys.readouterr().out
        assert "unparseable request token" in out
        assert "PowerPush" not in out

    def test_serve_applies_updates(self, capsys, monkeypatch, tmp_path):
        import io

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("1 powerpush\n+ 1 2\n1 powerpush\nstats\n"),
        )
        assert main(["serve", "dblp-s"]) == 0
        out = capsys.readouterr().out
        # the update either applies (version bump) or is reported as a
        # duplicate edge — both prove the writer path is wired
        assert "version 1" in out or "error:" in out
