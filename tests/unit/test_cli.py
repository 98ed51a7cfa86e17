"""Unit tests for the command-line interface."""

import argparse
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import vidb.cli
from vidb.cli import _build_parser, main
from vidb.storage.persistence import load, save
from vidb.workloads.paper import rope_database


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "rope.json"
    save(rope_database(), path)
    return str(path)


class TestDemo:
    def test_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert main(["demo", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert load(out).stats()["entities"] == 9


class TestInfo:
    def test_clean_database(self, snapshot, capsys):
        assert main(["info", snapshot]) == 0
        out = capsys.readouterr().out
        assert "entities: 9" in out and "integrity: ok" in out

    def test_missing_file(self, capsys):
        # User-input errors (missing files, bad queries) exit 2 with a
        # one-line message, matching argparse's usage-error convention.
        assert main(["info", "/nonexistent/db.json"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestQuery:
    def test_answers_printed(self, snapshot, capsys):
        status = main(["query", snapshot,
                       "?- interval(G), object(o1), o1 in G.entities."])
        assert status == 0
        out = capsys.readouterr().out
        assert "gi1" in out and "gi2" in out and "2 answer(s)" in out

    def test_limit_flag(self, snapshot, capsys):
        main(["query", snapshot, "?- object(O).", "--limit", "3"])
        out = capsys.readouterr().out
        assert "9 answer(s)" in out
        assert out.count("o") >= 3

    def test_parse_error_is_clean_failure(self, snapshot, capsys):
        assert main(["query", snapshot, "?- interval(G"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_missing_rules_file_is_clean_failure(self, snapshot, capsys):
        status = main(["query", snapshot, "?- object(O).",
                       "--rules", "/nonexistent/rules.vdl"])
        assert status == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_stats_flag(self, snapshot, capsys):
        status = main(["query", snapshot, "?- object(O).", "--stats"])
        assert status == 0
        out = capsys.readouterr().out
        assert "9 answer(s)" in out
        assert "iterations" in out
        assert "derived_facts" in out
        assert "elapsed_s" in out

    def test_profile_flag_golden_shape(self, snapshot, capsys):
        """The --profile report prints every expected section, in order."""
        status = main(["query", snapshot, "--stdlib", "--profile",
                       "?- interval(G), object(O), O in G.entities."])
        assert status == 0
        out = capsys.readouterr().out
        markers = [
            "13 answer(s)",
            "== execution profile ==",
            "mode seminaive",
            "-- stages --",
            "parse",
            "safety",
            "prune",
            "evaluate",
            "collect",
            "(total)",
            "-- rules --",
            "query",
            "iteration times (ms):",
            "-- span tree --",
            "query.execute",
            "fixpoint.iteration",
        ]
        position = -1
        for marker in markers:
            found = out.find(marker, position + 1)
            assert found > position, f"missing or out of order: {marker!r}"
            position = found

    def test_timeout_flag_expires(self, snapshot, capsys):
        status = main(["query", snapshot, "?- object(O).",
                       "--timeout", "0"])
        assert status == 1
        err = capsys.readouterr().err
        assert "deadline" in err and "Traceback" not in err

    def test_no_prune_flag_same_answers(self, snapshot, capsys):
        status = main(["query", snapshot, "--stdlib", "--no-prune",
                       "?- interval(G), object(o1), o1 in G.entities."])
        assert status == 0
        assert "2 answer(s)" in capsys.readouterr().out

    def test_rules_file(self, snapshot, tmp_path, capsys):
        rules = tmp_path / "rules.vdl"
        rules.write_text(
            "both(G) :- interval(G), {o1, o4} subset G.entities.\n")
        status = main(["query", snapshot, "?- both(G).",
                       "--rules", str(rules)])
        assert status == 0
        assert "2 answer(s)" in capsys.readouterr().out

    def test_naive_mode_flag(self, snapshot, capsys):
        status = main(["query", snapshot, "?- object(O).",
                       "--mode", "naive"])
        assert status == 0


class TestFacts:
    def test_stdlib_contains(self, snapshot, capsys):
        assert main(["facts", snapshot, "contains", "--stdlib"]) == 0
        out = capsys.readouterr().out
        assert "contains(gi1, gi1)" in out and "2 fact(s)" in out


class TestExplain:
    def test_derivation_rendered(self, snapshot, capsys):
        status = main(["explain", snapshot,
                       "?- interval(G), object(o9), o9 in G.entities."])
        assert status == 0
        out = capsys.readouterr().out
        assert "database fact" in out and "1 derivation(s)" in out


class TestEdl:
    def test_edl_rendered(self, snapshot, capsys):
        status = main(["edl", snapshot,
                       "?- interval(G), object(o1), o1 in G.entities.",
                       "G", "--title", "david"])
        assert status == 0
        out = capsys.readouterr().out
        assert "TITLE: david" in out and "2 cut(s)" in out

    def test_non_interval_variable_fails_cleanly(self, snapshot, capsys):
        status = main(["edl", snapshot, "?- object(O).", "O"])
        assert status == 1
        assert "error:" in capsys.readouterr().err


class TestAnalytics:
    def test_report_printed(self, snapshot, capsys):
        assert main(["analytics", snapshot, "--bins", "4"]) == 0
        out = capsys.readouterr().out
        assert "entity" in out and "coverage" in out
        assert "o1" in out

    def test_top_limits(self, snapshot, capsys):
        assert main(["analytics", snapshot, "--top", "2"]) == 0
        out = capsys.readouterr().out
        # leaderboard truncated to two rows
        leaderboard = out.split("\n\n")[0]
        assert len([l for l in leaderboard.splitlines()
                    if l and not l.startswith(("entity", "-"))]) == 2


class TestTimeline:
    def test_chart_printed(self, snapshot, capsys):
        assert main(["timeline", snapshot, "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "gi1" in out and "█" in out

    def test_label_flag(self, snapshot, capsys):
        assert main(["timeline", snapshot, "--label", "subject"]) == 0
        assert "murder" in capsys.readouterr().out


class TestServeAndClient:
    """The service commands, driven against an in-process server."""

    @pytest.fixture
    def server(self):
        from vidb.service import ServiceExecutor, VideoServer

        service = ServiceExecutor(rope_database(), max_workers=2)
        with service, VideoServer(service, port=0) as srv:
            srv.start_background()
            yield srv

    def test_serve_missing_database(self, capsys):
        assert main(["serve", "/nonexistent/db.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--workers", "-3"),
        ("--max-in-flight", "0"), ("--max-in-flight", "-1")])
    def test_serve_pool_bounds_must_be_positive(self, capsys, flag, value):
        """A one-line usage error with exit 2, not a traceback (workers)
        or a server that rejects every query (max-in-flight)."""
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "/nonexistent/db.json", flag, value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least 1" in err
        assert "Traceback" not in err

    def test_client_ping(self, server, capsys):
        __, port = server.address
        assert main(["client", "--port", str(port), "ping"]) == 0
        assert "pong" in capsys.readouterr().out

    def test_client_query_and_repeat(self, server, capsys):
        __, port = server.address
        status = main(["client", "--port", str(port), "--repeat", "2",
                       "query",
                       "?- interval(G), object(o1), o1 in G.entities."])
        assert status == 0
        out = capsys.readouterr().out
        assert out.count("2 answer(s)") == 2

    def test_client_insert_then_query(self, server, capsys):
        __, port = server.address
        assert main(["client", "--port", str(port),
                     "entity", "o77", "name=Extra"]) == 0
        assert main(["client", "--port", str(port),
                     "interval", "gi77", "300-310", "o77"]) == 0
        assert main(["client", "--port", str(port), "query",
                     "?- interval(G), object(o77), o77 in G.entities."]) == 0
        out = capsys.readouterr().out
        assert "created o77" in out and "gi77" in out
        assert "1 answer(s)" in out

    def test_client_metrics(self, server, capsys):
        __, port = server.address
        main(["client", "--port", str(port), "query", "?- object(O)."])
        assert main(["client", "--port", str(port), "metrics"]) == 0
        out = capsys.readouterr().out
        assert "queries.served" in out and "cache." in out

    def test_client_connection_refused(self, capsys):
        # A dead server is an environment error (1), not a usage error.
        assert main(["client", "--port", "1", "ping"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_client_bad_op(self, server, capsys):
        __, port = server.address
        assert main(["client", "--port", str(port), "frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err


class TestDocstring:
    def test_commands_block_lists_every_subcommand(self):
        documented = set(re.findall(r"^    vidb (\w+)", vidb.cli.__doc__,
                                    re.MULTILINE))
        parser = _build_parser()
        [subparsers] = [action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)]
        assert documented == set(subparsers.choices)


class TestDocumentedFlags:
    """Every ``vidb <command> ... --flag`` written in README.md or
    docs/*.md names a flag that command's parser accepts."""

    ROOT = Path(__file__).resolve().parents[2]
    #: One invocation: the command, then its words up to the end of the
    #: line, the inline-code span or the shell command.
    INVOCATION = re.compile(r"\bvidb(?:\.cli)? ([a-z]+)\b([^`|;&\n]*)")

    def command_flags(self):
        [subparsers] = [action for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)]
        return {name: {option for action in command._actions
                       for option in action.option_strings}
                for name, command in subparsers.choices.items()}

    def test_every_documented_flag_exists(self):
        accepted = self.command_flags()
        checked, stale = 0, []
        for doc in [self.ROOT / "README.md",
                    *sorted((self.ROOT / "docs").glob("*.md"))]:
            # Shell line continuations belong to the same command.
            text = doc.read_text(encoding="utf-8").replace("\\\n", " ")
            for command, words in self.INVOCATION.findall(text):
                if command not in accepted:
                    continue  # prose ("vidb serving ...")
                for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                                       words):
                    checked += 1
                    if flag not in accepted[command]:
                        stale.append(f"{doc.name}: vidb {command} {flag}")
        assert stale == []
        assert checked > 50  # the scan still finds the docs' commands


class TestBusyMetricsPort:
    """A role whose ``--metrics-port`` is taken exits 1 at once; closing
    its never-started wire endpoint must not wait for a serve loop."""

    def run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(vidb.cli.__file__).resolve().parents[1]),
             env.get("PYTHONPATH", "")])
        return subprocess.run([sys.executable, "-m", "vidb.cli", *args],
                              env=env, capture_output=True, text=True,
                              timeout=10)

    @pytest.fixture
    def busy_port(self):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            yield held.getsockname()[1]

    def test_replicate_serve_port(self, tmp_path, busy_port):
        from vidb.durability import DurableDatabase

        DurableDatabase(tmp_path / "state", fsync="never").close()
        done = self.run_cli("replicate", str(tmp_path / "state"),
                            "--serve-port", "0",
                            "--metrics-port", str(busy_port))
        assert done.returncode == 1
        assert "Address already in use" in done.stderr

    def test_router(self, busy_port):
        done = self.run_cli("router", "--primary", "127.0.0.1:1",
                            "--port", "0", "--metrics-port", str(busy_port))
        assert done.returncode == 1
        assert "Address already in use" in done.stderr
