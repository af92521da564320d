import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import random
import re
import typing

import jsonschema
import pytest

import dsr.cli
import dsr.verify
from dsr import ConvergenceError, enumerate_connected, graph6_encode, kpq, random_cross_edges
from dsr.cli import (
    CHECK_RECORD_SCHEMA,
    SEARCH_REPORT_SCHEMA,
    VERIFY_REPORT_SCHEMA,
    build_parser,
    main,
)
from dsr.verify import PLACEMENTS, ExtremalReport, LemmaVerdict, SuiteResult
from helpers import count_calls, count_slow_paths


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCompute:
    def test_graph6_file(self, tmp_path, capsys):
        src = tmp_path / "in.g6"
        src.write_text("C~\nBg\n")
        code, out, _ = run(capsys, "compute", str(src))
        assert code == 0
        records = json.loads(out)
        assert records[0]["rho"] == 3.0
        assert records[0]["edge_connectivity"] == 3
        assert abs(records[1]["rho"] - (1 + math.sqrt(3))) < 1e-7
        assert len(records[1]["perron"]) == 3

    def test_graph6_header_is_not_part_of_the_label(self, tmp_path, capsys):
        src = tmp_path / "in.g6"
        src.write_text(">>graph6<<A_\nBw\n")
        code, out, _ = run(capsys, "compute", str(src))
        assert code == 0
        assert [rec["graph6"] for rec in json.loads(out)] == ["A_", "Bw"]
        code, out, _ = run(capsys, "compute", str(src), "--format", "text")
        assert [line.split()[1] for line in out.splitlines()] == ["A_", "Bw"]

    def test_one_call_per_graph_of_each_traced_layer(self, tmp_path, monkeypatch, capsys):
        """``check_trace_counts`` in perfbench/run.py requires one call each
        of ``graph6_decode``, ``distance_matrix``, ``perron`` and
        ``edge_connectivity`` per line of the compute corpus, counted where
        the tracer wraps them, at ``dsr.cli``'s bindings; a compute that
        makes other counts reads as incorrect there."""
        src = tmp_path / "in.g6"
        src.write_text("C~\nBg\nD]w\n")
        calls = [count_calls(monkeypatch, dsr.cli, name) for name in
                 ("graph6_decode", "distance_matrix", "perron", "edge_connectivity")]
        code, out, _ = run(capsys, "compute", str(src))
        assert code == 0 and len(json.loads(out)) == 3
        assert [len(c) for c in calls] == [3, 3, 3, 3]

    def test_info_log_line_leaves_the_report_alone(self, tmp_path, capsys, caplog):
        src = tmp_path / "in.g6"
        src.write_text("C~\nBg\nD]w\n")
        code, quiet, _ = run(capsys, "compute", str(src))
        caplog.set_level(logging.INFO, logger="dsr.cli")
        code, out, err = run(capsys, "compute", str(src))
        assert code == 0 and out == quiet and err == ""
        mean = sum(rec["iterations"] for rec in json.loads(out)) / 3
        [line] = [rec.getMessage() for rec in caplog.records if rec.name == "dsr.cli"]
        assert re.fullmatch(
            rf"compute: 3 graphs, {mean:.1f} power iterations mean; load \S+ s, "
            r"distances \S+ s, perron \S+ s, cuts \S+ s, write \S+ s", line)

    def test_inline_edges(self, capsys):
        code, out, _ = run(capsys, "compute", "--edges", "0-1,1-2", "--format", "text")
        assert code == 0
        assert "rho=2.7320508076" in out

    def test_csv_columns(self, tmp_path, capsys):
        src = tmp_path / "in.g6"
        src.write_text("C~\n")
        code, out, _ = run(capsys, "compute", str(src), "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "index,graph6,n,rho,residual,iterations,edge_connectivity,perron"

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.g6"
        src.write_text("C~\nB!!!\n")
        code, _, err = run(capsys, "compute", str(src))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "no-such-file.g6")
        assert code == 2

    def test_bad_inline_edges_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--edges", "0-0")
        assert code == 2
        assert "self-loop" in err

    def test_edges_index_above_63_exit_2(self, capsys):
        # the vertex count is checked before any row is allocated
        code, out, err = run(capsys, "compute", "--edges", "0-10000000000000000000")
        assert code == 2 and not out
        assert err == "error: vertex count must be in 1..64, got 10000000000000000001\n"

    def test_disconnected_line_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.g6"
        src.write_text("C~\nCA\n")  # line 2: one edge on four vertices
        code, out, err = run(capsys, "compute", str(src))
        assert code == 2 and not out
        assert "line 2: graph is disconnected" in err

    @pytest.mark.parametrize("edges, message", [
        ("0-1-2", "bad edge token '0-1-2', expected like 0-1"),
        ("a-b", "bad edge token 'a-b', expected integers"),
        (",", "no edges given"),
    ], ids=["three-parts", "not-integers", "no-edges"])
    def test_malformed_inline_edges_exit_2(self, capsys, edges, message):
        code, out, err = run(capsys, "compute", "--edges", edges)
        assert code == 2 and not out
        assert err == f"error: {message}\n"

    def test_empty_edge_tokens_are_skipped(self, capsys):
        code, out, _ = run(capsys, "compute", "--edges", "0-1,,1-2")
        assert code == 0 and out == run(capsys, "compute", "--edges", "0-1,1-2")[1]

    def test_blank_graph6_file_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.g6"
        src.write_text("\n  \n\t\n")
        code, out, err = run(capsys, "compute", str(src))
        assert code == 2 and not out
        assert err == f"error: {src}: no graphs found\n"

    def test_convergence_error_exit_4(self, monkeypatch, capsys):
        def stuck(dm):
            raise ConvergenceError("no convergence after 9 iterations")

        monkeypatch.setattr(dsr.cli, "perron", stuck)
        code, out, err = run(capsys, "compute", "--edges", "0-1,1-2")
        assert code == 4 and not out
        assert err == "internal error: no convergence after 9 iterations\n"

    def test_disconnected_inline_edges_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--edges", "0-1,2-3")
        assert code == 2
        assert "disconnected" in err

    @pytest.mark.parametrize("argv, message", [
        (["GRAPHS", "--edges", "0-1"], "give exactly one of a graph6 file and --edges"),
    ], ids=["source-and-edges"])
    def test_ignored_input_is_a_usage_error(self, tmp_path, capsys, argv, message):
        src = tmp_path / "in.g6"
        src.write_text("C~\n")
        with pytest.raises(SystemExit) as exc:
            main(["compute", *[str(src) if a == "GRAPHS" else a for a in argv]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert not out and f"error: {message}" in err

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def broken(dm):
            raise ValueError("internal fault")

        monkeypatch.setattr(dsr.cli, "perron", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["compute", "--edges", "0-1,1-2"])


class TestSearch:
    def test_report_schema_and_exit(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "5", "--r", "2")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, SEARCH_REPORT_SCHEMA)
        assert payload["matches_kpq"] is True
        assert payload["n"] == 5 and payload["r"] == 2

    def test_usage_error_on_bad_r(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "4", "--r", "3"])
        assert exc.value.code == 2

    def test_usage_error_above_builtin_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "9", "--r", "2"])
        assert exc.value.code == 2
        assert "needs --corpus" in capsys.readouterr().err

    def test_encodes_only_the_classes_tied_at_the_minimum(self, monkeypatch, capsys):
        table = dsr.verify.class_table(8)
        rho = table.rho[table.lam == 3]
        tied = int((rho == rho.min()).sum())
        encodes = count_calls(monkeypatch, dsr.verify, "graph6_encode")
        code, out, _ = run(capsys, "search", "--n", "8", "--r", "3")
        assert code == 0 and json.loads(out)["matches_kpq"] is True
        assert 1 <= len(encodes) <= tied + 1

    def test_no_graph_with_connectivity_r_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "paths.g6"
        corpus.write_bytes(b"DhC\n")  # the path on five vertices, connectivity 1
        code, out, err = run(capsys, "search", "--n", "5", "--r", "3",
                             "--corpus", str(corpus))
        assert code == 2 and not out
        assert "no connected graphs of order 5 with edge connectivity 3" in err

    def test_corpus_file(self, tmp_path, capsys):
        corpus = tmp_path / "order5.g6"
        corpus.write_bytes(b"\n".join(graph6_encode(g) for g in enumerate_connected(5)))
        code, out, _ = run(capsys, "search", "--n", "5", "--r", "1",
                           "--corpus", str(corpus))
        assert code == 0
        assert json.loads(out)["matches_kpq"] is True

    def test_partial_corpus_counterexample_exit_3(self, tmp_path, capsys):
        # corpus deliberately missing kpq(4,1): the reported minimizer cannot
        # match, and the command must flag it loudly
        keep = [
            g for g in enumerate_connected(5)
            if sorted(g.degree(v) for v in range(5)) != [1, 3, 3, 3, 4]
        ]
        corpus = tmp_path / "gap.g6"
        corpus.write_bytes(b"\n".join(graph6_encode(g) for g in keep))
        code, out, err = run(capsys, "search", "--n", "5", "--r", "1",
                             "--corpus", str(corpus))
        assert code == 3
        assert "COUNTEREXAMPLE" in err

    def test_duplicate_class_corpus_exit_0(self, tmp_path, capsys):
        classes = [graph6_encode(g) for g in enumerate_connected(6)]
        duplicate = graph6_encode(kpq(5, 2))
        assert duplicate not in classes  # a second labeling of a listed class
        corpus = tmp_path / "dup.g6"
        corpus.write_bytes(b"\n".join(classes + [duplicate]))
        code, out, err = run(capsys, "search", "--n", "6", "--r", "2",
                             "--corpus", str(corpus))
        assert code == 0, err
        assert json.loads(out)["uniqueness_gap"] == pytest.approx(0.2593, abs=1e-4)

    @pytest.mark.parametrize("bad, message", [
        (b"~?@G", "line 3: long-form graph6"),
        (b"EwCG", "line 3: graph is disconnected"),
    ], ids=["malformed", "disconnected"])
    def test_corpus_error_names_line_exit_2(self, tmp_path, capsys, bad, message):
        corpus = tmp_path / "bad.g6"
        corpus.write_bytes(b"E~~?\n\n" + bad + b"\nE~~w\n")
        code, _, err = run(capsys, "search", "--n", "6", "--r", "2",
                           "--corpus", str(corpus))
        assert code == 2
        assert f"error: {corpus}: {message}" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "4", "--r", "1",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("n,r,class_size,min_rho")


class TestCheck:
    def test_valid_params(self, capsys):
        code, out, _ = run(capsys, "check", "--n1", "4", "--n2", "4",
                           "--r", "2", "--t", "2")
        assert code == 0
        records = json.loads(out)
        for rec in records:
            jsonschema.validate(rec, CHECK_RECORD_SCHEMA)
            assert rec["holds"] is True
        claims = {rec["claim"] for rec in records}
        assert "bridge_flattening_decreases_radius" in claims
        assert "hub_row_identity" in claims
        assert "form_shift_identity" in claims

    def test_columns_are_the_verdict_fields(self, capsys):
        code, out, _ = run(capsys, "check", "--n1", "4", "--n2", "4",
                           "--r", "2", "--t", "2", "--format", "csv")
        assert code == 0
        columns = [f.name for f in dataclasses.fields(LemmaVerdict)]
        assert columns == list(CHECK_RECORD_SCHEMA["properties"])
        assert out.splitlines()[0] == ",".join(columns)

    def test_mixed_runs_five_placements(self, monkeypatch, capsys):
        draws = count_calls(monkeypatch, dsr.verify, "random_cross_edges")
        code, out, _ = run(capsys, "check", "--n1", "5", "--n2", "4",
                           "--r", "2", "--t", "1")
        assert code == 0
        records = json.loads(out)
        flattenings = [r for r in records if r["claim"].startswith("bridge_")]
        # the placements main drew to validate are the ones checked
        assert len(flattenings) == len(draws) == PLACEMENTS == 5

    @pytest.mark.parametrize("seed", [0, 7])
    def test_placement_i_is_drawn_from_seed_plus_i(self, capsys, seed):
        code, out, _ = run(capsys, "check", "--n1", "6", "--n2", "5", "--r", "3",
                           "--t", "1", "--seed", str(seed))
        assert code == 0
        labels = [rec["params"] for rec in json.loads(out)
                  if rec["claim"] == "bridge_flattening_decreases_radius"]
        draws = [random_cross_edges(6, 5, 3, 1, random.Random(seed + i)) for i in range(5)]
        assert labels == [f"n1=6 n2=5 r=3 t=1 cross={list(cross)}" for cross in draws]

    @pytest.mark.parametrize("t, placements", [(2, 1), (1, 5)])
    def test_solves_each_flattened_pair_once(self, monkeypatch, capsys, t, placements):
        stacks = count_calls(monkeypatch, dsr.verify, "perron_stack")
        distances = count_calls(monkeypatch, dsr.verify, "distance_stack")
        slow = count_slow_paths(monkeypatch)
        code, _, _ = run(capsys, "check", "--n1", "5", "--n2", "4",
                         "--r", "2", "--t", str(t))
        assert code == 0
        # the bridge and flattened graph of every placement, in one stacked
        # solve and one order-9 distance stack
        assert [len(mats) for mats, in stacks] == [2 * placements]
        assert [adj.shape for adj, in distances] == [(2 * placements, 9, 9)]
        assert not any(slow)

    def test_identity_band_is_the_verify_tolerance(self, monkeypatch, capsys):
        monkeypatch.setattr(dsr.verify, "IDENTITY_TOL", 0.0)
        code, out, _ = run(capsys, "check", "--n1", "4", "--n2", "4",
                           "--r", "2", "--t", "2")
        assert code == 3
        assert {rec["claim"]: rec["holds"] for rec in json.loads(out)} == {
            "bridge_flattening_decreases_radius": True,
            "hub_row_identity": False,
            "form_shift_identity": False,
        }

    def test_invalid_params_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--n1", "3", "--n2", "3", "--r", "2", "--t", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n1, n2, r, t, message", [
        ("5", "5", "1", "2", "need 1 <= t <= r, got t=2, r=1"),
        ("1", "5", "2", "1", "need min(n1, n2) >= r+2, got n1=1, n2=5, r=2"),
    ], ids=["t-above-r", "clique-too-small"])
    def test_invalid_params_are_named_before_placements(self, capsys, n1, n2, r, t, message):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--n1", n1, "--n2", n2, "--r", r, "--t", t])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("n1, n2, r, t", [
        ("40", "40", "1", "1"), ("33", "33", "2", "1"),
    ], ids=["hub-only", "mixed"])
    def test_order_above_64_exit_2(self, capsys, n1, n2, r, t):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--n1", n1, "--n2", n2, "--r", r, "--t", t])
        assert exc.value.code == 2
        assert f"n1 + n2 <= 64, got {int(n1) + int(n2)}" in capsys.readouterr().err


class TestVerifyAll:
    def test_small_caps_pass(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify-all", "--max-n", "4",
                           "--seed", "3", "--out", str(out_path))
        assert code == 0
        assert "overall: ok" in out
        payload = json.loads(out_path.read_text())
        jsonschema.validate(payload, VERIFY_REPORT_SCHEMA)
        assert payload["ok"] is True
        assert all(s["failures"] == 0 for s in payload["suites"])

    @pytest.mark.parametrize("max_n", ["0", "9"])
    def test_max_n_out_of_range_exit_2(self, capsys, max_n):
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", "--max-n", max_n])
        assert exc.value.code == 2
        assert "--max-n must be in 1..8" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["DIR", "DIR/missing/report.json"],
                             ids=["directory", "missing-parent"])
    def test_unwritable_out_exits_2_before_any_suite(self, monkeypatch, tmp_path, capsys, out):
        def unreachable(seed, max_n):
            raise AssertionError("a suite ran before --out was opened")

        monkeypatch.setattr(dsr.cli, "run_all_suites", unreachable)
        path = out.replace("DIR", str(tmp_path))
        code, text, err = run(capsys, "verify-all", "--max-n", "4", "--out", path)
        assert code == 2 and not text
        assert err.startswith("error: ") and path in err

    @pytest.mark.parametrize("existing", [None, "old report\n"], ids=["new", "existing"])
    def test_failed_suite_leaves_no_truncated_report(self, monkeypatch, tmp_path, existing):
        report = tmp_path / "report.json"
        if existing is not None:
            report.write_text(existing)

        def crash(seed, max_n):
            raise RuntimeError("suite crashed")

        monkeypatch.setattr(dsr.cli, "run_all_suites", crash)
        with pytest.raises(RuntimeError, match="suite crashed"):
            main(["verify-all", "--max-n", "4", "--out", str(report)])
        assert (report.read_text() if report.exists() else None) == existing

    def test_injected_fault_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(dsr.cli, "run_all_suites", lambda seed, max_n: [
            SuiteResult("injected_fault", 1, 1, "self-test fault")
        ])
        code, out, _ = run(capsys, "verify-all", "--max-n", "4", "--seed", "3")
        assert code == 3
        assert "injected_fault        1       1  FAIL" in out
        assert out.endswith("overall: FAIL\n")


class TestSchemas:
    """Each report schema is derived from its record dataclass."""

    JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean",
                  type(None): "null"}

    @pytest.mark.parametrize("schema, cls", [
        (SEARCH_REPORT_SCHEMA, ExtremalReport),
        (CHECK_RECORD_SCHEMA, LemmaVerdict),
        (VERIFY_REPORT_SCHEMA["properties"]["suites"]["items"], SuiteResult),
    ], ids=["search", "check", "verify-suite"])
    def test_schema_follows_the_record_fields(self, schema, cls):
        hints = typing.get_type_hints(cls)
        types = {}
        for f in dataclasses.fields(cls):
            kinds = [self.JSON_TYPES[t] for t in typing.get_args(hints[f.name]) or [hints[f.name]]]
            types[f.name] = kinds if len(kinds) > 1 else kinds[0]
        assert {name: prop["type"] for name, prop in schema["properties"].items()} == types
        assert list(schema["properties"]) == [f.name for f in dataclasses.fields(cls)]
        assert schema["required"] == [f.name for f in dataclasses.fields(cls)
                                      if f.default is dataclasses.MISSING]
        assert schema["additionalProperties"] is False

    def test_check_records_require_every_column(self, capsys):
        code, out, _ = run(capsys, "check", "--n1", "4", "--n2", "4",
                           "--r", "2", "--t", "2")
        assert code == 0
        record = json.loads(out)[0]
        jsonschema.validate(record, CHECK_RECORD_SCHEMA)
        del record["residual"]
        with pytest.raises(jsonschema.ValidationError, match="'residual' is a required"):
            jsonschema.validate(record, CHECK_RECORD_SCHEMA)

    def test_search_payload_requires_the_gap(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "5", "--r", "2")
        assert code == 0
        payload = json.loads(out)
        del payload["uniqueness_gap"]
        with pytest.raises(jsonschema.ValidationError, match="'uniqueness_gap' is a required"):
            jsonschema.validate(payload, SEARCH_REPORT_SCHEMA)

    def test_suite_entry_admits_no_extra_key(self):
        entry = dataclasses.asdict(SuiteResult("closed_forms", 3, 0))
        report = {"seed": 0, "max_n": 4, "suites": [entry], "ok": True}
        jsonschema.validate(report, VERIFY_REPORT_SCHEMA)
        entry["ok"] = True
        with pytest.raises(jsonschema.ValidationError, match="'ok' was unexpected"):
            jsonschema.validate(report, VERIFY_REPORT_SCHEMA)

    def test_single_class_corpus_null_gap_validates(self, tmp_path, capsys):
        corpus = tmp_path / "one.g6"
        corpus.write_bytes(graph6_encode(kpq(4, 2)) + b"\n")
        code, out, _ = run(capsys, "search", "--n", "5", "--r", "2", "--corpus", str(corpus))
        assert code == 0
        payload = json.loads(out)
        assert payload["runner_up_rho"] is None and payload["uniqueness_gap"] is None
        jsonschema.validate(payload, SEARCH_REPORT_SCHEMA)


def test_help_lists_every_option():
    # no option may hide behind argparse.SUPPRESS, so no test hook can ride
    # along in the production CLI
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"compute", "check", "search", "verify-all"}
    for name, sub in [("dsr", parser), *subparsers.choices.items()]:
        text = sub.format_help()
        for action in sub._actions:
            for option in action.option_strings:
                assert option in text, f"{name}: {option} missing from --help"


@pytest.mark.parametrize("argv", [
    ["search", "--n", "5", "--r", "2"],
    ["verify-all", "--max-n", "4"],
], ids=["search", "verify-all"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(capsys, argv, threads):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", threads])
    assert exc.value.code == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err


def test_threads_give_identical_bytes(tmp_path, capsys):
    paths = []
    for threads in ("1", "4"):
        p = tmp_path / f"search-{threads}.json"
        code, _, _ = run(capsys, "search", "--n", "6", "--r", "2",
                         "--threads", threads, "--out", str(p))
        assert code == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("body, reason", [
    (b"E~~?\nE\xc3\xa9~w\n", "line 2: trailing garbage after 3 data bytes"),
    # \x1c is whitespace to str.strip but not to bytes.strip
    (b"E~~?\n\x1c\nE~~w\n", "line 2: malformed length byte 28"),
    # a lone \r is not a line break
    (b"E~~?\rE~~w\n", "line 1: trailing garbage after 3 data bytes"),
], ids=["non-ascii", "file-separator", "carriage-return"])
def test_graph6_readers_keep_their_error_text(tmp_path, capsys, body, reason):
    # compute and search --corpus read files through one loader
    src = tmp_path / "in.g6"
    src.write_bytes(body)
    for argv in (["compute"], ["search", "--n", "6", "--r", "2", "--corpus"]):
        code, _, err = run(capsys, *argv, str(src))
        assert (code, err) == (2, f"error: {src}: {reason}\n")


@pytest.mark.parametrize("lines, order, reason", [
    ([b"C~", b"  ", b"Bg", b"C~~"], None, "line 4: trailing garbage after 1 data bytes"),
    ([b"C~", b"  ", b"Bg", b"CA"], None, "line 4: graph is disconnected"),
    ([b"C~", b"  ", b"Bg"], 4, "line 3: order 3, expected 4"),
    ([b"C~", b">>graph6<<"], None, "line 2: empty graph6 string"),
    # the loader drops one header; the codec takes none
    ([b">>graph6<<>>graph6<<C~"], None, "line 1: malformed length byte 62"),
], ids=["malformed", "disconnected", "order", "header-only", "doubled-header"])
def test_loader_names_each_fault(tmp_path, lines, order, reason):
    src = tmp_path / "in.g6"
    src.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(dsr.cli._InputError) as exc:
        dsr.cli._load_graphs(str(src), order)
    assert str(exc.value) == f"{src}: {reason}"


def test_loader_skips_blank_lines(tmp_path):
    src = tmp_path / "in.g6"
    src.write_bytes(b"\n \t\nC~\r\n\r\n>>graph6<<Bg\n   \n")
    assert [(label, g.n) for label, g in dsr.cli._load_graphs(str(src), None)] == [
        ("C~", 4), ("Bg", 3)]


@pytest.mark.parametrize("argv, key, token", [
    (["compute", "GRAPHS"], "graph6", "{}"),
    (["check", "--n1", "5", "--n2", "4", "--r", "2", "--t", "1"], "claim", "{}"),
    (["search", "--n", "5", "--r", "2"], "minimizer_graph6", "minimizer={}"),
], ids=["compute", "check", "search"])
def test_every_format_carries_the_json_records(tmp_path, capsys, argv, key, token):
    src = tmp_path / "in.g6"
    src.write_text("C~\nBg\nDhC\n")
    argv = [str(src) if a == "GRAPHS" else a for a in argv]
    outputs = {}
    for fmt in ("json", "csv", "text"):
        code, outputs[fmt], _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
    payload = json.loads(outputs["json"])
    records = payload if isinstance(payload, list) else [payload]
    values = [rec[key] for rec in records]
    assert len(values) > 1 or argv[0] == "search"
    rows = list(csv.DictReader(io.StringIO(outputs["csv"])))
    assert [row[key] for row in rows] == values
    lines = outputs["text"].splitlines()
    assert len(lines) == len(records)
    for line, value in zip(lines, values):
        assert token.format(value) in line.split()


@pytest.mark.parametrize("argv", [
    ["compute", "DIR"],
    ["search", "--n", "5", "--r", "2", "--corpus", "DIR"],
    ["search", "--n", "5", "--r", "2", "--out", "DIR"],
], ids=["compute-source", "search-corpus", "out"])
def test_unreadable_path_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *[str(tmp_path) if a == "DIR" else a for a in argv])
    assert code == 2 and not out
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("argv", [
    ["compute", "GRAPHS"],
    ["check", "--n1", "5", "--n2", "4", "--r", "2", "--t", "1"],
    ["search", "--n", "6", "--r", "2"],
    ["verify-all", "--max-n", "4", "--out", "OUT"],
], ids=["compute", "check", "search", "verify-all"])
def test_json_writer_matches_json_dumps(tmp_path, monkeypatch, capsys, argv):
    """Every JSON report is what ``json.dumps(payload, indent=2)`` gives for
    its payload, byte for byte; the compute input has a label with a
    backslash, which JSON escapes."""
    src = tmp_path / "in.g6"
    src.write_text("C~\nES\\o\nDhC\nA_\n")
    argv = [{"GRAPHS": str(src), "OUT": str(tmp_path / "out.json")}.get(a, a) for a in argv]
    rendered = []
    original = dsr.cli._json

    def recorded(value, *rest):
        rendered.append((value, original(value, *rest)))
        return rendered[-1][1]

    monkeypatch.setattr(dsr.cli, "_json", recorded)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload, text = rendered[-1]  # the outermost call, which recursion ends with
    assert text == json.dumps(payload, indent=2)
    written = (tmp_path / "out.json").read_text() if argv[0] == "verify-all" else out
    assert written == text + "\n"
    if argv[0] == "compute":
        assert '"ES\\\\o"' in text


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": [], "b": {}}, [[]], None, True, False, 0, -7, 2 ** 70, 1.5, 1e-20, 1e300,
    float("nan"), float("inf"), -float("inf"), [1e308, 1e308], [1.0, float("nan")], [1.0, 2],
    [2.0, True], (1.0,), (0.1 + 0.2, 1e16), "back\\slash \"quoted\" é\n\t",
    {"x": [1, 2.0, None, "s", [3, {}]], "y": {"z": [0.5]}},
], ids=repr)
def test_json_writer_matches_json_dumps_on_each_kind(value):
    assert dsr.cli._json(value) == json.dumps(value, indent=2)
