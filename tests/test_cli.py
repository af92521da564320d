import json
import math

import jsonschema
import pytest

import dsr.cli
from dsr import enumerate_connected, graph6_encode, kpq
from dsr.cli import (
    CHECK_RECORD_SCHEMA,
    SEARCH_REPORT_SCHEMA,
    VERIFY_REPORT_SCHEMA,
    main,
)


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

    def test_disconnected_line_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.g6"
        src.write_text("C~\nCA\n")  # line 2: one edge on four vertices
        code, out, err = run(capsys, "compute", str(src))
        assert code == 2 and not out
        assert "line 2: graph is disconnected" in err

    def test_disconnected_inline_edges_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--edges", "0-1,2-3")
        assert code == 2
        assert "disconnected" in err

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
        (b"~?@G", "corpus line 3: long-form graph6"),
        (b"EwCG", "corpus line 3: graph is disconnected"),
    ], ids=["malformed", "disconnected"])
    def test_corpus_error_names_line_exit_2(self, tmp_path, capsys, bad, message):
        corpus = tmp_path / "bad.g6"
        corpus.write_bytes(b"E~~?\n\n" + bad + b"\nE~~w\n")
        code, _, err = run(capsys, "search", "--n", "6", "--r", "2",
                           "--corpus", str(corpus))
        assert code == 2
        assert message in err

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

    def test_mixed_runs_five_placements(self, capsys):
        code, out, _ = run(capsys, "check", "--n1", "5", "--n2", "4",
                           "--r", "2", "--t", "1")
        assert code == 0
        records = json.loads(out)
        flattenings = [r for r in records if r["claim"].startswith("bridge_")]
        assert len(flattenings) == 5

    def test_invalid_params_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--n1", "3", "--n2", "3", "--r", "2", "--t", "2"])
        assert exc.value.code == 2


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

    def test_injected_fault_exit_3(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--max-n", "4",
                           "--seed", "3", "--inject-fault")
        assert code == 3
        assert "FAIL" in out


def test_threads_give_identical_bytes(tmp_path, capsys):
    paths = []
    for threads in ("1", "4"):
        p = tmp_path / f"search-{threads}.json"
        code, _, _ = run(capsys, "search", "--n", "6", "--r", "2",
                         "--threads", threads, "--out", str(p))
        assert code == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
