"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_hotel_demo_runs(capsys):
    assert main(["--demo", "hotel", "--cost-model", "simple"]) == 0
    output = capsys.readouterr().out
    assert "Recommended schema" in output
    assert "Plan for" in output


def test_timing_flag(capsys):
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--timing"]) == 0
    output = capsys.readouterr().out
    assert "Stage timing" in output
    assert "bip_solving" in output


def test_cql_flag(capsys):
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--cql"]) == 0
    output = capsys.readouterr().out
    assert "CREATE TABLE" in output
    assert "PRIMARY KEY" in output


def test_output_json_flag(tmp_path, capsys):
    target = tmp_path / "recommendation.json"
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--output-json", str(target)]) == 0
    import json
    document = json.loads(target.read_text())
    assert document["indexes"]
    assert document["query_plans"]


def test_space_limit_flag(capsys):
    assert main(["--demo", "hotel", "--space-limit", "1e9"]) == 0
    assert "Recommended schema" in capsys.readouterr().out


def test_workload_module_loading(tmp_path, capsys):
    module = tmp_path / "tiny_workload.py"
    module.write_text(
        "from repro.demo import hotel_model, hotel_workload\n"
        "def build():\n"
        "    model = hotel_model()\n"
        "    return model, hotel_workload(model, include_updates=False)\n")
    assert main(["--model", str(module)]) == 0
    assert "Recommended schema" in capsys.readouterr().out


def test_workload_module_without_build_fails(tmp_path, capsys):
    module = tmp_path / "broken.py"
    module.write_text("x = 1\n")
    assert main(["--model", str(module)]) == 1
    assert "error" in capsys.readouterr().err


def test_workload_module_build_exception_is_reported(tmp_path, capsys):
    # a crashing build() must not escape as a raw traceback
    module = tmp_path / "crashy.py"
    module.write_text(
        "def build():\n"
        "    raise RuntimeError('boom at build time')\n")
    assert main(["--model", str(module)]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error:")
    assert "boom at build time" in error


def test_workload_module_import_error_is_reported(tmp_path, capsys):
    module = tmp_path / "unimportable.py"
    module.write_text("import not_a_real_module_xyz\n")
    assert main(["--model", str(module)]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error:")
    assert "failed to import" in error


def test_trace_flag_prints_run_report(capsys):
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--trace"]) == 0
    output = capsys.readouterr().out
    assert "run report" in output
    assert "recommend" in output
    assert "enumerator.queries" in output


def test_metrics_out_writes_round_trippable_report(tmp_path, capsys):
    target = tmp_path / "telemetry.json"
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--metrics-out", str(target)]) == 0
    assert "telemetry report written" in capsys.readouterr().out
    from repro.io import load_run_report
    report = load_run_report(target)
    assert report.meta["enabled"] is True
    assert report.stage_totals()["recommend"] > 0
    assert report.metrics["counters"]["enumerator.queries"] > 0


def test_trace_respects_kill_switch(monkeypatch, capsys):
    monkeypatch.setenv("NOSE_TELEMETRY", "0")
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--trace"]) == 0
    output = capsys.readouterr().out
    assert "telemetry disabled" in output
    assert "run report" not in output


def test_metrics_out_skipped_when_telemetry_disabled(monkeypatch,
                                                     tmp_path, capsys):
    monkeypatch.setenv("NOSE_TELEMETRY", "0")
    target = tmp_path / "telemetry.json"
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--metrics-out", str(target)]) == 0
    output = capsys.readouterr().out
    assert "telemetry disabled" in output
    assert not target.exists()


def test_explain_flag_prints_provenance_and_terms(capsys):
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--explain"]) == 0
    output = capsys.readouterr().out
    assert "explain:" in output
    assert "materialize" in output
    assert "after pruning" in output


def test_output_json_is_an_explain_document(tmp_path):
    target = tmp_path / "recommendation.json"
    assert main(["--demo", "hotel", "--cost-model", "simple",
                 "--output-json", str(target)]) == 0
    import json
    document = json.loads(target.read_text())
    assert document["format"] == "nose-explain/1"
    assert document["statements"]


def _write_documents(tmp_path):
    import json
    base = tmp_path / "base.json"
    other = tmp_path / "other.json"
    base.write_text(json.dumps(
        {"format": "nose-explain/1", "total_cost": 10.0,
         "indexes": [{"key": "ia", "triple": ""}], "statements": {}}))
    other.write_text(json.dumps(
        {"format": "nose-explain/1", "total_cost": 12.0,
         "indexes": [{"key": "ib", "triple": ""}], "statements": {}}))
    return base, other


def test_diff_subcommand_reports_changes(tmp_path, capsys):
    base, other = _write_documents(tmp_path)
    assert main(["diff", str(base), str(other)]) == 0
    output = capsys.readouterr().out
    assert "recommendation diff" in output
    assert "+20.00%" in output
    assert "+ ib" in output
    assert "- ia" in output


def test_diff_fail_on_regression_exceeded(tmp_path, capsys):
    base, other = _write_documents(tmp_path)
    assert main(["diff", str(base), str(other),
                 "--fail-on-regression", "10"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_diff_fail_on_regression_within_threshold(tmp_path, capsys):
    base, other = _write_documents(tmp_path)
    assert main(["diff", str(base), str(other),
                 "--fail-on-regression", "25"]) == 0
    assert capsys.readouterr().err == ""


def test_diff_missing_file_is_an_error(tmp_path, capsys):
    base, _other = _write_documents(tmp_path)
    assert main(["diff", str(base), str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_demo_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--demo", "bogus"])


def test_requires_a_source():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_verify_hotel_demo(capsys):
    assert main(["verify", "--demo", "hotel", "--scale", "0.01",
                 "--rounds", "1", "--protocols", "nose",
                 "--max-plans", "40"]) == 0
    output = capsys.readouterr().out
    assert "== hotel ==" in output
    assert "verdict: OK" in output


def test_verify_fuzz_mode_writes_report(tmp_path, capsys):
    target = tmp_path / "verify.json"
    assert main(["verify", "--fuzz", "1", "--seed", "3",
                 "--entities", "3", "--max-plans", "40",
                 "--output-json", str(target)]) == 0
    import json
    document = json.loads(target.read_text())
    assert document["ok"] is True
    trials = document["targets"]["fuzz"]["trials"]
    assert trials and all(trial["ok"] for trial in trials)
    output = capsys.readouterr().out
    assert "trial seed" in output


def test_verify_source_flags_are_exclusive():
    from repro.cli import build_verify_parser
    with pytest.raises(SystemExit):
        build_verify_parser().parse_args(["--demo", "hotel",
                                          "--fuzz", "2"])


def test_profile_hotel_demo_writes_document(tmp_path, capsys):
    target = tmp_path / "profile.json"
    assert main(["profile", "--demo", "hotel", "--scale", "0.01",
                 "--requests", "60", "--max-plans", "60",
                 "--output-json", str(target)]) == 0
    output = capsys.readouterr().out
    assert "execution profile" in output
    assert "rank correlation" in output
    import json
    document = json.loads(target.read_text())
    assert document["format"] == "nose-profile/1"
    assert document["workload"]["requests"] >= 60
    assert document["workload"]["rank_correlation"] is not None
    for record in document["statements"].values():
        measured = record["measured"]
        assert measured["p50_ms"] is not None
        assert "rows_scanned" in measured
        assert "partitions_touched" in measured
    # stable, diffable JSON: dumping the loaded document reproduces
    # the file byte for byte
    from repro.io import dump_profile, load_profile
    again = tmp_path / "again.json"
    dump_profile(load_profile(target), again)
    assert target.read_text() == again.read_text()


def test_profile_rejects_bad_protocol():
    from repro.cli import build_profile_parser
    with pytest.raises(SystemExit):
        build_profile_parser().parse_args(["--protocol", "bogus"])
