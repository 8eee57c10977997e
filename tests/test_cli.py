"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import re

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_generate_and_stats(tmp_path, capsys):
    output = tmp_path / "corpus.jsonl"
    code = main([
        "generate", str(output), "--scale", "0.02", "--seed", "7",
        "--regions", "KOR", "JPN",
    ])
    assert code == 0
    assert output.exists()
    out = capsys.readouterr().out
    assert "wrote" in out

    code = main(["stats", str(output)])
    assert code == 0
    out = capsys.readouterr().out
    assert "KOR" in out and "JPN" in out
    assert "cuisines" in out


def test_resolve_command(capsys):
    code = main(["resolve", "2 cups chopped tomatoes", "soy sauce"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tomato" in out
    assert "soybean sauce" in out


def test_resolve_unresolved(capsys):
    main(["resolve", "powdered moon rock"])
    assert "(unresolved)" in capsys.readouterr().out


def test_experiment_command(capsys):
    code = main([
        "experiment", "fig1", "--scale", "0.02", "--seed", "3",
        "--regions", "KOR", "JPN",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Fig. 1" in out


def test_experiment_artifacts(tmp_path, capsys):
    code = main([
        "experiment", "table1", "--scale", "0.02", "--seed", "3",
        "--regions", "KOR", "JPN", "--artifacts", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "table1.csv").exists()


def test_evolve_command(capsys):
    code = main([
        "evolve", "CM-R", "KOR", "--scale", "0.05", "--seed", "2",
        "--runs", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "CM-R" in out
    assert "distance to empirical" in out


def test_report_command(tmp_path, capsys):
    output = tmp_path / "report.md"
    code = main([
        "report", str(output), "--scale", "0.03", "--seed", "4",
        "--runs", "2", "--regions", "KOR", "JPN", "--no-ablations",
    ])
    assert code == 0
    assert output.exists()
    text = output.read_text()
    assert "## Fig. 4" in text
    out = capsys.readouterr().out
    assert "fig4_null_separation" in out


def test_sweep_command(capsys):
    code = main([
        "sweep", "--regions", "KOR", "JPN", "--models", "CM-R", "NM",
        "--runs", "2", "--scale", "0.02", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep: 2 cuisines x 2 models x 2 runs = 8 total" in out
    assert "CM-R" in out and "NM" in out and "total" in out


def test_sweep_cache_warm_second_pass(tmp_path, capsys):
    argv = [
        "sweep", "--regions", "KOR", "--models", "CM-R", "--runs", "2",
        "--scale", "0.02", "--seed", "3", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    # The batched cell is one run entry.
    assert f"cache {tmp_path}: 1 run entries, 0 curve entries" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    # Every run served from cache, none executed.
    total_line = next(
        line for line in warm.splitlines() if line.startswith("total")
    )
    assert total_line.split("|")[3].strip() == "2"  # cached
    assert total_line.split("|")[4].strip() == "0"  # executed


def test_sweep_mine_prewarms_experiment_zero_mining(
    tmp_path, capsys, monkeypatch
):
    # `repro sweep --mine` warms both curve kinds (per-cell model curves
    # and empirical curves), so a matching `repro experiment fig4`
    # afterwards must reach no miner at all (DESIGN.md §6).
    common = [
        "--regions", "KOR", "--runs", "2", "--scale", "0.02",
        "--seed", "3", "--cache-dir", str(tmp_path),
    ]
    assert main(["sweep", "--models", "CM-R", "CM-C", "CM-M", "NM",
                 "--mine", *common]) == 0
    capsys.readouterr()

    def _no_mining(*_args, **_kwargs):
        raise AssertionError("warm experiment must not mine")

    monkeypatch.setattr(
        "repro.models.ensemble.mine_frequencies", _no_mining
    )
    monkeypatch.setattr(
        "repro.analysis.invariants.mine_frequent_itemsets", _no_mining
    )
    assert main(["experiment", "fig4", *common]) == 0
    assert "Fig. 4" in capsys.readouterr().out


def test_sweep_mine_requires_cache_dir(capsys):
    code = main([
        "sweep", "--regions", "KOR", "--models", "CM-R", "--runs", "2",
        "--scale", "0.02", "--mine",
    ])
    assert code == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_sweep_rejects_unknown_model():
    with pytest.raises(SystemExit):
        main(["sweep", "--models", "CM-X"])


def test_sweep_rejects_duplicate_regions(capsys):
    code = main([
        "sweep", "--regions", "KOR", "KOR", "--runs", "2", "--scale", "0.02",
    ])
    assert code == 1
    assert "duplicate region codes" in capsys.readouterr().err


def test_cache_stats_missing_directory(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["cache", "stats", str(missing)]) == 0
    assert "no cache directory" in capsys.readouterr().out


def test_cache_stats_and_clear_roundtrip(tmp_path, capsys):
    cache_dir = tmp_path / "runs"
    assert main([
        "sweep", "--regions", "KOR", "--models", "NM", "--runs", "2",
        "--scale", "0.02", "--cache-dir", str(cache_dir),
    ]) == 0
    capsys.readouterr()

    assert main(["cache", "stats", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"runs\s*\|\s*entries\s*\|\s*1\b", out)  # one cell
    assert "total size" in out

    assert main(["cache", "clear", str(cache_dir)]) == 0
    assert "removed 1 run entries" in capsys.readouterr().out

    assert main(["cache", "stats", str(cache_dir)]) == 0
    assert re.search(r"entries\s*\|\s*0\b", capsys.readouterr().out)


def test_cache_commands_cover_runs_curves_and_debris(tmp_path, capsys):
    """Runs and mined curves share the cache directory, so the cache
    command lists and clears both, and counts debris on its own row."""
    from repro.durable import tmp_path_for
    from repro.runtime import CurveCache, RunCache

    runs = RunCache(tmp_path)
    runs.put("a" * 64, {"fake": "run"})
    CurveCache(tmp_path).put("b" * 64, [3, 2, 1])
    tmp_path_for(runs.path_for("c" * 64)).write_bytes(b"half a run")

    assert main(["cache", "stats", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"runs\s*\|\s*entries\s*\|\s*1\b", out)
    assert re.search(r"curves\s*\|\s*entries\s*\|\s*1\b", out)
    assert re.search(r"runs\s*\|\s*orphan temp files\s*\|\s*1\b", out)
    assert re.search(r"curves\s*\|\s*orphan temp files\s*\|\s*0\b", out)

    assert main(["cache", "clear", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "removed 1 run entries and 1 curve entries" in out
    assert "removed 1 orphan temp files" in out
    assert list(tmp_path.iterdir()) == []


def test_cache_clear_missing_directory(tmp_path, capsys):
    assert main(["cache", "clear", str(tmp_path / "nope")]) == 0
    assert "nothing to clear" in capsys.readouterr().out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["evolve", "CM-X", "KOR"])


def test_stats_missing_file_clean_error(capsys):
    code = main(["stats", "/nonexistent/corpus.jsonl"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_evolve_unknown_region_clean_error(capsys):
    code = main(["evolve", "CM-R", "ATLANTIS", "--scale", "0.02"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_evolve_engine_flag(capsys):
    code = main([
        "evolve", "CM-R", "KOR", "--scale", "0.05", "--seed", "2",
        "--runs", "2", "--engine", "reference",
    ])
    assert code == 0
    assert "CM-R on KOR" in capsys.readouterr().out


def test_engine_flag_changes_runs_but_not_structure(tmp_path, capsys):
    """The two engines produce distinct cached runs for the same seed."""
    cache_dir = tmp_path / "runs"
    for engine in ("reference", "batched"):
        assert main([
            "sweep", "--regions", "KOR", "--models", "NM", "--runs", "2",
            "--scale", "0.02", "--seed", "3", "--engine", engine,
            "--cache-dir", str(cache_dir),
        ]) == 0
    capsys.readouterr()
    # Different keys, no sharing: two reference runs are two entries,
    # the batched cell one more.
    assert main(["cache", "stats", str(cache_dir)]) == 0
    assert re.search(r"runs\s*\|\s*entries\s*\|\s*3\b", capsys.readouterr().out)


def test_engine_flag_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["evolve", "CM-R", "KOR", "--engine", "warp"])


def test_cache_prune_requires_max_age(tmp_path, capsys):
    assert main(["cache", "prune", str(tmp_path)]) == 2
    assert "--max-age-days" in capsys.readouterr().err


def test_cache_prune_rejects_negative_age(tmp_path, capsys):
    code = main(["cache", "prune", str(tmp_path), "--max-age-days", "-1"])
    assert code == 2
    assert ">= 0" in capsys.readouterr().err


def test_cache_prune_missing_directory(tmp_path, capsys):
    code = main([
        "cache", "prune", str(tmp_path / "nope"), "--max-age-days", "7",
    ])
    assert code == 0
    assert "nothing to prune" in capsys.readouterr().out


def test_cache_prune_roundtrip(tmp_path, capsys):
    import os
    import time

    cache_dir = tmp_path / "runs"
    assert main([
        "sweep", "--regions", "KOR", "--models", "NM", "--runs", "2",
        "--scale", "0.02", "--engine", "reference",
        "--cache-dir", str(cache_dir),
    ]) == 0
    capsys.readouterr()
    entries = sorted(cache_dir.glob("*.run.pkl"))
    assert len(entries) == 2  # one per reference run
    stale = time.time() - 30 * 86400
    os.utime(entries[0], (stale, stale))

    assert main([
        "cache", "prune", str(cache_dir), "--max-age-days", "7",
    ]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 run entries" in out and "(1 kept)" in out
    assert len(list(cache_dir.glob("*.run.pkl"))) == 1


# ---------------------------------------------------------------------------
# --corpus: runs over a JSONL corpus file
# ---------------------------------------------------------------------------


def _generate(path, *regions: str) -> None:
    assert main([
        "generate", str(path), "--scale", "0.03", "--seed", "7",
        "--regions", *regions,
    ]) == 0


def test_experiment_accepts_jsonl_corpus(tmp_path, capsys):
    output = tmp_path / "corpus.jsonl"
    _generate(output, "KOR", "JPN")
    capsys.readouterr()
    code = main([
        "experiment", "fig3", "--corpus", str(output), "--runs", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Fig. 3" in out


def test_sweep_refuses_regions_the_jsonl_corpus_lacks(
    tmp_path, capsys, monkeypatch
):
    output = tmp_path / "kor.jsonl"
    _generate(output, "KOR")
    capsys.readouterr()

    def _no_grid_work(*_args, **_kwargs):
        raise AssertionError("the sweep ran before refusing its regions")

    monkeypatch.setattr("repro.cli.execute_sweep", _no_grid_work)
    code = main([
        "sweep", "--corpus", str(output), "--regions", "KOR", "ITA",
        "--models", "CM-R", "--runs", "2",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "['ITA']" in err and "('KOR',)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", "stats", "x"],
        ["generate", "x.jsonl", "--format", "jsonl"],
        ["generate", "x.jsonl", "--chunk-size", "10"],
    ],
)
def test_retired_corpus_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", [["experiment", "fig4"], ["sweep"]])
@pytest.mark.parametrize("value", ["1.5", "0", "-0.1", "lots"])
def test_min_support_out_of_range_is_usage_error(command, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--min-support", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--min-support" in err
    assert "Traceback" not in err


def test_no_mining_algorithm_option():
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    helps = [parser.format_help()] + [
        sub.format_help() for sub in subparsers.choices.values()
    ]
    assert not any("--mining-algorithm" in text for text in helps)
    with pytest.raises(SystemExit):
        main(["experiment", "fig4", "--mining-algorithm", "bitset"])


def test_thread_backend_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "fig4", "--backend", "thread"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--backend" in err
    assert "Traceback" not in err
