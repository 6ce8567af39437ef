import ast
import csv
import errno
import filecmp
import importlib
import inspect
import json
import multiprocessing
import os
import pkgutil
import shutil
import signal
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocrdrift
from ocrdrift import cli, overlap, svg, util
from ocrdrift.cli import main
from ocrdrift.config import MissingArtifactError
from ocrdrift.corpus import load_corpus, save_paired_files
from ocrdrift.noise import NoiseSpec
from ocrdrift.synthetic import noisy_corpus, synthetic_documents


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    docs = synthetic_documents(40_000, seed=21, n_types=120, n_topics=6,
                               doc_chars=700, min_len=2, max_len=5)
    corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.08, seed=5))
    save_paired_files(corpus, root / "demo")
    return root / "demo"


def write_config(path, corpus_dir, out_dir, **extra):
    payload = {
        "out_dir": str(out_dir),
        "seed": 13,
        "runs": 2,
        "n_grid": [0.05, 0.2, 1.0],
        "bootstrap_resamples": 100,
        "languages": [
            {"language": "other", "path": str(corpus_dir), "format": "paired"}
        ],
        "models": [
            {"model": "ppmi", "window": 3, "min_count": 3},
            {"model": "sgns", "rate_profile": "fast", "dim": 16, "window": 3,
             "epochs": 2, "min_count": 3, "batch_size": 512},
        ],
    }
    payload.update(extra)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestConfigAndExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["stats", "--config", "/nonexistent/config.json"]) == 2
        assert "config" in capsys.readouterr().err

    def test_missing_corpus_path_named(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "languages": [{"language": "dutch", "path": str(tmp_path / "missing"), "format": "icdar"}],
        }), encoding="utf-8")
        assert main(["stats", "--config", str(config)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_no_partial_outputs_on_config_error(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "runs": 0,
            "languages": [],
        }), encoding="utf-8")
        assert main(["stats", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_model_rejected(self, tmp_path, corpus_dir):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "languages": [{"language": "other", "path": str(corpus_dir), "format": "paired"}],
            "models": [{"model": "bert"}],
        }), encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 2

    def test_duplicate_language_rejected(self, tmp_path, corpus_dir, capsys):
        source = {"language": "other", "path": str(corpus_dir), "format": "paired"}
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out",
                              languages=[source, source])
        assert main(["train", "--config", str(config)]) == 2
        assert "duplicate language" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["stats", "error-rates", "train", "evaluate", "report"])
    def test_config_without_languages(self, tmp_path, capsys, command):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "models": [{"model": "ppmi", "window": 3, "min_count": 3}],
        }), encoding="utf-8")
        assert main([command, "--config", str(config)]) == 2
        assert "the configuration lists no languages" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_many_resamples_is_exit_2(self, tmp_path, corpus_dir, capsys):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out", bootstrap_resamples=10_001)
        assert main(["evaluate", "--config", str(config)]) == 2
        assert "bootstrap_resamples is 10001; at most 10000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_exit_2_before_any_file(self, tmp_path, corpus_dir, capsys, where):
        out = tmp_path / "out"
        if where == "config":
            config, flags = write_config(tmp_path / "c.json", corpus_dir, out, seed=-1), []
        else:
            config, flags = write_config(tmp_path / "c.json", corpus_dir, out), ["--seed", "-1"]
        assert main(["train", "--config", str(config), *flags]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_sparse_archive_is_exit_2(self, tmp_path, corpus_dir, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out, runs=1,
                              models=[{"model": "ppmi", "window": 3, "min_count": 3}])
        assert main(["train", "--config", str(config)]) == 0
        archive = sorted((out / "other" / "embeddings").glob("*.npz"))[0]
        archive.write_bytes(archive.read_bytes()[:100])
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == 2
        assert f"{archive.name}: not a valid sparse embedding archive" in capsys.readouterr().err

    def test_evaluate_without_manifest_is_exit_3(self, tmp_path, corpus_dir, capsys):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out")
        assert main(["evaluate", "--config", str(config)]) == 3
        assert "manifest" in capsys.readouterr().err


UNSAFE_NAMES = ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"]


class TestNamesStayInsideOutDir:
    @staticmethod
    def files_under(root):
        return sorted(p.relative_to(root) for p in root.rglob("*"))

    @pytest.mark.parametrize("name", UNSAFE_NAMES)
    @pytest.mark.parametrize("field", ["language", "label"])
    def test_unsafe_name_is_rejected_before_writing(self, tmp_path, corpus_dir, capsys, field, name):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "a" / "b" / "out")
        payload = json.loads(config.read_text(encoding="utf-8"))
        if field == "language":
            payload["languages"][0]["language"] = name
        else:
            payload["models"][1]["name"] = name
        config.write_text(json.dumps(payload), encoding="utf-8")
        before = self.files_under(tmp_path)
        for command in ("error-rates", "train", "evaluate"):
            assert main([command, "--config", str(config)]) == 2
            assert "file name" in capsys.readouterr().err
        assert self.files_under(tmp_path) == before

    def test_noise_out_name_is_checked(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "noise": {"levels": [0.1], "synthetic_chars": 2000, "out_name": "../../escaped"},
        }), encoding="utf-8")
        assert main(["noise", "--config", str(config)]) == 2
        assert "file name" in capsys.readouterr().err
        assert self.files_under(tmp_path) == [Path("c.json")]


class TestStatsCommand:
    def test_writes_tables(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out)
        assert main(["stats", "--config", str(config)]) == 0
        with open(out / "stats.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert int(rows[0]["total_docs"]) == int(rows[0]["aligned_docs"])
        payload = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert payload[0]["total_chars"] > 0
        ingestion = json.loads((out / "ingestion_other.json").read_text(encoding="utf-8"))
        assert ingestion["loaded"] == int(rows[0]["total_docs"])

    def test_lang_filter_rejects_unknown(self, tmp_path, corpus_dir, capsys):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out")
        assert main(["stats", "--config", str(config), "--lang", "french"]) == 2
        assert "french" in capsys.readouterr().err

    def test_out_override(self, tmp_path, corpus_dir):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "ignored")
        other = tmp_path / "elsewhere"
        assert main(["stats", "--config", str(config), "--out", str(other)]) == 0
        assert (other / "stats.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestErrorRatesCommand:
    def test_reports_injected_rate(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out)
        assert main(["error-rates", "--config", str(config)]) == 0
        summary = json.loads((out / "other" / "error_rates.json").read_text(encoding="utf-8"))
        assert abs(summary["mean_cer"] - 0.08) < 0.01
        assert (out / "other" / "cer_hist.csv").exists()
        assert (out / "other" / "wer_hist.csv").exists()

    def test_zero_noise_pair_all_zero(self, tmp_path):
        docs = synthetic_documents(5_000, seed=2, n_types=40, doc_chars=500)
        corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.0, seed=1))
        save_paired_files(corpus, tmp_path / "clean")
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", tmp_path / "clean", out)
        assert main(["error-rates", "--config", str(config)]) == 0
        summary = json.loads((out / "other" / "error_rates.json").read_text(encoding="utf-8"))
        assert summary["mean_cer"] == 0.0
        assert summary["mean_wer"] == 0.0


def test_tables_and_json_files_share_one_format(tmp_path, corpus_dir):
    """Every table is a CSV in the csv module's default dialect, with
    `\r\n` line ends, and every summary, report and manifest is JSON
    indented by two spaces and ending in a newline."""
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", corpus_dir, out, noise={
        "levels": [0.1], "synthetic_chars": 5_000, "doc_chars": 1_000, "out_name": "toy"})
    for command in ("stats", "error-rates", "noise"):
        assert main([command, "--config", str(config)]) == 0
    headers = {
        "stats.csv": "language,total_docs,aligned_docs,aligned_pct,split_docs,"
                     "avg_chars,min_chars,max_chars,total_chars",
        "other/error_rates.csv": "doc_id,cer,wer",
        "other/cer_hist.csv": "bin_low,bin_high,count",
        "other/wer_hist.csv": "bin_low,bin_high,count",
    }
    tables = {path.relative_to(out).as_posix(): path.read_bytes().decode("utf-8") for path in out.rglob("*.csv")}
    assert sorted(tables) == sorted(headers)
    for name, text in tables.items():
        assert text.startswith(headers[name] + "\r\n"), name
        assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n"), name
    assert len(tables["other/cer_hist.csv"].splitlines()) == 51
    assert len(tables["other/wer_hist.csv"].splitlines()) == 51
    documents = {path.relative_to(out).as_posix(): path.read_text(encoding="utf-8") for path in out.rglob("*.json")}
    assert sorted(documents) == [
        "ingestion_other.json", "noise/toy/manifest.json", "other/error_rates.json", "stats.json"]
    for name, text in documents.items():
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name


class TestAtomicWrites:
    """Tables, summaries, manifests, curves and figures go through
    `util.write_atomically`: a write that fails partway leaves the previous
    file whole and no `.partial` file behind."""

    @staticmethod
    def fail_partway(monkeypatch, after):
        """Make the `Path.write_text` call that follows `after` whole ones
        write half its text and fail as a full disk would."""
        real = Path.write_text
        calls = []

        def write(self, data, *args, **kwargs):
            calls.append(self)
            if len(calls) <= after:
                return real(self, data, *args, **kwargs)
            real(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write)
        return calls

    def test_unencodable_text_keeps_old_file(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            util.write_atomically(path, "new\n" * 1000 + "\ud800")
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    # each command's last `outputs` writes are its tables, summaries,
    # manifests, curves and figure; `noise` writes its corpus files first,
    # and `evaluate` writes a CSV and a JSON per model, then the figure
    @pytest.mark.parametrize("command, outputs", [
        ("stats", 3), ("error-rates", 4), ("noise", 1), ("evaluate", 5), ("report", 1)])
    def test_failed_rerun_keeps_previous_outputs(self, tmp_path, corpus_dir, monkeypatch, capsys,
                                                 command, outputs):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out, runs=1, noise={
            "levels": [0.1], "synthetic_chars": 5_000, "doc_chars": 1_000, "out_name": "toy"})
        # evaluate reads what train writes, and report what evaluate writes
        for prior in {"evaluate": ["train"], "report": ["train", "evaluate"]}.get(command, []):
            assert main([prior, "--config", str(config)]) == 0
        calls = self.fail_partway(monkeypatch, after=10**6)
        assert main([command, "--config", str(config)]) == 0
        monkeypatch.undo()
        writes = len(calls)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for after in range(writes - outputs, writes):
            self.fail_partway(monkeypatch, after)
            assert main([command, "--config", str(config)]) == 1
            monkeypatch.undo()
            assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before, after
        assert capsys.readouterr().err.count(f"[Errno {errno.ENOSPC}] No space left") == outputs


class TestNoiseCommand:
    def test_writes_levels_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(out),
            "seed": 3,
            "noise": {
                "levels": [0.0, 0.1],
                "synthetic_chars": 30_000,
                "doc_chars": 1500,
                "out_name": "toy",
            },
        }), encoding="utf-8")
        assert main(["noise", "--config", str(config)]) == 0
        manifest = json.loads((out / "noise" / "toy" / "manifest.json").read_text(encoding="utf-8"))
        assert [m["target_cer"] for m in manifest] == [0.0, 0.1]
        assert abs(manifest[1]["measured_cer"] - 0.1) < 0.01
        level_dir = out / "noise" / "toy" / "cer010"
        assert any(level_dir.glob("*.ocr.txt"))
        assert any(level_dir.glob("*.gt.txt"))

    def test_source_text_file(self, tmp_path):
        source = tmp_path / "book.txt"
        source.write_text("plain running text for corruption " * 400, encoding="utf-8")
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(out),
            "seed": 1,
            "noise": {
                "levels": [0.2],
                "source_text": str(source),
                "doc_chars": 2000,
                "out_name": "book",
            },
        }), encoding="utf-8")
        assert main(["noise", "--config", str(config)]) == 0
        manifest = json.loads((out / "noise" / "book" / "manifest.json").read_text(encoding="utf-8"))
        assert abs(manifest[0]["measured_cer"] - 0.2) < 0.01
        # ground-truth side reassembles to the source text
        level_dir = out / "noise" / "book" / "cer020"
        gt = "".join(
            p.read_text(encoding="utf-8").replace("@", "")
            for p in sorted(level_dir.glob("*.gt.txt"))
        )
        assert gt == source.read_text(encoding="utf-8")

    def test_nan_weight_is_exit_2_before_any_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        weights = {"substitution": float("nan"), "deletion": 0.1, "insertion": 0.1}
        config.write_text(json.dumps({
            "out_dir": str(out),
            "noise": {"levels": [0.1], "synthetic_chars": 6_000, "weights": weights, "out_name": "toy"},
        }), encoding="utf-8")
        assert main(["noise", "--config", str(config)]) == 2
        assert "substitution_weight must be a finite number, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_sharing_a_directory_are_exit_2_before_any_directory(self, tmp_path, capsys):
        """0.1 and 0.104 both round to cer010: the second level's corpus
        would replace the first's under the first's manifest entry."""
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "out_dir": str(out),
            "noise": {"levels": [0.1, 0.104], "synthetic_chars": 6_000, "out_name": "toy"},
        }), encoding="utf-8")
        assert main(["noise", "--config", str(config)]) == 2
        assert "noise levels 0.1 and 0.104 would both write cer010" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_with_fewer_documents_leaves_no_stale_pairs(self, tmp_path):
        out = tmp_path / "out"
        level_dir = out / "noise" / "toy" / "cer010"
        config = tmp_path / "c.json"
        for doc_chars in (1_000, 2_000):
            config.write_text(json.dumps({
                "out_dir": str(out),
                "seed": 3,
                "noise": {"levels": [0.1], "synthetic_chars": 6_000,
                          "doc_chars": doc_chars, "out_name": "toy"},
            }), encoding="utf-8")
            level_dir.mkdir(parents=True, exist_ok=True)
            (level_dir / "notes.md").write_text("kept", encoding="utf-8")
            assert main(["noise", "--config", str(config)]) == 0
        manifest = json.loads((out / "noise" / "toy" / "manifest.json").read_text(encoding="utf-8"))
        corpus = load_corpus(level_dir, format="paired")
        assert manifest[0]["documents"] == len(corpus.documents) == 3
        assert len(list(level_dir.glob("*.txt"))) == 6
        assert (level_dir / "notes.md").read_text(encoding="utf-8") == "kept"


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir):
    base = tmp_path_factory.mktemp("run")
    out = base / "out"
    config = write_config(base / "c.json", corpus_dir, out)
    assert main(["train", "--config", str(config)]) == 0
    return config, out


class TestTrainEvaluateReport:
    def test_manifest_schema(self, trained):
        _, out = trained
        manifest = json.loads((out / "other" / "manifest.json").read_text(encoding="utf-8"))
        entries = manifest["entries"]
        # ppmi collapses to one run; sgns trains per run and version
        assert sum(e["model"] == "ppmi" for e in entries) == 2
        assert sum(e["model"] == "sgns-fast" for e in entries) == 4
        for entry in entries:
            assert set(entry) == {
                "model", "version", "run", "seed", "embedding_path", "train_wall_seconds"
            }
            assert (out / "other" / entry["embedding_path"]).exists()

    def test_evaluate_writes_curves_and_svg(self, trained):
        config, out = trained
        assert main(["evaluate", "--config", str(config)]) == 0
        curve_csv = out / "other" / "curves" / "sgns-fast.csv"
        header = curve_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "N,k,mean,ci_low,ci_high"
        payload = json.loads((out / "other" / "curves" / "sgns-fast.json").read_text(encoding="utf-8"))
        assert payload["runs_averaged"] == 2
        svg = (out / "other" / "overlap.svg").read_text(encoding="utf-8")
        assert "<svg" in svg
        assert 'id="inset"' in svg
        assert "ci-band" in svg

    def test_report_regenerates_svg_from_csvs(self, trained):
        config, out = trained
        assert main(["evaluate", "--config", str(config)]) == 0
        svg_path = out / "other" / "overlap.svg"
        svg_path.unlink()
        assert main(["report", "--config", str(config)]) == 0
        assert svg_path.exists()

    def test_one_bootstrap_per_label(self, trained, tmp_path, monkeypatch):
        config, _ = TestEvaluateOnePairAtATime.copy_trained(trained, tmp_path)
        calls = []
        bootstrap = overlap._bootstrap_bands

        def counted(*args):
            calls.append(args[0].shape)
            return bootstrap(*args)

        monkeypatch.setattr(overlap, "_bootstrap_bands", counted)
        assert main(["evaluate", "--config", str(config)]) == 0
        # ppmi has one run; sgns-fast two, pooled into one table
        assert len(calls) == 2
        assert calls[1][1] == 2 * calls[0][1]

    def test_report_plots_configured_labels_as_evaluate_does(self, trained, tmp_path, capsys):
        config, out = TestEvaluateOnePairAtATime.copy_trained(trained, tmp_path)
        assert main(["evaluate", "--config", str(config)]) == 0
        written = (out / "overlap.svg").read_bytes()
        # a curve of a label no longer configured
        shutil.copy(out / "curves" / "ppmi.csv", out / "curves" / "old.csv")
        assert main(["report", "--config", str(config)]) == 0
        assert (out / "overlap.svg").read_bytes() == written
        (out / "curves" / "sgns-fast.csv").unlink()
        assert main(["report", "--config", str(config)]) == 3
        assert "no curve CSV for 'sgns-fast'" in capsys.readouterr().err

    def test_identical_versions_pin_curves_at_one(self, tmp_path, corpus_dir):
        docs = synthetic_documents(20_000, seed=4, n_types=80, doc_chars=600)
        corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.0, seed=1))
        save_paired_files(corpus, tmp_path / "clean")
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", tmp_path / "clean", out, runs=1)
        assert main(["train", "--config", str(config)]) == 0
        assert main(["evaluate", "--config", str(config)]) == 0
        with open(out / "other" / "curves" / "sgns-fast.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                assert float(row["mean"]) == 1.0
                assert float(row["ci_low"]) == 1.0
                assert float(row["ci_high"]) == 1.0


class TestEvaluateOnePairAtATime:
    """`evaluate` checks every file and pairing before it ranks anything,
    then loads one (OCR, ground truth) pair at a time."""

    @staticmethod
    def copy_trained(trained, tmp_path, drop=lambda entry: False):
        """The trained embeddings and manifest, without the entries `drop`
        selects, under a new out_dir; returns its config and directory."""
        config, out = trained
        copy = tmp_path / "out"
        shutil.copytree(out / "other" / "embeddings", copy / "other" / "embeddings")
        manifest = json.loads((out / "other" / "manifest.json").read_text(encoding="utf-8"))
        manifest["entries"] = [e for e in manifest["entries"] if not drop(e)]
        (copy / "other" / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        payload = json.loads(config.read_text(encoding="utf-8"))
        new_config = tmp_path / "c.json"
        new_config.write_text(json.dumps(dict(payload, out_dir=str(copy))), encoding="utf-8")
        return new_config, copy / "other"

    @pytest.mark.parametrize("version, missing", [("ocr", "OCR"), ("gt", "ground-truth")])
    def test_unpaired_entry_is_exit_3_before_any_curve(self, trained, tmp_path, capsys, version, missing):
        # sgns-fast sorts after ppmi, whose curve must not be written either
        config, out = self.copy_trained(
            trained, tmp_path, drop=lambda e: (e["model"], e["version"], e["run"]) == ("sgns-fast", version, 1))
        assert main(["evaluate", "--config", str(config)]) == 3
        assert f"missing {missing} embedding for sgns-fast run 1" in capsys.readouterr().err
        assert not (out / "curves").exists()
        assert not (out / "overlap.svg").exists()

    @pytest.mark.parametrize("key", ["model", "version", "run", "embedding_path"])
    def test_entry_without_a_key_is_exit_3_naming_it(self, trained, tmp_path, capsys, key):
        config, out = self.copy_trained(trained, tmp_path)
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest["entries"][2][key]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["evaluate", "--config", str(config)]) == 3
        assert f"{manifest_path}: entry 2 has no {key!r}" in capsys.readouterr().err
        assert not (out / "curves").exists()

    @pytest.mark.parametrize("manifest", [
        [], {"language": "other"}, {"entries": {"0": {}}}, {"entries": [7]},
        {"entries": [{"model": "ppmi", "version": "ocr", "run": 0, "embedding_path": 5}]},
        {"entries": [{"model": ["m"], "version": "ocr", "run": 0, "embedding_path": "x"}]},
        {"entries": [{"model": "ppmi", "version": "ocr", "run": True, "embedding_path": "x"}]},
        {"entries": [{"model": "ppmi", "version": "ocr", "run": 0, "embedding_path": "/etc/hostname"}]},
        {"entries": [{"model": "ppmi", "version": "ocr", "run": 0, "embedding_path": "../../../etc/hostname"}]},
        b'{"entries": [{"model": "ppmi", "vers',  # truncated
        b'{"entries": [], "language": "\xff"}',  # not UTF-8
    ])
    def test_malformed_manifest_is_exit_3_naming_it(self, trained, tmp_path, capsys, manifest):
        config, out = self.copy_trained(trained, tmp_path)
        data = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
        (out / "manifest.json").write_bytes(data)
        assert main(["evaluate", "--config", str(config)]) == 3
        assert str(out / "manifest.json") in capsys.readouterr().err
        assert not (out / "curves").exists()

    @staticmethod
    def configure_models(config, keep, *extra):
        """Rewrite `config` to list its models whose model name is in `keep`, then `extra`."""
        payload = json.loads(config.read_text(encoding="utf-8"))
        payload["models"] = [m for m in payload["models"] if m["model"] in keep] + list(extra)
        config.write_text(json.dumps(payload), encoding="utf-8")

    def test_manifest_labels_not_configured_are_not_evaluated(self, trained, tmp_path):
        config, out = self.copy_trained(trained, tmp_path)
        self.configure_models(config, {"sgns"})
        assert main(["evaluate", "--config", str(config)]) == 0
        assert sorted(p.name for p in (out / "curves").iterdir()) == ["sgns-fast.csv", "sgns-fast.json"]
        drawn = (out / "overlap.svg").read_bytes()
        assert main(["report", "--config", str(config)]) == 0
        assert (out / "overlap.svg").read_bytes() == drawn

    def test_configured_label_missing_from_manifest_is_exit_3(self, trained, tmp_path, capsys):
        config, out = self.copy_trained(trained, tmp_path)
        self.configure_models(config, {"ppmi", "sgns"}, {"model": "glove", "dim": 8, "min_count": 3})
        assert main(["evaluate", "--config", str(config)]) == 3
        assert "missing OCR embedding for glove run 0" in capsys.readouterr().err
        assert not (out / "curves").exists()
        assert not (out / "overlap.svg").exists()

    def test_bad_value_in_a_later_pair_is_exit_2_after_earlier_curves(self, trained, tmp_path, capsys):
        config, out = self.copy_trained(trained, tmp_path)
        bad = out / "embeddings" / "sgns-fast_ocr_run1.txt"
        lines = bad.read_text(encoding="utf-8").splitlines(keepends=True)
        word, _, rest = lines[1].split(" ", 2)
        lines[1] = f"{word} abc {rest}"
        bad.write_text("".join(lines), encoding="utf-8")
        assert main(["evaluate", "--config", str(config)]) == 2
        assert f"{bad}: non-numeric value at line 2" in capsys.readouterr().err
        written = sorted(p.name for p in (out / "curves").iterdir())
        assert written == ["ppmi.csv", "ppmi.json"]


def cli_env():
    """The environment for running ocrdrift as a child process."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


_SCIPY_PROBE = (
    "import sys\n"
    "from ocrdrift.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(m for m in ('scipy', 'scipy.sparse') if m in sys.modules) or '-')\n"
    "sys.exit(code)\n"
)


class TestScipyLoadedOnlyWhereUsed:
    """Importing scipy.sparse is most of a command's start-up, and only
    training and sparse (PPMI) evaluation use it; `train` imports it before
    it forks its workers, so they share the parent's copy."""

    @staticmethod
    def scipy_modules_after(*argv):
        result = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, *argv],
            capture_output=True, text=True, env=cli_env(), timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1].split()

    def test_commands_without_scipy(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out, noise={
            "levels": [0.1], "synthetic_chars": 5_000, "doc_chars": 1_000, "out_name": "toy"})
        curves = out / "other" / "curves"
        curves.mkdir(parents=True)
        # report plots the configured labels' curves
        for label in ("ppmi", "sgns-fast"):
            (curves / f"{label}.csv").write_text(
                "N,k,mean,ci_low,ci_high\n0.5,2,0.75,0.5,1.0\n1.0,4,1.0,1.0,1.0\n", encoding="utf-8")
        for command in ("stats", "error-rates", "noise", "report"):
            assert self.scipy_modules_after(command, "--config", str(config)) == ["-"], command
        assert (out / "other" / "error_rates.csv").is_file()
        assert (out / "noise" / "toy" / "manifest.json").is_file()
        assert (out / "other" / "overlap.svg").is_file()

    def test_dense_evaluate_without_scipy(self, tmp_path, corpus_dir):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out", runs=1, models=[
            {"model": "sgns", "rate_profile": "fast", "dim": 8, "window": 2, "epochs": 1,
             "min_count": 3, "batch_size": 512}])
        assert main(["train", "--config", str(config)]) == 0
        assert self.scipy_modules_after("evaluate", "--config", str(config)) == ["-"]
        assert (tmp_path / "out" / "other" / "curves" / "sgns-fast.csv").is_file()

    def test_train_imports_scipy_sparse_before_forking(self, tmp_path, corpus_dir):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out", runs=1,
                              models=[{"model": "ppmi", "window": 3, "min_count": 3}])
        assert "scipy.sparse" in self.scipy_modules_after("train", "--config", str(config))


def type_checking_namespace(module):
    """The module's globals plus the imports it makes only for type
    checkers, under `if TYPE_CHECKING:`."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            exec(compile(ast.Module(body=node.body, type_ignores=[]), module.__file__, "exec"), namespace)
    return namespace


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(ocrdrift.__path__)))
def test_annotations_resolve(name):
    """Every annotation names something the module imports, at run time or
    for type checkers. scipy is imported for type checkers only, so the
    commands TestScipyLoadedOnlyWhereUsed runs still load none of it."""
    module = importlib.import_module(f"ocrdrift.{name}")
    namespace = type_checking_namespace(module)
    defined = [obj for obj in vars(module).values()
               if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ == module.__name__]
    methods = [m for cls in defined if inspect.isclass(cls) for m in vars(cls).values() if inspect.isfunction(m)]
    for obj in defined + methods:
        typing.get_type_hints(obj, globalns=namespace)


def test_svg_escape_matches_saxutils_without_its_imports():
    """SVG labels are escaped as xml.sax.saxutils.escape escapes them, but
    no command loads the urllib.request, http.client and email modules
    that importing saxutils brings in."""
    from xml.sax.saxutils import escape

    for text in ["", "a & b", "<k=5>", "&amp; &lt;", "\"quoted\" 'label'", "é < ü > ß"]:
        assert svg._escape(text) == escape(text)
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ocrdrift.cli\n"
        "print(sorted({'urllib.request', 'http.client', 'email'} & (set(sys.modules) - before)))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=cli_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestTrainOutput:
    def test_progress_lines_printed_once_in_job_order(self, tmp_path, corpus_dir):
        """stdout to a pipe is block-buffered, so the first language's lines
        are still buffered when the second language's workers start."""
        languages = [{"language": name, "path": str(corpus_dir), "format": "paired"}
                     for name in ("first", "second")]
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out", runs=1,
                              languages=languages)
        result = subprocess.run(
            [sys.executable, "-m", "ocrdrift.cli", "train", "--config", str(config)],
            capture_output=True, text=True, env=cli_env(), timeout=300,
        )
        assert result.returncode == 0, result.stderr
        stems = ["ppmi_ocr_run0", "ppmi_gt_run0", "sgns-fast_ocr_run0", "sgns-fast_gt_run0"]
        assert [line.split(": trained in ")[0] for line in result.stdout.splitlines()] == [
            f"{language}/{stem}" for language in ("first", "second") for stem in stems
        ]


    def test_one_pool_for_all_languages(self, tmp_path, corpus_dir, monkeypatch):
        pools = []

        class CountedPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountedPool)
        languages = [{"language": name, "path": str(corpus_dir), "format": "paired"}
                     for name in ("first", "second")]
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out, runs=1, languages=languages)
        assert main(["train", "--config", str(config)]) == 0
        assert len(pools) == 1
        for language in ("first", "second"):
            manifest = json.loads((out / language / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["language"] == language
            assert [entry["embedding_path"] for entry in manifest["entries"]] == [
                f"embeddings/{stem}" for stem in ("ppmi_ocr_run0.npz", "ppmi_gt_run0.npz",
                                                  "sgns-fast_ocr_run0.txt", "sgns-fast_gt_run0.txt")
            ]

    def test_unloadable_corpus_keeps_previous_outputs(self, tmp_path, corpus_dir, capsys):
        """Every corpus is loaded before any job starts: a language whose
        corpus fails to load stops train before it touches any file."""
        out = tmp_path / "out"
        first = {"language": "first", "path": str(corpus_dir), "format": "paired"}
        config = write_config(tmp_path / "c.json", corpus_dir, out, runs=1, languages=[first])
        assert main(["train", "--config", str(config)]) == 0
        before = {path: path.read_bytes() for path in (out / "first").rglob("*") if path.is_file()}
        empty = tmp_path / "empty"
        empty.mkdir()
        second = {"language": "second", "path": str(empty), "format": "paired"}
        config = write_config(tmp_path / "c.json", corpus_dir, out, runs=1, languages=[first, second])
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--seed", "99"]) == 2
        assert "no documents" in capsys.readouterr().err
        after = {path: path.read_bytes() for path in (out / "first").rglob("*") if path.is_file()}
        assert after == before

    def test_bad_model_value_stops_train_before_any_file(self, tmp_path, corpus_dir, capsys):
        """A bad model value is a config error: train exits 2 before it
        deletes the previous manifest or overwrites an embedding file."""
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out, runs=1)
        assert main(["train", "--config", str(config)]) == 0
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert out / "other" / "manifest.json" in before
        for key, value in (("batch_size", -1), ("learning_rate", "abc")):
            payload = json.loads(config.read_text(encoding="utf-8"))
            payload["models"][1][key] = value
            bad = tmp_path / f"bad_{key}.json"
            bad.write_text(json.dumps(payload), encoding="utf-8")
            capsys.readouterr()
            assert main(["train", "--config", str(bad), "--seed", "99"]) == 2
            err = capsys.readouterr().err
            assert "'sgns-fast'" in err and key in err
            after = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
            assert after == before


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the patched trainer reaches the workers only through fork")
class TestFailedTrainLeavesNoManifest:
    """A train that fails partway has overwritten some embedding files, so
    the previous manifest must not survive it: evaluate then stops (exit 3)
    instead of reading a mix of old and new files."""

    @staticmethod
    def previous_run(tmp_path, corpus_dir):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out)
        assert main(["train", "--config", str(config)]) == 0
        assert (out / "other" / "manifest.json").is_file()
        return config, out / "other" / "manifest.json"

    def test_failing_job(self, tmp_path, corpus_dir, capsys, monkeypatch):
        config, manifest = self.previous_run(tmp_path, corpus_dir)

        def failing(*args, **kwargs):
            raise ValueError("trainer failed on purpose")

        monkeypatch.setattr(cli, "train_sgns", failing)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--seed", "99"]) == 2
        assert "error: trainer failed on purpose" in capsys.readouterr().err
        assert not manifest.exists()
        assert main(["evaluate", "--config", str(config)]) == 3
        assert sorted(p.name for p in manifest.parent.iterdir()) == ["embeddings"]

    def test_killed_worker(self, tmp_path, corpus_dir, capsys, monkeypatch):
        config, manifest = self.previous_run(tmp_path, corpus_dir)
        test_process = os.getpid()

        def killed(*args, **kwargs):
            if os.getpid() == test_process:
                raise AssertionError("the trainer ran in the test process, not in a worker")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli, "train_sgns", killed)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--seed", "99"]) == 1
        assert "a training worker died" in capsys.readouterr().err
        assert not manifest.exists()
        assert main(["evaluate", "--config", str(config)]) == 3


def _children(pid):
    return [int(child) for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


def _running(pid):
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return "\nState:\tZ" not in status


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<tid>/children")
def test_workers_end_when_train_is_killed(tmp_path, corpus_dir):
    """A train killed outright cannot shut its pool down; its workers must
    not wait on their task queue for ever."""
    config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out")
    driver = ("import sys, time\n"
              "from ocrdrift import cli\n"
              "cli.train_sgns = lambda *args, **kwargs: time.sleep(120)\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    train = subprocess.Popen([sys.executable, "-c", driver, "train", "--config", str(config)],
                             env=cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers and train.poll() is None and time.monotonic() < deadline:
            time.sleep(0.1)
            workers = _children(train.pid)
        assert workers, "train started no worker"
        train.kill()
        train.wait(timeout=10)
        deadline = time.monotonic() + 20
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, workers))
    finally:
        if train.poll() is None:
            train.kill()
            train.wait(timeout=10)
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


def external_config(tmp_path, corpus_dir, out, suffix=".txt"):
    """A config comparing tmp_path's ext_ocr and ext_gt files only."""
    return write_config(
        tmp_path / "c.json", corpus_dir, out,
        models=[{"model": "external", "name": "bert",
                 "ocr_path": str(tmp_path / f"ext_ocr{suffix}"),
                 "gt_path": str(tmp_path / f"ext_gt{suffix}")}],
    )


class TestExternalEmbeddings:
    def test_external_only_evaluation(self, tmp_path, corpus_dir):
        import numpy as np

        from ocrdrift.embeddings import EmbeddingMatrix, Model, save_embeddings

        rng = np.random.default_rng(0)
        words = tuple(f"w{i}" for i in range(40))
        for name, seed in (("ext_ocr", 1), ("ext_gt", 2)):
            vectors = np.random.default_rng(seed).normal(size=(40, 8))
            emb = EmbeddingMatrix(words=words, vectors=vectors, model=Model.EXTERNAL)
            save_embeddings(emb, tmp_path / name)

        out = tmp_path / "out"
        config = external_config(tmp_path, corpus_dir, out)
        # no manifest needed: nothing is trained locally
        assert main(["evaluate", "--config", str(config)]) == 0
        header = (out / "other" / "curves" / "bert.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "N,k,mean,ci_low,ci_high"

    def test_sparse_archives_evaluate(self, tmp_path, corpus_dir):
        import scipy.sparse as sp

        from ocrdrift.embeddings import EmbeddingMatrix, Model, save_embeddings

        words = tuple(f"w{i}" for i in range(40))
        for name, seed in (("ext_ocr", 1), ("ext_gt", 2)):
            vectors = sp.random(40, 60, density=0.2, format="csr", random_state=seed)
            save_embeddings(EmbeddingMatrix(words=words, vectors=vectors, model=Model.PPMI), tmp_path / name)
        out = tmp_path / "out"
        config = external_config(tmp_path, corpus_dir, out, suffix=".npz")
        assert main(["evaluate", "--config", str(config)]) == 0
        rows = (out / "other" / "curves" / "bert.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "N,k,mean,ci_low,ci_high"
        assert len(rows) == 4

    def test_non_utf8_text_file_named(self, tmp_path, corpus_dir, capsys):
        (tmp_path / "ext_ocr.txt").write_bytes(b"2 1\nw\xe9 1\nv 2\n")
        (tmp_path / "ext_gt.txt").write_text("2 1\nw 1\nv 2\n", encoding="utf-8")
        config = external_config(tmp_path, corpus_dir, tmp_path / "out")
        assert main(["evaluate", "--config", str(config)]) == 2
        assert "ext_ocr.txt: not UTF-8 text" in capsys.readouterr().err

    def test_oversized_header_is_exit_2(self, tmp_path, corpus_dir, capsys):
        for name in ("ext_ocr.txt", "ext_gt.txt"):
            (tmp_path / name).write_text("99999999999 99999\nw0 1 2\n", encoding="utf-8")
        config = external_config(tmp_path, corpus_dir, tmp_path / "out")
        assert main(["evaluate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "ext_ocr.txt: header declares 99999999999 rows" in err
        assert "at line 1" in err


class TestSeedOverride:
    def test_seed_flag_offsets_run_seeds(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", corpus_dir, out, runs=2,
                              models=[{"model": "sgns", "rate_profile": "fast", "dim": 8,
                                       "window": 2, "epochs": 1, "min_count": 3,
                                       "batch_size": 256}])
        assert main(["train", "--config", str(config), "--seed", "100"]) == 0
        manifest = json.loads((out / "other" / "manifest.json").read_text(encoding="utf-8"))
        assert sorted({e["seed"] for e in manifest["entries"]}) == [100, 101]


class TestFlags:
    """Each command takes --lang and --seed only when it reads them."""

    @pytest.mark.parametrize("command, flag", [
        ("stats", "--seed"), ("error-rates", "--seed"), ("report", "--seed"), ("noise", "--lang")])
    def test_flag_a_command_would_ignore_is_exit_2(self, tmp_path, corpus_dir, capsys, command, flag):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out",
                              noise={"levels": [0.1], "synthetic_chars": 5_000})
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(config), flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["stats", "error-rates", "train", "evaluate", "report"])
    def test_lang_restricts_the_languages(self, tmp_path, corpus_dir, capsys, command):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out")
        assert main([command, "--config", str(config), "--lang", "french"]) == 2
        assert "language 'french' is not in the configuration" in capsys.readouterr().err

    def test_seed_overrides_the_noise_and_bootstrap_seeds(self, trained, tmp_path, corpus_dir):
        config = write_config(tmp_path / "c.json", corpus_dir, tmp_path / "out",
                              noise={"levels": [0.1, 0.2], "synthetic_chars": 5_000, "out_name": "toy"})
        assert main(["noise", "--config", str(config), "--seed", "40"]) == 0
        manifest = json.loads((tmp_path / "out" / "noise" / "toy" / "manifest.json").read_text(encoding="utf-8"))
        assert [level["seed"] for level in manifest] == [40, 41]
        copy = tmp_path / "trained"
        shutil.copytree(trained[1], copy)
        assert main(["evaluate", "--config", str(trained[0]), "--out", str(copy), "--seed", "40"]) == 0
        curve = json.loads((copy / "other" / "curves" / "ppmi.json").read_text(encoding="utf-8"))
        assert curve["metadata"]["seed"] == 40


def test_rate_profile_and_its_learning_rate_write_the_same_files(tmp_path, corpus_dir):
    embeddings = []
    for name, rate in (("profile", {"rate_profile": "fast"}), ("rate", {"learning_rate": 0.001})):
        models = [{"model": model, "name": model, **rate, "dim": 8, "window": 2, "epochs": 1,
                   "min_count": 3, "batch_size": 256} for model in ("sgns", "cbow")]
        config = write_config(tmp_path / f"{name}.json", corpus_dir, tmp_path / name, runs=1, models=models)
        assert main(["train", "--config", str(config)]) == 0
        embeddings.append(tmp_path / name / "other" / "embeddings")
    files = sorted(p.name for p in embeddings[0].iterdir())
    assert files == sorted(p.name for p in embeddings[1].iterdir()) and len(files) == 4
    for name in files:
        assert filecmp.cmp(embeddings[0] / name, embeddings[1] / name, shallow=False), name


MANIFEST = json.dumps({"language": "other", "entries": [
    {"model": "sgns-fast", "version": "ocr", "run": 0, "seed": 13,
     "embedding_path": "embeddings/sgns-fast_ocr_run0.txt", "train_wall_seconds": 0.5},
    {"model": "ppmi", "version": "gt", "run": 0, "seed": 13,
     "embedding_path": "embeddings/ppmi_gt_run0.npz", "train_wall_seconds": 0.1},
]}, indent=2).encode()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def assert_reads_or_names_manifest(path):
    """A manifest read gives Paths keyed by (label, version, run), or a
    MissingArtifactError naming the manifest; nothing else."""
    try:
        trained = cli._manifest_paths(path, path.parent)
    except MissingArtifactError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        for (label, version, run), emb_path in trained.items():
            assert (type(label), type(version), type(run)) == (str, str, int)
            assert isinstance(emb_path, Path)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(min_value=0), st.binary(max_size=3)), max_size=4),
       cut=st.none() | st.integers(min_value=0))
def test_damaged_manifest_reads_or_names_it(tmp_path_factory, edits, cut):
    """Bytes of a manifest deleted, replaced or inserted, then cut."""
    data = bytearray(MANIFEST)
    for pos, new in edits:
        pos %= max(len(data), 1)
        data[pos:pos + 1] = new
    path = tmp_path_factory.getbasetemp() / "manifest.json"
    path.write_bytes(bytes(data if cut is None else data[:cut % (len(data) + 1)]))
    assert_reads_or_names_manifest(path)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(["entries", "model", "version", "run", "embedding_path"]), value=JSON_VALUES)
def test_any_json_value_in_a_manifest_reads_or_names_it(tmp_path_factory, key, value):
    """The entries list, or one key of an entry, replaced by any JSON value."""
    manifest = json.loads(MANIFEST)
    (manifest if key == "entries" else manifest["entries"][1])[key] = value
    path = tmp_path_factory.getbasetemp() / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert_reads_or_names_manifest(path)


class TestDeterminism:
    def test_end_to_end_byte_identical(self, tmp_path, corpus_dir):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = write_config(tmp_path / f"{name}.json", corpus_dir, out)
            assert main(["train", "--config", str(config)]) == 0
            assert main(["evaluate", "--config", str(config)]) == 0
            outs.append(out)
        for rel in ("other/curves/sgns-fast.csv", "other/curves/ppmi.csv"):
            a = (outs[0] / rel).read_bytes()
            b = (outs[1] / rel).read_bytes()
            assert a == b
