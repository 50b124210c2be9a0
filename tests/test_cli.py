import json
import os
import struct
import subprocess
import sys

import pytest

from bandcert import model
from bandcert.cli import (_BLAS_VARS, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                          THREADS_ENV, UsageError, main, resolve_threads)
from bandcert.model import ModelConfig, plan_windows

TINY = [
    "--set", "data.image_side=8", "--set", "data.train_size=12",
    "--set", "data.test_size=4", "--set", "data.num_classes=3",
    "--set", "model.embed_dim=16", "--set", "model.num_layers=1",
    "--set", "model.num_heads=2", "--set", "model.mlp_ratio=2.0",
    "--set", "model.codebook_size=8",
    "--set", "train.band_width=2", "--set", "train.epochs_per_stage=1",
    "--set", "train.finetune_epochs=1", "--set", "train.batch_size=8",
    "--set", "certify.band_width=2",
]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "bandcert.cli", *args],
                          capture_output=True, text=True, env=env)


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert resolve_threads(None) == 1
    monkeypatch.setenv(THREADS_ENV, "3")
    assert resolve_threads(None) == 3
    assert resolve_threads(2) == 2  # flag beats env
    monkeypatch.setenv(THREADS_ENV, "zero")
    with pytest.raises(UsageError):
        resolve_threads(None)
    with pytest.raises(UsageError):
        resolve_threads(0)


@pytest.mark.parametrize("script", ["toy_pipeline.py", "stage_ablation.py", "bit_digests.py",
                                    "bench_pairs.py"])
def test_scripts_start(script):
    # each but bench_pairs.py imports the program's API at module level, so
    # --help checks that the imports they name still exist; bench_pairs.py
    # reads BENCHMARK.json before it parses its arguments
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", script)
    proc = subprocess.run([sys.executable, path, "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "usage:" in proc.stdout


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("trane")
    assert proc.returncode == EXIT_USAGE


def test_unknown_config_key_is_usage_error(tmp_path):
    proc = run_cli("certify", "--out-dir", str(tmp_path / "o"),
                   "--checkpoint", "nope.ecvt", "--set", "train.nonsense=1")
    assert proc.returncode == EXIT_USAGE
    assert "nonsense" in proc.stderr


def run_main(argv, capsys, monkeypatch):
    """In-process ``cli.main``; returns (exit code, stderr lines). The BLAS
    thread variables main() sets are restored afterwards."""
    for var in _BLAS_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    code = main(argv)
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("override", [
    "model.patch_size=0", "model.num_heads=0", "model.embed_dim=0",
    "model.num_layers=0", "model.mlp_ratio=nan", "model.mlp_ratio=-1",
    "model.mlp_ratio=inf", "model.codebook_size=-1"])
def test_bad_model_value_is_usage_error(override, capsys, monkeypatch):
    code, err = run_main(["bench", "--set", override], capsys, monkeypatch)
    assert code == EXIT_USAGE
    key = override.split("=")[0].split(".")[1]
    assert len(err) == 1 and key in err[0], err


@pytest.mark.parametrize("override", [
    "train.lr=nan", "train.lr=-1", "train.finetune_lr=inf", "train.weight_decay=nan",
    "train.lambda_rec=-1", "train.lambda_rec=inf", "train.finetune_epochs=-1",
    "train.warmup_epochs=-1", "train.seed=-1", "data.seed=-5",
    "data.train_size=-1", "data.test_size=-4"])
def test_bad_train_value_is_usage_error(override, tmp_path, capsys, monkeypatch):
    code, err = run_main(["train", "--set", override, "--out-dir", str(tmp_path / "o")],
                         capsys, monkeypatch)
    assert code == EXIT_USAGE
    key = override.split("=")[0].split(".")[1]
    assert len(err) == 1 and key in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_logit_threshold_is_usage_error(value, tmp_path, capsys, monkeypatch):
    code, err = run_main(["certify", "--checkpoint", "absent.ecvt",
                          "--set", "certify.threshold_on=logits",
                          "--set", f"certify.threshold={value}",
                          "--out-dir", str(tmp_path / "o")], capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert len(err) == 1 and "threshold" in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, key", [
    (["train", "--set", "model.teacher_dim=8"], "teacher_dim"),
    (["certify", "--checkpoint", "absent.ecvt",
      "--set", "certify.require_simplex=false"], "require_simplex"),
    (["train", "--set", "train.mode=distill"], "mode"),
    (["train", "--set", "train.teacher_epochs=1"], "teacher_epochs"),
    (["train", "--set", "train.teacher_lr=0.1"], "teacher_lr")])
def test_removed_keys_are_usage_errors(argv, key, tmp_path, capsys, monkeypatch):
    code, err = run_main([*argv, "--out-dir", str(tmp_path / "o")], capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert len(err) == 1 and key in err[0], err


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--images", "-2"], "--images"), (["bench", "--images", "0"], "--images"),
    (["oracle", "--tables", "-1"], "--tables"), (["oracle", "--tables", "0"], "--tables")])
def test_count_flag_below_one_is_usage_error(argv, flag, capsys, monkeypatch):
    """A negative count used to end in a numpy traceback, and
    ``bench --images 0`` printed a speedup from timing no images."""
    code, err = run_main(argv, capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert len(err) == 1 and flag in err[0], err


def test_missing_checkpoint_is_data_error(trained_dir, tmp_path):
    # an absent file, and one cut short inside a header field
    blob = (trained_dir / "model.ecvt").read_bytes()
    name = b"patch_embed.weight"
    cut = tmp_path / "cut.ecvt"
    cut.write_bytes(blob[:blob.index(name) + len(name) + 2])  # inside the rank field
    for checkpoint in (tmp_path / "absent.ecvt", cut):
        proc = run_cli("certify", *TINY, "--out-dir", str(tmp_path / "o"),
                       "--checkpoint", str(checkpoint))
        assert proc.returncode == EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr


def test_non_finite_weight_is_data_error(trained_dir, tmp_path):
    blob = bytearray((trained_dir / "model.ecvt").read_bytes())
    name = b"patch_embed.weight"
    first_float = blob.index(name) + len(name) + 4 + 2 * 8  # after rank and 2 dims
    blob[first_float:first_float + 4] = struct.pack("<f", float("nan"))
    bad = tmp_path / "nan.ecvt"
    bad.write_bytes(bytes(blob))
    proc = run_cli("certify", *TINY, "--out-dir", str(tmp_path / "o"),
                   "--checkpoint", str(bad))
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "patch_embed.weight" in lines[0], proc.stderr


def test_overflowing_weights_are_numeric_error(trained_dir, tmp_path):
    # finite weights, so the checkpoint loads, but block 0's second layer
    # norm overflows float32 on every input
    blob = bytearray((trained_dir / "model.ecvt").read_bytes())
    name = b"blocks.0.ln2.gamma"
    start = blob.index(name) + len(name) + 4 + 8  # after rank and its one dim
    (dim,) = struct.unpack_from("<Q", blob, start - 8)
    struct.pack_into(f"<{dim}f", blob, start, *[3.4028234663852886e38] * dim)
    huge = tmp_path / "huge.ecvt"
    huge.write_bytes(bytes(blob))
    proc = run_cli("certify", *TINY, "--out-dir", str(tmp_path / "o"),
                   "--checkpoint", str(huge))
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "encoder block 0" in lines[0], proc.stderr


def test_export_config_roundtrip(tmp_path):
    first = run_cli("export-config", "--set", "train.band_width=3",
                    "--set", "certify.band_width=3", "--set", "data.path=50%")
    assert first.returncode == EXIT_OK
    assert "band_width = 3" in first.stdout
    assert "path = 50%" in first.stdout

    path = tmp_path / "run.ini"
    path.write_text(first.stdout)
    second = run_cli("export-config", "--config", str(path))
    assert second.returncode == EXIT_OK
    assert second.stdout == first.stdout


@pytest.mark.parametrize("text, words", [
    (b"[data]\nseed = 1\nseed = 2\n", "option 'seed' in section 'data' already exists"),
    (b"seed = 1\n[data]\n", "contains no section headers"),
    (b"[data]\npath = caf\xe9\n", "can't decode byte 0xe9"),
    (b"[DEFAULT]\nthreshold = 0.9\n", "unknown config section '[DEFAULT]'"),
    (b"[DEFAULT]\nseed = 7\n[data]\nnum_classes = 3\n", "unknown config section '[DEFAULT]'"),
    (b"[train]\nlr = 0.01\n[trian]\n", "unknown config section '[trian]'"),
    (b"[DEFAULT]\n[data]\nnum_classes = 3\n", "unknown config section '[DEFAULT]'"),
], ids=["repeated-key", "key-before-header", "not-utf8", "default-alone",
        "default-beside-data", "empty-misspelled-section", "empty-default"])
def test_malformed_config_file_is_one_usage_error(text, words, tmp_path, capsys,
                                                  monkeypatch):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    code, err = run_main(["export-config", "--config", str(path)], capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert len(err) == 1 and words in err[0], err
    assert "unknown config section" in words or str(path) in err[0], err


def test_repeated_patch_shape_is_usage_error(tmp_path, capsys, monkeypatch):
    code, err = run_main(["certify", "--checkpoint", "absent.ecvt",
                          "--set", "certify.patch_shapes=1x1,1x1",
                          "--out-dir", str(tmp_path / "o")], capsys, monkeypatch)
    assert code == EXIT_USAGE
    assert len(err) == 1 and "1x1 is listed twice" in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train")
    proc = run_cli("train", *TINY, "--out-dir", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    return out


def test_train_writes_artifacts(trained_dir):
    for name in ("model.ecvt", "codebook.eccb", "train_metrics.jsonl",
                 "config.ini", "meta.json"):
        assert (trained_dir / name).exists(), name
    lines = (trained_dir / "train_metrics.jsonl").read_text().splitlines()
    phases = {json.loads(ln)["phase"] for ln in lines}
    assert phases == {"stage", "finetune"}


def test_certify_writes_records_and_summary(trained_dir, tmp_path):
    out = tmp_path / "cert"
    proc = run_cli("certify", *TINY, "--out-dir", str(out),
                   "--checkpoint", str(trained_dir / "model.ecvt"))
    assert proc.returncode == EXIT_OK, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_images"] == 4
    assert summary["band_width"] == 2
    records = [json.loads(ln)
               for ln in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 4
    assert all("max_certified_m" in r for r in records)
    stdout_summary = json.loads(proc.stdout)
    assert stdout_summary == summary


def test_certify_meta_reports_phases_and_results_are_byte_stable(trained_dir, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        proc = run_cli("certify", *TINY, "--out-dir", str(out),
                       "--checkpoint", str(trained_dir / "model.ecvt"))
        assert proc.returncode == EXIT_OK, proc.stderr
    for name in ("records.jsonl", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    meta = json.loads((outs[0] / "meta.json").read_text())
    assert set(meta["phase_seconds"]) == {"load", "score", "vote"}
    assert all(v >= 0 for v in meta["phase_seconds"].values())
    assert meta["images_per_s"] > 0
    assert meta["windows_executed"] == 4 * 8  # test images x band positions
    for key in ("forwards_planned", "minor_page_faults"):
        assert isinstance(meta[key], int) and meta[key] >= 0, key
    tiny = ModelConfig(image_side=8, patch_size=4, embed_dim=16, num_layers=1,
                       num_heads=2, mlp_ratio=2.0, codebook_size=8)
    assert meta["forwards_planned"] == plan_windows(tiny, 2).num_forwards
    assert meta["window_workers"] == model.WORKERS  # one per usable CPU
    assert isinstance(meta["window_workspace_bytes"], int)
    assert meta["window_workspace_bytes"] > 0
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert "window_workspace_bytes" not in summary
    records = (outs[0] / "records.jsonl").read_text()
    per_image = [json.loads(ln) for ln in records.splitlines()]
    for key in ("margin", "max_certified_m"):
        counts = {}
        for r in per_image:
            counts[str(r[key])] = counts.get(str(r[key]), 0) + 1
        hist = meta[key + "_histogram"]
        assert hist == counts, key
        assert [int(v) for v in hist] == sorted(int(v) for v in hist), key
    for key in ("phase_seconds", "images_per_s", "windows_executed",
                "forwards_planned", "minor_page_faults", "margin_histogram",
                "max_certified_m_histogram", "window_workers"):
        assert key not in summary and key not in records, key


def test_finetune_resumes_a_checkpoint(trained_dir, tmp_path):
    out = tmp_path / "ft"
    proc = run_cli("finetune", *TINY, "--out-dir", str(out),
                   "--checkpoint", str(trained_dir / "model.ecvt"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (out / "model.ecvt").exists()
    assert (out / "finetune_metrics.jsonl").exists()


def test_finetune_takes_a_band_too_wide_for_the_curriculum(trained_dir, tmp_path):
    # width 3 is not below 30% of the 8-pixel side: train's curriculum would
    # not narrow, but finetune runs no curriculum
    wide = ["--set", "train.band_width=3", "--set", "certify.band_width=3"]
    out = tmp_path / "ft"
    proc = run_cli("finetune", *TINY, *wide, "--out-dir", str(out),
                   "--checkpoint", str(trained_dir / "model.ecvt"))
    assert proc.returncode == EXIT_OK, proc.stderr
    for name in ("model.ecvt", "finetune_metrics.jsonl", "config.ini", "meta.json"):
        assert (out / name).exists(), name
    proc = run_cli("train", *TINY, *wide, "--out-dir", str(tmp_path / "t"))
    assert proc.returncode == EXIT_USAGE
    assert "the curriculum would not narrow" in proc.stderr, proc.stderr
    # a width outside the image is still refused before anything loads
    proc = run_cli("finetune", *TINY, "--set", "train.band_width=9",
                   "--set", "certify.band_width=9", "--out-dir", str(tmp_path / "f9"),
                   "--checkpoint", str(tmp_path / "absent.ecvt"))
    assert proc.returncode == EXIT_USAGE
    assert "band width 9 outside [1, 8]" in proc.stderr, proc.stderr
    assert not (tmp_path / "f9").exists()


def test_empty_split_is_usage_error(trained_dir, tmp_path):
    runs = {
        "train": run_cli("train", *TINY, "--set", "data.train_size=0",
                         "--out-dir", str(tmp_path / "t")),
        "certify": run_cli("certify", *TINY, "--set", "data.test_size=0",
                           "--out-dir", str(tmp_path / "c"),
                           "--checkpoint", str(trained_dir / "model.ecvt")),
    }
    for command, proc in runs.items():
        assert proc.returncode == EXIT_USAGE, (command, proc.stderr)
        assert "Traceback" not in proc.stderr, command
        assert len(proc.stderr.strip().splitlines()) == 1, (command, proc.stderr)


def test_empty_cifar_file_is_data_error(tmp_path, capsys, monkeypatch):
    # a 0-byte batch file is malformed, not an empty split asked for by the
    # config
    empty = tmp_path / "data_batch.bin"
    empty.write_bytes(b"")
    code, err = run_main(["train", "--set", "data.source=cifar10",
                          "--set", f"data.path={empty}", "--out-dir", str(tmp_path / "o")],
                         capsys, monkeypatch)
    assert code == EXIT_DATA
    assert len(err) == 1 and "holds no records" in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("place", ["file", "under-a-file"])
@pytest.mark.parametrize("command, heavy", [
    ("train", "bandcert.training.train_full"),
    ("finetune", "bandcert.training.finetune_band"),
    ("certify", "bandcert.certification.evaluate")], ids=["train", "finetune", "certify"])
def test_bad_out_dir_is_one_data_error_before_the_work(command, heavy, place, trained_dir,
                                                       tmp_path, capsys, monkeypatch):
    # the out-dir is an existing file, or a path under one; the command
    # used to run its whole job first and then end in a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker if place == "file" else blocker / "o"

    def too_early(*args, **kwargs):
        raise AssertionError(f"{command} ran {heavy} before making its out-dir")

    monkeypatch.setattr(heavy, too_early)
    argv = [command, *TINY, "--out-dir", str(out)]
    if command != "train":
        argv += ["--checkpoint", str(trained_dir / "model.ecvt")]
    code, err = run_main(argv, capsys, monkeypatch)
    assert code == EXIT_DATA
    assert len(err) == 1 and str(blocker) in err[0], err
    assert blocker.read_text() == ""


def test_bench_reports_flops_and_timing():
    # a 16-wide image so the band window is strictly smaller than the image
    proc = run_cli("bench", "--set", "data.image_side=16",
                   "--set", "model.embed_dim=16", "--set", "model.num_layers=1",
                   "--set", "model.num_heads=2", "--set", "model.mlp_ratio=2.0",
                   "--set", "model.codebook_size=8",
                   "--set", "train.band_width=4", "--set", "certify.band_width=4",
                   "--images", "2")
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    for key in ("attention_ratio", "attention_ratio_target", "flops_global",
                "flops_band_unit", "num_forwards", "forwards_lower_bound",
                "measured_speedup", "seconds_global_sweep", "seconds_band_sweep"):
        assert key in report, key
    assert "forwards_bound" not in report  # b + p fails at some wrapped geometries
    assert report["forwards_lower_bound"] <= report["num_forwards"]
    assert report["window_workers"] == model.WORKERS
    assert report["window_workspace_bytes"] > 0
    assert report["flops_band_unit"]["total"] < report["flops_global"]["total"]
    # one worst-case window per band position of the 16-wide image
    assert report["per_image_certification_flops"]["band_unit_sweep"] == \
        report["flops_band_unit"]["total"] * 16


def test_oracle_subcommand_passes():
    proc = run_cli("oracle", "--tables", "20")
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failures"] == []
    assert report["soundness_violations"] == 0
    assert report["geometry_mismatches"] == 0
