"""Command line driver.

Subcommands: train, finetune, certify, bench, oracle, export-config.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(missing or malformed files), 3 numeric failure, 4 an oracle check failed.

Thread count comes from --threads, else the ECVIT_THREADS environment
variable, else 1. It is applied to the BLAS thread environment variables
before the numerics stack is imported, which is why all heavy imports in
this module live inside functions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_ORACLE = 4

THREADS_ENV = "ECVIT_THREADS"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


def _count(raw: str) -> int:
    """argparse type of a count flag: an integer >= 1."""
    n = int(raw)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def resolve_threads(flag_value: int | None) -> int:
    if flag_value is not None:
        n = flag_value
    else:
        raw = os.environ.get(THREADS_ENV, "").strip()
        if raw:
            try:
                n = int(raw)
            except ValueError:
                raise UsageError(f"{THREADS_ENV}='{raw}' is not an integer") from None
        else:
            n = 1
    if n < 1:
        raise UsageError(f"thread count must be >= 1, got {n}")
    return n


def apply_threads(n: int) -> None:
    for var in _BLAS_VARS:
        os.environ[var] = str(n)


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def write_jsonl(path: str, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=_json_default))
            fh.write("\n")


def _write_meta(out_dir: str, command: str, started: float, argv: list[str],
                **facts) -> None:
    """Wall-clock facts live only here so the result files stay byte-stable
    across reruns. ``facts`` are further keys a command reports."""
    write_json(os.path.join(out_dir, "meta.json"), {
        "command": command,
        "argv": argv,
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        **facts,
    })


def build_parser() -> _Parser:
    parser = _Parser(prog="bandcert",
                     description="Train and certify band-smoothed classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_dir=True, checkpoint=False):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override one config value (repeatable)")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (default: ${THREADS_ENV} or 1)")
        if out_dir:
            p.add_argument("--out-dir", required=True, help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint")

    p = sub.add_parser("train", help="full curriculum plus band fine-tuning")
    common(p)
    p.add_argument("--baseline", action="store_true",
                   help="train the no-reconstruction control instead")

    p = sub.add_parser("finetune", help="band-unit fine-tuning of a checkpoint")
    common(p, checkpoint=True)

    p = sub.add_parser("certify", help="vote and certify a dataset split")
    common(p, checkpoint=True)
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("bench", help="FLOP model and measured speedup")
    common(p, out_dir=False)
    p.add_argument("--images", type=_count, default=8, help="images to time (>= 1)")

    p = sub.add_parser("oracle", help="run the independent verification suite")
    common(p, out_dir=False)
    p.add_argument("--tables", type=_count, default=1000,
                   help="random vote tables for the soundness sweep (>= 1)")

    p = sub.add_parser("export-config", help="print the effective configuration")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL")
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.add_argument("--threads", type=int, default=None)
    return parser


def _load_split(cfg, split: str):
    from .config import build_dataset_spec
    from .data import load_dataset, stack_images
    return stack_images(load_dataset(build_dataset_spec(cfg), split))


def cmd_train(args, argv) -> int:
    started = time.time()
    from .config import build_model_config, build_train_plan, dump_config, load_config
    from .model import save_checkpoint
    from .tokenizer import save_codebook
    from .training import train_baseline, train_full

    cfg = load_config(args.config, args.set)
    model_cfg = build_model_config(cfg)
    plan = build_train_plan(cfg, model_cfg)
    images, labels = _load_split(cfg, "train")
    seed = cfg.train["seed"]

    os.makedirs(args.out_dir, exist_ok=True)
    if args.baseline:
        params, records = train_baseline(model_cfg, plan, images, labels, seed=seed)
    else:
        params, records, codebook = train_full(model_cfg, plan, images, labels,
                                               seed=seed)
        save_codebook(codebook, os.path.join(args.out_dir, "codebook.eccb"))
    save_checkpoint(params, os.path.join(args.out_dir, "model.ecvt"))
    write_jsonl(os.path.join(args.out_dir, "train_metrics.jsonl"), records)
    with open(os.path.join(args.out_dir, "config.ini"), "w") as fh:
        fh.write(dump_config(cfg))
    _write_meta(args.out_dir, "train", started, argv)
    final = records[-1] if records else {}
    print(json.dumps({"checkpoint": os.path.join(args.out_dir, "model.ecvt"),
                      "epochs": len(records), "final": final},
                     sort_keys=True, default=_json_default))
    return EXIT_OK


def cmd_finetune(args, argv) -> int:
    started = time.time()
    from . import autodiff as ad
    from .config import build_model_config, build_train_plan, dump_config, load_config
    from .model import load_checkpoint, save_checkpoint
    from .training import finetune_band

    cfg = load_config(args.config, args.set)
    model_cfg = build_model_config(cfg)
    plan = build_train_plan(cfg, model_cfg)
    params = load_checkpoint(args.checkpoint, model_cfg).cast(ad.TRAIN_DTYPE,
                                                              trainable=True)
    images, labels = _load_split(cfg, "train")

    os.makedirs(args.out_dir, exist_ok=True)
    records = finetune_band(params, plan, images, labels, seed=cfg.train["seed"])
    save_checkpoint(params, os.path.join(args.out_dir, "model.ecvt"))
    write_jsonl(os.path.join(args.out_dir, "finetune_metrics.jsonl"), records)
    with open(os.path.join(args.out_dir, "config.ini"), "w") as fh:
        fh.write(dump_config(cfg))
    _write_meta(args.out_dir, "finetune", started, argv)
    print(json.dumps({"checkpoint": os.path.join(args.out_dir, "model.ecvt"),
                      "final": records[-1] if records else {}},
                     sort_keys=True, default=_json_default))
    return EXIT_OK


def cmd_certify(args, argv) -> int:
    started = time.time()
    from . import autodiff as ad
    from .certification import evaluate
    from .config import (build_certify_config, build_model_config, dump_config,
                         load_config)
    from .model import load_checkpoint, plan_windows

    load_start = time.perf_counter()
    cfg = load_config(args.config, args.set)
    model_cfg = build_model_config(cfg)
    cert_cfg = build_certify_config(cfg)
    params = load_checkpoint(args.checkpoint, model_cfg, dtype=ad.INFER_DTYPE)
    images, labels = _load_split(cfg, args.split)
    plan = plan_windows(model_cfg, cert_cfg.band_width)
    load_seconds = time.perf_counter() - load_start

    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = evaluate(images.astype(ad.INFER_DTYPE), labels, params, plan, cert_cfg)
    minor_page_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before
    os.makedirs(args.out_dir, exist_ok=True)
    write_jsonl(os.path.join(args.out_dir, "records.jsonl"), result.records)
    write_json(os.path.join(args.out_dir, "summary.json"), result.summary)
    with open(os.path.join(args.out_dir, "config.ini"), "w") as fh:
        fh.write(dump_config(cfg))
    n = len(result.records)
    _write_meta(args.out_dir, "certify", started, argv,
                phase_seconds={"load": load_seconds, **result.seconds},
                images_per_s=n / sum(result.seconds.values()),
                windows_executed=n * plan.image_width,
                forwards_planned=plan.num_forwards,
                minor_page_faults=minor_page_faults,
                # value -> images; int keys, which write_json sorts numerically
                margin_histogram=Counter(r["margin"] for r in result.records),
                max_certified_m_histogram=Counter(r["max_certified_m"]
                                                  for r in result.records))
    print(json.dumps(result.summary, sort_keys=True, default=_json_default))
    return EXIT_OK


def cmd_bench(args, argv) -> int:
    import numpy as np

    from . import autodiff as ad
    from .config import build_certify_config, build_model_config, load_config
    from .model import (ModelParams, batched_certify_forward, count_flops,
                        forward_global, plan_windows, widest_window_columns)
    from .smoothing import ablate_batch

    cfg = load_config(args.config, args.set)
    model_cfg = build_model_config(cfg)
    b = build_certify_config(cfg).band_width
    plan = plan_windows(model_cfg, b)
    params = ModelParams.init(model_cfg, seed=0).cast(ad.INFER_DTYPE)
    rng = np.random.default_rng(0)
    images = rng.random((args.images, 3, model_cfg.image_side,
                         model_cfg.image_side), dtype=np.float32)

    def run_global():
        for p in range(model_cfg.image_side):
            abl = ablate_batch(images, np.full(args.images, p), b,
                               wrap=model_cfg.band_wrap)
            forward_global(abl, params)

    def run_band():
        batched_certify_forward(images, params, plan)

    run_global(); run_band()  # warm the caches before timing
    t_global = min(_timed(run_global) for _ in range(5))
    t_band = min(_timed(run_band) for _ in range(5))

    full = count_flops(model_cfg, "global")
    band = count_flops(model_cfg, "band_unit", band_width=b)
    tw = widest_window_columns(model_cfg, b)
    target = (tw * model_cfg.patch_size / model_cfg.image_side) ** 2
    report = {
        "band_width": b,
        "flops_global": {"attention": full.attention, "fc": full.fully_connected,
                         "total": full.total},
        "flops_band_unit": {"attention": band.attention, "fc": band.fully_connected,
                            "total": band.total},
        "attention_ratio": band.attention / full.attention,
        "attention_ratio_target": target,
        # one window per band position, each counted at the worst-case
        # width of flops_band_unit, so band_unit_sweep is an upper bound
        "per_image_certification_flops": {
            "global_sweep": full.total * model_cfg.image_side,
            "band_unit_sweep": band.total * model_cfg.image_side,
        },
        "num_forwards": plan.num_forwards,
        # a lower bound on any packing of the plan's windows; b + p is an
        # upper bound only at the geometries the tests check, not in general
        "forwards_lower_bound": plan.forwards_lower_bound,
        "forwards_bound": b + model_cfg.patch_size,
        "seconds_global_sweep": t_global,
        "seconds_band_sweep": t_band,
        "measured_speedup": t_global / t_band if t_band > 0 else float("inf"),
    }
    print(json.dumps(report, sort_keys=True, indent=2, default=_json_default))
    return EXIT_OK


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def cmd_oracle(args, argv) -> int:
    import numpy as np

    from . import autodiff as ad
    from .model import ModelConfig, ModelParams
    from .oracles import (attention_equivalence, check_certificate_soundness,
                          fd_gradient_report, intersection_sweep,
                          random_vote_tables)
    from .smoothing import BandSpec

    failures = []
    report: dict = {}

    _, geo_failures = intersection_sweep(max_width=64)
    report["geometry_mismatches"] = len(geo_failures)
    if geo_failures:
        failures.append("geometry")

    tables = random_vote_tables(args.tables, image_width=16, num_classes=4, seed=5)
    unsound = 0
    for vs in tables:
        res = check_certificate_soundness(vs, patch_width=2, band_width=4)
        unsound += not res["sound"]
    report["soundness_violations"] = unsound
    report["soundness_tables"] = int(args.tables)
    if unsound:
        failures.append("soundness")

    cfg = ModelConfig(image_side=16, patch_size=4, embed_dim=32, num_layers=2,
                      num_heads=4, mlp_ratio=2.0, num_classes=3, codebook_size=16)
    rng = np.random.default_rng(3)
    worst = {"float64": 0.0, "float32": 0.0}
    for trial in range(8):
        params = ModelParams.init(cfg, seed=trial)
        imgs = rng.random((2, 3, 16, 16))
        band = BandSpec(int(rng.integers(0, 16)), int(rng.integers(1, 7)))
        d64 = attention_equivalence(params, imgs, band)
        d32 = attention_equivalence(params.cast(ad.INFER_DTYPE), imgs, band)
        worst["float64"] = max(worst["float64"], d64["tokens"], d64["logits"])
        worst["float32"] = max(worst["float32"], d32["tokens"], d32["logits"])
    report["restriction_max_diff"] = worst
    if worst["float64"] > 1e-10 or worst["float32"] > 1e-5:
        failures.append("restriction")

    grads = fd_gradient_report(seed=0)
    report["gradient_max_rel_err"] = grads
    if max(grads.values()) > 1e-3:
        failures.append("gradients")

    report["failures"] = failures
    print(json.dumps(report, sort_keys=True, indent=2, default=_json_default))
    return EXIT_ORACLE if failures else EXIT_OK


def cmd_export_config(args, argv) -> int:
    from .config import dump_config, load_config
    text = dump_config(load_config(args.config, args.set))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "finetune": cmd_finetune,
    "certify": cmd_certify,
    "bench": cmd_bench,
    "oracle": cmd_oracle,
    "export-config": cmd_export_config,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        apply_threads(resolve_threads(getattr(args, "threads", None)))
        from .errors import ContractError, DataFormatError, NumericError
        try:
            return _COMMANDS[args.command](args, argv)
        except ContractError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
        except (DataFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as e:
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        except NumericError as e:
            print(f"numeric error: {e}", file=sys.stderr)
            return EXIT_NUMERIC
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
