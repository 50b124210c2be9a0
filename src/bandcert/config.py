"""INI-style experiment configuration.

Four sections: [data], [model], [train], [certify]. Every key has a typed
default; a key or section the schema does not know, [DEFAULT] included, is
an error, so typos fail fast. Values are read literally, with no ``%``
interpolation. ``--set section.key=value`` overrides win over the file.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

from .errors import ContractError


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ContractError(f"expected a boolean, got '{raw}'")


def _to_shapes(raw: str) -> tuple[tuple[int, int], ...]:
    shapes = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split("x")
        if len(bits) != 2:
            raise ContractError(f"patch shape '{part}' is not HxW")
        shapes.append((int(bits[0]), int(bits[1])))
    if not shapes:
        raise ContractError("patch_shapes is empty")
    return tuple(shapes)


# key -> (parser, default). Defaults are the desk-scale experiment.
SCHEMA: dict[str, dict[str, tuple]] = {
    "data": {
        "source": (str, "synthetic"),
        "path": (str, ""),
        "num_classes": (int, 3),
        "image_side": (int, 16),
        "upsample_factor": (int, 1),
        "train_size": (int, 150),
        "test_size": (int, 60),
        "seed": (int, 0),
    },
    "model": {
        "patch_size": (int, 4),
        "embed_dim": (int, 64),
        "num_layers": (int, 4),
        "num_heads": (int, 4),
        "mlp_ratio": (float, 4.0),
        "codebook_size": (int, 64),
        "band_wrap": (_to_bool, True),
    },
    "train": {
        "band_width": (int, 4),
        "epochs_per_stage": (int, 8),
        "lr": (float, 1e-3),
        "lambda_rec": (float, 1000.0),
        "batch_size": (int, 16),
        "finetune_epochs": (int, 6),
        "finetune_lr": (float, 1e-3),
        "weight_decay": (float, 0.01),
        "warmup_epochs": (int, 1),
        "seed": (int, 0),
    },
    "certify": {
        "band_width": (int, 4),
        "threshold": (float, 0.2),
        "threshold_on": (str, "probs"),
        "patch_shapes": (_to_shapes, ((2, 2),)),
    },
}


@dataclass
class RunConfig:
    """Parsed configuration, one dict of typed values per section."""
    data: dict
    model: dict
    train: dict
    certify: dict

    def section(self, name: str) -> dict:
        try:
            return getattr(self, name)
        except AttributeError:
            raise ContractError(f"unknown config section '{name}'") from None


def default_config() -> RunConfig:
    return RunConfig(**{sec: {k: v for k, (_, v) in keys.items()}
                        for sec, keys in SCHEMA.items()})


def _parse_value(section: str, key: str, raw: str):
    if section not in SCHEMA:
        raise ContractError(f"unknown config section '[{section}]'")
    if key not in SCHEMA[section]:
        known = ", ".join(sorted(SCHEMA[section]))
        raise ContractError(f"unknown key '{key}' in [{section}] (known: {known})")
    parser = SCHEMA[section][key][0]
    try:
        return parser(raw)
    except ContractError:
        raise
    except (TypeError, ValueError) as e:
        raise ContractError(f"[{section}] {key}: cannot parse '{raw}' ({e})") from e


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the INI file, then ``section.key=value`` overrides."""
    cfg = default_config()
    if path is not None:
        # no header matches the empty name, so [DEFAULT] is a plain section
        cp = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            read = cp.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as e:
            raise ContractError(f"config file '{path}': {' '.join(str(e).split())}") from None
        if not read:
            raise ContractError(f"config file '{path}' not found or unreadable")
        for section in cp.sections():
            if section not in SCHEMA:  # checked by name: it may hold no keys
                raise ContractError(f"unknown config section '[{section}]'")
            for key, raw in cp.items(section):
                cfg.section(section)[key] = _parse_value(section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ContractError(f"override '{item}' is not section.key=value")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        cfg.section(section)[key] = _parse_value(section, key, raw)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.data["source"] not in ("synthetic", "cifar10"):
        raise ContractError(f"[data] source must be synthetic or cifar10, "
                            f"got '{cfg.data['source']}'")
    if cfg.data["source"] == "cifar10" and not cfg.data["path"]:
        raise ContractError("[data] source cifar10 needs a path")
    for section in ("data", "train"):
        if cfg.section(section)["seed"] < 0:
            raise ContractError(f"[{section}] seed must be non-negative, "
                                f"got {cfg.section(section)['seed']}")
    if cfg.train["band_width"] != cfg.certify["band_width"]:
        raise ContractError(f"band_width disagrees between [train] "
                            f"({cfg.train['band_width']}) and [certify] "
                            f"({cfg.certify['band_width']})")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(f"{h}x{w}" for h, w in value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Render a RunConfig as INI text that load_config reads back."""
    out = io.StringIO()
    for section in SCHEMA:
        out.write(f"[{section}]\n")
        for key in SCHEMA[section]:
            out.write(f"{key} = {_format_value(cfg.section(section)[key])}\n")
        out.write("\n")
    return out.getvalue()


# --------------------------------------------------------------------------
# adapters into the library dataclasses (imported lazily so that reading or
# printing a config never has to pull in the numerics stack). A section's
# keys are its dataclass's field names, so each section passes by name.


def effective_geometry(cfg: RunConfig) -> tuple[int, int]:
    """(image side the model sees, number of classes)."""
    if cfg.data["source"] == "cifar10":
        side, classes = 32, 10
    else:
        side, classes = cfg.data["image_side"], cfg.data["num_classes"]
    return side * cfg.data["upsample_factor"], classes


def build_dataset_spec(cfg: RunConfig):
    from .data import DatasetSpec
    return DatasetSpec(**cfg.data)


def build_model_config(cfg: RunConfig):
    from .model import ModelConfig
    side, classes = effective_geometry(cfg)
    return ModelConfig(image_side=side, num_classes=classes, **cfg.model)


def build_train_plan(cfg: RunConfig, model_cfg=None):
    from .training import build_default_plan
    if model_cfg is None:
        model_cfg = build_model_config(cfg)
    return build_default_plan(model_cfg, **{k: v for k, v in cfg.train.items()
                                            if k != "seed"})


def build_certify_config(cfg: RunConfig):
    from .certification import CertifyConfig
    return CertifyConfig(**cfg.certify)
