import dataclasses
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert.certification import CertifyConfig
from bandcert.config import (SCHEMA, build_certify_config, build_dataset_spec,
                             build_model_config, build_train_plan, load_config)
from bandcert.data import DatasetSpec
from bandcert.errors import ContractError
from bandcert.model import ModelConfig, ModelParams, plan_windows
from bandcert.training import TrainPlan, build_default_plan

NUMERIC_KEYS = sorted(f"{section}.{key}" for section, keys in SCHEMA.items()
                      for key, (parse, _) in keys.items() if parse in (int, float))
# Large values are left out: they would only allocate.
EDGE_VALUES = ("-1", "0", "nan", "inf", "-inf")


def _library_defaults() -> dict:
    """section.key -> the default of the dataclass field, or of the
    ``build_default_plan`` parameter, that the key feeds, for every one that
    has a default: [train] keys that are not the function's own parameters
    reach ``TrainPlan`` through its ``overrides``."""
    out = {}
    for section, cls in (("data", DatasetSpec), ("model", ModelConfig),
                         ("train", TrainPlan), ("certify", CertifyConfig)):
        out |= {f"{section}.{f.name}": f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    out |= {f"train.{name}": p.default
            for name, p in inspect.signature(build_default_plan).parameters.items()
            if p.default is not p.empty}
    return out


NO_LIBRARY_DEFAULT = {"train.band_width", "certify.band_width", "train.seed"}


@pytest.mark.parametrize("key", sorted(f"{section}.{key}" for section, keys in SCHEMA.items()
                                       for key in keys))
def test_schema_defaults_repeat_the_library_defaults(key):
    # a default changed on one side alone would make a run from the CLI and
    # a run from the library differ without notice
    section, name = key.split(".")
    library = _library_defaults()
    if key in NO_LIBRARY_DEFAULT:
        assert key not in library
    else:
        default = SCHEMA[section][name][1]
        assert (type(default), default) == (type(library[key]), library[key])


def test_numeric_keys_cover_every_section():
    assert {key.split(".")[0] for key in NUMERIC_KEYS} == set(SCHEMA)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(NUMERIC_KEYS), st.sampled_from(EDGE_VALUES),
                       min_size=1, max_size=4),
       st.booleans())
def test_edge_values_return_or_raise_contract_error(values, same_band):
    # band_width must agree between [train] and [certify] to get past the
    # config check, so half the draws that set one set the other too
    if same_band and "train.band_width" in values:
        values["certify.band_width"] = values["train.band_width"]
    try:
        cfg = load_config(overrides=[f"{k}={v}" for k, v in values.items()])
        build_dataset_spec(cfg)
        model_cfg = build_model_config(cfg)
        train_plan = build_train_plan(cfg, model_cfg)
        # a plan that builds holds only rates and counts training can use
        rates = [s.lr for s in train_plan.stages] + [
            train_plan.lambda_rec, train_plan.finetune_lr, train_plan.weight_decay]
        assert all(math.isfinite(r) and r >= 0 for r in rates), rates
        assert min(train_plan.finetune_epochs, train_plan.warmup_epochs,
                   *(s.epochs for s in train_plan.stages)) >= 0
        cert_cfg = build_certify_config(cfg)
        plan_windows(model_cfg, cert_cfg.band_width)
        ModelParams.init(model_cfg, seed=0)
    except ContractError:
        pass


@pytest.mark.parametrize("raw", ["50%", "a%%b", "%(seed)s"])
def test_config_values_are_read_literally(raw, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(f"[data]\npath = {raw}\n")
    assert load_config(str(path)).data["path"] == raw
