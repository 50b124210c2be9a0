import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert.config import (SCHEMA, build_certify_config, build_dataset_spec,
                             build_model_config, build_train_plan, load_config)
from bandcert.errors import ContractError
from bandcert.model import ModelParams, plan_windows

NUMERIC_KEYS = sorted(f"{section}.{key}" for section, keys in SCHEMA.items()
                      for key, (parse, _) in keys.items() if parse in (int, float))
# Large values are left out: they would only allocate.
EDGE_VALUES = ("-1", "0", "nan", "inf", "-inf")


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
