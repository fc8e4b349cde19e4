"""Config parsing: every rejection names the offending key, and every
default of an entry point is a config key with the same default."""

import dataclasses
import inspect

import pytest

from lmelab import brw, chain, engine, harness, laplace, prbm
from lmelab.errors import ConfigError

BASE = "q = 0.75\nb = 0.5\n"


def test_defaults_applied():
    cfg = harness.parse_config(BASE + "# a comment\n\nseed = 3  # trailing\n", "simulate-lme")
    assert cfg == {
        "q": 0.75, "b": 0.5, "n_max": 10_000, "pool_size": 100_000,
        "seed": 3, "track_powers": (2.0, 3.0),
    }


# (subcommand, config, rejected key): every config rejection names its key
REJECTIONS = [
    ("simulate-lme", BASE + "pool = 10\n", "pool"),
    ("simulate-lme", BASE + "seed = 1\nseed = 2\n", "seed"),
    ("simulate-lme", BASE + "n_max = ten\n", "n_max"),
    ("simulate-lme", "b = 0.5\n", "q"),
    ("simulate-lme", BASE + "checkpoints = 1,2\n", "checkpoints"),
    ("brw", "p = 2\n", "p"),
    ("rg-chain", "N = 15\n", "N"),
    ("rg-chain", "N = 8193\n", "N"),
    ("simulate-lme", BASE + "pool_size = 500\n", "pool_size"),
    ("simulate-lme", BASE + "pool_size = 1001\n", "pool_size"),
    ("brw", "depth = 50\n", "depth"),
    ("brw", "mode = foo\n", "mode"),
    ("brw", "replicas = 1000\n", "replicas"),
    ("rg-chain", "a = 0.7\n", "a"),
    ("laplace", "q = 2\n", "q"),
    ("laplace", "init = foo\n", "init"),
    ("prbm", "N_list = 32,64,128\n", "N_list"),
    ("prbm", "N_list = 64,128\n", "N_list"),
    ("prbm", "N_list = 64,64,128\n", "N_list"),
    ("rg-chain", "N = 256\nn_max = 200\n", "n_max"),
    ("brw", f"seed = {2**64}\n", "seed"),
    ("simulate-lme", "q = 0.3\nb = 0.5\n", "q"),
    ("simulate-lme", "q = 0.75\nb = 0\n", "b"),
    ("prbm", "realizations = 0\n", "realizations"),
    ("laplace", "n_schedule = 0\n", "n_schedule"),
    ("simulate-lme", BASE + "track_powers = 2,2\n", "track_powers"),
    ("rg-chain", "q_list = 2,2\n", "q_list"),
    ("simulate-lme", "q = 0.75\nb = inf\n", "b"),
    ("laplace", "b = inf\n", "b"),
    ("rg-chain", "b = inf\n", "b"),
    ("prbm", "b = inf\n", "b"),
    ("simulate-lme", "q = inf\nb = 0.5\n", "q"),
    ("prbm", "q = inf\n", "q"),
    ("brw", "beta = inf\n", "beta"),
    ("simulate-lme", BASE + "track_powers = 2,nan\n", "track_powers"),
    ("rg-chain", "q_list = 0.75,nan\n", "q_list"),
    ("laplace", "refine = maybe\n", "refine"),
]
REJECTION_IDS = [
    "unknown", "duplicate", "mistyped", "missing", "unread-checkpoints",
    "brw-unread-p", "rg-chain-N-below-16", "rg-chain-N-above-cap",
    "lme-pool-below-1000", "lme-pool-not-in-blocks", "brw-depth-above-cap",
    "brw-unknown-mode", "brw-replicas-not-in-blocks", "rg-chain-a-above-half",
    "laplace-q-above-one", "laplace-unknown-init", "prbm-size-below-64",
    "prbm-two-sizes", "prbm-repeated-size", "rg-chain-n_max-above-half-N",
    "brw-seed-above-64-bits", "lme-q-below-half", "lme-b-zero",
    "prbm-realizations-zero", "laplace-n_schedule-zero",
    "lme-repeated-track-power", "rg-chain-repeated-q", "lme-b-inf",
    "laplace-b-inf", "rg-chain-b-inf", "prbm-b-inf", "lme-q-inf",
    "prbm-q-inf", "brw-beta-inf", "lme-track-power-nan", "rg-chain-q-nan",
    "laplace-refine-not-boolean",
]


@pytest.mark.parametrize("subcommand, text, key", REJECTIONS, ids=REJECTION_IDS)
def test_rejections_name_the_key(subcommand, text, key):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        harness.parse_config(text, subcommand)


@pytest.mark.parametrize(
    "subcommand, text, message",
    [
        ("simulate", "", "unknown subcommand 'simulate'"),
        ("laplace", "q 0.75\n", "line 1: expected key=value"),
    ],
    ids=["unknown-subcommand", "line-without-equals"],
)
def test_document_rejections(subcommand, text, message):
    with pytest.raises(ConfigError, match=message):
        harness.parse_config(text, subcommand)


@pytest.mark.parametrize(
    "make",
    [
        lambda: engine.LmeParams(q=0.75, b=0.5, n_max=10, track_powers=(2.0, 2.0)),
        lambda: chain.RgParams(N=256, b=0.3, n_max=10, q_list=(2.0, 2.0)),
    ],
    ids=["LmeParams", "RgParams"],
)
def test_records_keyed_by_power_reject_repeats(make):
    # each power keys one list of the run's record
    with pytest.raises(ValueError, match="repeated"):
        make()


SEEDED = [s for s in harness.SCHEMAS if "seed" in harness.SCHEMAS[s]]


def _negative_seed(subcommand: str) -> str:
    return (BASE if subcommand == "simulate-lme" else "") + "seed = -1\n"


@pytest.mark.parametrize("subcommand", SEEDED)
def test_every_seed_key_rejects_negative_seeds(subcommand):
    with pytest.raises(ConfigError, match="'seed'"):
        harness.parse_config(_negative_seed(subcommand), subcommand)


# Each subcommand's entry point, called with a config's values unchecked.
ENTRY_POINTS = {
    "simulate-lme": lambda c: engine.LmeParams(**c),
    "brw": lambda c: brw.BrwParams(c["beta"], c["depth"], c["replicas"], c["seed"]),
    "rg-chain": lambda c: chain.RgParams(**c),
    "prbm": lambda c: prbm.estimate_dq(
        prbm.PrbmEnsemble(c["N_list"], c["b"], c["realizations"], c["seed"]), c["q"]
    ),
    "laplace": lambda c: laplace.converge_grid(
        c["q"], c["b"], init=c["init"], n_schedule=c["n_schedule"], refine=c["refine"]
    ),
}
# An unknown, duplicate, mistyped or missing key, and brw's ``mode``, which
# picks the run_* function, leave no value for an entry point to refuse; a
# ``refine`` that is not boolean text fails ``_bool`` while parsing, before
# any value reaches converge_grid.
PARSE_LEVEL = {
    "unknown", "duplicate", "mistyped", "missing", "unread-checkpoints",
    "brw-unread-p", "brw-unknown-mode", "laplace-refine-not-boolean",
}
ENTRY_CASES = [
    pytest.param(*case, id=i)
    for case, i in zip(REJECTIONS, REJECTION_IDS)
    if i not in PARSE_LEVEL
] + [
    pytest.param(s, _negative_seed(s), "seed", id=f"{s}-seed-negative") for s in SEEDED
] + [
    pytest.param("brw", "beta = -1\n", "beta", id="brw-beta-negative"),
    pytest.param("laplace", "b = -1\n", "b", id="laplace-b-negative"),
    pytest.param(
        "laplace", "refine = false\nn_schedule = 0\n", "n_schedule",
        id="laplace-unrefined-n_schedule-zero",
    ),
]


def _values(subcommand: str, text: str) -> dict:
    """A config's values by the schema's parsers and defaults, unchecked."""
    raw = dict((s.strip() for s in line.split("=", 1)) for line in text.splitlines())
    return {
        key: parser(raw[key]) if key in raw else default
        for key, (parser, default, _) in harness.SCHEMAS[subcommand].items()
    }


@pytest.mark.parametrize("subcommand, text, key", ENTRY_CASES)
def test_entry_points_reject_what_the_config_rejects(subcommand, text, key):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        harness.parse_config(text, subcommand)
    with pytest.raises(ValueError, match=rf"^{key} "):
        ENTRY_POINTS[subcommand](_values(subcommand, text))


@pytest.mark.parametrize("mode", ["cascade", "derivative", "max"])
def test_brw_takes_beta_zero_in_every_mode(mode):
    # beta = 0 is the identity cascade
    cfg = harness.parse_config(f"mode = {mode}\nbeta = 0\n", "brw")
    assert brw.BrwParams(cfg["beta"], cfg["depth"]).beta == 0.0


# Each entry point's defaulted parameters, every one of them a config key
# whose schema default is the same: an entry point has no hidden knob.
ENTRY_DEFAULTS = [
    ("simulate-lme", engine.LmeParams, {"pool_size", "seed", "track_powers"}),
    ("brw", brw.BrwParams, {"replicas", "seed"}),
    ("rg-chain", chain.RgParams, {"a", "q_list", "seed", "replicas"}),
    ("prbm", prbm.PrbmEnsemble, {"seed"}),
    ("laplace", laplace.converge_grid, {"init", "n_schedule", "refine"}),
]


def _defaults(entry) -> dict:
    if dataclasses.is_dataclass(entry):
        return {
            f.name: f.default
            for f in dataclasses.fields(entry)
            if f.default is not dataclasses.MISSING
        }
    return {
        name: p.default
        for name, p in inspect.signature(entry).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


@pytest.mark.parametrize(
    "subcommand, entry, keys", ENTRY_DEFAULTS, ids=[s for s, _, _ in ENTRY_DEFAULTS]
)
def test_schema_defaults_match_the_entry_point(subcommand, entry, keys):
    schema = harness.SCHEMAS[subcommand]
    own = _defaults(entry)
    assert set(own) == keys
    assert keys <= set(schema)
    for key in keys:
        assert schema[key][1] == own[key], key
