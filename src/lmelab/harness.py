"""Run configuration: one flat key=value schema per subcommand.

Configs are flat UTF-8 key=value documents ('#' comments allowed); which
keys are legal depends on the subcommand.  The harness parses the keys and
names them: unknown, duplicate, mistyped and out-of-range keys are
rejected with a ``ConfigError`` that names the key.  Every range check
belongs to an entry point, and the schema runs that same check, so a
config rejects exactly what the entry point rejects.  Missing optional
keys take the schema's default, which equals the entry point's own
default wherever it has one.
"""

from __future__ import annotations

from . import brw, chain, engine, laplace, prbm, streams
from .errors import (
    ConfigError, _check_count, _check_distinct, _check_ge0, _check_gt0, _check_q,
)

__all__ = ["SCHEMAS", "parse_config"]


def _list(item):
    return lambda text: tuple(item(x) for x in text.split(",") if x.strip())


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _checked(key, *checks):
    """Validator that runs an entry point's own checks on the value, so the
    rejection is the entry point's and names the key."""

    def validate(value):
        try:
            for check in checks:
                check(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
        return value

    return validate


def _named(key, check):
    """Validator for a shared check of ``errors``, which takes the key."""
    return _checked(key, lambda value: check(key, value))


# key -> (parser, default or REQUIRED, optional validator)
_REQUIRED = object()
_SEED = _checked("seed", streams._check_seed)

SCHEMAS: dict[str, dict] = {
    "simulate-lme": {
        "q": (float, _REQUIRED, _checked("q", _check_q)),
        "b": (float, _REQUIRED, _named("b", _check_gt0)),
        "n_max": (int, 10_000, _named("n_max", _check_count)),
        "pool_size": (int, 100_000, _checked("pool_size", engine._check_pool_size)),
        "seed": (int, 0, _SEED),
        "track_powers": (_list(float), (2.0, 3.0), _named("track_powers", _check_distinct)),
    },
    "laplace": {
        "q": (float, 0.75, _checked("q", laplace._check_q)),
        "b": (float, 0.5, _named("b", _check_gt0)),
        "init": (str, "delta", _checked("init", laplace._check_init)),
        # scales of the recursion-only route (refine = false); with refine
        # the stationary solve starts from one recursion step, since its
        # solution does not depend on the start
        "n_schedule": (int, 4000, _named("n_schedule", _check_count)),
        "refine": (_bool, True, None),
    },
    "brw": {
        "mode": (str, "cascade", _checked("mode", brw._check_mode)),
        # read by the cascade alone (see brw.BrwParams), yet every mode takes it
        "beta": (float, 0.8326, _named("beta", _check_ge0)),
        "depth": (int, 40, _checked("depth", brw._check_depth)),
        "replicas": (int, 1_000_000, _checked("replicas", brw._check_replicas)),
        "seed": (int, 0, _SEED),
    },
    "rg-chain": {
        "N": (int, 4096, _checked("N", chain._check_size)),
        "b": (float, 0.3, _named("b", _check_gt0)),
        "a": (float, 0.4, _checked("a", chain._check_a)),
        # checked with N after the per-key validators, in parse_config
        "n_max": (int, 100, None),
        "q_list": (_list(float), (0.75, 2.0), _named("q_list", _check_distinct)),
        "seed": (int, 0, _SEED),
        "replicas": (int, 1, _named("replicas", _check_count)),
    },
    "prbm": {
        "N_list": (_list(int), (256, 512, 1024, 2048), _checked("N_list", prbm._check_sizes)),
        "b": (float, 0.1, _named("b", _check_gt0)),
        "q": (float, 2.0, _named("q", _check_gt0)),
        "realizations": (int, 20, _named("realizations", _check_count)),
        "seed": (int, 0, _SEED),
    },
}


def parse_config(text: str, subcommand: str) -> dict:
    """Parse a flat key=value document against the subcommand's schema."""
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}")
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for subcommand {subcommand!r}")
        raw[key] = value
    out = {}
    for key, (parser, default, validator) in schema.items():
        if key in raw:
            try:
                value = parser(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"key {key!r}: type mismatch ({exc})") from exc
        else:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            value = default
        if validator is not None:
            value = validator(value)
        out[key] = value
    if subcommand == "rg-chain":
        # a check across two keys, run once after the per-key validators
        _checked("n_max", lambda c: chain._check_n_max(c["N"], c["n_max"]))(out)
    return out
