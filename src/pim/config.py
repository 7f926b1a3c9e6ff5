"""Flat key = value configuration with dotted keys.

One option per line, ``section.key = value``; blank lines and ``#``
comments ignored.  Values are typed by trial: int, then float, else
string, and must then have the type of the key's default (a float key also
takes an integer).  Unknown keys and mistyped values are rejected so typos
fail loudly instead of silently falling back to defaults.  The defaults are
the field defaults of the objects each section configures, written once.
What guards a run's validity (the guardrail ceilings, the oracle's fine
quadrature, a study's reference resolution) is a constant, not a key.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from .analysis import Coupling
from .assembly import DENSE_CUTOFF
from .kernel import cubic_profile
from .solve import SolveOptions

__all__ = ["ConfigError", "DEFAULTS", "parse_value", "load_config", "merged"]


class ConfigError(ValueError):
    """Malformed config file or unknown key."""


def _defaults(name: str, cls) -> dict:
    """``name.field`` -> default for every field of the dataclass ``cls``."""
    return {f"{name}.{f.name}": f.default for f in fields(cls)}


DEFAULTS: dict = {
    "kernel.profile": cubic_profile.name,
    **_defaults("solver", SolveOptions),
    "assembly.dense_cutoff": DENSE_CUTOFF,
    **_defaults("coupling", Coupling),
}


def parse_value(text: str):
    text = text.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    return text


def load_config(path) -> dict:
    """Parse a config file; returns only the keys it sets."""
    out: dict = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} "
                    f"(known: {', '.join(sorted(DEFAULTS))})")
            value = parse_value(value)
            kind = type(DEFAULTS[key])
            if not (type(value) is kind or kind is float and type(value) is int):
                raise ConfigError(
                    f"{path}:{lineno}: {key} takes {kind.__name__} values, got {value!r}")
            out[key] = kind(value)
    return out


def merged(config_path: Optional[str] = None,
           overrides: Optional[dict] = None) -> dict:
    """DEFAULTS, updated by the config file, updated by explicit overrides."""
    cfg = dict(DEFAULTS)
    if config_path is not None:
        cfg.update(load_config(config_path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    return cfg
