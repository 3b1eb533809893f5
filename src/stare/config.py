"""Pipeline configuration: one JSON file, env-var overrides, validation.

Overrides use STARE_<SECTION>_<KEY> (e.g. STARE_BUCKETING_TAU=0.4);
values are parsed as JSON when possible, else taken as strings.
Relative paths resolve against the config file's directory. Sections
that configure a pipeline object take their keys, defaults, types and
range checks from its dataclass; unknown keys are errors everywhere.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .artifacts import fits, read_json
from .bucketing import LshIndex
from .encoder import EncoderConfig, TrainConfig
from .mining import MiningConfig
from .mli import DEFAULT_LAMBDAS, PROPERTIES, ProbeConfig
from .retrieval import PromptSpec
from .trees import ParseDialect


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    base_dir: Path
    corpus: dict = field(default_factory=dict)
    bucketing: dict = field(default_factory=dict)
    mining: dict = field(default_factory=dict)
    encoder: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)
    mli: dict = field(default_factory=dict)
    retrieval: dict = field(default_factory=dict)
    prompt: dict = field(default_factory=dict)

    def path(self, value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else self.base_dir / p

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _SECTIONS}


_SECTIONS = tuple(f.name for f in fields(PipelineConfig) if f.name != "base_dir")


_SCHEMAS = {"bucketing": LshIndex, "mining": MiningConfig, "encoder": EncoderConfig,
            "training": TrainConfig, "prompt": PromptSpec}
# Constructor arguments that are not config keys, with placeholders for the check.
_NOT_KEYS = {EncoderConfig: {"vocab": {}}}

_DEFAULTS: dict[str, dict] = {
    "corpus": {"train": None, "dev": None, "dialect": "bracketed"},
    "mli": {"layers": None, "properties": list(PROPERTIES),
            "lambdas": list(DEFAULT_LAMBDAS), "label_corpora": {}, "probe": {}, "k": 5},
    "retrieval": {"k": 5},
}


def _parse_env_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_env_overrides(sections: dict, env: dict[str, str]) -> dict:
    for name, raw in env.items():
        if not name.startswith("STARE_"):
            continue
        parts = name[len("STARE_"):].split("_", 1)
        if len(parts) != 2:
            continue
        section, key = parts[0].lower(), parts[1].lower()
        if section not in _SECTIONS:
            continue
        sections.setdefault(section, {})[key] = _parse_env_value(raw)
    return sections


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field_name}: {message}")


def _merge(name: str, defaults: dict, given: dict) -> dict:
    for key in given:
        _require(key in defaults, f"{name}.{key}", "unknown key")
    return {**defaults, **given}


def _section(name: str, given: dict, cls) -> dict:
    """The defaults of ``cls`` updated by ``given``, checked by ``cls`` itself;
    its errors read "<field> <reason>", which names the key at fault."""
    extra = _NOT_KEYS.get(cls, {})
    hints = typing.get_type_hints(cls)
    values = _merge(name, {f.name: f.default for f in fields(cls)
                           if f.init and f.name not in extra}, given)
    for key, value in values.items():
        _require(fits(value, hints[key]), f"{name}.{key}",
                 f"expected {getattr(hints[key], '__name__', hints[key])}, got {value!r}")
    try:
        cls(**extra, **values)
    except ValueError as exc:
        key, _, reason = str(exc).partition(" ")
        raise ConfigError(f"{name}.{key}: {reason}" if key in values
                          else f"{name}: {exc}") from exc
    return values


def _resolve(sections: dict) -> dict:
    """Fill every section's defaults; check the dataclass-backed ones."""
    for name, defaults in _DEFAULTS.items():
        sections[name] = _merge(name, defaults, sections[name])
    for name, cls in _SCHEMAS.items():
        sections[name] = _section(name, sections[name], cls)
    probe = sections["mli"]["probe"]
    _require(isinstance(probe, dict), "mli.probe", "must be an object")
    sections["mli"]["probe"] = _section("mli.probe", probe, ProbeConfig)
    return sections


def validate(config: PipelineConfig) -> PipelineConfig:
    """Checks of the sections that no dataclass owns."""
    sections = config.to_dict()

    for key in ("train", "dev"):
        value = sections["corpus"].get(key)
        _require(isinstance(value, str) and bool(value), f"corpus.{key}",
                 "a corpus path is required")
        _require(config.path(value).exists(), f"corpus.{key}",
                 f"file not found: {config.path(value)}")
    _require(sections["corpus"]["dialect"] in [d.value for d in ParseDialect],
             "corpus.dialect", f"unknown dialect {sections['corpus']['dialect']!r}")

    mli = sections["mli"]
    for key, hint in (("layers", list | None), ("properties", list), ("lambdas", list),
                      ("label_corpora", dict)):
        _require(fits(mli[key], hint), f"mli.{key}",
                 f"expected {getattr(hint, '__name__', hint)}, got {mli[key]!r}")
    layers = sections["encoder"]["layers"]
    for n in mli["layers"] or ():
        _require(fits(n, int) and 1 <= n <= layers, "mli.layers",
                 f"layer {n!r} outside [1, {layers}]")
    for prop in mli["properties"]:
        _require(prop in PROPERTIES, "mli.properties", f"unknown property {prop!r}")
    for lam in mli["lambdas"]:
        _require(fits(lam, float), "mli.lambdas", f"expected a number, got {lam!r}")
    for prop, path in mli["label_corpora"].items():
        _require(prop in PROPERTIES, "mli.label_corpora", f"unknown property {prop!r}")
        _require(fits(path, str), "mli.label_corpora", f"expected a path, got {path!r}")
        _require(config.path(path).exists(), "mli.label_corpora",
                 f"file not found: {config.path(path)}")

    for name in ("mli", "retrieval"):
        k = sections[name]["k"]
        _require(fits(k, int) and k >= 1, f"{name}.k", f"expected an int >= 1, got {k!r}")
    return config


def load_config(path: str | Path, env: dict[str, str] | None = None) -> PipelineConfig:
    path = Path(path)
    try:
        raw = read_json(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    sections: dict[str, dict] = {name: {} for name in _SECTIONS}
    for name, overrides in raw.items():
        if not isinstance(overrides, dict):
            raise ConfigError(f"{name}: section must be an object")
        sections[name].update(overrides)
    apply_env_overrides(sections, env if env is not None else dict(os.environ))
    config = PipelineConfig(base_dir=path.parent.resolve(), **_resolve(sections))
    return validate(config)
