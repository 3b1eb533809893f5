"""Pipeline configuration: one JSON file, env-var overrides, validation.

Overrides use STARE_<SECTION>_<KEY> (e.g. STARE_BUCKETING_TAU=0.4);
values are parsed as JSON when possible, else taken as strings.
Relative paths resolve against the config file's directory.

One rule reads every section: ``_SCHEMAS`` gives its keys, types and
defaults (a dataclass section's are its fields, and the dataclass is
built so its own range checks run), the given keys go over fresh copies
of the defaults, and an unknown key or a value that does not ``fits`` its
type is an error naming ``section.key``. ``validate`` checks the rest:
files, known names, and sections against each other.
"""

from __future__ import annotations

import copy
import json
import os
import typing
from dataclasses import dataclass, fields
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


# Every schema, sections in file order: a dataclass or {key: (type, default)}.
# "mli.probe" is the object at key "probe" of section "mli".
_SCHEMAS: dict[str, type | dict[str, tuple]] = {
    "corpus": {"train": (str | None, None), "dev": (str | None, None),
               "dialect": (str, ParseDialect.BRACKETED.value)},
    "bucketing": LshIndex,
    "mining": MiningConfig,
    "encoder": EncoderConfig,
    "training": TrainConfig,
    "mli": {"layers": (set[int] | None, None), "properties": (set[str], list(PROPERTIES)),
            "lambdas": (set[float], list(DEFAULT_LAMBDAS)),
            "label_corpora": (dict[str, str], {}), "probe": (dict, {}), "k": (int, 5)},
    "mli.probe": ProbeConfig,
    "retrieval": {"k": (int, 5)},
    "prompt": PromptSpec,
}
_SECTIONS = tuple(name for name in _SCHEMAS if "." not in name)
# Constructor arguments that are not config keys, with placeholders for the check.
_NOT_KEYS = {EncoderConfig: {"vocab": {}}}


@dataclass
class PipelineConfig:
    """The resolved sections, each read as an attribute (``config.mining``)."""

    base_dir: Path
    sections: dict[str, dict]

    def __getattr__(self, name: str) -> dict:
        try:
            return self.__dict__["sections"][name]
        except KeyError:
            raise AttributeError(name) from None

    def path(self, value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else self.base_dir / p

    def to_dict(self) -> dict:
        return dict(self.sections)


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


def _keys(name: str) -> dict[str, tuple]:
    """{key: (type, default)} of schema ``name``; a dataclass's are its fields."""
    schema = _SCHEMAS[name]
    if isinstance(schema, dict):
        return schema
    hints = typing.get_type_hints(schema)
    return {f.name: (hints[f.name], f.default) for f in fields(schema)
            if f.init and f.name not in _NOT_KEYS.get(schema, {})}


def _section(name: str, given: dict) -> dict:
    """Schema ``name`` applied to ``given``. A dataclass's errors read
    "<field> <reason>", which names the key at fault."""
    schema, keys = _SCHEMAS[name], _keys(name)
    for key in given:
        _require(key in keys, f"{name}.{key}", "unknown key")
    values = {key: copy.deepcopy(default) for key, (_, default) in keys.items()} | given
    for key, (hint, _) in keys.items():
        _require(fits(values[key], hint), f"{name}.{key}",
                 f"expected {hint.__name__ if type(hint) is type else hint}, "
                 f"got {values[key]!r}")
    if isinstance(schema, dict):
        return values
    try:
        schema(**_NOT_KEYS.get(schema, {}), **values)
    except ValueError as exc:
        key, _, reason = str(exc).partition(" ")
        raise ConfigError(f"{name}.{key}: {reason}" if key in values
                          else f"{name}: {exc}") from exc
    return values


def validate(config: PipelineConfig) -> PipelineConfig:
    """Checks that no one schema makes: files, known names, sections that agree."""
    for key in ("train", "dev"):
        value = config.corpus[key]
        _require(bool(value), f"corpus.{key}", "a corpus path is required")
        _require(config.path(value).exists(), f"corpus.{key}",
                 f"file not found: {config.path(value)}")
    _require(config.corpus["dialect"] in [d.value for d in ParseDialect],
             "corpus.dialect", f"unknown dialect {config.corpus['dialect']!r}")

    mli = config.mli
    layers = config.encoder["layers"]
    for key in ("layers", "properties", "lambdas"):  # null layers: the default ones
        _require(mli[key] != [], f"mli.{key}", "an empty list sweeps nothing")
    for n in mli["layers"] or ():
        _require(1 <= n <= layers, "mli.layers", f"layer {n!r} outside [1, {layers}]")
    for prop in mli["properties"]:
        _require(prop in PROPERTIES, "mli.properties", f"unknown property {prop!r}")
    for prop, path in mli["label_corpora"].items():
        _require(prop in PROPERTIES, "mli.label_corpora", f"unknown property {prop!r}")
        _require(config.path(path).exists(), "mli.label_corpora",
                 f"file not found: {config.path(path)}")

    for name in ("mli", "retrieval"):
        k = config.sections[name]["k"]
        _require(k >= 1, f"{name}.k", f"expected an int >= 1, got {k!r}")
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
    for name, given in raw.items():
        if not isinstance(given, dict):
            raise ConfigError(f"{name}: section must be an object")

    sections = apply_env_overrides({name: {} for name in _SECTIONS} | raw,
                                   env if env is not None else dict(os.environ))
    for name in _SCHEMAS:  # "mli.probe" after "mli", replacing its "probe"
        head, _, key = name.rpartition(".")
        holder = sections[head] if head else sections
        holder[key] = _section(name, holder[key])
    return validate(PipelineConfig(base_dir=path.parent.resolve(), sections=sections))
