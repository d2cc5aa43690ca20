"""Experiment configuration: JSON files, environment, and merge rules.

This is the one module that turns user input into the objects experiments
run on: profiles, mitigation sets, attack scenarios and channel settings.
Everything a user can get wrong is rejected here as a ConfigError, before
any experiment runs.

Precedence, highest first: explicit CLI flags, then the config file, then
profile defaults.  The seed falls back to the TRANSIENT_SIM_SEED environment
variable and finally to the fixed default, so unconfigured runs are still
reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass, field
from enum import Enum

from .attacks import RSB_PAGE_FAULT_UNDEFINED, VARIANTS, Scenario, SecretLocation, WindowTrigger
from .core import DEFAULT_SEED
from .covert import ChannelConfig
from .memory import Latencies
from .profiles import CpuProfile, MitigationSet, get_profile

SEED_ENV_VAR = "TRANSIENT_SIM_SEED"

EXPERIMENT_KINDS = ("attack", "covert", "sweep", "matrix", "mitigation-demo")
OUTPUT_FORMATS = ("json", "csv", "table")

_WINDOW_TRIGGERS = {
    "specload": WindowTrigger.SPECULATIVE_LOAD,
    "cachemiss": WindowTrigger.CACHE_MISS,
    "pagefault": WindowTrigger.PAGE_FAULT,
}
_SECRET_LOCATIONS = {"l1": SecretLocation.L1, "dram": SecretLocation.MAIN_MEMORY}
SCENARIOS = tuple(_WINDOW_TRIGGERS)
SECRET_LOCS = tuple(_SECRET_LOCATIONS)
# a command's output format where neither --format nor its config file names
# one, for the commands whose default is not json
_COMMAND_OUTPUTS = {"sweep": "csv", "matrix": "table"}
# ExperimentConfig field -> the values it may take
_CHOICES = {
    "experiment": EXPERIMENT_KINDS,
    "variant": VARIANTS,
    "scenario": SCENARIOS,
    "secret_loc": SECRET_LOCS,
    "output": OUTPUT_FORMATS,
}
# ExperimentConfig field -> ChannelConfig field; an unset (None) value keeps
# ChannelConfig's own default
_CHANNEL_FIELDS = {
    "bits": "bits_per_cs",
    "noise": "noise_probability",
    "context_switch_cost": "context_switch_cost",
    "probe_cost_per_line": "probe_cost_per_line",
    "rsb_fill_depth": "rsb_fill_depth",
}


class ConfigError(ValueError):
    """A configuration file or override set that cannot be used."""


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


@dataclass
class ExperimentConfig:
    experiment: str = "attack"
    profile: str = "intel_i7"
    profile_overrides: dict = field(default_factory=dict)
    mitigations: dict = field(default_factory=dict)
    variant: str = "v1"
    scenario: str = "cachemiss"
    secret_loc: str = "l1"
    secret_hex: str | None = None
    bits: int = 3
    message_hex: str = "4849"
    noise: float = 0.0
    context_switch_cost: int | None = None
    probe_cost_per_line: int | None = None
    rsb_fill_depth: int | None = None
    seed: int = field(default_factory=default_seed)
    output: str = "json"

    def __post_init__(self) -> None:
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"unknown {name} {value!r}; expected one of {choices}")
        # Building the derived objects applies every module-level invariant
        # (rsb_size range, latency ordering, mitigation exclusivity, channel
        # bounds, the scenarios an attack supports).
        self.resolved_profile()
        self.attack_scenario()
        self.channel_config()

    def with_updates(self, **updates) -> "ExperimentConfig":
        """Non-None updates win over current values (CLI-over-file merge)."""
        changes = {k: v for k, v in updates.items() if v is not None}
        merged = dataclasses.replace(self, **changes)
        return merged

    def message_bytes(self) -> bytes:
        """The payload to send.  An empty one would send nothing and still
        report a clean channel."""
        try:
            message = bytes.fromhex(self.message_hex)
        except ValueError:
            raise ConfigError(f"message is not valid hex: {self.message_hex!r}") from None
        if not message:
            raise ConfigError("message is empty; give at least one byte")
        return message

    def secret_bytes(self) -> bytes | None:
        """The secret to plant, or None for the default.  A zero byte cannot
        be told from a leak: a core that forwards zero lights oracle line 0."""
        if self.secret_hex is None:
            return None
        try:
            secret = bytes.fromhex(self.secret_hex)
        except ValueError:
            raise ConfigError(f"secret is not valid hex: {self.secret_hex!r}") from None
        if not secret:
            raise ConfigError("secret is empty; give at least one byte")
        if 0 in secret:
            raise ConfigError(
                f"secret {self.secret_hex!r} has a 0x00 byte, which cores that forward"
                " zero on a fault would read as leaked"
            )
        return secret

    def resolved_profile(self) -> CpuProfile:
        try:
            prof = get_profile(self.profile)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.profile_overrides:
            prof = _apply_profile_overrides(prof, self.profile_overrides)
        if self.mitigations:
            prof = prof.with_overrides(mitigations=mitigation_set(self.mitigations))
        return prof

    def attack_scenario(self) -> Scenario:
        if self.variant == "rsb" and self.scenario == "pagefault":
            raise ConfigError(RSB_PAGE_FAULT_UNDEFINED)
        return Scenario(_WINDOW_TRIGGERS[self.scenario], _SECRET_LOCATIONS[self.secret_loc])

    def channel_config(self) -> ChannelConfig:
        values = {
            name: getattr(self, key)
            for key, name in _CHANNEL_FIELDS.items()
            if getattr(self, key) is not None
        }
        try:
            return ChannelConfig(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None


def _field_types(cls) -> dict:
    """field -> the types its annotation admits"""
    return {name: typing.get_args(hint) or (hint,)
            for name, hint in typing.get_type_hints(cls).items()}


def _has_type(value, types: tuple) -> bool:
    if isinstance(value, bool):
        return bool in types  # a JSON true is not the integer 1
    if isinstance(value, int) and float in types:
        return True
    return isinstance(value, types)


def _check_type(what: str, key: str, value, types: tuple) -> None:
    if not _has_type(value, types):
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ConfigError(f"{what}{key} must be {expected}, got {value!r}")


_LATENCY_TYPES = _field_types(Latencies)
_MITIGATION_TYPES = _field_types(MitigationSet)
_PROFILE_TYPES = _field_types(CpuProfile)
# the profile fields a flat override may set: the Enum-typed ones, and the
# int- and bool-typed ones
_ENUM_FIELDS = {
    key: kind for key, (kind, *more) in _PROFILE_TYPES.items() if not more and issubclass(kind, Enum)
}
_SCALAR_FIELDS = {key for key, types in _PROFILE_TYPES.items() if types in ((int,), (bool,))}


def _coerce_enum(kind, value):
    if isinstance(value, kind):
        return value
    for member in kind:
        if member.value == value or member.name == value:
            return member
    options = ", ".join(m.value for m in kind)
    raise ConfigError(f"invalid {kind.__name__} value {value!r}; expected one of {options}")


def _apply_profile_overrides(prof: CpuProfile, overrides: dict) -> CpuProfile:
    """Flat override keys: any latency field or profile scalar, of its
    field's type; enum-valued fields accept their string names.  Mitigation
    flags belong in `mitigations`, which mitigation_set builds."""
    lat_changes = {}
    prof_changes = {}
    for key, value in overrides.items():
        if key in _LATENCY_TYPES:
            _check_type("profile override ", key, value, _LATENCY_TYPES[key])
            lat_changes[key] = value
        elif key in _MITIGATION_TYPES:
            raise ConfigError(f"mitigation flag {key!r} goes in mitigations, not profile_overrides")
        elif key in _ENUM_FIELDS:
            prof_changes[key] = _coerce_enum(_ENUM_FIELDS[key], value)
        elif key in _SCALAR_FIELDS:
            _check_type("profile override ", key, value, _PROFILE_TYPES[key])
            prof_changes[key] = value
        else:
            raise ConfigError(f"unknown profile override {key!r}")
    if lat_changes:
        prof_changes["latencies"] = dataclasses.replace(prof.latencies, **lat_changes)
    try:
        return prof.with_overrides(**prof_changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def mitigation_set(flags: dict, spec: str = "") -> MitigationSet:
    """The one place a MitigationSet is made, for config files and --flags
    alike.  `spec` is the text of --flags, on top of the config's `flags`:
    comma-separated parts, each a bare `name`, which sets the flag to true,
    or `name=value`, whose value must be an integer; empty parts are
    skipped.  Then each value must have its flag's type, so a boolean flag
    takes only true or false."""
    command_line: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if part:
            key, eq, raw = part.partition("=")
            command_line[key.strip()] = raw if eq else True
    unknown = (set(flags) | set(command_line)) - set(_MITIGATION_TYPES)
    if unknown:
        raise ConfigError(f"unknown mitigation flags: {sorted(unknown)}")
    values = dict(flags)
    for key, value in command_line.items():
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"flag {key!r} needs an integer value, got {value!r}") from None
        values[key] = value
    for key, value in values.items():
        _check_type("mitigation flag ", key, value, _MITIGATION_TYPES[key])
    try:
        return MitigationSet(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_FIELD_TYPES = _field_types(ExperimentConfig)


def config_from_dict(data: dict, source: str = "<dict>") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {sorted(unknown)}")
    for key, value in data.items():
        _check_type(f"{source}: ", key, value, _FIELD_TYPES[key])
    try:
        return ExperimentConfig(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from None


def experiment_config(experiment: str, path: str | None, overrides: dict) -> ExperimentConfig:
    """The config file at `path` (or the defaults) run as `experiment`, with
    every non-None override named after an ExperimentConfig field on top.
    Where neither the file nor an override names the output format, the
    command prints in its own (_COMMAND_OUTPUTS)."""
    data = _read_json(path) if path else {}
    if experiment in _COMMAND_OUTPUTS and isinstance(data, dict):
        data.setdefault("output", _COMMAND_OUTPUTS[experiment])
    cfg = config_from_dict(data, source=path or "<defaults>")
    updates = {key: overrides.get(key) for key in _CONFIG_KEYS}
    updates["experiment"] = experiment
    return cfg.with_updates(**updates)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
