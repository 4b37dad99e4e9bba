"""Configuration files, overrides, and provenance digests.

Two on-disk formats carry the same schema:

* an INI-style text format where each physical value is written as
  ``number unit`` (``kappa = 3e6 rad/s``), dimensionless values as bare
  numbers, and
* a JSON mirror where each physical value is ``{"value": x, "unit": u}``.

The file extension picks the format.  The INI reader only splits each
value into number and unit text; ``config_from_dict`` converts and
checks both formats.  Units are fixed per field; a config written with
the wrong unit string is rejected rather than converted.  Overrides use
dotted paths matching the section names (``drive.omega=3.67e6``).

The schema is derived, not written out: its sections are ModelConfig's
dataclass-typed fields, each section's fields and units are the ones
its dataclass declares, in field order, and a section or field without
a default must be present.  A JSON ``null`` goes to its field's check,
which accepts it only where None is the default.

These paths, plus the derived ``b_field`` and ``pump``, form the one
parameter registry (``param_unit``, ``get_param``, ``set_param``).
``provenance`` builds every output table's header.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import json
import os

from . import __about__
from .errors import InvalidConfigError
from .model import (ModelConfig, PhysicalConstants, _dataclass_fields,
                    _is_number, b_field_to_detuning, detuning_to_b_field,
                    preset, with_drive)


def _units(cls) -> dict[str, str | None]:
    """Field name -> unit of the fields of a dataclass that declare one."""
    return {f.name: f.metadata["unit"] for f in dataclasses.fields(cls)
            if "unit" in f.metadata}


def _required(cls) -> list[str]:
    """The fields of a dataclass that have no default."""
    return [f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING]


# Each section is the dataclass-typed ModelConfig field that holds it
_SECTION_TYPES = _dataclass_fields(ModelConfig)

# section -> field -> unit, in the dataclasses' field order, which is
# also the order of a config file
_SCHEMA: dict[str, dict[str, str | None]] = {
    section: _units(cls) for section, cls in _SECTION_TYPES.items()}

# The parameter registry: every readable and settable path and its unit.
# b_field (stored as drive.delta) and pump (both branch pumps) are
# derived, so config files and overrides do not carry them.
_UNITS = {f"{section}.{name}": unit for section, fields in _SCHEMA.items()
          for name, unit in fields.items()}
_UNITS.update(b_field="T", pump="rad/s")


def param_unit(path: str) -> str | None:
    """Unit of a parameter path; None is dimensionless, "str" a token."""
    if not (isinstance(path, str) and path in _UNITS):
        raise InvalidConfigError(f"unknown parameter path {path!r}")
    return _UNITS[path]


def get_param(config: ModelConfig, path: str):
    """Value of a parameter path (``pump`` reads the m_s=0 branch)."""
    param_unit(path)
    if path == "b_field":
        return detuning_to_b_field(config.drive.delta, config.constants)
    if path == "pump":
        return config.drive.pump12
    section, _, name = path.partition(".")
    return getattr(getattr(config, section), name)


def _convert(path: str, value):
    """The value of a parameter path from a number or its text: a token
    as given (its field checks it), None for ``"none"`` on the gain
    override, a float otherwise.  Raises InvalidConfigError for an
    unknown path or a value that is neither a number (``_is_number``:
    a boolean is not one, though float() takes it) nor its text."""
    unit = param_unit(path)
    if unit == "str":
        return value
    if (path == "gain.coupling_override" and isinstance(value, str)
            and value.lower() == "none"):
        return None
    if type(value) is float or isinstance(value, str) or _is_number(value):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise InvalidConfigError(f"{path}: bad number {value!r}")


# The paths that set the drive alone, and the DriveSettings fields each sets
_DRIVE_FIELDS = {"drive.pump12": ("pump12",), "drive.pump45": ("pump45",),
                 "drive.omega": ("omega",), "drive.delta": ("delta",),
                 "pump": ("pump12", "pump45"), "b_field": ("delta",)}
DRIVE_PATHS = frozenset(_DRIVE_FIELDS)


def _set_twice(paths) -> bool:
    """Whether two of ``paths`` set one config value: a drive path sets
    its DriveSettings fields, any other path itself."""
    values = [v for path in paths for v in _DRIVE_FIELDS.get(path, (path,))]
    return len(set(values)) < len(values)


def drive_changes(path: str, value, constants: PhysicalConstants) -> dict:
    """The DriveSettings fields that setting the drive path ``path`` (one
    of ``DRIVE_PATHS``) to ``value`` changes; a ``b_field`` is converted
    with ``constants``."""
    value = _convert(path, value)
    if path == "b_field":
        value = b_field_to_detuning(value, constants)
    return dict.fromkeys(_DRIVE_FIELDS[path], value)


def set_param(config: ModelConfig, path: str, value) -> ModelConfig:
    """Copy of config with one parameter path set.

    Numbers may be given as strings; ``"none"`` clears the gain override.
    """
    if path in DRIVE_PATHS:
        return with_drive(config,
                          **drive_changes(path, value, config.constants))
    value = _convert(path, value)
    section, _, name = path.partition(".")
    part = dataclasses.replace(getattr(config, section), **{name: value})
    return dataclasses.replace(config, **{section: part})


def config_to_dict(config: ModelConfig) -> dict:
    """JSON-ready nested dict with explicit units."""
    out: dict = {}
    for section, fields in _SCHEMA.items():
        sec: dict = {}
        for name, unit in fields.items():
            value = get_param(config, f"{section}.{name}")
            if unit == "str" or value is None:
                sec[name] = value
            else:
                sec[name] = {"value": float(value), "unit": unit or "1"}
        out[section] = sec
    return out


def _parse_value(section: str, name: str, payload) -> object:
    unit = _SCHEMA[section][name]
    if unit == "str" or payload is None:
        return payload
    if not isinstance(payload, dict) or set(payload) != {"value", "unit"}:
        raise InvalidConfigError(
            f"{section}.{name} must be {{'value': x, 'unit': u}}")
    value = _convert(f"{section}.{name}", payload["value"])
    expected = "1" if unit is None else unit
    if value is not None and payload["unit"] != expected:
        raise InvalidConfigError(
            f"{section}.{name}: unit must be {expected!r}, "
            f"got {payload['unit']!r}")
    return value


def config_from_dict(data: dict) -> ModelConfig:
    if not isinstance(data, dict):
        raise InvalidConfigError("config document must be an object")
    unknown = set(data) - set(_SCHEMA)
    if unknown:
        raise InvalidConfigError(f"unknown config sections: {sorted(unknown)}")
    for required in _required(ModelConfig):
        if required not in data:
            raise InvalidConfigError(f"missing config section [{required}]")
    for section, sec in data.items():
        if not isinstance(sec, dict):
            raise InvalidConfigError(f"[{section}] must be an object")
        bad = set(sec) - set(_SCHEMA[section])
        if bad:
            raise InvalidConfigError(
                f"unknown fields in [{section}]: {sorted(bad)}")
    parts = {}
    for section, cls in _SECTION_TYPES.items():
        if section not in data:
            continue
        sec = data[section]
        missing = set(_required(cls)) - set(sec)
        if missing:
            raise InvalidConfigError(
                f"missing fields in [{section}]: {sorted(missing)}")
        kwargs = {name: _parse_value(section, name, sec[name])
                  for name in sec}
        parts[section] = cls(**kwargs)
    return ModelConfig(**parts)


def _ini_dump(config: ModelConfig) -> str:
    doc = config_to_dict(config)
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep field-name case
    for section, sec in doc.items():
        parser[section] = {}
        for name, payload in sec.items():
            if payload is None:
                parser[section][name] = "none"
            elif isinstance(payload, str):
                parser[section][name] = payload
            elif payload["unit"] == "1":
                parser[section][name] = repr(payload["value"])
            else:
                parser[section][name] = (
                    f"{payload['value']!r} {payload['unit']}")
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _ini_parse(text: str) -> ModelConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # one line: configparser puts the offending text on lines of its own
        raise InvalidConfigError(
            f"malformed config file: {' '.join(str(exc).split())}") from exc
    return config_from_dict(
        {section: {name: _ini_value(section, name, raw.strip())
                   for name, raw in parser[section].items()}
         for section in parser.sections()})


def _ini_value(section: str, name: str, raw: str):
    """The JSON form of one INI value; ``config_from_dict`` checks it."""
    if _SCHEMA.get(section, {}).get(name) == "str":
        return raw
    value, *unit = raw.split() or [""]
    return {"value": value, "unit": " ".join(unit) or "1"}


def save_config(config: ModelConfig, path: str | os.PathLike) -> None:
    """Write config as JSON or INI, chosen by the file extension."""
    if _format_for(path) == "json":
        text = json.dumps(config_to_dict(config), indent=2, sort_keys=True)
        text += "\n"
    else:
        text = _ini_dump(config)
    try:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    except OSError as exc:
        raise InvalidConfigError(f"cannot write config: {exc}") from exc


def load_config(path: str | os.PathLike) -> ModelConfig:
    """Read a JSON or INI config, chosen by the file extension."""
    fmt = _format_for(path)
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config: {exc}") from exc
    if fmt == "ini":
        return _ini_parse(text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"malformed JSON config: {exc}") from exc
    return config_from_dict(data)


def _format_for(path: str | os.PathLike) -> str:
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext == ".json":
        return "json"
    if ext in (".ini", ".cfg", ".conf", ".txt"):
        return "ini"
    raise InvalidConfigError(
        f"cannot infer config format from extension {ext!r}; "
        "use .json or .ini/.cfg/.conf/.txt")


def apply_overrides(config: ModelConfig, overrides) -> ModelConfig:
    """Apply a list or tuple of ``section.field=value`` strings in order."""
    if not isinstance(overrides, (list, tuple)):
        raise InvalidConfigError(
            f"overrides must be a list or tuple of str, got {overrides!r}")
    cfg = config
    for entry in overrides:
        if not (isinstance(entry, str) and "=" in entry):
            raise InvalidConfigError(
                f"override {entry!r} must look like section.field=value")
        key, _, value = entry.partition("=")
        key = key.strip()
        # the derived paths have no section and are not overridable
        if "." not in key:
            raise InvalidConfigError(
                f"override path {key!r} must be section.field")
        cfg = set_param(cfg, key, value.strip())
    return cfg


def provenance(config: ModelConfig, **extra: str) -> dict[str, str]:
    """Provenance header of an output table: the generator, the first 12
    hex digits of ``config_digest`` and the ``extra`` keys."""
    return {"generator": f"ltmag {__about__.__version__}",
            "config_digest": config_digest(config)[:12], **extra}


def config_digest(config: ModelConfig) -> str:
    """Stable content hash of the physical configuration.

    Changes exactly when a parameter changes; safe to embed in output
    provenance (no timestamps, no environment state).
    """
    canonical = json.dumps(config_to_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def resolve_config(preset_name: str | None, config_path: str | None,
                   overrides=()) -> ModelConfig:
    """Preset or file, then overrides; used by the command-line front end."""
    if preset_name and config_path:
        raise InvalidConfigError("give either a preset or a config file")
    cfg = (load_config(config_path) if config_path
           else preset(preset_name or "baseline"))
    return apply_overrides(cfg, overrides)
