"""Config file round-trips, unit validation, overrides, digests."""

import dataclasses
import json
import math

import pytest

from ltmag import (GainSettings, InvalidConfigError, apply_overrides,
                   b_field_to_detuning, config_digest, config_from_dict,
                   config_to_dict, load_config, preset, resolve_config,
                   save_config)
from ltmag.cli import main
from ltmag.configio import _UNITS, get_param, param_unit, set_param
from ltmag.model import MIN_DRIVE_RATE

FLOAT_PATHS = [path for path, unit in _UNITS.items() if unit != "str"]


def _perturbed(value):
    """A valid value of a float field other than ``value``: 0.7 of it, or
    0.3 for zero and for an unset gain override."""
    return 0.7 * value if value else 0.3


@pytest.mark.parametrize("ext", ["json", "ini", "cfg", "txt"])
def test_save_load_round_trip(tmp_path, high_sens_config, ext):
    path = tmp_path / f"cfg.{ext}"
    save_config(high_sens_config, path)
    back = load_config(path)
    assert back == high_sens_config


def test_round_trip_preserves_override(tmp_path, baseline_config):
    cfg = set_param(baseline_config, "gain.coupling_override", 2.5e8)
    for name in ("a.json", "a.ini"):
        path = tmp_path / name
        save_config(cfg, path)
        assert load_config(path).gain.coupling_override == 2.5e8


def test_null_gain_override_loads_as_none(tmp_path, baseline_config):
    cfg = set_param(baseline_config, "gain.coupling_override", 2.5e8)
    doc = config_to_dict(cfg)
    doc["gain"]["coupling_override"] = None
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    assert load_config(path) == baseline_config
    path = tmp_path / "a.ini"
    save_config(cfg, path)
    text = path.read_text()
    assert "coupling_override = 250000000.0 rad/s\n" in text
    path.write_text(text.replace("250000000.0 rad/s", "none"))
    assert load_config(path) == baseline_config


def test_dict_round_trip(baseline_config):
    assert config_from_dict(config_to_dict(baseline_config)) \
        == baseline_config


def test_unknown_extension_rejected(tmp_path, baseline_config):
    with pytest.raises(InvalidConfigError):
        save_config(baseline_config, tmp_path / "cfg.yaml")


def test_unwritable_path_rejected(tmp_path, baseline_config):
    with pytest.raises(InvalidConfigError, match="cannot write config"):
        save_config(baseline_config, tmp_path / "missing" / "cfg.json")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(InvalidConfigError):
        load_config(tmp_path / "nope.json")


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidConfigError):
        load_config(path)


def test_wrong_unit_rejected(tmp_path, baseline_config):
    path = tmp_path / "cfg.json"
    save_config(baseline_config, path)
    data = json.loads(path.read_text())
    data["cavity"]["kappa"]["unit"] = "Hz"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidConfigError):
        load_config(path)


def test_unknown_field_rejected(tmp_path, baseline_config):
    path = tmp_path / "cfg.json"
    save_config(baseline_config, path)
    text = path.read_text()
    for section, name in (("cavity", "finesse"), ("gain", "foo")):
        data = json.loads(text)
        data[section][name] = {"value": 1.0, "unit": "1"}
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidConfigError, match=rf"\[{section}\]"):
            load_config(path)
    path = tmp_path / "cfg.ini"
    save_config(baseline_config, path)
    text = path.read_text()
    for section, line in (("cavity", "finesse = 1.0"), ("gain", "foo = 1.0")):
        path.write_text(text.replace(f"[{section}]\n",
                                     f"[{section}]\n{line}\n"))
        with pytest.raises(InvalidConfigError, match=rf"\[{section}\]"):
            load_config(path)
    path.write_text(text + "\n[lens]\nfocus = 1.0\n")
    with pytest.raises(InvalidConfigError, match="lens"):
        load_config(path)
    # unit words may be spaced freely, as before
    path.write_text(text.replace(" J s\n", " J  s\n"))
    assert "J  s" in path.read_text()
    assert load_config(path) == baseline_config


def test_ini_empty_value_rejected(tmp_path, baseline_config):
    path = tmp_path / "cfg.ini"
    save_config(baseline_config, path)
    text = path.read_text().replace("kappa = 3000000.0 rad/s", "kappa =")
    assert "kappa =\n" in text
    path.write_text(text)
    with pytest.raises(InvalidConfigError):
        load_config(path)


def test_overrides(baseline_config):
    cfg = apply_overrides(baseline_config, ["drive.omega=5e6",
                                            "cavity.kappa=4e6"])
    assert cfg.drive.omega == 5e6
    assert cfg.cavity.kappa == 4e6
    # the rest of the config is untouched
    assert cfg.rates == baseline_config.rates


def test_override_mode_and_gain(baseline_config):
    cfg = apply_overrides(baseline_config,
                          ["orientation.mode=four_orientation",
                           "gain.coupling_override=1e8"])
    assert cfg.orientation.mode == "four_orientation"
    assert cfg.gain.coupling_override == 1e8
    cleared = apply_overrides(cfg, ["gain.coupling_override=none"])
    assert cleared.gain.coupling_override is None


def test_override_rejects_bad_paths(baseline_config):
    for bad in ["omega=5e6", "drive.phase=1", "drive.omega", "drive.omega=x",
                "b_field=1e-4", "pump=1e6"]:
        with pytest.raises(InvalidConfigError):
            apply_overrides(baseline_config, [bad])


def test_digest_stable_and_sensitive(baseline_config):
    d1 = config_digest(baseline_config)
    d2 = config_digest(preset("baseline"))
    assert d1 == d2
    assert len(d1) == 64
    changed = apply_overrides(baseline_config, ["drive.omega=5e6"])
    assert config_digest(changed) != d1


@pytest.mark.parametrize("path", list(_UNITS))
def test_digest_changes_with_every_registry_path(baseline_config, path):
    value = get_param(baseline_config, path)
    changed = set_param(baseline_config, path,
                        "four_orientation" if param_unit(path) == "str"
                        else _perturbed(value))
    assert get_param(changed, path) != value
    assert config_digest(changed) != config_digest(baseline_config)


@pytest.mark.parametrize("ext", ["json", "ini"])
def test_every_float_field_perturbed_round_trips(tmp_path, high_sens_config,
                                                 ext):
    cfg = high_sens_config
    stored = [path for path in FLOAT_PATHS if "." in path]
    for path in stored:
        cfg = set_param(cfg, path, _perturbed(get_param(cfg, path)))
    assert all(get_param(cfg, path) != get_param(high_sens_config, path)
               for path in stored)
    path = tmp_path / f"cfg.{ext}"
    save_config(cfg, path)
    assert load_config(path) == cfg


def _json(edit):
    """The baseline config document after ``edit``, as JSON text."""
    doc = config_to_dict(preset("baseline"))
    edit(doc)
    return json.dumps(doc)


def test_optional_sections_default_when_left_out():
    doc = config_to_dict(preset("baseline"))
    del doc["orientation"], doc["constants"], doc["gain"]
    assert config_from_dict(doc) == preset("baseline")


# file suffix, text and error message of a malformed config document,
# one per check of the reader
_MALFORMED = {
    "token": (".json", _json(lambda d: d["orientation"].update(mode=5)),
              r"mode must be one of \(.*\), got 5"),
    "payload": (".json", _json(lambda d: d["cavity"].update(kappa=3e6)),
                r"must be \{'value': x"),
    "null": (".json", _json(lambda d: d["cavity"].update(kappa=None)),
             r"kappa must be finite and > 0, got None"),
    "document": (".json", "[1, 2]", "document must be an object"),
    "section": (".json", _json(lambda d: d.pop("drive")),
                r"missing config section \[drive\]"),
    "fields": (".json", _json(lambda d: d["drive"].pop("omega")),
               r"missing fields in \[drive\]: \['omega'\]"),
    "ini": (".ini", "kappa = 3e6 rad/s\n", "malformed config file"),
    "boolean": (".json", _json(lambda d: d["cavity"]["kappa"].update(
        value=True)), "cavity.kappa: bad number True"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_config_document_is_a_typed_error(tmp_path, capsys, case):
    suffix, text, message = _MALFORMED[case]
    path = tmp_path / f"cfg{suffix}"
    path.write_text(text)
    with pytest.raises(InvalidConfigError, match=message):
        load_config(path)
    code = main(["steady-state", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_resolve_config_precedence(tmp_path, high_sens_config):
    path = tmp_path / "cfg.json"
    save_config(high_sens_config, path)
    cfg = resolve_config(None, str(path), ["drive.omega=1e6"])
    assert cfg.cavity.kappa == high_sens_config.cavity.kappa
    assert cfg.drive.omega == 1e6
    assert resolve_config(None, None) == preset("baseline")
    assert resolve_config("high_sensitivity", None) == high_sens_config
    with pytest.raises(InvalidConfigError):
        resolve_config("baseline", str(path))


def test_integer_gain_override_digest_survives_round_trip(baseline_config):
    cfg = dataclasses.replace(
        baseline_config, gain=GainSettings(coupling_override=250000000))
    back = config_from_dict(config_to_dict(cfg))
    assert config_digest(back) == config_digest(cfg)


def test_section_that_is_not_an_object_rejected(baseline_config):
    for section in ("rates", "cavity", "orientation", "gain"):
        data = config_to_dict(baseline_config)
        data[section] = 5
        with pytest.raises(InvalidConfigError):
            config_from_dict(data)


def test_registry_units():
    assert param_unit("cavity.kappa") == "rad/s"
    assert param_unit("cavity.nv_fraction") is None
    assert param_unit("orientation.mode") == "str"
    assert param_unit("gain.coupling_override") == "rad/s"
    assert param_unit("b_field") == "T"
    assert param_unit("pump") == "rad/s"
    for bad in ("kappa", "drive.phase", "drive", "gain.none", ""):
        with pytest.raises(InvalidConfigError):
            param_unit(bad)


def test_registry_get_and_set(baseline_config):
    for path in FLOAT_PATHS:
        value = get_param(baseline_config, path)
        if value is not None:
            assert set_param(baseline_config, path, value) == baseline_config
    cfg = set_param(baseline_config, "pump", "2e6")
    assert cfg.drive.pump12 == cfg.drive.pump45 == get_param(cfg, "pump")
    assert get_param(cfg, "pump") == 2e6
    cfg = set_param(baseline_config, "b_field", 1e-4)
    assert cfg.drive.delta == b_field_to_detuning(1e-4)
    assert get_param(cfg, "b_field") == pytest.approx(1e-4, rel=1e-15)
    cfg = set_param(cfg, "gain.coupling_override", 3e8)
    assert get_param(cfg, "gain.coupling_override") == 3e8
    cfg = set_param(cfg, "gain.coupling_override", "None")
    assert cfg.gain.coupling_override is None
    cfg = set_param(cfg, "orientation.mode", "four_orientation")
    assert get_param(cfg, "orientation.mode") == "four_orientation"
    with pytest.raises(InvalidConfigError):
        set_param(cfg, "cavity.kappa", "fast")


@pytest.mark.parametrize("path", FLOAT_PATHS)
def test_every_float_path_rejects_non_finite(baseline_config, path):
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidConfigError):
            set_param(baseline_config, path, bad)


def test_booleans_are_not_numbers(baseline_config):
    for path in FLOAT_PATHS:
        for bad in (True, False):
            with pytest.raises(InvalidConfigError, match="bad number"):
                set_param(baseline_config, path, bad)


# The values each registry path must accept and must reject, written out
# by hand rather than read from the fields' declarations
_INF, _NAN = math.inf, math.nan
_RATE = ((0.0, 1e300), (-MIN_DRIVE_RATE, -1.0, _NAN, _INF, -_INF))
_POSITIVE = ((MIN_DRIVE_RATE, 1e300), (0.0, -1.0, _NAN, _INF, -_INF))
_FRACTION = ((MIN_DRIVE_RATE, 1.0),
             (0.0, math.nextafter(1.0, 2.0), -1.0, _NAN, _INF))
_DRIVE = ((0.0, MIN_DRIVE_RATE, 1e300),
          (1e-308, -MIN_DRIVE_RATE, -1.0, _NAN, _INF))
_FINITE = ((0.0, -1e300, 1e300), (_NAN, _INF, -_INF))
_ACCEPTS = {
    **{f"rates.{name}": _RATE for name in (
        "L21", "L23", "L31", "L54", "L56", "L64", "L57", "L71", "L74",
        "L27", "gamma14")},
    **{f"cavity.{name}": _POSITIVE for name in (
        "kappa", "medium_volume", "cavity_volume", "vacuum_wavelength",
        "emission_bandwidth")},
    "cavity.nv_concentration": _FRACTION,
    "cavity.nv_fraction": _FRACTION,
    "cavity.refractive_index": ((1.0, 1e300),
                                (math.nextafter(1.0, 0.0), 0.0, _NAN, _INF)),
    **{f"drive.{name}": _DRIVE for name in ("pump12", "pump45", "omega")},
    "pump": _DRIVE,
    "drive.delta": _FINITE,
    # the detuning of 1e300 T overflows
    "b_field": ((0.0, -1e-3, 1e-3), (1e300, _NAN, _INF, -_INF)),
    "orientation.mode": (("single_orientation", "four_orientation"),
                         ("", "Single_orientation", "four")),
    "orientation.aligned_fraction": _FRACTION,
    "orientation.off_axis_detuning": _FINITE,
    **{f"constants.{name}": _POSITIVE for name in (
        "hbar", "h", "c", "mu_bohr", "g_electron", "carbon_site_density")},
    "gain.coupling_override": ((MIN_DRIVE_RATE, 1e300, "none"),
                               (0.0, -1.0, _NAN, _INF)),
}


def _accepts(config, path, value) -> bool:
    try:
        set_param(config, path, value)
    except InvalidConfigError:
        return False
    return True


def test_every_path_accepts_exactly_its_tabled_values(baseline_config):
    assert set(_ACCEPTS) == set(_UNITS)
    wrong = [(path, value) for path, (good, bad) in _ACCEPTS.items()
             for value in good if not _accepts(baseline_config, path, value)]
    wrong += [(path, value) for path, (good, bad) in _ACCEPTS.items()
              for value in bad if _accepts(baseline_config, path, value)]
    assert wrong == []
